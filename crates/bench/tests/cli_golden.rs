//! Golden-file pin on the `scenarios` CLI: the artifact a `run` writes
//! today must be byte-for-byte what the pre-service CLI wrote (the
//! committed goldens), and a `serve` + `submit --wait` round trip must
//! write those same bytes again, cold or out of the cache. This is the
//! API-redesign safety net — the sweep service may reroute everything, but
//! the artifact bytes are the contract.

use json::Value;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn scenarios_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
}

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../scenarios/tests/golden/{name}"))
}

fn out_path(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-golden-{tag}-{}.json", std::process::id()))
}

/// An empty cache directory of this test process's own.
fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `scenarios` with `args`, require exit 0, and return its stdout.
fn run_cli(args: &[&str]) -> String {
    let output = scenarios_bin()
        .args(args)
        .output()
        .expect("scenarios binary runs");
    assert!(
        output.status.success(),
        "scenarios {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

#[test]
fn run_artifact_matches_the_committed_goldens() {
    let tab03 = out_path("tab03");
    run_cli(&[
        "run",
        "tab03_idle_node",
        "--seeds",
        "2",
        "--threads",
        "2",
        "--order",
        "input",
        "--json",
        tab03.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&tab03).expect("artifact written"),
        std::fs::read(golden("tab03_seeds2.json")).expect("golden present"),
        "tab03 artifact bytes drifted from the golden"
    );

    let fig07 = out_path("fig07");
    run_cli(&[
        "run",
        "fig07_latency",
        "--seeds",
        "2",
        "--threads",
        "2",
        "--grid",
        "reps=50,100",
        "--json",
        fig07.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&fig07).expect("artifact written"),
        std::fs::read(golden("fig07_reps50_100_seeds2.json")).expect("golden present"),
        "fig07 artifact bytes drifted from the golden"
    );

    // Default parameters: `run` summarises the 1 B and 4 KiB sizes, each
    // from its own stream, and draws nothing for the eleven between.
    let fig07_default = out_path("fig07-default");
    run_cli(&[
        "run",
        "fig07_latency",
        "--seeds",
        "3",
        "--threads",
        "2",
        "--json",
        fig07_default.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&fig07_default).expect("artifact written"),
        std::fs::read(golden("fig07_default_seeds3.json")).expect("golden present"),
        "fig07 default-parameter artifact bytes drifted from the golden"
    );

    let fig11 = out_path("fig11");
    run_cli(&[
        "run",
        "fig11_memory_sharing",
        "--seeds",
        "2",
        "--threads",
        "2",
        "--grid",
        "reps=5,10",
        "--json",
        fig11.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&fig11).expect("artifact written"),
        std::fs::read(golden("fig11_reps5_10_seeds2.json")).expect("golden present"),
        "fig11 artifact bytes drifted from the golden"
    );

    // The Fig. 1 replay at the cluster sizes where the batch scheduler's
    // pending queue is deep and backfill busy (1200 and 1800 nodes) and
    // where it is nearly empty (2400 and 3600), over a week.
    let fig01 = out_path("fig01");
    run_cli(&[
        "run",
        "fig01_utilization",
        "--grid",
        "nodes=1200,1800,2400,3600",
        "--param",
        "horizon_days=7.0",
        "--seeds",
        "1",
        "--threads",
        "2",
        "--json",
        fig01.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&fig01).expect("artifact written"),
        std::fs::read(golden("fig01_nodes1200_1800_2400_3600_days7_seeds1.json"))
            .expect("golden present"),
        "fig01 artifact bytes drifted from the golden"
    );

    // Every scenario at its default parameters. A deliberate change to what
    // a scenario computes regenerates this file with the same command
    // (`--json crates/scenarios/tests/golden/all_seeds2.json`), and then the
    // cache salt, which is the goldens' digest.
    let all = out_path("all");
    run_cli(&[
        "run",
        "--all",
        "--seeds",
        "2",
        "--threads",
        "2",
        "--json",
        all.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&all).expect("artifact written"),
        std::fs::read(golden("all_seeds2.json")).expect("golden present"),
        "run --all artifact bytes drifted from the golden"
    );
}

/// One counter of a `<artifact>.cache.json` sidecar.
fn sidecar_counter(artifact: &Path, key: &str) -> u64 {
    let path = artifact.with_extension("cache.json");
    let text = std::fs::read_to_string(&path).expect("sidecar written");
    let sidecar = json::from_str(&text).expect("sidecar is JSON");
    match sidecar.get(key) {
        Some(Value::U64(n)) => *n,
        other => panic!("{}: `{key}` is {other:?}", path.display()),
    }
}

/// The same `run` twice on one fresh cache directory: the second is served
/// entirely from the cache — byte-identical artifact, every job a hit and
/// none a miss in its sidecar.
#[test]
fn repeated_run_on_one_cache_dir_is_byte_identical_and_all_hits() {
    // tab03 has one grid point: two seeds are two jobs.
    const JOBS: u64 = 2;
    let cache_dir = fresh_cache_dir("incremental");
    let sweep = |tag: &str| {
        let artifact = out_path(tag);
        run_cli(&[
            "run",
            "tab03_idle_node",
            "--seeds",
            "2",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--cache-stats",
            "--json",
            artifact.to_str().unwrap(),
        ]);
        artifact
    };

    let cold = sweep("incremental-cold");
    assert_eq!(sidecar_counter(&cold, "hits"), 0, "cold run on a fresh dir");
    assert_eq!(
        sidecar_counter(&cold, "misses"),
        JOBS,
        "cold run on a fresh dir"
    );

    let warm = sweep("incremental-warm");
    assert_eq!(
        std::fs::read(&warm).expect("warm artifact written"),
        std::fs::read(&cold).expect("cold artifact written"),
        "the cache-served artifact diverged from the computed one"
    );
    assert_eq!(sidecar_counter(&warm, "misses"), 0, "warm run missed");
    assert_eq!(sidecar_counter(&warm, "hits"), JOBS, "warm run hits");
}

/// `scenarios report <name>` is the one way to print a paper-style report
/// (the per-figure wrapper binaries are gone): a known name prints its
/// banner and tables, an unknown one is a usage error, not a silent no-op.
/// `report --all` runs every scenario's report, so a shape assertion that
/// any of them makes about the paper's claims fails this test.
#[test]
fn report_prints_one_scenario_and_rejects_unknown_names() {
    let stdout = run_cli(&["report", "tab03_idle_node"]);
    assert!(
        stdout.contains("tab03_idle_node"),
        "report must print the scenario's banner:\n{stdout}"
    );

    run_cli(&["report", "--all"]);

    let unknown = scenarios_bin()
        .args(["report", "no_such_scenario"])
        .output()
        .expect("scenarios binary runs");
    assert!(!unknown.status.success(), "unknown scenario must fail");
    assert!(
        String::from_utf8_lossy(&unknown.stderr).contains("unknown scenario `no_such_scenario`"),
        "the error must name the scenario"
    );
}

/// A `scenarios serve` child, killed if the test panics before stopping it.
/// Its stdout stays open so the server's closing line has a reader.
struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Boot `scenarios serve` with `--threads threads` on a free loopback port
/// with a cache directory. Returns the address it bound, read from its
/// `listening on` banner, and the banner itself.
fn spawn_server(cache_dir: &Path, threads: &str) -> (ServerChild, String, String) {
    let mut child = scenarios_bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            threads,
            "--cache-dir",
        ])
        .arg(cache_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut server = ServerChild {
        stdout: BufReader::new(child.stdout.take().expect("piped stdout")),
        child,
    };
    let mut line = String::new();
    loop {
        line.clear();
        let read = server
            .stdout
            .read_line(&mut line)
            .expect("read serve's stdout");
        assert!(read > 0, "serve exited before it was listening");
        if let Some((_, rest)) = line.split_once("listening on ") {
            let addr = rest.split(' ').next().unwrap_or_default().to_string();
            return (server, addr, line);
        }
    }
}

#[test]
fn submit_wait_artifact_is_byte_identical_to_run() {
    let direct = out_path("direct");
    run_cli(&[
        "run",
        "tab03_idle_node",
        "--seeds",
        "2",
        "--threads",
        "2",
        "--json",
        direct.to_str().unwrap(),
    ]);

    let (mut server, addr, banner) = spawn_server(&fresh_cache_dir("service-cache"), "2");
    assert!(banner.ends_with(", 2 worker threads)\n"), "{banner}");
    let addr = addr.as_str();

    // The same request twice: computed, then answered from the cache with
    // the artifact the first left in the service's memo, not a rendering of
    // its own. Both must be `run`'s bytes. The receipt line reads `[submit] request <id> on <addr> — <status>
    // (<n> jobs, <k> from cache)`.
    let submit = |tag: &str| {
        let served = out_path(tag);
        let stdout = run_cli(&[
            "submit",
            "tab03_idle_node",
            "--seeds",
            "2",
            "--addr",
            addr,
            "--wait",
            "--json",
            served.to_str().unwrap(),
        ]);
        assert_eq!(
            std::fs::read(&served).expect("served artifact written"),
            std::fs::read(&direct).expect("direct artifact written"),
            "{tag} submit --wait artifact bytes diverged from run"
        );
        let receipt = stdout
            .lines()
            .find_map(|line| line.strip_prefix("[submit] request "))
            .unwrap_or_else(|| panic!("no receipt line in:\n{stdout}"))
            .to_string();
        let id: u64 = receipt
            .split(' ')
            .next()
            .and_then(|id| id.parse().ok())
            .unwrap_or_else(|| panic!("no request id in `{receipt}`"));
        (id, receipt)
    };
    let (cold_id, cold) = submit("served-cold");
    assert!(cold.ends_with("(2 jobs, 0 from cache)"), "{cold}");
    let (warm_id, warm) = submit("served-warm");
    assert!(warm.ends_with("(2 jobs, 2 from cache)"), "{warm}");

    // `status`, `status <id>` and `cancel <id>` print one `request <id>
    // <status>` line per request; cancelling a finished request is a no-op.
    let line = |id: u64, status: &str| format!("request {id:>4}  {status}");
    let listed = run_cli(&["status", "--addr", addr]);
    for id in [cold_id, warm_id] {
        assert!(listed.lines().any(|l| l == line(id, "done")), "{listed}");
    }
    let one = run_cli(&["status", "--addr", addr, &cold_id.to_string()]);
    assert_eq!(one, format!("{}\n", line(cold_id, "done")));
    let cancelled = run_cli(&["cancel", "--addr", addr, &cold_id.to_string()]);
    assert_eq!(cancelled, format!("{}\n", line(cold_id, "done")));

    shut_down(&mut server, addr);
}

/// Send `scenarios shutdown` and wait for the server to exit cleanly.
fn shut_down(server: &mut ServerChild, addr: &str) {
    run_cli(&["shutdown", "--addr", addr]);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("poll server") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "serve did not exit after `scenarios shutdown`"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "serve exited nonzero: {status}");
}

#[test]
fn serve_banner_reports_the_pool_it_runs() {
    // `--threads 0` is clamped to one worker; the banner must say so.
    let (mut server, addr, banner) = spawn_server(&fresh_cache_dir("serve-banner"), "0");
    assert!(banner.ends_with(", 1 worker threads)\n"), "{banner}");
    shut_down(&mut server, &addr);
}

/// Exit code and stderr of a `scenarios` invocation expected to fail.
fn failure_of(args: &[&str]) -> (Option<i32>, String) {
    let output = scenarios_bin()
        .args(args)
        .output()
        .expect("scenarios binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code(), stderr)
}

/// Each subcommand accepts the flags on its own usage line and no others:
/// `submit` cannot size a remote server's pool, `serve` has no sweep to
/// shape, and a flag that would be silently ignored is an error instead.
/// (The `serve` cases name an address nothing can bind, so a build that
/// swallowed the flag would fail on that rather than serve forever.)
#[test]
fn subcommands_reject_flags_outside_their_usage_line() {
    let cases: [(&[&str], &str); 7] = [
        (&["run", "tab03_idle_node", "--wait"], "--wait"),
        (
            &["submit", "tab03_idle_node", "--threads", "2"],
            "--threads",
        ),
        (
            &["submit", "tab03_idle_node", "--cache-dir", "/x"],
            "--cache-dir",
        ),
        (
            &["submit", "tab03_idle_node", "--cache-stats"],
            "--cache-stats",
        ),
        (&["serve", "--addr", "nowhere", "--wait"], "--wait"),
        (&["serve", "--addr", "nowhere", "--seeds", "7"], "--seeds"),
        (&["serve", "--addr", "nowhere", "--grid", "a=1"], "--grid"),
    ];
    for (args, flag) in cases {
        let (code, stderr) = failure_of(args);
        assert_eq!(code, Some(2), "scenarios {args:?}: {stderr}");
        assert_eq!(stderr, format!("unknown flag `{flag}`\n"), "{args:?}");
    }
}

/// A cache directory that cannot be created is the cache's structured
/// error and exit code 2 — from the open, before anything runs.
#[test]
fn run_reports_an_unusable_cache_dir_as_an_error() {
    let file = out_path("not-a-dir");
    std::fs::write(&file, "").expect("plain file");
    let under_a_file = file.join("cache");
    let (code, stderr) = failure_of(&[
        "run",
        "tab03_idle_node",
        "--cache-dir",
        under_a_file.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.starts_with("sweep cache ("), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A value its tunable cannot read fails validation with exit code 2 and
/// names the field, the scenario and the kind — from `run` and, through a
/// server that goes on answering, from `submit`. Nothing runs the
/// tunable's default in its place.
#[test]
fn wrong_kind_values_are_refused_naming_field_scenario_and_kind() {
    // `[scenario, flag, key=value]` and the field the error must name.
    let cases = [
        (["fig08_io", "--param", "readers=abc"], "params.readers"),
        (["fig08_io", "--param", "readers=2.5"], "params.readers"),
        (["fig08_io", "--param", "readers=true"], "params.readers"),
        (["fig09_cpu_sharing", "--grid", "reps=5,abc"], "grid.reps"),
    ];
    let check = |args: &[&str], field: &str, scenario: &str| {
        let (code, stderr) = failure_of(args);
        assert_eq!(code, Some(2), "scenarios {args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!(
                "invalid request field `{field}`: {scenario} reads "
            )) && stderr.contains("as a u64"),
            "scenarios {args:?}: {stderr}"
        );
    };
    for (args, field) in cases {
        let run = [&["run"], &args[..], &["--seeds", "1"]].concat();
        check(&run, field, args[0]);
    }

    let (mut server, addr, _) = spawn_server(&fresh_cache_dir("wrong-kind"), "1");
    for (args, field) in cases {
        let submit = [&["submit"], &args[..], &["--addr", &addr, "--wait"]].concat();
        check(&submit, field, args[0]);
        assert_eq!(
            run_cli(&["status", "--addr", &addr]),
            format!("no requests on {addr}\n"),
            "nothing was queued"
        );
    }
    shut_down(&mut server, &addr);
}
