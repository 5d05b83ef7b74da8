//! Golden-file pin on the `scenarios` CLI: the artifact a `run` writes
//! today must be byte-for-byte what the pre-service CLI wrote (the
//! committed goldens), and a `serve` + `submit --wait` round trip must
//! write those same bytes again. This is the API-redesign safety net —
//! the sweep service may reroute everything, but the artifact bytes are
//! the contract.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

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

fn run_cli(args: &[&str]) {
    let output = scenarios_bin()
        .args(args)
        .output()
        .expect("scenarios binary runs");
    assert!(
        output.status.success(),
        "scenarios {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
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
}

/// `scenarios report <name>` is the one way to print a paper-style report
/// (the per-figure wrapper binaries are gone): a known name prints its
/// banner and tables, an unknown one is a usage error, not a silent no-op.
#[test]
fn report_prints_one_scenario_and_rejects_unknown_names() {
    let known = scenarios_bin()
        .args(["report", "tab03_idle_node"])
        .output()
        .expect("scenarios binary runs");
    assert!(known.status.success(), "report tab03_idle_node failed");
    let stdout = String::from_utf8_lossy(&known.stdout);
    assert!(
        stdout.contains("tab03_idle_node"),
        "report must print the scenario's banner:\n{stdout}"
    );

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

/// Boot `scenarios serve` on a fixed loopback port and wait for it to
/// answer a ping. Killed (via shutdown verb) by the caller.
fn spawn_server(addr: &str) -> Child {
    let mut child = scenarios_bin()
        .args(["serve", "--addr", addr, "--threads", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    for _ in 0..100 {
        if let Ok(mut client) = scenarios::wire::Client::connect(addr) {
            if client.ping().is_ok() {
                return child;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("server at {addr} never answered a ping");
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

    // A fixed port keeps the client/server pair simple; pick one unlikely
    // to collide and retry-connect until the listener is up.
    let addr = "127.0.0.1:17411";
    let mut server = spawn_server(addr);

    let served = out_path("served");
    run_cli(&[
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
        "submit --wait artifact bytes diverged from run"
    );

    scenarios::wire::Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown verb");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "serve exited nonzero: {status}");
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
