//! Crash-consistency harness for the result cache, driven through the
//! `scenarios` CLI as a black box.
//!
//! A sweep over a cache that already holds committed entries is cut off at
//! every 512-byte boundary of the files it writes, with the shell's
//! file-size limit (`ulimit -f`), in two ways:
//!
//! * **kill** — the default `SIGXFSZ` action ends the process inside the
//!   write that crosses the limit, after a short write: a crash that leaves
//!   a torn tail;
//! * **write error** — `SIGXFSZ` ignored, so the crossing write comes back
//!   short and the next one fails with `EFBIG`, the pattern a full disk
//!   produces; the process lives on and must fail the sweep or finish it
//!   correctly.
//!
//! This models process death and I/O errors, not power loss: whatever a
//! completed `write` handed the kernel is what the next open reads. After
//! each cut it asserts that the next open:
//!
//! * keeps every committed entry and returns only bit-exact metrics;
//! * recovers a prefix of the cut sweep's writes — the recovered sets grow
//!   monotonically with the limit;
//! * serves a warm sweep whose artifact is byte-identical to a live run and
//!   whose hits are exactly the recovered entries;
//! * is whole again after that sweep: a second warm sweep misses nothing.
//!
//! A last test races whole CLI processes on one cache directory.

use json::Value;
use scenarios::{job_key, Metrics, Registry, ResultCache, SweepGrid, SweepRunner};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const SCENARIO: &str = "tab03_idle_node";
/// Seeds committed before the cut sweep starts.
const COMMITTED: usize = 8;
/// Seeds of the cut sweep: the committed ones hit, the rest are appended.
const SWEPT: usize = 24;

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cache-crash-{tag}-{}", std::process::id()))
}

/// `scenarios run` over the first `seeds` seeds on one thread (so the
/// cache sees its writes in one fixed order), optionally cut by a file-size
/// limit of that many 512-byte blocks.
fn command(dir: &Path, seeds: usize, artifact: &Path, cut: Option<(u64, Cut)>) -> Command {
    let bin = env!("CARGO_BIN_EXE_scenarios");
    let seeds = seeds.to_string();
    let args = [
        "run",
        SCENARIO,
        "--seeds",
        &seeds,
        "--threads",
        "1",
        "--cache-dir",
        dir.to_str().expect("UTF-8 path"),
        "--json",
        artifact.to_str().expect("UTF-8 path"),
    ];
    let mut cmd = match cut {
        None => Command::new(bin),
        Some((blocks, cut)) => {
            let trap = match cut {
                Cut::Kill => "",
                Cut::WriteError => "trap '' XFSZ; ",
            };
            let mut sh = Command::new("sh");
            sh.arg("-c")
                .arg(format!("{trap}ulimit -f {blocks} && exec \"$0\" \"$@\""))
                .arg(bin);
            sh
        }
    };
    cmd.args(args);
    cmd
}

fn run_ok(dir: &Path, seeds: usize, artifact: &Path) {
    let out = command(dir, seeds, artifact, None)
        .output()
        .expect("scenarios binary runs");
    assert!(
        out.status.success(),
        "scenarios run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `(hits, misses)` from a run's `<artifact>.cache.json` sidecar.
fn sidecar_counts(artifact: &Path) -> (u64, u64) {
    let text = std::fs::read_to_string(artifact.with_extension("cache.json")).expect("sidecar");
    let doc = json::from_str(&text).expect("sidecar is JSON");
    let count = |field: &str| match doc.get(field) {
        Some(Value::U64(n)) => *n,
        other => panic!("sidecar `{field}` is {other:?}"),
    };
    (count("hits"), count("misses"))
}

/// Which of the swept jobs the store at `dir` holds, asserting every held
/// result is bit-exact.
fn recovered(dir: &Path, live: &[(u64, Metrics)]) -> Vec<bool> {
    let registry = Registry::standard();
    let params = registry.get(SCENARIO).expect("registered").default_params();
    let mut cache = ResultCache::open(dir).expect("a cut-off sweep never breaks the next open");
    live.iter()
        .map(|(seed, metrics)| {
            let key = job_key(cache.salt(), SCENARIO, &params, *seed);
            let held = cache.lookup(&key);
            if let Some(held) = &held {
                assert!(
                    held.bits_eq(metrics),
                    "seed {seed}: recovered a wrong result"
                );
            }
            held.is_some()
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Cut {
    Kill,
    WriteError,
}

fn cut_at_every_block(cut: Cut) {
    let root = scratch(&format!("{cut:?}"));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("scratch dir");

    let registry = Registry::standard();
    let scenario = registry.get(SCENARIO).expect("registered");
    let live = SweepRunner::new(1, SweepRunner::seeds(SWEPT))
        .run(scenario, &SweepGrid::new())
        .points
        .remove(0)
        .per_seed;
    let reference = root.join("reference.json");
    run_ok(&root.join("uncut"), SWEPT, &reference);
    let reference = std::fs::read(&reference).expect("reference artifact");

    let mut previous: Option<Vec<bool>> = None;
    let mut finished = false;
    for blocks in 0..400u64 {
        let dir = root.join(format!("cache-{blocks}"));
        run_ok(&dir, COMMITTED, &root.join("committed.json"));

        let cut_artifact = root.join(format!("cut-{blocks}.json"));
        let out = command(&dir, SWEPT, &cut_artifact, Some((blocks, cut)))
            .output()
            .expect("scenarios binary runs");
        match (cut, out.status.code()) {
            (_, Some(0)) => {
                let bytes = std::fs::read(&cut_artifact).expect("a successful run wrote it");
                assert_eq!(
                    bytes, reference,
                    "limit {blocks}: exit 0 with a wrong artifact"
                );
                finished = true;
            }
            (Cut::Kill, code) => assert_eq!(code, None, "limit {blocks}: not killed, not ok"),
            (Cut::WriteError, code) => assert!(code.is_some(), "limit {blocks}: killed"),
        }

        let held = recovered(&dir, &live);
        assert!(
            held[..COMMITTED].iter().all(|&h| h),
            "limit {blocks}: a committed entry was lost"
        );
        if let Some(previous) = &previous {
            for (seed, (&before, &now)) in previous.iter().zip(&held).enumerate() {
                assert!(
                    !before || now,
                    "limit {blocks}: seed index {seed} recovered under a smaller limit only: \
                     the store is not a prefix of the sweep's writes"
                );
            }
        }
        let n_held = held.iter().filter(|&&h| h).count() as u64;

        let warm = root.join(format!("warm-{blocks}.json"));
        run_ok(&dir, SWEPT, &warm);
        assert_eq!(std::fs::read(&warm).expect("warm artifact"), reference);
        assert_eq!(
            sidecar_counts(&warm),
            (n_held, SWEPT as u64 - n_held),
            "limit {blocks}: the warm sweep must hit exactly the recovered entries"
        );
        let again = root.join(format!("again-{blocks}.json"));
        run_ok(&dir, SWEPT, &again);
        assert_eq!(
            std::fs::read(&again).expect("second warm artifact"),
            reference
        );
        assert_eq!(
            sidecar_counts(&again),
            (SWEPT as u64, 0),
            "limit {blocks}: the store did not heal"
        );

        previous = Some(held);
        if finished {
            break;
        }
    }
    assert!(finished, "no limit let the sweep finish");
    assert!(
        previous.is_some_and(|held| held.iter().all(|&h| h)),
        "the uncut sweep recovers everything"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_sweep_killed_at_any_write_leaves_a_prefix_consistent_store() {
    cut_at_every_block(Cut::Kill);
}

#[test]
fn a_sweep_failing_any_write_leaves_a_prefix_consistent_store() {
    cut_at_every_block(Cut::WriteError);
}

/// Three `scenarios run` processes with overlapping seed sets race on one
/// cache directory, five times over. Each must write the artifact an
/// uncached run writes; the shared log must hold only whole lines and every
/// job as one entry; and a warm sweep must then hit everything.
#[test]
fn racing_cli_processes_share_one_log_without_tearing() {
    let root = scratch("race");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("scratch dir");
    let seed_counts = [SWEPT, SWEPT - COMMITTED, SWEPT - 4];
    let references: Vec<Vec<u8>> = seed_counts
        .iter()
        .map(|&seeds| {
            let path = root.join(format!("reference-{seeds}.json"));
            run_ok(&root.join(format!("uncached-{seeds}")), seeds, &path);
            std::fs::read(&path).expect("reference artifact")
        })
        .collect();
    // tab03 reports four metrics: tag, key, scenario, secs, count + 4 pairs.
    const FIELDS: usize = 13;

    for round in 0..5 {
        let dir = root.join(format!("cache-{round}"));
        let racers: Vec<_> = seed_counts
            .iter()
            .map(|&seeds| {
                let artifact = root.join(format!("race-{round}-{seeds}.json"));
                let child = command(&dir, seeds, &artifact, None)
                    .stdout(Stdio::null())
                    .spawn()
                    .expect("scenarios spawns");
                (child, artifact)
            })
            .collect();
        for ((mut child, artifact), reference) in racers.into_iter().zip(&references) {
            let status = child.wait().expect("racing run exits");
            assert!(status.success(), "round {round}: a racing run failed");
            let bytes = std::fs::read(&artifact).expect("racing artifact");
            assert_eq!(&bytes, reference, "round {round}: wrong artifact");
        }

        let cache = ResultCache::open(&dir).expect("open after the race");
        let log = std::fs::read_to_string(cache.log_path()).expect("log");
        assert!(log.ends_with('\n'), "round {round}: torn tail");
        for line in log.lines() {
            assert_eq!(
                line.split('\t').count(),
                FIELDS,
                "round {round}: torn or interleaved line {line:?}"
            );
        }
        assert_eq!(cache.len(), SWEPT, "round {round}: every job, once");
        let warm = root.join(format!("warm-{round}.json"));
        run_ok(&dir, SWEPT, &warm);
        assert_eq!(std::fs::read(&warm).expect("warm artifact"), references[0]);
        assert_eq!(sidecar_counts(&warm), (SWEPT as u64, 0), "round {round}");
    }
    let _ = std::fs::remove_dir_all(&root);
}
