//! The sweep memoization cache's contract: a cache hit is
//! indistinguishable from a live run (bit-exact metrics, byte-identical
//! artifacts), hits never pollute the LPT cost table, concurrent sweeps
//! over one cache directory never tear or duplicate entries, any byte
//! prefix of a log opens to exactly its whole lines, and a salt change (a
//! regenerated golden) invalidates — and garbage-collects — every prior
//! entry.

use proptest::prelude::*;
use scenarios::{job_key, Metrics, Params, ResultCache, Scenario, SweepGrid, SweepRunner};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh per-test cache directory under cargo's integration-test tmpdir.
fn cache_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "sweep-cache-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic scenario whose metrics depend on (params, seed) and
/// deliberately include the floats most likely to betray a formatting
/// round-trip: negative zero, a one-ULP offset, and a 17-significant-digit
/// accumulation.
struct Probe;

impl Scenario for Probe {
    fn name(&self) -> &'static str {
        "cache_probe"
    }
    fn title(&self) -> &'static str {
        "memoization probe"
    }
    fn default_params(&self) -> Params {
        Params::new().with("k", 1u64).with("x", 0.5)
    }
    fn run(&self, sim: &mut des::Simulation, params: &Params) -> Metrics {
        let k = params.u64("k", 1);
        let mut sum = 0.0f64;
        for i in 0..(k * 7 + 3) {
            sum += sim.stream(&format!("draw{i}")).f64() * params.f64("x", 0.5);
        }
        let mut m = Metrics::new();
        m.push("sum", sum);
        m.push("seed_draw", sim.stream("tail").f64());
        m.push("neg_zero", -0.0);
        m.push("ulp", f64::from_bits(sum.to_bits() + 1));
        m
    }
}

fn grid() -> SweepGrid {
    SweepGrid::new().axis("k", vec![1u64, 2, 3])
}

#[test]
fn warm_sweep_is_bit_identical_and_fully_cache_served() {
    let dir = cache_dir("roundtrip");
    let seeds = vec![42, 43];

    let cold_runner = SweepRunner::new(4, seeds.clone())
        .with_cache(ResultCache::open(&dir).expect("open cold cache"));
    let cold = cold_runner.run(&Probe, &grid());
    let cold_stats = cold_runner.cache_stats().expect("cache attached");
    assert_eq!(cold_stats.hits, 0);
    assert_eq!(cold_stats.misses, 6, "3 points x 2 seeds all simulated");
    assert_eq!(cold_stats.entries, 6, "every miss persisted at commit");

    let warm_runner = SweepRunner::new(4, seeds.clone())
        .with_cache(ResultCache::open(&dir).expect("open warm cache"));
    let warm = warm_runner.run(&Probe, &grid());
    let warm_stats = warm_runner.cache_stats().expect("cache attached");
    assert_eq!(warm_stats.hits, 6, "warm run must be 100% cache-served");
    assert_eq!(warm_stats.misses, 0);
    assert!(
        warm_stats.saved_secs >= 0.0 && warm_stats.saved_secs.is_finite(),
        "saved wall-clock is a finite credit"
    );

    // The acceptance bar: cache-served results are bit-exact to live ones,
    // so the emitted artifact cannot tell the difference.
    assert!(warm.bits_eq(&cold), "cached sweep diverged from live sweep");
    let live = SweepRunner::new(1, seeds).run(&Probe, &grid());
    assert!(
        live.bits_eq(&warm),
        "cached sweep diverged from serial live"
    );
}

#[test]
fn every_cached_metric_round_trips_bits_exactly() {
    let dir = cache_dir("bits");
    let seeds = vec![7, 8, 9];
    let runner =
        SweepRunner::new(2, seeds.clone()).with_cache(ResultCache::open(&dir).expect("open"));
    let live = runner.run(&Probe, &grid());

    // Reopen from disk and look every (point, seed) job up directly: the
    // stored metrics must be bits_eq to the live ones, metric by metric.
    let mut cache = ResultCache::open(&dir).expect("reopen");
    let salt = cache.salt().to_string();
    for point in &live.points {
        for (seed, live_metrics) in &point.per_seed {
            let key = job_key(&salt, "cache_probe", &point.params, *seed);
            let cached = cache.lookup(&key).unwrap_or_else(|| {
                panic!(
                    "missing cache entry for {} seed {seed}",
                    point.params.label()
                )
            });
            assert!(
                cached.bits_eq(live_metrics),
                "cached metrics for {} seed {seed} are not bit-exact",
                point.params.label()
            );
        }
    }
}

#[test]
fn salt_bump_invalidates_every_entry_and_garbage_collects() {
    let dir = cache_dir("salt");
    let seeds = vec![1, 2];
    let n_jobs = 6;

    let v1 = SweepRunner::new(2, seeds.clone())
        .with_cache(ResultCache::open_with_salt(&dir, "engine-v1").expect("open v1"));
    v1.run(&Probe, &grid());
    assert_eq!(v1.cache_stats().expect("stats").entries, n_jobs);

    // Same tree, bumped salt: every prior entry is ignored (full miss)...
    let v2 = SweepRunner::new(2, seeds.clone())
        .with_cache(ResultCache::open_with_salt(&dir, "engine-v2").expect("open v2"));
    v2.run(&Probe, &grid());
    let stats = v2.cache_stats().expect("stats");
    assert_eq!(stats.hits, 0, "salt bump must invalidate every entry");
    assert_eq!(stats.misses, n_jobs);
    assert_eq!(stats.stale_dropped, n_jobs, "old entries seen and skipped");

    // ...and the v2 open garbage-collected them: v1's log is gone.
    let reopened_v2 = ResultCache::open_with_salt(&dir, "engine-v2").expect("reopen v2");
    assert_eq!(reopened_v2.len(), n_jobs as usize);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    let v2_log = reopened_v2.log_path().file_name().expect("log name");
    assert_eq!(files, [v2_log.to_os_string()], "one log, v2's");
    let reopened_v1 = ResultCache::open_with_salt(&dir, "engine-v1").expect("reopen v1");
    assert_eq!(reopened_v1.len(), 0, "v1 entries are gone, not just hidden");
}

#[test]
fn warm_cache_survives_bit_identical_engine_changes() {
    // The salt is a compile-time digest of the committed goldens and names
    // no crate version, so a refactor that leaves every golden byte alone
    // builds the same salt, and a cache filled before the change keeps
    // hitting after it. Two opens of one directory stand for the builds
    // before and after.
    let dir = cache_dir("warmsurvives");
    let seeds = vec![21, 22];
    let before = ResultCache::open(&dir).expect("open");
    let salt = before.salt();
    assert!(
        salt.len() == 32 && salt.bytes().all(|b| b.is_ascii_hexdigit()),
        "the salt is a digest, not `{salt}`"
    );
    let before = SweepRunner::new(2, seeds.clone()).with_cache(before);
    before.run(&Probe, &grid());
    assert_eq!(before.cache_stats().expect("stats").entries, 6);

    let after = SweepRunner::new(2, seeds).with_cache(ResultCache::open(&dir).expect("reopen"));
    after.run(&Probe, &grid());
    let stats = after.cache_stats().expect("stats");
    assert_eq!(stats.hits, 6, "entries must survive a bit-identical change");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.stale_dropped, 0, "nothing may be treated as stale");
}

#[test]
fn cache_written_under_the_version_salt_is_rekeyed_once() {
    // Before the salt was the goldens' digest, it named crate versions and
    // a hand-bumped revision. A cache filled under that salt is dropped at
    // the first open, its jobs run again once, and then they hit.
    let version_salt = "des=0.1.0|cluster=0.1.0|scenarios=0.1.0|rev=1";
    let dir = cache_dir("versionsalt");
    let seeds = vec![5, 6];
    let old = SweepRunner::new(2, seeds.clone())
        .with_cache(ResultCache::open_with_salt(&dir, version_salt).expect("open old"));
    old.run(&Probe, &grid());
    let n = old.cache_stats().expect("stats").entries;
    assert_eq!(n, 6);

    let rekeyed = ResultCache::open(&dir).expect("open current");
    assert_ne!(rekeyed.salt(), version_salt);
    assert_eq!(rekeyed.stats().stale_dropped, n, "every old line dropped");
    let cold = SweepRunner::new(2, seeds.clone()).with_cache(rekeyed);
    cold.run(&Probe, &grid());
    let stats = cold.cache_stats().expect("stats");
    assert_eq!((stats.hits, stats.misses), (0, n), "old entries never hit");

    let warm = SweepRunner::new(2, seeds).with_cache(ResultCache::open(&dir).expect("reopen"));
    warm.run(&Probe, &grid());
    let stats = warm.cache_stats().expect("stats");
    assert_eq!((stats.hits, stats.misses), (n, 0), "re-keyed entries hit");
    assert_eq!(stats.stale_dropped, 0);
}

#[test]
fn failed_sweeps_leave_recoverable_segments_not_a_corrupt_index() {
    struct Grenade;
    impl Scenario for Grenade {
        fn name(&self) -> &'static str {
            "cache_grenade"
        }
        fn title(&self) -> &'static str {
            "panics on k=2"
        }
        fn default_params(&self) -> Params {
            Params::new().with("k", 1u64)
        }
        fn run(&self, sim: &mut des::Simulation, params: &Params) -> Metrics {
            assert!(params.u64("k", 0) != 2, "boom");
            let mut m = Metrics::new();
            m.push("draw", sim.stream("d").f64());
            m
        }
    }

    let dir = cache_dir("failure");
    let failing = SweepRunner::new(2, vec![1]).with_cache(ResultCache::open(&dir).expect("open"));
    failing
        .try_run(&Grenade, &SweepGrid::new().axis("k", vec![1u64, 2, 3]))
        .expect_err("k=2 panics");
    // No commit happened, but the surviving jobs' lines are in the log and
    // the next open replays them.
    let recovered = ResultCache::open(&dir).expect("reopen");
    assert_eq!(recovered.len(), 2, "k=1 and k=3 results recovered");

    // The recovered entries serve a successful follow-up sweep's hits.
    let retry = SweepRunner::new(2, vec![1]).with_cache(recovered);
    retry.run(&Grenade, &SweepGrid::new().axis("k", vec![1u64, 3]));
    let stats = retry.cache_stats().expect("stats");
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 0);
}

/// A process that dies mid-append leaves a byte prefix of what it wrote.
/// Cut a log at every byte: the next open must hold exactly the entries
/// whose lines are whole, each bit-exact, and the next append must land on
/// a line of its own rather than be glued onto the torn one. (A line that
/// lacked only its newline is whole once open ends it.)
#[test]
fn every_byte_prefix_of_a_log_opens_to_exactly_its_whole_lines() {
    let dir = cache_dir("prefix");
    let cache = ResultCache::open(&dir).expect("open");
    let params = Probe.default_params();
    let job = |seed: u64| {
        let metrics = Probe.run(&mut des::Simulation::new(seed), &params);
        (job_key(cache.salt(), "cache_probe", &params, seed), metrics)
    };
    let jobs: Vec<_> = (0..4).map(job).collect();
    let writer = cache.writer().expect("writer");
    for (key, metrics) in &jobs {
        writer
            .append(key, "cache_probe", 0.25, metrics)
            .expect("append");
    }
    drop(writer);
    let log_path = cache.log_path().to_path_buf();
    let log = std::fs::read(&log_path).expect("log");
    let (late_key, late_metrics) = job(99);

    for cut in 0..=log.len() {
        std::fs::write(&log_path, &log[..cut]).expect("cut the log");
        let whole = log[..cut].iter().filter(|&&b| b == b'\n').count();
        let mut reopened = ResultCache::open(&dir).expect("reopen");
        assert_eq!(reopened.len(), whole, "cut at byte {cut}");
        for (key, metrics) in &jobs[..whole] {
            let held = reopened.lookup(key).expect("a whole line is held");
            assert!(held.bits_eq(metrics), "cut at byte {cut}: wrong bits");
        }
        let writer = reopened.writer().expect("writer");
        writer
            .append(&late_key, "cache_probe", 0.25, &late_metrics)
            .expect("append");
        drop(writer);
        let lacked_only_newline = log.get(cut) == Some(&b'\n');
        let mut healed = ResultCache::open(&dir).expect("reopen");
        assert_eq!(
            healed.len(),
            whole + lacked_only_newline as usize + 1,
            "cut at byte {cut}"
        );
        let held = healed
            .lookup(&late_key)
            .expect("the append after a torn tail");
        assert!(held.bits_eq(&late_metrics));
    }
}

/// Replay indexes every kind of line a log can hold: entries of two metric
/// schemas, a key appended twice (the later line wins), a torn line and a
/// line naming one metric twice (both skipped). Hits come back bit-exact,
/// whether the lines arrive at a commit or at the next open.
#[test]
fn replay_keeps_the_log_rules_across_metric_schemas() {
    use std::io::Write;

    let dir = cache_dir("schemas");
    let mut cache = ResultCache::open(&dir).expect("open");
    let salt = cache.salt().to_string();
    let key = |seed: u64| job_key(&salt, "cache_probe", &Params::new(), seed);
    let metrics = |pairs: &[(&str, f64)]| {
        let mut m = Metrics::new();
        for (name, value) in pairs {
            m.push(name, *value);
        }
        m
    };
    let first = metrics(&[("sum", 1.0), ("nan", f64::NAN)]);
    let later = metrics(&[
        ("sum", -0.0),
        ("nan", f64::from_bits(0x7ff8_0000_0000_0001)),
    ]);
    let other = metrics(&[
        ("lat", 0.1 + 0.2),
        ("p99", f64::from_bits(1)),
        ("tab\tname", 3.0),
    ]);
    let same_schema = metrics(&[("sum", 2.5), ("nan", 0.0)]);
    let bits = |x: f64| format!("{:016x}", x.to_bits());

    let writer = cache.writer().expect("writer");
    writer.append(&key(1), "x", 0.5, &first).expect("append");
    writer.append(&key(2), "y", 0.25, &other).expect("append");
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(cache.log_path())
        .expect("open the log");
    // Torn in its secs field and ended, as the next open ends a torn tail.
    writeln!(log, "v2\t{}\tx\t3fe0", key(3).hex()).expect("torn line");
    writeln!(
        log,
        "v2\t{}\tx\t{}\t2\tsum\t{}\tsum\t{}",
        key(4).hex(),
        bits(0.5),
        bits(1.0),
        bits(2.0)
    )
    .expect("duplicate-name line");
    writer.append(&key(1), "x", 0.5, &later).expect("append");
    writer
        .append(&key(5), "x", 0.75, &same_schema)
        .expect("append");
    cache.commit(vec![writer]).expect("commit");

    let check = |cache: &mut ResultCache| {
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().entries, 3);
        for (seed, expected) in [(1, &later), (2, &other), (5, &same_schema)] {
            let held = cache.lookup(&key(seed)).expect("a whole line hits");
            assert!(held.bits_eq(expected), "seed {seed}: {held:?}");
        }
        assert!(cache.lookup(&key(3)).is_none(), "the torn line is skipped");
        assert!(
            cache.lookup(&key(4)).is_none(),
            "the duplicate-name line is skipped"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 2));
        assert_eq!(stats.saved_secs, 0.5 + 0.25 + 0.75);
    };
    check(&mut cache);
    check(&mut ResultCache::open(&dir).expect("reopen"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Two sweeps over the same job set race on one cache directory across
    /// 2–8 worker threads each. Whatever the interleaving: both emit
    /// bit-identical results to serial, and the shared log ends up with
    /// only whole, well-formed lines — each job once, or twice when both
    /// sweeps missed it — and exactly one entry per job.
    #[test]
    fn concurrent_sweeps_never_tear_or_duplicate_cache_entries(
        seed_base in 0u64..100_000,
        threads_a in 2usize..9,
        threads_b in 2usize..9,
    ) {
        let dir = cache_dir("concurrent");
        let seeds: Vec<u64> = vec![seed_base, seed_base + 1];
        let grid = SweepGrid::new().axis("k", vec![1u64, 2, 3, 4]);
        let n_jobs = 8usize;

        let serial = SweepRunner::new(1, seeds.clone()).run(&Probe, &grid);

        let (res_a, res_b) = std::thread::scope(|scope| {
            let run = |threads: usize| {
                let dir = dir.clone();
                let seeds = seeds.clone();
                let grid = grid.clone();
                move || {
                    SweepRunner::new(threads, seeds)
                        .with_cache(ResultCache::open(&dir).expect("open"))
                        .run(&Probe, &grid)
                }
            };
            let a = scope.spawn(run(threads_a));
            let b = scope.spawn(run(threads_b));
            (a.join().expect("sweep a"), b.join().expect("sweep b"))
        });
        prop_assert!(res_a.bits_eq(&serial), "racing sweep A diverged");
        prop_assert!(res_b.bits_eq(&serial), "racing sweep B diverged");

        // The shared log: whole lines only, each naming one of the jobs.
        let reloaded = ResultCache::open(&dir).expect("reopen");
        let log = std::fs::read_to_string(reloaded.log_path()).expect("log");
        prop_assert!(log.ends_with('\n'), "torn tail");
        let lines: Vec<&str> = log.lines().collect();
        prop_assert!((n_jobs..=2 * n_jobs).contains(&lines.len()), "{} lines", lines.len());
        let mut keys = std::collections::BTreeSet::new();
        for line in &lines {
            let fields: Vec<&str> = line.split('\t').collect();
            prop_assert!(fields[0] == "v2" && fields.len() == 13, "malformed line: {line:?}");
            keys.insert(fields[1]);
        }
        prop_assert_eq!(keys.len(), n_jobs, "every job, and no other key");
        prop_assert_eq!(reloaded.len(), n_jobs, "every job parses back");

        // And the racing runs' combined log must leave nothing behind that
        // a warm sweep cannot serve: a third run is fully cache-served.
        let warm = SweepRunner::new(4, seeds).with_cache(reloaded);
        let warm_result = warm.run(&Probe, &grid);
        prop_assert!(warm_result.bits_eq(&serial));
        let stats = warm.cache_stats().expect("stats");
        prop_assert_eq!(stats.misses, 0, "warm run after the race must fully hit");
    }
}
