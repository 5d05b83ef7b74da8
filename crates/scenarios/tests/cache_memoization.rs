//! The sweep memoization cache's contract: a cache hit is
//! indistinguishable from a live run (bit-exact metrics, byte-identical
//! artifacts), hits never pollute the LPT cost table, concurrent sweeps
//! over one cache directory never tear or duplicate entries, and an
//! engine-salt bump invalidates — and garbage-collects — every prior
//! entry.

use proptest::prelude::*;
use scenarios::{
    engine_salt, job_key, Metrics, Params, ResultCache, Scenario, SweepGrid, SweepRunner,
};
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

    // ...and the commit's index rewrite garbage-collects them.
    let index = std::fs::read_to_string(dir.join("index.v1.log")).expect("index");
    assert!(
        !index.contains("engine-v1"),
        "stale-salt entries survived the rewrite"
    );
    assert!(index.contains("engine-v2"));
    let reopened_v1 = ResultCache::open_with_salt(&dir, "engine-v1").expect("reopen v1");
    assert_eq!(reopened_v1.len(), 0, "v1 entries are gone, not just hidden");
    let reopened_v2 = ResultCache::open_with_salt(&dir, "engine-v2").expect("reopen v2");
    assert_eq!(reopened_v2.len(), n_jobs as usize);
}

#[test]
fn warm_cache_survives_bit_identical_engine_changes() {
    // The inverse contract of the salt-bump tests: an internal refactor
    // that provably keeps simulation outputs bit-identical (PR 9's indexed
    // scheduler: oracle property tests + an unchanged ci/trace_reference
    // artifact) ships with NO salt change, and caches populated before the
    // change keep hitting after it. The literal string below is the salt as
    // it stood before the scheduler was indexed; if engine_salt() drifts
    // from it, either a version/rev was bumped for a bit-identical change
    // (revert the bump) or semantics actually changed (then this test and
    // ci/trace_reference.json must be updated together, deliberately).
    let pre_change_salt = "des=0.1.0|cluster=0.1.0|scenarios=0.1.0|rev=1";
    assert_eq!(
        engine_salt(),
        pre_change_salt,
        "engine salt changed — bit-identical refactors must leave it alone"
    );

    let dir = cache_dir("warmsurvives");
    let seeds = vec![21, 22];
    // Populate the store under the pinned pre-change salt...
    let old = SweepRunner::new(2, seeds.clone())
        .with_cache(ResultCache::open_with_salt(&dir, pre_change_salt).expect("open pinned"));
    old.run(&Probe, &grid());
    assert_eq!(old.cache_stats().expect("stats").entries, 6);

    // ...and re-sweep under the wired engine_salt(): every entry must hit.
    let new = SweepRunner::new(2, seeds).with_cache(ResultCache::open(&dir).expect("open current"));
    new.run(&Probe, &grid());
    let stats = new.cache_stats().expect("stats");
    assert_eq!(stats.hits, 6, "pre-change entries must survive the upgrade");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.stale_dropped, 0, "nothing may be treated as stale");
}

#[test]
fn engine_salt_bump_misses_against_a_real_version_salt() {
    // The wired salt: a cache populated under engine_salt() full-misses
    // once the salt gains a suffix — exactly what a des/cluster/scenarios
    // version bump or an ENGINE_SALT_REV bump does.
    let dir = cache_dir("realsalt");
    let seeds = vec![5];
    let current = SweepRunner::new(1, seeds.clone())
        .with_cache(ResultCache::open(&dir).expect("open current"));
    current.run(&Probe, &grid());
    assert_eq!(current.cache_stats().expect("stats").entries, 3);

    let bumped_salt = format!("{}+semantics-changed", engine_salt());
    let bumped = SweepRunner::new(1, seeds)
        .with_cache(ResultCache::open_with_salt(&dir, &bumped_salt).expect("open bumped"));
    bumped.run(&Probe, &grid());
    let stats = bumped.cache_stats().expect("stats");
    assert_eq!(stats.hits, 0, "version-salt bump must force a full miss");
    assert_eq!(stats.misses, 3);
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
    // No commit happened: the index holds nothing yet, but the surviving
    // jobs' WAL segments are recovered at the next open.
    let recovered = ResultCache::open(&dir).expect("reopen");
    assert_eq!(
        recovered.len(),
        2,
        "k=1 and k=3 results recovered from write-ahead segments"
    );

    // The recovered entries serve a successful follow-up sweep's hits.
    let retry = SweepRunner::new(2, vec![1]).with_cache(recovered);
    retry.run(&Grenade, &SweepGrid::new().axis("k", vec![1u64, 3]));
    let stats = retry.cache_stats().expect("stats");
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Two sweeps over the same job set race on one cache directory across
    /// 2–8 worker threads each. Whatever the interleaving: both emit
    /// bit-identical results to serial, and the merged index ends up with
    /// exactly one well-formed line per job — no torn writes, no
    /// duplicates.
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

        // The committed index: one parseable line per job, every key unique.
        let index = std::fs::read_to_string(dir.join("index.v1.log")).expect("index");
        let lines: Vec<&str> = index.lines().collect();
        prop_assert_eq!(lines.len(), n_jobs, "one line per job, no duplicates");
        for line in &lines {
            prop_assert!(line.starts_with("v1\t"), "malformed line: {line:?}");
        }
        let reloaded = ResultCache::open(&dir).expect("reopen");
        prop_assert_eq!(
            reloaded.len(),
            n_jobs,
            "every line parses back (torn lines would be dropped)"
        );

        // And the racing runs' combined WAL must leave nothing behind that
        // a warm sweep cannot serve: a third run is fully cache-served.
        let warm = SweepRunner::new(4, seeds).with_cache(reloaded);
        let warm_result = warm.run(&Probe, &grid);
        prop_assert!(warm_result.bits_eq(&serial));
        let stats = warm.cache_stats().expect("stats");
        prop_assert_eq!(stats.misses, 0, "warm run after the race must fully hit");
    }
}
