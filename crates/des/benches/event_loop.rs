//! Raw DES event-loop throughput: how many events per second the engine can
//! schedule, cancel, and drain. The seed `BinaryHeap` implementation drained
//! ~2.6M no-op events/s; the arena-allocated calendar queue with inline
//! payload cells is measured against that baseline by CI's `perf-gate` job,
//! which compares the JSON this bench writes
//! (`target/figures/BENCH_event_loop.json`, override with
//! `BENCH_EVENT_LOOP_JSON`) against the committed `ci/perf_baseline.json`.
//! The JSON is the *authoritative* throughput record — README and ROADMAP
//! cite its `drain_1m_noop_events_per_sec` value rather than quoting ad-hoc
//! runs.
//!
//! These cases model no caller: no scenario holds more than a few hundred
//! pending events (README, "The event engine"), so a 100k- or 1M-event
//! drain is a scaling tripwire — it catches the queue going superlinear or
//! a revert to the seed heap — not a number any user waits for.
//!
//! Measurement protocol: timestamps are pregenerated outside the timed
//! region (the synthetic generator's multiply-mod is not engine work). The
//! 100k cases report the median of three runs; the 1M cases the best of
//! five, because each run allocates and faults a fresh multi-megabyte arena
//! and the minimum is the reading least disturbed by other tenants of a
//! shared CI machine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use des::{SimTime, Simulation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pseudo-shuffled timestamps over a `16 × n` ns span: exercises real bucket
/// redistribution instead of an already-sorted fast path.
fn shuffled_times(n: u64) -> Vec<SimTime> {
    (0..n)
        .map(|i| SimTime::from_nanos(i.wrapping_mul(2_654_435_761) % (n * 16)))
        .collect()
}

/// Schedule one no-op event per timestamp and drain the queue.
fn drain_noop_events(times: &[SimTime]) -> u64 {
    let mut sim = Simulation::new(1);
    for &at in times {
        sim.schedule_at(at, |_| {});
    }
    sim.run();
    sim.events_executed()
}

/// Like [`drain_noop_events`] but every closure carries a three-word capture
/// (`Arc` + two ids) — the inline-cell hot path real `cluster`/`scenarios`
/// call sites take, as opposed to the ZST closure above.
fn drain_inline_events(times: &[SimTime]) -> u64 {
    let mut sim = Simulation::new(1);
    let acc = Arc::new(AtomicU64::new(0));
    for (i, &at) in times.iter().enumerate() {
        let acc = Arc::clone(&acc);
        let (a, b) = (i as u64, i as u64 ^ 0x9e37);
        sim.schedule_at(at, move |_| {
            acc.fetch_add(a ^ b, Ordering::Relaxed);
        });
    }
    sim.run();
    assert_eq!(
        sim.inline_hit_ratio(),
        1.0,
        "3-word captures must take the inline path"
    );
    black_box(acc.load(Ordering::Relaxed));
    sim.events_executed()
}

/// Self-rescheduling chain: the pop-push steady state (queue stays small).
fn chain_reschedule(n: u64) -> u64 {
    let mut sim = Simulation::new(1);
    fn step(sim: &mut Simulation, remaining: u64) {
        if remaining > 0 {
            sim.schedule_after(SimTime::from_nanos(5), move |sim| {
                step(sim, remaining - 1);
            });
        }
    }
    step(&mut sim, n);
    sim.run();
    sim.events_executed()
}

/// Schedule `n` events, cancel every other one before it fires, drain the
/// rest. Under the arena each cancel is an O(1) slot free; the seed paid a
/// tombstone `HashSet` insert plus a dead heap pop per cancelled event.
fn cancel_heavy(times: &[SimTime]) -> u64 {
    let n = times.len() as u64;
    let mut sim = Simulation::new(1);
    let mut ids = Vec::with_capacity(times.len());
    for &at in times {
        ids.push(sim.schedule_at(at, |_| {}));
    }
    for id in ids.iter().step_by(2) {
        sim.cancel(*id);
    }
    sim.run();
    assert_eq!(sim.events_executed(), n / 2);
    sim.events_executed()
}

/// Median-of-three wall-clock events/sec for one routine, counting `ops`
/// schedule/cancel/fire operations per call.
fn median_events_per_sec(ops: u64, mut routine: impl FnMut() -> u64) -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(routine());
            ops as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[1]
}

/// Best-of-five events/sec — see the module docs for why the 1M cases
/// take the minimum time.
fn best_events_per_sec(ops: u64, mut routine: impl FnMut() -> u64) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(routine());
            ops as f64 / t0.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

fn bench_event_loop(c: &mut Criterion) {
    let times_100k = shuffled_times(100_000);
    let mut g = c.benchmark_group("event_loop");
    // Keep the calibration loop honest but bounded: 100k per iteration, and
    // report the headline 1M-event figures once outside the harness.
    g.bench_function("drain_100k_noop", |b| {
        b.iter(|| black_box(drain_noop_events(&times_100k)));
    });
    g.bench_function("chain_100k_reschedule", |b| {
        b.iter(|| black_box(chain_reschedule(100_000)));
    });
    // 50% of events cancelled before firing: the arena's O(1) cancellation
    // (vs. tombstones) is what this case tracks in the perf trajectory.
    g.bench_function("cancel_heavy_100k", |b| {
        b.iter(|| black_box(cancel_heavy(&times_100k)));
    });
    g.finish();

    // In `--test` smoke mode (cargo bench -- --test) skip the measured pass
    // and the JSON artifact: the numbers would be garbage.
    if std::env::args().any(|a| a == "--test") {
        return;
    }

    // Headline numbers and the perf-gate artifact. Rates count every
    // schedule/cancel/fire operation the routine performs.
    let drain_100k = median_events_per_sec(2 * 100_000, || drain_noop_events(&times_100k));
    let chain_100k = median_events_per_sec(2 * 100_000, || chain_reschedule(100_000));
    let cancel_100k = median_events_per_sec(
        100_000 + 100_000 / 2 + 100_000 / 2, // schedules + cancels + fires
        || cancel_heavy(&times_100k),
    );

    let times_1m = shuffled_times(1_000_000);
    let drain_1m = best_events_per_sec(1_000_000, || drain_noop_events(&times_1m));
    let inline_1m = best_events_per_sec(1_000_000, || drain_inline_events(&times_1m));
    println!(
        "event_loop/1M_noop_events:   {:.2} M events/s (best of 5)",
        drain_1m / 1e6
    );
    println!(
        "event_loop/1M_inline_events: {:.2} M events/s (best of 5)",
        inline_1m / 1e6
    );

    let json = format!(
        "{{\n  \"drain_100k_noop_ops_per_sec\": {drain_100k:.0},\n  \
         \"chain_100k_reschedule_ops_per_sec\": {chain_100k:.0},\n  \
         \"cancel_heavy_100k_ops_per_sec\": {cancel_100k:.0},\n  \
         \"drain_1m_noop_events_per_sec\": {drain_1m:.0},\n  \
         \"drain_1m_inline_events_per_sec\": {inline_1m:.0}\n}}\n"
    );
    let path = std::env::var("BENCH_EVENT_LOOP_JSON").unwrap_or_else(|_| {
        format!(
            "{}/../../target/figures/BENCH_event_loop.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, json) {
        Ok(()) => println!("[json] {path}"),
        Err(e) => eprintln!("[json] failed to write {path}: {e}"),
    }
}

criterion_group!(benches, bench_event_loop);
criterion_main!(benches);
