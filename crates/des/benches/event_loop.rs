//! Raw DES event-loop throughput: how many schedule/cancel/fire operations
//! per second the engine sustains. CI's `perf-gate` job compares the JSON
//! this bench writes (`target/figures/BENCH_event_loop.json`, override with
//! `BENCH_EVENT_LOOP_JSON`) against the committed `ci/perf_baseline.json`.
//!
//! Two cases, the engine's tripwires beside the `trace_replay_*` cases of
//! `cluster_sched`: `chain_100k_reschedule` is shaped like the only traffic
//! any scenario produces (pop one, push one, a handful pending — README,
//! "The event engine"); `cancel_heavy_100k` holds 100k events pending with
//! half of them cancelled, which no caller does, and stays as the check
//! that cancellation is O(1) and cancelled keys are discarded as they
//! surface rather than scanned for.
//!
//! Measurement protocol: timestamps are pregenerated outside the timed
//! region (the synthetic generator's multiply-mod is not engine work); each
//! case reports the median of three runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use des::{SimTime, Simulation};
use std::time::Instant;

/// Pseudo-shuffled timestamps over a `16 × n` ns span, so pushes arrive in
/// no helpful order.
fn shuffled_times(n: u64) -> Vec<SimTime> {
    (0..n)
        .map(|i| SimTime::from_nanos(i.wrapping_mul(2_654_435_761) % (n * 16)))
        .collect()
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
/// rest. Each cancel is an O(1) payload drop in the arena; the seed paid a
/// tombstone `HashSet` insert per cancel and a lookup per pop.
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

fn bench_event_loop(c: &mut Criterion) {
    let times_100k = shuffled_times(100_000);
    let mut g = c.benchmark_group("event_loop");
    g.bench_function("chain_100k_reschedule", |b| {
        b.iter(|| black_box(chain_reschedule(100_000)));
    });
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
    let chain_100k = median_events_per_sec(2 * 100_000, || chain_reschedule(100_000));
    let cancel_100k = median_events_per_sec(
        100_000 + 100_000 / 2 + 100_000 / 2, // schedules + cancels + fires
        || cancel_heavy(&times_100k),
    );

    let json = format!(
        "{{\n  \"chain_100k_reschedule_ops_per_sec\": {chain_100k:.0},\n  \
         \"cancel_heavy_100k_ops_per_sec\": {cancel_100k:.0}\n}}\n"
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
