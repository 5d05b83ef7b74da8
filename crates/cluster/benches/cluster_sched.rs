//! Scheduler hot-path throughput: indexed `Cluster` vs the frozen scan
//! oracle (`cluster::reference::RefCluster`), driven like-for-like through
//! one arrival/completion event loop. Requires `--features oracle`:
//!
//! ```text
//! cargo bench -p cluster --features oracle
//! ```
//!
//! Measurement protocol matches `BENCH_event_loop`: criterion smoke cases
//! keep `--test` runs honest, the measured pass takes the median of three
//! full replays for every committed metric (the scan oracle gets a single
//! replay on non-headline streams — see the measured-pass comment), and the
//! JSON this bench writes
//! (`target/figures/BENCH_cluster_sched.json`, override with
//! `BENCH_CLUSTER_SCHED_JSON`) is the *authoritative* throughput record —
//! the committed repo-root `BENCH_cluster_sched.json` is a snapshot of it
//! and CI's `perf-gate` job compares a fresh run against
//! `ci/perf_baseline.json`. Before any timing, every workload is replayed
//! once on both implementations and the full started-job sequences must
//! hash identically: the speedup column is only meaningful because the two
//! schedulers provably make the same decisions.
//!
//! Two further case families cover the Fig. 1 replay the scheduler sits in:
//! `monitor_sample_{1800,3600}` (one `UtilizationMonitor::sample` of a
//! loaded cluster) and `trace_replay_{1200,3600}_7d` (the whole
//! `simulate_trace` event loop, backlogged and idle regime). They have no
//! scan counterpart here; their bit-identity witnesses are the monitor
//! differential proptest and `ci/trace_reference.json`.

use cluster::reference::RefCluster;
use cluster::{
    simulate_trace, Cluster, JobId, JobSpec, NodeResources, TraceProfile, UtilizationMonitor,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use des::{RngStream, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// One synthetic submission: arrival time, spec, trace-side actual runtime.
struct Arrival {
    at: SimTime,
    spec: JobSpec,
    actual: SimTime,
    /// Backfill/cancel-heavy stream only: cancel the job submitted this many
    /// arrivals earlier (if it is still waiting) when this job arrives.
    cancel_back: Option<usize>,
}

/// Loaded-but-stable exclusive+shared mix: small jobs dominate (keeping many
/// placement decisions per second), occasional wide jobs block the head and
/// force the backfill path. The interarrival time is derived from the mean
/// node-seconds the mix actually demands so offered load is ~75% of nominal
/// capacity at every cluster size: high enough that the queue stays occupied
/// and backfill fires constantly, low enough that queue depth stays bounded.
/// (An oversubscribed stream is useless as a benchmark: the pending queue —
/// and with it per-event cost — grows without bound on *both*
/// implementations, measuring queue depth rather than scheduler work.)
fn workload(nodes: usize, jobs: usize, seed: u64, cancel_heavy: bool) -> Vec<Arrival> {
    let mut rng = RngStream::from_seed(seed);
    let wide_lo = (nodes as u64 / 16).max(2);
    let wide_hi = (nodes as u64 / 8).max(4);
    // Means of the distributions drawn below; actual runtime is walltime ×
    // U(0.3, 1.0), i.e. 0.65 × mean walltime. Wide-job demand scales with
    // the cluster, so it must be part of the load accounting.
    let wide_node_secs = (wide_lo + wide_hi) as f64 / 2.0 * (0.65 * 5_500.0);
    let small_node_secs = (19.0 / 7.0) * (0.65 * 1_260.0);
    let node_secs_per_job = 0.02 * wide_node_secs + 0.98 * small_node_secs;
    let mean_interarrival_s = node_secs_per_job / (nodes as f64 * 0.75);
    let mut now = 0.0f64;
    (0..jobs)
        .map(|i| {
            now += rng.exponential(mean_interarrival_s);
            let wide = rng.chance(0.02);
            let n = if wide {
                rng.u64_range(wide_lo..wide_hi + 1) as u32
            } else {
                [1u64, 1, 1, 2, 2, 4, 8][rng.u64_range(0..7) as usize] as u32
            };
            let walltime_s = if wide {
                rng.u64_range(3_000..8_000)
            } else {
                rng.u64_range(120..2_400)
            };
            let actual_s = (walltime_s as f64 * (0.3 + 0.7 * rng.f64())) as u64;
            let shared = !wide && rng.chance(0.15);
            let per_node = if shared {
                NodeResources {
                    cores: 9,
                    memory_mb: 16 * 1024,
                    gpus: 0,
                }
            } else {
                NodeResources::daint_mc()
            };
            let spec = if shared {
                JobSpec::shared(n, per_node, SimTime::from_secs(walltime_s), "bench")
            } else {
                JobSpec::exclusive(n, per_node, SimTime::from_secs(walltime_s), "bench")
            };
            Arrival {
                at: SimTime::from_secs(now as u64),
                spec,
                actual: SimTime::from_secs(actual_s.max(1)),
                cancel_back: (cancel_heavy && i % 3 == 0 && i >= 16).then_some(13),
            }
        })
        .collect()
}

/// The scheduler surface the replay driver needs; implemented by both the
/// indexed production cluster and the scan oracle so one driver times both.
trait Sched {
    fn submit(&mut self, spec: JobSpec, actual: SimTime, now: SimTime) -> JobId;
    fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>);
    fn finish(&mut self, id: JobId, now: SimTime);
    fn cancel(&mut self, id: JobId, now: SimTime) -> bool;
    fn actual_runtime(&self, id: JobId) -> SimTime;
}

impl Sched for Cluster {
    fn submit(&mut self, spec: JobSpec, actual: SimTime, now: SimTime) -> JobId {
        Cluster::submit(self, spec, actual, now)
    }
    fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>) {
        Cluster::try_schedule(self, now)
    }
    fn finish(&mut self, id: JobId, now: SimTime) {
        Cluster::finish(self, id, now).expect("driver only finishes running jobs");
    }
    fn cancel(&mut self, id: JobId, now: SimTime) -> bool {
        Cluster::cancel(self, id, now).is_ok()
    }
    fn actual_runtime(&self, id: JobId) -> SimTime {
        self.job(id).expect("exists").actual_runtime
    }
}

impl Sched for RefCluster {
    fn submit(&mut self, spec: JobSpec, actual: SimTime, now: SimTime) -> JobId {
        RefCluster::submit(self, spec, actual, now)
    }
    fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>) {
        RefCluster::try_schedule(self, now)
    }
    fn finish(&mut self, id: JobId, now: SimTime) {
        RefCluster::finish(self, id, now).expect("driver only finishes running jobs");
    }
    fn cancel(&mut self, id: JobId, now: SimTime) -> bool {
        RefCluster::cancel(self, id, now).is_ok()
    }
    fn actual_runtime(&self, id: JobId) -> SimTime {
        self.job(id).expect("exists").actual_runtime
    }
}

/// Replay the whole stream through arrivals/completions/cancellations and
/// return an order-sensitive FNV hash of every `(event index, started job)`
/// pair — the bit-identity witness compared across implementations. The
/// driver keeps its own completion heap so the replay cost is the
/// *scheduler's*, not an O(running) `next_completion` scan per event.
fn replay<S: Sched>(cluster: &mut S, stream: &[Arrival]) -> u64 {
    let mut completions: BinaryHeap<Reverse<(SimTime, JobId)>> = BinaryHeap::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut started_events = 0u64;
    let fold = |h: &mut u64, v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut on_started =
        |started: Vec<JobId>,
         now: SimTime,
         cluster: &S,
         completions: &mut BinaryHeap<Reverse<(SimTime, JobId)>>| {
            for id in started {
                started_events += 1;
                fold(&mut hash, started_events);
                fold(&mut hash, id.0);
                fold(&mut hash, now.as_nanos());
                completions.push(Reverse((now + cluster.actual_runtime(id), id)));
            }
        };
    let mut submitted: Vec<JobId> = Vec::with_capacity(stream.len());
    let mut live: Vec<bool> = Vec::with_capacity(stream.len());
    for arrival in stream {
        // Drain completions that precede this arrival.
        while let Some(&Reverse((t, id))) = completions.peek() {
            if t > arrival.at {
                break;
            }
            completions.pop();
            if !live[id.0 as usize - 1] {
                continue; // cancelled while running; nodes already released
            }
            cluster.finish(id, t);
            live[id.0 as usize - 1] = false;
            let (started, _) = cluster.try_schedule(t);
            on_started(started, t, cluster, &mut completions);
        }
        if let Some(back) = arrival.cancel_back {
            let victim = submitted[submitted.len() - back];
            if live[victim.0 as usize - 1] && cluster.cancel(victim, arrival.at) {
                live[victim.0 as usize - 1] = false;
                let (started, _) = cluster.try_schedule(arrival.at);
                on_started(started, arrival.at, cluster, &mut completions);
            }
        }
        let id = cluster.submit(arrival.spec.clone(), arrival.actual, arrival.at);
        debug_assert_eq!(id.0 as usize, submitted.len() + 1);
        submitted.push(id);
        live.push(true);
        let (started, _) = cluster.try_schedule(arrival.at);
        on_started(started, arrival.at, cluster, &mut completions);
    }
    // Drain the tail so every run does the same total work.
    while let Some(Reverse((t, id))) = completions.pop() {
        if !live[id.0 as usize - 1] {
            continue;
        }
        cluster.finish(id, t);
        live[id.0 as usize - 1] = false;
        let (started, _) = cluster.try_schedule(t);
        on_started(started, t, cluster, &mut completions);
    }
    fold(&mut hash, started_events);
    hash
}

fn indexed_cluster(nodes: usize) -> Cluster {
    Cluster::homogeneous(nodes, NodeResources::daint_mc())
}

fn scan_cluster(nodes: usize) -> RefCluster {
    RefCluster::homogeneous(nodes, NodeResources::daint_mc())
}

/// Run `n` full replays, returning the decision hash (asserted identical
/// across runs — the replay is deterministic) and the median jobs/sec.
/// Every timed run doubles as an equivalence sample: callers compare the
/// returned hashes across implementations, so no replay is ever spent on
/// verification alone. Per-run progress goes to stderr (a full scan replay
/// on 8k nodes takes minutes; silence would be indistinguishable from a
/// hang).
fn timed_replays<S: Sched>(
    n: usize,
    mut make: impl FnMut() -> S,
    stream: &[Arrival],
    label: &str,
) -> (u64, f64) {
    let mut rates: Vec<f64> = Vec::with_capacity(n);
    let mut hash: Option<u64> = None;
    for i in 0..n {
        let mut c = make();
        let t0 = Instant::now();
        let h = black_box(replay(&mut c, stream));
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("[cluster_sched] {label} run {}/{n}: {secs:.1}s", i + 1);
        match hash {
            None => hash = Some(h),
            Some(prev) => assert_eq!(prev, h, "{label}: replay is not deterministic"),
        }
        rates.push(stream.len() as f64 / secs);
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    (hash.expect("n >= 1"), rates[rates.len() / 2])
}

/// Median of three timings of `run`, which returns how many operations it
/// performed; the result is operations per second. (`timed_replays` keeps
/// its own loop: it builds each cluster outside the timed region.)
fn median_rate(label: &str, mut run: impl FnMut() -> u64) -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|i| {
            let t0 = Instant::now();
            let ops = black_box(run());
            let secs = t0.elapsed().as_secs_f64();
            eprintln!("[cluster_sched] {label} run {}/3: {secs:.2}s", i + 1);
            ops as f64 / secs
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[1]
}

/// Two snapshots of one `nodes`-node cluster loaded to about 7/8, eight
/// completions and eight arrivals apart. Sampling them alternately makes
/// every sample close and open a handful of idle runs, as consecutive
/// samples of a replay do, instead of timing the no-change best case.
fn monitor_snapshots(nodes: usize) -> [Cluster; 2] {
    let profile = TraceProfile::piz_daint();
    let build = |churn: usize| {
        let mut rng = RngStream::from_seed(29);
        let mut cluster = Cluster::homogeneous(nodes, profile.node_capacity);
        let mut requested = 0;
        loop {
            let (spec, runtime) = profile.draw_job(&mut rng);
            requested += spec.nodes as usize;
            if requested > nodes * 7 / 8 {
                break;
            }
            cluster.submit(spec, runtime, SimTime::ZERO);
        }
        let (started, _) = cluster.try_schedule(SimTime::ZERO);
        let later = SimTime::from_mins(1);
        for &id in started.iter().take(churn) {
            cluster.finish(id, later).expect("started job is running");
            let (spec, runtime) = profile.draw_job(&mut rng);
            cluster.submit(spec, runtime, later);
        }
        cluster.try_schedule(later);
        cluster
    };
    let snapshots = [build(0), build(8)];
    let changed = (snapshots[0].nodes().iter())
        .zip(snapshots[1].nodes())
        .filter(|(a, b)| a.is_idle() != b.is_idle())
        .count();
    assert!(changed > 0, "the snapshots must differ in idle state");
    eprintln!(
        "[cluster_sched] monitor snapshots at {nodes} nodes: {}/{} idle, {changed} nodes differ",
        snapshots[0].idle_node_count(),
        snapshots[1].idle_node_count()
    );
    snapshots
}

const MONITOR_SAMPLES: u64 = 200_000;

/// `samples` alternating samples of the two snapshots on a fresh monitor.
fn monitor_samples(snapshots: &[Cluster; 2], samples: u64) -> u64 {
    let mut monitor = UtilizationMonitor::two_minute();
    for i in 0..samples {
        monitor.sample(&snapshots[(i % 2) as usize], SimTime::from_mins(2 * i));
    }
    black_box(monitor.finish().idle_nodes.len() as u64)
}

/// One 7-day Fig. 1 replay at `nodes` nodes; returns the jobs submitted.
fn trace_replay_7d(nodes: usize) -> u64 {
    let profile = TraceProfile {
        nodes,
        ..TraceProfile::piz_daint()
    };
    simulate_trace(&profile, SimTime::from_days(7), 1).jobs_submitted as u64
}

fn bench_cluster_sched(c: &mut Criterion) {
    // Smoke cases: small enough for `cargo bench -- --test`, and the
    // bit-identity witness runs on every invocation, smoke or measured.
    let smoke = workload(256, 2_000, 3, false);
    let smoke_cancel = workload(256, 2_000, 5, true);
    for (name, stream) in [("steady", &smoke), ("cancel_backfill", &smoke_cancel)] {
        let indexed = replay(&mut indexed_cluster(256), stream);
        let scan = replay(&mut scan_cluster(256), stream);
        assert_eq!(
            indexed, scan,
            "indexed scheduler diverged from the scan oracle on the {name} smoke stream"
        );
    }
    let mut g = c.benchmark_group("cluster_sched");
    g.bench_function("replay_256n_2k_indexed", |b| {
        b.iter(|| black_box(replay(&mut indexed_cluster(256), &smoke)));
    });
    g.bench_function("replay_256n_2k_scan", |b| {
        b.iter(|| black_box(replay(&mut scan_cluster(256), &smoke)));
    });
    g.bench_function("replay_256n_2k_cancel_backfill_indexed", |b| {
        b.iter(|| black_box(replay(&mut indexed_cluster(256), &smoke_cancel)));
    });
    let smoke_snapshots = monitor_snapshots(256);
    g.bench_function("monitor_sample_256n_x1k", |b| {
        b.iter(|| monitor_samples(&smoke_snapshots, 1_000));
    });
    g.bench_function("trace_replay_small_12h", |b| {
        b.iter(|| {
            black_box(simulate_trace(
                &TraceProfile::small_test(),
                SimTime::from_hours(12),
                1,
            ))
        });
    });
    g.finish();

    if std::env::args().any(|a| a == "--test") {
        return;
    }

    // Measured pass: 100k-job streams on 1k and 8k nodes, plus the
    // cancel/backfill-heavy stream. The headline pair (indexed vs scan on
    // the 8k stream) is median-of-3 on both sides; the 1k and cancel
    // streams verify decision-identity against a single scan replay (the
    // scan side of those streams is a correctness witness, not a committed
    // metric, and a full scan replay costs tens of seconds).
    let jobs = 100_000u64;
    let stream_1k = workload(1_000, jobs as usize, 17, false);
    let stream_8k = workload(8_000, jobs as usize, 19, false);
    let stream_8k_cancel = workload(8_000, jobs as usize, 23, true);

    let (h_idx_1k, idx_1k) = timed_replays(3, || indexed_cluster(1_000), &stream_1k, "1k idx");
    let (h_scan_1k, _) = timed_replays(1, || scan_cluster(1_000), &stream_1k, "1k scan");
    assert_eq!(h_idx_1k, h_scan_1k, "divergence on the 1k stream");

    let (h_idx_8k, idx_8k) = timed_replays(3, || indexed_cluster(8_000), &stream_8k, "8k idx");
    let (h_scan_8k, scan_8k) = timed_replays(3, || scan_cluster(8_000), &stream_8k, "8k scan");
    assert_eq!(h_idx_8k, h_scan_8k, "divergence on the 8k stream");

    let (h_idx_8kc, idx_8k_cancel) = timed_replays(
        3,
        || indexed_cluster(8_000),
        &stream_8k_cancel,
        "8k cancel idx",
    );
    let (h_scan_8kc, _) = timed_replays(
        1,
        || scan_cluster(8_000),
        &stream_8k_cancel,
        "8k cancel scan",
    );
    assert_eq!(h_idx_8kc, h_scan_8kc, "divergence on the 8k cancel stream");

    let snapshots_1800 = monitor_snapshots(1_800);
    let monitor_1800 = median_rate("monitor 1800", || {
        monitor_samples(&snapshots_1800, MONITOR_SAMPLES)
    });
    let snapshots_3600 = monitor_snapshots(3_600);
    let monitor_3600 = median_rate("monitor 3600", || {
        monitor_samples(&snapshots_3600, MONITOR_SAMPLES)
    });
    let trace_1200 = median_rate("trace 1200 7d", || trace_replay_7d(1_200));
    let trace_3600 = median_rate("trace 3600 7d", || trace_replay_7d(3_600));

    let speedup = idx_8k / scan_8k;
    println!("cluster_sched/1k_100k:        {idx_1k:.0} jobs/s (indexed, median of 3)");
    println!("cluster_sched/8k_100k:        {idx_8k:.0} jobs/s (indexed, median of 3)");
    println!("cluster_sched/8k_cancel:      {idx_8k_cancel:.0} jobs/s (indexed, median of 3)");
    println!("cluster_sched/8k_100k_scan:   {scan_8k:.0} jobs/s (scan oracle)");
    println!("cluster_sched/speedup_8k:     {speedup:.1}x");
    println!("cluster_sched/monitor_1800:   {monitor_1800:.0} samples/s (median of 3)");
    println!("cluster_sched/monitor_3600:   {monitor_3600:.0} samples/s (median of 3)");
    println!("cluster_sched/trace_1200_7d:  {trace_1200:.0} jobs/s (median of 3)");
    println!("cluster_sched/trace_3600_7d:  {trace_3600:.0} jobs/s (median of 3)");

    let json = format!(
        "{{\n  \"sched_1k_100k_jobs_per_sec\": {idx_1k:.0},\n  \
         \"sched_8k_100k_jobs_per_sec\": {idx_8k:.0},\n  \
         \"sched_8k_cancel_backfill_jobs_per_sec\": {idx_8k_cancel:.0},\n  \
         \"sched_8k_100k_scan_jobs_per_sec\": {scan_8k:.0},\n  \
         \"sched_8k_speedup_vs_scan\": {speedup:.2},\n  \
         \"monitor_sample_1800_samples_per_sec\": {monitor_1800:.0},\n  \
         \"monitor_sample_3600_samples_per_sec\": {monitor_3600:.0},\n  \
         \"trace_replay_1200_7d_jobs_per_sec\": {trace_1200:.0},\n  \
         \"trace_replay_3600_7d_jobs_per_sec\": {trace_3600:.0}\n}}\n"
    );
    let path = std::env::var("BENCH_CLUSTER_SCHED_JSON").unwrap_or_else(|_| {
        format!(
            "{}/../../target/figures/BENCH_cluster_sched.json",
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

criterion_group!(benches, bench_cluster_sched);
criterion_main!(benches);
