//! Synthetic workload traces calibrated to the Piz Daint March-2022
//! statistics the paper reports in Fig. 1 and Sec. II-A:
//!
//! * node utilization in the 80–94% band seen on production systems,
//! * median number of idle nodes ≈ 250 (of ~1800 scaled nodes here),
//! * 70–80% of idle-node events shorter than 10 minutes,
//! * median idle availability between 5 and 6.5 minutes,
//! * average node memory usage around 24% of capacity.
//!
//! The generator draws job sizes from a heavy-tailed discrete distribution
//! (most jobs small, few at 256+ nodes — consistent with Patel et al. and the
//! Blue Waters workload study cited by the paper), log-normal runtimes, and
//! Poisson arrivals. The trace is replayed against the [`Cluster`] scheduler
//! inside a [`des::Simulation`], with a [`UtilizationMonitor`] sampling every
//! two minutes exactly as the paper's measurement script did.

use crate::job::JobSpec;
use crate::monitor::{MonitorReport, UtilizationMonitor};
use crate::node::NodeResources;
use crate::scheduler::Cluster;
use des::{RngStream, SimTime, Simulation};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tunable description of a synthetic workload.
#[derive(Debug, Clone)]
pub struct TraceProfile {
    pub nodes: usize,
    pub node_capacity: NodeResources,
    /// Mean inter-arrival time of jobs (Poisson process), seconds.
    pub mean_interarrival_s: f64,
    /// Job node-count buckets and their weights.
    pub size_buckets: Vec<(u32, f64)>,
    /// Log-normal runtime parameters (of the underlying normal, seconds).
    pub runtime_mu: f64,
    pub runtime_sigma: f64,
    /// Cap on runtimes (queue limit).
    pub max_runtime: SimTime,
    /// Users over-estimate walltime by this factor range.
    pub walltime_factor: (f64, f64),
    /// Mean fraction of node memory a job actually requests.
    pub mem_fraction_mean: f64,
    /// Fraction of jobs submitted with the shared flag.
    pub shared_fraction: f64,
}

impl TraceProfile {
    /// Scaled-down Piz Daint (1/3 of the 5704 nodes) with the March-2022
    /// load characteristics.
    pub fn piz_daint() -> Self {
        TraceProfile {
            nodes: 1800,
            node_capacity: NodeResources::daint_mc(),
            mean_interarrival_s: 66.0,
            size_buckets: vec![
                (1, 0.53),
                (2, 0.10),
                (4, 0.09),
                (8, 0.08),
                (16, 0.07),
                (32, 0.05),
                (64, 0.04),
                (128, 0.02),
                (256, 0.015),
                (512, 0.005),
            ],
            runtime_mu: 7.6,    // median ≈ 33 min
            runtime_sigma: 1.6, // heavy tail up to hours
            max_runtime: SimTime::from_hours(24),
            walltime_factor: (1.2, 3.0),
            mem_fraction_mean: 0.24,
            shared_fraction: 0.0,
        }
    }

    /// A small profile for fast tests.
    pub fn small_test() -> Self {
        TraceProfile {
            nodes: 32,
            node_capacity: NodeResources::daint_mc(),
            mean_interarrival_s: 20.0,
            size_buckets: vec![(1, 0.6), (2, 0.25), (4, 0.15)],
            runtime_mu: 5.5,
            runtime_sigma: 1.0,
            max_runtime: SimTime::from_hours(2),
            walltime_factor: (1.2, 2.0),
            mem_fraction_mean: 0.24,
            shared_fraction: 0.0,
        }
    }

    /// Draw one job (spec + actual runtime) from the profile. The node
    /// count's weights are read in place from `size_buckets`, so a draw
    /// allocates nothing but the job's tag.
    pub fn draw_job(&self, rng: &mut RngStream) -> (JobSpec, SimTime) {
        let weights = self.size_buckets.iter().map(|&(_, w)| w);
        let nodes = self.size_buckets[rng.weighted_index(weights)].0;

        let runtime_s = rng
            .log_normal(self.runtime_mu, self.runtime_sigma)
            .min(self.max_runtime.as_secs_f64());
        let runtime = SimTime::from_secs_f64(runtime_s.max(10.0));
        let factor = rng.range(self.walltime_factor.0..self.walltime_factor.1);
        let walltime = (runtime * factor).min(self.max_runtime);

        // Memory request: log-normal around the mean fraction, clamped.
        let frac = (self.mem_fraction_mean * rng.log_normal(0.0, 0.7)).clamp(0.02, 0.95);
        let mem = ((self.node_capacity.memory_mb as f64) * frac) as u64;

        let shared = rng.chance(self.shared_fraction);
        let per_node = NodeResources {
            cores: self.node_capacity.cores,
            memory_mb: mem,
            gpus: 0,
        };
        let spec = if shared {
            // Shared jobs leave cores free for functions (job striping).
            let striped = NodeResources {
                cores: (self.node_capacity.cores as f64 * 0.9) as u32,
                ..per_node
            };
            JobSpec::shared(nodes, striped, walltime, "trace")
        } else {
            JobSpec::exclusive(nodes, per_node, walltime, "trace")
        };
        (spec, runtime)
    }
}

/// Result of replaying a trace.
#[derive(Debug)]
pub struct TraceOutcome {
    pub report: MonitorReport,
    pub jobs_submitted: usize,
    pub jobs_completed: usize,
    /// Time-averaged core utilization over the horizon, in percent.
    pub mean_core_utilization_pct: f64,
}
json::impl_to_json!(TraceOutcome {
    report,
    jobs_submitted,
    jobs_completed,
    mean_core_utilization_pct,
});

/// Everything a replay owns, behind one lock: the engine runs one event at a
/// time, so each event takes it once (and the harvest once more).
struct TraceState {
    cluster: Cluster,
    monitor: UtilizationMonitor,
    profile: TraceProfile,
    rng: RngStream,
    horizon: SimTime,
    submitted: usize,
    completed: usize,
}

type SharedState = Arc<Mutex<TraceState>>;

fn lock(shared: &SharedState) -> MutexGuard<'_, TraceState> {
    shared.lock().expect("a replay event panicked")
}

/// Start whatever fits now and arm a completion timer per started job. Runs
/// inside the calling event's hold on the state: scheduling a closure never
/// runs it, so the lock is not re-entered.
fn schedule_and_register_completions(
    sim: &mut Simulation,
    shared: &SharedState,
    st: &mut TraceState,
) {
    let now = sim.now();
    let (started, idle_periods) = st.cluster.try_schedule(now);
    for p in idle_periods {
        st.monitor.record_exact_idle_period(p);
    }
    // One boxed completion event per started job, capturing the shared
    // state and the job id.
    for id in started {
        let runtime = st.cluster.job(id).expect("job").actual_runtime;
        let shared = Arc::clone(shared);
        sim.schedule_at(now + runtime, move |sim| {
            let mut st = lock(&shared);
            st.cluster
                .finish(id, sim.now())
                .expect("running job finishes");
            st.completed += 1;
            schedule_and_register_completions(sim, &shared, &mut st);
        });
    }
}

fn arrival(sim: &mut Simulation, shared: SharedState) {
    let now = sim.now();
    let dt = {
        let mut guard = lock(&shared);
        let st = &mut *guard;
        if now >= st.horizon {
            return;
        }
        let (spec, runtime) = st.profile.draw_job(&mut st.rng);
        st.cluster.submit(spec, runtime, now);
        st.submitted += 1;
        schedule_and_register_completions(sim, &shared, st);
        SimTime::from_secs_f64(st.rng.exponential(st.profile.mean_interarrival_s))
    };
    sim.schedule_after(dt.max(SimTime::from_nanos(1)), move |sim| {
        arrival(sim, shared)
    });
}

fn sampler(sim: &mut Simulation, shared: SharedState) {
    let now = sim.now();
    let interval = {
        let mut guard = lock(&shared);
        let st = &mut *guard;
        if now > st.horizon {
            return;
        }
        st.monitor.sample(&st.cluster, now);
        st.monitor.interval()
    };
    sim.schedule_after(interval, move |sim| sampler(sim, shared));
}

/// Replay `profile` for `horizon` of virtual time and report Fig.-1-style
/// statistics. Deterministic in `seed`.
pub fn simulate_trace(profile: &TraceProfile, horizon: SimTime, seed: u64) -> TraceOutcome {
    let mut sim = Simulation::new(seed);
    simulate_trace_in(&mut sim, profile, horizon)
}

/// Replay `profile` against an externally owned [`Simulation`] — the entry
/// point the scenario sweep runner uses, where each worker thread constructs
/// its own engine. Must be called on a fresh simulation (`now == 0`);
/// determinism follows from the engine's root seed.
pub fn simulate_trace_in(
    sim: &mut Simulation,
    profile: &TraceProfile,
    horizon: SimTime,
) -> TraceOutcome {
    assert_eq!(
        sim.now(),
        SimTime::ZERO,
        "trace replay expects a fresh simulation"
    );
    let st: SharedState = Arc::new(Mutex::new(TraceState {
        cluster: Cluster::homogeneous(profile.nodes, profile.node_capacity),
        monitor: UtilizationMonitor::two_minute(),
        profile: profile.clone(),
        rng: sim.stream("trace"),
        horizon,
        submitted: 0,
        completed: 0,
    }));

    // Warm-up arrivals start immediately; sampling starts after a warm-up
    // window so the initially-empty system does not bias the statistics.
    let st_a = Arc::clone(&st);
    sim.schedule_at(SimTime::ZERO, move |sim| arrival(sim, st_a));
    let st_s = Arc::clone(&st);
    let warmup = SimTime::from_hours(6).min(horizon / 10);
    sim.schedule_at(warmup, move |sim| sampler(sim, st_s));

    sim.run_until(horizon);

    // Events queued past the horizon may still hold `Arc<TraceState>`
    // clones inside the caller's engine, so harvest through the lock
    // instead of unwrapping the Arc.
    let (submitted, completed, monitor) = {
        let mut st = lock(&st);
        let monitor = std::mem::replace(&mut st.monitor, UtilizationMonitor::two_minute());
        (st.submitted, st.completed, monitor)
    };
    let report = monitor.finish();
    let mean_util = {
        let vals: Vec<f64> = report
            .idle_cpu_pct
            .iter()
            .map(|(_, idle)| 100.0 - idle)
            .collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    TraceOutcome {
        report,
        jobs_submitted: submitted,
        jobs_completed: completed,
        mean_core_utilization_pct: mean_util,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_trace_runs_and_reports() {
        let profile = TraceProfile::small_test();
        let out = simulate_trace(&profile, SimTime::from_hours(12), 42);
        assert!(out.jobs_submitted > 100, "submitted={}", out.jobs_submitted);
        assert!(out.jobs_completed > 50);
        assert!(out.jobs_completed <= out.jobs_submitted);
        assert!(!out.report.idle_cpu_pct.is_empty());
        assert!(out.mean_core_utilization_pct > 10.0);
        assert!(out.mean_core_utilization_pct <= 100.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let profile = TraceProfile::small_test();
        let a = simulate_trace(&profile, SimTime::from_hours(6), 7);
        let b = simulate_trace(&profile, SimTime::from_hours(6), 7);
        assert_eq!(a.jobs_submitted, b.jobs_submitted);
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(a.report.idle_nodes, b.report.idle_nodes);
        let c = simulate_trace(&profile, SimTime::from_hours(6), 8);
        assert_ne!(a.jobs_submitted, c.jobs_submitted);
    }

    #[test]
    fn replay_traffic_stays_inside_the_queue_envelope() {
        // The replay is the only event traffic any registered scenario
        // produces: a few hundred pending events (one completion timer per
        // running job plus the arrival and sampler chains). That peak is the
        // measurement `des::queue` being a plain `BinaryHeap` rests on — at
        // this population a bucket wheel moved no end-to-end metric (README,
        // "The event engine", traffic and heap-vs-wheel tables) — and 1024
        // is it with headroom. If this ever fails (ROADMAP's `harvest`
        // scenario may do it) the workload has outgrown the measurement:
        // re-measure the pending peak and `trace_cold` `done_ms`, heap
        // against wheel, before trusting or changing the choice.
        use std::sync::atomic::{AtomicUsize, Ordering};

        fn probe(sim: &mut Simulation, peak: Arc<AtomicUsize>, until: SimTime) {
            peak.fetch_max(sim.events_pending(), Ordering::Relaxed);
            if sim.now() < until {
                sim.schedule_after(SimTime::from_secs(60), move |sim| probe(sim, peak, until));
            }
        }

        let horizon = SimTime::from_days(2);
        for nodes in [1200, 1800, 3600] {
            let profile = TraceProfile {
                nodes,
                ..TraceProfile::piz_daint()
            };
            let mut sim = Simulation::new(42);
            let peak = Arc::new(AtomicUsize::new(0));
            let p = Arc::clone(&peak);
            sim.schedule_at(SimTime::ZERO, move |sim| probe(sim, p, horizon));
            let out = simulate_trace_in(&mut sim, &profile, horizon);
            assert!(out.jobs_completed > 1000, "the replay did real work");
            let peak = peak.load(Ordering::Relaxed);
            assert!(peak > 2, "the probe saw the replay's events");
            assert!(
                peak < 1024,
                "{nodes} nodes: {peak} pending events exceeds the queue's sizing envelope"
            );
        }
    }

    #[test]
    fn draw_job_respects_bounds() {
        let profile = TraceProfile::piz_daint();
        let mut rng = RngStream::from_seed(3);
        for _ in 0..500 {
            let (spec, runtime) = profile.draw_job(&mut rng);
            assert!(profile.size_buckets.iter().any(|(n, _)| *n == spec.nodes));
            assert!(runtime <= profile.max_runtime);
            assert!(
                runtime <= spec.walltime * 1.0 + SimTime::from_secs(1)
                    || spec.walltime == profile.max_runtime
            );
            assert!(spec.per_node.memory_mb <= profile.node_capacity.memory_mb);
            assert!(spec.per_node.memory_mb > 0);
        }
    }

    #[test]
    fn estimation_brackets_exact_median() {
        let profile = TraceProfile::small_test();
        let out = simulate_trace(&profile, SimTime::from_hours(24), 11);
        let r = &out.report;
        if r.exact.events > 10 && r.minimal_estimation.events > 10 {
            assert!(
                r.minimal_estimation.median_min <= r.maximal_estimation.median_min,
                "min {} vs max {}",
                r.minimal_estimation.median_min,
                r.maximal_estimation.median_min
            );
        }
    }
}
