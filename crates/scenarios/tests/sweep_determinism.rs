//! Sweep determinism: every entry point of the sweep engine — a serial
//! `SweepRunner` (threads = 1), a parallel one (threads = 4) and the
//! `Service` — must produce bit-identical per-(point, seed) metrics, for
//! arbitrary seed lists and grids. Worker threads only decide *when* a job
//! runs; each job owns its own `Simulation`, so *what* it computes is a pure
//! function of `(params, seed)`.
//!
//! The entry points share one engine, so comparing them with each other
//! proves little on its own. The reference here is [`serial_oracle`]: plain
//! nested loops with no slots, deques, cost order or cache.

use proptest::prelude::*;
use scenarios::service::{Service, ServiceConfig};
use scenarios::{
    summarize, Metrics, ParamValue, PointResult, Registry, Scenario, SweepGrid, SweepRequest,
    SweepResult, SweepRunner, SweepStatus, SweepSuite,
};

/// The reference every entry point must reproduce: `oracle[task][point][seed]`
/// computed the obvious way, one fresh simulation per job, in input order.
fn serial_oracle(tasks: &[(&dyn Scenario, SweepGrid)], seeds: &[u64]) -> Vec<Vec<Vec<Metrics>>> {
    let mut oracle = Vec::new();
    for (scenario, grid) in tasks {
        let mut per_point = Vec::new();
        for params in grid.points(&scenario.default_params()) {
            let mut per_seed = Vec::new();
            for &seed in seeds {
                let mut sim = des::Simulation::new(seed);
                per_seed.push(scenario.run(&mut sim, &params));
            }
            per_point.push(per_seed);
        }
        oracle.push(per_point);
    }
    oracle
}

/// The artifact text the oracle's metrics render to — what an entry point
/// that only hands out text (the service) is compared with.
fn oracle_artifact(
    tasks: &[(&dyn Scenario, SweepGrid)],
    seeds: &[u64],
    oracle: &[Vec<Vec<Metrics>>],
) -> String {
    let results = tasks
        .iter()
        .zip(oracle)
        .map(|((scenario, grid), per_point)| SweepResult {
            scenario: scenario.name().to_string(),
            seeds: seeds.to_vec(),
            points: grid
                .points(&scenario.default_params())
                .into_iter()
                .zip(per_point)
                .map(|(params, runs)| PointResult {
                    params,
                    summary: summarize(runs),
                    per_seed: seeds.iter().copied().zip(runs.iter().cloned()).collect(),
                })
                .collect(),
        })
        .collect();
    let seeds = seeds.to_vec();
    SweepSuite { seeds, results }.artifact_json()
}

fn assert_matches_oracle(
    label: &str,
    results: &[SweepResult],
    tasks: &[(&dyn Scenario, SweepGrid)],
    seeds: &[u64],
    oracle: &[Vec<Vec<Metrics>>],
) {
    assert_eq!(results.len(), tasks.len(), "{label}: one result per task");
    for ((result, (scenario, grid)), expected) in results.iter().zip(tasks).zip(oracle) {
        let name = scenario.name();
        assert_eq!(result.scenario, name, "{label}: task order");
        assert_eq!(result.seeds, seeds, "{label}/{name}: seed list");
        let points = grid.points(&scenario.default_params());
        assert_eq!(result.points.len(), points.len(), "{label}/{name}: points");
        for ((point, params), expected) in result.points.iter().zip(&points).zip(expected) {
            assert_eq!(&point.params, params, "{label}/{name}: point order");
            assert_eq!(point.per_seed.len(), seeds.len());
            for (((seed, metrics), want_seed), want) in
                point.per_seed.iter().zip(seeds).zip(expected)
            {
                assert_eq!(seed, want_seed, "{label}/{name}: seed order");
                assert!(
                    metrics.bits_eq(want),
                    "{label}: {name} point `{}` seed {seed} diverged from the serial oracle",
                    params.label()
                );
            }
        }
    }
}

/// The whole standard registry through all three entry points. The Fig. 1
/// replay is shrunk (the axes are foreign to most scenarios, so the request
/// is lenient) to keep an unoptimised test build quick.
#[test]
fn every_entry_point_matches_the_serial_oracle_on_the_standard_registry() {
    let registry = Registry::standard();
    let request = SweepRequest::new()
        .every_scenario()
        .axis("nodes", vec![ParamValue::U64(300)])
        .axis("horizon_days", vec![ParamValue::parse("1.5")])
        .lenient()
        .with_seeds(2);
    let validated = request.validate(&registry).expect("valid request");
    let tasks = validated.resolve(&registry);
    let seeds = &validated.seeds;
    assert_eq!(tasks.len(), registry.len());
    let oracle = serial_oracle(&tasks, seeds);

    for threads in [1, 4] {
        let results = SweepRunner::new(threads, seeds.clone()).run_suite(&tasks);
        let label = format!("SweepRunner({threads})");
        assert_matches_oracle(&label, &results, &tasks, seeds, &oracle);
    }

    let service = Service::start(Registry::standard(), ServiceConfig::new().with_threads(3))
        .expect("service starts");
    let submission = service.submit(&request).expect("submit succeeds");
    let response = service.wait(submission.id).expect("wait succeeds");
    assert!(matches!(response.status, SweepStatus::Done));
    assert_eq!(
        response.artifact.expect("done carries the artifact"),
        oracle_artifact(&tasks, seeds, &oracle),
        "Service: served artifact diverged from the serial oracle's"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial(
        seed_base in 0u64..1_000_000,
        n_seeds in 1usize..4,
        threads in 2usize..6,
    ) {
        let registry = Registry::standard();
        let scenario = registry.get("fig09_cpu_sharing").expect("registered");
        let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| seed_base + i).collect();
        let grid = SweepGrid::new().axis("reps", vec![3u64, 6]);

        let serial = SweepRunner::new(1, seeds.clone()).run(scenario, &grid);
        let parallel = SweepRunner::new(threads, seeds).run(scenario, &grid);
        prop_assert!(
            serial.bits_eq(&parallel),
            "threads={threads} diverged from serial"
        );
    }

    #[test]
    fn distinct_seeds_yield_distinct_noise(seed in 0u64..1_000_000) {
        // The noisy scenarios actually consume the seed: two different seeds
        // must not produce identical metrics (else CIs would be meaningless).
        let registry = Registry::standard();
        let scenario = registry.get("fig09_cpu_sharing").expect("registered");
        let result = SweepRunner::new(2, vec![seed, seed + 1]).run(scenario, &SweepGrid::new());
        let point = &result.points[0];
        prop_assert!(!point.per_seed[0].1.bits_eq(&point.per_seed[1].1));
    }
}

/// A scenario that leans on everything the event engine promises
/// the runner: `Simulation: Send` (jobs run inside worker threads), exact
/// `events_pending` under cancellation, `run_until` deadline semantics, and
/// far-future timers that are renewed — i.e. cancelled and
/// rescheduled — on every tick.
#[test]
fn sweep_with_cancellation_heavy_scenario_is_deterministic() {
    use des::{EventId, SimTime, Simulation};
    use scenarios::{Metrics, Params, Scenario};
    use std::sync::{Arc, Mutex};

    struct LeaseChurn;

    impl Scenario for LeaseChurn {
        fn name(&self) -> &'static str {
            "lease_churn_probe"
        }
        fn title(&self) -> &'static str {
            "cancellation-heavy pending-count probe"
        }
        fn default_params(&self) -> Params {
            Params::new().with("ticks", 200u64)
        }
        fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
            let ticks = params.u64("ticks", 200);
            let expiries = Arc::new(Mutex::new(0u64));
            // A lease-expiry timer far in the future, renewed on every tick:
            // the cancel-reschedule churn the arena makes O(1).
            let timer: Arc<Mutex<Option<EventId>>> = Arc::new(Mutex::new(None));
            fn tick(
                sim: &mut Simulation,
                remaining: u64,
                timer: Arc<Mutex<Option<EventId>>>,
                expiries: Arc<Mutex<u64>>,
            ) {
                if let Some(old) = timer.lock().unwrap().take() {
                    assert!(sim.cancel(old), "renewed timer was still pending");
                }
                let e2 = Arc::clone(&expiries);
                let id = sim.schedule_after(SimTime::from_secs(3600), move |_| {
                    *e2.lock().unwrap() += 1;
                });
                *timer.lock().unwrap() = Some(id);
                if remaining > 0 {
                    let mut rng = sim.stream(&format!("tick{remaining}"));
                    let dt = SimTime::from_micros(1 + rng.u64_range(0..50));
                    let t2 = Arc::clone(&timer);
                    let e3 = Arc::clone(&expiries);
                    sim.schedule_after(dt, move |sim| tick(sim, remaining - 1, t2, e3));
                }
            }
            tick(sim, ticks, Arc::clone(&timer), Arc::clone(&expiries));
            sim.run_until(SimTime::from_secs(60));
            let pending = sim.events_pending();
            let mut m = Metrics::new();
            m.push("expiries", *expiries.lock().unwrap() as f64);
            m.push("pending_after_horizon", pending as f64);
            m.push("executed", sim.events_executed() as f64);
            m
        }
    }

    let serial = SweepRunner::new(1, vec![5, 6, 7]).run(&LeaseChurn, &SweepGrid::new());
    let parallel = SweepRunner::new(4, vec![5, 6, 7]).run(&LeaseChurn, &SweepGrid::new());
    assert!(
        serial.bits_eq(&parallel),
        "cancellation-heavy scenario diverged"
    );
    for (_, m) in &serial.points[0].per_seed {
        assert_eq!(
            m.get("expiries"),
            Some(0.0),
            "renewed lease timers must never fire"
        );
        assert_eq!(
            m.get("pending_after_horizon"),
            Some(1.0),
            "exactly the final renewed timer remains pending"
        );
    }
}

/// Parallel workers under heavy job-length skew: a sweep whose longest point
/// does ~400× the work of its shortest (the fig01-vs-everything-else shape
/// that motivates LPT ordering) must still be bit-identical to serial, both
/// in cost order (which starts the long points first) and in input order
/// (which scatters them). Short jobs finish and hand their worker the next
/// one *while* siblings execute long traces — exactly the interleaving the
/// sweep lock must get right.
#[test]
fn work_stealing_is_bit_identical_under_job_length_skew() {
    use des::{SimTime, Simulation};
    use scenarios::{JobOrder, Metrics, Params, Scenario};

    struct Skewed;

    impl Scenario for Skewed {
        fn name(&self) -> &'static str {
            "skewed_probe"
        }
        fn title(&self) -> &'static str {
            "job lengths spanning two orders of magnitude"
        }
        fn default_params(&self) -> Params {
            Params::new().with("events", 10u64)
        }
        fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
            let events = params.u64("events", 10);
            // Real simulated work, proportional to the axis: every event
            // draws from a seed-derived stream, so the final digest is a
            // pure function of (params, seed) and any cross-job state leak
            // or slot-routing bug shows up as a bitwise mismatch.
            let acc = std::sync::Arc::new(std::sync::Mutex::new(0.0f64));
            for i in 0..events {
                let acc = std::sync::Arc::clone(&acc);
                let mut rng = sim.stream(&format!("e{i}"));
                let dt = SimTime::from_nanos(1 + rng.u64_range(0..1000));
                let draw = rng.f64();
                sim.schedule_after(dt, move |_| {
                    *acc.lock().unwrap() += draw;
                });
            }
            sim.run();
            let mut m = Metrics::new();
            m.push("sum", *acc.lock().unwrap());
            m.push("executed", sim.events_executed() as f64);
            m
        }
    }

    let grid = SweepGrid::new().axis("events", vec![2000u64, 5, 800, 1, 400, 50]);
    let seeds = vec![42, 43, 44];
    let serial = SweepRunner::new(1, seeds.clone()).run(&Skewed, &grid);

    for threads in [2, 4, 8] {
        let cost_order = SweepRunner::new(threads, seeds.clone()).run(&Skewed, &grid);
        assert!(
            serial.bits_eq(&cost_order),
            "threads={threads} cost order diverged"
        );
        let input_order = SweepRunner::new(threads, seeds.clone())
            .with_order(JobOrder::Input)
            .run(&Skewed, &grid);
        assert!(
            serial.bits_eq(&input_order),
            "threads={threads} input order diverged"
        );
    }
}

/// The engine-level half of the property: an identical simulation driven on
/// two different worker threads produces the identical event trace.
#[test]
fn simulation_trace_is_thread_invariant() {
    use des::{SimTime, Simulation};
    use std::sync::{Arc, Mutex};

    fn trace_on_worker(seed: u64) -> Vec<(u64, u64)> {
        std::thread::spawn(move || {
            let mut sim = Simulation::new(seed);
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..50 {
                let log = Arc::clone(&log);
                let mut rng = sim.stream(&format!("gen{i}"));
                let at = SimTime::from_nanos(rng.u64_range(0..10_000));
                sim.schedule_at(at, move |sim| {
                    log.lock()
                        .unwrap()
                        .push((sim.now().as_nanos(), sim.events_executed()));
                });
            }
            sim.run();
            let v = log.lock().unwrap().clone();
            v
        })
        .join()
        .expect("worker")
    }

    assert_eq!(trace_on_worker(11), trace_on_worker(11));
    assert_ne!(trace_on_worker(11), trace_on_worker(12));
}
