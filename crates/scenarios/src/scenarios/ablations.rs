//! ABLATIONS — design-choice studies behind the paper's Sec. III, III-E,
//! IV-A and IV-B.
//!
//! 1. Warm pool in idle memory vs always-cold sandboxes (Sec. IV-B).
//! 2. Busy-poll vs event-wait executors: latency vs CPU burn (Sec. IV-A).
//! 3. Co-location policy: naive (admit everything) vs requirement model vs
//!    history-driven — measured victim overheads (Sec. III-E / Fig. 4).
//! 4. Job striping: leaving a management core free vs oversubscribing
//!    (Sec. III).

use crate::report::{banner, fmt, print_table};
use crate::{Metrics, Params, Scenario, REPORT_SEED};
use des::{Percentiles, SimTime, Simulation};
use fabric::LogGpParams;
use interference::model::colocation_overhead_pct;
use interference::{
    ColocationPolicy, Decision, NasClass, NasKernel, NodeCapacity, PolicyConfig, WorkloadProfile,
};
use rfaas::{Executor, ExecutorMode, FunctionRegistry};

pub struct AblationReport {
    warm_pool_cold_ms: f64,
    warm_pool_warm_ms: f64,
    hot_latency_us: f64,
    warm_latency_us: f64,
    hot_idle_cores: f64,
    warm_idle_cores: f64,
    naive_worst_overhead_pct: f64,
    model_worst_overhead_pct: f64,
    history_worst_overhead_pct: f64,
    striping_overhead_pct: f64,
    oversubscribed_overhead_pct: f64,
}

fn timed_function(reg: &mut FunctionRegistry, exec_ms: u64) -> rfaas::FunctionDef {
    let id = reg.register(
        containers::ContainerImage::new(40.0),
        containers::ContainerRuntime::Sarus,
        SimTime::from_millis(exec_ms),
    );
    reg.get(id).unwrap().clone()
}

fn compute(sim: &mut Simulation, params: &Params) -> AblationReport {
    let params_net = LogGpParams::ugni();
    let mut reg = FunctionRegistry::new();
    let def = timed_function(&mut reg, 5);

    // ---- 1. Warm pool vs always-cold. ----
    // Without the pool every fresh executor pays the sandbox build; with it,
    // only the first invocation on a node does.
    let invocations = params.usize("invocations");
    let mut cold_total = SimTime::ZERO;
    for _ in 0..invocations {
        let mut ex = Executor::new(def.clone(), ExecutorMode::Hot); // never warm
        cold_total += ex.invoke(&params_net, 1024, 256, 1.0).total();
    }
    let mut warm_total = SimTime::ZERO;
    let mut ex = Executor::new(def.clone(), ExecutorMode::Hot);
    for i in 0..invocations {
        if i > 0 {
            ex.adopt_warm_container(); // pool hit from the second call on
        }
        warm_total += ex.invoke(&params_net, 1024, 256, 1.0).total();
    }
    let cold_ms = cold_total.as_millis_f64() / invocations as f64;
    let warm_ms = warm_total.as_millis_f64() / invocations as f64;

    // ---- 2. Busy-poll vs event-wait. ----
    let mut rng = sim.stream("ablation");
    let mut lat = |mode: ExecutorMode| {
        let mut reg = FunctionRegistry::new();
        let id = reg.register_noop();
        let mut ex = Executor::new(reg.get(id).unwrap().clone(), mode);
        ex.adopt_warm_container();
        let mut p = Percentiles::new();
        for _ in 0..500 {
            let t = ex.invoke(&params_net, 64, 64, 1.0).total().as_micros_f64();
            p.push(t * rng.jitter(0.04));
        }
        p.median()
    };
    let hot_us = lat(ExecutorMode::Hot);
    let warm_us = lat(ExecutorMode::Warm);
    let hot_cpu = ExecutorMode::Hot.completion().cpu_overhead();
    let warm_cpu = ExecutorMode::Warm.completion().cpu_overhead();

    // ---- 3. Policy ablation. ----
    // Victim: MILC-128 on 32 cores. Candidate functions with varying
    // aggressiveness; each policy admits a subset; we record the worst
    // victim overhead it allows.
    let cap = NodeCapacity::daint_mc();
    let victim = WorkloadProfile::milc(128).on_node(32);
    let candidates = [
        WorkloadProfile::nas(NasKernel::Ep, NasClass::B).on_node(4),
        WorkloadProfile::nas(NasKernel::Bt, NasClass::A).on_node(4),
        WorkloadProfile::nas(NasKernel::Lu, NasClass::A).on_node(4),
        WorkloadProfile::nas(NasKernel::Mg, NasClass::A).on_node(4),
        WorkloadProfile::nas(NasKernel::Cg, NasClass::B).on_node(4),
    ];
    let overhead_of =
        |d: &interference::Demand| colocation_overhead_pct(&cap, &victim, std::slice::from_ref(d));

    // Naive: admit everything that fits.
    let naive_worst = candidates.iter().map(overhead_of).fold(0.0f64, f64::max);

    // Requirement model: the Fig. 4 prediction path.
    let model_policy = ColocationPolicy::new(PolicyConfig::default());
    let model_worst = candidates
        .iter()
        .filter(|d| {
            matches!(
                model_policy.decide(&cap, &victim, 2, true, d, 2048, 4.0, 64 * 1024),
                Decision::Colocate { .. }
            )
        })
        .map(overhead_of)
        .fold(0.0f64, f64::max);

    // History: after profiling runs, measured outcomes veto bad pairs even
    // when the model is borderline.
    let mut hist_policy = ColocationPolicy::new(PolicyConfig::default());
    for d in &candidates {
        let measured = overhead_of(d);
        for _ in 0..3 {
            hist_policy.record_outcome(&victim.name, &d.name, measured);
        }
    }
    let history_worst = candidates
        .iter()
        .filter(|d| {
            matches!(
                hist_policy.decide(&cap, &victim, 2, true, d, 2048, 4.0, 64 * 1024),
                Decision::Colocate { .. }
            )
        })
        .map(overhead_of)
        .fold(0.0f64, f64::max);

    // ---- 4. Job striping: leave a management core free. ----
    let lulesh_striped = WorkloadProfile::lulesh(20).on_node(32); // 32/36
    let mut lulesh_full = WorkloadProfile::lulesh(20).on_node(36); // all cores
    lulesh_full.name = "LULESH-full".into();
    let function = WorkloadProfile::nas(NasKernel::Bt, NasClass::W).on_node(4);
    let striped = colocation_overhead_pct(&cap, &lulesh_striped, std::slice::from_ref(&function));
    // Oversubscription: 36 + 4 cores demanded on 36.
    let oversub = colocation_overhead_pct(&cap, &lulesh_full, &[function]);

    AblationReport {
        warm_pool_cold_ms: cold_ms,
        warm_pool_warm_ms: warm_ms,
        hot_latency_us: hot_us,
        warm_latency_us: warm_us,
        hot_idle_cores: hot_cpu,
        warm_idle_cores: warm_cpu,
        naive_worst_overhead_pct: naive_worst,
        model_worst_overhead_pct: model_worst,
        history_worst_overhead_pct: history_worst,
        striping_overhead_pct: striped,
        oversubscribed_overhead_pct: oversub,
    }
}

pub struct Ablations;

impl Scenario for Ablations {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn title(&self) -> &'static str {
        "Design-choice studies (Sec. III, III-E, IV-A, IV-B)"
    }

    fn default_params(&self) -> Params {
        Params::new().with("invocations", 50u64)
    }

    fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
        let r = compute(sim, params);
        let mut m = Metrics::new();
        m.push("warm_pool_cold_ms", r.warm_pool_cold_ms);
        m.push("warm_pool_warm_ms", r.warm_pool_warm_ms);
        m.push("hot_latency_us", r.hot_latency_us);
        m.push("warm_latency_us", r.warm_latency_us);
        m.push("hot_idle_cores", r.hot_idle_cores);
        m.push("warm_idle_cores", r.warm_idle_cores);
        m.push("naive_worst_overhead_pct", r.naive_worst_overhead_pct);
        m.push("model_worst_overhead_pct", r.model_worst_overhead_pct);
        m.push("history_worst_overhead_pct", r.history_worst_overhead_pct);
        m.push("striping_overhead_pct", r.striping_overhead_pct);
        m.push("oversubscribed_overhead_pct", r.oversubscribed_overhead_pct);
        m
    }

    fn report(&self) {
        banner("ABLATIONS", self.title());
        let mut sim = Simulation::new(REPORT_SEED);
        let r = compute(&mut sim, &self.default_params());

        print_table(
            "1. Warm pool in idle memory (mean invocation latency, 5 ms body)",
            &["configuration", "mean latency [ms]"],
            &[
                vec![
                    "always cold (pool disabled)".into(),
                    fmt(r.warm_pool_cold_ms),
                ],
                vec!["warm pool enabled".into(), fmt(r.warm_pool_warm_ms)],
                vec![
                    "speedup".into(),
                    format!("{}x", fmt(r.warm_pool_cold_ms / r.warm_pool_warm_ms)),
                ],
            ],
        );
        assert!(
            r.warm_pool_cold_ms > r.warm_pool_warm_ms * 10.0,
            "the pool is the difference between ms and s"
        );

        print_table(
            "2. Busy-poll vs event-wait executors",
            &["mode", "median no-op latency [µs]", "idle CPU burn [cores]"],
            &[
                vec![
                    "hot (busy poll)".into(),
                    fmt(r.hot_latency_us),
                    fmt(r.hot_idle_cores),
                ],
                vec![
                    "warm (event wait)".into(),
                    fmt(r.warm_latency_us),
                    fmt(r.warm_idle_cores),
                ],
            ],
        );
        println!(
            "trade-off: {}x latency for {}x less idle CPU",
            fmt(r.warm_latency_us / r.hot_latency_us),
            fmt(r.hot_idle_cores / r.warm_idle_cores)
        );

        print_table(
            "3. Co-location policy ablation (worst admitted MILC overhead)",
            &["policy", "worst victim overhead [%]"],
            &[
                vec!["naive (admit all)".into(), fmt(r.naive_worst_overhead_pct)],
                vec!["requirement model".into(), fmt(r.model_worst_overhead_pct)],
                vec!["history-driven".into(), fmt(r.history_worst_overhead_pct)],
            ],
        );
        assert!(r.model_worst_overhead_pct <= r.naive_worst_overhead_pct);
        assert!(r.history_worst_overhead_pct <= r.model_worst_overhead_pct + 1e-9);

        print_table(
            "4. Job striping (spare cores for functions) vs oversubscription",
            &["configuration", "LULESH overhead [%]"],
            &[
                vec![
                    "32/36 cores + 4-core function".into(),
                    fmt(r.striping_overhead_pct),
                ],
                vec![
                    "36/36 cores + 4-core function".into(),
                    fmt(r.oversubscribed_overhead_pct),
                ],
            ],
        );
        assert!(
            r.oversubscribed_overhead_pct > r.striping_overhead_pct + 5.0,
            "oversubscription hurts: {} vs {}",
            r.oversubscribed_overhead_pct,
            r.striping_overhead_pct
        );
    }
}
