//! Seeded input generators, one per workload, with the reason each
//! workload exists written next to the code that builds it.
//!
//! Every request stream is generated from `--seed` before any timing
//! starts; the program under test receives only the generated requests.
//! The draws come from the local [`SplitMix64`] below, never from the
//! clock, the pid, or the repository's own RNG (a change to `des::rng`
//! must not change what the benchmark feeds the program).

use scenarios::{ParamValue, Params, SweepRequest};
use serde::Serialize;

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::TraceCold,
    Workload::FanoutCold,
    Workload::ServeWarm,
    Workload::ServeMixed,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TraceCold,
    FanoutCold,
    ServeWarm,
    ServeMixed,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TraceCold => "trace_cold",
            Workload::FanoutCold => "fanout_cold",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sweep(self) -> bool {
        matches!(self, Workload::TraceCold | Workload::FanoutCold)
    }

    /// Why the workload is in the benchmark (`BENCHMARK.json` carries the
    /// same text; a self-test keeps the two in step).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TraceCold => {
                "Fig. 1 trace replays through the CLI on a fresh cache: cluster scheduler, monitor and des queue do the work, cache/wire/JSON almost none"
            }
            Workload::FanoutCold => {
                "Thousands of short model jobs through the CLI pool plus a warm re-sweep: per-job set-up, pool dispatch and cache write/read paths; the batch scheduler never runs"
            }
            Workload::ServeWarm => {
                "Live server, every job a cache hit: transport, JSON, request validation, cache lookup and artifact render are the whole request; no simulation runs"
            }
            Workload::ServeMixed => {
                "Same server with novel sweeps beside popular hits: cache writes next to reads, pool workers shared between requests, foreground latency against background throughput"
            }
        }
    }
}

/// Steele/Lea/Flood SplitMix64: tiny, seedable, and local to the benchmark.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for `(seed, lane)`, so adding a connection
    /// never shifts another connection's draws.
    pub fn lane(seed: u64, lane: u64) -> SplitMix64 {
        let mut root = SplitMix64(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is far
    /// below anything the benchmark can observe.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The Fig. 1 trace replay: the one scenario that runs the batch scheduler.
pub const TRACE_SCENARIO: &str = "fig01_utilization";

/// Every registered scenario, in registry order.
pub fn all_scenarios() -> impl Iterator<Item = &'static str> {
    std::iter::once(TRACE_SCENARIO).chain(FANOUT_SCENARIOS)
}

/// Every registered scenario except the Fig. 1 trace replay: the model
/// layers (`rfaas`, `fabric`, `interference`, `apps`, `gpu`, `storage`,
/// `containers`) as a sweep sees them.
pub const FANOUT_SCENARIOS: [&str; 10] = [
    "fig07_latency",
    "fig08_io",
    "fig09_cpu_sharing",
    "fig10_utilization",
    "fig11_memory_sharing",
    "fig12_gpu_sharing",
    "fig13_offload",
    "tab02_containers",
    "tab03_idle_node",
    "ablations",
];

/// `trace_cold` unit: the paper's Fig. 1 replay at four cluster sizes.
/// `nodes=1200` is the backlogged regime (pending queue and backfill
/// dominate), `nodes=3600` the idle one (monitor and event queue
/// dominate). One seed and a 7-day horizon instead of the 14-day default
/// keep a unit near one second, so a run's median rests on ten or more
/// units; the replay code path is the same.
pub fn trace_unit() -> SweepRequest {
    SweepRequest::new()
        .scenario(TRACE_SCENARIO)
        .with_seeds(1)
        .axis("nodes", vec![1200u64, 1800, 2400, 3600])
        .param("horizon_days", 7.0)
}

/// Seeds per scenario in one `fanout_cold` unit: 10 scenarios x 100 seeds
/// = 1000 jobs of 0.2 us to 15 ms each.
pub const FANOUT_SEEDS: usize = 100;

/// `fanout_cold` unit: every non-trace scenario at default parameters.
/// An engine or scheduler change should leave this workload flat; a pool,
/// cache-write or per-job set-up change shows here and not in `trace_cold`.
pub fn fanout_unit() -> SweepRequest {
    let mut req = SweepRequest::new().with_seeds(FANOUT_SEEDS);
    for name in FANOUT_SCENARIOS {
        req = req.scenario(name);
    }
    req
}

/// Command-line spelling of a request for `scenarios run`.
pub fn cli_args(req: &SweepRequest) -> Vec<String> {
    let mut args: Vec<String> = Vec::new();
    if req.all {
        args.push("--all".into());
    }
    args.extend(req.scenarios.iter().cloned());
    args.extend(["--seeds".into(), req.seeds.to_string()]);
    for (axis, values) in &req.grid {
        let list: Vec<String> = values.iter().map(param_text).collect();
        args.extend(["--grid".into(), format!("{axis}={}", list.join(","))]);
    }
    for (key, value) in &req.params {
        args.extend(["--param".into(), format!("{key}={}", param_text(value))]);
    }
    args
}

/// Spell a parameter so that `ParamValue::parse` reads back the same
/// variant: floats always carry a fractional part or an exponent.
fn param_text(v: &ParamValue) -> String {
    match v {
        ParamValue::F64(x) if x.fract() == 0.0 && x.abs() < 1e15 => format!("{x:.1}"),
        other => other.to_string(),
    }
}

/// Size class of a popular request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 1 scenario x 1 seed, an artifact of about 1 KB.
    Small,
    /// Every scenario x 2 seeds (22 jobs), about 40 KB.
    Medium,
    /// 10 scenarios x 100 seeds (1000 jobs), about 450 KB.
    Large,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Small => "small",
            Class::Medium => "medium",
            Class::Large => "large",
        }
    }
}

/// The fixed popular set of 24 requests both serve workloads draw from:
/// 17 small, 6 medium, 1 large. It does not depend on the seed; the seed
/// decides the order in which clients ask for them. Three sizes because
/// the small class is transport-bound and the large class is
/// JSON/lookup-bound, and a change can help one and hurt the other.
pub fn popular_set() -> Vec<(Class, SweepRequest)> {
    let small_overrides: [(&str, &str, ParamValue); 7] = [
        ("fig07_latency", "reps", 1000u64.into()),
        ("fig08_io", "readers", 8u64.into()),
        ("fig09_cpu_sharing", "reps", 5u64.into()),
        ("fig11_memory_sharing", "reps", 5u64.into()),
        ("fig12_gpu_sharing", "reps", 5u64.into()),
        ("tab02_containers", "code_mb", 100.0.into()),
        ("ablations", "invocations", 25u64.into()),
    ];
    let mut set = Vec::new();
    for name in FANOUT_SCENARIOS {
        set.push((
            Class::Small,
            SweepRequest::new().scenario(name).with_seeds(1),
        ));
    }
    for (name, key, value) in small_overrides {
        set.push((
            Class::Small,
            SweepRequest::new()
                .scenario(name)
                .with_seeds(1)
                .param(key, value),
        ));
    }
    // `--all`-style requests: the shared `reps` override reaches the
    // scenarios that tune it and is dropped (with a warning) elsewhere, so
    // the six differ in their model jobs and share the two fig01 replays.
    set.push((
        Class::Medium,
        SweepRequest::new().every_scenario().with_seeds(2),
    ));
    for reps in [5u64, 8, 12, 15, 20] {
        set.push((
            Class::Medium,
            SweepRequest::new()
                .every_scenario()
                .with_seeds(2)
                .param("reps", reps),
        ));
    }
    set.push((Class::Large, fanout_unit()));
    set
}

/// Draws popular requests in the 70 % small / 25 % medium / 5 % large
/// mix. The mix is exact over every block of twenty draws (14 small, 5
/// medium, 1 large, in seeded order, uniform within a class): how many
/// large requests a run serves must not depend on the seed's luck, or the
/// seed would move every throughput and memory number with it.
struct PopularDraw {
    by_class: [Vec<usize>; 3],
    block: Vec<Class>,
}

impl PopularDraw {
    fn new(set: &[(Class, SweepRequest)]) -> PopularDraw {
        let of = |class| {
            set.iter()
                .enumerate()
                .filter(|(_, (c, _))| *c == class)
                .map(|(i, _)| i)
                .collect()
        };
        PopularDraw {
            by_class: [of(Class::Small), of(Class::Medium), of(Class::Large)],
            block: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut SplitMix64) -> usize {
        if self.block.is_empty() {
            self.block = [(Class::Small, 14), (Class::Medium, 5), (Class::Large, 1)]
                .into_iter()
                .flat_map(|(class, n)| std::iter::repeat_n(class, n))
                .collect();
            rng.shuffle(&mut self.block);
        }
        let class = &self.by_class[self.block.pop().expect("refilled above") as usize];
        class[rng.below(class.len() as u64) as usize]
    }
}

/// One request a client will send.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Index into the popular set: every job is a cache hit.
    Popular(usize),
    /// A request no one has asked before in this run: every job misses.
    Novel(SweepRequest),
}

/// Requests per connection generated up front. `serve_warm` wraps around
/// (any order of the popular set is as good as another); a `serve_mixed`
/// connection that uses up its novel requests stops early instead, so the
/// hit/miss mix never drifts silently.
pub const STREAM_LEN: usize = 8192;

/// `serve_warm`: `clients` streams of popular requests.
fn warm_streams(seed: u64, clients: usize) -> Vec<Vec<Item>> {
    (0..clients)
        .map(|c| {
            let mut rng = SplitMix64::lane(seed, c as u64);
            let mut popular = PopularDraw::new(&popular_set());
            (0..STREAM_LEN)
                .map(|_| Item::Popular(popular.draw(&mut rng)))
                .collect()
        })
        .collect()
}

/// Distinct `reps` values the background sweeps draw from without
/// replacement, so no background job is ever asked twice. In these three
/// scenarios `reps` decides the cache key far more than the cost (fig11 and
/// fig09 cost the same at any value, fig07 about 16 us per rep), so every
/// background request costs nearly the same whatever the seed drew.
pub const BG_REPS_POOL: u64 = 512;

/// Jobs in one background request: 3 scenarios x 16 seeds.
pub const BG_JOBS: usize = 48;

/// `serve_mixed` background connection: novel fan-out sweeps over the
/// three model-heavy scenarios, back to back. Their cost is dominated by
/// `fig11_memory_sharing` (about 15 ms a job), which is what competes with
/// the foreground for pool workers and for the cache's write path.
fn background_stream(seed: u64) -> Vec<Item> {
    let mut reps: Vec<u64> = (1..=BG_REPS_POOL).collect();
    SplitMix64::lane(seed, u64::MAX).shuffle(&mut reps);
    reps.into_iter()
        .map(|r| {
            Item::Novel(
                SweepRequest::new()
                    .scenario("fig07_latency")
                    .scenario("fig09_cpu_sharing")
                    .scenario("fig11_memory_sharing")
                    .with_seeds(16)
                    .param("reps", r),
            )
        })
        .collect()
}

/// Scenarios a novel foreground request picks from. Each keys its cache
/// entries on one tunable that can take a fresh value at (nearly) no cost,
/// so novelty never makes later requests dearer than earlier ones.
const NOVEL_SCENARIOS: [&str; 3] = ["tab02_containers", "fig08_io", "ablations"];

/// `serve_mixed` foreground connection `lane` of `lanes`: popular all-hit
/// requests alternating with novel small ones (1-3 scenarios, 1-3 seeds,
/// fresh `code_mb`/`readers`/`invocations`), so about half the foreground
/// requests miss. The nine (scenarios, seeds) shapes come in shuffled
/// blocks of nine: every seed sees the same amount of work per block.
fn foreground_stream(seed: u64, lane: usize, lanes: usize) -> Vec<Item> {
    let mut popular = PopularDraw::new(&popular_set());
    let mut rng = SplitMix64::lane(seed, lane as u64);
    let mut shapes: Vec<(usize, usize)> = Vec::new();
    let mut items = Vec::with_capacity(STREAM_LEN);
    for k in 0..STREAM_LEN {
        if k % 2 == 0 {
            items.push(Item::Popular(popular.draw(&mut rng)));
            continue;
        }
        if shapes.is_empty() {
            shapes = (1..=3).flat_map(|s| (1..=3).map(move |n| (s, n))).collect();
            rng.shuffle(&mut shapes);
        }
        let (n_scenarios, n_seeds) = shapes.pop().expect("refilled above");
        let mut names = NOVEL_SCENARIOS;
        rng.shuffle(&mut names);
        // Unique across the run: no other request of any lane has this id.
        let id = ((k / 2) * lanes + lane) as u64;
        let mut req = SweepRequest::new().with_seeds(n_seeds).lenient();
        for name in &names[..n_scenarios] {
            req = req.scenario(name);
        }
        items.push(Item::Novel(
            req.param("code_mb", 1.0 + id as f64 / 1024.0)
                .param("readers", 1 + id)
                .param("invocations", 10 + id),
        ));
    }
    items
}

/// The request an item stands for.
pub fn request_of<'a>(item: &'a Item, popular: &'a [(Class, SweepRequest)]) -> &'a SweepRequest {
    match item {
        Item::Popular(i) => &popular[*i].1,
        Item::Novel(req) => req,
    }
}

/// Canonical JSON of one request: what crosses the wire.
pub fn request_json(req: &SweepRequest) -> String {
    serde_json::to_string(&req.to_value()).expect("value-tree rendering is infallible")
}

/// Everything one run feeds the program, generated from the seed before
/// any timing starts.
pub enum Inputs {
    /// A sweep workload: the unit every `scenarios run` child sweeps.
    Sweep(SweepRequest),
    /// A serve workload: the popular set, one request stream per foreground
    /// connection, and the background stream of `serve_mixed`.
    Serve {
        popular: Vec<(Class, SweepRequest)>,
        foreground: Vec<Vec<Item>>,
        background: Option<Vec<Item>>,
    },
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, clients: usize) -> Inputs {
        match workload {
            Workload::TraceCold => Inputs::Sweep(trace_unit()),
            Workload::FanoutCold => Inputs::Sweep(fanout_unit()),
            Workload::ServeWarm => Inputs::Serve {
                popular: popular_set(),
                foreground: warm_streams(seed, clients),
                background: None,
            },
            Workload::ServeMixed => {
                // All connections but the background one, and at least one
                // so that a single-core machine still measures both.
                let lanes = clients.saturating_sub(1).max(1);
                Inputs::Serve {
                    popular: popular_set(),
                    foreground: (0..lanes)
                        .map(|lane| foreground_stream(seed, lane, lanes))
                        .collect(),
                    background: Some(background_stream(seed)),
                }
            }
        }
    }

    /// One line per input, in the order it is used: the CLI argument list
    /// of a sweep workload, the request JSON per connection of a serve one.
    pub fn lines(&self) -> Vec<String> {
        match self {
            Inputs::Sweep(unit) => vec![format!("run {}", cli_args(unit).join(" "))],
            Inputs::Serve {
                popular,
                foreground,
                background,
            } => {
                let mut lines: Vec<String> = popular
                    .iter()
                    .map(|(class, req)| format!("popular {} {}", class.name(), request_json(req)))
                    .collect();
                let labelled = background
                    .iter()
                    .map(|items| ("background".to_string(), items))
                    .chain(
                        foreground
                            .iter()
                            .enumerate()
                            .map(|(c, items)| (format!("conn{c}"), items)),
                    );
                for (label, items) in labelled {
                    lines.extend(items.iter().map(|item| match item {
                        Item::Popular(i) => format!("{label} popular {i}"),
                        Item::Novel(req) => format!("{label} novel {}", request_json(req)),
                    }));
                }
                lines
            }
        }
    }

    /// SHA-256 of [`Inputs::lines`]: two runs that print the same digest
    /// fed the program identical inputs.
    pub fn digest(&self) -> String {
        digest(&self.lines())
    }
}

/// SHA-256 over input lines. Computed with the repository's own
/// content-hash function (`scenarios::job_key`, SHA-256 over
/// length-prefixed fields) with the joined lines in the salt field.
fn digest(lines: &[String]) -> String {
    scenarios::job_key(&lines.join("\n"), "benchmark-inputs", &Params::new(), 0).hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenarios::Registry;

    #[test]
    fn the_same_seed_gives_the_same_digest() {
        for w in WORKLOADS {
            let a = Inputs::generate(w, 7, 2).digest();
            let b = Inputs::generate(w, 7, 2).digest();
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(a.len(), 64);
        }
    }

    #[test]
    fn another_seed_changes_the_serve_streams_only() {
        for w in WORKLOADS {
            let a = Inputs::generate(w, 1, 2).digest();
            let b = Inputs::generate(w, 2, 2).digest();
            assert_eq!(a == b, w.is_sweep(), "{}", w.name());
        }
    }

    #[test]
    fn popular_set_has_24_requests_in_three_sizes_and_all_validate() {
        let set = popular_set();
        let count = |c| set.iter().filter(|(k, _)| *k == c).count();
        assert_eq!(
            (
                count(Class::Small),
                count(Class::Medium),
                count(Class::Large)
            ),
            (17, 6, 1)
        );
        let registry = Registry::standard();
        let jobs: Vec<usize> = set
            .iter()
            .map(|(_, r)| r.validate(&registry).expect("popular request").total_jobs)
            .collect();
        assert!(jobs[..17].iter().all(|&j| j == 1));
        assert!(jobs[17..23].iter().all(|&j| j == 22));
        assert_eq!(jobs[23], 1000);
        let mut texts: Vec<String> = set.iter().map(|(_, r)| request_json(r)).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), 24, "popular requests are distinct");
    }

    #[test]
    fn every_block_of_twenty_popular_draws_is_14_small_5_medium_1_large() {
        let set = popular_set();
        for seed in [3, 4] {
            for block in warm_streams(seed, 1)[0].chunks_exact(20) {
                let mut by_class = [0usize; 3];
                for item in block {
                    let Item::Popular(i) = item else {
                        panic!("warm streams are popular only")
                    };
                    by_class[set[*i].0 as usize] += 1;
                }
                assert_eq!(by_class, [14, 5, 1]);
            }
        }
        assert_ne!(warm_streams(3, 1), warm_streams(4, 1));
    }

    #[test]
    fn novel_requests_never_repeat_a_job_and_validate() {
        let registry = Registry::standard();
        let mut seen = std::collections::HashSet::new();
        let mut streams = vec![background_stream(5)];
        streams.extend((0..3).map(|lane| foreground_stream(5, lane, 3)));
        for stream in &streams {
            for item in stream {
                let Item::Novel(req) = item else { continue };
                let v = req.validate(&registry).expect("novel request validates");
                for (name, grid) in &v.tasks {
                    let defaults = registry.get(name).unwrap().default_params();
                    for point in grid.points(&defaults) {
                        assert!(
                            seen.insert(format!("{name}|{}", point.label())),
                            "{name} {} asked twice",
                            point.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn background_requests_are_48_jobs_with_distinct_reps() {
        let stream = background_stream(9);
        assert_eq!(stream.len() as u64, BG_REPS_POOL);
        assert_ne!(stream, background_stream(10), "the seed orders the draws");
        let Item::Novel(req) = &stream[0] else {
            panic!("background is novel only")
        };
        assert_eq!(
            req.validate(&Registry::standard()).unwrap().total_jobs,
            BG_JOBS
        );
    }

    #[test]
    fn cli_args_round_trip_through_the_cli_parser_spelling() {
        assert_eq!(
            cli_args(&trace_unit()).join(" "),
            "fig01_utilization --seeds 1 --grid nodes=1200,1800,2400,3600 --param horizon_days=7.0"
        );
        assert_eq!(ParamValue::parse("7.0"), ParamValue::F64(7.0));
        assert_eq!(ParamValue::parse("100.0"), ParamValue::F64(100.0));
    }

    #[test]
    fn workload_names_parse_back() {
        for w in WORKLOADS {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
