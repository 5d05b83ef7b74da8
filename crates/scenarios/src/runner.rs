//! The sweep engine, and [`SweepRunner`], its synchronous entry point.
//!
//! A sweep is the cartesian product of one or more scenarios' grid points
//! and a seed list. However it is entered — [`SweepRunner`] here, or the
//! long-running [`crate::service::Service`] behind the CLI and the TCP
//! server — it goes through the same three steps, each implemented once:
//!
//! * **plan** (`Engine::plan`): expand `(task, point, seed)` jobs with
//!   consecutive result slots; pre-scan the [`ResultCache`], writing hits
//!   straight into their slots so they never reach a worker; order the
//!   misses largest-point-first (a size heuristic over the point's numeric
//!   parameters) or leave them in input order. The order is a function of
//!   the request and the cache's contents: the engine keeps nothing from
//!   one sweep to the next.
//! * **run** (`Engine::run_job`): one fresh [`Simulation`] per job, the
//!   panic caught and kept with its `(scenario, point, seed)` identity —
//!   all with no lock held — then one trip through the sweep's lock to
//!   append the result to the cache log, store its slot, pop the next
//!   pending job and count down.
//! * **finalize** (`Engine::finalize`): failures, sorted, become a
//!   [`SweepError`]; otherwise the cache commits the sweep's appends and
//!   the slots fold into per-scenario results in task, point, seed order.
//!
//! Everything a running sweep mutates is one `Progress` value behind the
//! sweep's one mutex. Whoever takes the count of outstanding jobs to zero
//! moves it out of the lock and owns it: finalization is exactly-once by
//! ownership, and a failed or cancelled sweep releases its log handle,
//! slots and pending jobs when that owner drops it.
//!
//! Scheduling never touches results: every job's metrics are a pure
//! function of `(params, seed)` and land in the slot the plan gave them, so
//! the artifact is bit-identical whatever the thread count, job order or
//! cache state — only the wall-clock changes.
//!
//! The entry points differ only in who runs the jobs. A sweep keeps at most
//! a *window* of its jobs out at once, and each finished job hands back the
//! one that takes its place. The service passes those through its shared
//! queue to persistent workers; [`SweepRunner::try_run_suite`] borrows its
//! `&dyn Scenario`s from the caller, so it cannot hand them to threads that
//! outlive the call: its window is its scoped workers, each running the job
//! its last one handed back (`threads <= 1`: the calling thread alone).

use crate::cache::{self, CacheKey, CacheStats, CacheWriter, ResultCache};
use crate::error::Error;
use crate::metrics::{summarize, MetricSummary, Metrics};
use crate::params::{Params, SweepGrid};
use crate::Scenario;
use des::Simulation;
use json::ToJson;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// All runs of one parameter point: the per-seed metrics plus aggregates.
#[derive(Debug, Clone)]
pub struct PointResult {
    pub params: Params,
    /// `(seed, metrics)` in seed order — independent of worker scheduling.
    pub per_seed: Vec<(u64, Metrics)>,
    pub summary: Vec<(String, MetricSummary)>,
}
json::impl_to_json!(PointResult {
    params,
    per_seed,
    summary,
});

/// The outcome of sweeping one scenario.
#[derive(Debug, Clone)]
pub struct SweepResult {
    pub scenario: String,
    pub seeds: Vec<u64>,
    pub points: Vec<PointResult>,
}
json::impl_to_json!(SweepResult {
    scenario,
    seeds,
    points,
});

/// A whole-suite run (`scenarios run --all`), the JSON artifact schema.
/// Deliberately excludes run-environment details like the thread count:
/// the artifact is bit-identical for a given seed list however it was
/// parallelised, so two runs can be compared with `cmp`.
#[derive(Debug, Clone)]
pub struct SweepSuite {
    pub seeds: Vec<u64>,
    pub results: Vec<SweepResult>,
}
json::impl_to_json!(SweepSuite { seeds, results });

impl SweepSuite {
    /// The canonical artifact rendering — exactly the bytes `scenarios run
    /// --json` writes. The what-if service ships this text verbatim over
    /// the wire (never a re-serialization on the client side), which is
    /// what makes server- and CLI-written artifacts byte-identical.
    pub fn artifact_json(&self) -> String {
        json::to_string_pretty(&self.to_value())
    }
}

/// How the engine orders a sweep's jobs before any worker sees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobOrder {
    /// Largest point first, by a size heuristic over its numeric parameters
    /// (LPT scheduling on a guess); ties keep their input order.
    #[default]
    Cost,
    /// The natural input order: task-major, point-major, seed-minor.
    Input,
}

impl JobOrder {
    /// Parse a CLI spelling: `cost` or `input`.
    pub fn parse(s: &str) -> Result<JobOrder, String> {
        match s {
            "cost" => Ok(JobOrder::Cost),
            "input" => Ok(JobOrder::Input),
            other => Err(format!("unknown job order `{other}` (try cost|input)")),
        }
    }
}

/// One failed `(scenario, point, seed)` job.
#[derive(Debug, Clone)]
pub struct JobFailure {
    pub scenario: String,
    pub point: String,
    pub seed: u64,
    pub message: String,
}

/// One or more sweep jobs panicked (or their results could not be written
/// to the cache). The sweep's surviving results are
/// discarded — partial artifacts would silently skew aggregates — but every
/// failing job is named, so the offending `(scenario, point, seed)` can be
/// replayed directly.
#[derive(Debug, Clone)]
pub struct SweepError {
    pub failures: Vec<JobFailure>,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} sweep job(s) panicked:", self.failures.len())?;
        for j in &self.failures {
            writeln!(
                f,
                "  - scenario `{}` point `{}` seed {}: {}",
                j.scenario, j.point, j.seed, j.message
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepError {}

/// One `(task, point, seed)` unit of work; `slot` is its global result index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    slot: usize,
    pub(crate) task: usize,
    point: usize,
    seed_idx: usize,
}

/// One planned sweep: the plan, which never changes, and the lock every
/// mutation of the running sweep goes through.
pub(crate) struct Sweep {
    pub(crate) names: Vec<&'static str>,
    points: Vec<Vec<Params>>,
    pub(crate) seeds: Vec<u64>,
    /// Per-slot cache keys — `Some` exactly for the slots that missed.
    keys: Vec<Option<CacheKey>>,
    /// `Some` from [`Sweep::start`] until the last outstanding job (or the
    /// cancel that dropped it) moves the value out.
    progress: Mutex<Option<Progress>>,
}

/// Everything a running sweep mutates, owned by one thread at a time:
/// [`Engine::plan`] builds it, [`Sweep::start`] parks it behind the sweep's
/// lock while jobs are outstanding, and whoever completes the last one gets
/// it back to finalize — or to drop, which closes the log handle uncommitted.
pub(crate) struct Progress {
    /// Result slots (task-major, point-major, seed-minor).
    slots: Vec<Option<Metrics>>,
    failures: Vec<JobFailure>,
    /// The sweep's append handle on the cache log — a sweep is one commit
    /// unit. `None` without a cache, or when every job hit.
    writer: Option<CacheWriter>,
    /// Jobs beyond the window, in start order.
    pending: VecDeque<Job>,
    /// Jobs pending or handed out, not yet completed or skipped.
    outstanding: usize,
    /// Jobs that have begun executing (drives queued → running).
    started: usize,
    cancelled: bool,
}

impl Progress {
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }

    pub(crate) fn cancelled(&self) -> bool {
        self.cancelled
    }
}

/// What one finished (or skipped) job's trip through the sweep lock yields.
pub(crate) enum Step {
    /// More of the sweep is outstanding; `Some` is the pending job that
    /// takes the finished one's place in the window.
    Continue(Option<Job>),
    /// That was the last outstanding job: the caller now owns the sweep's
    /// progress, and finalizes or drops it.
    Last(Progress),
}

impl Sweep {
    /// Park `progress` behind the lock and hand back the first `window`
    /// jobs; every job [`Engine::run_job`] completes then yields the next.
    pub(crate) fn start(&self, mut progress: Progress, window: usize) -> Vec<Job> {
        let first = window.min(progress.pending.len());
        let jobs = progress.pending.drain(..first).collect();
        *self.progress.lock().unwrap() = Some(progress);
        jobs
    }

    /// `(started, outstanding)` job counts, while the sweep is running.
    pub(crate) fn counts(&self) -> Option<(usize, usize)> {
        let progress = self.progress.lock().unwrap();
        progress.as_ref().map(|p| (p.started, p.outstanding))
    }

    /// Drop the jobs still pending and have workers skip the ones already
    /// handed out. Yields the progress if nothing was handed out, so that
    /// no job is left to do it.
    pub(crate) fn cancel(&self) -> Option<Progress> {
        let mut guard = self.progress.lock().unwrap();
        let progress = guard.as_mut()?;
        progress.cancelled = true;
        progress.outstanding -= progress.pending.len();
        progress.pending.clear();
        if progress.outstanding == 0 {
            guard.take()
        } else {
            None
        }
    }

    /// Count one handed-out job as started — unless the sweep was cancelled
    /// meanwhile, in which case the job is to be skipped.
    fn begin(&self) -> bool {
        let mut guard = self.progress.lock().unwrap();
        let progress = guard.as_mut().expect("a job outlived its sweep");
        if !progress.cancelled {
            progress.started += 1;
        }
        !progress.cancelled
    }

    /// One job's single trip through the lock: `record` its outcome, pop
    /// the job that replaces it, count down, and move the progress out if
    /// that was the last one.
    fn settle(&self, record: impl FnOnce(&mut Progress)) -> Step {
        let mut guard = self.progress.lock().unwrap();
        let progress = guard.as_mut().expect("a job outlived its sweep");
        record(progress);
        let next = progress.pending.pop_front();
        progress.outstanding -= 1;
        if progress.outstanding == 0 {
            Step::Last(guard.take().expect("checked above"))
        } else {
            Step::Continue(next)
        }
    }
}

/// What the sweeps of one entry point share — the result cache, nothing
/// else — and, as its methods, the plan, run and finalize steps.
#[derive(Debug)]
pub(crate) struct Engine {
    /// Memoized `(scenario, params, seed) → Metrics` store.
    pub(crate) cache: Option<Mutex<ResultCache>>,
}

impl Engine {
    pub(crate) fn new(cache: Option<ResultCache>) -> Engine {
        Engine {
            cache: cache.map(Mutex::new),
        }
    }

    /// Hit/miss/size counters of the attached cache, if any.
    pub(crate) fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.lock().unwrap().stats())
    }

    /// The attached cache's salt, if any.
    pub(crate) fn cache_salt(&self) -> Option<String> {
        self.cache
            .as_ref()
            .map(|c| c.lock().unwrap().salt().to_string())
    }

    /// Plan one sweep over `tasks × seeds`: returns it with its initial
    /// progress — hits already in their slots, the jobs that still have to
    /// run pending in the order they should start. Jobs get consecutive
    /// slots in task-major, point-major, seed-minor order — the layout that
    /// makes every entry point's artifact interchangeable.
    pub(crate) fn plan(
        &self,
        tasks: &[(&dyn Scenario, SweepGrid)],
        seeds: &[u64],
        order: JobOrder,
    ) -> Result<(Sweep, Progress), Error> {
        let names: Vec<&'static str> = tasks.iter().map(|(s, _)| s.name()).collect();
        let points: Vec<Vec<Params>> = tasks
            .iter()
            .map(|(s, g)| g.points(&s.default_params()))
            .collect();
        let mut jobs: Vec<Job> = Vec::new();
        for (task, task_points) in points.iter().enumerate() {
            for point in 0..task_points.len() {
                for seed_idx in 0..seeds.len() {
                    let slot = jobs.len();
                    jobs.push(Job {
                        slot,
                        task,
                        point,
                        seed_idx,
                    });
                }
            }
        }
        let mut slots: Vec<Option<Metrics>> = vec![None; jobs.len()];
        let mut keys: Vec<Option<CacheKey>> = vec![None; jobs.len()];

        // Memoization pre-scan: only genuine misses stay in `jobs`.
        let mut writer = None;
        if let Some(cache) = &self.cache {
            let mut cache = cache.lock().unwrap();
            jobs.retain(|job| {
                let params = &points[job.task][job.point];
                let seed = seeds[job.seed_idx];
                let key = cache::job_key(cache.salt(), names[job.task], params, seed);
                match cache.lookup(&key) {
                    Some(metrics) => {
                        slots[job.slot] = Some(metrics);
                        false
                    }
                    None => {
                        keys[job.slot] = Some(key);
                        true
                    }
                }
            });
            if !jobs.is_empty() {
                writer = Some(cache.writer()?);
            }
        }

        // A warm sweep has nothing left to order.
        if order == JobOrder::Cost && jobs.len() > 1 {
            largest_first(&mut jobs, &points);
        }

        let sweep = Sweep {
            names,
            points,
            seeds: seeds.to_vec(),
            keys,
            progress: Mutex::new(None),
        };
        let progress = Progress {
            slots,
            failures: Vec::new(),
            writer,
            outstanding: jobs.len(),
            pending: jobs.into(),
            started: 0,
            cancelled: false,
        };
        Ok((sweep, progress))
    }

    /// Run one job of a started sweep — simulate it with no lock held, then
    /// persist it and store its slot under the sweep lock — or record a
    /// [`JobFailure`] if the scenario panics or the cache write fails (a
    /// warm CI run silently degrading to 0% hits must not pass). A
    /// cancelled sweep's jobs are skipped.
    pub(crate) fn run_job(&self, sweep: &Sweep, scenario: &dyn Scenario, job: Job) -> Step {
        if !sweep.begin() {
            return sweep.settle(|_| {});
        }
        let params = &sweep.points[job.task][job.point];
        let seed = sweep.seeds[job.seed_idx];
        let started = Instant::now();
        // A panicking scenario must not poison shared state or lose its
        // identity: catch it here, where no lock is held. AssertUnwindSafe
        // is sound because a failed sweep discards all results (no broken
        // invariant is read).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulation::new(seed);
            scenario.run(&mut sim, params)
        }))
        .map_err(|payload| panic_message(payload.as_ref()));
        let elapsed = started.elapsed().as_secs_f64();
        sweep.settle(|progress| {
            let failure = match outcome {
                Ok(metrics) => {
                    let appended = match &progress.writer {
                        Some(writer) => {
                            let key = sweep.keys[job.slot].expect("every planned job missed");
                            writer.append(&key, scenario.name(), elapsed, &metrics)
                        }
                        None => Ok(()),
                    };
                    progress.slots[job.slot] = Some(metrics);
                    appended.err().map(|e| format!("cache write failed: {e}"))
                }
                Err(message) => Some(message),
            };
            if let Some(message) = failure {
                progress.failures.push(JobFailure {
                    scenario: scenario.name().to_string(),
                    point: params.label(),
                    seed,
                    message,
                });
            }
        })
    }

    /// Turn a drained sweep's progress into its outcome: every failed job,
    /// in a deterministic order however the workers interleaved, or the
    /// aggregated results once the sweep's appends are committed. On
    /// failure nothing commits, but the surviving jobs' lines are already in
    /// the log: the next cache open replays them, so their results aren't
    /// lost.
    pub(crate) fn finalize(
        &self,
        sweep: &Sweep,
        mut progress: Progress,
    ) -> Result<Vec<SweepResult>, Error> {
        if !progress.failures.is_empty() {
            progress.failures.sort_by(|a, b| {
                (&a.scenario, &a.point, a.seed).cmp(&(&b.scenario, &b.point, b.seed))
            });
            let failures = progress.failures;
            return Err(Error::Sweep(SweepError { failures }));
        }
        if let (Some(cache), Some(writer)) = (&self.cache, progress.writer) {
            cache.lock().unwrap().commit(vec![writer])?;
        }
        Ok(aggregate_results(
            &sweep.names,
            &sweep.points,
            &sweep.seeds,
            progress.slots,
        ))
    }
}

/// [`JobOrder::Cost`]: start the largest points first so the short jobs pack
/// around the long ones. The sort is stable and `jobs` arrives in slot
/// order, so equal sizes — a point's seeds, above all — keep it. Only the
/// start order moves: results are slot-indexed, so the artifact cannot
/// observe it.
fn largest_first(jobs: &mut [Job], points: &[Vec<Params>]) {
    let sizes: Vec<Vec<f64>> = points
        .iter()
        .map(|task_points| task_points.iter().map(size_heuristic).collect())
        .collect();
    jobs.sort_by(|a, b| sizes[b.task][b.point].total_cmp(&sizes[a.task][a.point]));
}

/// Stand-in for a job's cost: a monotone function of the point's numeric
/// parameter magnitudes. Size-like tunables (ranks, reps, trace lengths,
/// grid extents) dominate a scenario's runtime, so "bigger numbers ⇒
/// longer job". Logarithms keep one huge axis from drowning the others.
fn size_heuristic(params: &Params) -> f64 {
    let mut score = 1.0;
    for (_, v) in params.iter() {
        let Some(x) = v.as_f64().filter(|x| x.is_finite()) else {
            continue;
        };
        score += (1.0 + x.abs()).ln();
    }
    score
}

/// Fold slot-ordered metrics back into per-scenario results: task, point,
/// seed — the execution order never shows up here.
fn aggregate_results(
    names: &[&str],
    points: &[Vec<Params>],
    seeds: &[u64],
    slot_values: Vec<Option<Metrics>>,
) -> Vec<SweepResult> {
    let mut metrics = slot_values
        .into_iter()
        .map(|m| m.expect("every non-failed job filled its slot"));
    let mut point_result = |params: &Params| {
        let runs: Vec<Metrics> = metrics.by_ref().take(seeds.len()).collect();
        PointResult {
            params: params.clone(),
            summary: summarize(&runs),
            per_seed: seeds.iter().copied().zip(runs).collect(),
        }
    };
    names
        .iter()
        .zip(points)
        .map(|(name, task_points)| SweepResult {
            scenario: name.to_string(),
            seeds: seeds.to_vec(),
            points: task_points.iter().map(&mut point_result).collect(),
        })
        .collect()
}

/// The synchronous entry point: one sweep per call, on threads that live
/// for the call.
#[derive(Debug)]
pub struct SweepRunner {
    threads: usize,
    seeds: Vec<u64>,
    order: JobOrder,
    engine: Engine,
}

impl SweepRunner {
    /// `threads` is clamped to at least one; `seeds` must be non-empty.
    pub fn new(threads: usize, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "a sweep needs at least one seed");
        SweepRunner {
            threads: threads.max(1),
            seeds,
            order: JobOrder::default(),
            engine: Engine::new(None),
        }
    }

    /// The default seed sequence: `REPORT_SEED, REPORT_SEED+1, …` so one
    /// seed reproduces the legacy single-run reports exactly.
    pub fn seeds(n: usize) -> Vec<u64> {
        (0..n.max(1) as u64)
            .map(|i| crate::REPORT_SEED + i)
            .collect()
    }

    /// Choose the start order (default: [`JobOrder::Cost`]).
    pub fn with_order(mut self, order: JobOrder) -> Self {
        self.order = order;
        self
    }

    /// Attach a persistent result cache: jobs whose `(scenario, params,
    /// seed)` content hash is already stored are served bit-exactly from
    /// it instead of simulated, and every miss is persisted on completion.
    pub fn with_cache(mut self, cache: ResultCache) -> Self {
        self.engine.cache = Some(Mutex::new(cache));
        self
    }

    /// Hit/miss/saved-wall-clock counters of the attached cache, if any.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.engine.cache_stats()
    }

    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Run `scenario` over every `(grid point, seed)` combination.
    /// Panics (with every failing job named) if any job panics; use
    /// [`SweepRunner::try_run`] to handle failures programmatically.
    pub fn run(&self, scenario: &dyn Scenario, grid: &SweepGrid) -> SweepResult {
        self.try_run(scenario, grid)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`SweepRunner::run`].
    pub fn try_run(&self, scenario: &dyn Scenario, grid: &SweepGrid) -> Result<SweepResult, Error> {
        let mut results = self.try_run_suite(&[(scenario, grid.clone())])?;
        Ok(results.pop().expect("one task in, one result out"))
    }

    /// Run several scenarios' sweeps as one, so short scenarios pack around
    /// long ones instead of queueing behind a per-scenario barrier. Results
    /// come back in task order.
    pub fn run_suite(&self, tasks: &[(&dyn Scenario, SweepGrid)]) -> Vec<SweepResult> {
        self.try_run_suite(tasks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`SweepRunner::run_suite`]: failed jobs come back
    /// as [`Error::Sweep`], cache I/O trouble as [`Error::Cache`].
    pub fn try_run_suite(
        &self,
        tasks: &[(&dyn Scenario, SweepGrid)],
    ) -> Result<Vec<SweepResult>, Error> {
        let engine = &self.engine;
        let (sweep, progress) = engine.plan(tasks, &self.seeds, self.order)?;

        // The window is the workers: each runs the job its last one handed
        // back, and the one that completes the sweep's last job returns
        // the progress.
        let work = |mut job: Job| loop {
            match engine.run_job(&sweep, tasks[job.task].0, job) {
                Step::Continue(Some(next)) => job = next,
                Step::Continue(None) => return None,
                Step::Last(progress) => return Some(progress),
            }
        };
        let progress = if progress.outstanding() == 0 {
            progress
        } else {
            let window = sweep.start(progress, self.threads);
            let last = if let [job] = window[..] {
                work(job)
            } else {
                std::thread::scope(|scope| {
                    let workers: Vec<_> = window
                        .into_iter()
                        .map(|job| scope.spawn(move || work(job)))
                        .collect();
                    let done = workers.into_iter().map(|w| w.join().expect("worker died"));
                    done.flatten().last()
                })
            };
            last.expect("the sweep's last job hands its progress back")
        };

        engine.finalize(&sweep, progress)
    }
}

/// Best-effort text of a panic payload (panics carry `&str` or `String`
/// unless thrown with `panic_any`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl SweepResult {
    /// Bit-exact equality of every per-(point, seed) metric — what the
    /// determinism property compares between serial and parallel runs.
    pub fn bits_eq(&self, other: &SweepResult) -> bool {
        self.scenario == other.scenario
            && self.seeds == other.seeds
            && self.points.len() == other.points.len()
            && self.points.iter().zip(&other.points).all(|(a, b)| {
                a.params == b.params
                    && a.per_seed.len() == b.per_seed.len()
                    && a.per_seed
                        .iter()
                        .zip(&b.per_seed)
                        .all(|((sa, ma), (sb, mb))| sa == sb && ma.bits_eq(mb))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamValue;

    /// A scenario whose metrics encode (param, seed) so slot routing bugs
    /// would be visible immediately.
    struct Probe;

    impl Scenario for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn title(&self) -> &'static str {
            "routing probe"
        }
        fn default_params(&self) -> Params {
            Params::new().with("k", 1u64)
        }
        fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
            let mut m = Metrics::new();
            m.push("k", params.f64("k"));
            m.push("seed", sim.seed() as f64);
            m.push("draw", sim.stream("probe").f64());
            m
        }
    }

    #[test]
    fn jobs_land_in_their_slots() {
        let runner = SweepRunner::new(3, vec![7, 8]);
        let grid = SweepGrid::new().axis("k", vec![10u64, 20, 30]);
        let result = runner.run(&Probe, &grid);
        assert_eq!(result.points.len(), 3);
        for (pi, point) in result.points.iter().enumerate() {
            assert_eq!(point.params.u64("k"), 10 * (pi as u64 + 1));
            assert_eq!(point.per_seed.len(), 2);
            for ((seed, m), expect) in point.per_seed.iter().zip([7u64, 8]) {
                assert_eq!(*seed, expect);
                assert_eq!(m.get("seed"), Some(expect as f64));
                assert_eq!(m.get("k"), Some(point.params.f64("k")));
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let grid = SweepGrid::new().axis("k", vec![1u64, 2, 3, 4, 5]);
        let serial = SweepRunner::new(1, vec![1, 2, 3]).run(&Probe, &grid);
        let parallel = SweepRunner::new(4, vec![1, 2, 3]).run(&Probe, &grid);
        assert!(serial.bits_eq(&parallel));
    }

    #[test]
    fn job_order_cannot_influence_results() {
        let grid = SweepGrid::new().axis("k", vec![1u64, 2, 3, 4]);
        // The two orders start the jobs in opposite directions (cost order
        // puts k=4 first on an unmeasured grid): ordering differs, results
        // must not.
        let cost = SweepRunner::new(3, vec![1, 2]).run(&Probe, &grid);
        let input = SweepRunner::new(3, vec![1, 2])
            .with_order(JobOrder::Input)
            .run(&Probe, &grid);
        assert!(cost.bits_eq(&input));
    }

    /// Records the `(k, seed)` of every job as it starts.
    struct StartLog(Mutex<Vec<(u64, u64)>>);

    impl Scenario for StartLog {
        fn name(&self) -> &'static str {
            "start_log"
        }
        fn title(&self) -> &'static str {
            "logs job starts"
        }
        fn default_params(&self) -> Params {
            Params::new().with("k", 1u64)
        }
        fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
            let job = (params.u64("k"), sim.seed());
            self.0.lock().unwrap().push(job);
            Metrics::new()
        }
    }

    #[test]
    fn one_thread_starts_jobs_in_exactly_the_plans_order() {
        let grid = SweepGrid::new().axis("k", vec![3u64, 100, 20]);
        let log = StartLog(Mutex::new(Vec::new()));
        let starts = |runner: &SweepRunner| {
            runner.run(&log, &grid);
            std::mem::take(&mut *log.0.lock().unwrap())
        };
        // Input order is slot order: point-major, seed-minor.
        let input = SweepRunner::new(1, vec![7, 8]).with_order(JobOrder::Input);
        assert_eq!(
            starts(&input),
            [3, 100, 20].map(|k| [(k, 7), (k, 8)]).concat()
        );
        // Cost order is the size heuristic: descending k, and a point's
        // equal-size seeds stay in slot order.
        let cost = SweepRunner::new(1, vec![7, 8]);
        let first = starts(&cost);
        assert_eq!(first, [100, 20, 3].map(|k| [(k, 7), (k, 8)]).concat());
        // The runner keeps nothing from one sweep to the next, so whatever
        // the first sweep's jobs cost, the second starts in the same order.
        assert_eq!(starts(&cost), first);
    }

    #[test]
    fn run_suite_matches_individual_runs() {
        struct Probe2;
        impl Scenario for Probe2 {
            fn name(&self) -> &'static str {
                "probe2"
            }
            fn title(&self) -> &'static str {
                "second probe"
            }
            fn default_params(&self) -> Params {
                Params::new().with("j", 5u64)
            }
            fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
                let mut m = Metrics::new();
                m.push("j", params.f64("j"));
                m.push("draw", sim.stream("probe2").f64());
                m
            }
        }
        let grid1 = SweepGrid::new().axis("k", vec![1u64, 2]);
        let grid2 = SweepGrid::new();
        let runner = SweepRunner::new(4, vec![3, 4]);
        let suite = runner.run_suite(&[(&Probe, grid1.clone()), (&Probe2, grid2.clone())]);
        assert_eq!(suite.len(), 2);
        let solo1 = SweepRunner::new(1, vec![3, 4]).run(&Probe, &grid1);
        let solo2 = SweepRunner::new(1, vec![3, 4]).run(&Probe2, &grid2);
        assert!(suite[0].bits_eq(&solo1), "suite result order is task order");
        assert!(suite[1].bits_eq(&solo2));
    }

    #[test]
    fn summaries_cover_all_seeds() {
        let result = SweepRunner::new(2, vec![1, 2, 3, 4]).run(&Probe, &SweepGrid::new());
        let (_, draw) = result.points[0]
            .summary
            .iter()
            .find(|(n, _)| n == "draw")
            .expect("draw metric");
        assert_eq!(draw.n, 4);
        assert!(draw.min >= 0.0 && draw.max < 1.0);
    }

    #[test]
    fn default_seed_sequence_starts_at_report_seed() {
        assert_eq!(SweepRunner::seeds(3), vec![42, 43, 44]);
        assert_eq!(SweepRunner::seeds(0), vec![42], "clamped to one seed");
    }

    #[test]
    fn heuristic_ignores_non_numeric_and_non_finite() {
        let base = size_heuristic(&Params::new());
        let p = Params::new()
            .with("mode", ParamValue::parse("fast"))
            .with("bad", f64::NAN);
        assert_eq!(size_heuristic(&p), base);
    }

    /// A scenario that panics on one specific (point, seed) pair.
    struct Grenade;

    impl Scenario for Grenade {
        fn name(&self) -> &'static str {
            "grenade"
        }
        fn title(&self) -> &'static str {
            "panics on k=2, seed 8"
        }
        fn default_params(&self) -> Params {
            Params::new().with("k", 1u64)
        }
        fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
            assert!(
                !(params.u64("k") == 2 && sim.seed() == 8),
                "simulated scenario bug"
            );
            Metrics::new()
        }
    }

    #[test]
    fn panicking_job_reports_its_identity() {
        let grid = SweepGrid::new().axis("k", vec![1u64, 2, 3]);
        for threads in [1, 4] {
            let err = match SweepRunner::new(threads, vec![7, 8]).try_run(&Grenade, &grid) {
                Err(Error::Sweep(err)) => err,
                other => panic!("the k=2/seed=8 job panics, got {other:?}"),
            };
            assert_eq!(err.failures.len(), 1, "threads={threads}");
            let j = &err.failures[0];
            assert_eq!(j.scenario, "grenade");
            assert_eq!(j.point, "k=2");
            assert_eq!(j.seed, 8);
            assert!(
                j.message.contains("simulated scenario bug"),
                "{}",
                j.message
            );
            let display = err.to_string();
            assert!(display.contains("scenario `grenade` point `k=2` seed 8"));
        }
    }

    #[test]
    fn surviving_jobs_do_not_mask_the_failure() {
        // Every other job completes; the one grenade must still fail the
        // sweep (partial artifacts would silently skew aggregates) and the
        // error must name exactly the failing job.
        let grid = SweepGrid::new().axis("k", vec![2u64]);
        let err = match SweepRunner::new(2, vec![7, 8, 9]).try_run(&Grenade, &grid) {
            Err(Error::Sweep(err)) => err,
            other => panic!("seed 8 panics, got {other:?}"),
        };
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].seed, 8);
    }
}
