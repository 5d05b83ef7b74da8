//! The sweep engine, and [`SweepRunner`], its synchronous entry point.
//!
//! A sweep is the cartesian product of one or more scenarios' grid points
//! and a seed list. However it is entered — [`SweepRunner`] here, or the
//! long-running [`crate::service::Service`] behind the CLI and the TCP
//! server — it goes through the same four steps, each implemented once:
//!
//! * **plan** (`Engine::plan`): expand `(task, point, seed)` jobs with
//!   consecutive result slots; pre-scan the [`ResultCache`], writing hits
//!   straight into their slots so they never reach a pool, a cost estimate
//!   or the observed-cost table; order the misses longest-expected-first
//!   (LPT: measured wall-clocks first, then the prior [`CostTable`], then a
//!   size heuristic) or leave them in input order.
//! * **find-task** (`find_task`): the canonical Chase–Lev loop — local
//!   deque, then a batch from the shared injector, then a sibling steal —
//!   so one long job never pins a worker while short jobs queue behind it.
//! * **execute** (`Engine::execute`): one fresh [`Simulation`] per job,
//!   the panic caught and kept with its `(scenario, point, seed)` identity,
//!   the wall-clock recorded, the result appended to the sweep's one
//!   write-ahead segment and written to its slot.
//! * **finalize** (`Engine::finalize`): failures, sorted, become a
//!   [`SweepError`]; otherwise the segment commits into the cache index and
//!   the slots fold into per-scenario results in task, point, seed order.
//!
//! Scheduling never touches results: every job's metrics are a pure
//! function of `(params, seed)` and land in the slot the plan gave them, so
//! the artifact is bit-identical whatever the thread count, job order,
//! steal interleaving or cache state — only the wall-clock changes.
//!
//! The entry points differ only in who runs the loop. The service keeps
//! parked workers, a per-request window and a status plane across requests;
//! [`SweepRunner::try_run_suite`] borrows its `&dyn Scenario`s from the
//! caller, so it cannot hand them to threads that outlive the call: it
//! plans one sweep, drains it on the calling thread (`threads <= 1`) or on
//! scoped workers, and finalizes it before returning.

use crate::cache::{self, CacheKey, CacheStats, CacheWriter, ResultCache};
use crate::cost::CostTable;
use crate::error::Error;
use crate::metrics::{summarize, MetricSummary, Metrics};
use crate::params::{Params, SweepGrid};
use crate::Scenario;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use des::Simulation;
use serde::Serialize;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// All runs of one parameter point: the per-seed metrics plus aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct PointResult {
    pub params: Params,
    /// `(seed, metrics)` in seed order — independent of worker scheduling.
    pub per_seed: Vec<(u64, Metrics)>,
    pub summary: Vec<(String, MetricSummary)>,
}

/// The outcome of sweeping one scenario.
#[derive(Debug, Clone, Serialize)]
pub struct SweepResult {
    pub scenario: String,
    pub seeds: Vec<u64>,
    pub points: Vec<PointResult>,
}

/// A whole-suite run (`scenarios run --all`), the JSON artifact schema.
/// Deliberately excludes run-environment details like the thread count:
/// the artifact is bit-identical for a given seed list however it was
/// parallelised, so two runs can be compared with `cmp`.
#[derive(Debug, Clone, Serialize)]
pub struct SweepSuite {
    pub seeds: Vec<u64>,
    pub results: Vec<SweepResult>,
}

impl SweepSuite {
    /// The canonical artifact rendering — exactly the bytes `scenarios run
    /// --json` writes. The what-if service ships this text verbatim over
    /// the wire (never a re-serialization on the client side), which is
    /// what makes server- and CLI-written artifacts byte-identical.
    pub fn artifact_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("value-tree rendering is infallible")
    }
}

/// How the engine orders a sweep's jobs before any pool sees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobOrder {
    /// Longest-expected-first by [`CostTable`] estimate (LPT scheduling);
    /// ties broken by input position so the order is fully deterministic.
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

/// Slot-indexed, write-once result storage shared by a sweep's workers.
///
/// Each job owns exactly one slot, and the deques hand each job to exactly
/// one worker, so writes are disjoint by construction. That invariant is
/// what lets results land without a mutex per slot — and what keeps the
/// output independent of who executed what.
pub(crate) struct SlotBuffer<T> {
    slots: Vec<UnsafeCell<Option<T>>>,
}

// SAFETY: the only shared-reference accesses are `put` and `take_vec`,
// whose contracts make every access to a slot exclusive; moving a `T` to
// the thread that drains it needs `T: Send`.
unsafe impl<T: Send> Sync for SlotBuffer<T> {}

impl<T> SlotBuffer<T> {
    pub(crate) fn new(n: usize) -> SlotBuffer<T> {
        SlotBuffer {
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// # Safety
    /// At most one thread may ever call this per index, and all calls must
    /// happen-before [`SlotBuffer::take_vec`] (a thread join, or an acquire
    /// of a release made after the write).
    pub(crate) unsafe fn put(&self, index: usize, value: T) {
        *self.slots[index].get() = Some(value);
    }

    /// Drain every slot through a shared reference (a sweep inside the
    /// service's `Arc` can't be consumed by value).
    ///
    /// # Safety
    /// Exactly one thread may call this, exactly once, and every
    /// [`SlotBuffer::put`] must happen-before it.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn take_vec(&self) -> Vec<Option<T>> {
        self.slots.iter().map(|c| (*c.get()).take()).collect()
    }
}

/// One `(task, point, seed)` unit of work; `slot` is its global result index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    slot: usize,
    pub(crate) task: usize,
    point: usize,
    seed_idx: usize,
}

/// One planned sweep: the state [`Engine::plan`], [`Engine::execute`] and
/// [`Engine::finalize`] share, whichever entry point drives them.
pub(crate) struct Sweep {
    pub(crate) names: Vec<&'static str>,
    points: Vec<Vec<Params>>,
    pub(crate) seeds: Vec<u64>,
    /// Write-once result slots (task-major, point-major, seed-minor).
    slots: SlotBuffer<Metrics>,
    /// Per-slot cache keys — `Some` exactly for the slots that missed.
    keys: Vec<Option<CacheKey>>,
    failures: Mutex<Vec<JobFailure>>,
    /// The sweep's append-only WAL segment — a sweep is one commit unit,
    /// so every worker appends to the same file. `None` without a cache,
    /// or when every job hit.
    writer: Mutex<Option<CacheWriter>>,
}

/// What the sweeps of one entry point share — the result cache and the
/// cost tables — and, as its methods, the plan, execute and finalize steps.
#[derive(Debug)]
pub(crate) struct Engine {
    /// Memoized `(scenario, params, seed) → Metrics` store.
    pub(crate) cache: Option<Mutex<ResultCache>>,
    /// Configured prior costs, the cold-start estimate (typically loaded
    /// from CI's persisted timing artifact). Never mutated by a sweep.
    pub(crate) priors: CostTable,
    /// Wall-clocks measured by this engine's own jobs; preferred over the
    /// priors, so ordering gets smarter the longer it runs. Cache hits
    /// never contribute: a hit costs microseconds, and folding it in would
    /// drag the estimate for that point shape toward zero.
    pub(crate) observed: Mutex<CostTable>,
}

impl Engine {
    /// Hit/miss/size counters of the attached cache, if any.
    pub(crate) fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.lock().unwrap().stats())
    }

    /// Plan one sweep over `tasks × seeds`: returns it with the jobs that
    /// still have to run, in the order they should start. Jobs get
    /// consecutive slots in task-major, point-major, seed-minor order — the
    /// layout that makes every entry point's artifact interchangeable.
    pub(crate) fn plan(
        &self,
        tasks: &[(&dyn Scenario, SweepGrid)],
        seeds: &[u64],
        order: JobOrder,
    ) -> Result<(Sweep, Vec<Job>), Error> {
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
        let slots = SlotBuffer::new(jobs.len());
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
                        // SAFETY: the pre-scan runs on this thread before
                        // the sweep is visible to any worker, visits each
                        // slot at most once, and hit slots never become
                        // pool jobs.
                        unsafe { slots.put(job.slot, metrics) };
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

        // Deadline-aware ordering: estimate each point once, then start
        // longest-expected-first, ties broken by slot so the order is fully
        // deterministic. Estimates steer only the start order — results
        // are slot-indexed, so the artifact cannot observe them. A warm
        // sweep has nothing left to order and skips the estimates.
        if order == JobOrder::Cost && jobs.len() > 1 {
            let observed = self.observed.lock().unwrap();
            let estimate = |name: &str, p: &Params| {
                observed
                    .mean_secs(&CostTable::key(name, p))
                    .unwrap_or_else(|| self.priors.estimate(name, p))
            };
            let estimates: Vec<Vec<f64>> = names
                .iter()
                .zip(&points)
                .map(|(name, pts)| pts.iter().map(|p| estimate(name, p)).collect())
                .collect();
            jobs.sort_by(|a, b| {
                estimates[b.task][b.point]
                    .total_cmp(&estimates[a.task][a.point])
                    .then(a.slot.cmp(&b.slot))
            });
        }

        let sweep = Sweep {
            names,
            points,
            seeds: seeds.to_vec(),
            slots,
            keys,
            failures: Mutex::new(Vec::new()),
            writer: Mutex::new(writer),
        };
        Ok((sweep, jobs))
    }

    /// Run one job: simulate it, record its wall-clock, persist it, and
    /// write its slot — or record a [`JobFailure`] if the scenario panics
    /// or the cache write fails (a warm CI run silently degrading to 0%
    /// hits must not pass).
    ///
    /// # Safety
    /// `job` must come from the [`Engine::plan`] call that built `sweep`,
    /// with `scenario` the task it indexes, and be executed at most once;
    /// every call must happen-before [`Engine::finalize`].
    pub(crate) unsafe fn execute(&self, sweep: &Sweep, scenario: &dyn Scenario, job: Job) {
        let params = &sweep.points[job.task][job.point];
        let seed = sweep.seeds[job.seed_idx];
        let started = Instant::now();
        // A panicking scenario must not poison shared state or lose its
        // identity: catch it here. AssertUnwindSafe is sound because a
        // failed sweep discards all results (no broken invariant is read).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulation::new(seed);
            scenario.run(&mut sim, params)
        }));
        let failure = match outcome {
            Ok(metrics) => {
                let elapsed = started.elapsed().as_secs_f64();
                self.observed
                    .lock()
                    .unwrap()
                    .record(&CostTable::key(scenario.name(), params), elapsed);
                let appended = match &*sweep.writer.lock().unwrap() {
                    Some(writer) => {
                        let key = sweep.keys[job.slot].expect("every pool job missed the cache");
                        writer.append(&key, scenario.name(), elapsed, &metrics)
                    }
                    None => Ok(()),
                };
                // SAFETY: the caller runs each job at most once, so this is
                // the slot's only write, and orders it before `finalize`.
                unsafe { sweep.slots.put(job.slot, metrics) };
                appended.err().map(|e| format!("cache write failed: {e}"))
            }
            Err(payload) => Some(panic_message(payload.as_ref())),
        };
        if let Some(message) = failure {
            sweep.failures.lock().unwrap().push(JobFailure {
                scenario: scenario.name().to_string(),
                point: params.label(),
                seed,
                message,
            });
        }
    }

    /// Turn the drained sweep into its outcome: every failed job, in a
    /// deterministic order however the pool interleaved, or the aggregated
    /// results once the WAL segment is committed to the cache index. On
    /// failure nothing commits; the segment stays on disk and is recovered
    /// at the next cache open, so the surviving jobs' results aren't lost.
    ///
    /// # Safety
    /// Call at most once per sweep, after every [`Engine::execute`] on it
    /// happened-before (a thread join, or acquiring the last job's release).
    pub(crate) unsafe fn finalize(&self, sweep: &Sweep) -> Result<Vec<SweepResult>, Error> {
        let mut failures = std::mem::take(&mut *sweep.failures.lock().unwrap());
        if !failures.is_empty() {
            failures.sort_by(|a, b| {
                (&a.scenario, &a.point, a.seed).cmp(&(&b.scenario, &b.point, b.seed))
            });
            return Err(Error::Sweep(SweepError { failures }));
        }
        if let (Some(cache), Some(writer)) = (&self.cache, sweep.writer.lock().unwrap().take()) {
            cache.lock().unwrap().commit(vec![writer])?;
        }
        // SAFETY: per this function's contract every slot write — the
        // plan's hits and the executed misses — happens-before this drain,
        // and nothing drains twice.
        let slot_values = unsafe { sweep.slots.take_vec() };
        Ok(aggregate_results(
            &sweep.names,
            &sweep.points,
            &sweep.seeds,
            slot_values,
        ))
    }
}

/// A pool's queues: the shared FIFO injector, a Chase–Lev deque per worker,
/// and the handles siblings steal by.
pub(crate) fn queues<T>(threads: usize) -> (Injector<T>, Vec<Worker<T>>, Vec<Stealer<T>>) {
    let locals: Vec<Worker<T>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let stealers = locals.iter().map(Worker::stealer).collect();
    (Injector::new(), locals, stealers)
}

/// The canonical crossbeam find-task loop: local deque first, then a batch
/// from the injector, then steal from siblings; repeat while anything
/// reports Retry.
pub(crate) fn find_task<T>(
    injector: &Injector<T>,
    local: &Worker<T>,
    stealers: &[Stealer<T>],
) -> Option<T> {
    local.pop().or_else(|| {
        std::iter::repeat_with(|| {
            injector
                .steal_batch_and_pop(local)
                .or_else(|| stealers.iter().map(Stealer::steal).collect())
        })
        .find(|s| !s.is_retry())
        .and_then(Steal::success)
    })
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
            engine: Engine {
                cache: None,
                priors: CostTable::new(),
                observed: Mutex::new(CostTable::new()),
            },
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

    /// Supply prior wall-clock measurements for the LPT order.
    pub fn with_cost_table(mut self, costs: CostTable) -> Self {
        self.engine.priors = costs;
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

    /// The wall-clocks this runner has measured so far (all `run`/
    /// `run_suite` calls on this instance), keyed like the prior table —
    /// persist with [`CostTable::save`] to feed the next run's ordering.
    pub fn observed_costs(&self) -> CostTable {
        self.engine.observed.lock().unwrap().clone()
    }

    /// Run `scenario` over every `(grid point, seed)` combination.
    /// Panics (with every failing job named) if any job panics; use
    /// [`SweepRunner::try_run`] to handle failures programmatically.
    pub fn run(&self, scenario: &dyn Scenario, grid: &SweepGrid) -> SweepResult {
        self.try_run(scenario, grid)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`SweepRunner::run`].
    pub fn try_run(
        &self,
        scenario: &dyn Scenario,
        grid: &SweepGrid,
    ) -> Result<SweepResult, SweepError> {
        let mut results = self.try_run_suite(&[(scenario, grid.clone())])?;
        Ok(results.pop().expect("one task in, one result out"))
    }

    /// Run several scenarios' sweeps as one, so short scenarios pack around
    /// long ones instead of queueing behind a per-scenario barrier. Results
    /// come back in task order.
    pub fn run_suite(&self, tasks: &[(&dyn Scenario, SweepGrid)]) -> Vec<SweepResult> {
        self.try_run_suite(tasks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`SweepRunner::run_suite`]. Job failures come
    /// back as the error; a cache I/O failure is a loud panic.
    pub fn try_run_suite(
        &self,
        tasks: &[(&dyn Scenario, SweepGrid)],
    ) -> Result<Vec<SweepResult>, SweepError> {
        let engine = &self.engine;
        let (sweep, jobs) = engine
            .plan(tasks, &self.seeds, self.order)
            .unwrap_or_else(|e| panic!("{e}"));

        let (injector, locals, stealers) = queues(self.threads.min(jobs.len()).max(1));
        for job in jobs {
            injector.push(job);
        }
        let work = |local: Worker<Job>| {
            while let Some(job) = find_task(&injector, &local, &stealers) {
                // SAFETY: the job is one of this sweep's plan, the deques
                // deliver it to exactly one worker, and the workers finish
                // (return or scope join) before `finalize` below.
                unsafe { engine.execute(&sweep, tasks[job.task].0, job) };
            }
        };
        if locals.len() <= 1 {
            locals.into_iter().for_each(work);
        } else {
            std::thread::scope(|scope| {
                for local in locals {
                    scope.spawn(move || work(local));
                }
            });
        }

        // SAFETY: called once, with every worker done.
        match unsafe { engine.finalize(&sweep) } {
            Ok(results) => Ok(results),
            Err(Error::Sweep(e)) => Err(e),
            Err(e) => panic!("{e}"),
        }
    }
}

/// Best-effort text of a panic payload (panics carry `&str` or `String`
/// unless thrown with `panic_any`).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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
    use crate::params::SweepGrid;

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
            m.push("k", params.f64("k", 0.0));
            m.push("seed", sim.seed() as f64);
            m.push("draw", sim.stream("probe").f64());
            m
        }
    }

    #[test]
    fn slot_buffer_disjoint_writes_from_threads() {
        // The SlotBuffer safety contract, reduced to its essentials so Miri
        // can interpret it directly (the full sweep tests are too heavy):
        // disjoint per-thread writes, join, then drain — `SweepRunner`'s
        // protocol. Every write must be visible and land in its own slot.
        let buf = SlotBuffer::<usize>::new(16);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let buf = &buf;
                scope.spawn(move || {
                    for i in (t..16).step_by(4) {
                        // SAFETY: each index is written by exactly one
                        // thread (i ≡ t mod 4), and the scope join orders
                        // all writes before take_vec below.
                        unsafe { buf.put(i, i * 10) };
                    }
                });
            }
        });
        // SAFETY: every writer has been joined; this is the only drain.
        let got = unsafe { buf.take_vec() };
        for (i, v) in got.into_iter().enumerate() {
            assert_eq!(v, Some(i * 10));
        }
    }

    #[test]
    fn slot_buffer_disjoint_writes_from_threads_then_take_vec() {
        // The service-finalizer variant of the contract above: writers
        // publish with a release fetch_sub, the last decrementer acquires
        // and drains through &self — exactly the what-if service's
        // finalization protocol, reduced for Miri.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let buf = SlotBuffer::<usize>::new(16);
        let remaining = AtomicUsize::new(16);
        let drained = std::sync::Mutex::new(None);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let buf = &buf;
                let remaining = &remaining;
                let drained = &drained;
                scope.spawn(move || {
                    for i in (t..16).step_by(4) {
                        // SAFETY: index i is written only by thread t
                        // (i ≡ t mod 4); the AcqRel fetch_sub below
                        // releases the write, and the thread observing the
                        // count hit zero acquires every prior decrement.
                        unsafe { buf.put(i, i * 10) };
                        if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            // SAFETY: last decrement — every put
                            // happens-before this take_vec.
                            *drained.lock().unwrap() = Some(unsafe { buf.take_vec() });
                        }
                    }
                });
            }
        });
        let got = drained.lock().unwrap().take().expect("one thread drained");
        for (i, v) in got.into_iter().enumerate() {
            assert_eq!(v, Some(i * 10));
        }
    }

    #[test]
    fn jobs_land_in_their_slots() {
        let runner = SweepRunner::new(3, vec![7, 8]);
        let grid = SweepGrid::new().axis("k", vec![10u64, 20, 30]);
        let result = runner.run(&Probe, &grid);
        assert_eq!(result.points.len(), 3);
        for (pi, point) in result.points.iter().enumerate() {
            assert_eq!(point.params.u64("k", 0), 10 * (pi as u64 + 1));
            assert_eq!(point.per_seed.len(), 2);
            for ((seed, m), expect) in point.per_seed.iter().zip([7u64, 8]) {
                assert_eq!(*seed, expect);
                assert_eq!(m.get("seed"), Some(expect as f64));
                assert_eq!(m.get("k"), Some(point.params.f64("k", 0.0)));
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
        let mut prior = CostTable::new();
        // A deliberately *wrong* prior (claims k=1 is the longest job):
        // ordering may be misled, results must not be.
        prior.record("probe|k=1", 100.0);
        prior.record("probe|k=4", 0.001);
        let cost = SweepRunner::new(3, vec![1, 2])
            .with_cost_table(prior)
            .run(&Probe, &grid);
        let input = SweepRunner::new(3, vec![1, 2])
            .with_order(JobOrder::Input)
            .run(&Probe, &grid);
        assert!(cost.bits_eq(&input));
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
                m.push("j", params.f64("j", 0.0));
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
    fn observed_costs_accumulate_per_point_shape() {
        let runner = SweepRunner::new(2, vec![1, 2, 3]);
        let grid = SweepGrid::new().axis("k", vec![1u64, 2]);
        runner.run(&Probe, &grid);
        let observed = runner.observed_costs();
        for key in ["probe|k=1", "probe|k=2"] {
            let mean = observed.mean_secs(key).expect("key measured");
            assert!(mean >= 0.0 && mean.is_finite(), "{key}: {mean}");
        }
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
                !(params.u64("k", 0) == 2 && sim.seed() == 8),
                "simulated scenario bug"
            );
            Metrics::new()
        }
    }

    #[test]
    fn panicking_job_reports_its_identity() {
        let grid = SweepGrid::new().axis("k", vec![1u64, 2, 3]);
        for threads in [1, 4] {
            let err = SweepRunner::new(threads, vec![7, 8])
                .try_run(&Grenade, &grid)
                .expect_err("the k=2/seed=8 job panics");
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
        let err = SweepRunner::new(2, vec![7, 8, 9])
            .try_run(&Grenade, &grid)
            .expect_err("seed 8 panics");
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].seed, 8);
    }
}
