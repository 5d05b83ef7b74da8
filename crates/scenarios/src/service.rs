//! The long-running "what-if" sweep service: the sweep engine of
//! [`crate::runner`] behind a persistent worker pool and an in-process
//! request registry, serving concurrent [`SweepRequest`]s.
//!
//! Planning, the find-task loop, job execution and finalization are the
//! engine's — the same functions [`crate::runner::SweepRunner`] calls, so
//! the CLI, the TCP server and the library entry point cannot drift apart.
//! What this module adds is everything that outlives one sweep:
//!
//! * **A persistent pool** — workers that outlive any one request, parking
//!   on a condvar when the queue runs dry. Jobs from every live request
//!   flow through the one shared FIFO injector.
//! * **Fair interleaving** — each request keeps at most `threads` jobs in
//!   the pool at once (its *window*); completing a job refills the next
//!   pending one at the injector's tail. A long request therefore owns at
//!   most a window's worth of queue at any instant, and a short request
//!   submitted behind it starts within one job-completion, not after the
//!   long sweep drains — the head-of-line guarantee the concurrency tests
//!   pin down.
//! * **A shared cache** — every request plans against the one
//!   [`ResultCache`], so an all-hit request finalizes inline at submit and
//!   the pool never hears about it, and misses commit into the same index
//!   every other entry point uses: server, CLI and library stay mutually
//!   incremental.
//! * **A metadata plane** — every request gets an id and a
//!   [`SweepStatus`] lifecycle (queued → running(n/m) → done / failed /
//!   cancelled) queryable via [`Service::status`] / [`Service::list`],
//!   cancellable via [`Service::cancel`], awaitable via [`Service::wait`].
//!   Identical in-flight requests are deduplicated: the second submit
//!   returns the first's id instead of doubling the work.
//!
//! The artifact is rendered once, server-side, with
//! [`SweepSuite::artifact_json`] and shipped as text verbatim.
//!
//! Memory ordering of finalization: each worker publishes its slot writes
//! with an `AcqRel` `fetch_sub` on the request's `remaining` counter; the
//! thread that observes the count hit zero acquires every decrement in the
//! release sequence, so all slot writes happen-before the finalizer drains
//! them. The submit-time cache-hit writes are ordered before any worker
//! runs via the injector push (release) → steal (acquire) chain,
//! inductively through refills.

use crate::cache::{CacheStats, ResultCache};
use crate::cost::CostTable;
use crate::error::Error;
use crate::registry::Registry;
use crate::request::{SweepRequest, SweepResponse, SweepStatus};
use crate::runner::{find_task, queues, Engine, Job, Sweep, SweepResult, SweepSuite};
use crossbeam::deque::{Injector, Stealer, Worker};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How a [`Service`] is provisioned.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Pool worker threads (also each request's in-flight window).
    pub threads: usize,
    /// Attach the persistent result cache at this directory.
    pub cache_dir: Option<PathBuf>,
    /// Prior wall-clock measurements driving the LPT job order.
    pub cost_table: CostTable,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new()
    }
}

impl ServiceConfig {
    pub fn new() -> ServiceConfig {
        ServiceConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            cache_dir: None,
            cost_table: CostTable::new(),
        }
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    pub fn with_cost_table(mut self, table: CostTable) -> Self {
        self.cost_table = table;
        self
    }
}

/// What [`Service::submit`] hands back: the request's id and initial
/// status, plus submission-time observability the CLI prints.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Submission {
    pub id: u64,
    pub status: SweepStatus,
    /// Lenient-mode axis warnings from validation, one line per scenario.
    pub warnings: Vec<String>,
    /// Total `(scenario, point, seed)` jobs (cache hits included).
    pub total_jobs: usize,
    /// Jobs served from the cache at submit, before the pool saw anything.
    pub cache_hits: usize,
    /// True when this submit matched an identical in-flight request and
    /// was coalesced onto its id instead of spawning duplicate work.
    pub deduped: bool,
}

/// Terminal (or not-yet-terminal) state of one request.
enum Terminal {
    Pending,
    Done {
        artifact: String,
        results: Vec<SweepResult>,
    },
    Failed {
        message: String,
    },
    Cancelled,
}

/// One submitted request: its planned sweep plus the window, progress and
/// lifecycle state the pool and the status plane need.
struct ActiveSweep {
    id: u64,
    sweep: Sweep,
    total_jobs: usize,
    cache_hits: usize,
    /// Cost-ordered jobs not yet handed to the injector (the part of the
    /// sweep beyond the in-flight window).
    pending: Mutex<VecDeque<Job>>,
    /// Pool jobs not yet completed or skipped. Hitting zero triggers
    /// finalization by whichever thread got there.
    remaining: AtomicUsize,
    /// Pool jobs that have begun executing (drives queued → running).
    started: AtomicUsize,
    cancelled: AtomicBool,
    state: Mutex<Terminal>,
    done_cond: Condvar,
    /// Canonical request text, for in-flight deduplication.
    dedup_key: String,
}

impl ActiveSweep {
    fn response(&self, include_artifact: bool) -> SweepResponse {
        let mut artifact = None;
        let status = match &*self.state.lock().unwrap() {
            Terminal::Done { artifact: text, .. } => {
                artifact = include_artifact.then(|| text.clone());
                SweepStatus::Done
            }
            Terminal::Failed { message } => SweepStatus::Failed {
                message: message.clone(),
            },
            Terminal::Cancelled => SweepStatus::Cancelled,
            Terminal::Pending if self.started.load(Ordering::Relaxed) == 0 => SweepStatus::Queued,
            Terminal::Pending => SweepStatus::Running {
                done: self.total_jobs - self.remaining.load(Ordering::Relaxed),
                total: self.total_jobs,
            },
        };
        SweepResponse {
            id: self.id,
            status,
            artifact,
        }
    }
}

/// One unit of pool work: which sweep, which job.
struct PoolJob {
    sweep: Arc<ActiveSweep>,
    job: Job,
}

struct Inner {
    registry: Registry,
    threads: usize,
    injector: Injector<PoolJob>,
    /// Worker parking. The mutex guards no data — it sequences the
    /// "check queue, then wait" window against "push, then notify".
    park: (Mutex<()>, Condvar),
    shutdown: AtomicBool,
    /// Every request ever submitted. Ids are monotonic, so iteration order
    /// is submission order.
    requests: Mutex<BTreeMap<u64, Arc<ActiveSweep>>>,
    next_id: AtomicU64,
    /// The shared cache and cost tables every request plans and runs on.
    engine: Engine,
    /// Canonical request text → in-flight request.
    dedup: Mutex<HashMap<String, Arc<ActiveSweep>>>,
}

impl Inner {
    /// Push one job and wake a worker. Locking the park mutex (empty as it
    /// is) before notifying closes the lost-wakeup window against a worker
    /// that just found the queue dry and is about to wait.
    fn inject(&self, pool_job: PoolJob) {
        self.injector.push(pool_job);
        let _guard = self.park.0.lock().unwrap();
        self.park.1.notify_one();
    }
}

/// The long-running sweep service. See the module docs for the design.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Provision the pool (threads spawn immediately and park) and open
    /// the cache, if configured.
    pub fn start(registry: Registry, config: ServiceConfig) -> Result<Service, Error> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(Mutex::new(ResultCache::open(dir)?)),
            None => None,
        };
        let threads = config.threads.max(1);
        let (injector, locals, stealers) = queues(threads);
        let inner = Arc::new(Inner {
            registry,
            threads,
            injector,
            park: (Mutex::new(()), Condvar::new()),
            shutdown: AtomicBool::new(false),
            requests: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            engine: Engine {
                cache,
                priors: config.cost_table,
                observed: Mutex::new(CostTable::new()),
            },
            dedup: Mutex::new(HashMap::new()),
        });

        let stealers: Arc<Vec<Stealer<PoolJob>>> = Arc::new(stealers);
        let workers = locals
            .into_iter()
            .map(|local| {
                let inner = Arc::clone(&inner);
                let stealers = Arc::clone(&stealers);
                std::thread::spawn(move || worker_loop(&inner, local, &stealers))
            })
            .collect();
        Ok(Service { inner, workers })
    }

    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    pub fn thread_count(&self) -> usize {
        self.inner.threads
    }

    /// Validate and enqueue one request; returns immediately with its id.
    /// Cache hits are resolved inline (an all-hit request comes back
    /// already `Done`); identical in-flight requests are coalesced.
    pub fn submit(&self, request: &SweepRequest) -> Result<Submission, Error> {
        let inner = &*self.inner;
        let validated = request.validate(&inner.registry)?;
        let dedup_key =
            serde_json::to_string(&request.to_value()).expect("value-tree rendering is infallible");

        // In-flight dedup: the map only ever holds non-terminal requests
        // (finalization removes the entry), so a match means live work we
        // can share rather than repeat. The lock is held from this lookup
        // to the insert below, or two identical submits racing would both
        // miss and both execute.
        let mut dedup = inner.dedup.lock().unwrap();
        if let Some(sweep) = dedup.get(&dedup_key) {
            return Ok(Submission {
                id: sweep.id,
                status: sweep.response(false).status,
                warnings: validated.warnings,
                total_jobs: sweep.total_jobs,
                cache_hits: sweep.cache_hits,
                deduped: true,
            });
        }

        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let tasks = validated.resolve(&inner.registry);
        let (sweep, mut jobs) = inner
            .engine
            .plan(&tasks, &validated.seeds, validated.order)?;
        let pool_jobs = jobs.len();
        // The request's window: the first `threads` jobs go into the shared
        // FIFO below; the rest follow one-per-completion.
        let window: Vec<Job> = jobs.drain(..inner.threads.min(pool_jobs)).collect();
        let sweep = Arc::new(ActiveSweep {
            id,
            sweep,
            total_jobs: validated.total_jobs,
            cache_hits: validated.total_jobs - pool_jobs,
            pending: Mutex::new(jobs.into()),
            remaining: AtomicUsize::new(pool_jobs),
            started: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            state: Mutex::new(Terminal::Pending),
            done_cond: Condvar::new(),
            dedup_key,
        });
        // Registered before the dedup entry is visible: a rider's first
        // `status` must find the id it was handed.
        inner
            .requests
            .lock()
            .unwrap()
            .insert(id, Arc::clone(&sweep));
        let status = if pool_jobs == 0 {
            // Every job was a cache hit: finalize inline, entirely on the
            // submit thread — the pool never hears about this request, and
            // it has no in-flight work to share (`finalize` takes the
            // dedup lock itself).
            drop(dedup);
            finalize(inner, &sweep);
            sweep.response(false).status
        } else {
            dedup.insert(sweep.dedup_key.clone(), Arc::clone(&sweep));
            drop(dedup);
            let status = sweep.response(false).status;
            for job in window {
                inner.inject(PoolJob {
                    sweep: Arc::clone(&sweep),
                    job,
                });
            }
            status
        };
        Ok(Submission {
            id,
            status,
            warnings: validated.warnings,
            total_jobs: sweep.total_jobs,
            cache_hits: sweep.cache_hits,
            deduped: false,
        })
    }

    fn get(&self, id: u64) -> Result<Arc<ActiveSweep>, Error> {
        self.inner
            .requests
            .lock()
            .unwrap()
            .get(&id)
            .cloned()
            .ok_or(Error::UnknownRequest { id })
    }

    /// Current lifecycle of one request (no artifact — use `wait`).
    pub fn status(&self, id: u64) -> Result<SweepResponse, Error> {
        Ok(self.get(id)?.response(false))
    }

    /// Every request this service has seen, in submission order.
    pub fn list(&self) -> Vec<SweepResponse> {
        let requests = self.inner.requests.lock().unwrap();
        requests.values().map(|s| s.response(false)).collect()
    }

    /// Block until the request reaches a terminal state; `Done` responses
    /// carry the artifact text.
    pub fn wait(&self, id: u64) -> Result<SweepResponse, Error> {
        let sweep = self.get(id)?;
        let mut state = sweep.state.lock().unwrap();
        while matches!(*state, Terminal::Pending) {
            state = sweep.done_cond.wait(state).unwrap();
        }
        drop(state);
        Ok(sweep.response(true))
    }

    /// Cancel a request: pending jobs are dropped immediately, in-flight
    /// jobs are skipped as workers reach them. Terminal requests are
    /// unaffected (the current status comes back).
    pub fn cancel(&self, id: u64) -> Result<SweepResponse, Error> {
        let sweep = self.get(id)?;
        sweep.cancelled.store(true, Ordering::Release);
        let drained = std::mem::take(&mut *sweep.pending.lock().unwrap()).len();
        if drained > 0 && sweep.remaining.fetch_sub(drained, Ordering::AcqRel) == drained {
            // The drain took the count to zero: no worker holds a job of
            // this sweep anymore, so finalization falls to us.
            finalize(&self.inner, &sweep);
        }
        Ok(sweep.response(false))
    }

    /// The aggregated per-scenario results of a `Done` request — what the
    /// CLI renders as summary tables. Errors on non-terminal, failed, or
    /// cancelled requests (their outcome is in `status`, not here).
    pub fn results(&self, id: u64) -> Result<Vec<SweepResult>, Error> {
        let sweep = self.get(id)?;
        let state = sweep.state.lock().unwrap();
        match &*state {
            Terminal::Done { results, .. } => Ok(results.clone()),
            Terminal::Cancelled => Err(Error::Cancelled { id }),
            Terminal::Failed { message } => Err(Error::RequestFailed {
                id,
                message: message.clone(),
            }),
            Terminal::Pending => Err(Error::RequestFailed {
                id,
                message: "request has no results yet (not terminal)".to_string(),
            }),
        }
    }

    /// Hit/miss/size counters of the shared cache, if one is attached.
    /// Counters accumulate across every request this service served.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.engine.cache_stats()
    }

    /// Wall-clocks measured by this service's own jobs — the `--costs-out`
    /// table, same keying as [`crate::runner::SweepRunner::observed_costs`].
    pub fn observed_costs(&self) -> CostTable {
        self.inner.engine.observed.lock().unwrap().clone()
    }

    /// Stop accepting work and join the pool — what dropping the service
    /// does, spelled out. In-flight and pending jobs are drained first
    /// (cancel requests beforehand for a fast exit).
    pub fn shutdown(self) {}
}

impl Drop for Service {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.inner.park.0.lock().unwrap();
            self.inner.park.1.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The persistent pool thread: the engine's find-task loop, parking on the
/// service condvar when everything is dry.
fn worker_loop(inner: &Inner, local: Worker<PoolJob>, stealers: &[Stealer<PoolJob>]) {
    loop {
        match find_task(&inner.injector, &local, stealers) {
            Some(PoolJob { sweep, job }) => run_job(inner, &sweep, job),
            None => {
                let guard = inner.park.0.lock().unwrap();
                // Re-check under the lock: a pusher notifies holding it,
                // so work pushed since find_task can't slip past us.
                if !inner.injector.is_empty() {
                    continue;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Park until a submit/refill wakes us.
                drop(inner.park.1.wait(guard).unwrap());
            }
        }
    }
}

/// Execute (or, when cancelled, skip) one job, refill the request's
/// window, and finalize if this was the sweep's last outstanding job.
fn run_job(inner: &Inner, sweep: &Arc<ActiveSweep>, job: Job) {
    if !sweep.cancelled.load(Ordering::Acquire) {
        sweep.started.fetch_add(1, Ordering::Relaxed);
        let scenario = inner
            .registry
            .get(sweep.sweep.names[job.task])
            .expect("validated scenario vanished from the registry");
        // SAFETY: the job came out of this sweep's plan through `pending`
        // and the deques, which hand it to exactly one worker, and the
        // AcqRel fetch_sub below releases its slot write to the finalizer.
        unsafe { inner.engine.execute(&sweep.sweep, scenario, job) };
    }

    // Refill the window: this request may put its next pending job at the
    // injector's tail — behind anything other requests queued meanwhile,
    // which is exactly the interleaving fairness we want.
    let next = sweep.pending.lock().unwrap().pop_front();
    if let Some(next_job) = next {
        inner.inject(PoolJob {
            sweep: Arc::clone(sweep),
            job: next_job,
        });
    }

    if sweep.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finalize(inner, sweep);
    }
}

/// Turn a fully-drained sweep into its terminal state: render the artifact
/// on success, report failures verbatim. Called exactly once per request —
/// by the last decrementer of `remaining` (a worker, the canceller, or the
/// submit thread for all-hit requests).
fn finalize(inner: &Inner, sweep: &ActiveSweep) {
    let terminal = if sweep.cancelled.load(Ordering::Acquire) {
        // The WAL segment is deliberately not committed: whatever misses
        // did complete stay on disk and are recovered at the next cache
        // open, same as a failed sweep's.
        Terminal::Cancelled
    } else {
        // SAFETY: remaining hit zero and we are its one observer — every
        // slot write (workers' via the AcqRel release sequence, submit-time
        // hits via the injector push/steal chain or, for all-hit sweeps,
        // program order) happens-before this call.
        match unsafe { inner.engine.finalize(&sweep.sweep) } {
            Ok(results) => {
                let suite = SweepSuite {
                    seeds: sweep.sweep.seeds.clone(),
                    results,
                };
                Terminal::Done {
                    artifact: suite.artifact_json(),
                    results: suite.results,
                }
            }
            Err(e) => Terminal::Failed {
                message: match e {
                    Error::Sweep(failures) => failures.to_string(),
                    // A cache that can't commit is a real failure (a warm
                    // CI run silently degrading to 0% hits must not pass),
                    // but it must fail the request, not the pool thread.
                    e => format!("sweep cache commit failed: {e}"),
                },
            },
        }
    };

    // Leave the dedup map before publishing: a waiter that sees the terminal
    // state and re-submits the same text must get fresh work, not this id.
    inner.dedup.lock().unwrap().remove(&sweep.dedup_key);
    *sweep.state.lock().unwrap() = terminal;
    sweep.done_cond.notify_all();
}
