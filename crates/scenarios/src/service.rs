//! The long-running "what-if" sweep service: the sweep engine of
//! [`crate::runner`] behind a persistent worker pool and an in-process
//! request registry, serving concurrent [`SweepRequest`]s.
//!
//! Planning, job execution and finalization are the engine's — the same
//! functions [`crate::runner::SweepRunner`] calls, so the CLI, the TCP
//! server and the library entry point cannot drift apart. What this module
//! adds is everything that outlives one sweep:
//!
//! * **A persistent pool** — workers that outlive any one request, parked
//!   on a condvar while the queue is empty. Jobs from every live request
//!   flow through the one FIFO queue, a `VecDeque` under a mutex that also
//!   guards the shutdown flag.
//! * **Fair interleaving** — each request keeps at most `threads` jobs in
//!   the pool at once (its *window*); completing a job puts the request's
//!   next pending one at the queue's tail. A long request therefore owns at
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
//!   returns the first's id instead of doubling the work. Requests in
//!   flight are always known; of the finished ones the service remembers
//!   the last [`RETAINED_REQUESTS`], so its memory is bounded however long
//!   it runs.
//!
//! The artifact is rendered once, server-side, with
//! [`SweepSuite::artifact_json`] and shipped as text verbatim; the rendered
//! text is all a finished request keeps of its outcome.
//!
//! Locking invariant, which the failure tests rest on: no lock in this
//! file or in `runner.rs` is held while [`crate::Scenario::run`] executes.
//! A worker pops its job and releases the queue, runs the scenario under
//! `catch_unwind`, and only then takes the sweep's lock to record the
//! outcome. A panicking scenario therefore fails its own request and can
//! poison nothing: concurrent and later requests on the same service are
//! unaffected. Each request is finalized by whoever the sweep's lock hands
//! its `Progress` to — the worker that completed the last job, the
//! cancel that dropped the last pending one, or the submit that found
//! every job in the cache — so exactly once, and a failed or cancelled
//! request drops its write-ahead segment, slots and pending jobs right
//! there.

use crate::cache::{CacheStats, ResultCache};
use crate::error::Error;
use crate::registry::Registry;
use crate::request::{SweepRequest, SweepResponse, SweepStatus};
use crate::runner::{Engine, Job, Progress, Step, Sweep, SweepSuite};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How many finished (done, failed or cancelled) requests a service keeps
/// answering for. Beyond it the one that finished longest ago is forgotten
/// — artifact and all — and its id becomes [`Error::UnknownRequest`].
pub const RETAINED_REQUESTS: usize = 256;

/// How a [`Service`] is provisioned.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Pool worker threads (also each request's in-flight window).
    pub threads: usize,
    /// Attach the persistent result cache at this directory.
    pub cache_dir: Option<PathBuf>,
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
    Done { artifact: String },
    Failed { message: String },
    Cancelled,
}

/// One submitted request: its planned sweep plus the lifecycle state the
/// status plane needs.
struct ActiveSweep {
    id: u64,
    sweep: Sweep,
    total_jobs: usize,
    cache_hits: usize,
    state: Mutex<Terminal>,
    done_cond: Condvar,
    /// Canonical request text, for in-flight deduplication.
    dedup_key: String,
}

impl ActiveSweep {
    fn response(&self, include_artifact: bool) -> SweepResponse {
        let mut artifact = None;
        let status = match &*self.state.lock().unwrap() {
            Terminal::Done { artifact: text } => {
                artifact = include_artifact.then(|| text.clone());
                SweepStatus::Done
            }
            Terminal::Failed { message } => SweepStatus::Failed {
                message: message.clone(),
            },
            Terminal::Cancelled => SweepStatus::Cancelled,
            Terminal::Pending => match self.sweep.counts() {
                Some((0, _)) => SweepStatus::Queued,
                // `None`: every job is in and the sweep is being finalized.
                counts => SweepStatus::Running {
                    done: self.total_jobs - counts.map_or(0, |(_, outstanding)| outstanding),
                    total: self.total_jobs,
                },
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

/// The pool's one queue and, under the same lock, the flag that tells
/// parked workers to leave once it is empty.
#[derive(Default)]
struct PoolQueue {
    jobs: VecDeque<PoolJob>,
    shutdown: bool,
}

/// The request registry.
#[derive(Default)]
struct Requests {
    /// Every request in flight and the finished ones still retained. Ids
    /// are monotonic, so iteration order is submission order.
    by_id: BTreeMap<u64, Arc<ActiveSweep>>,
    /// The retained finished requests, longest-finished first.
    finished: VecDeque<u64>,
}

struct Inner {
    registry: Registry,
    threads: usize,
    queue: Mutex<PoolQueue>,
    /// Signalled per pushed job, and to all at shutdown.
    ready: Condvar,
    requests: Mutex<Requests>,
    next_id: AtomicU64,
    /// The shared cache every request plans and runs on.
    engine: Engine,
    /// Canonical request text → in-flight request.
    dedup: Mutex<HashMap<String, Arc<ActiveSweep>>>,
}

impl Inner {
    /// Push one job at the queue's tail and wake a worker.
    fn inject(&self, sweep: &Arc<ActiveSweep>, job: Job) {
        let sweep = Arc::clone(sweep);
        let mut queue = self.queue.lock().unwrap();
        queue.jobs.push_back(PoolJob { sweep, job });
        self.ready.notify_one();
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
            Some(dir) => Some(ResultCache::open(dir)?),
            None => None,
        };
        let threads = config.threads.max(1);
        let inner = Arc::new(Inner {
            registry,
            threads,
            queue: Mutex::new(PoolQueue::default()),
            ready: Condvar::new(),
            requests: Mutex::new(Requests::default()),
            next_id: AtomicU64::new(1),
            engine: Engine::new(cache),
            dedup: Mutex::new(HashMap::new()),
        });
        let workers = (0..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
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
        let (sweep, progress) = inner
            .engine
            .plan(&tasks, &validated.seeds, validated.order)?;
        let pool_jobs = progress.outstanding();
        let sweep = Arc::new(ActiveSweep {
            id,
            sweep,
            total_jobs: validated.total_jobs,
            cache_hits: validated.total_jobs - pool_jobs,
            state: Mutex::new(Terminal::Pending),
            done_cond: Condvar::new(),
            dedup_key,
        });
        // The request's window: the first `threads` jobs go into the shared
        // FIFO below; the rest follow one-per-completion. Started before
        // the request is visible, so a `cancel` can never find it unstarted.
        let window = match pool_jobs {
            0 => Err(progress),
            _ => Ok(sweep.sweep.start(progress, inner.threads)),
        };
        // Registered before the dedup entry is visible: a rider's first
        // `status` must find the id it was handed.
        inner
            .requests
            .lock()
            .unwrap()
            .by_id
            .insert(id, Arc::clone(&sweep));
        let status = match window {
            Err(progress) => {
                // Every job was a cache hit: finalize inline, entirely on
                // the submit thread — the pool never hears about this
                // request, and it has no in-flight work to share
                // (`finalize` takes the dedup lock itself).
                drop(dedup);
                finalize(inner, &sweep, progress);
                sweep.response(false).status
            }
            Ok(window) => {
                dedup.insert(sweep.dedup_key.clone(), Arc::clone(&sweep));
                drop(dedup);
                let status = sweep.response(false).status;
                for job in window {
                    inner.inject(&sweep, job);
                }
                status
            }
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
            .by_id
            .get(&id)
            .cloned()
            .ok_or(Error::UnknownRequest { id })
    }

    /// Current lifecycle of one request (no artifact — use `wait`).
    pub fn status(&self, id: u64) -> Result<SweepResponse, Error> {
        Ok(self.get(id)?.response(false))
    }

    /// Every request this service still knows, in submission order.
    pub fn list(&self) -> Vec<SweepResponse> {
        let requests = self.inner.requests.lock().unwrap();
        requests.by_id.values().map(|s| s.response(false)).collect()
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
        if let Some(progress) = sweep.sweep.cancel() {
            // Dropping the pending jobs took the count to zero: no worker
            // holds a job of this sweep anymore, so finalization falls to us.
            finalize(&self.inner, &sweep, progress);
        }
        Ok(sweep.response(false))
    }

    /// Hit/miss/size counters of the shared cache, if one is attached.
    /// Counters accumulate across every request this service served.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.engine.cache_stats()
    }

    /// Stop accepting work and join the pool — what dropping the service
    /// does, spelled out. In-flight and pending jobs are drained first
    /// (cancel requests beforehand for a fast exit).
    pub fn shutdown(self) {}
}

impl Drop for Service {
    fn drop(&mut self) {
        self.inner.queue.lock().unwrap().shutdown = true;
        self.inner.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The persistent pool thread: take the queue's head, run it with the
/// queue released, repeat; park while the queue is empty, leave once it is
/// empty and shut down.
fn worker_loop(inner: &Inner) {
    loop {
        let idle = |queue: &mut PoolQueue| queue.jobs.is_empty() && !queue.shutdown;
        let queue = inner.queue.lock().unwrap();
        let mut queue = inner.ready.wait_while(queue, idle).unwrap();
        let Some(PoolJob { sweep, job }) = queue.jobs.pop_front() else {
            return;
        };
        drop(queue);
        let scenario = inner
            .registry
            .get(sweep.sweep.names[job.task])
            .expect("validated scenario vanished from the registry");
        match inner.engine.run_job(&sweep.sweep, scenario, job) {
            // Refill the window at the queue's tail — behind anything
            // other requests queued meanwhile, which is exactly the
            // interleaving fairness we want.
            Step::Continue(Some(next)) => inner.inject(&sweep, next),
            Step::Continue(None) => {}
            Step::Last(progress) => finalize(inner, &sweep, progress),
        }
    }
}

/// Turn a fully-drained sweep into its terminal state: render the artifact
/// on success, report failures verbatim. Called by whoever the sweep's lock
/// handed the progress to, so exactly once per request.
fn finalize(inner: &Inner, sweep: &ActiveSweep, progress: Progress) {
    let terminal = if progress.cancelled() {
        // The WAL segment is closed here but deliberately not committed:
        // whatever misses did complete stay on disk and are recovered at
        // the next cache open, same as a failed sweep's.
        drop(progress);
        Terminal::Cancelled
    } else {
        match inner.engine.finalize(&sweep.sweep, progress) {
            Ok(results) => {
                let seeds = sweep.sweep.seeds.clone();
                let artifact = SweepSuite { seeds, results }.artifact_json();
                Terminal::Done { artifact }
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

    // Finished requests are retained newest-first up to the cap; a waiter
    // that already holds the one forgotten here still gets its answer.
    let mut requests = inner.requests.lock().unwrap();
    requests.finished.push_back(sweep.id);
    if requests.finished.len() > RETAINED_REQUESTS {
        let oldest = requests.finished.pop_front().expect("just pushed");
        requests.by_id.remove(&oldest);
    }
}
