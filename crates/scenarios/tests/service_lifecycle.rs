//! In-process contract of the what-if sweep service: artifacts bit-identical
//! to the direct runner path, warm re-submits served entirely from the
//! cache without touching the pool, identical in-flight requests coalesced
//! onto one id, cancellation dropping pending work promptly, and — the
//! head-of-line guarantee — a short request completing while a long one is
//! still running on a saturated pool. Also: a panicking request leaves its
//! neighbours and successors untouched, a cancelled request gives its cache
//! segment's descriptor back, and one worker starts a sweep's jobs in
//! exactly the planned order.

use scenarios::service::{Service, ServiceConfig};
use scenarios::{
    JobOrder, Metrics, ParamValue, Params, Registry, Scenario, SweepRequest, SweepRunner,
    SweepStatus, SweepSuite,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Fresh per-test cache directory under cargo's integration-test tmpdir.
fn cache_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "service-cache-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A scenario that burns a configurable wall-clock per job — the knob the
/// interleaving and cancellation tests turn.
struct Sleepy {
    name: &'static str,
    millis: u64,
}

impl Scenario for Sleepy {
    fn name(&self) -> &'static str {
        self.name
    }
    fn title(&self) -> &'static str {
        "sleeps then reports"
    }
    fn default_params(&self) -> Params {
        Params::new().with("k", 1u64)
    }
    fn run(&self, sim: &mut des::Simulation, params: &Params) -> Metrics {
        std::thread::sleep(Duration::from_millis(self.millis));
        let mut m = Metrics::new();
        m.push("k", params.u64("k", 1) as f64);
        m.push("draw", sim.stream("draw").f64());
        m
    }
}

fn sleepy_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(Box::new(Sleepy {
        name: "slow",
        millis: 25,
    }));
    registry.register(Box::new(Sleepy {
        name: "fast",
        millis: 1,
    }));
    registry
}

#[test]
fn service_artifact_is_bit_identical_to_runner() {
    let request = SweepRequest::new()
        .scenario("tab03_idle_node")
        .scenario("fig07_latency")
        .axis(
            "reps",
            vec![ParamValue::parse("40"), ParamValue::parse("80")],
        )
        .lenient()
        .with_seeds(2);

    // Direct runner path, exactly as the CLI ran before the service.
    let registry = Registry::standard();
    let validated = request.validate(&registry).expect("valid request");
    let runner = SweepRunner::new(2, validated.seeds.clone());
    let results = runner
        .try_run_suite(&validated.resolve(&registry))
        .expect("runner sweep succeeds");
    let direct = SweepSuite {
        seeds: validated.seeds.clone(),
        results,
    }
    .artifact_json();

    // Service path: submit, wait, take the server-rendered artifact.
    let service = Service::start(Registry::standard(), ServiceConfig::new().with_threads(3))
        .expect("service starts");
    let submission = service.submit(&request).expect("submit succeeds");
    let response = service.wait(submission.id).expect("wait succeeds");
    assert!(matches!(response.status, SweepStatus::Done));
    let served = response.artifact.expect("done response carries artifact");

    assert_eq!(
        served, direct,
        "service artifact bytes diverged from the direct runner path"
    );
}

#[test]
fn warm_resubmit_is_all_hits_and_finalizes_inline() {
    let dir = cache_dir("warm");
    let request = SweepRequest::new().scenario("fast").with_seeds(2);

    let cold_artifact = {
        let service = Service::start(
            sleepy_registry(),
            ServiceConfig::new().with_threads(2).with_cache_dir(&dir),
        )
        .expect("cold service starts");
        let submission = service.submit(&request).expect("cold submit");
        assert_eq!(submission.cache_hits, 0, "cold submit must miss");
        let response = service.wait(submission.id).expect("cold wait");
        assert!(matches!(response.status, SweepStatus::Done));
        response.artifact.expect("artifact")
    };

    // A fresh service over the same cache dir: the re-submit must be
    // answered entirely from the cache — Done before wait is ever called,
    // zero pool jobs, identical bytes.
    let service = Service::start(
        sleepy_registry(),
        ServiceConfig::new().with_threads(2).with_cache_dir(&dir),
    )
    .expect("warm service starts");
    let submission = service.submit(&request).expect("warm submit");
    assert_eq!(
        submission.cache_hits, submission.total_jobs,
        "warm submit must be 100% cache-served"
    );
    assert!(
        matches!(submission.status, SweepStatus::Done),
        "all-hit request must come back already terminal, got {}",
        submission.status
    );
    let stats = service.cache_stats().expect("cache attached");
    assert_eq!(stats.misses, 0, "warm service saw a miss");
    let response = service.wait(submission.id).expect("warm wait");
    assert_eq!(
        response.artifact.expect("artifact"),
        cold_artifact,
        "cache-served artifact bytes diverged from the live run"
    );
}

/// Both entry points plan against the same store with the same keys, so
/// what one computes the other never recomputes — in either direction.
#[test]
fn runner_and_service_serve_each_others_cache_entries() {
    let request = SweepRequest::new()
        .scenario("tab03_idle_node")
        .scenario("fig07_latency")
        .axis(
            "reps",
            vec![ParamValue::parse("40"), ParamValue::parse("80")],
        )
        .lenient()
        .with_seeds(2);
    let registry = Registry::standard();
    let validated = request.validate(&registry).expect("valid request");
    let tasks = validated.resolve(&registry);
    let runner_on = |dir: &PathBuf| {
        SweepRunner::new(2, validated.seeds.clone())
            .with_cache(scenarios::ResultCache::open(dir).expect("open cache"))
    };
    let artifact_of = |results| {
        let seeds = validated.seeds.clone();
        SweepSuite { seeds, results }.artifact_json()
    };
    let service_on = |dir: &PathBuf| {
        Service::start(
            Registry::standard(),
            ServiceConfig::new().with_threads(2).with_cache_dir(dir),
        )
        .expect("service starts")
    };

    // Cold runner, then a service on the same directory.
    let dir = cache_dir("runner-then-service");
    let cold = runner_on(&dir);
    let runner_results = cold.run_suite(&tasks);
    let stats = cold.cache_stats().expect("cache attached");
    assert_eq!((stats.hits, stats.misses), (0, 6), "cold runner simulates");
    let service = service_on(&dir);
    let submission = service.submit(&request).expect("warm submit");
    assert_eq!(submission.total_jobs, 6);
    assert_eq!(
        submission.cache_hits, submission.total_jobs,
        "the service must be served entirely by the runner's entries"
    );
    assert!(
        matches!(submission.status, SweepStatus::Done),
        "an all-hit request finalizes at submit, got {}",
        submission.status
    );
    let served = service.wait(submission.id).expect("warm wait").artifact;
    assert_eq!(
        served.expect("done carries the artifact"),
        artifact_of(runner_results),
        "cache-served artifact diverged from the runner's"
    );

    // Cold service, then a runner on the same directory.
    let dir = cache_dir("service-then-runner");
    let service = service_on(&dir);
    let submission = service.submit(&request).expect("cold submit");
    assert_eq!(submission.cache_hits, 0, "cold service simulates");
    let response = service.wait(submission.id).expect("cold wait");
    assert!(matches!(response.status, SweepStatus::Done));
    let served = response.artifact.expect("done carries the artifact");
    drop(service);
    let warm = runner_on(&dir);
    let runner_results = warm.run_suite(&tasks);
    let stats = warm.cache_stats().expect("cache attached");
    assert_eq!(
        (stats.hits, stats.misses),
        (6, 0),
        "the runner must be served entirely by the service's entries"
    );
    assert_eq!(
        artifact_of(runner_results),
        served,
        "cache-served artifact diverged from the service's"
    );
}

#[test]
fn identical_inflight_requests_coalesce_onto_one_id() {
    let service = Service::start(sleepy_registry(), ServiceConfig::new().with_threads(1))
        .expect("service starts");
    let request = SweepRequest::new()
        .scenario("slow")
        .axis(
            "k",
            vec![
                ParamValue::parse("1"),
                ParamValue::parse("2"),
                ParamValue::parse("3"),
            ],
        )
        .with_seeds(2);

    let first = service.submit(&request).expect("first submit");
    assert!(!first.deduped);
    let second = service.submit(&request).expect("second submit");
    assert!(second.deduped, "identical in-flight request must coalesce");
    assert_eq!(second.id, first.id);

    // A *different* request must not coalesce.
    let other = service
        .submit(&SweepRequest::new().scenario("fast"))
        .expect("different submit");
    assert_ne!(other.id, first.id);

    let done = service.wait(first.id).expect("wait");
    assert!(matches!(done.status, SweepStatus::Done));

    // Once terminal, the same request text is live again: a re-submit
    // gets a fresh id (and, with no cache attached, fresh work).
    let third = service.submit(&request).expect("post-terminal submit");
    assert!(!third.deduped, "terminal requests must not dedup");
    assert_ne!(third.id, first.id);
    service.wait(third.id).expect("wait third");
}

#[test]
fn cancel_drops_pending_work_promptly() {
    let service = Service::start(sleepy_registry(), ServiceConfig::new().with_threads(1))
        .expect("service starts");
    // 8 points × 2 seeds × 25ms on one thread ≈ 400ms if run to the end.
    let request = SweepRequest::new()
        .scenario("slow")
        .axis(
            "k",
            (1..=8).map(ParamValue::U64).collect::<Vec<ParamValue>>(),
        )
        .with_seeds(2);

    let submission = service.submit(&request).expect("submit");
    let cancelled = service.cancel(submission.id).expect("cancel");
    assert!(
        matches!(
            cancelled.status,
            SweepStatus::Cancelled | SweepStatus::Queued | SweepStatus::Running { .. }
        ),
        "unexpected post-cancel status {}",
        cancelled.status
    );
    let response = service.wait(submission.id).expect("wait");
    assert!(
        matches!(response.status, SweepStatus::Cancelled),
        "cancelled request must terminate as cancelled, got {}",
        response.status
    );
    assert!(
        response.artifact.is_none(),
        "cancelled sweep has no artifact"
    );
    assert!(
        service
            .list()
            .iter()
            .any(|r| r.id == submission.id && matches!(r.status, SweepStatus::Cancelled)),
        "list must show the cancelled request"
    );
}

/// The interleaving guarantee from the issue: with every worker busy on a
/// long sweep, a short request submitted behind it still completes while
/// the long one is running — the per-request window keeps the long sweep
/// from owning the queue.
#[test]
fn short_request_completes_while_long_request_still_runs() {
    let service = Service::start(sleepy_registry(), ServiceConfig::new().with_threads(2))
        .expect("service starts");

    // 20 points × 2 seeds × 25ms / 2 threads ≈ 500ms of long work.
    let long = service
        .submit(
            &SweepRequest::new()
                .scenario("slow")
                .axis(
                    "k",
                    (1..=20).map(ParamValue::U64).collect::<Vec<ParamValue>>(),
                )
                .with_seeds(2),
        )
        .expect("long submit");
    // Let the pool actually occupy both workers with long jobs.
    std::thread::sleep(Duration::from_millis(10));

    let short = service
        .submit(&SweepRequest::new().scenario("fast").with_seeds(2))
        .expect("short submit");
    let response = service.wait(short.id).expect("short wait");
    assert!(
        matches!(response.status, SweepStatus::Done),
        "short request failed: {}",
        response.status
    );

    let long_status = service.status(long.id).expect("long status");
    assert!(
        !long_status.status.is_terminal(),
        "long request already {} — the interleaving claim is untestable; \
         speed up the short request or lengthen the long one",
        long_status.status
    );
    service.cancel(long.id).expect("cancel long");
    service.wait(long.id).expect("drain long");
}

#[test]
fn unknown_request_id_is_a_structured_error() {
    let service = Service::start(sleepy_registry(), ServiceConfig::new().with_threads(1))
        .expect("service starts");
    let err = service.status(999).expect_err("unknown id must error");
    assert!(
        err.to_string().contains("999"),
        "error must name the offending id: {err}"
    );
    assert!(service.cancel(999).is_err());
    assert!(service.wait(999).is_err());
}

/// A panicking job fails its own request and nothing else: no lock is held
/// while a scenario runs, so there is nothing for the panic to poison.
#[test]
fn failed_jobs_surface_in_the_terminal_status() {
    struct Panics;
    impl Scenario for Panics {
        fn name(&self) -> &'static str {
            "panics"
        }
        fn title(&self) -> &'static str {
            "always panics"
        }
        fn run(&self, _sim: &mut des::Simulation, _params: &Params) -> Metrics {
            panic!("scripted failure");
        }
    }
    let mut registry = sleepy_registry();
    registry.register(Box::new(Panics));
    let service =
        Service::start(registry, ServiceConfig::new().with_threads(2)).expect("service starts");

    // 3 seeds × 25ms: still running on the shared workers when the panics hit.
    let concurrent = service
        .submit(&SweepRequest::new().scenario("slow").with_seeds(3))
        .expect("concurrent submit");
    let submission = service
        .submit(&SweepRequest::new().scenario("panics").with_seeds(2))
        .expect("submit");
    let response = service.wait(submission.id).expect("wait");
    match response.status {
        SweepStatus::Failed { message } => {
            assert!(
                message.contains("scripted failure"),
                "failure message must carry the panic payload: {message}"
            );
        }
        other => panic!("expected failed status, got {other}"),
    }
    let response = service.wait(concurrent.id).expect("concurrent wait");
    assert!(
        matches!(response.status, SweepStatus::Done),
        "a request sharing the pool with the panic ended {}",
        response.status
    );

    let follow_up = service
        .submit(&SweepRequest::new().scenario("fast").with_seeds(2))
        .expect("submit after the failure");
    let response = service.wait(follow_up.id).expect("follow-up wait");
    assert!(
        matches!(response.status, SweepStatus::Done),
        "a request after the panic ended {}",
        response.status
    );

    let listed: Vec<(u64, String)> = service
        .list()
        .into_iter()
        .map(|r| (r.id, r.status.to_string()))
        .collect();
    let failed = service.status(submission.id).expect("status").status;
    assert_eq!(
        listed,
        [
            (concurrent.id, "done".to_string()),
            (submission.id, failed.to_string()),
            (follow_up.id, "done".to_string()),
        ]
    );
}

/// With one worker and one sweep the queue is the plan: jobs start in the
/// order `plan` put them in, whichever order that is.
#[test]
fn one_worker_starts_a_sweeps_jobs_in_plan_order() {
    static STARTS: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    struct StartLog;
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
        fn run(&self, sim: &mut des::Simulation, params: &Params) -> Metrics {
            STARTS
                .lock()
                .unwrap()
                .push((params.u64("k", 0), sim.seed()));
            Metrics::new()
        }
    }
    let mut registry = Registry::new();
    registry.register(Box::new(StartLog));
    let service =
        Service::start(registry, ServiceConfig::new().with_threads(1)).expect("service starts");
    let starts = |order: JobOrder| {
        let request = SweepRequest::new()
            .scenario("start_log")
            .axis("k", [3, 100, 20].map(ParamValue::U64).to_vec())
            .with_seeds(2)
            .with_order(order);
        let submission = service.submit(&request).expect("submit");
        let response = service.wait(submission.id).expect("wait");
        assert!(matches!(response.status, SweepStatus::Done));
        std::mem::take(&mut *STARTS.lock().unwrap())
    };
    // Cost order is the size heuristic: descending k, a point's
    // equal-size seeds staying in slot order.
    let first = starts(JobOrder::Cost);
    assert_eq!(first, [100, 20, 3].map(|k| [(k, 42), (k, 43)]).concat());
    // The service keeps nothing of a sweep but its outcome, so the same
    // request again (no cache: every job reruns) starts in the same order.
    assert_eq!(starts(JobOrder::Cost), first);
    // Input order is slot order: point-major, seed-minor.
    assert_eq!(
        starts(JobOrder::Input),
        [3, 100, 20].map(|k| [(k, 42), (k, 43)]).concat()
    );
}

/// A server that runs for weeks must not remember every request it ever
/// finished: beyond the cap the longest-finished go, ids and artifacts
/// both, while anything still in flight stays however old it is.
#[test]
fn finished_requests_are_retained_up_to_the_cap() {
    use scenarios::service::RETAINED_REQUESTS;

    let dir = cache_dir("retention");
    let service = Service::start(
        sleepy_registry(),
        ServiceConfig::new().with_threads(1).with_cache_dir(&dir),
    )
    .expect("service starts");
    let hit = SweepRequest::new().scenario("fast").with_seeds(1);
    let oldest = service.submit(&hit).expect("cold submit");
    let artifact = service.wait(oldest.id).expect("cold wait").artifact;

    // 12 points × 2 seeds × 25 ms on the one worker: in flight throughout.
    let points = (1..=12).map(ParamValue::U64).collect::<Vec<ParamValue>>();
    let running = service
        .submit(&SweepRequest::new().scenario("slow").axis("k", points))
        .expect("long submit");

    let mut newest = oldest.id;
    for _ in 0..RETAINED_REQUESTS + 100 {
        let submission = service.submit(&hit).expect("warm submit");
        assert!(matches!(submission.status, SweepStatus::Done), "all hits");
        newest = submission.id;
    }
    assert!(
        service.list().len() <= RETAINED_REQUESTS + 1,
        "{} requests listed: the cap plus the one in flight is the most",
        service.list().len()
    );
    let err = service.status(oldest.id).expect_err("forgotten");
    assert!(matches!(err, scenarios::Error::UnknownRequest { id } if id == oldest.id));
    assert_eq!(
        service.wait(newest).expect("newest wait").artifact,
        artifact
    );
    let status = service.status(running.id).expect("in flight, so known");
    assert!(
        !status.status.is_terminal(),
        "the flood outlasted the sweep"
    );
    service.cancel(running.id).expect("cancel");
}

/// Cancelled (and failed) requests give back what they held at the terminal
/// transition — above all the write-ahead segment's descriptor, which a
/// long-running server would otherwise leak once per such request.
#[cfg(target_os = "linux")]
#[test]
fn cancelled_requests_release_their_cache_segments() {
    static EXECUTED: AtomicU64 = AtomicU64::new(0);
    struct Counted;
    impl Scenario for Counted {
        fn name(&self) -> &'static str {
            "counted"
        }
        fn title(&self) -> &'static str {
            "counts its executions"
        }
        fn default_params(&self) -> Params {
            Params::new().with("k", 1u64)
        }
        fn run(&self, _sim: &mut des::Simulation, params: &Params) -> Metrics {
            std::thread::sleep(Duration::from_millis(1));
            EXECUTED.fetch_add(1, Ordering::Relaxed);
            let mut m = Metrics::new();
            m.push("k", params.u64("k", 1) as f64);
            m
        }
    }
    // Descriptors open on files under `dir` — other tests in this binary
    // open and close their own concurrently, so the bare count would race.
    let open_under = |dir: &PathBuf| {
        std::fs::read_dir("/proc/self/fd")
            .expect("procfs")
            .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
            .filter(|target| target.starts_with(dir))
            .count()
    };

    let dir = cache_dir("fd-leak");
    let mut registry = Registry::new();
    registry.register(Box::new(Counted));
    let service = Service::start(
        registry,
        ServiceConfig::new().with_threads(1).with_cache_dir(&dir),
    )
    .expect("service starts");
    let before = open_under(&dir);

    for request in 0..40u64 {
        // Novel every time: six points no earlier request asked for.
        let points = (0..6).map(|p| ParamValue::U64(10 * request + p)).collect();
        let submission = service
            .submit(&SweepRequest::new().scenario("counted").axis("k", points))
            .expect("submit");
        assert_eq!(submission.cache_hits, 0, "request {request} is novel");
        // Let at least one job through, so there is something to recover.
        while matches!(
            service.status(submission.id).expect("status").status,
            SweepStatus::Queued
        ) {
            std::thread::yield_now();
        }
        service.cancel(submission.id).expect("cancel");
        let response = service.wait(submission.id).expect("wait");
        assert!(matches!(response.status, SweepStatus::Cancelled));
    }
    assert_eq!(
        open_under(&dir),
        before,
        "cancelled requests kept their cache segments open"
    );

    // Closed, never committed — and still recovered by the next open.
    drop(service);
    let executed = EXECUTED.load(Ordering::Relaxed);
    assert!((40..240).contains(&executed), "{executed} jobs ran");
    let recovered = scenarios::ResultCache::open(&dir).expect("reopen");
    assert_eq!(recovered.len() as u64, executed);
}
