//! The four workloads: what runs, how it is timed from outside, and how
//! its outputs are checked while it runs.
//!
//! Sweep workloads drive `scenarios run` children; serve workloads drive a
//! `scenarios serve` child with closed-loop [`scenarios::Client`]
//! connections, one thread each. Closed loop because every caller of the
//! service (`submit --wait`, scripts) blocks on its reply.

use crate::gen::{cli_args, request_of, Class, Inputs, Item, Workload, BG_JOBS};
use crate::harness::{check_interrupt, interrupted, run_cli, Res, Scratch, ServerProc};
use crate::metrics::{lookup, Reading, RunResult};
use crate::stats::{median, tail_percentile};
use crate::trace::{self, Span, SpanId, Tracer};
use scenarios::wire::{ok_reply, read_frame, submission_to_value, write_frame, Verb};
use scenarios::{
    Client, JobOrder, Registry, Service, ServiceConfig, SweepRequest, SweepResponse, SweepRunner,
    SweepStatus, SweepSuite,
};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one invocation needs to know.
pub struct Ctx {
    pub bin: PathBuf,
    pub out_dir: PathBuf,
    /// Client connections, server worker threads, and sweep `--threads`.
    pub clients: usize,
    pub seed: u64,
    /// Length of the measured part.
    pub seconds: f64,
    /// Traced pass: half the window untraced, half with spans on, then the
    /// in-process replay of the server's request path.
    pub traced: bool,
}

/// One finished run: the record, the spans (empty when untraced), and
/// per-class detail lines for the human report.
pub struct Outcome {
    pub result: RunResult,
    pub spans: Vec<Span>,
    pub notes: Vec<String>,
}

/// Serve set-up is seconds of pre-fill, so it is done twice and the
/// faster one reported.
const SETUP_REPS_SERVE: usize = 2;

/// Requests of connection 0 replayed through the in-process server path.
const REPLAY_REQUESTS: usize = 120;

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(8);
    }
}

pub fn run(ctx: &Ctx, workload: Workload) -> Res<Outcome> {
    if workload.is_sweep() {
        run_sweep(ctx, workload)
    } else {
        run_serve(ctx, workload)
    }
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn med(values: &[f64]) -> Res<f64> {
    median(values).ok_or_else(|| "no samples in the measured window".to_string())
}

/// The fastest sample.
fn best(values: &[f64]) -> Res<f64> {
    values
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .ok_or_else(|| "no samples in the measured window".to_string())
}

/// The artifact the serial path produces for `request`: one thread, input
/// order, no cache. Every faster path must reproduce these bytes.
pub fn serial_reference(registry: &Registry, request: &SweepRequest) -> Res<String> {
    let validated = request.validate(registry).map_err(|e| e.to_string())?;
    let runner = SweepRunner::new(1, validated.seeds.clone()).with_order(JobOrder::Input);
    let results = runner
        .try_run_suite(&validated.resolve(registry))
        .map_err(|e| e.to_string())?;
    Ok(SweepSuite {
        seeds: validated.seeds,
        results,
    }
    .artifact_json())
}

fn read(path: &Path) -> Res<String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// `scenarios run <request> --threads C --cache-dir D --json A`.
fn sweep_command(req: &SweepRequest, threads: usize, cache: &Path, artifact: &Path) -> Vec<String> {
    let mut args = vec!["run".to_string()];
    args.extend(cli_args(req));
    args.extend([
        "--threads".into(),
        threads.to_string(),
        "--cache-dir".into(),
        path_arg(cache),
        "--json".into(),
        path_arg(artifact),
    ]);
    args
}

/// `hits` and `misses` from a `<artifact>.cache.json` sidecar.
fn sidecar_counts(artifact: &Path) -> Res<(u64, u64)> {
    let doc = serde_json::from_str(&read(&artifact.with_extension("cache.json"))?)
        .map_err(|e| e.to_string())?;
    Ok((lookup_u64(&doc, "hits")?, lookup_u64(&doc, "misses")?))
}

/// Set-up sweeps and warm re-sweeps per unit. They are spread over the
/// units, not bunched before the window, so that every metric samples the
/// whole window and one noisy second cannot own a metric.
const NULLS_PER_UNIT: usize = 3;
const RESWEEPS_PER_UNIT: usize = 5;

struct UnitSample {
    setup_s: Vec<f64>,
    ack_s: f64,
    cold_s: f64,
    warm_s: Vec<f64>,
    rss_kb: u64,
}

/// One unit: set-up sweeps (one trivial job on a fresh cache dir: what the
/// program costs before its first job can start and after its last one
/// ended), then a cold sweep into a fresh cache dir, checked against the
/// serial reference, then the identical command again — the warm re-sweep,
/// which must be all hits and byte-equal to its cold artifact.
#[allow(clippy::too_many_arguments)]
fn sweep_unit(
    ctx: &Ctx,
    scratch: &Scratch,
    unit: &SweepRequest,
    jobs: u64,
    reference: &str,
    n: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Res<UnitSample> {
    let id = n as u64;
    let cache = scratch.join(&format!("cache-{n}"));
    let (cold_path, warm_path) = (scratch.join("cold.json"), scratch.join("warm.json"));
    let root = tracer.begin("unit", Tracer::ROOT, id);

    let null = SweepRequest::new()
        .scenario("tab02_containers")
        .with_seeds(1);
    let mut setup_s = Vec::new();
    for rep in 0..NULLS_PER_UNIT {
        let null_cache = scratch.join(&format!("null-cache-{n}-{rep}"));
        let args = sweep_command(&null, ctx.clients, &null_cache, &scratch.join("null.json"));
        let run = tracer.span("cli.setup_sweep", root, id, || run_cli(&ctx.bin, &args))?;
        tally.op(run.success, || format!("unit {n}: set-up sweep failed"));
        setup_s.push(run.wall_s);
        let _ = std::fs::remove_dir_all(&null_cache);
    }

    let args = sweep_command(unit, ctx.clients, &cache, &cold_path);
    let cold = tracer.span("cli.cold_sweep", root, id, || run_cli(&ctx.bin, &args))?;
    let cold_artifact = read(&cold_path).unwrap_or_default();
    let ok = tracer.span("check.artifact", root, id, || {
        cold.success && cold_artifact == reference
    });
    tally.op(ok, || {
        format!("unit {n}: cold artifact differs from the serial reference")
    });

    let args = sweep_command(unit, ctx.clients, &cache, &warm_path);
    let mut warm_s = Vec::new();
    let mut rss_kb = cold.max_rss_kb;
    for _ in 0..RESWEEPS_PER_UNIT {
        let warm = tracer.span("cli.resweep", root, id, || run_cli(&ctx.bin, &args))?;
        let ok = tracer.span("check.artifact", root, id, || {
            warm.success
                && read(&warm_path).is_ok_and(|a| a == cold_artifact)
                && sidecar_counts(&warm_path)
                    .is_ok_and(|(hits, misses)| misses == 0 && hits == jobs)
        });
        tally.op(ok, || {
            format!("unit {n}: warm re-sweep not all-hit or not byte-equal")
        });
        warm_s.push(warm.wall_s);
        rss_kb = rss_kb.max(warm.max_rss_kb);
    }
    tracer.end(root);

    let _ = std::fs::remove_dir_all(&cache);
    Ok(UnitSample {
        setup_s,
        ack_s: cold.ack_s.unwrap_or(cold.wall_s),
        cold_s: cold.wall_s,
        warm_s,
        rss_kb,
    })
}

/// The window's phases: the whole of it untraced, or (traced pass) one
/// half untraced and one half traced so that the overhead is measured
/// within one run.
fn phases(ctx: &Ctx) -> Vec<(bool, Duration)> {
    let whole = Duration::from_secs_f64(ctx.seconds);
    if ctx.traced {
        vec![(false, whole / 2), (true, whole / 2)]
    } else {
        vec![(false, whole)]
    }
}

fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (traced - untraced) / untraced * 100.0
}

fn run_sweep(ctx: &Ctx, workload: Workload) -> Res<Outcome> {
    let registry = Registry::standard();
    let inputs = Inputs::generate(workload, ctx.seed, ctx.clients);
    let Inputs::Sweep(unit) = &inputs else {
        unreachable!("sweep workloads generate a sweep unit")
    };
    let digest = inputs.digest();
    let jobs = unit
        .validate(&registry)
        .map_err(|e| e.to_string())?
        .total_jobs as u64;
    let reference = serial_reference(&registry, unit)?;
    let scratch = Scratch::new(&ctx.out_dir, workload.name())?;
    let mut tally = Tally::default();

    // One discarded warm-up unit, then the measured part.
    let origin = Instant::now();
    let mut idle = Tracer::new(false, origin);
    sweep_unit(
        ctx, &scratch, unit, jobs, &reference, 0, &mut idle, &mut tally,
    )?;

    let mut n = 1;
    let mut spans = Vec::new();
    let mut by_phase: Vec<Vec<UnitSample>> = Vec::new();
    for (trace_on, length) in phases(ctx) {
        let mut tracer = Tracer::new(trace_on, origin);
        let started = Instant::now();
        let mut samples = Vec::new();
        while started.elapsed() < length {
            check_interrupt()?;
            samples.push(sweep_unit(
                ctx,
                &scratch,
                unit,
                jobs,
                &reference,
                n,
                &mut tracer,
                &mut tally,
            )?);
            n += 1;
        }
        by_phase.push(samples);
        spans.extend(tracer.into_spans());
    }

    // A unit is the same deterministic work every time, and interference
    // from the rest of the machine only ever adds time, so the gated
    // timings are the fastest unit's (best of n, as the repository's own
    // benches report); the median and quartiles are printed beside them.
    let samples = &by_phase[0];
    let units = samples.len();
    let cold: Vec<f64> = samples.iter().map(|s| s.cold_s).collect();
    let warm: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.warm_s.iter().copied())
        .collect();
    let setup: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.setup_s.iter().copied())
        .collect();
    let ack: Vec<f64> = samples.iter().map(|s| s.ack_s).collect();
    let rss: Vec<f64> = samples.iter().map(|s| s.rss_kb as f64 / 1024.0).collect();
    let best_cold = best(&cold)?;
    let mut readings = vec![
        Reading::new("setup_s", best(&setup)?, "s").with_n(setup.len()),
        Reading::new("ack_ms", ms(best(&ack)?), "ms").with_n(units),
        Reading::new("done_ms", ms(best_cold), "ms").with_n(units),
        Reading::new("resweep_s", best(&warm)?, "s").with_n(warm.len()),
        Reading::new("req_per_s", 1.0 / best_cold, "1/s").with_n(units),
        Reading::new("jobs_per_s", jobs as f64 / best_cold, "1/s").with_n(units),
        Reading::new("peak_rss_mb", med(&rss)?, "MB").with_n(units),
        Reading::new("sweep_s", med(&cold)?, "s").with_n(units),
    ];
    let mut notes = Vec::new();
    if let Some([q1, _, q3]) = crate::stats::quartiles(&cold) {
        notes.push(format!(
            "sweep_s quartiles {q1:.4} .. {q3:.4} s over {units} units of {jobs} jobs; \
             re-sweep median {:.4} s, set-up median {:.4} s",
            med(&warm)?,
            med(&setup)?
        ));
    }
    if ctx.traced {
        let traced_cold: Vec<f64> = by_phase[1].iter().map(|s| s.cold_s).collect();
        readings.push(Reading::new(
            "trace.overhead_pct",
            overhead_pct(best_cold, best(&traced_cold)?),
            "%",
        ));
        // Cold sweeps and set-up sweeps hit nothing, re-sweeps everything.
        let hits = (RESWEEPS_PER_UNIT as u64 * jobs) as f64;
        let total = ((1 + RESWEEPS_PER_UNIT) as u64 * jobs + NULLS_PER_UNIT as u64) as f64;
        readings.push(Reading::new("service.hit_ratio", hits / total, "ratio"));
    }
    finish(ctx, workload, digest, tally, readings, spans, notes)
}

fn finish(
    ctx: &Ctx,
    workload: Workload,
    input_digest: String,
    tally: Tally,
    mut readings: Vec<Reading>,
    spans: Vec<Span>,
    mut notes: Vec<String>,
) -> Res<Outcome> {
    readings.push(Reading::new(
        "fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    ));
    notes.extend(tally.problems.iter().map(|p| format!("FAILED: {p}")));
    Ok(Outcome {
        result: RunResult {
            workload: workload.name().to_string(),
            seed: ctx.seed,
            seconds: ctx.seconds,
            traced: ctx.traced,
            input_digest,
            attempted: tally.attempted,
            failed: tally.failed,
            readings,
        },
        spans,
        notes,
    })
}

/// Pre-fill `cache` by running every popular request through the CLI; the
/// artifacts it writes are the references the TCP replies must equal.
fn prefill_via_cli(
    ctx: &Ctx,
    popular: &[(Class, SweepRequest)],
    cache: &Path,
    scratch: &Scratch,
    tally: &mut Tally,
) -> Res<Vec<String>> {
    let artifact = scratch.join("popular.json");
    popular
        .iter()
        .enumerate()
        .map(|(i, (_, req))| {
            check_interrupt()?;
            let run = run_cli(&ctx.bin, &sweep_command(req, ctx.clients, cache, &artifact))?;
            tally.op(run.success, || {
                format!("pre-fill of popular request {i} failed")
            });
            read(&artifact)
        })
        .collect()
}

/// One completed submit+wait pair.
struct Sample {
    /// `None` for a novel request.
    class: Option<Class>,
    ack_ms: f64,
    done_ms: f64,
    total_jobs: u64,
    cache_hits: u64,
}

/// What one connection thread brings back from one phase.
struct ConnReport {
    samples: Vec<Sample>,
    /// Measured time of this connection: from the start of the phase to
    /// its last completion.
    elapsed_s: f64,
    /// Stream position to continue from in the next phase.
    cursor: usize,
    /// Novel requests with the artifact they got, for the post-run check.
    novel: Vec<(SweepRequest, String)>,
    tally: Tally,
    spans: Vec<Span>,
    /// Ran out of novel requests before the window closed.
    exhausted: bool,
}

fn lookup_u64(v: &Value, key: &str) -> Res<u64> {
    match lookup(v, key) {
        Some(Value::U64(n)) => Ok(*n),
        _ => Err(format!("no count `{key}` in the document")),
    }
}

/// A connection that is either the program's own blocking client (the
/// untraced runs) or the same exchange spelled out through the public wire
/// functions with a span around each step (the traced half).
enum Conn {
    Plain(Client),
    Traced(TcpStream),
}

/// Receipt fields the load generator uses, then the terminal response.
struct Exchange {
    ack: Instant,
    total_jobs: u64,
    cache_hits: u64,
    response: SweepResponse,
}

impl Conn {
    fn open(addr: SocketAddr, traced: bool) -> Res<Conn> {
        if traced {
            TcpStream::connect(addr)
                .map(Conn::Traced)
                .map_err(|e| format!("connecting: {e}"))
        } else {
            Client::connect(addr)
                .map(Conn::Plain)
                .map_err(|e| format!("connecting: {e}"))
        }
    }

    /// One verb round trip with `wire.encode` / `wire.io_wait` /
    /// `wire.decode` spans — the steps of `Client::call`.
    fn traced_call(
        stream: &mut TcpStream,
        verb: &Verb,
        tracer: &mut Tracer,
        parent: SpanId,
        request: u64,
    ) -> Res<Value> {
        let text = tracer.span("wire.encode", parent, request, || {
            serde_json::to_string(&verb.to_value()).expect("value-tree rendering is infallible")
        });
        let reply = tracer.span("wire.io_wait", parent, request, || {
            write_frame(stream, &text)
                .and_then(|()| read_frame(stream))
                .map_err(|e| e.to_string())
        })?;
        let reply = reply.ok_or("the server hung up before replying")?;
        let value = tracer.span("wire.decode", parent, request, || {
            serde_json::from_str(&reply).map_err(|e| e.to_string())
        })?;
        match lookup(&value, "ok") {
            Some(Value::Bool(true)) => Ok(value),
            _ => Err(format!("server error: {reply}")),
        }
    }

    fn exchange(
        &mut self,
        req: &SweepRequest,
        tracer: &mut Tracer,
        parent: SpanId,
        request: u64,
    ) -> Res<Exchange> {
        match self {
            Conn::Plain(client) => {
                let receipt = client.submit(req).map_err(|e| e.to_string())?;
                let ack = Instant::now();
                let response = client.wait(receipt.id).map_err(|e| e.to_string())?;
                Ok(Exchange {
                    ack,
                    total_jobs: receipt.total_jobs as u64,
                    cache_hits: receipt.cache_hits as u64,
                    response,
                })
            }
            Conn::Traced(stream) => {
                let submit = tracer.begin("client.submit", parent, request);
                let receipt =
                    Conn::traced_call(stream, &Verb::Submit(req.clone()), tracer, submit, request)?;
                let id = lookup_u64(&receipt, "id")?;
                tracer.end(submit);
                let ack = Instant::now();
                let wait = tracer.begin("client.wait", parent, request);
                let reply = Conn::traced_call(stream, &Verb::Wait(id), tracer, wait, request)?;
                let response = tracer.span("wire.reply_decode", wait, request, || {
                    lookup(&reply, "response")
                        .ok_or_else(|| "reply is missing `response`".to_string())
                        .and_then(|v| SweepResponse::from_value(v).map_err(|e| e.to_string()))
                })?;
                tracer.end(wait);
                Ok(Exchange {
                    ack,
                    total_jobs: lookup_u64(&receipt, "total_jobs")?,
                    cache_hits: lookup_u64(&receipt, "cache_hits")?,
                    response,
                })
            }
        }
    }
}

/// How one connection walks its stream.
struct Lane<'a> {
    label: u64,
    items: &'a [Item],
    cursor: usize,
    /// `serve_warm` streams wrap; `serve_mixed` streams stop at their end.
    wrap: bool,
}

/// One closed-loop connection: send the next request only after the
/// previous artifact arrived, until the deadline.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    lane: Lane<'_>,
    popular: &[(Class, SweepRequest)],
    references: &[String],
    measure_from: Instant,
    deadline: Instant,
    traced: bool,
    origin: Instant,
) -> Res<ConnReport> {
    let mut conn = Conn::open(addr, traced)?;
    let mut tracer = Tracer::new(traced, origin);
    let mut report = ConnReport {
        samples: Vec::new(),
        elapsed_s: 0.0,
        cursor: lane.cursor,
        novel: Vec::new(),
        tally: Tally::default(),
        spans: Vec::new(),
        exhausted: false,
    };
    let mut last_done = measure_from;
    while Instant::now() < deadline && !interrupted() {
        if report.cursor >= lane.items.len() {
            if !lane.wrap {
                report.exhausted = true;
                break;
            }
            report.cursor = 0;
        }
        let item = &lane.items[report.cursor];
        let request_id = (lane.label << 32) | report.cursor as u64;
        report.cursor += 1;
        let req = request_of(item, popular);

        let root = tracer.begin("client.request", Tracer::ROOT, request_id);
        let sent = Instant::now();
        let outcome = conn.exchange(req, &mut tracer, root, request_id);
        let done = Instant::now();
        tracer.end(root);

        let exchange = match outcome {
            Ok(exchange) => exchange,
            Err(e) => {
                report
                    .tally
                    .op(false, || format!("request {request_id:#x}: {e}"));
                // The connection may be unusable after an error: reopen it.
                conn = Conn::open(addr, traced)?;
                continue;
            }
        };
        let artifact = exchange.response.artifact.unwrap_or_default();
        let ok = exchange.response.status == SweepStatus::Done
            && match item {
                Item::Popular(i) => artifact == references[*i],
                Item::Novel(_) => !artifact.is_empty(),
            };
        if let (Item::Novel(req), true) = (item, report.novel.len() < 2) {
            report.novel.push((req.clone(), artifact));
        }
        report.tally.op(ok, || {
            format!("request {request_id:#x}: wrong status or artifact mismatch")
        });
        last_done = done;
        report.samples.push(Sample {
            class: match item {
                Item::Popular(i) => Some(popular[*i].0),
                Item::Novel(_) => None,
            },
            ack_ms: ms((exchange.ack - sent).as_secs_f64()),
            done_ms: ms((done - sent).as_secs_f64()),
            total_jobs: exchange.total_jobs,
            cache_hits: exchange.cache_hits,
        });
    }
    report.elapsed_s = (last_done - measure_from).as_secs_f64();
    report.spans = tracer.into_spans();
    Ok(report)
}

/// Everything one phase of a serve workload measured.
struct ServePhase {
    foreground: Vec<ConnReport>,
    background: Option<ConnReport>,
}

impl ServePhase {
    fn fg_samples(&self) -> impl Iterator<Item = &Sample> {
        self.foreground.iter().flat_map(|c| c.samples.iter())
    }

    fn done_ms(&self) -> Vec<f64> {
        self.fg_samples().map(|s| s.done_ms).collect()
    }

    fn done_ms_of(&self, class: Class) -> Vec<f64> {
        self.fg_samples()
            .filter(|s| s.class == Some(class))
            .map(|s| s.done_ms)
            .collect()
    }
}

/// Copy a (flat) cache directory: the index file plus the `wal/` subdir.
fn copy_cache(from: &Path, to: &Path) -> Res<()> {
    let io = |e: std::io::Error| format!("copying the cache for the replay: {e}");
    std::fs::create_dir_all(to.join("wal")).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let path = entry.map_err(io)?.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(path.file_name().expect("file has a name")))
                .map_err(io)?;
        }
    }
    Ok(())
}

/// An in-process service over the standard registry, as `scenarios serve`
/// provisions one.
pub fn start_service(threads: usize, cache: Option<&Path>) -> Res<Service> {
    let mut config = ServiceConfig::new().with_threads(threads);
    if let Some(dir) = cache {
        config = config.with_cache_dir(dir);
    }
    Service::start(Registry::standard(), config).map_err(|e| e.to_string())
}

/// The server's request path, in-process, through public functions only,
/// in the order of `server::answer`: `from_str` -> `Verb::from_value` ->
/// `Service::submit`/`wait` -> reply value -> `to_string` -> `write_frame`
/// (into memory). Each step is one span.
pub struct InProcessServer {
    service: Service,
    sink: Vec<u8>,
}

impl InProcessServer {
    pub fn start(threads: usize, cache: &Path) -> Res<InProcessServer> {
        Ok(InProcessServer {
            service: start_service(threads, Some(cache))?,
            sink: Vec::new(),
        })
    }

    /// Answer one request frame the way the server would; returns the
    /// reply value and the size of the reply frame.
    fn answer(
        &mut self,
        tracer: &mut Tracer,
        parent: SpanId,
        id: u64,
        frame: &str,
    ) -> Res<(Value, usize)> {
        let value = tracer
            .span("json.parse", parent, id, || serde_json::from_str(frame))
            .map_err(|e| e.to_string())?;
        let verb = tracer
            .span("request.decode", parent, id, || Verb::from_value(&value))
            .map_err(|e| e.to_string())?;
        let service = &self.service;
        let payload = match verb {
            Verb::Submit(request) => {
                let submission = tracer
                    .span("service.submit", parent, id, || service.submit(&request))
                    .map_err(|e| e.to_string())?;
                tracer.span("wire.reply_value", parent, id, || {
                    submission_to_value(&submission)
                })
            }
            Verb::Wait(request_id) => {
                let response = tracer
                    .span("service.wait", parent, id, || service.wait(request_id))
                    .map_err(|e| e.to_string())?;
                tracer.span("wire.reply_value", parent, id, || {
                    vec![("response".to_string(), Serialize::to_value(&response))]
                })
            }
            _ => return Err("the in-process server only submits and waits".into()),
        };
        let reply = tracer.span("wire.reply_value", parent, id, || ok_reply(payload));
        let text = tracer.span("json.render", parent, id, || {
            serde_json::to_string(&reply).expect("value-tree rendering is infallible")
        });
        self.sink.clear();
        let sink = &mut self.sink;
        tracer
            .span("wire.write_frame", parent, id, || write_frame(sink, &text))
            .map_err(|e| e.to_string())?;
        Ok((reply, text.len()))
    }

    /// `submit` then `wait` for one request; returns the `wait` reply value
    /// and the size of its frame.
    pub fn round_trip(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        req: &SweepRequest,
    ) -> Res<(Value, usize)> {
        let frame = |verb: Verb| {
            serde_json::to_string(&verb.to_value()).expect("value-tree rendering is infallible")
        };
        let root = tracer.begin("server.request", Tracer::ROOT, id);
        let span = tracer.begin("server.submit", root, id);
        let (receipt, _) = self.answer(tracer, span, id, &frame(Verb::Submit(req.clone())))?;
        tracer.end(span);
        let span = tracer.begin("server.wait", root, id);
        let waited = self.answer(
            tracer,
            span,
            id,
            &frame(Verb::Wait(lookup_u64(&receipt, "id")?)),
        )?;
        tracer.end(span);
        tracer.end(root);
        Ok(waited)
    }
}

/// Replay the head of a request stream through [`InProcessServer`].
/// Returns the spans and the class of each replayed request by request id.
fn replay_in_process(
    ctx: &Ctx,
    cache: &Path,
    items: &[Item],
    popular: &[(Class, SweepRequest)],
    origin: Instant,
) -> Res<(Vec<Span>, Vec<Option<Class>>)> {
    let mut server = InProcessServer::start(ctx.clients, cache)?;
    let mut tracer = Tracer::new(true, origin);
    let mut classes = Vec::new();
    for (n, item) in items.iter().take(REPLAY_REQUESTS).enumerate() {
        check_interrupt()?;
        classes.push(match item {
            Item::Popular(i) => Some(popular[*i].0),
            Item::Novel(_) => None,
        });
        server.round_trip(&mut tracer, n as u64, request_of(item, popular))?;
    }
    Ok((tracer.into_spans(), classes))
}

/// Per span name, the self time one request of `class` spends in it (a
/// request has two `json.parse` spans, one per verb: they are summed),
/// as the median over the requests.
fn class_breakdown(
    spans: &[Span],
    class_of: impl Fn(u64) -> Option<Class>,
    class: Class,
) -> Vec<(&'static str, f64)> {
    let mut per_request: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(trace::self_times(spans)) {
        if class_of(s.request) == Some(class) {
            *per_request.entry((s.name, s.request)).or_default() += self_ns as f64 / 1e6;
        }
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), self_ms) in per_request {
        by_name.entry(name).or_default().push(self_ms);
    }
    by_name
        .into_iter()
        .filter_map(|(name, v)| median(&v).map(|m| (name, m)))
        .collect()
}

fn run_serve(ctx: &Ctx, workload: Workload) -> Res<Outcome> {
    let mixed = workload == Workload::ServeMixed;
    let inputs = Inputs::generate(workload, ctx.seed, ctx.clients);
    let digest = inputs.digest();
    let Inputs::Serve {
        popular,
        foreground: fg_streams,
        background: bg_stream,
    } = inputs
    else {
        unreachable!("serve workloads generate request streams")
    };
    let scratch = Scratch::new(&ctx.out_dir, workload.name())?;
    let mut tally = Tally::default();

    // Set-up: the cache pre-fill sweeps, then server spawn to first ping.
    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS_SERVE {
        let cache = scratch.join(&format!("cache-{rep}"));
        let started = Instant::now();
        let references = prefill_via_cli(ctx, &popular, &cache, &scratch, &mut tally)?;
        let prefill_s = started.elapsed().as_secs_f64();
        let replay_cache = scratch.join("replay-cache");
        if ctx.traced && rep + 1 == SETUP_REPS_SERVE {
            copy_cache(&cache, &replay_cache)?;
        }
        let server = ServerProc::spawn(&ctx.bin, ctx.clients, &cache)?;
        setup_s.push(prefill_s + server.ready_s);
        if rep + 1 < SETUP_REPS_SERVE {
            server.shutdown()?;
            let _ = std::fs::remove_dir_all(&cache);
        } else {
            live = Some((server, references, replay_cache));
        }
    }
    let (server, references, replay_cache) = live.expect("at least one set-up");

    // Every distinct popular request, served over TCP, must equal the CLI
    // artifact for the same request. Asked over as many connections as the
    // window will use, this is also the discarded warm-up.
    let checks: Vec<Tally> = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..ctx.clients)
            .map(|lane| {
                let (popular, references, addr) = (&popular, &references, server.addr);
                scope.spawn(move || -> Res<Tally> {
                    let mut tally = Tally::default();
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    for i in (lane..popular.len()).step_by(ctx.clients) {
                        let served = client
                            .submit(&popular[i].1)
                            .and_then(|receipt| client.wait(receipt.id))
                            .map_err(|e| e.to_string())?;
                        tally.op(
                            served.status == SweepStatus::Done
                                && served.artifact.as_deref() == Some(&references[i]),
                            || format!("popular request {i}: TCP artifact differs from the CLI artifact"),
                        );
                    }
                    Ok(tally)
                })
            })
            .collect();
        lanes
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect::<Res<_>>()
    })?;
    checks.into_iter().for_each(|t| tally.absorb(t));

    let origin = Instant::now();
    let mut cursors = vec![0usize; fg_streams.len()];
    let mut bg_cursor = 0usize;
    let mut spans = Vec::new();
    let mut novel_checks: Vec<(SweepRequest, String)> = Vec::new();
    let mut by_phase: Vec<ServePhase> = Vec::new();
    let mut notes = Vec::new();
    for (p, (trace_on, length)) in phases(ctx).into_iter().enumerate() {
        check_interrupt()?;
        let measure_from = Instant::now();
        let deadline = measure_from + length;
        let (popular, references) = (&popular, &references);
        let addr = server.addr;
        let (foreground, background) = std::thread::scope(|scope| {
            let fg: Vec<_> = fg_streams
                .iter()
                .enumerate()
                .map(|(c, items)| {
                    let lane = Lane {
                        label: c as u64,
                        items,
                        cursor: cursors[c],
                        wrap: !mixed,
                    };
                    scope.spawn(move || {
                        drive(
                            addr,
                            lane,
                            popular,
                            references,
                            measure_from,
                            deadline,
                            trace_on,
                            origin,
                        )
                    })
                })
                .collect();
            let bg = bg_stream.as_ref().map(|items| {
                let lane = Lane {
                    label: u32::MAX as u64,
                    items,
                    cursor: bg_cursor,
                    wrap: false,
                };
                scope.spawn(move || {
                    drive(
                        addr,
                        lane,
                        popular,
                        references,
                        measure_from,
                        deadline,
                        trace_on,
                        origin,
                    )
                })
            });
            let join = |h: std::thread::ScopedJoinHandle<'_, Res<ConnReport>>| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".to_string()))
            };
            (
                fg.into_iter().map(join).collect::<Res<Vec<_>>>(),
                bg.map(join).transpose(),
            )
        });
        let mut phase = ServePhase {
            foreground: foreground?,
            background: background?,
        };
        check_interrupt()?;
        for (c, conn) in phase.foreground.iter_mut().enumerate() {
            cursors[c] = conn.cursor;
        }
        if let Some(bg) = &phase.background {
            bg_cursor = bg.cursor;
        }
        for conn in phase
            .foreground
            .iter_mut()
            .chain(phase.background.iter_mut())
        {
            tally.absorb(std::mem::take(&mut conn.tally));
            spans.push(std::mem::take(&mut conn.spans));
            if p == 0 {
                novel_checks.append(&mut conn.novel);
            }
            if conn.exhausted {
                notes.push(format!(
                    "a connection used up its {} novel requests before the window closed",
                    conn.cursor
                ));
            }
        }
        by_phase.push(phase);
    }
    let peak_rss_kb = server.vm_hwm_kb()?;
    server.shutdown()?;

    // Novel requests have no CLI twin; a few per connection are recomputed
    // by the serial path and must match what the server sent.
    let registry = Registry::standard();
    for (req, artifact) in &novel_checks {
        let expected = serial_reference(&registry, req)?;
        tally.op(*artifact == expected, || {
            "a novel request's artifact differs from the serial reference".to_string()
        });
    }

    let phase = &by_phase[0];
    let done = phase.done_ms();
    let ack: Vec<f64> = phase.fg_samples().map(|s| s.ack_ms).collect();
    let hits_done: Vec<f64> = phase
        .fg_samples()
        .filter(|s| s.class.is_some())
        .map(|s| s.done_ms)
        .collect();
    let rate = |conn: &ConnReport, count: f64| count / conn.elapsed_s.max(1e-9);
    let (ack_p50, done_p50) = (med(&ack)?, med(&done)?);
    let mut readings = vec![
        Reading::new("setup_s", best(&setup_s)?, "s").with_n(setup_s.len()),
        Reading::new("ack_ms", ack_p50, "ms").with_n(ack.len()),
        Reading::new("done_ms", done_p50, "ms").with_n(done.len()),
        Reading::new("resweep_s", med(&hits_done)? / 1e3, "s").with_n(hits_done.len()),
        Reading::new(
            "req_per_s",
            phase
                .foreground
                .iter()
                .map(|c| rate(c, c.samples.len() as f64))
                .sum(),
            "1/s",
        )
        .with_n(done.len()),
        Reading::new("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB"),
        Reading::new("ack_p50_ms", ack_p50, "ms").with_n(ack.len()),
        Reading::new("done_p50_ms", done_p50, "ms").with_n(done.len()),
    ];
    match &phase.background {
        Some(bg) => {
            let jobs: f64 = bg.samples.iter().map(|s| s.total_jobs as f64).sum();
            let bg_rate = rate(bg, jobs);
            readings.push(Reading::new("jobs_per_s", bg_rate, "1/s").with_n(bg.samples.len()));
            readings.push(Reading::new("bg_jobs_per_s", bg_rate, "1/s").with_n(bg.samples.len()));
            notes.push(format!(
                "background: {} requests of {BG_JOBS} jobs, done p50 {:.1} ms",
                bg.samples.len(),
                med(&bg.samples.iter().map(|s| s.done_ms).collect::<Vec<_>>())?
            ));
        }
        None => {
            // How fast cache-served jobs reach the client: the jobs of a
            // large request over the median time one takes. A count over the
            // window would follow the number of large draws instead.
            let large = phase.done_ms_of(Class::Large);
            let jobs = popular
                .iter()
                .find(|(class, _)| *class == Class::Large)
                .map(|(_, req)| req.validate(&registry).map(|v| v.total_jobs))
                .expect("the popular set has a large request")
                .map_err(|e| e.to_string())?;
            readings.push(
                Reading::new("jobs_per_s", jobs as f64 / (med(&large)? / 1e3), "1/s")
                    .with_n(large.len()),
            );
        }
    }
    if let Some(p95) = tail_percentile(&done, 0.95) {
        readings.push(Reading::new("done_p95_ms", p95, "ms").with_n(done.len()));
    }
    for class in [Class::Small, Class::Medium, Class::Large] {
        let v = phase.done_ms_of(class);
        if let Some(m) = median(&v) {
            notes.push(format!(
                "{:<6} done p50 {m:>9.3} ms  n={}",
                class.name(),
                v.len()
            ));
        }
    }
    let novel: Vec<f64> = phase
        .fg_samples()
        .filter(|s| s.class.is_none())
        .map(|s| s.done_ms)
        .collect();
    if let Some(m) = median(&novel) {
        notes.push(format!("novel  done p50 {m:>9.3} ms  n={}", novel.len()));
    }

    let mut all_spans = Vec::new();
    if ctx.traced {
        let traced = &by_phase[1];
        readings.push(Reading::new(
            "trace.overhead_pct",
            overhead_pct(done_p50, med(&traced.done_ms())?),
            "%",
        ));
        let (hits, total) = by_phase
            .iter()
            .flat_map(|p| p.foreground.iter().chain(p.background.iter()))
            .flat_map(|c| c.samples.iter())
            .fold((0u64, 0u64), |(h, t), s| {
                (h + s.cache_hits, t + s.total_jobs)
            });
        readings.push(Reading::new(
            "service.hit_ratio",
            hits as f64 / total.max(1) as f64,
            "ratio",
        ));

        // The same request stream through the server's path, in-process.
        let (replay, classes) =
            replay_in_process(ctx, &replay_cache, &fg_streams[0], &popular, origin)?;
        let server_side = class_breakdown(
            &replay,
            |id| classes.get(id as usize).copied().flatten(),
            Class::Medium,
        );
        let client_spans = trace::merge(std::mem::take(&mut spans));
        let class_of_live = |id: u64| -> Option<Class> {
            let (conn, cursor) = ((id >> 32) as usize, (id & 0xffff_ffff) as usize);
            match fg_streams.get(conn)?.get(cursor)? {
                Item::Popular(i) => Some(popular[*i].0),
                Item::Novel(_) => None,
            }
        };
        let client_side = class_breakdown(&client_spans, class_of_live, Class::Medium);
        if let Some(live_done) = median(&traced.done_ms_of(Class::Medium)) {
            notes.push(format!(
                "medium request, traced half: done p50 {live_done:.3} ms splits into"
            ));
            let mut accounted = 0.0;
            let leaf = |name: &str| !matches!(name, "wire.io_wait" | "client.request");
            for (name, self_ms) in client_side
                .iter()
                .filter(|(n, _)| leaf(n))
                .chain(&server_side)
            {
                accounted += self_ms;
                notes.push(format!("    {name:<20} {self_ms:>9.3} ms self"));
            }
            notes.push(format!(
                "    {:<20} {:>9.3} ms ({:.1} % of done): live done minus the in-process layers",
                "transport remainder",
                live_done - accounted,
                (live_done - accounted) / live_done * 100.0
            ));
        }
        all_spans = trace::merge(vec![client_spans, replay]);
    }
    finish(ctx, workload, digest, tally, readings, all_spans, notes)
}
