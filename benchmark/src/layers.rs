//! The per-layer table of the traced pass: every layer is measured from
//! outside, by timing calls into its public functions. The prefix of a
//! metric names the module it belongs to. Each number is the median of at
//! least [`REPS`] repetitions; counts must repeat exactly, and the pass
//! fails when they do not.

use crate::gen::{all_scenarios, fanout_unit, popular_set, Class, FANOUT_SCENARIOS};
use crate::harness::{check_interrupt, Res, Scratch, ServerProc};
use crate::metrics::{lookup, Reading};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{start_service, Ctx, InProcessServer};
use cluster::{Cluster, TraceProfile, UtilizationMonitor};
use crossbeam::deque::{Injector, Worker};
use des::{RngStream, SimTime, Simulation};
use scenarios::wire::{read_frame, write_frame};
use scenarios::{
    job_key, Client, Metrics, Params, Registry, ResultCache, Service, SweepGrid, SweepRequest,
    SweepResponse, SweepRunner, SweepSuite,
};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions behind every median.
const REPS: usize = 5;

/// Seed of the trace replays: the one the paper reports use.
const TRACE_SEED: u64 = scenarios::REPORT_SEED;

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Median of `REPS` values of `f`.
fn median_of(mut f: impl FnMut() -> Res<f64>) -> Res<f64> {
    let values = (0..REPS)
        .map(|_| {
            check_interrupt()?;
            f()
        })
        .collect::<Res<Vec<f64>>>()?;
    Ok(median(&values).expect("REPS is positive"))
}

/// Median seconds per call of `f`, each repetition looping `iters` times.
fn per_call_s(iters: usize, mut f: impl FnMut(usize)) -> Res<f64> {
    median_of(|| {
        let (secs, ()) = timed(|| (0..iters).for_each(&mut f));
        Ok(secs / iters as f64)
    })
}

struct Table(Vec<Reading>);

impl Table {
    fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push(Reading::new(name, value, unit).with_n(REPS));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
            .expect("layer measured earlier in the pass")
    }
}

/// Pseudo-shuffled timestamps over a `16 x n` ns span, as in the engine's
/// own `event_loop` bench: real bucket redistribution, not a sorted run.
fn shuffled_times(n: u64) -> Vec<SimTime> {
    (0..n)
        .map(|i| SimTime::from_nanos(i.wrapping_mul(2_654_435_761) % (n * 16)))
        .collect()
}

fn fig01_horizon() -> SimTime {
    SimTime::from_days(14)
}

/// What one full replay yields besides its wall time.
#[derive(PartialEq, Debug, Clone, Copy)]
struct ReplayCounts {
    events: u64,
    jobs_completed: usize,
    monitor_samples: usize,
    inline_hit_ratio: f64,
}

fn trace_replay(profile: &TraceProfile) -> (f64, ReplayCounts) {
    let mut sim = Simulation::new(TRACE_SEED);
    let (secs, out) = timed(|| cluster::simulate_trace_in(&mut sim, profile, fig01_horizon()));
    (
        secs,
        ReplayCounts {
            events: sim.events_executed(),
            jobs_completed: out.jobs_completed,
            monitor_samples: out.report.idle_cpu_pct.len(),
            inline_hit_ratio: sim.inline_hit_ratio(),
        },
    )
}

/// The replay's job stream — the same `TraceProfile::draw_job` draws from
/// the same named RNG stream, the same Poisson arrivals — pushed through
/// `Cluster::submit`/`try_schedule`/`finish` with a local completion heap:
/// the scheduler alone, no `Simulation`, no monitor. Returns wall seconds
/// and jobs submitted.
fn sched_only(profile: &TraceProfile) -> (f64, u64) {
    let horizon = fig01_horizon();
    let mut rng = RngStream::derive(TRACE_SEED, "trace");
    let mut cluster = Cluster::homogeneous(profile.nodes, profile.node_capacity);
    let mut completions: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
    let (mut seq, mut submitted) = (0u64, 0u64);
    let mut next_arrival = SimTime::ZERO;
    let (secs, ()) = timed(|| loop {
        let arrival = (next_arrival < horizon).then_some(next_arrival);
        let completion = completions.peek().map(|Reverse((at, _, _))| *at);
        let now = match (arrival, completion) {
            (Some(a), Some(c)) if c <= a => c,
            (Some(a), _) => a,
            (None, Some(c)) if c <= horizon => c,
            _ => break,
        };
        if Some(now) == completion {
            let Reverse((_, _, id)) = completions.pop().expect("peeked");
            cluster
                .finish(cluster::JobId(id), now)
                .expect("running job finishes");
        } else {
            let (spec, runtime) = profile.draw_job(&mut rng);
            cluster.submit(spec, runtime, now);
            submitted += 1;
            let dt = SimTime::from_secs_f64(rng.exponential(profile.mean_interarrival_s));
            next_arrival = now + dt.max(SimTime::from_nanos(1));
        }
        let (started, idle_periods) = cluster.try_schedule(now);
        black_box(idle_periods);
        for id in started {
            let runtime = cluster.job(id).expect("started job exists").actual_runtime;
            completions.push(Reverse((now + runtime, seq, id.0)));
            seq += 1;
        }
    });
    (secs, submitted)
}

fn des_and_cluster(t: &mut Table) -> Res<()> {
    let daint = TraceProfile::piz_daint();

    // cluster: the fig01 replay at its defaults, with exact counts.
    let mut counts = None;
    let replay_s = median_of(|| {
        let (secs, c) = trace_replay(&daint);
        match counts {
            None => counts = Some(c),
            Some(first) if first != c => {
                return Err(format!(
                    "trace replay counts changed between repetitions: {first:?} vs {c:?}"
                ))
            }
            Some(_) => {}
        }
        Ok(secs)
    })?;
    let counts = counts.expect("REPS is positive");

    // des: an empty engine, then the engine under three shapes of load.
    let new_s = per_call_s(2000, |i| drop(black_box(Simulation::new(i as u64))))?;
    t.push("des.sim_new_us", new_s * 1e6, "us");
    let times = shuffled_times(counts.events);
    let drain_s = median_of(|| {
        Ok(timed(|| {
            let mut sim = Simulation::new(1);
            for &at in &times {
                sim.schedule_at(at, |_| {});
            }
            sim.run();
            black_box(sim.events_executed())
        })
        .0)
    })?;
    t.push(
        "des.drain_events_per_s",
        counts.events as f64 / drain_s,
        "1/s",
    );
    const CHAIN: u64 = 200_000;
    fn chain_step(sim: &mut Simulation, remaining: u64) {
        if remaining > 0 {
            sim.schedule_after(SimTime::from_nanos(5), move |sim| {
                chain_step(sim, remaining - 1)
            });
        }
    }
    let chain_s = median_of(|| {
        Ok(timed(|| {
            let mut sim = Simulation::new(1);
            chain_step(&mut sim, CHAIN);
            sim.run();
            black_box(sim.events_executed())
        })
        .0)
    })?;
    t.push("des.chain_events_per_s", CHAIN as f64 / chain_s, "1/s");
    let cancel_times = shuffled_times(100_000);
    let cancel_s = median_of(|| {
        Ok(timed(|| {
            let mut sim = Simulation::new(1);
            let ids: Vec<_> = cancel_times
                .iter()
                .map(|&at| sim.schedule_at(at, |_| {}))
                .collect();
            for id in ids.iter().step_by(2) {
                sim.cancel(*id);
            }
            sim.run();
            black_box(sim.events_executed())
        })
        .0)
    })?;
    // 100k schedules + 50k cancels + 50k fires.
    t.push("des.cancel_ops_per_s", 200_000.0 / cancel_s, "1/s");
    t.push("des.inline_hit_ratio", counts.inline_hit_ratio, "ratio");

    t.push("cluster.trace_replay_s", replay_s, "s");
    t.push("cluster.trace_events", counts.events as f64, "count");
    t.push(
        "cluster.trace_jobs_completed",
        counts.jobs_completed as f64,
        "count",
    );
    t.push(
        "cluster.trace_events_per_s",
        counts.events as f64 / replay_s,
        "1/s",
    );

    let mut submitted = 0;
    let sched_s = median_of(|| {
        let (secs, n) = sched_only(&daint);
        submitted = n;
        Ok(secs)
    })?;
    t.push("cluster.sched_only_s", sched_s, "s");
    t.push(
        "cluster.sched_jobs_per_s",
        submitted as f64 / sched_s,
        "1/s",
    );
    let backlogged = TraceProfile {
        nodes: 1200,
        ..daint.clone()
    };
    let backlog_rate = median_of(|| {
        let (secs, n) = sched_only(&backlogged);
        Ok(n as f64 / secs)
    })?;
    t.push("cluster.sched_backlog_jobs_per_s", backlog_rate, "1/s");

    // One monitor sample of an 1800-node cluster with jobs on it.
    let mut busy = Cluster::homogeneous(daint.nodes, daint.node_capacity);
    let mut rng = RngStream::derive(TRACE_SEED, "trace");
    for _ in 0..600 {
        let (spec, runtime) = daint.draw_job(&mut rng);
        busy.submit(spec, runtime, SimTime::ZERO);
    }
    busy.try_schedule(SimTime::ZERO);
    let mut monitor = UtilizationMonitor::two_minute();
    let sample_s = per_call_s(300, |i| {
        monitor.sample(&busy, SimTime::from_mins(2 * i as u64));
    })?;
    t.push("cluster.monitor_sample_us", sample_s * 1e6, "us");

    // What is left of the replay once the scheduler, the monitor and the
    // bare event queue are taken out: `TraceState` locks, `Arc` clones, RNG.
    let glue = replay_s - sched_s - counts.monitor_samples as f64 * sample_s - drain_s;
    t.push("cluster.trace_glue_s", glue, "s");
    Ok(())
}

/// `Scenario::run` at default parameters on a fresh `Simulation`: the
/// model layers (`rfaas`, `fabric`, `interference`, `apps`, `gpu`,
/// `storage`, `containers`) as a sweep job sees them. Building and dropping
/// the simulation is `des.sim_new_us` and stays outside the timing.
fn models(t: &mut Table, registry: &Registry) -> Res<()> {
    for name in all_scenarios() {
        let scenario = registry
            .get(name)
            .ok_or_else(|| format!("scenario `{name}` is not registered"))?;
        let params = scenario.default_params();
        let run_once = || {
            let mut sim = Simulation::new(TRACE_SEED);
            timed(|| black_box(scenario.run(&mut sim, &params))).0
        };
        // Enough iterations for about 5 ms of work per repetition.
        let iters = ((0.005 / run_once().max(1e-9)).ceil() as usize).clamp(1, 5000);
        let secs = median_of(|| Ok((0..iters).map(|_| run_once()).sum::<f64>() / iters as f64))?;
        t.push(&format!("model.{name}_us"), secs * 1e6, "us");
    }
    Ok(())
}

/// A store of `10 x per_scenario` entries with each scenario's real
/// metrics, as a fan-out sweep leaves it. Returns the keys.
fn build_store(
    dir: &Path,
    registry: &Registry,
    per_scenario: u64,
) -> Res<Vec<scenarios::CacheKey>> {
    let mut cache = ResultCache::open(dir).map_err(|e| e.to_string())?;
    let writer = cache.writer().map_err(|e| e.to_string())?;
    let mut keys = Vec::new();
    for name in FANOUT_SCENARIOS {
        let scenario = registry.get(name).expect("fan-out scenario is registered");
        let params = scenario.default_params();
        let metrics = scenario.run(&mut Simulation::new(TRACE_SEED), &params);
        for seed in 0..per_scenario {
            let key = job_key(cache.salt(), name, &params, seed);
            writer
                .append(&key, name, 1e-3, &metrics)
                .map_err(|e| e.to_string())?;
            keys.push(key);
        }
    }
    cache.commit(vec![writer]).map_err(|e| e.to_string())?;
    Ok(keys)
}

fn cache_layers(t: &mut Table, registry: &Registry, scratch: &Scratch) -> Res<()> {
    let store = scratch.join("store-5000");
    let keys = build_store(&store, registry, 500)?;
    let open_s = median_of(|| {
        let (secs, cache) = timed(|| ResultCache::open(&store));
        cache.map(|_| secs).map_err(|e| e.to_string())
    })?;
    let mut cache = ResultCache::open(&store).map_err(|e| e.to_string())?;
    let stats = cache.stats();

    let salt = cache.salt().to_string();
    let params: Vec<(&str, Params)> = FANOUT_SCENARIOS
        .iter()
        .map(|name| {
            (
                *name,
                registry.get(name).expect("registered").default_params(),
            )
        })
        .collect();
    let key_s = per_call_s(5000, |i| {
        let (name, params) = &params[i % params.len()];
        black_box(job_key(&salt, name, params, i as u64));
    })?;
    t.push("cache.job_key_ns", key_s * 1e9, "ns");
    let hit_s = per_call_s(keys.len(), |i| {
        black_box(cache.lookup(&keys[i]).expect("stored key hits"));
    })?;
    t.push("cache.lookup_hit_ns", hit_s * 1e9, "ns");
    let absent: Vec<_> = (0..5000u64)
        .map(|i| job_key(&salt, "absent", &Params::new(), i))
        .collect();
    let miss_s = per_call_s(absent.len(), |i| {
        black_box(cache.lookup(&absent[i]).is_none());
    })?;
    t.push("cache.lookup_miss_ns", miss_s * 1e9, "ns");
    t.push("cache.open_ms", open_s * 1e3, "ms");

    // One writer, fresh store: append alone, then a 100-record commit
    // (segment fsync, index rewrite, fsync, rename).
    let (name, p) = &params[0];
    let metrics: Metrics = registry
        .get(name)
        .expect("registered")
        .run(&mut Simulation::new(TRACE_SEED), p);
    let mut n = 0;
    let mut fresh = |records: u64| -> Res<(ResultCache, scenarios::CacheWriter, f64)> {
        n += 1;
        let cache =
            ResultCache::open(&scratch.join(&format!("store-w{n}"))).map_err(|e| e.to_string())?;
        let writer = cache.writer().map_err(|e| e.to_string())?;
        let keys: Vec<_> = (0..records).map(|s| job_key(&salt, name, p, s)).collect();
        let (secs, result) = timed(|| {
            keys.iter()
                .try_for_each(|key| writer.append(key, name, 1e-3, &metrics))
        });
        result.map_err(|e| e.to_string())?;
        Ok((cache, writer, secs / records as f64))
    };
    let append_s = median_of(|| fresh(1000).map(|(_, _, per_append)| per_append))?;
    t.push("cache.append_us", append_s * 1e6, "us");
    let commit_s = median_of(|| {
        let (mut cache, writer, _) = fresh(100)?;
        let (secs, result) = timed(|| cache.commit(vec![writer]));
        result.map(|()| secs).map_err(|e| e.to_string())
    })?;
    t.push("cache.commit_ms", commit_s * 1e3, "ms");
    t.push(
        "cache.bytes_per_entry",
        stats.bytes_on_disk as f64 / stats.entries.max(1) as f64,
        "B",
    );
    Ok(())
}

/// Submit and wait on an in-process service; wall seconds.
fn submit_wait(service: &Service, req: &SweepRequest) -> Res<f64> {
    let (secs, result) = timed(|| service.submit(req).and_then(|s| service.wait(s.id)));
    result.map(|_| secs).map_err(|e| e.to_string())
}

fn service_and_runner(
    t: &mut Table,
    ctx: &Ctx,
    registry: &Registry,
    scratch: &Scratch,
    warm_cache: &Path,
    small: &SweepRequest,
    large: &SweepRequest,
) -> Res<()> {
    // All-hit submits: validation, keying, lookups, aggregation, render.
    let warm = start_service(ctx.clients, Some(warm_cache))?;
    let submit_s = |req: &SweepRequest, iters: usize| {
        median_of(|| {
            let (secs, result) =
                timed(|| (0..iters).try_for_each(|_| warm.submit(req).map(|_| ())));
            result
                .map(|()| secs / iters as f64)
                .map_err(|e| e.to_string())
        })
    };
    t.push(
        "service.submit_allhit_small_us",
        submit_s(small, 200)? * 1e6,
        "us",
    );
    t.push(
        "service.submit_allhit_large_us",
        submit_s(large, 3)? * 1e6,
        "us",
    );
    drop(warm);

    // Per-job overhead: 2000 jobs of the cheapest model, so what is left
    // after the model time is dispatch, stealing, slot writes, set-up.
    const JOBS: usize = 2000;
    let cheap = SweepRequest::new()
        .scenario("tab02_containers")
        .with_seeds(JOBS);
    let model_s = t.get("model.tab02_containers_us") * 1e-6 * JOBS as f64;
    let overhead_us = |wall_s: f64| (wall_s * ctx.clients as f64 - model_s) / JOBS as f64 * 1e6;
    let mut n = 0;
    let mut service_wall = |cached: bool| {
        median_of(|| {
            let cache = cached.then(|| {
                n += 1;
                scratch.join(&format!("overhead-{n}"))
            });
            let service = start_service(ctx.clients, cache.as_deref())?;
            submit_wait(&service, &cheap)
        })
    };
    t.push(
        "service.overhead_us_per_job",
        overhead_us(service_wall(false)?),
        "us",
    );
    t.push(
        "service.overhead_cached_us_per_job",
        overhead_us(service_wall(true)?),
        "us",
    );
    let tab02 = registry.get("tab02_containers").expect("registered");
    let runner_wall = median_of(|| {
        let runner = SweepRunner::new(ctx.clients, SweepRunner::seeds(JOBS));
        let (secs, result) = timed(|| runner.try_run_suite(&[(tab02, SweepGrid::new())]));
        result.map(|_| secs).map_err(|e| e.to_string())
    })?;
    t.push("runner.overhead_us_per_job", overhead_us(runner_wall), "us");

    let fanout = fanout_unit()
        .validate(registry)
        .map_err(|e| e.to_string())?;
    let suite = SweepSuite {
        results: SweepRunner::new(ctx.clients, fanout.seeds.clone())
            .try_run_suite(&fanout.resolve(registry))
            .map_err(|e| e.to_string())?,
        seeds: fanout.seeds,
    };
    let render_s = median_of(|| Ok(timed(|| black_box(suite.artifact_json()).len()).0))?;
    t.push("runner.artifact_render_ms", render_s * 1e3, "ms");
    Ok(())
}

/// `request`, `json`, `wire` and `server` layers, around one medium and
/// one large warm request.
fn wire_and_server(
    t: &mut Table,
    ctx: &Ctx,
    registry: &Registry,
    warm_cache: &Path,
    medium: &SweepRequest,
    large: &SweepRequest,
) -> Res<()> {
    let request_value = medium.to_value();
    let decode_s = per_call_s(2000, |_| {
        let req = SweepRequest::from_value(&request_value).expect("round trip");
        black_box(req.validate(registry).expect("popular request validates"));
    })?;
    t.push("request.decode_validate_us", decode_s * 1e6, "us");

    // The medium and large `wait` reply frames, as the server renders them.
    let mut server = InProcessServer::start(ctx.clients, warm_cache)?;
    let mut idle = Tracer::new(false, Instant::now());
    let (medium_reply, _) = server.round_trip(&mut idle, 0, medium)?;
    let (large_reply, _) = server.round_trip(&mut idle, 1, large)?;
    let frames: Vec<String> = [&medium_reply, &large_reply]
        .iter()
        .map(|v| serde_json::to_string(*v).expect("value-tree rendering is infallible"))
        .collect();
    let megabytes = frames.iter().map(String::len).sum::<usize>() as f64 / 1e6;
    let parse_s = median_of(|| {
        Ok(timed(|| {
            for frame in &frames {
                black_box(serde_json::from_str(frame).expect("rendered frame parses"));
            }
        })
        .0)
    })?;
    t.push("json.parse_mb_per_s", megabytes / parse_s, "MB/s");
    let render_s = median_of(|| {
        Ok(timed(|| {
            for reply in [&medium_reply, &large_reply] {
                black_box(
                    serde_json::to_string(reply).expect("value-tree rendering is infallible"),
                );
            }
        })
        .0)
    })?;
    t.push("json.render_mb_per_s", megabytes / render_s, "MB/s");
    let mut buffer = Vec::with_capacity(frames[0].len() + 4);
    let frame_s = per_call_s(200, |_| {
        buffer.clear();
        write_frame(&mut buffer, &frames[0]).expect("writing to memory");
        black_box(read_frame(&mut buffer.as_slice()).expect("reading from memory"));
    })?;
    t.push("wire.frame_roundtrip_us", frame_s * 1e6, "us");
    let response = lookup(&medium_reply, "response").ok_or("reply without `response`")?;
    let reply_s = per_call_s(200, |_| {
        black_box(SweepResponse::from_value(response).expect("reply decodes"));
    })?;
    t.push("wire.reply_decode_us", reply_s * 1e6, "us");

    // Everything a medium warm request costs in-process: the client's
    // encode and decode plus the server's whole path.
    let in_process_s = median_of(|| {
        let (secs, result) = timed(|| -> Res<()> {
            let (reply, _) = server.round_trip(&mut idle, 2, medium)?;
            let text = serde_json::to_string(&reply).expect("value-tree rendering is infallible");
            let parsed = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            let response = lookup(&parsed, "response").ok_or("reply without `response`")?;
            black_box(SweepResponse::from_value(response).map_err(|e| e.to_string())?);
            Ok(())
        });
        result.map(|()| secs)
    })?;
    drop(server);

    // The live server on the same warm cache.
    let live = ServerProc::spawn(&ctx.bin, ctx.clients, warm_cache)?;
    let connect_s = median_of(|| {
        let (secs, result) = timed(|| Client::connect(live.addr).and_then(|mut c| c.ping()));
        result.map(|()| secs).map_err(|e| e.to_string())
    })?;
    let mut client = Client::connect(live.addr).map_err(|e| e.to_string())?;
    let pings: Vec<f64> = (0..25)
        .map(|_| {
            let (secs, result) = timed(|| client.ping());
            result.map(|()| secs).map_err(|e| e.to_string())
        })
        .collect::<Res<_>>()?;
    let done: Vec<f64> = (0..15)
        .map(|_| {
            check_interrupt()?;
            let (secs, result) = timed(|| client.submit(medium).and_then(|r| client.wait(r.id)));
            result.map(|_| secs).map_err(|e| e.to_string())
        })
        .collect::<Res<_>>()?;
    drop(client);
    live.shutdown()?;
    let done_s = median(&done).expect("15 samples");
    t.0.push(
        Reading::new(
            "server.ping_rtt_us",
            median(&pings).expect("25 samples") * 1e6,
            "us",
        )
        .with_n(pings.len()),
    );
    t.push("server.connect_us", connect_s * 1e6, "us");
    t.0.push(
        Reading::new(
            "server.transport_share",
            1.0 - in_process_s / done_s,
            "ratio",
        )
        .with_n(done.len()),
    );
    Ok(())
}

fn deque_layers(t: &mut Table) -> Res<()> {
    const OPS: usize = 1_000_000;
    let worker: Worker<usize> = Worker::new_fifo();
    let push_pop = median_of(|| {
        Ok(timed(|| {
            for i in 0..OPS {
                worker.push(i);
                black_box(worker.pop());
            }
        })
        .0 / OPS as f64)
    })?;
    t.push("deque.push_pop_ns", push_pop * 1e9, "ns");
    let injector: Injector<usize> = Injector::new();
    let steal = median_of(|| {
        Ok(timed(|| {
            for i in 0..OPS {
                injector.push(i);
                black_box(injector.steal().success());
            }
        })
        .0 / OPS as f64)
    })?;
    t.push("deque.injector_steal_ns", steal * 1e9, "ns");
    Ok(())
}

/// Measure every workload-independent layer metric.
pub fn measure(ctx: &Ctx) -> Res<Vec<Reading>> {
    let registry = Registry::standard();
    let scratch = Scratch::new(&ctx.out_dir, "layers")?;
    let popular = popular_set();
    let pick = |class: Class| {
        popular
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, req)| req.clone())
            .expect("every class is in the popular set")
    };
    let (small, medium, large) = (pick(Class::Small), pick(Class::Medium), pick(Class::Large));

    let mut t = Table(Vec::new());
    des_and_cluster(&mut t)?;
    models(&mut t, &registry)?;
    cache_layers(&mut t, &registry, &scratch)?;

    // One warm cache for the service, wire and server layers.
    let warm_cache = scratch.join("warm-cache");
    let filler = start_service(ctx.clients, Some(&warm_cache))?;
    for req in [&small, &medium, &large] {
        submit_wait(&filler, req)?;
    }
    drop(filler);

    service_and_runner(
        &mut t,
        ctx,
        &registry,
        &scratch,
        &warm_cache,
        &small,
        &large,
    )?;
    wire_and_server(&mut t, ctx, &registry, &warm_cache, &medium, &large)?;
    deque_layers(&mut t)?;
    Ok(t.0)
}
