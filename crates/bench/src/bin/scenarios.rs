//! `scenarios` — the unified scenario CLI: a thin front over the sweep
//! engine's two entry points.
//!
//! ```text
//! scenarios list
//! scenarios report <name> | --all
//! scenarios run <name> | --all [--seeds N] [--threads K] [--json PATH]
//!                              [--order cost|input]
//!                              [--cache-dir PATH] [--cache-stats]
//!                              [--param k=v]... [--grid k=v1,v2,...]...
//! scenarios serve [--addr HOST:PORT] [--threads K] [--cache-dir PATH]
//! scenarios submit <name>... | --all [--addr HOST:PORT] [--seeds N]
//!                              [--json PATH] [--order cost|input]
//!                              [--param k=v]... [--grid k=v1,v2,...]... [--wait]
//! scenarios status [--addr HOST:PORT] [<id>]
//! scenarios cancel [--addr HOST:PORT] <id>
//! scenarios shutdown [--addr HOST:PORT]
//! ```
//!
//! `run` builds a versioned [`SweepRequest`] from its flags, validates it
//! and runs it on a [`SweepRunner`], the engine's synchronous entry point;
//! `serve` puts a [`Service`], the long-running one, behind the TCP front,
//! and `submit`/`status`/`cancel` are its wire clients. Both entry points
//! plan, run and finalize through the same engine and render with the same
//! function, so a sweep gives byte-identical artifacts whether it ran via
//! `run`, or via `submit --wait` against a server, or was answered straight
//! from the memoization cache. Each subcommand accepts exactly the flags on
//! its own usage line.
//!
//! `--cache-dir` attaches the persistent memoization cache: jobs already
//! stored under the current engine salt are served bit-exactly without
//! simulating, so a repeated sweep over an unchanged tree is incremental.
//! The artifact stays byte-identical cached or not; hit/miss/bytes/saved
//! wall-clock land in a `<artifact>.cache.json` sidecar (printed too under
//! `--cache-stats`).

use scenarios::report::fmt;
use scenarios::service::{Service, ServiceConfig};
use scenarios::wire::Client;
use scenarios::{
    CacheStats, Error, JobOrder, ParamValue, Registry, ResultCache, Server, SweepRequest,
    SweepResponse, SweepResult, SweepRunner, SweepStatus, SweepSuite,
};
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  scenarios list
  scenarios report <name> | --all
  scenarios run <name> | --all [--seeds N] [--threads K] [--json PATH]
                               [--order cost|input]
                               [--cache-dir PATH] [--cache-stats]
                               [--param k=v]... [--grid k=v1,v2,...]...
  scenarios serve [--addr HOST:PORT] [--threads K] [--cache-dir PATH]
  scenarios submit <name>... | --all [--addr HOST:PORT] [--seeds N] [--json PATH]
                             [--order cost|input] [--param k=v]...
                             [--grid k=v1,v2,...]... [--wait]
  scenarios status [--addr HOST:PORT] [<id>]
  scenarios cancel [--addr HOST:PORT] <id>
  scenarios shutdown [--addr HOST:PORT]";

/// The flags of each sweep subcommand's usage line; any other is unknown to it.
const RUN_FLAGS: &[&str] = &[
    "--all",
    "--seeds",
    "--threads",
    "--json",
    "--order",
    "--cache-dir",
    "--cache-stats",
    "--param",
    "--grid",
];
const SERVE_FLAGS: &[&str] = &["--addr", "--threads", "--cache-dir"];
const SUBMIT_FLAGS: &[&str] = &[
    "--all", "--addr", "--seeds", "--json", "--order", "--param", "--grid", "--wait",
];

/// Where `submit`/`status`/`cancel` look for a server, and where `serve`
/// binds, unless `--addr` overrides.
const DEFAULT_ADDR: &str = "127.0.0.1:7411";

/// CLI failures: either a usage problem (flag parsing, bad invocation) or
/// a structured library error — the one `scenarios::Error` surface the
/// service, cache, and wire all report through.
enum CliError {
    Usage(String),
    Lib(Error),
}

impl From<Error> for CliError {
    fn from(e: Error) -> CliError {
        CliError::Lib(e)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Usage(msg)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Lib(e) => write!(f, "{e}"),
        }
    }
}

/// Everything `run`/`serve`/`submit` parse: the portable request plus
/// local-only execution knobs (threads/cache/artifact paths never cross the
/// wire).
struct SweepInvocation {
    request: SweepRequest,
    threads: usize,
    json: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    cache_stats: bool,
    addr: String,
    wait: bool,
}

/// The `<artifact>.cache.json` sidecar: memoization counters for one run.
/// Kept out of the artifact itself so cached and uncached sweeps stay
/// byte-identical (`cmp`-able) while CI still gates on the hit rate.
#[derive(Serialize)]
struct CacheSidecar {
    cache_dir: String,
    salt: String,
    hits: u64,
    misses: u64,
    hit_rate: f64,
    entries: u64,
    stale_dropped: u64,
    bytes_on_disk: u64,
    saved_secs: f64,
    wall_secs: f64,
}

fn parse_kv(arg: &str, flag: &str) -> Result<(String, String), String> {
    arg.split_once('=')
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .ok_or_else(|| format!("{flag} expects key=value, got `{arg}`"))
}

fn parse_sweep(args: &[String], flags: &[&str]) -> Result<SweepInvocation, String> {
    let mut inv = SweepInvocation {
        request: SweepRequest::new(),
        threads: ServiceConfig::new().threads,
        json: None,
        cache_dir: None,
        cache_stats: false,
        addr: DEFAULT_ADDR.to_string(),
        wait: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with('-') && !flags.contains(&arg.as_str()) {
            return Err(format!("unknown flag `{arg}`"));
        }
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match arg.as_str() {
            "--all" => inv.request = inv.request.clone().every_scenario(),
            "--seeds" => {
                let seeds: usize = value_of("--seeds")?
                    .parse()
                    .map_err(|_| "--seeds expects a positive integer".to_string())?;
                inv.request = inv.request.clone().with_seeds(seeds);
            }
            "--threads" => {
                inv.threads = value_of("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects a positive integer".to_string())?;
            }
            "--json" => inv.json = Some(PathBuf::from(value_of("--json")?)),
            "--order" => {
                inv.request = inv
                    .request
                    .clone()
                    .with_order(JobOrder::parse(&value_of("--order")?)?);
            }
            "--cache-dir" => inv.cache_dir = Some(PathBuf::from(value_of("--cache-dir")?)),
            "--cache-stats" => inv.cache_stats = true,
            "--addr" => inv.addr = value_of("--addr")?,
            "--wait" => inv.wait = true,
            "--param" => {
                let (k, v) = parse_kv(&value_of("--param")?, "--param")?;
                inv.request = inv.request.clone().param(&k, ParamValue::parse(&v));
            }
            "--grid" => {
                let (k, vs) = parse_kv(&value_of("--grid")?, "--grid")?;
                let values: Vec<ParamValue> = vs.split(',').map(ParamValue::parse).collect();
                inv.request = inv.request.clone().axis(&k, values);
            }
            name => inv.request = inv.request.clone().scenario(name),
        }
    }
    // A subcommand with `--all` on its usage line sweeps targets and needs
    // one; the one without (`serve`) takes none.
    let takes_targets = flags.contains(&"--all");
    if let (false, Some(name)) = (takes_targets, inv.request.scenarios.first()) {
        return Err(format!("serve takes no scenario arguments, got `{name}`"));
    }
    if takes_targets && inv.request.scenarios.is_empty() && !inv.request.all {
        return Err("pick a scenario name or --all".to_string());
    }
    Ok(inv)
}

fn print_sweep(result: &SweepResult) {
    println!(
        "\n=== {} ({} point{}, {} seeds) ===",
        result.scenario,
        result.points.len(),
        if result.points.len() == 1 { "" } else { "s" },
        result.seeds.len()
    );
    for point in &result.points {
        println!("-- params: {}", point.params.label());
        println!(
            "   {:<34} {:>12} {:>10} {:>12} {:>12}",
            "metric", "mean", "±ci95", "p50", "p99"
        );
        for (name, s) in &point.summary {
            println!(
                "   {:<34} {:>12} {:>10} {:>12} {:>12}",
                name,
                fmt(s.mean),
                fmt(s.ci95),
                fmt(s.p50),
                fmt(s.p99)
            );
        }
    }
}

fn print_response(response: &SweepResponse) {
    println!("request {:>4}  {}", response.id, response.status);
}

fn default_artifact_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures/BENCH_scenarios.json")
}

fn write_artifact(path: &PathBuf, artifact: &str) -> Result<(), CliError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Usage(format!("creating {}: {e}", dir.display())))?;
    }
    std::fs::write(path, artifact)
        .map_err(|e| CliError::Usage(format!("writing {}: {e}", path.display())))?;
    Ok(())
}

/// The line every cache-backed command opens with.
fn print_cache_opened(dir: &std::path::Path, entries: u64) {
    println!(
        "[cache] {} ({entries} stored result{}, salt {})",
        dir.display(),
        if entries == 1 { "" } else { "s" },
        scenarios::engine_salt()
    );
}

/// `run` — one synchronous sweep: validate, run on a [`SweepRunner`] with
/// the cache attached, render. The same engine, cache and renderer as the
/// server, so the same artifact bytes.
fn cmd_run(registry: Registry, inv: SweepInvocation) -> Result<(), CliError> {
    let cache = inv
        .cache_dir
        .as_deref()
        .map(ResultCache::open)
        .transpose()?;
    if let (Some(dir), Some(cache)) = (&inv.cache_dir, &cache) {
        print_cache_opened(dir, cache.stats().entries);
    }

    let validated = inv.request.validate(&registry)?;
    for warning in &validated.warnings {
        println!("[scenarios] {warning}");
    }
    for (name, grid) in &validated.tasks {
        println!(
            "[scenarios] queueing {name} ({} jobs)",
            grid.points(&scenarios::Params::new()).len() * validated.seeds.len(),
        );
    }
    let mut runner =
        SweepRunner::new(inv.threads, validated.seeds.clone()).with_order(validated.order);
    if let Some(cache) = cache {
        runner = runner.with_cache(cache);
    }
    println!(
        "[scenarios] running {} jobs on {} threads ({} order)",
        validated.total_jobs,
        runner.thread_count(),
        match validated.order {
            JobOrder::Cost => "longest-expected-first",
            JobOrder::Input => "input",
        }
    );

    let sweep_started = Instant::now();
    let results = runner.try_run_suite(&validated.resolve(&registry))?;
    let wall_secs = sweep_started.elapsed().as_secs_f64();
    for result in &results {
        print_sweep(result);
    }

    let seeds = validated.seeds;
    let artifact = SweepSuite { seeds, results }.artifact_json();
    let path = inv.json.clone().unwrap_or_else(default_artifact_path);
    write_artifact(&path, &artifact)?;
    println!("\n[json] {}", path.display());

    // Memoization counters go to a sidecar, never the artifact: cached and
    // uncached sweeps must stay byte-identical. CI's incremental-sweep job
    // gates on this file reporting a 100% hit rate for the warm pass.
    if let (Some(dir), Some(stats)) = (&inv.cache_dir, runner.cache_stats()) {
        let sidecar = sidecar_for(dir, &stats, wall_secs);
        let sidecar_path = path.with_extension("cache.json");
        let json =
            serde_json::to_string_pretty(&sidecar).expect("value-tree rendering is infallible");
        std::fs::write(&sidecar_path, json)
            .map_err(|e| CliError::Usage(format!("writing {}: {e}", sidecar_path.display())))?;
        println!("[cache] {}", sidecar_path.display());
        if inv.cache_stats {
            print_cache_stats(&stats, sidecar.hit_rate, wall_secs);
        }
    }
    Ok(())
}

fn print_cache_stats(stats: &CacheStats, hit_rate: f64, wall_secs: f64) {
    println!(
        "[cache] {} hit{} / {} jobs ({:.1}%), {} miss{}, {} entr{} ({} bytes) on disk, \
         ~{:.2}s of simulation served from cache, sweep wall-clock {:.2}s",
        stats.hits,
        if stats.hits == 1 { "" } else { "s" },
        stats.hits + stats.misses,
        hit_rate * 100.0,
        stats.misses,
        if stats.misses == 1 { "" } else { "es" },
        stats.entries,
        if stats.entries == 1 { "y" } else { "ies" },
        stats.bytes_on_disk,
        stats.saved_secs,
        wall_secs,
    );
    if stats.stale_dropped > 0 {
        println!(
            "[cache] {} stale entr{} (engine salt changed) garbage-collected",
            stats.stale_dropped,
            if stats.stale_dropped == 1 { "y" } else { "ies" },
        );
    }
}

fn sidecar_for(dir: &std::path::Path, stats: &CacheStats, wall_secs: f64) -> CacheSidecar {
    let total = stats.hits + stats.misses;
    CacheSidecar {
        cache_dir: dir.display().to_string(),
        salt: scenarios::engine_salt(),
        hits: stats.hits,
        misses: stats.misses,
        hit_rate: if total == 0 {
            0.0
        } else {
            stats.hits as f64 / total as f64
        },
        entries: stats.entries,
        stale_dropped: stats.stale_dropped,
        bytes_on_disk: stats.bytes_on_disk,
        saved_secs: stats.saved_secs,
        wall_secs,
    }
}

/// `serve` — the what-if service on TCP, until a `shutdown` verb arrives.
fn cmd_serve(registry: Registry, inv: SweepInvocation) -> Result<(), CliError> {
    let scenario_count = registry.len();
    let mut config = ServiceConfig::new().with_threads(inv.threads);
    if let Some(dir) = &inv.cache_dir {
        config = config.with_cache_dir(dir);
    }
    let service = Service::start(registry, config)?;
    if let (Some(dir), Some(stats)) = (&inv.cache_dir, service.cache_stats()) {
        print_cache_opened(dir, stats.entries);
    }
    let server = Server::bind(service, inv.addr.as_str())?;
    println!(
        "[serve] what-if service listening on {} ({} scenarios, {} worker threads)",
        server.local_addr()?,
        scenario_count,
        inv.threads,
    );
    server.run()?;
    println!("[serve] shut down");
    Ok(())
}

/// `submit` — enqueue on a remote server; with `--wait`, block for the
/// artifact and write it exactly as `run` would have.
fn cmd_submit(inv: SweepInvocation) -> Result<(), CliError> {
    let mut client = Client::connect(inv.addr.as_str())?;
    let receipt = client.submit(&inv.request)?;
    for warning in &receipt.warnings {
        println!("[scenarios] {warning}");
    }
    println!(
        "[submit] request {} on {} — {} ({} job{}, {} from cache{})",
        receipt.id,
        inv.addr,
        receipt.status,
        receipt.total_jobs,
        if receipt.total_jobs == 1 { "" } else { "s" },
        receipt.cache_hits,
        if receipt.deduped {
            ", coalesced onto an identical in-flight request"
        } else {
            ""
        },
    );
    if !inv.wait {
        return Ok(());
    }
    let response = client.wait(receipt.id)?;
    match response.status {
        SweepStatus::Done => {
            let artifact = response
                .artifact
                .expect("done responses carry the artifact");
            let path = inv.json.clone().unwrap_or_else(default_artifact_path);
            write_artifact(&path, &artifact)?;
            println!("[json] {}", path.display());
            Ok(())
        }
        other => Err(CliError::Usage(format!("request {}: {other}", receipt.id))),
    }
}

/// `status [<id>]` — one request's lifecycle, or the server's whole list.
fn cmd_status(addr: &str, id: Option<u64>) -> Result<(), CliError> {
    let mut client = Client::connect(addr)?;
    match id {
        Some(id) => print_response(&client.status(id)?),
        None => {
            let listed = client.list()?;
            if listed.is_empty() {
                println!("no requests on {addr}");
            }
            for response in &listed {
                print_response(response);
            }
        }
    }
    Ok(())
}

fn cmd_cancel(addr: &str, id: u64) -> Result<(), CliError> {
    let mut client = Client::connect(addr)?;
    let response = client.cancel(id)?;
    print_response(&response);
    Ok(())
}

/// Parse `status`/`cancel` args: an optional `--addr` plus an optional id.
fn parse_addr_id(args: &[String]) -> Result<(String, Option<u64>), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut id = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--addr expects a value".to_string())?;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            raw => {
                id = Some(
                    raw.parse::<u64>()
                        .map_err(|_| format!("expected a numeric request id, got `{raw}`"))?,
                );
            }
        }
    }
    Ok((addr, id))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = Registry::standard();
    let result: Result<(), CliError> = match args.first().map(String::as_str) {
        Some("list") => {
            println!("registered scenarios:");
            for s in registry.iter() {
                println!("  {:<24} {}", s.name(), s.title());
            }
            Ok(())
        }
        Some("report") => {
            let rest = &args[1..];
            if rest.iter().any(|a| a == "--all") {
                for s in registry.iter() {
                    s.report();
                    println!();
                }
                Ok(())
            } else if let Some(name) = rest.first() {
                match registry.get(name) {
                    Some(s) => {
                        s.report();
                        Ok(())
                    }
                    None => Err(CliError::Usage(format!(
                        "unknown scenario `{name}` (try `scenarios list`)"
                    ))),
                }
            } else {
                Err(CliError::Usage(
                    "report expects a scenario name or --all".to_string(),
                ))
            }
        }
        Some("run") => parse_sweep(&args[1..], RUN_FLAGS)
            .map_err(CliError::Usage)
            .and_then(|inv| cmd_run(registry, inv)),
        Some("serve") => parse_sweep(&args[1..], SERVE_FLAGS)
            .map_err(CliError::Usage)
            .and_then(|inv| cmd_serve(registry, inv)),
        Some("submit") => parse_sweep(&args[1..], SUBMIT_FLAGS)
            .map_err(CliError::Usage)
            .and_then(cmd_submit),
        Some("status") => parse_addr_id(&args[1..])
            .map_err(CliError::Usage)
            .and_then(|(addr, id)| cmd_status(&addr, id)),
        Some("cancel") => {
            parse_addr_id(&args[1..])
                .map_err(CliError::Usage)
                .and_then(|(addr, id)| match id {
                    Some(id) => cmd_cancel(&addr, id),
                    None => Err(CliError::Usage("cancel expects a request id".to_string())),
                })
        }
        Some("shutdown") => {
            parse_addr_id(&args[1..])
                .map_err(CliError::Usage)
                .and_then(|(addr, _)| {
                    Client::connect(addr.as_str())?.shutdown()?;
                    println!("[shutdown] asked {addr} to stop");
                    Ok(())
                })
        }
        _ => Err(CliError::Usage(USAGE.to_string())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
