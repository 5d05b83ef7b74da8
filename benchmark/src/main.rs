//! `benchmark` — the repository benchmark. See `README.md` beside this
//! crate for the protocol, the metric tables and how to read the output.
//!
//! ```text
//! benchmark run                      all four workloads untraced, then the traced pass
//! benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                                    one run; the last stdout line is the result object
//! benchmark run --smoke              every window shrunk to 2 s, to check the plumbing
//! benchmark run --repeat N --out F   N sets (seeds N.., N+1, ..) into one result file
//! benchmark run --list-inputs        print the generated inputs and their SHA-256
//! benchmark compare A.json B.json    verdict per (workload, metric); non-zero on `regressed`
//! ```

mod compare;
mod gen;
mod harness;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use gen::{Workload, WORKLOADS};
use harness::Res;
use metrics::{Reading, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

/// Measured seconds per run unless `--seconds` says otherwise; the same
/// number is `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 2.0;

const USAGE: &str = "usage:
  benchmark run [--workload trace_cold|fanout_cold|serve_warm|serve_mixed]
                [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                [--repeat N] [--out FILE] [--list-inputs]
  benchmark compare A.json B.json";

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: u64,
    out: Option<PathBuf>,
    list_inputs: bool,
}

fn parse_run(args: &[String]) -> Res<RunArgs> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        repeat: 1,
        out: None,
        list_inputs: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))
        };
        let number = |text: &String| {
            text.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{flag} expects a non-negative number, got `{text}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                let text = value()?;
                parsed.seed = text
                    .parse()
                    .map_err(|_| format!("--seed expects a whole number, got `{text}`"))?;
            }
            "--seconds" => parsed.seconds = number(value()?)?.max(0.2),
            "--trace" => parsed.traced = number(value()?)? != 0.0,
            "--repeat" => parsed.repeat = (number(value()?)? as u64).max(1),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.seconds = SMOKE_SECONDS,
            "--list-inputs" => parsed.list_inputs = true,
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn print_report(outcome: &Outcome) {
    let r = &outcome.result;
    println!(
        "\n== {} (seed {}, {} s{}) — inputs sha256 {}",
        r.workload,
        r.seed,
        r.seconds,
        if r.traced { ", traced pass" } else { "" },
        r.input_digest
    );
    if let Some(w) = Workload::parse(&r.workload) {
        println!("  why: {}", w.why());
    }
    for reading in &r.readings {
        println!(
            "  {:<36} {:>16.4} {:<6}{}",
            reading.name,
            reading.value,
            reading.unit,
            reading.n.map_or(String::new(), |n| format!(" n={n}"))
        );
    }
    println!("  attempted {}  failed {}", r.attempted, r.failed);
    for note in &outcome.notes {
        println!("  {note}");
    }
}

fn write_file(path: &Path, text: &str) -> Res<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Run one workload once; on a traced run add the layer table and write
/// `trace-<workload>.json`.
fn one_run(ctx: &Ctx, workload: Workload, layers: Option<&[Reading]>) -> Res<Outcome> {
    let mut outcome = workloads::run(ctx, workload)?;
    if ctx.traced {
        let measured;
        let layers = match layers {
            Some(shared) => shared,
            None => {
                measured = layers::measure(ctx)?;
                &measured
            }
        };
        outcome.result.readings.extend_from_slice(layers);
        let layer_rows: Vec<&Reading> = metrics::per_layer()
            .iter()
            .filter_map(|l| outcome.result.get(&l.name))
            .collect();
        let doc = trace::to_value(workload.name(), &outcome.spans, &layer_rows);
        let path = ctx.out_dir.join(format!("trace-{}.json", workload.name()));
        let text = serde_json::to_string_pretty(&doc).expect("value-tree rendering is infallible");
        write_file(&path, &text)?;
        outcome
            .notes
            .push(format!("spans and layer table: {}", path.display()));
    }
    print_report(&outcome);
    Ok(outcome)
}

fn cmd_run(args: RunArgs) -> Res<ExitCode> {
    let clients = harness::client_count();
    let selected: Vec<Workload> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    if args.list_inputs {
        for w in selected {
            let inputs = gen::Inputs::generate(w, args.seed, clients);
            for line in inputs.lines() {
                println!("{} {line}", w.name());
            }
            println!("{} sha256 {}", w.name(), inputs.digest());
        }
        return Ok(ExitCode::SUCCESS);
    }

    harness::install_interrupt_flag();
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let (bin, build_s) = harness::build_scenarios(&root)?;
    let out_dir = root.join("benchmark/out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    println!(
        "benchmark: {clients} client connection(s) and worker thread(s) on {} core(s); build_s {build_s:.3} s",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let ctx = |seed: u64, traced: bool| Ctx {
        bin: bin.clone(),
        out_dir: out_dir.clone(),
        clients,
        seed,
        seconds: args.seconds,
        traced,
    };

    let mut runs: Vec<RunResult> = Vec::new();
    if let Some(workload) = args.workload {
        // The driver's form: one run, the result object on the last line.
        let outcome = one_run(&ctx(args.seed, args.traced), workload, None)?;
        let line = outcome.result.driver_line()?;
        runs.push(outcome.result);
        if let Some(path) = &args.out {
            write_file(path, &metrics::results_to_json(&runs))?;
        }
        println!("{line}");
    } else {
        for rep in 0..args.repeat {
            for workload in WORKLOADS {
                runs.push(one_run(&ctx(args.seed + rep, false), workload, None)?.result);
            }
        }
        let traced = ctx(args.seed, true);
        let layers = layers::measure(&traced)?;
        for workload in WORKLOADS {
            runs.push(one_run(&traced, workload, Some(&layers))?.result);
        }
        let path = args.out.unwrap_or_else(|| out_dir.join("results.json"));
        write_file(&path, &metrics::results_to_json(&runs))?;
        println!("\nresults: {}", path.display());
    }
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    if failed > 0 {
        eprintln!("benchmark: {failed} operation(s) failed or returned a wrong artifact");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(a: &str, b: &str) -> Res<ExitCode> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| metrics::results_from_json(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = (load(a)?, load(b)?);
    let rows = compare::compare(&a, &b);
    compare::print(&rows);
    let mismatches = compare::exact_mismatches(&a, &b);
    for line in &mismatches {
        println!("exact count differs: {line}");
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved, {} exact mismatch(es)",
        count(compare::Verdict::Ok),
        count(compare::Verdict::Regressed),
        count(compare::Verdict::Unresolved),
        mismatches.len()
    );
    Ok(if count(compare::Verdict::Regressed) > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(cmd_run),
        Some("compare") if args.len() == 3 => cmd_compare(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
