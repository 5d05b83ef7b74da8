//! `perf_gate` — CI throughput-regression gate for the bench suite.
//!
//! ```text
//! perf_gate check --baseline ci/perf_baseline.json \
//!                 --current target/figures/BENCH_event_loop.json \
//!                 --current target/figures/BENCH_cluster_sched.json \
//!                 [--max-regression 0.20] [--sweep-seconds N] [--report PATH]
//! perf_gate update-baseline --baseline ci/perf_baseline.json \
//!                 --current BENCH_a.json [--current BENCH_b.json] [--dry-run]
//! ```
//!
//! `check` compares every metric of the committed baseline against the
//! freshly measured numbers (all flat `"name": ops_per_sec` JSON objects —
//! `cargo bench -p des` writes the event-loop one, `cargo bench -p cluster
//! --features oracle` the scheduler one). `--current` may repeat: the files
//! are concatenated into one metric namespace, so a single baseline gates
//! every bench. Exits non-zero if any throughput regresses by more than
//! `--max-regression` (default 20%). The optional `--report` JSON records
//! baseline/current/ratio per metric plus the timed sweep wall-clock, so CI
//! artifacts accumulate a perf trajectory.
//!
//! Baselines are machine-dependent: refresh with `update-baseline` when the
//! reference hardware changes, and keep the committed numbers conservative.
//! `update-baseline --dry-run` prints the old → new diff per metric (the
//! same table CI logs on every run) without touching the baseline file, so
//! a refresh can be reviewed before it is committed.

use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// Render `"key": number` pairs as one flat, pretty-printed JSON object (the
/// shape of bench result files and `ci/perf_baseline.json`).
fn render_flat_numbers<'a>(entries: impl Iterator<Item = (&'a str, Value)>) -> String {
    let map = Value::Map(entries.map(|(k, v)| (k.to_string(), v)).collect());
    let mut json = serde_json::to_string_pretty(&map).expect("value-tree rendering is infallible");
    json.push('\n');
    json
}

/// Parse a flat JSON object of `"key": number` pairs, in file order. Any
/// other structure is an error; an empty object is valid.
fn parse_flat_numbers(text: &str) -> Result<Vec<(String, f64)>, String> {
    let Value::Map(entries) = serde_json::from_str(text).map_err(|e| e.to_string())? else {
        return Err("expected a JSON object".to_string());
    };
    entries
        .into_iter()
        .map(|(key, value)| match value {
            Value::U64(n) => Ok((key, n as f64)),
            Value::I64(n) => Ok((key, n as f64)),
            Value::F64(x) => Ok((key, x)),
            other => Err(format!("value of `{key}` is not a number: {other:?}")),
        })
        .collect()
}

/// Read a flat JSON object of `"key": number` pairs. The bench writes this
/// shape itself; anything else is a usage error worth failing loudly on.
fn parse_flat_json(path: &PathBuf) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let out = parse_flat_numbers(&text).map_err(|e| format!("{path:?}: {e}"))?;
    if out.is_empty() {
        return Err(format!("{path:?}: no metrics found"));
    }
    Ok(out)
}

struct Args {
    baseline: PathBuf,
    currents: Vec<PathBuf>,
    max_regression: f64,
    sweep_seconds: Option<f64>,
    report: Option<PathBuf>,
    dry_run: bool,
}

/// Concatenate the metrics of every `--current` file into one namespace;
/// duplicate keys across files are a wiring error, not a tolerable merge.
fn parse_currents(paths: &[PathBuf]) -> Result<Vec<(String, f64)>, String> {
    let mut all: Vec<(String, f64)> = Vec::new();
    for path in paths {
        for (key, value) in parse_flat_json(path)? {
            if all.iter().any(|(k, _)| *k == key) {
                return Err(format!(
                    "{path:?}: metric `{key}` appears in two --current files"
                ));
            }
            all.push((key, value));
        }
    }
    Ok(all)
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut baseline = None;
    let mut currents = Vec::new();
    let mut max_regression = 0.20;
    let mut sweep_seconds = None;
    let mut report = None;
    let mut dry_run = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
            "--current" => currents.push(PathBuf::from(value("--current")?)),
            "--max-regression" => {
                max_regression = value("--max-regression")?
                    .parse()
                    .map_err(|_| "--max-regression expects a fraction like 0.20".to_string())?;
            }
            "--sweep-seconds" => {
                sweep_seconds = Some(
                    value("--sweep-seconds")?
                        .parse()
                        .map_err(|_| "--sweep-seconds expects a number".to_string())?,
                );
            }
            "--report" => report = Some(PathBuf::from(value("--report")?)),
            "--dry-run" => dry_run = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if currents.is_empty() {
        return Err("--current is required (may repeat)".to_string());
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        currents,
        max_regression,
        sweep_seconds,
        report,
        dry_run,
    })
}

fn cmd_check(args: Args) -> Result<bool, String> {
    let baseline = parse_flat_json(&args.baseline)?;
    let current = parse_currents(&args.currents)?;
    let mut pass = true;
    let mut report_rows = String::new();
    println!(
        "perf gate: current vs baseline (allowed regression {:.0}%)",
        args.max_regression * 100.0
    );
    println!(
        "  {:<40} {:>14} {:>14} {:>7}  status",
        "metric", "baseline", "current", "ratio"
    );
    for (key, base) in &baseline {
        let Some((_, cur)) = current.iter().find(|(k, _)| k == key) else {
            println!("  {key:<40} {base:>14.0} {:>14} {:>7}  MISSING", "-", "-");
            pass = false;
            continue;
        };
        let ratio = cur / base;
        let ok = ratio >= 1.0 - args.max_regression;
        pass &= ok;
        println!(
            "  {key:<40} {base:>14.0} {cur:>14.0} {ratio:>6.2}x  {}",
            if ok { "ok" } else { "REGRESSION" }
        );
        report_rows.push_str(&format!(
            "    {{\"metric\": \"{key}\", \"baseline\": {base:.0}, \
             \"current\": {cur:.0}, \"ratio\": {ratio:.4}, \"pass\": {ok}}},\n"
        ));
    }
    if let Some(s) = args.sweep_seconds {
        println!("  scenario sweep wall-clock: {s:.1} s (informational)");
    }
    if let Some(path) = &args.report {
        let rows = report_rows.trim_end_matches(",\n").to_string();
        let sweep = args
            .sweep_seconds
            .map_or("null".to_string(), |s| format!("{s:.1}"));
        let json = format!(
            "{{\n  \"max_regression\": {:.2},\n  \"sweep_wall_seconds\": {sweep},\n  \
             \"pass\": {pass},\n  \"metrics\": [\n{rows}\n  ]\n}}\n",
            args.max_regression
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        }
        std::fs::write(path, json).map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("[report] {}", path.display());
    }
    Ok(pass)
}

fn cmd_update_baseline(args: Args) -> Result<(), String> {
    // Validate before writing so a broken bench run can't poison the gate.
    let current = parse_currents(&args.currents)?;
    // Diff against the existing baseline (if any) so the refresh — or the
    // --dry-run preview of it — shows exactly what would change. CI prints
    // this table on every run, making the old → new trajectory greppable.
    let old = if args.baseline.exists() {
        parse_flat_json(&args.baseline)?
    } else {
        Vec::new()
    };
    let sources = args
        .currents
        .iter()
        .map(|p| p.display().to_string())
        .collect::<Vec<_>>()
        .join(", ");
    println!("baseline diff ({} -> {sources}):", args.baseline.display());
    for (key, cur) in &current {
        match old.iter().find(|(k, _)| k == key) {
            Some((_, base)) => println!(
                "  {key:<40} {base:>14.0} -> {cur:>14.0}  ({:+.1}%)",
                (cur / base - 1.0) * 100.0
            ),
            None => println!("  {key:<40} {:>14} -> {cur:>14.0}  (new)", "-"),
        }
    }
    for (key, base) in &old {
        if !current.iter().any(|(k, _)| k == key) {
            println!("  {key:<40} {base:>14.0} -> {:>14}  (removed)", "-");
        }
    }
    if args.dry_run {
        println!("dry run: baseline left untouched");
        return Ok(());
    }
    // Write the merged namespace rather than copying one input: with several
    // `--current` files the baseline is their concatenation.
    let json = render_flat_numbers(
        current
            .iter()
            .map(|(key, value)| (key.as_str(), Value::I64(value.round() as i64))),
    );
    std::fs::write(&args.baseline, json)
        .map_err(|e| format!("writing {:?}: {e}", args.baseline))?;
    println!(
        "baseline {} refreshed from {sources}",
        args.baseline.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("check") => parse_args(&argv[1..]).and_then(|a| {
            cmd_check(a).inspect(|&pass| {
                if !pass {
                    eprintln!("perf gate FAILED: throughput regressed beyond tolerance");
                }
            })
        }),
        Some("update-baseline") => {
            parse_args(&argv[1..]).and_then(|a| cmd_update_baseline(a).map(|()| true))
        }
        _ => Err(
            "usage: perf_gate <check|update-baseline> --baseline PATH --current PATH \
                  [--current PATH ...] [--max-regression F] [--sweep-seconds N] \
                  [--report PATH] [--dry-run]"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_keys_round_trip() {
        // Bench and metric names are free text, so a key can hold every
        // character a hand-rolled splitter would trip over.
        let hostile = "fig09|reps=a\"b,c}:\\ d\nnext";
        let entries = [(hostile, 0.125), ("plain|default", 3.0)];
        let json = render_flat_numbers(entries.iter().map(|&(k, v)| (k, Value::F64(v))));
        let back = parse_flat_numbers(&json).expect("valid JSON");
        assert_eq!(back, entries.map(|(k, v)| (k.to_string(), v)));
    }

    #[test]
    fn parse_rejects_garbage_and_accepts_empty() {
        assert!(parse_flat_numbers("not json").is_err());
        assert!(parse_flat_numbers("{\"k\": abc}").is_err());
        assert!(parse_flat_numbers("[1, 2]").is_err(), "not an object");
        assert!(
            parse_flat_numbers("{\"k\": \"1\"}").is_err(),
            "not a number"
        );
        assert_eq!(parse_flat_numbers("{}\n"), Ok(Vec::new()));
    }
}
