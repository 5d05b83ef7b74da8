//! `benchmark compare A.json B.json`: per (workload, end-to-end metric),
//! both medians, the relative change, the bound, and a verdict.
//!
//! * `ok` — B is no worse than A by more than the metric's bound.
//! * `regressed` — B is worse than A by more than the bound.
//! * `unresolved` — the run-to-run spread of either side (interquartile
//!   range over median, across the runs in the file) is wider than the
//!   bound, so a difference of that size cannot be told from noise. It is
//!   still `regressed` when every run of B is worse than every run of A,
//!   and still `ok` when every run of B is better than every run of A.
//!
//! A file with a single run per workload has no spread to judge by, so
//! `unresolved` needs `benchmark run --repeat N` with N of at least 2.

use crate::metrics::{Better, RunResult, END_TO_END};
use crate::stats::{median, relative_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// Relative change in the "worse" direction: positive means B is worse.
    pub worse_by: f64,
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one metric from the per-run values of both sides.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
) -> Option<(f64, Option<f64>, Verdict)> {
    let (med_a, med_b) = (median(a)?, median(b)?);
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // A zero baseline (fail_ratio) has no relative change: any increase is
    // worse without limit.
    let worse_by = if med_a != 0.0 {
        sign * (med_b - med_a) / med_a.abs()
    } else if med_b == med_a {
        0.0
    } else {
        sign * (med_b - med_a).signum() * f64::INFINITY
    };
    let spread = match (relative_spread(a), relative_spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let worse = |x: f64, y: f64| sign * (y - x) > 0.0;
    let all_b_worse = a.iter().all(|&x| b.iter().all(|&y| worse(x, y)));
    let all_b_better = a.iter().all(|&x| b.iter().all(|&y| worse(y, x)));
    let verdict = if spread.is_some_and(|s| s > bound) && !all_b_worse && !all_b_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some((worse_by, spread, verdict))
}

/// Compare two result sets over every untraced (workload, metric) pair
/// both contain, in workload then metric-table order.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for run in a.iter().filter(|r| !r.traced) {
        if !workloads.contains(&run.workload.as_str()) {
            workloads.push(&run.workload);
        }
    }
    let values = |runs: &[RunResult], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| !r.traced && r.workload == workload)
            .filter_map(|r| r.get(metric).map(|m| m.value))
            .collect()
    };
    let mut rows = Vec::new();
    for workload in workloads {
        for def in END_TO_END.iter().filter(|m| m.bound.is_finite()) {
            let (va, vb) = (values(a, workload, def.name), values(b, workload, def.name));
            let Some((worse_by, spread, verdict)) = judge(&va, &vb, def.better, def.bound) else {
                continue;
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: def.name.to_string(),
                unit: def.unit.to_string(),
                a: median(&va).expect("judged"),
                b: median(&vb).expect("judged"),
                worse_by,
                spread,
                bound: def.bound,
                verdict,
            });
        }
    }
    rows
}

/// Counts and digests that must repeat exactly between two sets of the
/// same commit and seed; each mismatch is one line of text.
pub fn exact_mismatches(a: &[RunResult], b: &[RunResult]) -> Vec<String> {
    const EXACT: [&str; 3] = [
        "cluster.trace_events",
        "cluster.trace_jobs_completed",
        "service.hit_ratio",
    ];
    let mut out = Vec::new();
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.seed == ra.seed && r.traced == ra.traced)
        else {
            continue;
        };
        if ra.input_digest != rb.input_digest {
            out.push(format!(
                "{} seed {}: input digest {} vs {}",
                ra.workload, ra.seed, ra.input_digest, rb.input_digest
            ));
        }
        for name in EXACT {
            if let (Some(x), Some(y)) = (ra.get(name), rb.get(name)) {
                if x.value != y.value {
                    out.push(format!(
                        "{} seed {}: {name} {} vs {}",
                        ra.workload, ra.seed, x.value, y.value
                    ));
                }
            }
        }
    }
    out
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<12} {:<14} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<12} {:<14} {:>12.4} {:>12.4} {:>+8.1}% {:>8} {:>6.0}%  {} [{unit}]",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread
                .map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
            r.bound * 100.0,
            r.verdict.name(),
            unit = r.unit,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Reading;

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        let (_, _, v) = judge(&[100.0], &[109.0], Better::Lower, 0.10).unwrap();
        assert_eq!(v, Verdict::Ok);
        let (w, _, v) = judge(&[100.0], &[80.0], Better::Lower, 0.10).unwrap();
        assert_eq!(v, Verdict::Ok, "an improvement is never a regression");
        assert!(w < 0.0);
        let (_, _, v) = judge(&[100.0], &[95.0], Better::Higher, 0.10).unwrap();
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_is_regressed() {
        let (w, _, v) = judge(&[100.0], &[112.0], Better::Lower, 0.10).unwrap();
        assert_eq!(v, Verdict::Regressed);
        assert!((w - 0.12).abs() < 1e-12);
        let (_, _, v) = judge(&[100.0], &[85.0], Better::Higher, 0.10).unwrap();
        assert_eq!(v, Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [90.0, 100.0, 110.0, 120.0, 80.0];
        let b = [95.0, 115.0, 125.0, 85.0, 130.0];
        let (_, spread, v) = judge(&a, &b, Better::Lower, 0.10).unwrap();
        assert!(spread.unwrap() > 0.10);
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn a_wide_spread_still_resolves_when_every_run_agrees() {
        let a = [80.0, 100.0, 120.0];
        let worse = [200.0, 240.0, 300.0];
        let (_, _, v) = judge(&a, &worse, Better::Lower, 0.10).unwrap();
        assert_eq!(v, Verdict::Regressed);
        let better = [10.0, 20.0, 30.0];
        let (_, _, v) = judge(&a, &better, Better::Lower, 0.10).unwrap();
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn any_increase_of_a_zero_fail_ratio_is_regressed() {
        let (_, _, v) = judge(&[0.0], &[0.0], Better::Lower, 0.0).unwrap();
        assert_eq!(v, Verdict::Ok);
        let (w, _, v) = judge(&[0.0], &[0.001], Better::Lower, 0.0).unwrap();
        assert_eq!(v, Verdict::Regressed);
        assert!(w.is_infinite());
    }

    fn run(workload: &str, readings: &[(&str, f64)]) -> RunResult {
        RunResult {
            workload: workload.into(),
            seed: 1,
            seconds: 1.0,
            traced: false,
            input_digest: "d".into(),
            attempted: 1,
            failed: 0,
            readings: readings
                .iter()
                .map(|(n, v)| Reading::new(n, *v, "x"))
                .collect(),
        }
    }

    #[test]
    fn compare_pairs_rows_by_workload_and_metric() {
        let a = vec![
            run("trace_cold", &[("sweep_s", 1.0), ("peak_rss_mb", 50.0)]),
            run("serve_warm", &[("req_per_s", 100.0)]),
        ];
        let b = vec![
            run("trace_cold", &[("sweep_s", 1.3), ("peak_rss_mb", 50.0)]),
            run("serve_warm", &[("req_per_s", 99.0)]),
        ];
        let rows = compare(&a, &b);
        let verdicts: Vec<(&str, &str, Verdict)> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("trace_cold", "peak_rss_mb", Verdict::Ok),
                ("trace_cold", "sweep_s", Verdict::Regressed),
                ("serve_warm", "req_per_s", Verdict::Ok),
            ]
        );
        assert!(exact_mismatches(&a, &b).is_empty());
        let mut c = b.clone();
        c[0].input_digest = "other".into();
        assert_eq!(exact_mismatches(&a, &c).len(), 1);
    }
}
