//! The metric tables — names, units, directions and regression bounds —
//! and the result records the runs write and `compare` reads.
//!
//! `BENCHMARK.json` at the repository root lists the same end-to-end and
//! per-layer names; a self-test keeps the two in step.

use crate::gen::all_scenarios;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. `bound` is the share of the baseline median by
/// which it may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Defined on every workload, and therefore listed in `BENCHMARK.json`
    /// (whose contract has every run report every listed metric). The
    /// others exist on some workloads only and appear in the benchmark's
    /// own report and in `compare`.
    pub everywhere: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    everywhere: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        everywhere,
    }
}

/// All timing is host wall time with tracing off. README.md defines each
/// metric per workload.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("ack_ms", "ms", Better::Lower, 0.25, true),
    e2e("done_ms", "ms", Better::Lower, 0.25, true),
    e2e("resweep_s", "s", Better::Lower, 0.25, true),
    e2e("req_per_s", "1/s", Better::Higher, 0.25, true),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, true),
    e2e("sweep_s", "s", Better::Lower, 0.25, false),
    e2e("ack_p50_ms", "ms", Better::Lower, 0.10, false),
    e2e("done_p50_ms", "ms", Better::Lower, 0.10, false),
    e2e("done_p95_ms", "ms", Better::Lower, 0.15, false),
    e2e("bg_jobs_per_s", "1/s", Better::Higher, 0.10, false),
    e2e("fail_ratio", "ratio", Better::Lower, 0.0, false),
];

/// One per-layer metric of the traced pass. No bound: layers explain an
/// end-to-end movement, they do not gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Every per-layer metric, prefix = module, in report order.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let layer = |name: &str, unit, better| Layer {
        name: name.to_string(),
        unit,
        better,
    };
    let engine = [
        ("des.sim_new_us", "us", Lower),
        ("des.drain_events_per_s", "1/s", Higher),
        ("des.chain_events_per_s", "1/s", Higher),
        ("des.cancel_ops_per_s", "1/s", Higher),
        ("des.inline_hit_ratio", "ratio", Higher),
        ("cluster.trace_replay_s", "s", Lower),
        ("cluster.trace_events", "count", Lower),
        ("cluster.trace_jobs_completed", "count", Higher),
        ("cluster.trace_events_per_s", "1/s", Higher),
        ("cluster.sched_only_s", "s", Lower),
        ("cluster.sched_jobs_per_s", "1/s", Higher),
        ("cluster.sched_backlog_jobs_per_s", "1/s", Higher),
        ("cluster.monitor_sample_us", "us", Lower),
        ("cluster.trace_glue_s", "s", Lower),
    ];
    let sweep_and_service = [
        ("cache.job_key_ns", "ns", Lower),
        ("cache.lookup_hit_ns", "ns", Lower),
        ("cache.lookup_miss_ns", "ns", Lower),
        ("cache.open_ms", "ms", Lower),
        ("cache.append_us", "us", Lower),
        ("cache.commit_ms", "ms", Lower),
        ("cache.bytes_per_entry", "B", Lower),
        ("service.submit_allhit_small_us", "us", Lower),
        ("service.submit_allhit_large_us", "us", Lower),
        ("service.overhead_us_per_job", "us", Lower),
        ("service.overhead_cached_us_per_job", "us", Lower),
        ("runner.overhead_us_per_job", "us", Lower),
        ("runner.artifact_render_ms", "ms", Lower),
        ("service.hit_ratio", "ratio", Higher),
        ("request.decode_validate_us", "us", Lower),
        ("json.parse_mb_per_s", "MB/s", Higher),
        ("json.render_mb_per_s", "MB/s", Higher),
        ("wire.frame_roundtrip_us", "us", Lower),
        ("wire.reply_decode_us", "us", Lower),
        ("server.ping_rtt_us", "us", Lower),
        ("server.connect_us", "us", Lower),
        ("server.transport_share", "ratio", Lower),
        ("deque.push_pop_ns", "ns", Lower),
        ("deque.injector_steal_ns", "ns", Lower),
        ("trace.overhead_pct", "%", Lower),
    ];
    engine
        .into_iter()
        .map(|(name, unit, better)| layer(name, unit, better))
        .chain(all_scenarios().map(|s| layer(&format!("model.{s}_us"), "us", Lower)))
        .chain(
            sweep_and_service
                .into_iter()
                .map(|(name, unit, better)| layer(name, unit, better)),
        )
        .collect()
}

/// One measured value. `n` is the sample count behind a median or a
/// percentile, where there is one.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub n: Option<u64>,
}

impl Reading {
    pub fn new(name: &str, value: f64, unit: &str) -> Reading {
        Reading {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n: None,
        }
    }

    pub fn with_n(mut self, n: usize) -> Reading {
        self.n = Some(n as u64);
        self
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub input_digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub readings: Vec<Reading>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.readings.iter().find(|r| r.name == name)
    }

    /// The one-line result the driver reads: the end-to-end metrics that
    /// exist on every workload for an untraced run, every per-layer metric
    /// for a traced one.
    pub fn driver_line(&self) -> Result<String, String> {
        let names: Vec<String> = if self.traced {
            per_layer().into_iter().map(|l| l.name).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.everywhere)
                .map(|m| m.name.to_string())
                .collect()
        };
        let mut fields = Vec::new();
        for name in names {
            let r = self
                .get(&name)
                .ok_or_else(|| format!("{}: metric `{name}` was not measured", self.workload))?;
            fields.push((
                name,
                Value::Map(vec![
                    ("value".into(), Value::F64(r.value)),
                    ("unit".into(), Value::Str(r.unit.clone())),
                ]),
            ));
        }
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(fields)),
        ]);
        Ok(serde_json::to_string(&line).expect("value-tree rendering is infallible"))
    }

    pub fn to_value(&self) -> Value {
        let readings = self
            .readings
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("name".to_string(), Value::Str(r.name.clone())),
                    ("value".to_string(), Value::F64(r.value)),
                    ("unit".to_string(), Value::Str(r.unit.clone())),
                ];
                if let Some(n) = r.n {
                    fields.push(("n".to_string(), Value::U64(n)));
                }
                Value::Map(fields)
            })
            .collect();
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::U64(self.seed)),
            ("seconds".into(), Value::F64(self.seconds)),
            ("traced".into(), Value::Bool(self.traced)),
            ("input_digest".into(), Value::Str(self.input_digest.clone())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("readings".into(), Value::Seq(readings)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<RunResult, String> {
        let readings = match field(v, "readings")? {
            Value::Seq(items) => items
                .iter()
                .map(|r| {
                    Ok(Reading {
                        name: text(r, "name")?,
                        value: number(r, "value")?,
                        unit: text(r, "unit")?,
                        n: field(r, "n").ok().and_then(|n| match n {
                            Value::U64(n) => Some(*n),
                            _ => None,
                        }),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("`readings` is not an array".into()),
        };
        Ok(RunResult {
            workload: text(v, "workload")?,
            seed: number(v, "seed")? as u64,
            seconds: number(v, "seconds")?,
            traced: matches!(field(v, "traced")?, Value::Bool(true)),
            input_digest: text(v, "input_digest")?,
            attempted: number(v, "attempted")? as u64,
            failed: number(v, "failed")? as u64,
            readings,
        })
    }
}

/// A result file: every run of one invocation of `benchmark run`.
pub fn results_to_json(runs: &[RunResult]) -> String {
    let doc = Value::Map(vec![
        ("schema".into(), Value::U64(1)),
        (
            "runs".into(),
            Value::Seq(runs.iter().map(RunResult::to_value).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("value-tree rendering is infallible")
}

pub fn results_from_json(text: &str) -> Result<Vec<RunResult>, String> {
    let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
    match field(&doc, "runs")? {
        Value::Seq(runs) => runs.iter().map(RunResult::from_value).collect(),
        _ => Err("`runs` is not an array".into()),
    }
}

/// Field `key` of a JSON object.
pub fn lookup<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    lookup(v, key).ok_or_else(|| format!("missing field `{key}`"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("`{key}` is not a string")),
    }
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    match field(v, key)? {
        Value::U64(n) => Ok(*n as f64),
        Value::I64(n) => Ok(*n as f64),
        Value::F64(x) => Ok(*x),
        _ => Err(format!("`{key}` is not a number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "serve_warm".into(),
            seed: 3,
            seconds: 2.0,
            traced: false,
            input_digest: "ab".repeat(32),
            attempted: 10,
            failed: 0,
            readings: END_TO_END
                .iter()
                .filter(|m| m.everywhere)
                .enumerate()
                .map(|(i, m)| Reading::new(m.name, 1.5 + i as f64, m.unit).with_n(7))
                .collect(),
        }
    }

    #[test]
    fn result_files_round_trip() {
        let runs = vec![sample(), sample()];
        assert_eq!(results_from_json(&results_to_json(&runs)).unwrap(), runs);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample().driver_line().unwrap();
        let Value::Map(fields) = serde_json::from_str(&line).unwrap() else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Map(metrics) = &fields[3].1 else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), 7);
        assert!(!line.contains('\n'));
        let mut missing = sample();
        missing.readings.pop();
        assert!(missing.driver_line().is_err());
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| match field(&doc, key).unwrap() {
            Value::Seq(rows) => rows.clone(),
            _ => panic!("{key} is an array"),
        };
        let declared: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|r| {
                (
                    text(r, "name").unwrap(),
                    text(r, "unit").unwrap(),
                    text(r, "better").unwrap(),
                    number(r, "bound").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.everywhere)
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|r| {
                (
                    text(r, "name").unwrap(),
                    text(r, "unit").unwrap(),
                    text(r, "better").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|l| (l.name, l.unit.to_string(), l.better.name().to_string()))
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|r| (text(r, "name").unwrap(), text(r, "why").unwrap()))
            .collect();
        let ours: Vec<(String, String)> = crate::gen::WORKLOADS
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn per_layer_table_has_fifty_unique_names() {
        let layers = per_layer();
        assert_eq!(layers.len(), 50);
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 50);
        assert!(layers.iter().any(|l| l.name == "model.fig07_latency_us"));
    }
}
