//! Scenario metrics and their cross-seed aggregation.
//!
//! Each scenario run over one `(parameter point, seed)` pair produces a
//! [`Metrics`]: an ordered map of named scalars. The sweep runner folds the
//! per-seed metrics of a point into [`MetricSummary`] aggregates built on
//! [`des::stats`] — mean/std via Welford, exact p50/p99, and a normal-theory
//! 95% confidence half-width.

use des::{OnlineStats, Percentiles};
use json::{ToJson, Value};

/// Ordered name → value map produced by one scenario run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, f64)>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record a metric; re-recording a name replaces its value in place.
    pub fn push(&mut self, name: &str, value: f64) {
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| n == name) {
            e.1 = value;
        } else {
            self.entries.push((name.to_string(), value));
        }
    }

    /// The metrics of `entries`, whose names the caller knows are distinct
    /// (the cache's interned schemas): no per-name search as in `push`.
    pub(crate) fn from_distinct(entries: Vec<(String, f64)>) -> Metrics {
        Metrics { entries }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Bit-exact equality — the sweep determinism property compares runs
    /// down to the float representation, not within a tolerance.
    pub fn bits_eq(&self, other: &Metrics) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|((an, av), (bn, bv))| an == bn && av.to_bits() == bv.to_bits())
    }
}

impl ToJson for Metrics {
    fn to_value(&self) -> Value {
        Value::Map(
            self.entries
                .iter()
                .map(|(n, v)| (n.clone(), Value::F64(*v)))
                .collect(),
        )
    }
}

/// Cross-seed aggregate of one metric.
#[derive(Debug, Clone)]
pub struct MetricSummary {
    pub n: u64,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p99: f64,
    /// Half-width of the normal-theory 95% confidence interval on the mean
    /// (`1.96·σ/√n`); zero for a single seed.
    pub ci95: f64,
}
json::impl_to_json!(MetricSummary {
    n,
    mean,
    std_dev,
    min,
    max,
    p50,
    p99,
    ci95,
});

/// Aggregate per-seed metrics. Metric names keep first-seen order; a metric
/// absent from some seeds is aggregated over the seeds that reported it.
pub fn summarize(runs: &[Metrics]) -> Vec<(String, MetricSummary)> {
    let mut order: Vec<String> = Vec::new();
    for run in runs {
        for (name, _) in run.iter() {
            if !order.iter().any(|n| n == name) {
                order.push(name.to_string());
            }
        }
    }
    order
        .into_iter()
        .map(|name| {
            let mut stats = OnlineStats::new();
            let mut pct = Percentiles::new();
            for run in runs {
                if let Some(v) = run.get(&name) {
                    stats.push(v);
                    pct.push(v);
                }
            }
            let n = stats.count();
            let ci95 = if n > 1 {
                1.96 * stats.std_dev() / (n as f64).sqrt()
            } else {
                0.0
            };
            let summary = MetricSummary {
                n,
                mean: stats.mean(),
                std_dev: stats.std_dev(),
                min: stats.min(),
                max: stats.max(),
                p50: pct.median(),
                p99: pct.p99(),
                ci95,
            };
            (name, summary)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(&str, f64)]) -> Metrics {
        let mut out = Metrics::new();
        for (n, v) in pairs {
            out.push(n, *v);
        }
        out
    }

    #[test]
    fn push_replaces_and_preserves_order() {
        let mut x = m(&[("a", 1.0), ("b", 2.0)]);
        x.push("a", 3.0);
        assert_eq!(x.get("a"), Some(3.0));
        assert_eq!(x.iter().next().unwrap().0, "a");
        assert_eq!(x.len(), 2);
    }

    #[test]
    fn bits_eq_catches_tiny_differences() {
        let a = m(&[("x", 0.1)]);
        let b = m(&[("x", 0.1 + 1e-18)]);
        assert!(a.bits_eq(&a.clone()));
        // 0.1 + 1e-18 rounds back to 0.1 in f64; nudge by one ULP instead.
        let mut c = Metrics::new();
        c.push("x", f64::from_bits(0.1f64.to_bits() + 1));
        assert!(a.bits_eq(&b));
        assert!(!a.bits_eq(&c));
    }

    #[test]
    fn summarize_matches_hand_computation() {
        let runs = vec![m(&[("lat", 1.0)]), m(&[("lat", 3.0)]), m(&[("lat", 2.0)])];
        let s = summarize(&runs);
        assert_eq!(s.len(), 1);
        let (name, agg) = &s[0];
        assert_eq!(name, "lat");
        assert_eq!(agg.n, 3);
        assert!((agg.mean - 2.0).abs() < 1e-12);
        assert!((agg.p50 - 2.0).abs() < 1e-12);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 3.0);
        assert!(agg.ci95 > 0.0);
    }

    #[test]
    fn summarize_keeps_first_seen_metric_order() {
        let runs = vec![m(&[("b", 1.0), ("a", 2.0)]), m(&[("a", 4.0), ("c", 5.0)])];
        let s = summarize(&runs);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].0, "b");
        assert_eq!(s[1].0, "a");
        assert_eq!(s[2].0, "c");
        assert_eq!(s[1].1.n, 2, "metric present in both runs");
        assert_eq!(s[0].1.n, 1, "metric present in one run");
    }
}
