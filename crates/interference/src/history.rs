//! Global co-location history (Fig. 4, "Colocation History").
//!
//! HPC systems serve a limited set of applications (the paper cites ~115 on
//! Blue Waters, ~650 on Hopper, with 25 covering two thirds of core-hours),
//! so a global map from *workload pairs* to measured overheads is practical.
//! The resource manager records the outcome of every co-location and
//! consults it before the next placement decision.

use std::collections::HashMap;

/// One recorded co-location outcome.
#[derive(Debug, Clone, Copy)]
pub struct ColocationRecord {
    /// Measured overhead of the batch job, percent.
    pub batch_overhead_pct: f64,
    /// Measured overhead of the function, percent.
    pub function_overhead_pct: f64,
}

/// Key: unordered pair of workload tags.
fn pair_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

/// The global history database.
#[derive(Debug, Default, Clone)]
pub struct ColocationHistory {
    records: HashMap<(String, String), Vec<ColocationRecord>>,
}

impl ColocationHistory {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, batch: &str, function: &str, rec: ColocationRecord) {
        self.records
            .entry(pair_key(batch, function))
            .or_default()
            .push(rec);
    }

    /// Number of observations for a pair.
    pub fn observations(&self, a: &str, b: &str) -> usize {
        self.records.get(&pair_key(a, b)).map_or(0, |v| v.len())
    }

    /// Mean batch-job overhead for a pair, if any history exists.
    pub fn expected_batch_overhead_pct(&self, a: &str, b: &str) -> Option<f64> {
        let v = self.records.get(&pair_key(a, b))?;
        if v.is_empty() {
            return None;
        }
        Some(v.iter().map(|r| r.batch_overhead_pct).sum::<f64>() / v.len() as f64)
    }

    /// Mean function overhead for a pair.
    pub fn expected_function_overhead_pct(&self, a: &str, b: &str) -> Option<f64> {
        let v = self.records.get(&pair_key(a, b))?;
        if v.is_empty() {
            return None;
        }
        Some(v.iter().map(|r| r.function_overhead_pct).sum::<f64>() / v.len() as f64)
    }

    /// All pairs sorted by observation count (most-studied first) — the
    /// "25 applications cover two thirds of compute time" effect makes this
    /// list short in practice.
    pub fn pairs_by_coverage(&self) -> Vec<((String, String), usize)> {
        let mut v: Vec<_> = self
            .records
            .iter()
            .map(|(k, recs)| (k.clone(), recs.len()))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query_symmetric() {
        let mut h = ColocationHistory::new();
        h.record(
            "lulesh",
            "bt",
            ColocationRecord {
                batch_overhead_pct: 2.0,
                function_overhead_pct: 10.0,
            },
        );
        h.record(
            "bt",
            "lulesh",
            ColocationRecord {
                batch_overhead_pct: 4.0,
                function_overhead_pct: 20.0,
            },
        );
        assert_eq!(h.observations("lulesh", "bt"), 2);
        assert_eq!(h.observations("bt", "lulesh"), 2);
        assert_eq!(h.expected_batch_overhead_pct("lulesh", "bt"), Some(3.0));
        assert_eq!(h.expected_function_overhead_pct("bt", "lulesh"), Some(15.0));
    }

    #[test]
    fn unknown_pair_is_none() {
        let h = ColocationHistory::new();
        assert_eq!(h.expected_batch_overhead_pct("a", "b"), None);
        assert_eq!(h.observations("a", "b"), 0);
    }

    #[test]
    fn coverage_ranking() {
        let mut h = ColocationHistory::new();
        for _ in 0..3 {
            h.record(
                "milc",
                "cg",
                ColocationRecord {
                    batch_overhead_pct: 1.0,
                    function_overhead_pct: 1.0,
                },
            );
        }
        h.record(
            "lulesh",
            "ep",
            ColocationRecord {
                batch_overhead_pct: 1.0,
                function_overhead_pct: 1.0,
            },
        );
        let pairs = h.pairs_by_coverage();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].1, 3);
        assert_eq!(pairs[0].0, ("cg".to_string(), "milc".to_string()));
    }
}
