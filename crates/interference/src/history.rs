//! Global co-location history (Fig. 4, "Colocation History").
//!
//! HPC systems serve a limited set of applications (the paper cites ~115 on
//! Blue Waters, ~650 on Hopper, with 25 covering two thirds of core-hours),
//! so a global map from *workload pairs* to measured overheads is practical.
//! The resource manager records the outcome of every co-location and
//! consults it before the next placement decision.

use std::collections::HashMap;

/// Key: unordered pair of workload tags.
fn pair_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

/// The global history database: the measured batch-job overhead (percent)
/// of every recorded co-location, per workload pair.
#[derive(Debug, Default, Clone)]
pub struct ColocationHistory {
    records: HashMap<(String, String), Vec<f64>>,
}

impl ColocationHistory {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, batch: &str, function: &str, batch_overhead_pct: f64) {
        self.records
            .entry(pair_key(batch, function))
            .or_default()
            .push(batch_overhead_pct);
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
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query_symmetric() {
        let mut h = ColocationHistory::new();
        h.record("lulesh", "bt", 2.0);
        h.record("bt", "lulesh", 4.0);
        assert_eq!(h.observations("lulesh", "bt"), 2);
        assert_eq!(h.observations("bt", "lulesh"), 2);
        assert_eq!(h.expected_batch_overhead_pct("lulesh", "bt"), Some(3.0));
    }

    #[test]
    fn unknown_pair_is_none() {
        let h = ColocationHistory::new();
        assert_eq!(h.expected_batch_overhead_pct("a", "b"), None);
        assert_eq!(h.observations("a", "b"), 0);
    }
}
