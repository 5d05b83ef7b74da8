//! Per-job wall-clock cost estimation for deadline-aware job ordering.
//!
//! The sweep engine schedules longest-expected-first (LPT): makespan is
//! minimised by starting the long jobs early so the short ones pack around
//! them. "Expected" comes from a [`CostTable`] — mean measured wall-clock
//! per `(scenario, point shape)`, accumulated by the process's own jobs and
//! gone when it exits.
//!
//! Cost estimates influence only the *order* jobs start in, never their
//! results: the emitted artifact is bit-identical whatever the table says.
//! For shapes the table has never seen (a process's first sweep) a crude
//! size heuristic over the numeric parameters orders them instead.

use crate::params::{ParamValue, Params};
use std::collections::BTreeMap;

/// Mean observed wall-clock per `(scenario, point-shape)` key.
///
/// Keys are `scenario|point-label` (see [`CostTable::key`]); the label folds
/// in every parameter, so two points of one scenario with different grid
/// values are distinct shapes. Entries accumulate (sum, count); ordering
/// reads the mean.
#[derive(Debug, Clone, Default)]
pub struct CostTable {
    entries: BTreeMap<String, (f64, u64)>,
}

impl CostTable {
    pub fn new() -> Self {
        CostTable::default()
    }

    /// The table key of one parameter point of a scenario.
    pub fn key(scenario: &str, params: &Params) -> String {
        format!("{scenario}|{}", params.label())
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record one measured job duration.
    pub fn record(&mut self, key: &str, secs: f64) {
        if !secs.is_finite() || secs < 0.0 {
            return; // a clock hiccup must not poison the table
        }
        let e = self.entries.entry(key.to_string()).or_insert((0.0, 0));
        e.0 += secs;
        e.1 += 1;
    }

    /// Mean observed seconds for a key, if the table has seen it.
    pub fn mean_secs(&self, key: &str) -> Option<f64> {
        self.entries.get(key).map(|(sum, n)| sum / *n as f64)
    }

    /// Expected duration of `(scenario, params)`: the table mean when known,
    /// else [`size_heuristic`] (cold start). Always finite and non-negative.
    pub fn estimate(&self, scenario: &str, params: &Params) -> f64 {
        self.mean_secs(&CostTable::key(scenario, params))
            .unwrap_or_else(|| size_heuristic(params))
    }
}

/// Cold-start stand-in for a measured cost: a monotone function of the
/// point's numeric parameter magnitudes. Size-like tunables (ranks, reps,
/// trace lengths, grid extents) dominate a scenario's runtime, so "bigger
/// numbers ⇒ longer job" orders a never-measured sweep far better than
/// input order. Logarithms keep one huge axis from drowning the others.
pub fn size_heuristic(params: &Params) -> f64 {
    let mut score = 1.0;
    for (_, v) in params.iter() {
        let x = match v {
            ParamValue::U64(n) => *n as f64,
            ParamValue::F64(x) if x.is_finite() => x.abs(),
            _ => continue,
        };
        score += (1.0 + x).ln();
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_estimate_round_trip() {
        let mut t = CostTable::new();
        let p = Params::new().with("k", 3u64);
        let key = CostTable::key("fig01", &p);
        t.record(&key, 2.0);
        t.record(&key, 4.0);
        assert_eq!(t.mean_secs(&key), Some(3.0));
        assert_eq!(t.estimate("fig01", &p), 3.0);
    }

    #[test]
    fn unknown_shape_falls_back_to_size_heuristic() {
        let t = CostTable::new();
        let small = Params::new().with("reps", 2u64);
        let large = Params::new().with("reps", 2000u64);
        assert_eq!(t.estimate("x", &small), size_heuristic(&small));
        assert!(
            t.estimate("x", &large) > t.estimate("x", &small),
            "bigger numeric params must rank as longer jobs"
        );
    }

    #[test]
    fn heuristic_ignores_non_numeric_and_non_finite() {
        let base = size_heuristic(&Params::new());
        let p = Params::new()
            .with("mode", "fast")
            .with("flag", true)
            .with("bad", f64::NAN);
        assert_eq!(size_heuristic(&p), base);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut t = CostTable::new();
        t.record("k", f64::NAN);
        t.record("k", -1.0);
        assert_eq!(t.mean_secs("k"), None);
        t.record("k", 2.0);
        assert_eq!(t.mean_secs("k"), Some(2.0));
    }
}
