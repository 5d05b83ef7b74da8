//! Per-job wall-clock cost estimation for deadline-aware job ordering.
//!
//! The sweep runner schedules longest-expected-first (LPT): with a work
//! pool, makespan is minimised by starting the long jobs early so the short
//! ones pack around them. "Expected" comes from a [`CostTable`] — mean
//! measured wall-clock per `(scenario, point shape)` — persisted as a flat
//! JSON object so CI's timed-sweep artifacts can feed the next run's
//! ordering (`ci/sweep_costs.json` is the committed seed of that loop).
//!
//! Cost estimates influence only the *order* jobs start in, never their
//! results: the emitted artifact is bit-identical whatever the table says.
//! For shapes the table has never seen (cold start) a crude size heuristic
//! over the numeric parameters breaks ties instead.

use crate::error::Error;
use crate::params::{ParamValue, Params};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Mean observed wall-clock per `(scenario, point-shape)` key.
///
/// Keys are `scenario|point-label` (see [`CostTable::key`]); the label folds
/// in every parameter, so two points of one scenario with different grid
/// values are distinct shapes. Entries accumulate (sum, count) in memory and
/// persist as the mean, which is all ordering needs.
#[derive(Debug, Clone, Default, PartialEq)]
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

    pub fn len(&self) -> usize {
        self.entries.len()
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

    /// Iterate `(key, mean_secs)` in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries
            .iter()
            .map(|(k, (sum, n))| (k.as_str(), sum / *n as f64))
    }

    /// Serialise as a flat `"key": mean_secs` JSON object, keys sorted —
    /// the same shape `ci/perf_baseline.json` uses.
    pub fn to_json(&self) -> String {
        render_flat_numbers(self.iter().map(|(key, mean)| (key, Value::F64(mean))))
    }

    /// Parse the flat JSON object [`CostTable::to_json`] writes. Unknown or
    /// malformed structure is an error; an empty object is a valid table.
    pub fn parse_json(text: &str) -> Result<CostTable, Error> {
        CostTable::parse_json_at(text, Path::new("<inline>"))
    }

    fn parse_json_at(text: &str, path: &Path) -> Result<CostTable, Error> {
        let entries = parse_flat_numbers(text).map_err(|message| Error::CostTable {
            path: path.to_path_buf(),
            message,
        })?;
        let mut table = CostTable::new();
        for (key, secs) in entries {
            table.record(&key, secs);
        }
        Ok(table)
    }

    /// Load a persisted table from `path`.
    pub fn load(path: &Path) -> Result<CostTable, Error> {
        let text = std::fs::read_to_string(path).map_err(|e| Error::CostTable {
            path: path.to_path_buf(),
            message: format!("reading: {e}"),
        })?;
        CostTable::parse_json_at(&text, path)
    }

    /// Write the table to `path`, creating parent directories.
    pub fn save(&self, path: &Path) -> Result<(), Error> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| Error::CostTable {
                path: path.to_path_buf(),
                message: format!("creating {}: {e}", dir.display()),
            })?;
        }
        std::fs::write(path, self.to_json()).map_err(|e| Error::CostTable {
            path: path.to_path_buf(),
            message: format!("writing: {e}"),
        })
    }
}

/// Render `"key": number` pairs as one flat, pretty-printed JSON object (the
/// shape of cost tables, bench result files and `ci/perf_baseline.json`).
pub fn render_flat_numbers<'a>(entries: impl Iterator<Item = (&'a str, Value)>) -> String {
    let map = Value::Map(entries.map(|(k, v)| (k.to_string(), v)).collect());
    let mut json = serde_json::to_string_pretty(&map).expect("value-tree rendering is infallible");
    json.push('\n');
    json
}

/// Parse a flat JSON object of `"key": number` pairs, in file order. Any
/// other structure is an error; an empty object is valid.
pub fn parse_flat_numbers(text: &str) -> Result<Vec<(String, f64)>, String> {
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
    fn json_round_trips_and_sorts_keys() {
        let mut t = CostTable::new();
        t.record("z|default", 1.5);
        t.record("a|k=2", 0.25);
        let json = t.to_json();
        assert!(json.find("a|k=2").unwrap() < json.find("z|default").unwrap());
        let back = CostTable::parse_json(&json).expect("parses");
        assert_eq!(back.mean_secs("z|default"), Some(1.5));
        assert_eq!(back.mean_secs("a|k=2"), Some(0.25));
    }

    #[test]
    fn hostile_labels_round_trip() {
        // `--param` values are free text, so a key can hold every character
        // a hand-rolled splitter would trip over.
        let key = "fig09|reps=a\"b,c}:\\ d\nnext";
        let mut t = CostTable::new();
        t.record(key, 0.125);
        t.record("plain|default", 3.0);
        let back = CostTable::parse_json(&t.to_json()).expect("valid JSON");
        assert_eq!(back, t);
        assert_eq!(back.mean_secs(key), Some(0.125));
    }

    #[test]
    fn parse_rejects_garbage_and_accepts_empty() {
        assert!(CostTable::parse_json("not json").is_err());
        assert!(CostTable::parse_json("{\"k\": abc}").is_err());
        assert!(CostTable::parse_json("[1, 2]").is_err(), "not an object");
        assert!(
            CostTable::parse_json("{\"k\": \"1\"}").is_err(),
            "not a number"
        );
        let empty = CostTable::parse_json("{}\n").expect("empty object");
        assert!(empty.is_empty());
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
