//! Declarative scenario parameters and cartesian sweep grids.
//!
//! A [`Params`] is an ordered, serde-serializable map of named values; every
//! scenario documents its defaults via [`crate::Scenario::default_params`]
//! and reads tunables back with the typed getters. A [`SweepGrid`] expands
//! named axes into the cartesian product of parameter points, in a fixed
//! deterministic order so sweep output is reproducible run to run.

use json::{ToJson, Value};
use std::fmt;

/// One parameter value. Scenario tunables are scalars by design — grids stay
/// declarative and JSON output stays flat.
#[derive(Debug, Clone)]
pub enum ParamValue {
    Bool(bool),
    U64(u64),
    F64(f64),
    Str(String),
}

/// Equality is **bit-exact** for floats (`to_bits`, not `==`): the sweep
/// result cache hashes params by their bit patterns, and two `Params` that
/// compare equal must always canonicalize — label, hash, cache key —
/// identically. IEEE `==` would break that both ways: `0.0 == -0.0` but
/// they format (and hash) differently, and `NaN != NaN` although they are
/// the same stored value.
impl PartialEq for ParamValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ParamValue::Bool(a), ParamValue::Bool(b)) => a == b,
            (ParamValue::U64(a), ParamValue::U64(b)) => a == b,
            (ParamValue::F64(a), ParamValue::F64(b)) => a.to_bits() == b.to_bits(),
            (ParamValue::Str(a), ParamValue::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ParamValue {}

impl ParamValue {
    /// Parse a CLI-style literal: `true`/`false`, integer, float, else string.
    pub fn parse(s: &str) -> ParamValue {
        match s {
            "true" => ParamValue::Bool(true),
            "false" => ParamValue::Bool(false),
            _ => {
                if let Ok(n) = s.parse::<u64>() {
                    ParamValue::U64(n)
                } else if let Ok(x) = s.parse::<f64>() {
                    ParamValue::F64(x)
                } else {
                    ParamValue::Str(s.to_string())
                }
            }
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::U64(n) => write!(f, "{n}"),
            ParamValue::F64(x) => write!(f, "{x}"),
            ParamValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl ToJson for ParamValue {
    fn to_value(&self) -> Value {
        match self {
            ParamValue::Bool(b) => Value::Bool(*b),
            ParamValue::U64(n) => Value::U64(*n),
            ParamValue::F64(x) => Value::F64(*x),
            ParamValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}
impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue::U64(v)
    }
}
impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::U64(v as u64)
    }
}
impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::F64(v)
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_string())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// Ordered name → value map. Insertion order is preserved (it drives table
/// and JSON field order); setting an existing name replaces in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Params {
    entries: Vec<(String, ParamValue)>,
}

impl Params {
    pub fn new() -> Self {
        Params::default()
    }

    /// Builder-style insert.
    pub fn with(mut self, name: &str, value: impl Into<ParamValue>) -> Self {
        self.set(name, value);
        self
    }

    /// Insert or replace, preserving first-insertion order.
    pub fn set(&mut self, name: &str, value: impl Into<ParamValue>) {
        let value = value.into();
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| n == name) {
            e.1 = value;
        } else {
            self.entries.push((name.to_string(), value));
        }
    }

    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Numeric getter with default; accepts U64 or F64 entries.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        match self.get(name) {
            Some(ParamValue::F64(x)) => *x,
            Some(ParamValue::U64(n)) => *n as f64,
            _ => default,
        }
    }

    /// Integer getter with default; accepts U64 or integral F64 entries.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        match self.get(name) {
            Some(ParamValue::U64(n)) => *n,
            Some(ParamValue::F64(x)) if *x >= 0.0 && x.fract() == 0.0 => *x as u64,
            _ => default,
        }
    }

    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.u64(name, default as u64) as usize
    }

    pub fn bool(&self, name: &str, default: bool) -> bool {
        match self.get(name) {
            Some(ParamValue::Bool(b)) => *b,
            _ => default,
        }
    }

    pub fn str(&self, name: &str, default: &str) -> String {
        match self.get(name) {
            Some(ParamValue::Str(s)) => s.clone(),
            Some(v) => v.to_string(),
            None => default.to_string(),
        }
    }

    /// Compact `k=v k=v` rendering for progress lines.
    pub fn label(&self) -> String {
        if self.entries.is_empty() {
            return "default".to_string();
        }
        self.entries
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl ToJson for Params {
    fn to_value(&self) -> Value {
        Value::Map(
            self.entries
                .iter()
                .map(|(n, v)| (n.clone(), v.to_value()))
                .collect(),
        )
    }
}

/// A cartesian sweep: named axes, each with a list of values. Expanding the
/// grid against a base `Params` yields one point per combination, with the
/// last-added axis varying fastest (row-major order).
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    axes: Vec<(String, Vec<ParamValue>)>,
}

impl SweepGrid {
    pub fn new() -> Self {
        SweepGrid::default()
    }

    /// Builder-style axis. An axis with no values is ignored; re-adding an
    /// existing axis name replaces its values in place (never duplicates the
    /// axis, which would expand to identical points).
    pub fn axis<V: Into<ParamValue>>(mut self, name: &str, values: Vec<V>) -> Self {
        let values: Vec<ParamValue> = values.into_iter().map(Into::into).collect();
        if values.is_empty() {
            return self;
        }
        if let Some(existing) = self.axes.iter_mut().find(|(n, _)| n == name) {
            existing.1 = values;
        } else {
            self.axes.push((name.to_string(), values));
        }
        self
    }

    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// Names of the grid's axes, in insertion order.
    pub fn axis_names(&self) -> Vec<&str> {
        self.axes.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Drop every axis whose name fails `keep`, returning the removed names.
    pub fn retain_axes<F: FnMut(&str) -> bool>(&mut self, mut keep: F) -> Vec<String> {
        let mut dropped = Vec::new();
        self.axes.retain(|(n, _)| {
            if keep(n) {
                true
            } else {
                dropped.push(n.clone());
                false
            }
        });
        dropped
    }

    /// Number of points the grid expands to.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// Expand into concrete parameter points over `base`. An empty grid
    /// yields the base point alone, so "no sweep" is just the trivial grid.
    pub fn points(&self, base: &Params) -> Vec<Params> {
        let mut points = vec![base.clone()];
        for (name, values) in &self.axes {
            let mut next = Vec::with_capacity(points.len() * values.len());
            for p in &points {
                for v in values {
                    let mut q = p.clone();
                    q.set(name, v.clone());
                    next.push(q);
                }
            }
            points = next;
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_replaces_in_place() {
        let mut p = Params::new().with("a", 1u64).with("b", 2.5);
        p.set("a", 9u64);
        assert_eq!(p.u64("a", 0), 9);
        assert_eq!(p.iter().count(), 2);
        assert_eq!(p.iter().next().unwrap().0, "a", "order preserved");
    }

    #[test]
    fn typed_getters_fall_back_to_defaults() {
        let p = Params::new().with("x", 4u64);
        assert_eq!(p.f64("x", 0.0), 4.0);
        assert_eq!(p.u64("missing", 7), 7);
        assert!(p.bool("missing", true));
        assert_eq!(p.str("x", ""), "4");
    }

    #[test]
    fn parse_guesses_types() {
        assert_eq!(ParamValue::parse("true"), ParamValue::Bool(true));
        assert_eq!(ParamValue::parse("12"), ParamValue::U64(12));
        assert_eq!(ParamValue::parse("1.5"), ParamValue::F64(1.5));
        assert_eq!(ParamValue::parse("abc"), ParamValue::Str("abc".into()));
    }

    #[test]
    fn float_equality_is_bit_exact_so_equal_params_canonicalize_identically() {
        // 0.0 and -0.0 are IEEE-equal but format (and hash) differently:
        // they must NOT compare equal, or a cache keyed by bits would
        // disagree with equality.
        let zero = ParamValue::F64(0.0);
        let neg_zero = ParamValue::F64(-0.0);
        assert_ne!(zero, neg_zero);
        assert_ne!(zero.to_string(), neg_zero.to_string(), "labels differ too");
        // NaN is a perfectly reproducible stored value; bit equality makes
        // it self-equal instead of poisoning comparisons.
        let nan = ParamValue::F64(f64::NAN);
        assert_eq!(nan, nan.clone());
        // One ULP apart: unequal values, unequal labels (Rust's shortest
        // round-trip float formatting is injective on bit patterns).
        let a = ParamValue::F64(0.1);
        let b = ParamValue::F64(f64::from_bits(0.1f64.to_bits() + 1));
        assert_ne!(a, b);
        assert_ne!(a.to_string(), b.to_string());
    }

    #[test]
    #[allow(clippy::excessive_precision)] // 17 significant digits is the point
    fn seventeen_digit_float_labels_round_trip_bit_exactly() {
        // A value needing the full 17 significant digits: its label must
        // parse back to the identical bit pattern (`{}` prints the
        // shortest uniquely round-tripping decimal).
        let x = 0.123_456_789_012_345_678_f64;
        let v = ParamValue::F64(x);
        assert_eq!(ParamValue::parse(&v.to_string()), v);
        let p = Params::new().with("x", x).with("y", -0.0);
        let q = Params::new().with("x", x).with("y", -0.0);
        assert_eq!(p, q);
        assert_eq!(p.label(), q.label(), "equal params, identical labels");
    }

    #[test]
    fn grid_expands_row_major() {
        let grid = SweepGrid::new()
            .axis("a", vec![1u64, 2])
            .axis("b", vec![10u64, 20, 30]);
        assert_eq!(grid.len(), 6);
        let pts = grid.points(&Params::new());
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0].u64("a", 0), 1);
        assert_eq!(pts[0].u64("b", 0), 10);
        assert_eq!(pts[1].u64("b", 0), 20, "last axis varies fastest");
        assert_eq!(pts[5].u64("a", 0), 2);
        assert_eq!(pts[5].u64("b", 0), 30);
    }

    #[test]
    fn empty_grid_is_the_base_point() {
        let base = Params::new().with("k", 3u64);
        let pts = SweepGrid::new().points(&base);
        assert_eq!(pts, vec![base]);
    }

    #[test]
    fn readding_an_axis_replaces_it() {
        let grid = SweepGrid::new()
            .axis("a", vec![1u64, 2])
            .axis("a", vec![7u64]);
        assert_eq!(grid.len(), 1, "no duplicate identical points");
        let pts = grid.points(&Params::new());
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].u64("a", 0), 7);
    }

    #[test]
    fn retain_axes_reports_dropped_names() {
        let mut grid = SweepGrid::new()
            .axis("keep", vec![1u64])
            .axis("drop", vec![2u64]);
        let dropped = grid.retain_axes(|n| n == "keep");
        assert_eq!(dropped, vec!["drop".to_string()]);
        assert_eq!(grid.axis_names(), vec!["keep"]);
    }
}
