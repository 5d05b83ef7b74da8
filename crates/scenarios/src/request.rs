//! The versioned sweep-request vocabulary shared by the CLI, the what-if
//! service's wire protocol, and the test suites.
//!
//! A [`SweepRequest`] is the one canonical spelling of "run these scenarios
//! over this grid with these seeds": the CLI parses its flags into one, the
//! server decodes one from a wire frame, and both hand it to the same
//! validation and execution path — so a request has exactly one meaning
//! everywhere. The structs are `#[non_exhaustive]` and carry an explicit
//! schema [`version`](SweepRequest::version), so fields can grow without
//! breaking either side of the wire.
//!
//! Validation is strict and *early*: an unknown scenario name or a grid
//! axis that is not one of the scenario's tunables fails
//! [`SweepRequest::validate`] with the known-good alternatives listed
//! (`Error::UnknownScenario` / `Error::UnknownAxis`), instead of surfacing
//! as an empty sweep or a mid-run panic. The one escape hatch is
//! [`lenient_axes`](SweepRequest::lenient_axes) (the CLI's `--all`
//! behavior): a shared grid axis that only some scenarios tune is dropped
//! per-scenario with a recorded warning rather than failing the whole
//! request.

use crate::error::Error;
use crate::params::{ParamValue, SweepGrid};
use crate::registry::Registry;
use crate::runner::JobOrder;
use serde::{Serialize, Value};

/// The schema version this build writes and accepts.
pub const REQUEST_VERSION: u32 = 1;

/// One sweep, fully described: which scenarios, which grid, which seeds.
///
/// Construct with [`SweepRequest::new`] (explicit defaults: 3 seeds,
/// cost-ordered, strict axes) and the builder methods; serialize with
/// [`SweepRequest::to_value`], decode with [`SweepRequest::from_value`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepRequest {
    /// Schema version; [`REQUEST_VERSION`] for requests this build writes.
    pub version: u32,
    /// Scenario names to sweep (registry order is NOT implied — requests
    /// run in the order listed here). Ignored when `all` is set.
    pub scenarios: Vec<String>,
    /// Sweep every registered scenario, in registry order.
    pub all: bool,
    /// Number of seeds (`REPORT_SEED, REPORT_SEED+1, …`); at least 1.
    pub seeds: usize,
    /// Cartesian grid axes, in declaration order (the artifact's point
    /// order depends on it).
    pub grid: Vec<(String, Vec<ParamValue>)>,
    /// Single-point parameter overrides, applied after the grid axes.
    pub params: Vec<(String, ParamValue)>,
    /// Pool injection order. Never observable in the results.
    pub order: JobOrder,
    /// Drop grid axes a scenario doesn't tune (recording a warning)
    /// instead of failing validation — the `--all` ergonomics, where one
    /// shared grid meets scenarios with different tunables.
    pub lenient_axes: bool,
}

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest::new()
    }
}

impl SweepRequest {
    /// An empty request with the documented defaults. Add targets with
    /// [`scenario`](SweepRequest::scenario) / [`every_scenario`](SweepRequest::every_scenario).
    pub fn new() -> SweepRequest {
        SweepRequest {
            version: REQUEST_VERSION,
            scenarios: Vec::new(),
            all: false,
            seeds: 3,
            grid: Vec::new(),
            params: Vec::new(),
            order: JobOrder::default(),
            lenient_axes: false,
        }
    }

    /// Add one target scenario by name.
    pub fn scenario(mut self, name: &str) -> Self {
        self.scenarios.push(name.to_string());
        self
    }

    /// Target every registered scenario (registry order); implies lenient
    /// axis handling unless overridden after.
    pub fn every_scenario(mut self) -> Self {
        self.all = true;
        self.lenient_axes = true;
        self
    }

    /// Drop inapplicable grid axes with a warning instead of failing
    /// validation — useful when one shared grid meets scenarios with
    /// different tunables.
    pub fn lenient(mut self) -> Self {
        self.lenient_axes = true;
        self
    }

    pub fn with_seeds(mut self, seeds: usize) -> Self {
        self.seeds = seeds;
        self
    }

    pub fn with_order(mut self, order: JobOrder) -> Self {
        self.order = order;
        self
    }

    /// Add (or replace) one grid axis.
    pub fn axis<V: Into<ParamValue>>(mut self, name: &str, values: Vec<V>) -> Self {
        let values: Vec<ParamValue> = values.into_iter().map(Into::into).collect();
        if let Some(e) = self.grid.iter_mut().find(|(n, _)| n == name) {
            e.1 = values;
        } else {
            self.grid.push((name.to_string(), values));
        }
        self
    }

    /// Add (or replace) one single-point parameter override.
    pub fn param(mut self, name: &str, value: impl Into<ParamValue>) -> Self {
        let value = value.into();
        if let Some(e) = self.params.iter_mut().find(|(n, _)| n == name) {
            e.1 = value;
        } else {
            self.params.push((name.to_string(), value));
        }
        self
    }

    /// Check the request against a registry, resolving every target and
    /// axis. Errors name the offending field and the known-good
    /// alternatives; on success the returned [`ValidatedSweep`] carries
    /// per-scenario grids ready for the runner.
    pub fn validate(&self, registry: &Registry) -> Result<ValidatedSweep, Error> {
        if self.version != REQUEST_VERSION {
            return Err(Error::invalid(
                "version",
                format!(
                    "unsupported schema version {} (this build speaks {REQUEST_VERSION})",
                    self.version
                ),
            ));
        }
        if self.seeds == 0 {
            return Err(Error::invalid("seeds", "must be at least 1"));
        }
        for (name, values) in &self.grid {
            if values.is_empty() {
                return Err(Error::invalid(format!("grid.{name}"), "axis has no values"));
            }
            for v in values {
                reject_non_finite(&format!("grid.{name}"), v)?;
            }
        }
        for (name, v) in &self.params {
            reject_non_finite(&format!("params.{name}"), v)?;
        }
        if let Some((k, _)) = self
            .params
            .iter()
            .find(|(k, _)| self.grid.iter().any(|(g, _)| g == k))
        {
            return Err(Error::invalid(
                format!("params.{k}"),
                "also a grid axis; pick one",
            ));
        }

        let names: Vec<String> = if self.all {
            registry.names().iter().map(|n| n.to_string()).collect()
        } else if self.scenarios.is_empty() {
            return Err(Error::invalid(
                "scenarios",
                "pick at least one scenario (or set `all`)",
            ));
        } else {
            self.scenarios.clone()
        };

        let mut tasks = Vec::with_capacity(names.len());
        let mut warnings = Vec::new();
        for name in &names {
            let scenario = registry.get(name).ok_or_else(|| Error::UnknownScenario {
                name: name.clone(),
                known: registry.names().iter().map(|n| n.to_string()).collect(),
            })?;
            // Grid axes first, then overrides as one-value axes — the same
            // construction order the CLI always used, so point expansion
            // (and therefore the artifact) is unchanged.
            let mut grid = SweepGrid::new();
            for (axis, values) in &self.grid {
                grid = grid.axis(axis, values.clone());
            }
            for (k, v) in &self.params {
                grid = grid.axis(k, vec![v.clone()]);
            }
            let defaults = scenario.default_params();
            let dropped = grid.retain_axes(|k| defaults.get(k).is_some());
            if !dropped.is_empty() {
                let tunables: Vec<String> = defaults.iter().map(|(k, _)| k.to_string()).collect();
                if self.lenient_axes {
                    warnings.push(format!(
                        "{name}: ignoring non-tunable key(s) {} (tunables: {})",
                        dropped.join(", "),
                        if tunables.is_empty() {
                            "none".to_string()
                        } else {
                            tunables.join(", ")
                        }
                    ));
                } else {
                    return Err(Error::UnknownAxis {
                        scenario: name.clone(),
                        axis: dropped.join(", "),
                        tunables,
                    });
                }
            }
            tasks.push((name.clone(), grid));
        }

        let seeds = crate::runner::SweepRunner::seeds(self.seeds);
        let total_jobs = tasks
            .iter()
            .map(|(name, grid)| {
                let defaults = registry.get(name).map(|s| s.default_params());
                grid.points(&defaults.unwrap_or_default()).len() * seeds.len()
            })
            .sum();
        Ok(ValidatedSweep {
            tasks,
            seeds,
            order: self.order,
            warnings,
            total_jobs,
        })
    }

    /// Decode from a JSON [`Value`]. Strict: unknown fields are rejected
    /// (naming the field), known fields must have the right shape, absent
    /// fields take the [`SweepRequest::new`] defaults.
    pub fn from_value(value: &Value) -> Result<SweepRequest, Error> {
        let Value::Map(fields) = value else {
            return Err(Error::invalid("request", "expected a JSON object"));
        };
        let mut req = SweepRequest::new();
        for (name, v) in fields {
            match name.as_str() {
                "version" => req.version = as_u64(name, v)? as u32,
                "scenarios" => {
                    req.scenarios = as_seq(name, v)?
                        .iter()
                        .map(|s| as_str(name, s))
                        .collect::<Result<_, _>>()?;
                }
                "all" => req.all = as_bool(name, v)?,
                "seeds" => req.seeds = as_u64(name, v)? as usize,
                "grid" => {
                    let Value::Map(axes) = v else {
                        return Err(Error::invalid("grid", "expected an object of axes"));
                    };
                    req.grid = axes
                        .iter()
                        .map(|(axis, vals)| {
                            let field = format!("grid.{axis}");
                            let values = as_seq(&field, vals)?
                                .iter()
                                .map(|v| as_param(&field, v))
                                .collect::<Result<Vec<_>, _>>()?;
                            Ok((axis.clone(), values))
                        })
                        .collect::<Result<_, Error>>()?;
                }
                "params" => {
                    let Value::Map(entries) = v else {
                        return Err(Error::invalid("params", "expected an object"));
                    };
                    req.params = entries
                        .iter()
                        .map(|(k, v)| Ok((k.clone(), as_param(&format!("params.{k}"), v)?)))
                        .collect::<Result<_, Error>>()?;
                }
                "order" => {
                    req.order = JobOrder::parse(&as_str(name, v)?)
                        .map_err(|e| Error::invalid("order", e))?;
                }
                "lenient_axes" => req.lenient_axes = as_bool(name, v)?,
                other => {
                    return Err(Error::invalid(
                        other,
                        "unknown request field (known: version, scenarios, all, seeds, \
                         grid, params, order, lenient_axes)",
                    ));
                }
            }
        }
        Ok(req)
    }
}

impl Serialize for SweepRequest {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("version".into(), Value::U64(self.version as u64)),
            (
                "scenarios".into(),
                Value::Seq(
                    self.scenarios
                        .iter()
                        .map(|s| Value::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("all".into(), Value::Bool(self.all)),
            ("seeds".into(), Value::U64(self.seeds as u64)),
            (
                "grid".into(),
                Value::Map(
                    self.grid
                        .iter()
                        .map(|(n, vs)| {
                            (
                                n.clone(),
                                Value::Seq(vs.iter().map(Serialize::to_value).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "params".into(),
                Value::Map(
                    self.params
                        .iter()
                        .map(|(n, v)| (n.clone(), v.to_value()))
                        .collect(),
                ),
            ),
            (
                "order".into(),
                Value::Str(
                    match self.order {
                        JobOrder::Cost => "cost",
                        JobOrder::Input => "input",
                    }
                    .into(),
                ),
            ),
            ("lenient_axes".into(), Value::Bool(self.lenient_axes)),
        ])
    }
}

/// A request that passed [`SweepRequest::validate`]: every target resolved,
/// every axis checked, grids built in canonical order.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ValidatedSweep {
    /// `(scenario name, grid)` in execution order.
    pub tasks: Vec<(String, SweepGrid)>,
    /// The concrete seed list.
    pub seeds: Vec<u64>,
    pub order: JobOrder,
    /// Axes dropped under lenient mode, one line per scenario.
    pub warnings: Vec<String>,
    /// Total `(scenario, point, seed)` jobs the sweep expands to.
    pub total_jobs: usize,
}

impl ValidatedSweep {
    /// Resolve the task list against `registry` (the registry the sweep
    /// validated against, or an identical one).
    pub fn resolve<'r>(&self, registry: &'r Registry) -> Vec<(&'r dyn crate::Scenario, SweepGrid)> {
        self.tasks
            .iter()
            .map(|(name, grid)| {
                let s = registry
                    .get(name)
                    .expect("validated scenario vanished from the registry");
                (s, grid.clone())
            })
            .collect()
    }
}

/// Lifecycle of one submitted request, as reported by `status`/`list`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SweepStatus {
    /// Accepted, jobs not yet injected.
    Queued,
    /// In the pool: `done` of `total` jobs finished (cache hits count).
    Running { done: usize, total: usize },
    /// Finished; the artifact is available.
    Done,
    /// One or more jobs failed; the message names them.
    Failed { message: String },
    /// Cancelled before completion.
    Cancelled,
}

impl SweepStatus {
    pub fn is_terminal(&self) -> bool {
        !matches!(self, SweepStatus::Queued | SweepStatus::Running { .. })
    }

    /// Decode the wire spelling written by `to_value`.
    pub fn from_value(value: &Value) -> Result<SweepStatus, Error> {
        if !matches!(value, Value::Map(_)) {
            return Err(Error::invalid("status", "expected an object"));
        }
        let state = value
            .get("state")
            .ok_or_else(|| Error::invalid("status.state", "missing"))?;
        match as_str("status.state", state)?.as_str() {
            "queued" => Ok(SweepStatus::Queued),
            "running" => Ok(SweepStatus::Running {
                done: value
                    .get("done")
                    .map_or(Ok(0), |v| as_u64("status.done", v))? as usize,
                total: value
                    .get("total")
                    .map_or(Ok(0), |v| as_u64("status.total", v))? as usize,
            }),
            "done" => Ok(SweepStatus::Done),
            "failed" => Ok(SweepStatus::Failed {
                message: value
                    .get("message")
                    .map_or(Ok(String::new()), |v| as_str("status.message", v))?,
            }),
            "cancelled" => Ok(SweepStatus::Cancelled),
            other => Err(Error::invalid(
                "status.state",
                format!("unknown state `{other}`"),
            )),
        }
    }
}

impl Serialize for SweepStatus {
    fn to_value(&self) -> Value {
        let state = |s: &str| ("state".to_string(), Value::Str(s.to_string()));
        match self {
            SweepStatus::Queued => Value::Map(vec![state("queued")]),
            SweepStatus::Running { done, total } => Value::Map(vec![
                state("running"),
                ("done".into(), Value::U64(*done as u64)),
                ("total".into(), Value::U64(*total as u64)),
            ]),
            SweepStatus::Done => Value::Map(vec![state("done")]),
            SweepStatus::Failed { message } => Value::Map(vec![
                state("failed"),
                ("message".into(), Value::Str(message.clone())),
            ]),
            SweepStatus::Cancelled => Value::Map(vec![state("cancelled")]),
        }
    }
}

impl std::fmt::Display for SweepStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepStatus::Queued => write!(f, "queued"),
            SweepStatus::Running { done, total } => write!(f, "running({done}/{total})"),
            SweepStatus::Done => write!(f, "done"),
            SweepStatus::Failed { message } => write!(f, "failed: {message}"),
            SweepStatus::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// One request's externally visible state: id, lifecycle, and (when done
/// and requested) the rendered artifact JSON text — shipped as text
/// verbatim so server- and CLI-written artifacts are byte-identical.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SweepResponse {
    pub id: u64,
    pub status: SweepStatus,
    /// The artifact JSON text (exactly what `scenarios run --json` writes).
    pub artifact: Option<String>,
}

impl SweepResponse {
    pub fn from_value(value: &Value) -> Result<SweepResponse, Error> {
        if !matches!(value, Value::Map(_)) {
            return Err(Error::invalid("response", "expected an object"));
        }
        let id = value
            .get("id")
            .ok_or_else(|| Error::invalid("response.id", "missing"))?;
        let status = value
            .get("status")
            .ok_or_else(|| Error::invalid("response.status", "missing"))?;
        let artifact = match value.get("artifact") {
            None | Some(Value::Null) => None,
            Some(v) => Some(as_str("response.artifact", v)?),
        };
        Ok(SweepResponse {
            id: as_u64("response.id", id)?,
            status: SweepStatus::from_value(status)?,
            artifact,
        })
    }
}

impl Serialize for SweepResponse {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), Value::U64(self.id)),
            ("status".to_string(), self.status.to_value()),
        ];
        if let Some(a) = &self.artifact {
            fields.push(("artifact".to_string(), Value::Str(a.clone())));
        }
        Value::Map(fields)
    }
}

fn reject_non_finite(field: &str, v: &ParamValue) -> Result<(), Error> {
    match v {
        ParamValue::F64(x) if !x.is_finite() => Err(Error::invalid(
            field,
            "non-finite floats cannot round-trip the wire (JSON has no NaN/inf)",
        )),
        _ => Ok(()),
    }
}

fn as_u64(field: &str, v: &Value) -> Result<u64, Error> {
    match v {
        Value::U64(n) => Ok(*n),
        _ => Err(Error::invalid(field, "expected a non-negative integer")),
    }
}

fn as_bool(field: &str, v: &Value) -> Result<bool, Error> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(Error::invalid(field, "expected true or false")),
    }
}

fn as_str(field: &str, v: &Value) -> Result<String, Error> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(Error::invalid(field, "expected a string")),
    }
}

fn as_seq<'v>(field: &str, v: &'v Value) -> Result<&'v [Value], Error> {
    match v {
        Value::Seq(s) => Ok(s),
        _ => Err(Error::invalid(field, "expected an array")),
    }
}

/// JSON value → [`ParamValue`], mirroring [`ParamValue::parse`]'s type
/// inference: unsigned integers stay `U64`, anything fractional or signed
/// becomes `F64` — so a request round-tripped through JSON keys the cache
/// identically to one built in-process.
fn as_param(field: &str, v: &Value) -> Result<ParamValue, Error> {
    match v {
        Value::Bool(b) => Ok(ParamValue::Bool(*b)),
        Value::U64(n) => Ok(ParamValue::U64(*n)),
        Value::I64(n) => Ok(ParamValue::F64(*n as f64)),
        Value::F64(x) => Ok(ParamValue::F64(*x)),
        Value::Str(s) => Ok(ParamValue::Str(s.clone())),
        _ => Err(Error::invalid(
            field,
            "expected a scalar (bool, number, or string)",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        Registry::standard()
    }

    #[test]
    fn defaults_are_explicit() {
        let req = SweepRequest::new();
        assert_eq!(req.version, REQUEST_VERSION);
        assert_eq!(req.seeds, 3);
        assert_eq!(req.order, JobOrder::Cost);
        assert!(!req.all);
        assert!(!req.lenient_axes);
    }

    #[test]
    fn unknown_scenario_lists_the_known_ones() {
        let err = SweepRequest::new()
            .scenario("fig99_imaginary")
            .validate(&registry())
            .expect_err("unknown scenario");
        match err {
            Error::UnknownScenario { name, known } => {
                assert_eq!(name, "fig99_imaginary");
                assert!(known.contains(&"fig07_latency".to_string()));
                assert_eq!(known.len(), registry().len());
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn unknown_axis_lists_the_tunables() {
        let err = SweepRequest::new()
            .scenario("fig07_latency")
            .axis("bogus_knob", vec![1u64, 2])
            .validate(&registry())
            .expect_err("unknown axis");
        match err {
            Error::UnknownAxis {
                scenario,
                axis,
                tunables,
            } => {
                assert_eq!(scenario, "fig07_latency");
                assert_eq!(axis, "bogus_knob");
                assert!(!tunables.is_empty(), "fig07 has tunables to suggest");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn lenient_mode_drops_foreign_axes_with_a_warning() {
        let reg = registry();
        let v = SweepRequest::new()
            .every_scenario()
            .axis("reps", vec![10u64])
            .validate(&reg)
            .expect("lenient validation succeeds");
        assert_eq!(v.tasks.len(), reg.len());
        assert!(
            !v.warnings.is_empty(),
            "scenarios without a `reps` tunable warn"
        );
        // Scenarios that do tune `reps` keep the axis.
        let (_, fig07_grid) = v
            .tasks
            .iter()
            .find(|(n, _)| n == "fig07_latency")
            .expect("fig07 present");
        assert_eq!(fig07_grid.axis_names(), vec!["reps"]);
    }

    #[test]
    fn structural_validation_names_the_field() {
        let reg = registry();
        let err = SweepRequest::new()
            .scenario("fig07_latency")
            .with_seeds(0)
            .validate(&reg)
            .expect_err("zero seeds");
        assert!(matches!(err, Error::InvalidRequest { ref field, .. } if field == "seeds"));

        let err = SweepRequest::new().validate(&reg).expect_err("no targets");
        assert!(matches!(err, Error::InvalidRequest { ref field, .. } if field == "scenarios"));

        let err = SweepRequest::new()
            .scenario("fig07_latency")
            .axis("reps", Vec::<u64>::new())
            .validate(&reg)
            .expect_err("empty axis");
        assert!(matches!(err, Error::InvalidRequest { ref field, .. } if field == "grid.reps"));

        let err = SweepRequest::new()
            .scenario("fig07_latency")
            .axis("reps", vec![10u64])
            .param("reps", 20u64)
            .validate(&reg)
            .expect_err("grid/param conflict");
        assert!(matches!(err, Error::InvalidRequest { ref field, .. } if field == "params.reps"));

        let mut req = SweepRequest::new().scenario("fig07_latency");
        req.version = 99;
        let err = req.validate(&reg).expect_err("future version");
        assert!(matches!(err, Error::InvalidRequest { ref field, .. } if field == "version"));
    }

    #[test]
    fn json_round_trip_preserves_meaning() {
        let req = SweepRequest::new()
            .scenario("fig07_latency")
            .with_seeds(2)
            .with_order(JobOrder::Input)
            .axis("reps", vec![50u64, 100])
            .param("scale", 1.5);
        let text = serde_json::to_string_pretty(&req).expect("renders");
        let back = SweepRequest::from_value(&serde_json::from_str(&text).expect("parses"))
            .expect("decodes");
        assert_eq!(req, back, "round trip is lossless, types included");
    }

    #[test]
    fn decode_rejects_unknown_fields() {
        let v = serde_json::from_str(r#"{"version": 1, "scenariozz": []}"#).unwrap();
        let err = SweepRequest::from_value(&v).expect_err("typo field");
        assert!(
            matches!(err, Error::InvalidRequest { ref field, .. } if field == "scenariozz"),
            "{err}"
        );
    }

    #[test]
    fn total_jobs_counts_points_times_seeds() {
        let v = SweepRequest::new()
            .scenario("fig07_latency")
            .with_seeds(2)
            .axis("reps", vec![50u64, 100])
            .validate(&registry())
            .expect("valid");
        assert_eq!(v.total_jobs, 4);
        assert_eq!(v.seeds, vec![crate::REPORT_SEED, crate::REPORT_SEED + 1]);
    }

    #[test]
    fn status_round_trips() {
        for status in [
            SweepStatus::Queued,
            SweepStatus::Running { done: 3, total: 9 },
            SweepStatus::Done,
            SweepStatus::Failed {
                message: "boom".into(),
            },
            SweepStatus::Cancelled,
        ] {
            let v = status.to_value();
            assert_eq!(SweepStatus::from_value(&v).expect("decodes"), status);
        }
        assert!(!SweepStatus::Running { done: 1, total: 2 }.is_terminal());
        assert!(SweepStatus::Cancelled.is_terminal());
    }
}
