//! The crate's single error surface.
//!
//! Every fallible public operation in `scenarios` — request validation,
//! sweep execution, the persistent result cache, the what-if service and
//! its wire protocol — reports through [`Error`], so server responses and
//! CLI exit messages render the same failure the same way. The enum is `#[non_exhaustive]`: new subsystems add variants
//! without breaking downstream matches.
//!
//! Validation variants name the offending field and list the known-good
//! alternatives, so "unknown scenario" and "unknown grid key" failures are
//! actionable at the API boundary instead of surfacing as an empty sweep
//! or a mid-run panic.

use crate::runner::SweepError;
use std::fmt;
use std::path::PathBuf;

/// Anything the `scenarios` crate can fail with.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// One or more sweep jobs panicked; every failing `(scenario, point,
    /// seed)` is named inside.
    Sweep(SweepError),
    /// A request named a scenario the registry doesn't know.
    UnknownScenario {
        name: String,
        /// Every registered scenario name, in registry order.
        known: Vec<String>,
    },
    /// A grid axis (or `--param` override) isn't one of the scenario's
    /// tunables.
    UnknownAxis {
        scenario: String,
        axis: String,
        /// The scenario's tunable parameter names.
        tunables: Vec<String>,
    },
    /// A request field failed structural validation.
    InvalidRequest {
        /// The offending field, e.g. `seeds` or `grid.ranks`.
        field: String,
        message: String,
    },
    /// Persistent result-cache I/O or format trouble.
    Cache { path: PathBuf, message: String },
    /// Wire-protocol framing or JSON trouble.
    Protocol { message: String },
    /// Plain I/O (artifact writes, sockets), with the operation named.
    Io {
        context: String,
        source: std::io::Error,
    },
    /// The service has no request under this id.
    UnknownRequest { id: u64 },
    /// A remote service refused a verb; `kind` is the server error's
    /// stable tag (see [`crate::wire::error_kind`]), `message` its
    /// rendered text.
    Server { kind: String, message: String },
}

impl Error {
    /// Build the cache variant (the cache module reports against its
    /// directory or a specific file).
    pub(crate) fn cache(path: impl Into<PathBuf>, message: impl Into<String>) -> Error {
        Error::Cache {
            path: path.into(),
            message: message.into(),
        }
    }

    pub(crate) fn protocol(message: impl Into<String>) -> Error {
        Error::Protocol {
            message: message.into(),
        }
    }

    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Error {
        Error::Io {
            context: context.into(),
            source,
        }
    }

    pub(crate) fn invalid(field: impl Into<String>, message: impl Into<String>) -> Error {
        Error::InvalidRequest {
            field: field.into(),
            message: message.into(),
        }
    }
}

fn join_or_none(names: &[String]) -> String {
    if names.is_empty() {
        "none".to_string()
    } else {
        names.join(", ")
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Sweep(e) => write!(f, "sweep failed: {e}"),
            Error::UnknownScenario { name, known } => write!(
                f,
                "unknown scenario `{name}` (known scenarios: {})",
                join_or_none(known)
            ),
            Error::UnknownAxis {
                scenario,
                axis,
                tunables,
            } => write!(
                f,
                "`{axis}` is not a tunable of {scenario} (tunables: {})",
                join_or_none(tunables)
            ),
            Error::InvalidRequest { field, message } => {
                write!(f, "invalid request field `{field}`: {message}")
            }
            Error::Cache { path, message } => {
                write!(f, "sweep cache ({}): {message}", path.display())
            }
            Error::Protocol { message } => write!(f, "wire protocol: {message}"),
            Error::Io { context, source } => write!(f, "{context}: {source}"),
            Error::UnknownRequest { id } => write!(f, "no request with id {id}"),
            Error::Server { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sweep(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SweepError> for Error {
    fn from(e: SweepError) -> Error {
        Error::Sweep(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::JobFailure;

    #[test]
    fn validation_errors_name_the_field_and_the_alternatives() {
        let e = Error::UnknownScenario {
            name: "fig99".into(),
            known: vec!["fig01_utilization".into(), "tab03_idle_node".into()],
        };
        let text = e.to_string();
        assert!(text.contains("fig99"));
        assert!(text.contains("fig01_utilization, tab03_idle_node"));

        let e = Error::UnknownAxis {
            scenario: "fig07_latency".into(),
            axis: "rank".into(),
            tunables: vec!["reps".into()],
        };
        let text = e.to_string();
        assert!(text.contains("`rank`"));
        assert!(text.contains("tunables: reps"));

        let e = Error::UnknownAxis {
            scenario: "tab03_idle_node".into(),
            axis: "k".into(),
            tunables: vec![],
        };
        assert!(e.to_string().contains("tunables: none"));
    }

    #[test]
    fn sweep_errors_keep_their_per_job_identity() {
        let sweep = SweepError {
            failures: vec![JobFailure {
                scenario: "fig01".into(),
                point: "k=2".into(),
                seed: 7,
                message: "boom".into(),
            }],
        };
        let e: Error = sweep.into();
        let text = e.to_string();
        assert!(text.contains("scenario `fig01` point `k=2` seed 7"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
