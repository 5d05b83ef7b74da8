//! The ported experiments: one module per figure/table of the paper plus
//! the design-choice ablations.
//!
//! Every module follows the same shape: a private `compute` that does the
//! actual experiment against a caller-provided [`des::Simulation`], a
//! [`crate::Scenario`] impl whose `run` distils `compute`'s output into
//! scalar [`crate::Metrics`], and a `report` override that prints the
//! original paper-style tables and shape assertions (what `scenarios
//! report <name>` prints).

pub mod ablations;
pub mod fig01;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod tab02;
pub mod tab03;
