//! Benchmark-only facade over the workspace's [`json`] crate.
//!
//! The repo benchmark (`benchmark/`) still imports `serde::{Serialize,
//! Value}` by path; no workspace crate uses this package. The benchmark-only
//! change (ROADMAP item 1) switches those imports to `json`, and the step
//! after it deletes this file with the package.

#![forbid(unsafe_code)]

pub use json::{ToJson as Serialize, Value};
