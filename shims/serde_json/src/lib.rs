//! Benchmark-only facade over the workspace's [`json`] crate.
//!
//! The repo benchmark (`benchmark/`) still imports `serde_json::{to_string,
//! to_string_pretty, from_str}` by path and unwraps the writers' `Result`;
//! no workspace crate uses this package. The benchmark-only change (ROADMAP
//! item 1) switches those imports to `json`, and the step after it deletes
//! this file with the package.

#![forbid(unsafe_code)]

pub use json::{from_str, Error};

/// [`json::to_string`] of the value's tree, which cannot fail, in the
/// `Result` the benchmark unwraps.
pub fn to_string<T: json::ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(json::to_string(&value.to_value()))
}

/// [`json::to_string_pretty`] of the value's tree, which cannot fail, in
/// the `Result` the benchmark unwraps.
pub fn to_string_pretty<T: json::ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(json::to_string_pretty(&value.to_value()))
}
