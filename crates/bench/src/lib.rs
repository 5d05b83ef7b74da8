//! Library half of the `bench` crate.
//!
//! The experiments themselves live in the [`scenarios`] crate (one
//! [`scenarios::Scenario`] per figure/table, discoverable through
//! [`scenarios::Registry::standard`]) and are driven by the crate's one
//! binary, `scenarios`: `scenarios report <name>` prints one paper-style
//! report, `scenarios run` sweeps. This file holds only the trace-replay
//! reference workload behind `ci/trace_reference.json`.

#![forbid(unsafe_code)]

/// The canonical trace-replay artifact behind `ci/trace_reference.json`:
/// fixed `(profile, horizon, seed)` workloads covering the scheduler's three
/// regimes — an exclusive-only stream, an overloaded backlog that keeps the
/// backfill path hot, and a shared-job mix that exercises partially-allocated
/// packing. The committed reference was generated by the pre-index scan
/// scheduler; the indexed scheduler must reproduce it byte-for-byte, which
/// the `trace_reference_matches_committed_artifact` test checks on every
/// `cargo test`.
pub fn trace_reference_json() -> String {
    use cluster::{simulate_trace, TraceProfile};
    use des::SimTime;
    use json::ToJson;
    struct ReferenceCase {
        name: &'static str,
        seed: u64,
        horizon_hours: u64,
        outcome: cluster::TraceOutcome,
    }
    json::impl_to_json!(ReferenceCase {
        name,
        seed,
        horizon_hours,
        outcome,
    });

    let mut backlogged = TraceProfile::piz_daint();
    backlogged.nodes = 600;
    backlogged.mean_interarrival_s = 40.0;

    let mut shared_mix = TraceProfile::small_test();
    shared_mix.shared_fraction = 0.5;

    let cases = vec![
        ("exclusive_small", TraceProfile::small_test(), 48u64, 42u64),
        ("backlogged_600n", backlogged, 96, 7),
        ("shared_mix_small", shared_mix, 24, 11),
    ];
    let artifact: Vec<ReferenceCase> = cases
        .into_iter()
        .map(|(name, profile, hours, seed)| ReferenceCase {
            name,
            seed,
            horizon_hours: hours,
            outcome: simulate_trace(&profile, SimTime::from_hours(hours), seed),
        })
        .collect();
    let mut json = json::to_string_pretty(&artifact.to_value());
    json.push('\n');
    json
}
