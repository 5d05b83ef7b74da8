//! The indexed scheduler must reproduce the committed pre-change trace
//! artifact byte-for-byte. `ci/trace_reference.json` was generated by the
//! original scan-everything scheduler at the pre-index commit; any
//! divergence here means a scheduling *decision* changed, not just its cost.
//! Refresh the file only for deliberate, documented semantic changes — and
//! regenerate the goldens and the cache salt's digest in the same commit
//! (the file is part of that digest), because cached sweep results would be
//! stale too.

#[test]
fn trace_reference_matches_committed_artifact() {
    let committed_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/trace_reference.json");
    let committed =
        std::fs::read_to_string(committed_path).expect("ci/trace_reference.json is committed");
    let current = bench::trace_reference_json();
    if committed != current {
        // Leave the current artifact beside the build so a deliberate
        // refresh is one `cp` and an accidental one can be diffed.
        let current_path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_reference.json");
        std::fs::write(&current_path, &current).expect("write the current artifact");
        panic!(
            "trace replay diverged from the committed scan-scheduler reference \
             (ci/trace_reference.json); scheduling decisions are no longer \
             bit-identical. The current artifact is at {}",
            current_path.display()
        );
    }
}
