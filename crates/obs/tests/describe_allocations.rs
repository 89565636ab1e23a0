//! Describing a metric is free once its name has a `# HELP` string.
//!
//! Hot paths resolve a handle through `Registry::histo_help` and friends,
//! which describe the name first. The first description stores the name
//! and its help text; every later one must find it under the read lock
//! and allocate nothing.

use counting_alloc::counted;
use monster_obs::Registry;

#[test]
fn describing_a_described_name_allocates_nothing() {
    let r = Registry::new();
    let ((), first) = counted(|| r.describe("doc_sweeps_total", "Sweeps run."));
    assert!(first.blocks > 0, "the first description stores the name: {first:?}");
    let ((), again) = counted(|| r.describe("doc_sweeps_total", "Sweeps run."));
    assert_eq!(again.blocks, 0, "describing a described name allocated: {again:?}");

    // A handle resolved by name and help on every call: a lookup, no more.
    r.histo_help("doc_sweep_seconds", "Sweep wall time.").observe(1.0);
    let ((), resolved) =
        counted(|| r.histo_help("doc_sweep_seconds", "Sweep wall time.").observe(2.0));
    assert_eq!(resolved.blocks, 0, "resolving a described histogram allocated: {resolved:?}");
}
