//! One seed run twice must give identical count metrics and report
//! digests, so later changes can make claims on those counts.

use bdlfi_perfbench::{run_benchmark, Ctx, Workload};
use std::path::PathBuf;

/// The `bdlfi-serve` executable, when `run.py` has built it into the same
/// target directory as this test.
fn serve_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let release = exe.parent()?.parent()?;
    Some(release.join("bdlfi-serve")).filter(|p| p.is_file())
}

#[test]
fn one_seed_repeats_counts_and_digests() {
    let ctx = Ctx {
        workload: Workload::MlpDeltaSweep,
        seed: 11,
        seconds: 1.0,
        trace: true,
        serve_bin: serve_bin(),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/determinism-test"),
    };
    let a = run_benchmark(&ctx).expect("first run");
    let b = run_benchmark(&ctx).expect("second run");
    assert!(a.correct && b.correct, "{:?} / {:?}", a.failure, b.failure);
    for name in [
        "faults.flips_per_config",
        "delta.hit_ratio",
        "completeness.samples_to_certify",
    ] {
        let (x, y) = (a.metrics.get(name), b.metrics.get(name));
        assert!(x.is_some(), "{name} not reported");
        assert_eq!(x, y, "{name} differs between runs of one seed");
    }
    // Job 0 of the workload under load plus job 0 of every reference
    // workload (ResNet, int8, and the daemon when it is built).
    assert!(a.digests.len() >= 3, "{:?}", a.digests);
    assert_eq!(a.digests, b.digests);
}
