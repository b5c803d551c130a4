//! The modeled figures — modeled metrics, allocation counts and the stat
//! digest — repeat exactly across runs of one seed. The allocation counter
//! is process-wide, so this test lives alone in its own test binary.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pimecc_perfbench::measure;
use pimecc_perfbench::workload::Kind;

#[test]
fn modeled_figures_and_the_digest_repeat_across_runs() {
    for kind in [Kind::Mixed, Kind::Longtail, Kind::Partitioned] {
        for traced in [false, true] {
            let a = measure::run(kind, 5, 0.05, traced).expect("first run");
            let b = measure::run(kind, 5, 0.05, traced).expect("second run");
            assert_eq!(a.digest, b.digest, "{}: digest", kind.name());
            let modeled = |r: &measure::RunReport| -> Vec<(&'static str, f64)> {
                r.metrics
                    .iter()
                    .filter(|m| m.is_modeled())
                    .map(|m| (m.name, m.value))
                    .collect()
            };
            assert!(!modeled(&a).is_empty());
            assert_eq!(modeled(&a), modeled(&b), "{} traced={traced}", kind.name());
        }
    }
}
