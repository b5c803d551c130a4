//! Self-tests of the benchmark: its request stream and its answer checker.
//! `repeat.rs` checks the repeatability of the modeled figures.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pimecc::prelude::*;
use pimecc_perfbench::workload::{self, Kind, Traffic};

#[test]
fn a_fixed_seed_gives_the_same_request_stream() {
    for kind in Kind::ALL {
        let traffic = Traffic::new(kind);
        let a = workload::sequence(kind, &traffic, 7);
        let b = workload::sequence(kind, &traffic, 7);
        let c = workload::sequence(kind, &traffic, 8);
        assert_eq!(a.bursts, b.bursts, "{}", kind.name());
        assert_eq!(a.warmup, b.warmup, "{}", kind.name());
        assert_ne!(a.bursts, c.bursts, "{}: another seed", kind.name());
    }
}

#[test]
fn enough_bursts_are_cap_sized_for_p99() {
    for kind in Kind::ALL {
        let (lo, cap) = kind.burst_range();
        for seed in [1, 2, 3] {
            let seq = workload::sequence(kind, &Traffic::new(kind), seed);
            let at_cap = seq.bursts.iter().filter(|b| b.len() == cap).count();
            assert!(
                at_cap * 50 >= seq.bursts.len(),
                "{}: {at_cap} of {} bursts at the cap",
                kind.name(),
                seq.bursts.len()
            );
            assert!(seq.bursts.iter().all(|b| (lo..=cap).contains(&b.len())));
            let cap_classes: Vec<usize> = seq
                .bursts
                .iter()
                .filter(|b| b.len() == cap)
                .map(|b| b.class)
                .collect();
            assert!(
                cap_classes.windows(2).all(|w| w[0] == w[1]),
                "{}: cap-sized bursts must all do the same work",
                kind.name()
            );
        }
    }
}

#[test]
fn the_checker_rejects_a_flipped_output_bit() {
    let kind = Kind::Mixed;
    let traffic = Traffic::new(kind);
    let seq = workload::sequence(kind, &traffic, 3);
    let burst = &seq.bursts[0];
    let mut pool = workload::build_pool(kind, &traffic, 3).expect("pool builds");
    let result =
        workload::run_burst(&mut pool, burst, burst.fresh_inputs(), false).expect("burst runs");
    assert_eq!(result.served, burst.len());
    assert!(workload::verify(&result.outcome, result.base, burst).is_ok());

    let mut outcome = result.outcome.clone();
    let victim = &mut outcome.results[burst.len() / 2];
    let mut bits = victim.outputs.to_vec();
    bits[0] = !bits[0];
    victim.outputs = OutputSlice::from(bits);
    let err = workload::verify(&outcome, result.base, burst).expect_err("flipped bit caught");
    assert!(err.contains("silently wrong"), "{err}");

    let mut outcome = result.outcome.clone();
    outcome.results.pop();
    let err = workload::verify(&outcome, result.base, burst).expect_err("lost answer caught");
    assert!(err.contains("vanished"), "{err}");
}
