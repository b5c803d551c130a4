//! Integration tests for the partition-and-route compiler: circuits too
//! wide for one shard line, split into a DAG of line-sized sub-programs
//! and served as dependency-ordered waves — through both the synchronous
//! [`PimCluster`] and the spawned [`ClusterHandle`] — with the outputs
//! pinned bit-identical to the word-level software reference.

use pimecc::netlist::generators::{from_bits, mul, mul16, to_bits};
use pimecc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The flagship oversized workload: 16×16 → 32-bit product.
fn mul16_nor() -> pimecc::netlist::NorNetlist {
    mul16().netlist.to_nor()
}

fn mul16_reference(x: u64, y: u64) -> Vec<bool> {
    to_bits(u128::from(x) * u128::from(y), 32)
}

fn mul16_inputs(x: u64, y: u64) -> Vec<bool> {
    let mut v = to_bits(u128::from(x), 16);
    v.extend(to_bits(u128::from(y), 16));
    v
}

/// Deterministic operand pairs: corners first, then seeded random.
fn operand_pairs(count: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut pairs = vec![
        (0, 0),
        (0, 0xFFFF),
        (0xFFFF, 0xFFFF),
        (1, 0x1234),
        (0x8000, 2),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    while pairs.len() < count {
        pairs.push((rng.gen::<u64>() & 0xFFFF, rng.gen::<u64>() & 0xFFFF));
    }
    pairs.truncate(count);
    pairs
}

#[test]
fn mul16_exceeds_one_line_and_the_error_points_at_the_partitioned_api() {
    let nor = mul16_nor();
    let mut cluster = PimCluster::new(1, 30, 3).expect("cluster");
    // The single-line compilers cannot serve it at the default geometry…
    assert!(matches!(cluster.compile(&nor), Err(ClusterError::Map(_))));
    assert!(matches!(
        cluster.compile_packed(&nor),
        Err(ClusterError::Map(_))
    ));
    // …and the cluster-level width error names the way out.
    let err = ClusterError::ProgramTooWide {
        row_size: 64,
        n: 30,
    };
    let msg = err.to_string();
    assert!(msg.contains("compile_partitioned"), "{msg}");
    // The device-level twin reports the *post-remap footprint* — the
    // number that actually decides whether a request fits — and points at
    // the partitioned-compile API too.
    let msg = pimecc::device::DeviceError::ProgramTooWide {
        row_size: 64,
        footprint: 40,
        n: 30,
    }
    .to_string();
    assert!(msg.contains("footprint 40"), "{msg}");
    assert!(msg.contains("submit_partitioned"), "{msg}");
}

#[test]
fn mul16_partitioned_matches_the_word_reference_on_the_sync_cluster() {
    let nor = mul16_nor();
    let mut cluster = PimClusterBuilder::new(4, 60, 5).build().expect("cluster");
    let program = cluster.compile_partitioned(&nor).expect("partitions");
    assert!(program.num_parts() > 1, "mul16 must actually split");
    assert!(
        program.num_levels() > 1,
        "mul16 has cross-part dependencies"
    );
    assert!(program.cut_signals() > 0);
    assert!(program.max_row_size() <= cluster.shard_capacity());

    let pairs = operand_pairs(500, 0x5EED_0001);
    let tickets: Vec<Ticket> = pairs
        .iter()
        .map(|&(x, y)| {
            cluster
                .submit_partitioned(&program, mul16_inputs(x, y))
                .expect("submits")
        })
        .collect();
    let outcome = cluster.flush().expect("flushes");
    assert_eq!(outcome.requests(), pairs.len());
    for (t, &(x, y)) in tickets.iter().zip(&pairs) {
        assert_eq!(
            outcome.outputs_for(*t),
            Some(mul16_reference(x, y).as_slice()),
            "{x} * {y}"
        );
    }
    // Every sub-program wave ran the diagonal-ECC pre-execution check.
    assert!(outcome.input_check.checked > 0, "ECC pre-checks ran");
    assert_eq!(outcome.input_check.uncorrectable, 0);
    // The dependency chain needs at least one wave per level.
    assert!(outcome.waves >= program.num_levels());
}

#[test]
fn mul16_partitioned_matches_the_word_reference_on_the_service() {
    let nor = mul16_nor();
    let handle = PimClusterBuilder::new(4, 60, 5).spawn().expect("spawns");
    let program = handle.compile_partitioned(&nor).expect("partitions");
    let pairs = operand_pairs(500, 0x5EED_0002);
    let tickets: Vec<_> = pairs
        .iter()
        .map(|&(x, y)| {
            handle
                .submit_partitioned(&program, mul16_inputs(x, y))
                .expect("submits")
        })
        .collect();
    handle.flush().expect("flushes");
    for (t, &(x, y)) in tickets.into_iter().zip(&pairs) {
        let r = t.wait().expect("served");
        assert_eq!(r.outputs, mul16_reference(x, y), "{x} * {y}");
        assert_eq!(from_bits(&r.outputs), u128::from(x) * u128::from(y));
    }
    handle.close().expect("closes");
}

#[test]
fn partitioned_and_ordinary_traffic_share_one_flush() {
    // A small multiplier that *needs* partitioning at the default
    // geometry, mixed with ordinary single-line traffic: one flush, one
    // outcome, tickets interleaved.
    let mut cluster = PimCluster::new(2, 30, 3).expect("cluster");
    let wide = mul(6).to_nor();
    let narrow = mul(2).to_nor();
    let big = cluster.compile_partitioned(&wide).expect("partitions");
    let small = cluster.compile_packed(&narrow).expect("compiles");
    let t0 = cluster
        .submit_partitioned(&big, mul_inputs(6, 7, 9))
        .expect("submits");
    let t1 = cluster
        .submit(&small, mul_inputs(2, 3, 2))
        .expect("submits");
    let t2 = cluster
        .submit_partitioned(&big, mul_inputs(6, 63, 63))
        .expect("submits");
    let outcome = cluster.flush().expect("flushes");
    assert_eq!(outcome.requests(), 3);
    assert_eq!(outcome.outputs_for(t0), Some(to_bits(63, 12).as_slice()));
    assert_eq!(outcome.outputs_for(t1), Some(to_bits(6, 4).as_slice()));
    assert_eq!(
        outcome.outputs_for(t2),
        Some(to_bits(63 * 63, 12).as_slice())
    );
    assert_eq!(cluster.pending(), 0);
}

fn mul_inputs(width: usize, x: u128, y: u128) -> Vec<bool> {
    let mut v = to_bits(x, width);
    v.extend(to_bits(y, width));
    v
}

#[test]
fn partitioned_submission_is_validated_on_entry() {
    let mut cluster = PimCluster::new(1, 30, 3).expect("cluster");
    let program = cluster
        .compile_partitioned(&mul(6).to_nor())
        .expect("partitions");
    assert_eq!(
        cluster
            .submit_partitioned(&program, vec![true; 3])
            .unwrap_err(),
        ClusterError::InputArity { got: 3, want: 12 }
    );
    // A program partitioned for wider shards is rejected by a narrower
    // cluster, with the width that matters (the widest sub-program).
    let mut wide_cluster = PimCluster::new(1, 60, 5).expect("cluster");
    let wide = wide_cluster
        .compile_partitioned(&mul16_nor())
        .expect("partitions");
    if wide.max_row_size() > 30 {
        assert_eq!(
            cluster
                .submit_partitioned(&wide, vec![false; 32])
                .unwrap_err(),
            ClusterError::ProgramTooWide {
                row_size: wide.max_row_size(),
                n: 30
            }
        );
    }
}

#[test]
fn dependency_wave_scheduling_is_deterministic() {
    // Two identical runs — fresh cluster each time, same submission
    // order — must produce *identical* placements, wave counts and
    // results (TicketResult equality ignores wall-clock latencies).
    let nor = mul16_nor();
    let run = || {
        let mut cluster = PimClusterBuilder::new(4, 60, 5).build().expect("cluster");
        let program = cluster.compile_partitioned(&nor).expect("partitions");
        for &(x, y) in &operand_pairs(40, 0xDE7) {
            let _ = cluster
                .submit_partitioned(&program, mul16_inputs(x, y))
                .expect("submits");
        }
        cluster.flush().expect("flushes")
    };
    let a = run();
    let b = run();
    assert_eq!(a.waves, b.waves);
    assert_eq!(a.results, b.results);
}

#[test]
fn concurrent_producers_cannot_perturb_partitioned_outputs() {
    // Four producer threads race for queue positions; whatever order the
    // channel serializes them into, every ticket's outputs must match the
    // reference — the dependency-wave scheduler may not leak one
    // request's cut signals into another's.
    let nor = mul16_nor();
    let handle = PimClusterBuilder::new(4, 60, 5)
        .auto_flush_at(16)
        .spawn()
        .expect("spawns");
    let program = handle.compile_partitioned(&nor).expect("partitions");
    let mut joins = Vec::new();
    for p in 0..4u64 {
        let handle = handle.clone();
        let program = Arc::clone(&program);
        joins.push(std::thread::spawn(move || {
            let pairs = operand_pairs(32, 0xC0FE + p);
            let tickets: Vec<_> = pairs
                .iter()
                .map(|&(x, y)| {
                    handle
                        .submit_partitioned(&program, mul16_inputs(x, y))
                        .expect("submits")
                })
                .collect();
            handle.flush().expect("flushes");
            for (t, (x, y)) in tickets.into_iter().zip(pairs) {
                let r = t.wait().expect("served");
                assert_eq!(r.outputs, mul16_reference(x, y), "{x} * {y}");
            }
        }));
    }
    for j in joins {
        j.join().expect("producer thread");
    }
    handle.close().expect("closes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random operands through the partitioned path at the *default*
    // geometry equal the word-level reference, for a width that needs
    // several levels of sub-programs.
    #[test]
    fn partitioned_mul_matches_reference(x in 0u64..256, y in 0u64..256) {
        let (x, y) = (u128::from(x), u128::from(y));
        let mut cluster = PimCluster::new(2, 30, 3).expect("cluster");
        let program = cluster
            .compile_partitioned(&mul(8).to_nor())
            .expect("partitions");
        prop_assert!(program.num_parts() > 1);
        let t = cluster
            .submit_partitioned(&program, mul_inputs(8, x, y))
            .expect("submits");
        let outcome = cluster.flush().expect("flushes");
        prop_assert_eq!(
            outcome.outputs_for(t),
            Some(to_bits(x * y, 16).as_slice())
        );
    }
}

/// Uncorrectable strikes on a one-shard (30, 3) pool: each strike flips
/// the fixed cell pair `(3·br, 3·bc)`/`(3·br, 3·bc + 1)` of one block. A
/// block therefore only ever holds zero or two unrepaired flips, which the
/// diagonal code always reports as uncorrectable — never as a correctable
/// single, so no strike can be repaired into a wrong answer.
fn struck_pool(
    max_retries: u32,
    mut strike: impl FnMut() -> Option<(usize, usize)> + Send + 'static,
) -> PimCluster {
    PimClusterBuilder::new(1, 30, 3)
        .max_retries(max_retries)
        .shard_fault_hook(0, move |pm| {
            if let Some((br, bc)) = strike() {
                pm.inject_fault(3 * br, 3 * bc);
                pm.inject_fault(3 * br, 3 * bc + 1);
            }
        })
        .build()
        .expect("cluster")
}

/// Serves `pairs` as one mul16 burst on `cluster` and checks the fault
/// contract: every request resolves bit-exact or as exactly one
/// [`FailedRequest`] on its own ticket, attempts stay within the retry
/// budget with one latency sample per attempt, and no synthetic
/// sub-request ticket reaches the caller.
fn serve_struck_burst(
    cluster: &mut PimCluster,
    pairs: &[(u64, u64)],
    max_retries: u32,
) -> ClusterOutcome {
    // Ordinary traffic first, so the burst's tickets do not start at 0
    // and a leaked synthetic ticket would be told apart by id as well as
    // by count.
    let small = cluster.compile_packed(&mul(2).to_nor()).expect("compiles");
    for v in 0..40u128 {
        let _ = cluster
            .submit(&small, mul_inputs(2, v % 4, v / 4 % 4))
            .expect("submits");
    }
    let _ = cluster.flush().expect("flushes");

    let program = cluster
        .compile_partitioned(&mul16_nor())
        .expect("partitions");
    let tickets: Vec<Ticket> = pairs
        .iter()
        .map(|&(x, y)| {
            cluster
                .submit_partitioned(&program, mul16_inputs(x, y))
                .expect("submits")
        })
        .collect();
    let outcome = cluster.flush().expect("a struck flush still completes");

    assert_eq!(
        outcome.results.len() + outcome.failed.len(),
        pairs.len(),
        "one resolution per request, no synthetic sub-request leaked"
    );
    let mut resolved = std::collections::HashSet::new();
    for r in &outcome.results {
        let i = tickets
            .iter()
            .position(|t| *t == r.ticket)
            .expect("results carry only submitted tickets");
        assert!(resolved.insert(r.ticket), "{} resolved twice", r.ticket);
        let (x, y) = pairs[i];
        assert_eq!(r.outputs, mul16_reference(x, y), "{x} * {y}");
        assert!((1..=1 + max_retries).contains(&r.attempts));
        assert_eq!(r.attempt_latencies.len(), r.attempts as usize);
        assert_eq!(r.execute_latency, r.attempt_latencies.iter().sum());
    }
    for f in &outcome.failed {
        assert!(
            tickets.contains(&f.ticket),
            "dead letters carry only submitted tickets"
        );
        assert!(resolved.insert(f.ticket), "{} resolved twice", f.ticket);
        assert_eq!(f.attempts, 1 + max_retries, "the budget was spent");
    }
    // A merged result's attempt count is the worst chain over its parts,
    // so it never exceeds the sub-request retries the flush made.
    let extra: u64 = outcome
        .results
        .iter()
        .map(|r| u64::from(r.attempts - 1))
        .sum();
    assert!(extra <= outcome.retries);
    outcome
}

fn seeded_strikes(seed: u64, per_load: f64) -> impl FnMut() -> Option<(usize, usize)> + Send {
    let mut rng = StdRng::seed_from_u64(seed);
    move || (rng.gen::<f64>() < per_load).then(|| (rng.gen_range(0..10), rng.gen_range(0..10)))
}

#[test]
fn partitioned_requests_retry_through_uncorrectable_strikes() {
    let pairs = operand_pairs(16, 0x5EED_0F17);
    let mut cluster = struck_pool(2, seeded_strikes(0xBAD5_EED1, 0.1));
    let outcome = serve_struck_burst(&mut cluster, &pairs, 2);
    assert!(outcome.retries > 0, "the storm must force retries");
    assert!(
        outcome.results.iter().any(|r| r.attempts > 1),
        "some request must resolve after a retried part"
    );
    assert!(outcome.input_check.uncorrectable > 0);
}

#[test]
fn partitioned_requests_dead_letter_without_a_retry_budget() {
    let pairs = operand_pairs(16, 0x5EED_0F18);
    let mut cluster = struck_pool(0, seeded_strikes(0xBAD5_EED2, 0.1));
    let outcome = serve_struck_burst(&mut cluster, &pairs, 0);
    assert!(
        !outcome.failed.is_empty(),
        "without a budget a struck part must dead-letter its request"
    );
    assert_eq!(outcome.retries, 0);
    assert_eq!(cluster.health().dead_letters, outcome.failed.len() as u64);
}

#[test]
fn merged_attempts_take_the_worst_part_not_the_last() {
    // One strike on the very first batch load of the burst: only a
    // level-0 part is retried, yet its requests' merged results report
    // two attempts, while their anchor is the last level's part.
    let mut loads = 0usize;
    let mut cluster = struck_pool(2, move || {
        loads += 1;
        // Load 1 is the ordinary warm-up flush's single wave.
        (loads == 2).then_some((0, 0))
    });
    let pairs = operand_pairs(16, 0x5EED_0F19);
    let outcome = serve_struck_burst(&mut cluster, &pairs, 2);
    assert!(outcome.failed.is_empty());
    assert!(outcome.retries > 0);
    assert!(outcome.results.iter().any(|r| r.attempts == 2));
    assert!(outcome.results.iter().all(|r| r.attempts <= 2));
}
