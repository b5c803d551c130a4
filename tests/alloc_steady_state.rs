//! Allocation-count regression for the flush path.
//!
//! A counting global allocator records, per thread, every allocation and
//! reallocation. After warm-up flushes have sized every reusable buffer,
//! the tests count what one more `flush` allocates per request on two
//! loads: a mixed adder8/int2float burst on one (255, 5) shard, and a
//! 16-request partitioned mul16 burst on one (30, 3) shard. Both pools
//! have a single shard, so every wave runs on the calling thread and the
//! per-thread count sees all of it. The counts are deterministic: no
//! timing is taken.
//!
//! This file is its own test binary because a `#[global_allocator]` is
//! process-wide.

use pimecc::netlist::generators::{mul16, ripple_adder, to_bits, Benchmark};
use pimecc::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with` fails only during thread teardown, when nothing is
    // being measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations one `flush` makes on this thread, with its outcome.
fn flush_allocs(cluster: &mut PimCluster) -> (u64, ClusterOutcome) {
    let before = allocations();
    let outcome = cluster.flush().expect("flushes");
    (allocations() - before, outcome)
}

#[test]
fn mixed_burst_flush_allocates_almost_nothing_per_request() {
    const ADDERS: usize = 1020;
    const I2FS: usize = 510;
    let mut cluster = PimClusterBuilder::new(1, 255, 5).build().expect("cluster");
    let adder = cluster
        .compile_packed(&ripple_adder(8).to_nor())
        .expect("compiles");
    let i2f = cluster
        .compile_packed(&Benchmark::Int2float.build().netlist.to_nor())
        .expect("compiles");
    let burst = |cluster: &mut PimCluster, salt: u128| {
        for i in 0..(ADDERS + I2FS) as u128 {
            let (program, inputs) = if i % 3 == 2 {
                (&i2f, to_bits((i * 37 + salt) % 2048, 11))
            } else {
                (&adder, to_bits((i * 7919 + salt) % 65536, 16))
            };
            let _ = cluster.submit(program, inputs).expect("submits");
        }
    };
    for salt in 0..3 {
        burst(&mut cluster, salt);
        let _ = cluster.flush().expect("flushes");
    }
    burst(&mut cluster, 3);
    let (allocs, outcome) = flush_allocs(&mut cluster);
    assert_eq!(outcome.requests(), ADDERS + I2FS);
    let per_request = allocs as f64 / (ADDERS + I2FS) as f64;
    // What remains is per flush or per batch, never per request: the
    // outcome's result and shard-report vectors and one shared output
    // buffer per dispatched part (7 for this burst).
    assert!(
        per_request <= 0.01,
        "{allocs} allocations for {} requests",
        ADDERS + I2FS
    );
}

#[test]
fn partitioned_burst_flush_allocates_per_part_wave_not_per_sub_request() {
    const REQUESTS: usize = 16;
    let mut cluster = PimClusterBuilder::new(1, 30, 3).build().expect("cluster");
    let program = cluster
        .compile_partitioned(&mul16().netlist.to_nor())
        .expect("partitions");
    let burst = |cluster: &mut PimCluster, salt: u128| {
        for i in 0..REQUESTS as u128 {
            let (x, y) = ((i * 4099 + salt) % 65536, (i * 611 + 3 * salt) % 65536);
            let mut inputs = to_bits(x, 16);
            inputs.extend(to_bits(y, 16));
            let _ = cluster
                .submit_partitioned(&program, inputs)
                .expect("submits");
        }
    };
    for salt in 0..3 {
        burst(&mut cluster, salt);
        let _ = cluster.flush().expect("flushes");
    }
    burst(&mut cluster, 3);
    let (allocs, outcome) = flush_allocs(&mut cluster);
    assert_eq!(outcome.requests(), REQUESTS);
    // Each request runs one sub-request per part (369 for mul16); none
    // of them may allocate. What remains is one shared output buffer per
    // dispatched part per wave, plus a handful per flush: about 33 per
    // request.
    let sub_requests = (REQUESTS * program.num_parts()) as u64;
    assert!(
        allocs * 8 < sub_requests,
        "{allocs} allocations for {sub_requests} sub-requests"
    );
    assert!(
        allocs as f64 / REQUESTS as f64 <= 40.0,
        "{allocs} allocations for {REQUESTS} requests"
    );
}
