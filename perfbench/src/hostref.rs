//! The host-speed reference loop.
//!
//! A shared host can switch between a fast and a slow state (1.4–1.65×
//! apart, each lasting 0.2–3 s, on the 2-core virtual machine the bounds
//! were set on), which moves every host time the benchmark takes. Between
//! timing windows the benchmark runs this fixed loop, owned by the
//! benchmark rather than the program under test, and divides the window's
//! host times by the loop's time. A loop of pure arithmetic
//! does not follow the switches, so this one mixes the two kinds of work the
//! simulator does on the host: allocation churn of small vectors and a
//! word-level NOR kernel over a packed bit grid.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Rows of the packed grid.
const ROWS: usize = 256;
/// 64-bit words per row (a 1024-cell line).
const WORDS: usize = 16;
/// NOR steps replayed over every row per round.
const STEPS: usize = 24;
/// Small vectors allocated and freed per round.
const CHURN: usize = 384;
/// Rounds per repetition.
const ROUNDS: usize = 8;
/// Repetitions per call; the fastest one is the call's time, so a
/// preemption inside one repetition does not skew the window it brackets.
const REPS: usize = 3;

/// Host time of the reference loop on a nominal host, in µs. Normalised
/// host times are raw times scaled by `NOMINAL_US / measured`, so they
/// read as microseconds on a host where the loop takes exactly this long.
pub const NOMINAL_US: f64 = 1000.0;

/// Runs the reference loop and returns its host time in µs: the fastest
/// of [`REPS`] repetitions, scaled to the whole loop.
pub fn ref_kernel_us() -> f64 {
    let fastest = (0..REPS).map(|_| one_rep()).fold(f64::INFINITY, f64::min);
    fastest * REPS as f64
}

thread_local! {
    /// The grid lives for the whole process, so the loop's kernel half does
    /// not depend on where the allocator places a fresh buffer.
    static GRID: RefCell<Vec<u64>> = RefCell::new(
        (0..ROWS * WORDS)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect(),
    );
}

fn one_rep() -> f64 {
    GRID.with(|grid| one_rep_on(&mut grid.borrow_mut()))
}

fn one_rep_on(grid: &mut [u64]) -> f64 {
    let started = Instant::now();
    for r in 0..ROUNDS {
        round(grid, r);
    }
    started.elapsed().as_secs_f64() * 1e6
}

/// One round: allocation churn, then the NOR kernel over every row.
fn round(grid: &mut [u64], round: usize) {
    let churn: Vec<Vec<bool>> = (0..CHURN)
        .map(|i| vec![(i + round).is_multiple_of(3); 8 + i % 24])
        .collect();
    let mut acc = churn.iter().filter(|v| v[0]).count() as u64;
    drop(black_box(churn));
    for step in 0..STEPS {
        let (a, b, out) = (step % WORDS, (step * 7 + 3) % WORDS, (step * 5 + 1) % WORDS);
        for row in grid.chunks_exact_mut(WORDS) {
            row[out] = !(row[a] | row[b]) ^ row[(out + 1) % WORDS].rotate_left(1);
        }
    }
    acc ^= grid[round % (grid.len() / WORDS) * WORDS];
    black_box(acc);
}
