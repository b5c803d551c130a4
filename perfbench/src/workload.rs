//! The four workloads: their traffic, their shard pools, the seeded burst
//! stream, and one burst's submit → flush → verify round trip.

use crate::rng::Rng;
use pimecc::core::{CampaignConfig, FaultCampaign};
use pimecc::netlist::generators::{from_bits, mul16, ripple_adder, to_bits, zoo, Benchmark};
use pimecc::netlist::NorNetlist;
use pimecc::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One standing workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// adder8 + int2float at 2:1 on one 255×255/5 shard.
    Mixed,
    /// Zipf(1.1) over the 22-program zoo on a (240,3)+(480,3) pool.
    Longtail,
    /// `Mixed` traffic on two 255×255/5 shards under a seeded fault storm.
    FaultStorm,
    /// mul16 through the partition-and-route compiler on one (30,3) shard.
    Partitioned,
}

impl Kind {
    /// Every workload the benchmark binary runs.
    pub const ALL: [Kind; 4] = [
        Kind::Mixed,
        Kind::Longtail,
        Kind::FaultStorm,
        Kind::Partitioned,
    ];

    /// Parses a workload name as the command line spells it.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Mixed => "mixed",
            Kind::Longtail => "longtail",
            Kind::FaultStorm => "fault_storm",
            Kind::Partitioned => "partitioned",
        }
    }

    /// Shard geometries `(n, m)` of the workload's pool.
    pub fn geometries(self) -> Vec<(usize, usize)> {
        match self {
            Kind::Mixed => vec![(255, 5)],
            Kind::Longtail => vec![(240, 3), (480, 3)],
            Kind::FaultStorm => vec![(255, 5), (255, 5)],
            Kind::Partitioned => vec![(30, 3)],
        }
    }

    /// Smallest and largest burst size. Sizes are drawn a little past the
    /// cap and clamped, so a few percent of bursts are exactly cap-sized and
    /// p99 latency is a statistic over identical amounts of work.
    pub fn burst_range(self) -> (usize, usize) {
        match self {
            Kind::Mixed | Kind::FaultStorm => (64, 3072),
            Kind::Longtail => (32, 1536),
            Kind::Partitioned => (1, 16),
        }
    }

    /// Timed bursts in the seeded sequence. The timed loop cycles through
    /// it; modeled metrics cover exactly one pass.
    pub fn sequence_len(self) -> usize {
        match self {
            Kind::Partitioned => 128,
            _ => 512,
        }
    }
}

/// Fault-storm knobs. Shard 0 takes transient flips and flip bursts on
/// every batch load; shard 1 carries stuck-at cells in fixed blocks.
pub mod storm {
    /// Windowed errors that quarantine a shard.
    pub const ERROR_BUDGET: u64 = 24;
    /// Consecutive clean scrubs that lift a quarantine.
    pub const RECOVERY_SCRUBS: u32 = 2;
    /// Uncorrectable verdicts that retire a block-line.
    pub const RETIRE_AFTER: u32 = 2;
    /// Re-dispatches a suppressed ticket is granted.
    pub const MAX_RETRIES: u32 = 4;
    /// Every shard is scrubbed once per this many bursts.
    pub const SCRUB_EVERY: usize = 4;
    /// Expected transient single flips per batch load on shard 0.
    pub const TRANSIENT_RATE: f64 = 1.5;
    /// Expected two-cell flip bursts per batch load on shard 0.
    pub const BURST_RATE: f64 = 0.01;
    /// Blocks `(block_row, block_col)` of shard 1 that hold stuck cells.
    pub const STUCK_BLOCKS: [(usize, usize); 3] = [(0, 0), (17, 17), (34, 34)];
    /// Stuck cells planted per stuck block.
    pub const STUCK_PER_BLOCK: usize = 2;
    /// Bursts run after set-up and before timing, so retirement of the
    /// stuck blocks has saturated when the timed part starts.
    pub const WARMUP_BURSTS: usize = 24;
}

/// Warm-up bursts after set-up for the fault-free workloads.
pub const WARMUP_BURSTS: usize = 4;

/// A host reference for one circuit.
pub type Reference = Box<dyn Fn(&[bool]) -> Vec<bool> + Send + Sync>;

/// One program of the workload's traffic.
pub struct Circuit {
    /// Circuit name.
    pub name: &'static str,
    /// The NOR netlist the cluster compiles.
    pub nor: NorNetlist,
    /// Input width.
    pub inputs: usize,
    /// The host reference answers are checked against.
    pub reference: Reference,
}

/// The programs of a workload and the weights requests draw them with.
pub struct Traffic {
    /// Programs, in rank order.
    pub circuits: Vec<Circuit>,
    /// Cumulative integer weights, one per circuit.
    cdf: Vec<u64>,
}

impl Traffic {
    /// Builds the workload's programs and weights.
    pub fn new(kind: Kind) -> Traffic {
        let (circuits, weights): (Vec<Circuit>, Vec<u64>) = match kind {
            Kind::Mixed | Kind::FaultStorm => {
                let adder = ripple_adder(8);
                let i2f = Benchmark::Int2float.build();
                let add = Circuit {
                    name: "adder8",
                    nor: adder.to_nor(),
                    inputs: adder.num_inputs(),
                    reference: Box::new(move |x| adder.eval(x)),
                };
                let i2f = Circuit {
                    name: i2f.name,
                    nor: i2f.netlist.to_nor(),
                    inputs: i2f.netlist.num_inputs(),
                    reference: i2f.reference,
                };
                (vec![add, i2f], vec![2, 1])
            }
            Kind::Longtail => zoo()
                .into_iter()
                .enumerate()
                .map(|(rank, c)| {
                    let weight = (1e9 / ((rank + 1) as f64).powf(1.1)) as u64;
                    let circuit = Circuit {
                        name: c.name,
                        nor: c.netlist.to_nor(),
                        inputs: c.netlist.num_inputs(),
                        reference: c.reference,
                    };
                    (circuit, weight)
                })
                .unzip(),
            Kind::Partitioned => {
                let c = mul16();
                let circuit = Circuit {
                    name: c.name,
                    nor: c.netlist.to_nor(),
                    inputs: c.netlist.num_inputs(),
                    reference: Box::new(|x| {
                        to_bits(from_bits(&x[..16]) * from_bits(&x[16..32]), 32)
                    }),
                };
                (vec![circuit], vec![1])
            }
        };
        let cdf = weights
            .iter()
            .scan(0u64, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        Traffic { circuits, cdf }
    }

    /// `count` program indices in exact traffic proportions (largest
    /// remainder), ascending.
    fn apportion(&self, count: usize) -> Vec<usize> {
        let total = *self.cdf.last().expect("traffic has programs") as f64;
        let mut prev = 0u64;
        let mut shares: Vec<(usize, usize, f64)> = self
            .cdf
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let exact = (c - prev) as f64 * count as f64 / total;
                prev = c;
                (i, exact.floor() as usize, exact.fract())
            })
            .collect();
        let short = count - shares.iter().map(|s| s.1).sum::<usize>();
        let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
        by_remainder.sort_by(|&a, &b| shares[b].2.total_cmp(&shares[a].2).then(a.cmp(&b)));
        for &i in &by_remainder[..short] {
            shares[i].1 += 1;
        }
        shares
            .into_iter()
            .flat_map(|(i, k, _)| std::iter::repeat_n(i, k))
            .collect()
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("traffic has programs");
        let x = rng.below(total);
        self.cdf.partition_point(|&c| c <= x)
    }
}

/// One burst: requests submitted back to back, then one flush. Input and
/// expected bits are stored flat, so the benchmark's own request store is a
/// handful of large blocks and leaves the allocator's small-object bins to
/// the program under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Burst {
    /// Program index (into [`Traffic::circuits`]) of each request, in
    /// submission (and ticket) order.
    pub programs: Vec<usize>,
    inputs: Vec<bool>,
    input_at: Vec<usize>,
    expected: Vec<bool>,
    expected_at: Vec<usize>,
    /// Sorted by program and submitted with one `submit_batch` per
    /// program; otherwise one `submit` per request.
    pub batched: bool,
    /// Work class: bursts with the same program sequence do the same work
    /// (only input values differ), and share one class.
    pub class: usize,
}

impl Burst {
    /// Requests in the burst.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether the burst is empty (never, for generated bursts).
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Input bits of request `i`.
    pub fn input(&self, i: usize) -> &[bool] {
        &self.inputs[self.input_at[i]..self.input_at[i + 1]]
    }

    /// The host reference's output bits for request `i`.
    pub fn expected(&self, i: usize) -> &[bool] {
        &self.expected[self.expected_at[i]..self.expected_at[i + 1]]
    }

    /// Fresh input vectors, which submission consumes. Made before the
    /// burst's clock starts.
    pub fn fresh_inputs(&self) -> Vec<Vec<bool>> {
        (0..self.len()).map(|i| self.input(i).to_vec()).collect()
    }
}

/// A workload's seeded request stream: the same seed gives the same
/// bursts.
pub struct Sequence {
    /// The cap-sized burst every set-up ends with and warm-up repeats.
    pub warmup: Burst,
    /// The timed bursts, cycled in order; one pass is the modeled sample.
    pub bursts: Vec<Burst>,
    /// Distinct work classes among `bursts` (see [`Burst::class`]).
    pub classes: usize,
}

/// Builds the seeded request stream.
///
/// Burst sizes are stratified: burst `k` of `n` draws its size from the
/// `k`-th of `n` equal slices of the size range (then the order is
/// shuffled), so every seed sees the same spread of sizes and the median
/// burst is the same amount of work. The range runs a little past the cap
/// and sizes are clamped, so a few percent of bursts are exactly cap-sized;
/// those take their programs in exact traffic proportions, in program
/// order, so they all do the same work. p99 latency therefore lands among
/// identical work, and seeds differ only in input values and the mix of
/// smaller bursts.
pub fn sequence(kind: Kind, traffic: &Traffic, seed: u64) -> Sequence {
    let mut rng = Rng::new(seed ^ 0x5EED_B025_7000_0000);
    let (lo, cap) = kind.burst_range();
    let span = (cap - lo + 1) as f64 * 25.0 / 24.0;
    let n = kind.sequence_len();
    let mut sizes: Vec<usize> = (0..n)
        .map(|k| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            (lo + ((k as f64 + u) * span / n as f64) as usize).min(cap)
        })
        .collect();
    for i in (1..n).rev() {
        sizes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let warmup = burst(kind, traffic, cap, cap, &mut rng);
    let mut bursts: Vec<Burst> = sizes
        .into_iter()
        .map(|size| burst(kind, traffic, size, cap, &mut rng))
        .collect();
    let mut seen: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
    for b in &mut bursts {
        let next = seen.len();
        b.class = *seen.entry(b.programs.clone()).or_insert(next);
    }
    Sequence {
        warmup,
        bursts,
        classes: seen.len(),
    }
}

fn burst(kind: Kind, traffic: &Traffic, size: usize, cap: usize, rng: &mut Rng) -> Burst {
    let mut programs: Vec<usize> = if size == cap {
        traffic.apportion(size)
    } else {
        (0..size).map(|_| traffic.draw(rng)).collect()
    };
    let batched = matches!(kind, Kind::Mixed | Kind::FaultStorm);
    if batched {
        programs.sort_unstable();
    }
    let mut b = Burst {
        programs,
        inputs: Vec::new(),
        input_at: vec![0],
        expected: Vec::new(),
        expected_at: vec![0],
        batched,
        class: 0,
    };
    for &program in &b.programs {
        let c = &traffic.circuits[program];
        let inputs: Vec<bool> = (0..c.inputs).map(|_| rng.bit()).collect();
        b.expected.extend((c.reference)(&inputs));
        b.inputs.extend(inputs);
        b.input_at.push(b.inputs.len());
        b.expected_at.push(b.expected.len());
    }
    b
}

/// A compiled program of the pool.
pub enum Program {
    /// A one-line program.
    Packed(CompiledProgram),
    /// A partitioned program.
    Partitioned(Arc<PartitionedProgram>),
}

/// The compile calls of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileReport {
    /// Host seconds inside `compile_packed` / `compile_partitioned`.
    pub seconds: f64,
    /// Programs in the cluster's compile cache afterwards.
    pub programs: usize,
    /// Dependency levels of the partitioned program (0 if none).
    pub levels: usize,
    /// Cut signals of the partitioned program (0 if none).
    pub cut_signals: usize,
    /// Parts of the partitioned program (0 if none).
    pub parts: usize,
}

/// A built pool with every program of the traffic compiled.
pub struct Pool {
    /// The synchronous front end.
    pub cluster: PimCluster,
    /// Compiled programs, parallel to [`Traffic::circuits`].
    pub programs: Vec<Program>,
    /// What compiling cost.
    pub compile: CompileReport,
}

/// Builds the workload's pool and compiles its traffic.
pub fn build_pool(kind: Kind, traffic: &Traffic, seed: u64) -> Result<Pool, String> {
    let geometries = kind.geometries();
    let (n0, m0) = geometries[0];
    let mut builder =
        PimClusterBuilder::new(geometries.len(), n0, m0).shard_geometries(geometries.clone());
    if kind == Kind::FaultStorm {
        builder = storm_builder(builder, seed);
    }
    let mut cluster = builder.build().map_err(|e| e.to_string())?;
    let mut compile = CompileReport::default();
    let mut programs = Vec::with_capacity(traffic.circuits.len());
    for c in &traffic.circuits {
        let started = Instant::now();
        let program = if kind == Kind::Partitioned {
            let p = cluster.compile_partitioned(&c.nor);
            compile.seconds += started.elapsed().as_secs_f64();
            let p = p.map_err(|e| format!("compile {}: {e}", c.name))?;
            compile.levels = p.num_levels();
            compile.cut_signals = p.cut_signals();
            compile.parts = p.num_parts();
            Program::Partitioned(p)
        } else {
            let p = cluster.compile_packed(&c.nor);
            compile.seconds += started.elapsed().as_secs_f64();
            Program::Packed(p.map_err(|e| format!("compile {}: {e}", c.name))?)
        };
        programs.push(program);
    }
    compile.programs = cluster.compiled_count();
    Ok(Pool {
        cluster,
        programs,
        compile,
    })
}

fn storm_builder(builder: PimClusterBuilder, seed: u64) -> PimClusterBuilder {
    use storm::*;
    let mut transient = FaultCampaign::new(
        seed ^ 0x000F_11B5,
        CampaignConfig {
            transient_rate: TRANSIENT_RATE,
            burst_rate: BURST_RATE,
            burst_len: 2,
            stuck_rate: 0.0,
            max_stuck: 0,
        },
    );
    let mut rng = Rng::new(seed ^ 0x0005_70C4);
    let m = 5;
    let stuck: Vec<(usize, usize, bool)> = STUCK_BLOCKS
        .iter()
        .flat_map(|&(br, bc)| {
            (0..STUCK_PER_BLOCK)
                .map(|_| {
                    let r = br * m + rng.below(m as u64) as usize;
                    let c = bc * m + rng.below(m as u64) as usize;
                    (r, c, rng.bit())
                })
                .collect::<Vec<_>>()
        })
        .collect();
    builder
        .error_budget(ERROR_BUDGET)
        .recovery_scrubs(RECOVERY_SCRUBS)
        .retire_after(RETIRE_AFTER)
        .max_retries(MAX_RETRIES)
        .shard_fault_hook(0, move |pm| transient.strike(pm))
        // `set_stuck` is idempotent: the same cells stay wedged.
        .shard_fault_hook(1, move |pm| {
            for &(r, c, v) in &stuck {
                pm.set_stuck(r, c, v);
            }
        })
}

/// Host-side timing and allocation counts of one burst.
#[derive(Debug, Clone, Copy, Default)]
pub struct BurstTiming {
    /// First submit until every answer is verified.
    pub latency_s: f64,
    /// Inside the submit calls (traced bursts only).
    pub submit_s: f64,
    /// Inside `flush` (traced bursts only).
    pub flush_s: f64,
    /// Allocations inside the submit calls (traced bursts only).
    pub submit_allocs: u64,
    /// Allocations inside `flush` (traced bursts only).
    pub flush_allocs: u64,
}

/// What one burst returned.
pub struct BurstResult {
    /// The flush's outcome.
    pub outcome: ClusterOutcome,
    /// Ticket id of the burst's first request.
    pub base: u64,
    /// Answers returned, all verified bit-exact.
    pub served: usize,
    /// Requests dead-lettered.
    pub failed: usize,
    /// Host timing.
    pub timing: BurstTiming,
}

/// Submits one burst, flushes, and verifies every answer against the host
/// reference. `inputs` are the burst's fresh input vectors
/// ([`Burst::fresh_inputs`]). With `traced`, the submit and flush calls are
/// timed and their allocations counted separately.
///
/// # Errors
///
/// A cluster error, or a silently wrong or missing answer.
pub fn run_burst(
    pool: &mut Pool,
    burst: &Burst,
    inputs: Vec<Vec<bool>>,
    traced: bool,
) -> Result<BurstResult, String> {
    let base = pool.cluster.next_ticket_id();
    let started = Instant::now();
    let allocs_before = crate::alloc::allocations();
    submit(pool, burst, inputs).map_err(|e| format!("submit: {e}"))?;
    let (submitted, allocs_submitted) = if traced {
        (Instant::now(), crate::alloc::allocations())
    } else {
        (started, allocs_before)
    };
    let outcome = pool.cluster.flush().map_err(|e| format!("flush: {e}"))?;
    let (flushed, allocs_flushed) = if traced {
        (Instant::now(), crate::alloc::allocations())
    } else {
        (started, allocs_before)
    };
    let (served, failed) = verify(&outcome, base, burst)?;
    let latency_s = started.elapsed().as_secs_f64();
    let timing = if traced {
        BurstTiming {
            latency_s,
            submit_s: (submitted - started).as_secs_f64(),
            flush_s: (flushed - submitted).as_secs_f64(),
            submit_allocs: allocs_submitted - allocs_before,
            flush_allocs: allocs_flushed - allocs_submitted,
        }
    } else {
        BurstTiming {
            latency_s,
            ..BurstTiming::default()
        }
    };
    Ok(BurstResult {
        outcome,
        base,
        served,
        failed,
        timing,
    })
}

fn submit(pool: &mut Pool, burst: &Burst, inputs: Vec<Vec<bool>>) -> Result<(), ClusterError> {
    let Pool {
        cluster, programs, ..
    } = pool;
    let mut inputs = inputs.into_iter();
    let mut i = 0;
    while i < burst.len() {
        let program = burst.programs[i];
        match &programs[program] {
            Program::Partitioned(p) => {
                let _ticket =
                    cluster.submit_partitioned(p, inputs.next().expect("one input per request"))?;
                i += 1;
            }
            Program::Packed(p) if burst.batched => {
                let run = burst.programs[i..]
                    .iter()
                    .take_while(|&&p| p == program)
                    .count();
                let _tickets = cluster.submit_batch(p, inputs.by_ref().take(run))?;
                i += run;
            }
            Program::Packed(p) => {
                let _ticket = cluster.submit(p, inputs.next().expect("one input per request"))?;
                i += 1;
            }
        }
    }
    Ok(())
}

/// Checks an outcome against the burst: every ticket answered bit-exact or
/// dead-lettered, exactly once. Returns `(served, failed)`.
///
/// # Errors
///
/// Names the first silently wrong, unknown, duplicated or missing ticket.
pub fn verify(
    outcome: &ClusterOutcome,
    base: u64,
    burst: &Burst,
) -> Result<(usize, usize), String> {
    let len = burst.len();
    let mut seen = vec![false; len];
    let mut mark = |id: u64| -> Result<usize, String> {
        let i = id
            .checked_sub(base)
            .map(|d| d as usize)
            .filter(|&d| d < len)
            .ok_or_else(|| format!("ticket {id} does not belong to this burst"))?;
        if std::mem::replace(&mut seen[i], true) {
            return Err(format!("ticket {id} resolved twice"));
        }
        Ok(i)
    };
    for result in &outcome.results {
        let i = mark(result.ticket.id())?;
        if result.outputs.as_slice() != burst.expected(i) {
            return Err(format!(
                "silently wrong answer: ticket {} (request {i}) differs from the host reference",
                result.ticket.id()
            ));
        }
    }
    for failed in &outcome.failed {
        mark(failed.ticket.id())?;
    }
    if let Some(i) = seen.iter().position(|s| !s) {
        return Err(format!(
            "request {i} of the burst vanished without an answer or an error"
        ));
    }
    Ok((outcome.results.len(), outcome.failed.len()))
}
