//! One benchmark run: repeated set-ups, warm-up, the timed loop of
//! host-normalised windows, and — on a traced run — the per-layer figures.

use crate::hostref::{ref_kernel_us, NOMINAL_US};
use crate::rng::Rng;
use crate::workload::{self, storm, Burst, BurstResult, Kind, Pool, Program, Traffic};
use pimecc::core::MachineStats;
use pimecc::device::MultiPartRequest;
use pimecc::prelude::*;
use pimecc::simpler::Step;
use pimecc::xbar::crossbar::ParallelStep;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time of one timing window. Windows are short against the host's
/// 0.2–3 s speed states, so one window sees one state, and the reference
/// loop brackets every window.
const WINDOW: Duration = Duration::from_millis(40);

/// Bursts of the first timed pass whose waves the traced run replays on
/// fresh devices.
const REPLAY_BURSTS: usize = 24;

/// Timed `check_all` / `scrub_pass` calls on a replay device.
const CHECK_REPS: usize = 15;

/// Timed `scrub_shard` calls per shard at the end of a traced run of a
/// workload that does not scrub on its own.
const END_SCRUBS: usize = 8;

/// Fresh set-ups per run; `setup_s` is their median. Sized so the
/// set-ups of one run take a few hundred ms.
fn setup_reps(kind: Kind) -> usize {
    match kind {
        Kind::Mixed | Kind::FaultStorm => 41,
        Kind::Longtail | Kind::Partitioned => 9,
    }
}

fn warmup_bursts(kind: Kind) -> usize {
    match kind {
        Kind::FaultStorm => storm::WARMUP_BURSTS,
        _ => workload::WARMUP_BURSTS,
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

impl Metric {
    /// Whether the figure is modeled (a pure function of the seed, equal on
    /// every run) rather than host time or host memory.
    pub fn is_modeled(&self) -> bool {
        matches!(self.unit, "count" | "cycles" | "ratio" | "1/kreq")
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Requests submitted in the timed loop.
    pub attempted: u64,
    /// Requests dead-lettered in the timed loop.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Raw host figures and run facts, reported beside the metrics.
    pub raw: Vec<Metric>,
    /// Hash of every modeled output of the first timed pass.
    pub digest: u64,
}

/// Modeled accumulators over the first timed pass. Every field is a pure
/// function of the seed, so it repeats exactly from run to run.
#[derive(Debug, Clone, Default)]
struct Modeled {
    /// Bursts folded in.
    bursts: u64,
    /// Requests submitted.
    requests: u64,
    /// Answers returned.
    served: u64,
    /// Requests dead-lettered.
    failed: u64,
    /// Dispatch waves.
    waves: u64,
    /// Wall MEM cycles (per wave the slowest shard).
    wall_mem_cycles: u64,
    /// Summed shard activity.
    stats: MachineStats,
    /// Re-dispatches.
    retries: u64,
    /// Sum of shard busy MEM cycles.
    busy_mem_cycles: u64,
    /// Cells reserved by placed requests.
    cells_occupied: u64,
    /// Cells the dispatched batches offered.
    cell_capacity: u64,
    /// Program parts summed over waves.
    parts: u64,
    /// Bursts that ended with a shard quarantined.
    quarantine_bursts: u64,
    /// Errors the benchmark's scrub calls corrected.
    scrub_corrected: u64,
    /// Allocations inside submit calls.
    submit_allocs: u64,
    /// Allocations inside flush calls.
    flush_allocs: u64,
    /// FNV-1a over every modeled output.
    digest: Digest,
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

impl Modeled {
    /// Folds one burst's outcome in. `parts` is the partitioned program's
    /// part count (0 for one-line traffic, whose parts are counted from the
    /// placements).
    fn add(&mut self, burst: &Burst, result: &BurstResult, parts: usize) {
        let o = &result.outcome;
        self.bursts += 1;
        self.requests += burst.len() as u64;
        self.served += result.served as u64;
        self.failed += result.failed as u64;
        self.waves += o.waves as u64;
        self.wall_mem_cycles += o.wall_mem_cycles;
        self.stats += o.stats;
        self.retries += o.retries;
        self.submit_allocs += result.timing.submit_allocs;
        self.flush_allocs += result.timing.flush_allocs;
        for s in &o.shard_reports {
            self.busy_mem_cycles += s.busy_mem_cycles;
            self.cells_occupied += s.cells_occupied;
            self.cell_capacity += s.cell_capacity;
        }
        if parts > 0 {
            self.parts += parts as u64;
        } else {
            let mut distinct: Vec<(usize, usize, usize)> = o
                .results
                .iter()
                .map(|r| {
                    let i = (r.ticket.id() - result.base) as usize;
                    (r.shard, r.wave, burst.programs[i])
                })
                .collect();
            distinct.sort_unstable();
            distinct.dedup();
            self.parts += distinct.len() as u64;
        }
        self.hash(o, result.base);
    }

    fn hash(&mut self, o: &ClusterOutcome, base: u64) {
        let d = &mut self.digest;
        let s = o.stats;
        for x in [
            s.mem_cycles,
            s.transfer_cycles,
            s.pc_xor3_ops,
            s.critical_ops,
            s.blocks_checked,
            s.errors_corrected,
            s.errors_uncorrectable,
        ] {
            d.word(x);
        }
        let c = o.input_check;
        for x in [c.checked, c.corrected, c.uncorrectable] {
            d.word(x as u64);
        }
        for x in [o.gate_evals, o.wall_mem_cycles, o.waves as u64, o.retries] {
            d.word(x);
        }
        for r in &o.shard_reports {
            for x in [
                r.batches,
                r.requests,
                r.busy_mem_cycles,
                r.gate_evals,
                r.lines_occupied,
                r.line_capacity,
                r.cells_occupied,
                r.cell_capacity,
            ] {
                d.word(x);
            }
        }
        for r in &o.results {
            let axis = match r.axis {
                Axis::Rows => 0,
                Axis::Cols => 1,
            };
            for x in [
                r.ticket.id() - base,
                r.shard as u64,
                r.wave as u64,
                axis,
                r.line as u64,
                r.offset as u64,
                u64::from(r.attempts),
            ] {
                d.word(x);
            }
            let bits = r.outputs.iter().fold(r.outputs.len() as u64, |acc, &b| {
                acc.rotate_left(1) ^ u64::from(b)
            });
            d.word(bits);
        }
        for f in &o.failed {
            d.word(f.ticket.id() - base);
            d.word(u64::from(f.attempts));
        }
    }
}

/// One timed burst. Host times are raw; the window's factor normalises
/// them afterwards.
#[derive(Debug, Clone, Copy)]
struct Exec {
    class: usize,
    window: usize,
    traced: bool,
    answers: u64,
    requests: u64,
    waves: u64,
    latency_s: f64,
    submit_s: f64,
    flush_s: f64,
}

/// One timed `scrub_shard` call.
#[derive(Debug, Clone, Copy)]
struct ScrubCall {
    window: usize,
    traced: bool,
    seconds: f64,
}

/// The quantile of its repetitions that stands for a work class. Host
/// interference only ever adds time, and a shared host adds a lot of it
/// in stretches of 0.2–3 s, so each class of identical work is represented
/// by the lower quartile of its normalised repetitions.
const CLASS_QUANTILE: f64 = 0.25;

/// Per work class, the [`CLASS_QUANTILE`] of `value` over the executions
/// `keep` selects (`NaN` for a class with none).
fn class_quantile(
    execs: &[Exec],
    classes: usize,
    keep: impl Fn(&Exec) -> bool,
    value: impl Fn(&Exec) -> f64,
) -> Vec<f64> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); classes];
    for e in execs.iter().filter(|e| keep(e)) {
        per[e.class].push(value(e));
    }
    per.iter()
        .map(|v| {
            if v.is_empty() {
                f64::NAN
            } else {
                lower_quartile(v)
            }
        })
        .collect()
}

/// The [`CLASS_QUANTILE`] of a list (`0.0` when empty).
fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * CLASS_QUANTILE) as usize]
}

/// End-to-end host figures of the executions `keep` selects: throughput
/// in answers per second and the p50 / p99 burst latency in seconds, each
/// burst standing in with its class's figure.
fn host_figures(
    execs: &[Exec],
    scrubs: &[ScrubCall],
    classes: usize,
    factor: impl Fn(usize) -> f64,
    keep: impl Fn(bool) -> bool,
) -> (f64, f64, f64, usize) {
    let lat = class_quantile(
        execs,
        classes,
        |e| keep(e.traced),
        |e| e.latency_s * factor(e.window),
    );
    let mut samples: Vec<f64> = execs
        .iter()
        .filter(|e| keep(e.traced))
        .map(|e| lat[e.class])
        .collect();
    samples.sort_by(f64::total_cmp);
    let answers: u64 = execs
        .iter()
        .filter(|e| keep(e.traced))
        .map(|e| e.answers)
        .sum();
    let scrub: Vec<f64> = scrubs
        .iter()
        .filter(|c| keep(c.traced))
        .map(|c| c.seconds * factor(c.window))
        .collect();
    let busy = samples.iter().sum::<f64>() + lower_quartile(&scrub) * scrub.len() as f64;
    (
        answers as f64 / busy,
        percentile(&samples, 50.0),
        percentile(&samples, 99.0),
        samples.len(),
    )
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `kind` for `seconds` of timed windows. A traced run measures the
/// per-layer figures instead of the end-to-end ones.
///
/// # Errors
///
/// Any cluster error and any silently wrong or missing answer.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<RunReport, String> {
    // The allocator takes a faster path until a process first starts a
    // thread. Two-shard pools start threads on every flush and one-shard
    // pools never do, so start one here: the reference loop and every
    // workload then run with the allocator in the same mode.
    std::thread::spawn(|| ())
        .join()
        .map_err(|_| "the allocator-mode thread panicked".to_string())?;
    let traffic = Traffic::new(kind);
    let workload::Sequence {
        warmup,
        bursts,
        classes,
    } = workload::sequence(kind, &traffic, seed);
    let nb = bursts.len();
    let mut refs: Vec<f64> = Vec::new();

    // Set-up: pool build + compile + the first warm-up burst, repeated on
    // fresh pools; each one normalised by the reference loop just before
    // and after it.
    let mut setup_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut pool = None;
    let mut before = ref_kernel_us();
    refs.push(before);
    for _ in 0..setup_reps(kind) {
        drop(pool.take());
        let inputs = warmup.fresh_inputs();
        let started = Instant::now();
        let mut p = workload::build_pool(kind, &traffic, seed)?;
        workload::run_burst(&mut p, &warmup, inputs, false)?;
        let raw = started.elapsed().as_secs_f64();
        let after = ref_kernel_us();
        refs.push(after);
        let factor = NOMINAL_US / ((before + after) / 2.0);
        before = after;
        setup_s.push((raw, factor));
        compile_s.push(p.compile.seconds * factor);
        pool = Some(p);
    }
    let mut pool = pool.expect("at least one set-up");
    let compile = pool.compile;

    for _ in 0..warmup_bursts(kind) {
        workload::run_burst(&mut pool, &warmup, warmup.fresh_inputs(), false)?;
        if kind == Kind::FaultStorm {
            for s in 0..pool.cluster.shards() {
                let _ = pool.cluster.scrub_shard(s).map_err(|e| e.to_string())?;
            }
        }
    }

    // The timed loop. Windows of bursts alternate with the reference loop;
    // on a traced run the first pass is traced whole (its allocation
    // counts must repeat exactly) and after it every other window is.
    let mut modeled = Modeled::default();
    let mut recorded: Vec<(usize, ClusterOutcome, u64)> = Vec::new();
    let mut execs: Vec<Exec> = Vec::new();
    let mut scrubs: Vec<ScrubCall> = Vec::new();
    let mut factors: Vec<f64> = Vec::new();
    let mut windows_traced = 0usize;
    let mut retired = 0u64;
    let parts = compile.parts;
    let mut idx = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ref_before = ref_kernel_us();
    refs.push(ref_before);
    while idx < nb || Instant::now() < deadline {
        let window = factors.len();
        let traced_window = traced && (idx < nb || window % 2 == 1);
        windows_traced += usize::from(traced_window);
        let window_start = Instant::now();
        while window_start.elapsed() < WINDOW {
            if kind == Kind::FaultStorm && idx.is_multiple_of(storm::SCRUB_EVERY) {
                for s in 0..pool.cluster.shards() {
                    let started = Instant::now();
                    let report = pool.cluster.scrub_shard(s).map_err(|e| e.to_string())?;
                    scrubs.push(ScrubCall {
                        window,
                        traced: traced_window,
                        seconds: started.elapsed().as_secs_f64(),
                    });
                    if idx < nb {
                        modeled.scrub_corrected += report.check.corrected as u64;
                    }
                }
            }
            let bi = idx % nb;
            let burst = &bursts[bi];
            let inputs = burst.fresh_inputs();
            let result = workload::run_burst(&mut pool, burst, inputs, traced_window)?;
            let t = result.timing;
            execs.push(Exec {
                class: burst.class,
                window,
                traced: traced_window,
                answers: result.served as u64,
                requests: burst.len() as u64,
                waves: result.outcome.waves as u64,
                latency_s: t.latency_s,
                submit_s: t.submit_s,
                flush_s: t.flush_s,
            });
            if idx < nb {
                modeled.add(burst, &result, parts);
                if pool.cluster.health().quarantined() > 0 {
                    modeled.quarantine_bursts += 1;
                }
                if traced && recorded.len() < REPLAY_BURSTS {
                    recorded.push((bi, result.outcome, result.base));
                }
                if idx + 1 == nb {
                    retired = pool
                        .cluster
                        .health()
                        .shards
                        .iter()
                        .map(|s| s.retired_lines)
                        .sum();
                }
            }
            idx += 1;
        }
        let ref_after = ref_kernel_us();
        refs.push(ref_after);
        factors.push(NOMINAL_US / ((ref_before + ref_after) / 2.0));
        ref_before = ref_after;
    }
    let attempted: u64 = execs.iter().map(|e| e.requests).sum();
    let failed = attempted - execs.iter().map(|e| e.answers).sum::<u64>();
    let norm = |w: usize| factors[w];

    let mut raw = vec![
        metric("bursts_timed", idx as f64, "count"),
        metric("work_classes", classes as f64, "count"),
        metric("windows", factors.len() as f64, "count"),
        metric("windows_traced", windows_traced as f64, "count"),
        metric("ref_kernel_us_median", median(&refs), "us"),
        metric(
            "setup_s_raw",
            median(&setup_s.iter().map(|s| s.0).collect::<Vec<_>>()),
            "s",
        ),
    ];
    let metrics = if traced {
        let device = replay_device(kind, &pool, &bursts, &recorded)?;
        if kind != Kind::FaultStorm {
            for s in 0..pool.cluster.shards() {
                for _ in 0..END_SCRUBS {
                    let r0 = ref_kernel_us();
                    let started = Instant::now();
                    let _ = pool.cluster.scrub_shard(s).map_err(|e| e.to_string())?;
                    let dt = started.elapsed().as_secs_f64();
                    factors.push(NOMINAL_US / ((r0 + ref_kernel_us()) / 2.0));
                    scrubs.push(ScrubCall {
                        window: factors.len() - 1,
                        traced: true,
                        seconds: dt,
                    });
                }
            }
        }
        let norm = |w: usize| factors[w];
        let xbar = xbar_ns_per_line_step(kind, &pool)?;
        let overhead = if execs.iter().all(|e| e.traced) {
            0.0
        } else {
            let (untraced_rps, ..) = host_figures(&execs, &[], classes, norm, |t| !t);
            let (traced_rps, ..) = host_figures(&execs, &[], classes, norm, |t| t);
            (untraced_rps / traced_rps - 1.0) * 100.0
        };
        let submit = class_quantile(
            &execs,
            classes,
            |e| e.traced,
            |e| e.submit_s * norm(e.window),
        );
        let flush = class_quantile(
            &execs,
            classes,
            |e| e.traced,
            |e| e.flush_s * norm(e.window),
        );
        let traced_execs: Vec<&Exec> = execs.iter().filter(|e| e.traced).collect();
        let spans = Spans {
            bursts: traced_execs.len() as u64,
            requests: traced_execs.iter().map(|e| e.requests).sum(),
            waves: traced_execs.iter().map(|e| e.waves).sum(),
            submit_s: traced_execs.iter().map(|e| submit[e.class]).sum(),
            flush_s: traced_execs.iter().map(|e| flush[e.class]).sum(),
            scrub_s: lower_quartile(
                &scrubs
                    .iter()
                    .filter(|c| c.traced)
                    .map(|c| c.seconds * norm(c.window))
                    .collect::<Vec<_>>(),
            ),
        };
        let shards = pool.cluster.shards() as u64;
        per_layer(
            &modeled, &compile, &compile_s, &spans, &device, xbar, retired, shards, &refs, overhead,
        )
    } else {
        let (rps, p50, p99, samples) = host_figures(&execs, &scrubs, classes, norm, |_| true);
        let (rps_raw, p50_raw, p99_raw, _) =
            host_figures(&execs, &scrubs, classes, |_| 1.0, |_| true);
        raw.extend([
            metric("throughput_rps_raw", rps_raw, "1/s"),
            metric("latency_p50_us_raw", p50_raw * 1e6, "us"),
            metric("latency_p99_us_raw", p99_raw * 1e6, "us"),
            metric("latency_samples", samples as f64, "count"),
        ]);
        let setup_norm: Vec<f64> = setup_s.iter().map(|(s, f)| s * f).collect();
        vec![
            metric("throughput_rps", rps, "1/s"),
            metric("latency_p50_us", p50 * 1e6, "us"),
            metric("latency_p99_us", p99 * 1e6, "us"),
            metric("setup_s", median(&setup_norm), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            metric(
                "mem_cycles_per_request",
                modeled.wall_mem_cycles as f64 / modeled.served.max(1) as f64,
                "cycles",
            ),
            metric(
                "served_ratio",
                modeled.served as f64 / modeled.requests as f64,
                "ratio",
            ),
            // Every returned answer has been checked bit-exact by now; a
            // wrong one ends the run with an error instead.
            metric("exact_ratio", 1.0, "ratio"),
        ]
    };
    Ok(RunReport {
        attempted,
        failed,
        metrics,
        raw,
        digest: modeled.digest.0,
    })
}

/// Normalised per-layer host times of the traced bursts, each burst
/// standing in with its class's lower quartile.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    bursts: u64,
    requests: u64,
    waves: u64,
    submit_s: f64,
    flush_s: f64,
    /// Per `scrub_shard` call.
    scrub_s: f64,
}

/// Device-layer host times from replaying recorded waves on fresh devices.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceReplay {
    /// Normalised host seconds in `run_multi` / `run_plan`, per wave the
    /// slowest shard.
    run_s: f64,
    waves: u64,
    requests: u64,
    check_all_s: f64,
    scrub_pass_s: f64,
}

/// Timed repetitions of each replayed batch.
const REPLAY_REPS: usize = 3;

/// Runs `call` once to fill the device's fused-plan cache, as the pool's
/// earlier bursts did, then [`REPLAY_REPS`] timed times; returns the
/// fastest time in seconds.
fn fastest<T>(mut call: impl FnMut() -> Result<T, DeviceError>) -> Result<f64, String> {
    let _ = black_box(call().map_err(|e| e.to_string())?);
    let mut best = f64::INFINITY;
    for _ in 0..REPLAY_REPS {
        let started = Instant::now();
        let done = call();
        best = best.min(started.elapsed().as_secs_f64());
        let _ = black_box(done.map_err(|e| e.to_string())?);
    }
    Ok(best)
}

fn replay_device(
    kind: Kind,
    pool: &Pool,
    bursts: &[Burst],
    recorded: &[(usize, ClusterOutcome, u64)],
) -> Result<DeviceReplay, String> {
    let geometries = kind.geometries();
    let mut devices: Vec<PimDevice> = geometries
        .iter()
        .map(|&(n, m)| PimDeviceBuilder::new(n, m).build())
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut out = DeviceReplay::default();
    let mut rng = Rng::new(0xDE71CE);
    let r0 = ref_kernel_us();
    for (bi, outcome, base) in recorded {
        let burst = &bursts[*bi];
        if let [Program::Partitioned(p)] = pool.programs.as_slice() {
            // A partitioned ticket carries one merged placement, so the
            // replay runs every part once over the burst's request count,
            // row-packed, with seeded inputs (device time does not depend
            // on input values).
            let (n, _) = geometries[0];
            let k = burst.len();
            for part in p.parts() {
                let prog = part.program();
                let plan = PlacementPlan::pack(Axis::Rows, n, prog.footprint(), n, usize::MAX, k)
                    .map_err(|e| e.to_string())?;
                let reqs: Vec<Vec<bool>> = (0..k)
                    .map(|_| (0..prog.num_inputs()).map(|_| rng.bit()).collect())
                    .collect();
                let device = &mut devices[0];
                out.run_s += fastest(|| device.run_plan(prog, &plan, &reqs))?;
            }
            out.waves += outcome.waves as u64;
            out.requests += k as u64;
            continue;
        }
        type Group = BTreeMap<usize, Vec<(Slot, usize)>>;
        let mut groups: BTreeMap<(usize, usize), (Axis, Group)> = BTreeMap::new();
        for r in &outcome.results {
            let i = (r.ticket.id() - base) as usize;
            let (_, group) = groups
                .entry((r.wave, r.shard))
                .or_insert_with(|| (r.axis, Group::new()));
            group.entry(burst.programs[i]).or_default().push((
                Slot {
                    line: r.line,
                    offset: r.offset,
                },
                i,
            ));
        }
        let mut wave_s: BTreeMap<usize, f64> = BTreeMap::new();
        for ((wave, shard), (axis, group)) in groups {
            let n = geometries[shard].0;
            let mut plans = Vec::new();
            let mut inputs: Vec<Vec<Vec<bool>>> = Vec::new();
            let mut programs = Vec::new();
            for (prog, slots) in group {
                let Program::Packed(p) = &pool.programs[prog] else {
                    unreachable!("one-line traffic");
                };
                plans.push(
                    PlacementPlan::new(axis, n, p.footprint(), slots.iter().map(|s| s.0).collect())
                        .map_err(|e| e.to_string())?,
                );
                inputs.push(slots.iter().map(|s| burst.input(s.1).to_vec()).collect());
                programs.push(p);
            }
            let plan = MultiProgramPlan::new(plans).map_err(|e| e.to_string())?;
            let parts: Vec<MultiPartRequest<'_>> = programs
                .iter()
                .zip(&inputs)
                .map(|(program, requests)| MultiPartRequest { program, requests })
                .collect();
            let device = &mut devices[shard];
            let dt = fastest(|| device.run_multi(&plan, &parts))?;
            let slot = wave_s.entry(wave).or_default();
            *slot = slot.max(dt);
            out.requests += plan.requests() as u64;
        }
        out.run_s += wave_s.values().sum::<f64>();
        out.waves += wave_s.len() as u64;
    }
    out.run_s *= NOMINAL_US / ((r0 + ref_kernel_us()) / 2.0);

    // The check paths on the replay device. Under the fault storm each
    // scrub pass has flips to find and correct.
    let device = &mut devices[0];
    let n = device.capacity();
    let (mut check, mut scrub) = (Vec::new(), Vec::new());
    for _ in 0..CHECK_REPS {
        let r0 = ref_kernel_us();
        let started = Instant::now();
        let report = device.check_all().map_err(|e| e.to_string())?;
        let dt = started.elapsed().as_secs_f64();
        let _ = black_box(report);
        if kind == Kind::FaultStorm {
            for _ in 0..3 {
                device.inject_fault(rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            }
        }
        let started = Instant::now();
        let report = device.scrub_pass().map_err(|e| e.to_string())?;
        let ds = started.elapsed().as_secs_f64();
        let _ = black_box(report);
        let f = NOMINAL_US / ((r0 + ref_kernel_us()) / 2.0);
        check.push(dt * f);
        scrub.push(ds * f);
    }
    out.check_all_s = median(&check);
    out.scrub_pass_s = median(&scrub);
    Ok(out)
}

/// Host ns per (line × step) of the fused row kernel, replaying each of
/// the workload's programs over every row of a fresh memory of each pool
/// geometry it fits.
fn xbar_ns_per_line_step(kind: Kind, pool: &Pool) -> Result<f64, String> {
    let programs: Vec<&CompiledProgram> = match pool.programs.as_slice() {
        [Program::Partitioned(p)] => p.parts().iter().take(64).map(|s| s.program()).collect(),
        list => list
            .iter()
            .map(|p| match p {
                Program::Packed(p) => p,
                Program::Partitioned(_) => unreachable!("one program kind per workload"),
            })
            .collect(),
    };
    let mut geometries = kind.geometries();
    geometries.dedup();
    let (mut ns, mut line_steps) = (0.0, 0u64);
    for (n, m) in geometries {
        let mut memory = PimDeviceBuilder::new(n, m)
            .build()
            .map_err(|e| e.to_string())?
            .into_memory();
        for program in &programs {
            if program.footprint() > n {
                continue;
            }
            let steps: Vec<ParallelStep> = program
                .program()
                .steps
                .iter()
                .map(|step| match step {
                    Step::Init { cells } => ParallelStep::Init(cells.clone()),
                    Step::Gate { inputs, output, .. } => ParallelStep::Nor(inputs.clone(), *output),
                })
                .collect();
            let Some(fused) = memory.compile_fused_rows(&steps) else {
                continue;
            };
            let reps = (200_000 / (n as u64 * fused.steps()).max(1)).clamp(1, 64);
            let r0 = ref_kernel_us();
            let started = Instant::now();
            for _ in 0..reps {
                memory.exec_fused_rows(&fused, 0..n, 1);
            }
            let dt = started.elapsed().as_secs_f64();
            ns += dt * 1e9 * NOMINAL_US / ((r0 + ref_kernel_us()) / 2.0);
            line_steps += reps * n as u64 * fused.steps();
        }
    }
    if line_steps == 0 {
        return Err("no program of the workload is eligible for the fused row kernel".into());
    }
    Ok(ns / line_steps as f64)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &Modeled,
    compile: &workload::CompileReport,
    compile_s: &[f64],
    spans: &Spans,
    device: &DeviceReplay,
    xbar: f64,
    retired: u64,
    shards: u64,
    refs: &[f64],
    overhead_pct: f64,
) -> Vec<Metric> {
    let req = m.requests.max(1) as f64;
    let per = |x: f64, d: u64| x / d.max(1) as f64;
    let device_us_per_wave = per(device.run_s * 1e6, device.waves);
    vec![
        metric("compiler.compile_ms", median(compile_s) * 1e3, "ms"),
        metric(
            "compiler.programs_compiled",
            compile.programs as f64,
            "count",
        ),
        metric("compiler.partition_levels", compile.levels as f64, "count"),
        metric("compiler.cut_signals", compile.cut_signals as f64, "count"),
        metric(
            "cluster.submit_ns_per_request",
            per(spans.submit_s * 1e9, spans.requests),
            "ns",
        ),
        metric(
            "cluster.submit_allocs_per_request",
            m.submit_allocs as f64 / req,
            "count",
        ),
        metric(
            "cluster.flush_us_per_burst",
            per(spans.flush_s * 1e6, spans.bursts),
            "us",
        ),
        metric(
            "cluster.flush_self_us_per_wave",
            per(spans.flush_s * 1e6, spans.waves) - device_us_per_wave,
            "us",
        ),
        metric(
            "cluster.flush_allocs_per_request",
            m.flush_allocs as f64 / req,
            "count",
        ),
        metric(
            "cluster.waves_per_burst",
            per(m.waves as f64, m.bursts),
            "count",
        ),
        metric(
            "cluster.parts_per_wave",
            per(m.parts as f64, m.waves),
            "count",
        ),
        metric(
            "cluster.cell_utilization",
            per(m.cells_occupied as f64, m.cell_capacity),
            "ratio",
        ),
        metric(
            "cluster.shard_busy_ratio",
            per(m.busy_mem_cycles as f64, m.wall_mem_cycles * shards),
            "ratio",
        ),
        metric(
            "cluster.retries_per_kreq",
            m.retries as f64 * 1e3 / req,
            "1/kreq",
        ),
        metric("cluster.dead_letters", m.failed as f64, "count"),
        metric(
            "cluster.quarantine_bursts",
            m.quarantine_bursts as f64,
            "count",
        ),
        metric("cluster.retired_lines", retired as f64, "count"),
        metric("cluster.scrub_us_per_call", spans.scrub_s * 1e6, "us"),
        metric("cluster.scrub_corrected", m.scrub_corrected as f64, "count"),
        metric("device.run_us_per_wave", device_us_per_wave, "us"),
        metric(
            "device.run_ns_per_request",
            per(device.run_s * 1e9, device.requests),
            "ns",
        ),
        metric(
            "device.requests_per_wave",
            per(m.served as f64, m.waves),
            "count",
        ),
        metric(
            "device.mem_cycles_per_wave",
            per(m.wall_mem_cycles as f64, m.waves),
            "cycles",
        ),
        metric("device.check_all_us", device.check_all_s * 1e6, "us"),
        metric("device.scrub_pass_us", device.scrub_pass_s * 1e6, "us"),
        metric(
            "core.mem_cycles_per_request",
            m.stats.mem_cycles as f64 / req,
            "cycles",
        ),
        metric(
            "core.transfer_cycles_per_request",
            m.stats.transfer_cycles as f64 / req,
            "cycles",
        ),
        metric(
            "core.blocks_checked_per_request",
            m.stats.blocks_checked as f64 / req,
            "count",
        ),
        metric(
            "core.critical_ops_per_request",
            m.stats.critical_ops as f64 / req,
            "count",
        ),
        metric(
            "core.errors_corrected",
            m.stats.errors_corrected as f64,
            "count",
        ),
        metric(
            "core.errors_uncorrectable",
            m.stats.errors_uncorrectable as f64,
            "count",
        ),
        metric("xbar.replay_ns_per_line_step", xbar, "ns"),
        metric("host.ref_kernel_us", median(refs), "us"),
        metric("host.tracing_overhead_pct", overhead_pct, "%"),
    ]
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
