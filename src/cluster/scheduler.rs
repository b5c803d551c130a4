//! The wave scheduler: turn the fingerprint groups into two-dimensional
//! [`PlacementPlan`]s — one batch per shard per wave, shards in parallel on
//! scoped threads.
//!
//! Each wave is planned in three passes:
//!
//! 1. **Spread** — walk the groups in first-submission order and carve
//!    one-request-per-line chunks of up to `batch_limit` lines, handing
//!    each chunk to the *smallest idle shard the program fits* (pools may
//!    mix geometries; wide programs route to tall shards, narrow traffic
//!    keeps the short ones busy). Parallel shards beat any amount of
//!    co-packing (they add no gate replays), so breadth comes first; a
//!    large group still spreads over several shards within one wave.
//! 2. **Densify** — if traffic remains once every shard has work, deepen
//!    the planned batches instead of queueing another wave: each job
//!    absorbs more requests of its group at additional slot offsets on
//!    the lines it already occupies (up to `line_len / footprint` per
//!    line, capped by `pack_limit`). The extra offsets replay the gate
//!    steps, which a follow-up wave would have paid anyway — but the
//!    follow-up wave's input loads and block-line ECC checks are saved.
//! 3. **Co-locate** — leftover groups of *other* fingerprints bin-pack
//!    onto the free lines of already-claimed shards, first-fit-decreasing
//!    by footprint (stable in submission order): each placed chunk
//!    becomes an extra part of that shard's multi-program wave (see
//!    [`MultiProgramPlan`](crate::device::MultiProgramPlan)), sharing the
//!    wave's input-load pass and block-line ECC checks. This
//!    is what keeps long-tail traffic (twenty programs, a handful of
//!    requests each) from paying one near-empty wave per fingerprint.
//!
//! The wave's axis comes from the cluster's [`AxisPolicy`]; under
//! [`AxisPolicy::Alternate`] even waves run on columns and odd waves on
//! rows.
//!
//! Determinism: group order, chunk carving, densify order, co-location
//! order, axis choice and shard assignment are all pure functions of
//! submission order and the cluster's knobs — no map iteration order,
//! clock or thread-completion order ever reaches the plan, so identical
//! submissions yield identical placements and results.

use super::error::ClusterError;
use super::outcome::{AttemptLatencies, ClusterOutcome, FailedRequest, OutputSlice, TicketResult};
use super::queue::{Group, Ticket};
use crate::device::{
    Axis, CompiledProgram, DeviceError, OutputArena, PimDevice, PlacementPlan, WaveTally,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the cluster orients its dispatch waves on the crossbars.
///
/// MAGIC and the diagonal ECC are row/column symmetric (the paper's §IV
/// "row (column)" phrasing): a batch costs the same on either axis, so the
/// choice is free — and alternating exercises both check dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AxisPolicy {
    /// Every wave row-parallel — the classic orientation.
    Rows,
    /// Every wave column-parallel.
    Cols,
    /// Even waves on columns, odd waves on rows (the default). Leading
    /// with the column axis is a host-side tune: the MEM cost model is
    /// axis-symmetric, but the word-parallel simulation engine executes
    /// column-parallel gates as whole-word row stores, so the first (and
    /// usually largest) wave of a flush lands on the fast axis.
    #[default]
    Alternate,
}

impl AxisPolicy {
    /// The axis a given wave (0-based within a flush) runs on.
    pub(crate) fn axis_for(self, wave: usize) -> Axis {
        match self {
            AxisPolicy::Rows => Axis::Rows,
            AxisPolicy::Cols => Axis::Cols,
            AxisPolicy::Alternate => {
                if wave % 2 == 0 {
                    Axis::Cols
                } else {
                    Axis::Rows
                }
            }
        }
    }
}

/// The planning knobs `plan_wave` works from — a pure value so the plan
/// stays a function of (groups, knobs, wave index). Per-shard line lengths
/// come from the shards themselves (pools may mix geometries).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackingKnobs {
    /// Max lines one dispatched batch may occupy.
    pub(crate) batch_limit: usize,
    /// Max requests co-packed per line (1 = the PR-2 row-only scheduler).
    pub(crate) pack_limit: usize,
    /// Axis selection per wave.
    pub(crate) axis_policy: AxisPolicy,
    /// Waves the pool dispatched before this flush: the wear-leveling
    /// rotation advances across flushes, not just inside one (per-flush
    /// wave indices restart at zero).
    pub(crate) origin_base: usize,
    /// Re-dispatches granted to a ticket whose batch reported an
    /// uncorrectable pre-check verdict on its lines, before the ticket is
    /// dead-lettered as [`ClusterError::RequestFailed`]. Zero means
    /// suspect outputs are still suppressed — they just fail immediately.
    pub(crate) max_retries: u32,
    /// Whether pass 3 runs: leftover groups of other fingerprints
    /// bin-pack onto claimed shards as extra parts of their waves. Off =
    /// the fingerprint-per-wave baseline.
    pub(crate) colocate: bool,
}

impl PackingKnobs {
    /// Requests that fit side by side in one `line_len`-cell line of
    /// `program`.
    fn per_line(&self, line_len: usize, program: &CompiledProgram) -> usize {
        (line_len / program.footprint().max(1))
            .min(self.pack_limit)
            .max(1)
    }
}

/// One program's chunk of a wave job: the main part (passes 1–2) or a
/// co-located extra (pass 3). Shells are recycled through
/// [`WaveScratch`], buffers and all.
struct JobPart {
    /// Index into `groups`: the part's program, the densify source and
    /// the requeue target of suppressed tickets.
    group: usize,
    /// Each dispatched ticket with its submission instant (queue-latency
    /// accounting).
    tickets: Vec<(Ticket, Instant)>,
    inputs: Vec<Vec<bool>>,
    /// The part's placement, line-disjoint from every other part of its
    /// job.
    plan: PlacementPlan,
}

impl Default for JobPart {
    fn default() -> Self {
        JobPart {
            group: 0,
            tickets: Vec::new(),
            inputs: Vec::new(),
            plan: PlacementPlan::empty(),
        }
    }
}

/// One shard's work for one wave: a chunk of one group under a 2D plan,
/// plus any co-located extra parts pass 3 added.
#[derive(Default)]
struct WaveJob {
    shard: usize,
    /// Lines the spread pass reserved (slots at the wave's fill origin).
    lines: usize,
    /// Retired physical lines of the shard on the wave's axis (ascending)
    /// — the plan routes around them, and the capacity accounting
    /// excludes them from the denominator.
    avoid: Vec<usize>,
    /// Line length (= line count) of *this job's* shard — per-job because
    /// the pool may mix geometries.
    line_len: usize,
    /// The main part first, then the co-located parts of other groups
    /// (pass 3) in placement order.
    parts: Vec<JobPart>,
    /// Per-part readback, parallel to `parts` (reused across waves).
    arenas: Vec<OutputArena>,
    /// Host execute time and the device's verdict, once dispatched.
    ran: Option<(Duration, Result<WaveTally, DeviceError>)>,
}

/// Planning and dispatch buffers owned by the cluster core, so a warm
/// flush plans and runs its waves without touching the heap: every
/// vector here keeps its capacity from one wave (and flush) to the next.
#[derive(Default)]
pub(crate) struct WaveScratch {
    /// The active shards, rotated left by the retry spin.
    rotated: Vec<usize>,
    /// Retired lines per rotated slot on the wave's axis.
    avoids: Vec<Vec<usize>>,
    /// Line length per rotated slot.
    caps: Vec<usize>,
    /// Rotated slots already claimed this wave.
    used: Vec<bool>,
    /// Undrained groups awaiting pass 3.
    leftover: Vec<usize>,
    /// Pass 3's lines-to-avoid for the part being placed.
    avoid: Vec<usize>,
    /// This wave's jobs, ascending by shard once planned.
    jobs: Vec<WaveJob>,
    /// Emptied shells awaiting reuse.
    spare_jobs: Vec<WaveJob>,
    spare_parts: Vec<JobPart>,
    /// Input buffers of dispatched requests, handed back for reuse (the
    /// partitioned path gathers sub-request inputs into them).
    pub(crate) spent: Vec<Vec<bool>>,
}

impl WaveScratch {
    /// Returns the wave's job and part shells to the spare pools and
    /// every request's input buffer to `spent`.
    fn recycle_jobs(&mut self) {
        for mut job in self.jobs.drain(..) {
            for mut part in job.parts.drain(..) {
                part.tickets.clear();
                // Suppressed tickets took their inputs back to the queue.
                self.spent
                    .extend(part.inputs.drain(..).filter(|v| v.capacity() > 0));
                self.spare_parts.push(part);
            }
            self.spare_jobs.push(job);
        }
    }
}

/// Per-ticket retry bookkeeping, local to one `run_waves` call: a ticket
/// appears here only while it has at least one suppressed attempt behind
/// it and has not yet been served or dead-lettered.
#[derive(Default)]
struct RetryState {
    /// Suppressed attempts so far.
    attempts: u32,
    /// Execute latency of each suppressed attempt, oldest first.
    latencies: Vec<Duration>,
}

/// Executes `groups` to completion over the `active` subset of `shards`
/// under `knobs`, folding everything into `outcome` (results and
/// dead-letters are appended unsorted; wave indices count from this
/// call's first wave).
///
/// `active` is the strictly ascending list of shard indices the plan may
/// use — the health loop's quarantine reroutes traffic by shrinking it.
/// Planning is positional over `active`, so a pool with shard `q`
/// quarantined carves, packs and rotates exactly like a pool built
/// without that shard: the plans are bit-identical up to the index
/// renaming `active[k] ↔ k` (the quarantine determinism guarantee).
///
/// On a shard failure the error is returned after the failing wave's
/// *successful* batches are folded in, and the flush's undispatched
/// traffic is abandoned — shard errors are placement or legality bugs,
/// not runtime conditions (submissions are validated up front). The
/// caller keeps `outcome`, so already-served tickets survive the error.
pub(crate) fn run_waves(
    shards: &mut [PimDevice],
    groups: &mut [Group],
    knobs: PackingKnobs,
    outcome: &mut ClusterOutcome,
    active: &[usize],
    scratch: &mut WaveScratch,
) -> Result<(), ClusterError> {
    debug_assert!(
        active.windows(2).all(|w| w[0] < w[1]) && active.iter().all(|&s| s < shards.len()),
        "active shard list must be strictly ascending and in range"
    );
    let first_wave = outcome.waves;
    // Tickets with suppressed attempts behind them, keyed by ticket id.
    // The table lives for one flush only: a requeued ticket is always
    // re-dispatched (or dead-lettered) before `run_waves` returns.
    let mut retry: HashMap<u64, RetryState> = HashMap::new();
    // Rotation applied to the active shard list: bumped after every wave
    // that suppressed at least one ticket, so a retried ticket's next
    // attempt prefers a different shard (fresh lines, independent fault
    // plane). A fault-free flush never rotates — the plans are identical
    // to a cluster that has no retry machinery at all.
    let mut spin = 0usize;
    // Waves skipped because the current axis had no serviceable lines
    // left for the remaining traffic (every fitting active shard fully
    // retired on that axis). One skip re-plans on the other axis; a
    // second consecutive skip means the cluster cannot place the
    // remaining traffic on either axis and it is dead-lettered rather
    // than looped on forever.
    let mut skipped = 0usize;
    loop {
        let wave = outcome.waves - first_wave + skipped;
        plan_wave(shards, groups, active, knobs, wave, spin, scratch);
        if scratch.jobs.is_empty() {
            if groups.iter().map(Group::remaining).sum::<usize>() == 0 {
                break;
            }
            skipped += 1;
            if skipped >= 2 {
                // No line anywhere can hold a request: fail the
                // remainder explicitly instead of spinning.
                for g in groups.iter_mut() {
                    for &(ticket, _, _) in &g.requests[g.cursor..] {
                        let attempts = retry.remove(&ticket.id()).map_or(0, |s| s.attempts);
                        outcome.failed.push(FailedRequest { ticket, attempts });
                    }
                    g.cursor = g.requests.len();
                }
                break;
            }
            continue;
        }
        skipped = 0;
        let retries_before = outcome.retries;
        let dispatched = dispatch_wave(shards, groups, knobs, outcome, &mut retry, wave, scratch);
        scratch.recycle_jobs();
        dispatched?;
        if outcome.retries > retries_before {
            spin += 1;
        }
    }
    Ok(())
}

/// Plans one wave into `scratch.jobs` (see the [module docs](self) for
/// the three passes) over the `active` shard indices, rotated left by
/// `spin` so retried tickets prefer a different shard, and routing around
/// each shard's retired lines on the wave's axis.
fn plan_wave(
    shards: &[PimDevice],
    groups: &mut [Group],
    active: &[usize],
    knobs: PackingKnobs,
    wave: usize,
    spin: usize,
    scratch: &mut WaveScratch,
) {
    let axis = knobs.axis_policy.axis_for(wave);
    let origin = knobs.origin_base + wave;
    let WaveScratch {
        rotated,
        avoids,
        caps,
        used,
        leftover,
        avoid,
        jobs,
        spare_jobs,
        spare_parts,
        ..
    } = scratch;
    debug_assert!(jobs.is_empty(), "the previous wave's jobs were recycled");
    rotated.clear();
    if !active.is_empty() {
        let cut = spin % active.len();
        rotated.extend_from_slice(&active[cut..]);
        rotated.extend_from_slice(&active[..cut]);
    }
    // Retired physical lines per rotated slot on this wave's axis. Each
    // slot is planned at most once per wave, so its list is swapped into
    // its job (the job's stale list left behind is never read again).
    if avoids.len() < rotated.len() {
        avoids.resize_with(rotated.len(), Vec::new);
    }
    for (slot, &s) in avoids.iter_mut().zip(rotated.iter()) {
        shards[s].retired().avoid_lines_into(axis, slot);
    }
    // Per-slot line length — the pool may mix geometries.
    caps.clear();
    caps.extend(rotated.iter().map(|&s| shards[s].capacity()));
    used.clear();
    used.resize(rotated.len(), false);
    // Pass 1 — spread: one-request-per-line chunks, breadth-first over the
    // active shards. A large group spreads over *several* shards within
    // one wave; that is the sharding win for single-program traffic. Each
    // chunk routes to the *smallest* idle shard its program fits (ties go
    // to rotated position, which on a uniform pool reproduces the
    // classic next-idle-shard walk exactly): wide programs claim the tall
    // shards only when they must, keeping them free for traffic that has
    // nowhere else to go.
    'groups: for (gi, g) in groups.iter_mut().enumerate() {
        let row_size = g.program.program().row_size;
        while g.remaining() > 0 {
            let mut pick: Option<usize> = None;
            for si in 0..rotated.len() {
                // Shards whose every line on this axis has retired, and
                // shards too short for this program, serve other traffic.
                if used[si] || caps[si] < row_size || avoids[si].len() >= caps[si] {
                    continue;
                }
                if pick.is_none_or(|p| caps[si] < caps[p]) {
                    pick = Some(si);
                }
            }
            let Some(si) = pick else {
                if used.iter().all(|&u| u) {
                    break 'groups;
                }
                // Nothing idle fits *this* group; narrower groups may
                // still fit the remaining short shards.
                continue 'groups;
            };
            used[si] = true;
            let mut job = spare_jobs.pop().unwrap_or_default();
            std::mem::swap(&mut job.avoid, &mut avoids[si]);
            job.shard = rotated[si];
            job.line_len = caps[si];
            let avail = job.line_len - job.avoid.len();
            job.lines = g.remaining().min(knobs.batch_limit).min(avail);
            let mut part = spare_parts.pop().unwrap_or_default();
            part.group = gi;
            g.take_into(job.lines, &mut part.tickets, &mut part.inputs);
            job.parts.push(part);
            jobs.push(job);
        }
    }
    // Pass 2 — densify: with every shard busy (or every group drained),
    // absorb leftover traffic into extra offsets of the planned batches
    // instead of extra waves. Then pack each main part.
    for job in jobs.iter_mut() {
        let main = &mut job.parts[0];
        let g = &mut groups[main.group];
        let depth = knobs.per_line(job.line_len, &g.program) - 1;
        let extra = g.remaining().min(job.lines * depth);
        if extra > 0 {
            g.take_into(extra, &mut main.tickets, &mut main.inputs);
        }
        // The slot-offset fill origin rotates with the pool-lifetime
        // wave index (origin_base counts earlier flushes): successive
        // waves start their offset-major fill one slot column further
        // along the line, leveling memristor wear across cells instead
        // of always writing from cell 0. The origin is a pure function of
        // the wave's position in the submission history, so the plan —
        // and the determinism guarantee — is unchanged in kind.
        main.plan
            .repack(
                axis,
                job.line_len,
                g.program.footprint().max(1),
                job.lines,
                knobs.pack_limit,
                main.tickets.len(),
                origin,
                &job.avoid,
            )
            .expect("planned chunks fit their packed capacity by construction");
    }
    // Pass 3 — co-locate: groups still undrained after spread + densify
    // belong to fingerprints that found no idle shard. Instead of
    // queueing them a near-empty wave each, bin-pack them onto the free
    // lines of the claimed shards, first-fit-decreasing by footprint
    // (ties keep submission order): each placed chunk becomes an extra
    // part of the shard's multi-program wave, line-disjoint from the main
    // plan and every earlier extra.
    if knobs.colocate {
        leftover.clear();
        leftover.extend((0..groups.len()).filter(|&gi| groups[gi].remaining() > 0));
        leftover.sort_unstable_by_key(|&gi| {
            (std::cmp::Reverse(groups[gi].program.footprint().max(1)), gi)
        });
        for &gi in leftover.iter() {
            for job in jobs.iter_mut() {
                let g = &mut groups[gi];
                if g.remaining() == 0 {
                    break;
                }
                if g.program.program().row_size > job.line_len {
                    continue;
                }
                // Free lines: in-service minus what the main part and
                // earlier extras hold, capped by the batch-line budget.
                let committed: usize = job.parts.iter().map(|p| p.plan.lines_occupied()).sum();
                let in_service = job.line_len - job.avoid.len();
                let free = in_service
                    .saturating_sub(committed)
                    .min(knobs.batch_limit.saturating_sub(committed));
                if free == 0 {
                    continue;
                }
                let per_line = knobs.per_line(job.line_len, &g.program);
                let take = g.remaining().min(free * per_line);
                avoid.clear();
                avoid.extend_from_slice(&job.avoid);
                for p in &job.parts {
                    avoid.extend(p.plan.slots().iter().map(|s| s.line));
                }
                avoid.sort_unstable();
                avoid.dedup();
                let mut part = spare_parts.pop().unwrap_or_default();
                part.plan
                    .repack(
                        axis,
                        job.line_len,
                        g.program.footprint().max(1),
                        free,
                        knobs.pack_limit,
                        take,
                        origin,
                        avoid,
                    )
                    .expect("co-located chunks fit the free lines by construction");
                part.group = gi;
                g.take_into(take, &mut part.tickets, &mut part.inputs);
                job.parts.push(part);
            }
        }
    }
    // `dispatch_wave` pairs jobs with disjoint `&mut` shards in one
    // ascending scan; the retry rotation can hand out shards in rotated
    // order, so restore ascending order here (shards are distinct, so an
    // unstable sort is exact).
    jobs.sort_unstable_by_key(|job| job.shard);
}

/// Runs one wave job on its shard — every part, main and co-located, in
/// one device wave — and records the execute time and verdict on the job.
fn run_job(device: &mut PimDevice, job: &mut WaveJob, groups: &[Group]) {
    let started = Instant::now();
    let WaveJob { parts, arenas, .. } = job;
    let result = device.run_wave(
        parts.len(),
        |i| {
            let part = &parts[i];
            (&groups[part.group].program, &part.plan, &part.inputs[..])
        },
        arenas,
    );
    job.ran = Some((started.elapsed(), result));
}

/// Runs the planned wave in `scratch.jobs`, each busy shard on its own
/// scoped thread, and folds the batch outcomes into `outcome`. The wave's
/// wall-clock contribution is the *maximum* busy time over its shards —
/// they tick in parallel. Successful batches are folded in even when a
/// sibling shard fails; only the first error is reported.
///
/// Tickets whose lines drew an uncorrectable ECC verdict never yield a
/// [`TicketResult`] here: their outputs are suppressed and they re-enter
/// their group (`retry` carries their attempt history) or dead-letter
/// into [`ClusterOutcome::failed`] once `knobs.max_retries` is spent.
/// Co-located parts share their wave's verdict — a suspect block-line
/// suppresses whichever parts' slots sit on it, each requeueing into its
/// *own* group.
fn dispatch_wave(
    shards: &mut [PimDevice],
    groups: &mut [Group],
    knobs: PackingKnobs,
    outcome: &mut ClusterOutcome,
    retry: &mut HashMap<u64, RetryState>,
    wave: usize,
    scratch: &mut WaveScratch,
) -> Result<(), ClusterError> {
    let dispatched_at = Instant::now();
    let jobs = &mut scratch.jobs;
    // A wave with a single busy shard runs inline: spawning (and joining)
    // a scoped thread for one job costs more than the job's glue on small
    // flushes, and the simulated wall-clock accounting below is identical
    // either way.
    if let [job] = jobs.as_mut_slice() {
        run_job(&mut shards[job.shard], job, groups);
    } else {
        // `plan_wave` assigns strictly increasing shard indices, so one
        // pass over the shards pairs each job with a disjoint
        // `&mut PimDevice`.
        let groups: &[Group] = groups;
        let mut pending = jobs.iter_mut().peekable();
        std::thread::scope(|s| {
            for (i, device) in shards.iter_mut().enumerate() {
                if pending.peek().map(|j| j.shard) == Some(i) {
                    let job = pending.next().expect("peeked");
                    s.spawn(move || run_job(device, job, groups));
                }
            }
        });
    }

    let mut wave_wall = 0;
    let mut first_error = None;
    for job in jobs.iter_mut() {
        let (execute_latency, result) = job.ran.take().expect("every planned job ran");
        let batch = match result {
            Ok(batch) => batch,
            Err(source) => {
                first_error.get_or_insert(ClusterError::Shard {
                    shard: job.shard,
                    source,
                });
                continue;
            }
        };
        wave_wall = wave_wall.max(batch.stats.mem_cycles);
        outcome.stats += batch.stats;
        outcome.input_check += batch.input_check;
        outcome.gate_evals += batch.gate_evals;
        let report = &mut outcome.shard_reports[job.shard];
        report.input_check += batch.input_check;
        report.batches += 1;
        report.busy_mem_cycles += batch.stats.mem_cycles;
        report.gate_evals += batch.gate_evals;
        // Capacity counts only in-service lines: retired lines leave the
        // denominator, so utilization reflects what the shard can still
        // hold rather than what it shipped with. One wave dispatches the
        // shard once no matter how many parts ride it — co-location
        // *raises* utilization against the same denominator.
        let in_service = job.line_len - job.avoid.len();
        report.line_capacity += in_service as u64;
        report.cell_capacity += (in_service * job.line_len) as u64;
        let unc = batch.uncorrectable_input;
        for (part, arena) in job.parts.iter_mut().zip(&job.arenas) {
            report.requests += part.tickets.len() as u64;
            report.lines_occupied += part.plan.lines_occupied() as u64;
            report.cells_occupied += part.plan.cells_occupied() as u64;
            let width = arena.width();
            // One `Arc` per part per batch: every ticket's result slices
            // into it instead of owning a fresh Vec.
            let bits: Arc<[bool]> = Arc::from(arena.as_bits());
            for (i, (&(ticket, submitted_at), slot)) in
                part.tickets.iter().zip(part.plan.slots()).enumerate()
            {
                if unc.as_ref().is_some_and(|u| u.covers_line(slot.line)) {
                    // An uncorrectable verdict covers this ticket's lines:
                    // the outputs cannot be vouched for, so they are
                    // suppressed — never resolved. The ticket re-enters
                    // its group for the next wave, or dead-letters
                    // explicitly once its attempt budget is spent.
                    let state = retry.entry(ticket.id()).or_default();
                    state.attempts += 1;
                    state.latencies.push(execute_latency);
                    if state.attempts > knobs.max_retries {
                        let state = retry.remove(&ticket.id()).expect("just updated");
                        outcome.failed.push(FailedRequest {
                            ticket,
                            attempts: state.attempts,
                        });
                    } else {
                        outcome.retries += 1;
                        groups[part.group].requests.push((
                            ticket,
                            submitted_at,
                            std::mem::take(&mut part.inputs[i]),
                        ));
                    }
                    continue;
                }
                // A first-attempt result keeps its one latency sample
                // inline; only a retried ticket's history lives on the heap.
                // A fault-free run never suppresses a ticket, so an empty
                // map skips the per-ticket hash lookup.
                let prior = if retry.is_empty() {
                    None
                } else {
                    retry.remove(&ticket.id())
                };
                let (attempts, attempt_latencies) = match prior {
                    Some(mut state) => {
                        state.latencies.push(execute_latency);
                        (state.attempts + 1, AttemptLatencies::from(state.latencies))
                    }
                    None => (1, AttemptLatencies::one(execute_latency)),
                };
                outcome.results.push(TicketResult {
                    ticket,
                    shard: job.shard,
                    wave,
                    axis: part.plan.axis(),
                    line: slot.line,
                    offset: slot.offset,
                    outputs: OutputSlice::new(Arc::clone(&bits), i * width, width),
                    attempts,
                    queue_latency: dispatched_at.saturating_duration_since(submitted_at),
                    execute_latency: attempt_latencies.iter().sum(),
                    attempt_latencies,
                });
            }
        }
    }
    outcome.wall_mem_cycles += wave_wall;
    outcome.waves += 1;
    match first_error {
        None => Ok(()),
        Some(e) => Err(e),
    }
}
