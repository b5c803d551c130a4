//! The service engine: the shard pool, the pending queue and the flush
//! machinery, shared by the synchronous [`PimCluster`] wrapper (which
//! drives it on the caller's thread) and the spawned
//! [`worker`](super::worker) (which drives it on its own thread behind a
//! channel).
//!
//! [`PimCluster`]: crate::cluster::PimCluster

use super::error::ClusterError;
use super::health::HealthMonitor;
use super::outcome::{AttemptLatencies, ClusterOutcome, FailedRequest, OutputSlice, TicketResult};
use super::queue::{group_into, group_partitioned, Group, Pending, PendingPartitioned, Ticket};
use super::scheduler::{self, AxisPolicy, PackingKnobs, WaveScratch};
use crate::compiler::PartitionedProgram;
use crate::device::{CompiledProgram, PimDevice, ProgramCache};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The flush knobs of a spawned service — when the worker drains the
/// queue without being asked.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ServiceConfig {
    /// Pending-count threshold: the worker flushes as soon as this many
    /// requests are queued.
    pub(crate) flush_at: Option<usize>,
    /// Bound on in-flight submissions (backpressure).
    pub(crate) queue_limit: Option<usize>,
}

/// What one drain of the pending queue produced.
///
/// `outcome` holds everything that executed (even when `error` is set:
/// batches completed before the failure are not lost); `dropped` lists the
/// tickets the failed flush abandoned before dispatching them. `dropped`
/// is non-empty only when `error` is set.
pub(crate) struct FlushReport {
    pub(crate) outcome: ClusterOutcome,
    pub(crate) dropped: Vec<Ticket>,
    pub(crate) error: Option<ClusterError>,
}

/// Validates one submission against the pool's shared geometry — the
/// entry check both the sync wrapper and the service handle run before
/// accepting a request.
pub(crate) fn validate_submission(
    program: &CompiledProgram,
    inputs: &[bool],
    shard_capacity: usize,
) -> Result<(), ClusterError> {
    if program.program().row_size > shard_capacity {
        return Err(ClusterError::ProgramTooWide {
            row_size: program.program().row_size,
            n: shard_capacity,
        });
    }
    if inputs.len() != program.num_inputs() {
        return Err(ClusterError::InputArity {
            got: inputs.len(),
            want: program.num_inputs(),
        });
    }
    Ok(())
}

/// Validates one *partitioned* submission against the pool's shared
/// geometry — the partitioned twin of [`validate_submission`].
pub(crate) fn validate_partitioned(
    program: &PartitionedProgram,
    inputs: &[bool],
    shard_capacity: usize,
) -> Result<(), ClusterError> {
    if program.max_row_size() > shard_capacity {
        return Err(ClusterError::ProgramTooWide {
            row_size: program.max_row_size(),
            n: shard_capacity,
        });
    }
    if inputs.len() != program.num_inputs() {
        return Err(ClusterError::InputArity {
            got: inputs.len(),
            want: program.num_inputs(),
        });
    }
    Ok(())
}

/// Reusable flush-path buffers: after the first flush warms them up, a
/// steady-state flush allocates nothing of its own — the pending queue,
/// the fingerprint groups (with their request buffers), the ticket list,
/// the grouping index, the scheduler's planning and dispatch buffers and
/// the partitioned path's signal rows all recycle last flush's capacity.
/// (The returned [`ClusterOutcome`] still allocates: it escapes to the
/// caller.)
#[derive(Default)]
pub(crate) struct FlushArena {
    /// Every ticket of the flush in submission order — consulted only on
    /// the error path to list the dropped ones.
    submitted: Vec<Ticket>,
    /// Group shells for [`group_into`]; drained (and their request
    /// buffers recycled into `request_bufs`) after each flush.
    groups: Vec<Group>,
    /// Fingerprint → group index scratch for [`group_into`].
    fp_index: HashMap<u64, usize>,
    /// Emptied per-group request buffers awaiting reuse.
    request_bufs: Vec<Vec<(Ticket, Instant, Vec<bool>)>>,
    /// The wave scheduler's buffers.
    waves: WaveScratch,
    /// Partitioned path: one signal row per request of the group in
    /// flight (`nreq × signal_width` bits).
    signals: Vec<bool>,
    /// Partitioned path: per-request progress of the group in flight.
    tracks: Vec<Track>,
}

/// The shard pool behind every cluster front-end: devices, packing knobs,
/// the shared compile cache and the pending queue.
///
/// `ClusterCore` has no opinion about *when* to flush — that is the
/// front-end's job (the sync wrapper flushes on the caller's thread, the
/// worker on thresholds and deadlines). It owns the *how*: group pending
/// traffic by fingerprint, plan waves, dispatch them across the shards.
pub(crate) struct ClusterCore {
    pub(crate) shards: Vec<PimDevice>,
    pub(crate) batch_limit: usize,
    pub(crate) pack_limit: usize,
    pub(crate) axis_policy: AxisPolicy,
    /// Re-dispatches granted to a ticket whose batch drew an
    /// uncorrectable ECC verdict on its lines before it dead-letters.
    pub(crate) max_retries: u32,
    /// Whether the scheduler's pass 3 co-locates leftover groups of other
    /// fingerprints onto claimed shards as multi-program waves.
    pub(crate) colocate: bool,
    /// Cluster-wide compile cache (netlist / packed / program key
    /// domains), shared in shape with the device layer.
    pub(crate) programs: ProgramCache,
    pub(crate) pending: Vec<Pending>,
    /// Partitioned submissions awaiting the next flush; served *after*
    /// the ordinary queue, as dependency-ordered sub-program waves with
    /// host-routed cut signals between levels.
    pub(crate) pending_partitioned: Vec<PendingPartitioned>,
    /// Waves dispatched over the pool's lifetime — the base of the
    /// wear-leveling rotation. Per-flush wave indices restart at zero,
    /// so without this a service flushing small batches (deadline or
    /// threshold) would pack *every* flush at origin 0 and the rotation
    /// would never level anything. Still a pure function of submission
    /// order, so determinism is preserved.
    pub(crate) waves_dispatched: usize,
    /// The health loop: per-shard error budgets (whose quarantine set
    /// shrinks the scheduler's active-shard list), scrub bookkeeping and
    /// the metrics ledgers. Owned here — the flush path is the single
    /// writer — and read by the front-ends via snapshots.
    pub(crate) health: HealthMonitor,
    /// Reusable flush-path buffers (alloc-free steady state).
    pub(crate) arena: FlushArena,
}

impl ClusterCore {
    /// Line length of the pool's *tallest* shard — the widest program the
    /// pool can admit (the router sends wide programs to shards that fit
    /// them; pools may mix geometries).
    pub(crate) fn shard_capacity(&self) -> usize {
        self.shards
            .iter()
            .map(PimDevice::capacity)
            .max()
            .expect("a cluster has at least one shard")
    }

    /// The distinct shard line lengths, ascending — the compile path
    /// tries them smallest-first so a program lands in the tightest
    /// geometry it fits.
    pub(crate) fn distinct_capacities(&self) -> Vec<usize> {
        let mut caps: Vec<usize> = self.shards.iter().map(PimDevice::capacity).collect();
        caps.sort_unstable();
        caps.dedup();
        caps
    }

    /// Total lines across every shard — the pool-wide capacity figure.
    pub(crate) fn total_lines(&self) -> usize {
        self.shards.iter().map(PimDevice::capacity).sum()
    }

    /// Requests waiting for the next flush, across both queues.
    pub(crate) fn pending_total(&self) -> usize {
        self.pending.len() + self.pending_partitioned.len()
    }

    /// Executes everything pending and reports what happened. Never
    /// panics on shard *errors* (they land in
    /// [`FlushReport::error`]); results of batches that completed before
    /// a failure are kept in the report's outcome, and the tickets the
    /// failure abandoned are listed so the caller can resolve them.
    ///
    /// Ordinary submissions are served first, then partitioned ones: each
    /// partitioned group runs its sub-programs as dependency-ordered
    /// waves, routing cut signals host-side between levels, and lands one
    /// merged [`TicketResult`] per request. The final result list is
    /// re-sorted by ticket so [`ClusterOutcome::outputs_for`]'s binary
    /// search keeps working across both kinds.
    pub(crate) fn flush_pending(&mut self) -> FlushReport {
        let partitioned = std::mem::take(&mut self.pending_partitioned);
        let mut outcome = ClusterOutcome::empty(self.shards.len());
        if self.pending.is_empty() && partitioned.is_empty() {
            return FlushReport {
                outcome,
                dropped: Vec::new(),
                error: None,
            };
        }
        outcome
            .results
            .reserve(self.pending.len() + partitioned.len());
        self.arena.submitted.clear();
        self.arena.submitted.extend(
            self.pending
                .iter()
                .map(|p| p.ticket)
                .chain(partitioned.iter().map(|p| p.ticket)),
        );
        group_into(
            &mut self.pending,
            &mut self.arena.groups,
            &mut self.arena.fp_index,
            &mut self.arena.request_bufs,
        );
        let knobs = self.knobs(self.waves_dispatched);
        let active = self.health.active_shards();
        let spent = self.arena.waves.spent.len();
        let mut ran = scheduler::run_waves(
            &mut self.shards,
            &mut self.arena.groups,
            knobs,
            &mut outcome,
            &active,
            &mut self.arena.waves,
        );
        // Ordinary inputs are the submitters' buffers: release them rather
        // than grow the pool the partitioned path gathers into.
        self.arena.waves.spent.truncate(spent);
        // Recycle the drained group shells: the inputs moved out through
        // `Group::take_into`, so only the (cleared) buffer capacity survives.
        for g in self.arena.groups.drain(..) {
            let mut requests = g.requests;
            requests.clear();
            self.arena.request_bufs.push(requests);
        }
        if ran.is_ok() {
            for (program, requests) in group_partitioned(partitioned) {
                if let Err(e) = self.run_partitioned_group(program, requests, &mut outcome, &active)
                {
                    ran = Err(e);
                    break;
                }
            }
        }
        // Partitioned results land after the ordinary ones but may carry
        // earlier tickets; restore the order outputs_for binary-searches.
        outcome.results.sort_by_key(|r| r.ticket);
        outcome.failed.sort_by_key(|f| f.ticket);
        // Waves that dispatched advance the wear rotation even when a
        // later wave of the same flush failed.
        self.waves_dispatched += outcome.waves;
        for (i, shard) in self.shards.iter().enumerate() {
            self.health
                .set_retired(i, shard.retired().retired_physical_lines() as u64);
        }
        self.health.observe_flush(&outcome);
        match ran {
            Ok(()) => FlushReport {
                outcome,
                dropped: Vec::new(),
                error: None,
            },
            Err(error) => {
                // Dead-lettered tickets were *resolved* (to an explicit
                // error), not dropped — only tickets with neither a
                // result nor a failure entry were abandoned.
                let served: HashSet<u64> = outcome
                    .results
                    .iter()
                    .map(|r| r.ticket.id())
                    .chain(outcome.failed.iter().map(|f| f.ticket.id()))
                    .collect();
                let dropped = self
                    .arena
                    .submitted
                    .iter()
                    .filter(|t| !served.contains(&t.id()))
                    .copied()
                    .collect();
                FlushReport {
                    outcome,
                    dropped,
                    error: Some(error),
                }
            }
        }
    }

    /// Serves one partitioned group: every request of one
    /// [`PartitionedProgram`], executed as one wave chain.
    ///
    /// Each request owns one signal row (`[host inputs | part 0 exports |
    /// part 1 exports | …]`, as compiled). Level by level, each part
    /// becomes an ordinary scheduler group whose inputs are gathered from
    /// the rows by the part's compiled indices; its served outputs are
    /// scattered back into its export range. A level's parts share one
    /// `run_waves` call and pack like unrelated ordinary traffic.
    /// Sub-requests ride on synthetic tickets (`part * n_requests +
    /// request`), harvested off the tail of `outcome` before anything else
    /// sees them; the caller gets one merged [`TicketResult`] per request,
    /// anchored at its last part and carrying the retry history of its
    /// most-retried part.
    fn run_partitioned_group(
        &mut self,
        program: Arc<PartitionedProgram>,
        requests: Vec<(Ticket, Instant, Vec<bool>)>,
        outcome: &mut ClusterOutcome,
        active: &[usize],
    ) -> Result<(), ClusterError> {
        let knobs = self.knobs(self.waves_dispatched);
        let ClusterCore { shards, arena, .. } = self;
        let (nreq, width) = (requests.len(), program.signal_width());
        arena.signals.clear();
        arena.signals.resize(nreq * width, false);
        arena.tracks.clear();
        arena.tracks.resize_with(nreq, Track::default);
        for (ri, (_, _, inputs)) in requests.iter().enumerate() {
            arena.signals[ri * width..][..inputs.len()].copy_from_slice(inputs);
        }

        for level in program.levels() {
            let wave_base = outcome.waves;
            for pi in level.clone() {
                let part = &program.parts()[pi];
                let mut sub = arena.request_bufs.pop().unwrap_or_default();
                for (ri, &(_, submitted_at, _)) in requests.iter().enumerate() {
                    // A request with a dead-lettered part is already lost.
                    if arena.tracks[ri].failed.is_none() {
                        let row = &arena.signals[ri * width..];
                        let mut local = arena.waves.spent.pop().unwrap_or_default();
                        local.clear();
                        local.extend(part.inputs().iter().map(|&s| row[s]));
                        sub.push((Ticket((pi * nreq + ri) as u64), submitted_at, local));
                    }
                }
                arena.groups.push(Group {
                    program: part.program().clone(),
                    requests: sub,
                    cursor: 0,
                });
            }
            let knobs = PackingKnobs {
                origin_base: knobs.origin_base + wave_base,
                ..knobs
            };
            let (results_from, failed_from) = (outcome.results.len(), outcome.failed.len());
            let ran = scheduler::run_waves(
                shards,
                &mut arena.groups,
                knobs,
                outcome,
                active,
                &mut arena.waves,
            );
            for mut r in outcome.results.drain(results_from..) {
                let (pi, ri) = (r.ticket.id() as usize / nreq, r.ticket.id() as usize % nreq);
                arena.signals[ri * width..][program.parts()[pi].exports()]
                    .copy_from_slice(&r.outputs);
                let track = &mut arena.tracks[ri];
                if track.worst.as_ref().is_none_or(|(a, _)| r.attempts >= *a) {
                    track.worst = Some((r.attempts, r.attempt_latencies.clone()));
                }
                if track.anchor.as_ref().is_none_or(|(p, _)| pi >= *p) {
                    r.wave += wave_base;
                    track.anchor = Some((pi, r));
                }
            }
            // A dead-lettered part fails its whole request (a partial
            // circuit has no meaning): one [`FailedRequest`] below.
            for f in outcome.failed.drain(failed_from..) {
                let failed = arena.tracks[f.ticket.id() as usize % nreq]
                    .failed
                    .get_or_insert(0);
                *failed = (*failed).max(f.attempts);
            }
            for g in arena.groups.drain(..) {
                let mut sub = g.requests;
                sub.clear();
                arena.request_bufs.push(sub);
            }
            ran?;
        }

        let nout = program.num_outputs();
        let outputs: Arc<[bool]> = (0..nreq)
            .flat_map(|ri| program.outputs().iter().map(move |&s| ri * width + s))
            .map(|i| arena.signals[i])
            .collect();
        for (ri, &(ticket, submitted_at, _)) in requests.iter().enumerate() {
            let track = std::mem::take(&mut arena.tracks[ri]);
            if let Some(attempts) = track.failed {
                outcome.failed.push(FailedRequest { ticket, attempts });
                continue;
            }
            let (attempts, attempt_latencies) = track
                .worst
                .unwrap_or((1, AttemptLatencies::one(Duration::ZERO)));
            let merged = TicketResult {
                ticket,
                outputs: OutputSlice::new(Arc::clone(&outputs), ri * nout, nout),
                attempts,
                execute_latency: attempt_latencies.iter().sum(),
                attempt_latencies,
                ..match track.anchor {
                    Some((_, last)) => last,
                    // A gate-free partition (outputs pass straight
                    // through) dispatched nothing: anchor it at rest.
                    None => TicketResult {
                        ticket,
                        shard: 0,
                        wave: 0,
                        axis: knobs.axis_policy.axis_for(0),
                        line: 0,
                        offset: 0,
                        outputs: OutputSlice::default(),
                        attempts,
                        queue_latency: submitted_at.elapsed(),
                        execute_latency: Duration::ZERO,
                        attempt_latencies: AttemptLatencies::one(Duration::ZERO),
                    },
                }
            };
            outcome.results.push(merged);
        }
        Ok(())
    }

    /// The scheduler knobs of this pool, with the wear rotation starting
    /// at `origin_base`.
    fn knobs(&self, origin_base: usize) -> PackingKnobs {
        PackingKnobs {
            batch_limit: self.batch_limit,
            pack_limit: self.pack_limit,
            axis_policy: self.axis_policy,
            origin_base,
            max_retries: self.max_retries,
            colocate: self.colocate,
        }
    }
}

/// One partitioned request's progress through its wave chain.
#[derive(Debug, Default)]
pub(crate) struct Track {
    /// The latest part's sub-request result and its part index: the
    /// merged result's placement and queue latency.
    anchor: Option<(usize, TicketResult)>,
    /// Attempts and latencies of the most-retried part so far.
    worst: Option<(u32, AttemptLatencies)>,
    /// Attempts of a dead-lettered part: the request has failed.
    failed: Option<u32>,
}

impl std::fmt::Debug for ClusterCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCore")
            .field("shards", &self.shards.len())
            .field("n", &self.shard_capacity())
            .field("batch_limit", &self.batch_limit)
            .field("pack_limit", &self.pack_limit)
            .field("axis_policy", &self.axis_policy)
            .field("max_retries", &self.max_retries)
            .field("pending", &self.pending.len())
            .field("pending_partitioned", &self.pending_partitioned.len())
            .field("compiled_programs", &self.programs.len())
            .finish()
    }
}
