//! The submission queue: tickets, pending requests, and the
//! pack-by-fingerprint grouping the scheduler consumes.

use crate::compiler::PartitionedProgram;
use crate::device::CompiledProgram;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Receipt for one submitted request, redeemed against the
/// [`ClusterOutcome`](crate::cluster::ClusterOutcome) of the flush that
/// served it.
///
/// Tickets are issued in submission order and are unique for the lifetime
/// of the cluster, so they double as a deterministic tie-breaker wherever
/// the scheduler needs a stable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[must_use = "a dropped ticket cannot be redeemed against its flush's outcome"]
pub struct Ticket(pub(crate) u64);

impl Ticket {
    /// The ticket's cluster-lifetime sequence number.
    pub fn id(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket#{}", self.0)
    }
}

/// The consecutive tickets issued by one
/// [`PimCluster::submit_batch`](crate::cluster::PimCluster::submit_batch) —
/// ticket ids are cluster-lifetime sequential, so a batch is fully
/// described by its first id and length, no per-ticket allocation needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[must_use = "dropped tickets cannot be redeemed against their flush's outcome"]
pub struct TicketRange {
    pub(crate) start: u64,
    pub(crate) len: u64,
}

impl TicketRange {
    /// Number of tickets in the range.
    #[allow(clippy::len_without_is_empty)] // is_empty is defined right below
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the submission accepted no requests.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th ticket of the batch, if in range.
    pub fn get(&self, i: usize) -> Option<Ticket> {
        ((i as u64) < self.len).then(|| Ticket(self.start + i as u64))
    }

    /// Iterates the batch's tickets in submission order.
    pub fn iter(&self) -> impl Iterator<Item = Ticket> + use<> {
        (self.start..self.start + self.len).map(Ticket)
    }
}

impl IntoIterator for TicketRange {
    type Item = Ticket;
    type IntoIter = std::iter::Map<std::ops::Range<u64>, fn(u64) -> Ticket>;

    fn into_iter(self) -> Self::IntoIter {
        (self.start..self.start + self.len).map(Ticket)
    }
}

/// One accepted, not-yet-executed request. The submission instant rides
/// along so the flush that serves it can report the request's queue
/// latency ([`TicketResult::queue_latency`](crate::cluster::TicketResult)).
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub(crate) ticket: Ticket,
    pub(crate) submitted_at: Instant,
    pub(crate) program: CompiledProgram,
    pub(crate) inputs: Vec<bool>,
}

/// One accepted, not-yet-executed *partitioned* request: the same shape
/// as [`Pending`], but against a [`PartitionedProgram`] — served as a
/// chain of dependency waves rather than a single batch.
#[derive(Debug, Clone)]
pub(crate) struct PendingPartitioned {
    pub(crate) ticket: Ticket,
    pub(crate) submitted_at: Instant,
    pub(crate) program: Arc<PartitionedProgram>,
    pub(crate) inputs: Vec<bool>,
}

/// All pending requests of one program, in submission order — the unit the
/// scheduler carves row batches from.
#[derive(Debug)]
pub(crate) struct Group {
    pub(crate) program: CompiledProgram,
    pub(crate) requests: Vec<(Ticket, Instant, Vec<bool>)>,
    /// Next request index the scheduler has not yet dispatched.
    pub(crate) cursor: usize,
}

impl Group {
    pub(crate) fn remaining(&self) -> usize {
        self.requests.len() - self.cursor
    }

    /// Appends the next `n` undispatched requests to the scheduler's
    /// (reused) ticket and input buffers, advancing the cursor. The cursor
    /// never revisits a request, so the inputs move out instead of
    /// cloning.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.remaining()` — the scheduler sizes its chunks
    /// from `remaining`.
    pub(crate) fn take_into(
        &mut self,
        n: usize,
        tickets: &mut Vec<(Ticket, Instant)>,
        inputs: &mut Vec<Vec<bool>>,
    ) {
        let chunk = &mut self.requests[self.cursor..self.cursor + n];
        tickets.extend(chunk.iter().map(|&(t, at, _)| (t, at)));
        inputs.extend(chunk.iter_mut().map(|(_, _, i)| std::mem::take(i)));
        self.cursor += n;
    }
}

/// Drains `pending` into per-fingerprint groups, filling the caller's
/// reusable buffers instead of allocating fresh ones per flush.
///
/// `groups` must arrive empty; `index` is cleared here; `spare` donates
/// emptied request buffers (popped for new groups, so a steady-state flush
/// reuses last flush's capacity). `pending` keeps its own capacity for the
/// next submission burst.
///
/// Group order is the order each program *first* appeared in the queue and
/// requests keep submission order inside their group — both properties the
/// scheduler's determinism guarantee rests on (a `HashMap` iteration order
/// never reaches the dispatch plan).
pub(crate) fn group_into(
    pending: &mut Vec<Pending>,
    groups: &mut Vec<Group>,
    index: &mut HashMap<u64, usize>,
    spare: &mut Vec<Vec<(Ticket, Instant, Vec<bool>)>>,
) {
    debug_assert!(groups.is_empty(), "group arena must be drained per flush");
    index.clear();
    // Batched submissions queue long same-program runs; remembering the
    // last fingerprint skips the hash for every request after a run's
    // first.
    let mut last: Option<(u64, usize)> = None;
    for p in pending.drain(..) {
        let key = p.program.fingerprint();
        let at = match last {
            Some((k, at)) if k == key => at,
            _ => {
                let at = *index.entry(key).or_insert_with(|| {
                    groups.push(Group {
                        program: p.program.clone(),
                        requests: spare.pop().unwrap_or_default(),
                        cursor: 0,
                    });
                    groups.len() - 1
                });
                last = Some((key, at));
                at
            }
        };
        groups[at]
            .requests
            .push((p.ticket, p.submitted_at, p.inputs));
    }
}

/// One-shot [`group_into`] over fresh buffers.
#[cfg(test)]
pub(crate) fn group_by_fingerprint(mut pending: Vec<Pending>) -> Vec<Group> {
    let mut groups = Vec::new();
    group_into(
        &mut pending,
        &mut groups,
        &mut HashMap::new(),
        &mut Vec::new(),
    );
    groups
}

/// One partitioned group: the shared program and its requests in
/// submission order.
pub(crate) type PartitionedGroup = (Arc<PartitionedProgram>, Vec<(Ticket, Instant, Vec<bool>)>);

/// Drains partitioned submissions into per-fingerprint groups with the
/// same ordering guarantees as [`group_by_fingerprint`]: groups in
/// first-appearance order, requests in submission order.
pub(crate) fn group_partitioned(pending: Vec<PendingPartitioned>) -> Vec<PartitionedGroup> {
    let mut groups: Vec<PartitionedGroup> = Vec::new();
    let mut index: HashMap<u64, usize> = HashMap::new();
    for p in pending {
        let key = p.program.fingerprint();
        let at = *index.entry(key).or_insert_with(|| {
            groups.push((Arc::clone(&p.program), Vec::new()));
            groups.len() - 1
        });
        groups[at].1.push((p.ticket, p.submitted_at, p.inputs));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PimDevice;
    use pimecc_netlist::NetlistBuilder;

    fn program(bits: usize, tag: bool) -> CompiledProgram {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(bits);
        let mut g = b.nor(ins[0], ins[bits - 1]);
        if tag {
            g = b.nor(g, ins[0]);
        }
        b.output(g);
        let mut device = PimDevice::new(30, 3).expect("device");
        device.compile(&b.finish().to_nor()).expect("compiles")
    }

    #[test]
    fn groups_keep_first_appearance_order_and_submission_order() {
        let a = program(2, false);
        let b = program(3, true);
        let now = Instant::now();
        let pending = vec![
            Pending {
                ticket: Ticket(0),
                submitted_at: now,
                program: b.clone(),
                inputs: vec![true, false, true],
            },
            Pending {
                ticket: Ticket(1),
                submitted_at: now,
                program: a.clone(),
                inputs: vec![true, false],
            },
            Pending {
                ticket: Ticket(2),
                submitted_at: now,
                program: b.clone(),
                inputs: vec![false, false, true],
            },
        ];
        let groups = group_by_fingerprint(pending);
        assert_eq!(groups.len(), 2);
        assert_eq!(
            groups[0].program.fingerprint(),
            b.fingerprint(),
            "first-seen program leads"
        );
        assert_eq!(groups[0].requests.len(), 2);
        assert_eq!(groups[0].requests[0].0, Ticket(0));
        assert_eq!(groups[0].requests[1].0, Ticket(2));
        assert_eq!(groups[1].requests.len(), 1);
        assert_eq!(groups[1].requests[0].0, Ticket(1));
        assert_eq!(groups[1].requests[0].2, vec![true, false]);
        assert_eq!(groups[0].remaining(), 2);
    }
}
