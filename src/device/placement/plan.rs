//! The plan types: [`Axis`], [`Slot`], and the validated [`PlacementPlan`].

use crate::device::DeviceError;

/// Which crossbar dimension a batch occupies.
///
/// MAGIC's row/column symmetry (the paper's §IV "row (column)" phrasing)
/// means the same compiled program executes on either axis; the diagonal
/// ECC checks a block-*row* or a block-*column* at the same cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Axis {
    /// Requests occupy rows; gates drive column voltages (`exec_*_rows`).
    #[default]
    Rows,
    /// Requests occupy columns; gates drive row voltages (`exec_*_cols`).
    Cols,
}

impl Axis {
    /// The other axis.
    #[must_use]
    pub fn flipped(self) -> Axis {
        match self {
            Axis::Rows => Axis::Cols,
            Axis::Cols => Axis::Rows,
        }
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Axis::Rows => write!(f, "rows"),
            Axis::Cols => write!(f, "cols"),
        }
    }
}

/// One request's home: a line of the plan's axis and the first cell of its
/// slot within that line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// Row index under [`Axis::Rows`], column index under [`Axis::Cols`].
    pub line: usize,
    /// First cell of the request's slot; the program's cell `c` lives at
    /// `offset + c`.
    pub offset: usize,
}

/// A validated assignment of one slot per request on one axis.
///
/// Construction ([`PlacementPlan::new`] or the [`PlacementPlan::pack`]
/// packer) guarantees every slot lies on the `line_len × line_len`
/// crossbar and no two slots overlap; a plan is therefore safe to hand to
/// [`PimDevice::run_plan`](crate::device::PimDevice::run_plan), which only
/// re-checks it against the *device's* geometry and program footprint.
///
/// ```
/// use pimecc::device::placement::{Axis, PlacementPlan};
///
/// # fn main() -> Result<(), pimecc::device::DeviceError> {
/// // 10 requests of footprint 8 on a 30-cell crossbar: 3 fit per line.
/// let plan = PlacementPlan::pack(Axis::Cols, 30, 8, 4, usize::MAX, 10)?;
/// assert_eq!(plan.requests(), 10);
/// assert_eq!(plan.lines_occupied(), 4);
/// assert_eq!(plan.max_per_line(), 3);
/// assert_eq!(plan.cells_occupied(), 80);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct PlacementPlan {
    pub(super) axis: Axis,
    pub(super) line_len: usize,
    pub(super) slot_width: usize,
    pub(super) slots: Vec<Slot>,
    /// Distinct lines the slots touch, counted once at construction (the
    /// validation pass sorts the slots anyway) so per-wave reporting does
    /// not re-sort.
    pub(super) lines_occupied: usize,
}

impl PlacementPlan {
    /// Builds a plan from explicit slots: request `i` executes in
    /// `slots[i]`, each slot reserving `slot_width` cells of its line on a
    /// `line_len × line_len` crossbar.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::ZeroSlotWidth`] — a slot must reserve ≥ 1 cell;
    /// * [`DeviceError::EmptyBatch`] — no slots;
    /// * [`DeviceError::RowOutOfRange`] — a line beyond the crossbar;
    /// * [`DeviceError::OffsetOutOfRange`] — a slot past the line end;
    /// * [`DeviceError::RowConflict`] — two slots overlap on one line.
    pub fn new(
        axis: Axis,
        line_len: usize,
        slot_width: usize,
        slots: Vec<Slot>,
    ) -> Result<Self, DeviceError> {
        if slot_width == 0 {
            return Err(DeviceError::ZeroSlotWidth);
        }
        if slots.is_empty() {
            return Err(DeviceError::EmptyBatch);
        }
        for slot in &slots {
            if slot.line >= line_len {
                return Err(DeviceError::RowOutOfRange {
                    row: slot.line,
                    n: line_len,
                });
            }
            if slot.offset + slot_width > line_len {
                return Err(DeviceError::OffsetOutOfRange {
                    line: slot.line,
                    offset: slot.offset,
                    slot_width,
                    n: line_len,
                });
            }
        }
        // Overlap: sort a copy by (line, offset); equal-width slots overlap
        // iff adjacent on a line closer than one width.
        let mut sorted: Vec<Slot> = slots.clone();
        sorted.sort_unstable_by_key(|s| (s.line, s.offset));
        for pair in sorted.windows(2) {
            if pair[0].line == pair[1].line && pair[1].offset < pair[0].offset + slot_width {
                return Err(DeviceError::RowConflict { row: pair[0].line });
            }
        }
        let lines_occupied = 1 + sorted
            .windows(2)
            .filter(|pair| pair[0].line != pair[1].line)
            .count();
        Ok(PlacementPlan {
            axis,
            line_len,
            slot_width,
            slots,
            lines_occupied,
        })
    }

    /// A zero-slot shell for [`PlacementPlan::repack`] to fill — never
    /// executed as is (every constructor rejects an empty plan).
    pub(crate) fn empty() -> Self {
        PlacementPlan {
            axis: Axis::Rows,
            line_len: 0,
            slot_width: 0,
            slots: Vec::new(),
            lines_occupied: 0,
        }
    }

    /// The axis the batch occupies.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Line length (= line count; crossbars are square) the plan was built
    /// for.
    pub fn line_len(&self) -> usize {
        self.line_len
    }

    /// Cells each slot reserves.
    pub fn slot_width(&self) -> usize {
        self.slot_width
    }

    /// One slot per request, in request order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Number of requests placed.
    pub fn requests(&self) -> usize {
        self.slots.len()
    }

    /// The distinct lines the plan touches, ascending.
    pub fn lines(&self) -> Vec<usize> {
        let mut lines: Vec<usize> = self.slots.iter().map(|s| s.line).collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Number of distinct lines the plan touches.
    pub fn lines_occupied(&self) -> usize {
        self.lines_occupied
    }

    /// Cells reserved across the crossbar: requests × slot width.
    pub fn cells_occupied(&self) -> usize {
        self.slots.len() * self.slot_width
    }

    /// Fraction of the whole crossbar's cells this plan occupies — the
    /// packing-density figure surfaced per shard in
    /// [`ShardReport`](crate::cluster::ShardReport).
    pub fn cell_utilization(&self) -> f64 {
        self.cells_occupied() as f64 / (self.line_len * self.line_len) as f64
    }

    /// Fraction of the crossbar's lines this plan occupies.
    pub fn line_utilization(&self) -> f64 {
        self.lines_occupied() as f64 / self.line_len as f64
    }

    /// Most requests sharing one line — the co-packing density the
    /// acceptance figures quote (1 = row-only placement).
    pub fn max_per_line(&self) -> usize {
        let mut lines: Vec<usize> = self.slots.iter().map(|s| s.line).collect();
        lines.sort_unstable();
        lines
            .chunk_by(|a, b| a == b)
            .map(<[usize]>::len)
            .max()
            .unwrap_or(0)
    }

    /// The slots grouped by offset, ascending: each group is the set of
    /// lines carrying a request at that offset — one gate-replay pass of
    /// the executor, in deterministic order.
    pub fn offset_groups(&self) -> Vec<(usize, Vec<usize>)> {
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut sorted: Vec<Slot> = self.slots.clone();
        sorted.sort_unstable_by_key(|s| (s.offset, s.line));
        for slot in sorted {
            match groups.last_mut() {
                Some((offset, lines)) if *offset == slot.offset => lines.push(slot.line),
                _ => groups.push((slot.offset, vec![slot.line])),
            }
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(line: usize, offset: usize) -> Slot {
        Slot { line, offset }
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        assert_eq!(
            PlacementPlan::new(Axis::Rows, 30, 0, vec![slot(0, 0)]).unwrap_err(),
            DeviceError::ZeroSlotWidth
        );
        assert_eq!(
            PlacementPlan::new(Axis::Rows, 30, 5, Vec::new()).unwrap_err(),
            DeviceError::EmptyBatch
        );
        assert_eq!(
            PlacementPlan::new(Axis::Rows, 30, 5, vec![slot(30, 0)]).unwrap_err(),
            DeviceError::RowOutOfRange { row: 30, n: 30 }
        );
        assert_eq!(
            PlacementPlan::new(Axis::Rows, 30, 5, vec![slot(2, 26)]).unwrap_err(),
            DeviceError::OffsetOutOfRange {
                line: 2,
                offset: 26,
                slot_width: 5,
                n: 30
            }
        );
    }

    #[test]
    fn overlapping_slots_are_rejected_and_touching_slots_are_not() {
        // Offsets 0 and 4 overlap at width 5; 0 and 5 touch exactly.
        assert_eq!(
            PlacementPlan::new(Axis::Cols, 30, 5, vec![slot(3, 0), slot(3, 4)]).unwrap_err(),
            DeviceError::RowConflict { row: 3 }
        );
        let plan = PlacementPlan::new(Axis::Cols, 30, 5, vec![slot(3, 5), slot(3, 0)])
            .expect("touching slots are disjoint");
        assert_eq!(plan.max_per_line(), 2);
        assert_eq!(
            PlacementPlan::new(Axis::Rows, 30, 5, vec![slot(1, 10), slot(1, 10)]).unwrap_err(),
            DeviceError::RowConflict { row: 1 },
        );
    }

    #[test]
    fn accounting_tracks_lines_cells_and_density() {
        let plan = PlacementPlan::new(
            Axis::Rows,
            30,
            6,
            vec![slot(0, 0), slot(4, 0), slot(0, 6), slot(0, 12)],
        )
        .expect("legal plan");
        assert_eq!(plan.requests(), 4);
        assert_eq!(plan.lines(), vec![0, 4]);
        assert_eq!(plan.lines_occupied(), 2);
        assert_eq!(plan.cells_occupied(), 24);
        assert_eq!(plan.max_per_line(), 3);
        assert!((plan.cell_utilization() - 24.0 / 900.0).abs() < 1e-12);
        assert!((plan.line_utilization() - 2.0 / 30.0).abs() < 1e-12);
        assert_eq!(
            plan.offset_groups(),
            vec![(0, vec![0, 4]), (6, vec![0]), (12, vec![0])]
        );
    }
}
