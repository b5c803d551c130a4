//! Flash-style bad-line management: per-axis strike ledgers that retire
//! block-lines after recurring uncorrectable evidence.
//!
//! A [`RetiredLines`] map lives inside each [`PimDevice`](super::PimDevice)
//! and is fed by two evidence streams:
//!
//! * **pre-/post-execution checks** — an uncorrectable verdict on a touched
//!   block-line strikes that line on the axis the batch ran on;
//! * **background scrubs** — an uncorrectable block found by
//!   [`scrub_pass`](super::PimDevice::scrub_pass) strikes the block's row
//!   *and* column line, so a quarantined shard retires its bad lines from
//!   scrub evidence alone and earns its way back into the pool.
//!
//! Once a block-line accumulates `retire_after` strikes it is **retired**:
//! the packer ([`PlacementPlan::pack_avoiding`](super::placement::PlacementPlan::pack_avoiding))
//! and the cluster's `plan_wave` stop placing requests on its physical
//! lines, scrubbing stops billing checks for blocks that are retired on
//! both axes, and the shard keeps serving on whatever capacity remains.
//! Retirement is the middle rung of the escalation ladder — finer than
//! whole-shard quarantine, permanent unlike a retry.
//!
//! Granularity is the *block-line* (a band of `m` physical lines): the
//! diagonal code's check verdicts localize errors to an m×m block, not a
//! single physical line, so retiring the whole band is the smallest unit
//! the evidence supports.

use super::placement::Axis;

/// Per-axis strike counts and retirement flags for one device's
/// block-lines. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetiredLines {
    /// Block size: each block-line spans `m` physical lines.
    m: usize,
    /// Strikes required to retire a block-line; `None` disables retirement
    /// (strikes are still counted for observability).
    retire_after: Option<u32>,
    rows: AxisLedger,
    cols: AxisLedger,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct AxisLedger {
    strikes: Vec<u32>,
    retired: Vec<bool>,
    retired_count: usize,
}

impl AxisLedger {
    fn new(block_lines: usize) -> Self {
        AxisLedger {
            strikes: vec![0; block_lines],
            retired: vec![false; block_lines],
            retired_count: 0,
        }
    }
}

impl RetiredLines {
    /// Creates an all-healthy map for an `n × n` device with `m × m`
    /// blocks. `retire_after = None` counts strikes but never retires.
    pub fn new(n: usize, m: usize, retire_after: Option<u32>) -> Self {
        debug_assert!(m > 0 && n % m == 0, "geometry must tile");
        let block_lines = n / m;
        RetiredLines {
            m,
            retire_after,
            rows: AxisLedger::new(block_lines),
            cols: AxisLedger::new(block_lines),
        }
    }

    /// The configured retirement threshold, if any.
    pub fn retire_after(&self) -> Option<u32> {
        self.retire_after
    }

    /// Number of block-lines per axis.
    pub fn block_lines(&self) -> usize {
        self.rows.strikes.len()
    }

    fn ledger(&self, axis: Axis) -> &AxisLedger {
        match axis {
            Axis::Rows => &self.rows,
            Axis::Cols => &self.cols,
        }
    }

    fn ledger_mut(&mut self, axis: Axis) -> &mut AxisLedger {
        match axis {
            Axis::Rows => &mut self.rows,
            Axis::Cols => &mut self.cols,
        }
    }

    /// Records one uncorrectable-evidence strike against `block_line` on
    /// `axis`. Returns `true` when this strike crosses the threshold and
    /// retires the line (exactly once per line).
    pub fn strike(&mut self, axis: Axis, block_line: usize) -> bool {
        let after = self.retire_after;
        let ledger = self.ledger_mut(axis);
        ledger.strikes[block_line] = ledger.strikes[block_line].saturating_add(1);
        if ledger.retired[block_line] {
            return false;
        }
        if after.is_some_and(|k| ledger.strikes[block_line] >= k) {
            ledger.retired[block_line] = true;
            ledger.retired_count += 1;
            return true;
        }
        false
    }

    /// Whether `block_line` is retired on `axis`.
    pub fn is_retired(&self, axis: Axis, block_line: usize) -> bool {
        self.ledger(axis).retired[block_line]
    }

    /// Strikes recorded so far against `block_line` on `axis`.
    pub fn strikes(&self, axis: Axis, block_line: usize) -> u32 {
        self.ledger(axis).strikes[block_line]
    }

    /// Number of retired block-lines on `axis`.
    pub fn retired_count(&self, axis: Axis) -> usize {
        self.ledger(axis).retired_count
    }

    /// Retired block-lines on `axis`, ascending.
    pub fn retired_block_lines(&self, axis: Axis) -> Vec<usize> {
        self.ledger(axis)
            .retired
            .iter()
            .enumerate()
            .filter_map(|(bl, &r)| r.then_some(bl))
            .collect()
    }

    /// The physical lines the packer must avoid on `axis`: every line of
    /// every retired block-line, ascending — the `avoid` argument of
    /// [`PlacementPlan::pack_avoiding`](super::placement::PlacementPlan::pack_avoiding).
    pub fn avoid_lines(&self, axis: Axis) -> Vec<usize> {
        let mut out = Vec::new();
        self.avoid_lines_into(axis, &mut out);
        out
    }

    /// [`RetiredLines::avoid_lines`] into a caller-owned buffer (cleared
    /// first), so a per-wave planner reuses one allocation.
    pub(crate) fn avoid_lines_into(&self, axis: Axis, out: &mut Vec<usize>) {
        out.clear();
        if self.retired_count(axis) == 0 {
            return;
        }
        for (bl, &retired) in self.ledger(axis).retired.iter().enumerate() {
            if retired {
                out.extend(bl * self.m..(bl + 1) * self.m);
            }
        }
    }

    /// Physical lines still in service on `axis` for an `n`-line device.
    pub fn lines_in_service(&self, axis: Axis, n: usize) -> usize {
        n - self.retired_count(axis) * self.m
    }

    /// Total retired physical lines across both axes (the capacity gauge
    /// health reporting surfaces).
    pub fn retired_physical_lines(&self) -> usize {
        (self.retired_count(Axis::Rows) + self.retired_count(Axis::Cols)) * self.m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strikes_accumulate_and_retire_at_the_threshold() {
        let mut map = RetiredLines::new(30, 15, Some(3));
        assert!(!map.strike(Axis::Rows, 1));
        assert!(!map.strike(Axis::Rows, 1));
        assert!(!map.is_retired(Axis::Rows, 1));
        assert!(map.strike(Axis::Rows, 1), "third strike retires");
        assert!(map.is_retired(Axis::Rows, 1));
        // Further strikes keep counting but never "re-retire".
        assert!(!map.strike(Axis::Rows, 1));
        assert_eq!(map.strikes(Axis::Rows, 1), 4);
        assert_eq!(map.retired_count(Axis::Rows), 1);
        // The other axis is independent.
        assert!(!map.is_retired(Axis::Cols, 1));
        assert_eq!(map.retired_count(Axis::Cols), 0);
    }

    #[test]
    fn avoid_lines_expand_block_lines_to_physical_bands() {
        let mut map = RetiredLines::new(30, 15, Some(1));
        assert!(map.strike(Axis::Cols, 1));
        assert_eq!(map.avoid_lines(Axis::Cols), (15..30).collect::<Vec<_>>());
        assert!(map.avoid_lines(Axis::Rows).is_empty());
        assert_eq!(map.lines_in_service(Axis::Cols, 30), 15);
        assert_eq!(map.lines_in_service(Axis::Rows, 30), 30);
        assert_eq!(map.retired_physical_lines(), 15);
    }

    #[test]
    fn disabled_threshold_counts_but_never_retires() {
        let mut map = RetiredLines::new(30, 15, None);
        for _ in 0..100 {
            assert!(!map.strike(Axis::Rows, 0));
        }
        assert_eq!(map.strikes(Axis::Rows, 0), 100);
        assert!(!map.is_retired(Axis::Rows, 0));
        assert_eq!(map.retired_physical_lines(), 0);
    }
}
