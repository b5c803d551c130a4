//! The Check Memory (CMEM): per-diagonal check-bit crossbars and the
//! processing crossbars that run the XOR3 micro-program.
//!
//! Paper §IV-A: the CMEM is split into `m` check-bit crossbars per diagonal
//! family — crossbar `i` of dimension `(n/m)×(n/m)` holds the check-bit of
//! diagonal `i` for every block — plus dedicated *processing crossbars*
//! that compute `check ⊕ old ⊕ new` as two 4-NOR XNOR stages (8 MAGIC NORs
//! total), and a *checking crossbar* used to compare syndromes to zero.

use crate::geometry::BlockGeometry;
use crate::shifter::Family;
use pimecc_xbar::{Crossbar, LineSet, XbarError};

/// The check-bit store: `2·m` logical planes of `(n/m)×(n/m)` bits.
///
/// Plane `d` of a family holds, at `(block_row, block_col)`, the parity of
/// diagonal `d` of that block. The *simulation* lays each family out like
/// the MEM it protects: one packed row of `ceil(n/64)` words per block
/// row, in which block column `bc`'s m check-bits form the field at bits
/// `bc·m .. bc·m + m` — the same place its segment sits in a data row.
/// A changed MEM row therefore updates its block row's check rows with
/// whole-row field rotations (the barrel shifters of Fig. 5 acting on
/// every block at once), and a block-row check compares whole rows.
/// Within a field, leading diagonal `d` is bit `d`; the counter family is
/// kept reversed (diagonal `d` at bit `m - 1 - d`), the form in which row
/// rotations accumulate it. The per-bit and per-block API hides both
/// conventions: every block word it takes or returns has bit `d` =
/// diagonal `d`.
///
/// # Example
///
/// ```
/// use pimecc_core::{BlockGeometry, CheckMemory};
/// use pimecc_core::shifter::Family;
///
/// # fn main() -> Result<(), pimecc_core::CoreError> {
/// let geom = BlockGeometry::new(9, 3)?;
/// let mut cmem = CheckMemory::new(geom);
/// cmem.xor_bit(Family::Leading, 2, 0, 1, true);
/// assert!(cmem.bit(Family::Leading, 2, 0, 1));
/// assert_eq!(cmem.memristor_count(), 2 * 3 * 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CheckMemory {
    geom: BlockGeometry,
    /// Leading-family check rows, `stride` words per block row, indexed
    /// `[block_row * stride + word]`.
    leading: Vec<u64>,
    /// Counter-family check rows, same layout, fields bit-reversed.
    counter: Vec<u64>,
    /// Words per check row (`ceil(n / 64)`).
    stride: usize,
}

impl CheckMemory {
    /// Creates an all-zero check memory for `geom` (consistent with an
    /// all-zero MEM).
    pub fn new(geom: BlockGeometry) -> Self {
        let stride = geom.n().div_ceil(64);
        let words = geom.blocks_per_side() * stride;
        CheckMemory {
            geom,
            leading: vec![0; words],
            counter: vec![0; words],
            stride,
        }
    }

    /// The geometry this CMEM serves.
    pub fn geometry(&self) -> &BlockGeometry {
        &self.geom
    }

    #[inline]
    fn family(&self, family: Family) -> &[u64] {
        match family {
            Family::Leading => &self.leading,
            Family::Counter => &self.counter,
        }
    }

    #[inline]
    fn family_mut(&mut self, family: Family) -> &mut [u64] {
        match family {
            Family::Leading => &mut self.leading,
            Family::Counter => &mut self.counter,
        }
    }

    /// Word index and bit mask of diagonal `d` of block `(block_row,
    /// block_col)` in `family`'s rows.
    #[inline]
    fn index(&self, family: Family, d: usize, block_row: usize, block_col: usize) -> (usize, u64) {
        let m = self.geom.m();
        debug_assert!(d < m, "diagonal index out of range");
        debug_assert!(
            block_row < self.geom.blocks_per_side() && block_col < self.geom.blocks_per_side(),
            "block index out of range"
        );
        let bit = match family {
            Family::Leading => d,
            Family::Counter => m - 1 - d,
        };
        let p = block_col * m + bit;
        (block_row * self.stride + p / 64, 1u64 << (p % 64))
    }

    /// Reads the check-bit of diagonal `d` of block `(block_row,
    /// block_col)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on out-of-range indices.
    pub fn bit(&self, family: Family, d: usize, block_row: usize, block_col: usize) -> bool {
        let (w, mask) = self.index(family, d, block_row, block_col);
        self.family(family)[w] & mask != 0
    }

    /// Writes a check-bit directly (bulk loading / test setup).
    pub fn set_bit(
        &mut self,
        family: Family,
        d: usize,
        block_row: usize,
        block_col: usize,
        value: bool,
    ) {
        if self.bit(family, d, block_row, block_col) != value {
            self.inject_fault(family, d, block_row, block_col);
        }
    }

    /// XORs `delta` into a check-bit — the continuous-update primitive
    /// (`check ⊕= old ⊕ new`).
    pub fn xor_bit(
        &mut self,
        family: Family,
        d: usize,
        block_row: usize,
        block_col: usize,
        delta: bool,
    ) {
        if delta {
            self.inject_fault(family, d, block_row, block_col);
        }
    }

    /// Flips a check-bit unconditionally — the soft-error primitive for
    /// faults striking the CMEM itself.
    pub fn inject_fault(&mut self, family: Family, d: usize, block_row: usize, block_col: usize) {
        let (w, mask) = self.index(family, d, block_row, block_col);
        self.family_mut(family)[w] ^= mask;
    }

    /// Flips one Leading and one Counter check-bit of the same block in one
    /// call — the per-changed-cell update of word-diff ECC maintenance
    /// (every data-bit change strikes exactly one diagonal of each family).
    #[inline]
    pub fn flip_pair(
        &mut self,
        lead_d: usize,
        counter_d: usize,
        block_row: usize,
        block_col: usize,
    ) {
        self.inject_fault(Family::Leading, lead_d, block_row, block_col);
        self.inject_fault(Family::Counter, counter_d, block_row, block_col);
    }

    /// Start bit of block column `block_col`'s field within a check row,
    /// after checking that a field fits a word.
    #[inline]
    fn field_start(&self, block_col: usize) -> usize {
        assert!(self.geom.m() <= 64, "packed block words require m <= 64");
        block_col * self.geom.m()
    }

    /// XORs packed diagonal deltas into one block's check-bits — the Θ(1)
    /// form of the critical-operation update for a whole parallel write:
    /// every diagonal a MAGIC operation touched in the block flips in one
    /// operation per family (bit `d` of each delta word is diagonal `d`).
    ///
    /// # Panics
    ///
    /// Panics if `m > 64` (wider blocks update per diagonal).
    #[inline]
    pub fn xor_block_words(
        &mut self,
        block_row: usize,
        block_col: usize,
        lead_delta: u64,
        counter_delta: u64,
    ) {
        let (m, start) = (self.geom.m(), self.field_start(block_col));
        let (lead, q) = self.rows_mut(block_row..block_row + 1);
        xor_field(lead, start, m, lead_delta & (u64::MAX >> (64 - m)));
        xor_field(q, start, m, rev_field(counter_delta, m));
    }

    /// All m check-bits of one family for one block, indexed by diagonal.
    pub fn block_checks(&self, family: Family, block_row: usize, block_col: usize) -> Vec<bool> {
        (0..self.geom.m())
            .map(|d| self.bit(family, d, block_row, block_col))
            .collect()
    }

    /// All m check-bits of one family for one block, packed into a word
    /// (bit `d` is diagonal `d`) — the word-diff form of
    /// [`CheckMemory::block_checks`].
    ///
    /// # Panics
    ///
    /// Panics if `m > 64`.
    pub fn block_checks_word(&self, family: Family, block_row: usize, block_col: usize) -> u64 {
        let (m, start) = (self.geom.m(), self.field_start(block_col));
        let (lead, q) = self.rows(block_row);
        match family {
            Family::Leading => read_field(lead, start, m),
            Family::Counter => rev_field(read_field(q, start, m), m),
        }
    }

    /// Overwrites the check-bits of one block from packed parity words
    /// (bit `d` of each word is diagonal `d`) — the word-diff form of
    /// [`CheckMemory::store_block_checks`].
    ///
    /// # Panics
    ///
    /// Panics if `m > 64`.
    pub fn store_block_checks_words(
        &mut self,
        block_row: usize,
        block_col: usize,
        lead: u64,
        counter: u64,
    ) {
        let lead_delta = lead ^ self.block_checks_word(Family::Leading, block_row, block_col);
        let counter_delta = counter ^ self.block_checks_word(Family::Counter, block_row, block_col);
        self.xor_block_words(block_row, block_col, lead_delta, counter_delta);
    }

    /// Overwrites the check-bits of one block from parity vectors.
    ///
    /// # Panics
    ///
    /// Panics if either vector's length differs from `m`.
    pub fn store_block_checks(
        &mut self,
        block_row: usize,
        block_col: usize,
        lead: &[bool],
        counter: &[bool],
    ) {
        let m = self.geom.m();
        assert_eq!(lead.len(), m, "leading parity length");
        assert_eq!(counter.len(), m, "counter parity length");
        for d in 0..m {
            self.set_bit(Family::Leading, d, block_row, block_col, lead[d]);
            self.set_bit(Family::Counter, d, block_row, block_col, counter[d]);
        }
    }

    /// The leading and (reversed-field) counter check rows of one block
    /// row, `stride` words each.
    pub(crate) fn rows(&self, block_row: usize) -> (&[u64], &[u64]) {
        let row = block_row * self.stride..(block_row + 1) * self.stride;
        (&self.leading[row.clone()], &self.counter[row])
    }

    /// Mutable check rows of the block rows `block_rows`, concatenated:
    /// lets a row-team worker own the rows of its block-row chunk.
    pub(crate) fn rows_mut(
        &mut self,
        block_rows: std::ops::Range<usize>,
    ) -> (&mut [u64], &mut [u64]) {
        let words = block_rows.start * self.stride..block_rows.end * self.stride;
        (&mut self.leading[words.clone()], &mut self.counter[words])
    }

    /// Total memristor count of the check-bit crossbars (Table II:
    /// `2·m·(n/m)²`).
    pub fn memristor_count(&self) -> u64 {
        let b = self.geom.blocks_per_side() as u64;
        2 * self.geom.m() as u64 * b * b
    }
}

/// Reads the `m`-bit field (`m <= 64`) starting at bit `start` of a packed
/// row.
#[inline]
pub(crate) fn read_field(row: &[u64], start: usize, m: usize) -> u64 {
    let (w, sh) = (start / 64, start % 64);
    let mut v = row[w] >> sh;
    if sh + m > 64 {
        v |= row[w + 1] << (64 - sh);
    }
    v & (u64::MAX >> (64 - m))
}

/// XORs an `m`-bit value (`m <= 64`) into the field starting at bit
/// `start` of a packed row.
#[inline]
fn xor_field(row: &mut [u64], start: usize, m: usize, v: u64) {
    let (w, sh) = (start / 64, start % 64);
    row[w] ^= v << sh;
    if sh + m > 64 {
        row[w + 1] ^= v >> (64 - sh);
    }
}

/// Reverses the low `m` bits (`1 <= m <= 64`): maps a counter field
/// between diagonal order and its stored order.
#[inline]
pub(crate) fn rev_field(w: u64, m: usize) -> u64 {
    w.reverse_bits() >> (64 - m)
}

/// A processing crossbar: the 11-cell-deep MAGIC array that evaluates
/// `XOR3(check, old, new)` lane-parallel in 8 NOR operations.
///
/// Lane layout (one column per lane):
///
/// | row | content                 |
/// |-----|-------------------------|
/// | 0–2 | inputs `a`, `b`, `c`    |
/// | 3–6 | XNOR(a,b) temporaries   |
/// | 7–10| XNOR(t,c) temporaries   |
///
/// Row 10 holds the result, which equals `a ⊕ b ⊕ c` because
/// `XNOR(XNOR(a,b),c) = a ⊕ b ⊕ c`.
///
/// # Example
///
/// ```
/// use pimecc_core::ProcessingCrossbar;
///
/// # fn main() -> Result<(), pimecc_core::CoreError> {
/// let mut pc = ProcessingCrossbar::new(4);
/// let out = pc.compute_xor3(
///     &[true, true, false, false],
///     &[true, false, true, false],
///     &[true, false, false, true],
/// )?;
/// assert_eq!(out, vec![true, true, true, true]);
/// assert_eq!(pc.nor_cycles_per_xor3(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProcessingCrossbar {
    xb: Crossbar,
}

/// Rows of the lane layout.
const ROWS: usize = 11;

impl ProcessingCrossbar {
    /// Creates a processing crossbar with `lanes` parallel lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        ProcessingCrossbar {
            xb: Crossbar::new(ROWS, lanes),
        }
    }

    /// Number of parallel lanes.
    pub fn lanes(&self) -> usize {
        self.xb.cols()
    }

    /// The XOR3 micro-program length in MAGIC NOR cycles — 8, matching the
    /// paper §IV-A.2.
    pub fn nor_cycles_per_xor3(&self) -> u64 {
        8
    }

    /// Memristor count for `k` such crossbars per family serving an
    /// n-cell-wide MEM (Table II: `2·11·k·n`).
    pub fn memristor_count(n: usize, k: usize) -> u64 {
        2 * ROWS as u64 * k as u64 * n as u64
    }

    /// Runs the 8-NOR XOR3 micro-program on three lane vectors.
    ///
    /// # Errors
    ///
    /// Propagates MAGIC legality violations (impossible for in-range
    /// inputs).
    ///
    /// # Panics
    ///
    /// Panics if the input slices are longer than the lane count.
    pub fn compute_xor3(
        &mut self,
        a: &[bool],
        b: &[bool],
        c: &[bool],
    ) -> Result<Vec<bool>, XbarError> {
        let lanes = self.lanes();
        assert!(
            a.len() <= lanes && b.len() == a.len() && c.len() == a.len(),
            "lane overflow"
        );
        let width = a.len();
        // A contiguous range selects the active lanes without
        // materializing an index vector per XOR3 invocation.
        let sel = LineSet::Range(0..width);
        // Load inputs (data arrives over the shifters / connection unit).
        for i in 0..width {
            self.xb.write_bit(0, i, a[i]);
            self.xb.write_bit(1, i, b[i]);
            self.xb.write_bit(2, i, c[i]);
        }
        // Arm all temporaries in one parallel init.
        self.xb.exec_init_cols(&[3, 4, 5, 6, 7, 8, 9, 10], &sel)?;
        // XNOR(a, b): x=NOR(a,b); y=NOR(a,x); z=NOR(b,x); t=NOR(y,z).
        self.xb.exec_nor_cols(&[0, 1], 3, &sel)?;
        self.xb.exec_nor_cols(&[0, 3], 4, &sel)?;
        self.xb.exec_nor_cols(&[1, 3], 5, &sel)?;
        self.xb.exec_nor_cols(&[4, 5], 6, &sel)?;
        // XNOR(t, c): same shape one level down.
        self.xb.exec_nor_cols(&[6, 2], 7, &sel)?;
        self.xb.exec_nor_cols(&[6, 7], 8, &sel)?;
        self.xb.exec_nor_cols(&[2, 7], 9, &sel)?;
        self.xb.exec_nor_cols(&[8, 9], 10, &sel)?;
        Ok((0..width).map(|i| self.xb.bit(10, i)).collect())
    }

    /// Total NOR cycles executed so far (to confirm the 8-per-XOR3 cost).
    pub fn nor_cycles_total(&self) -> u64 {
        self.xb.stats().nor_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor3_truth_table_exhaustive() {
        let mut pc = ProcessingCrossbar::new(8);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        for v in 0..8 {
            a.push(v & 1 != 0);
            b.push(v & 2 != 0);
            c.push(v & 4 != 0);
        }
        let out = pc.compute_xor3(&a, &b, &c).unwrap();
        for v in 0..8usize {
            let want = (v.count_ones() % 2) == 1;
            assert_eq!(out[v], want, "pattern {v:03b}");
        }
    }

    #[test]
    fn xor3_costs_exactly_eight_nors() {
        let mut pc = ProcessingCrossbar::new(4);
        pc.compute_xor3(&[true; 4], &[false; 4], &[true; 4])
            .unwrap();
        assert_eq!(pc.nor_cycles_total(), 8);
        pc.compute_xor3(&[false; 4], &[false; 4], &[false; 4])
            .unwrap();
        assert_eq!(pc.nor_cycles_total(), 16);
    }

    #[test]
    fn xor3_reusable_across_invocations() {
        let mut pc = ProcessingCrossbar::new(2);
        for _ in 0..5 {
            let out = pc
                .compute_xor3(&[true, false], &[true, true], &[true, false])
                .unwrap();
            assert_eq!(out, vec![true, true]); // 1^1^1 = 1, 0^1^0 = 1
        }
    }

    #[test]
    fn processing_crossbar_count_matches_table2() {
        // Table II: processing XBs = 2 x 11 x k x n = 67,320 for k=3,
        // n=1020 (printed as 6.73e4).
        assert_eq!(ProcessingCrossbar::memristor_count(1020, 3), 67_320);
    }

    #[test]
    fn check_memory_round_trips_bits() {
        let geom = BlockGeometry::new(9, 3).unwrap();
        let mut cmem = CheckMemory::new(geom);
        cmem.set_bit(Family::Counter, 1, 2, 0, true);
        assert!(cmem.bit(Family::Counter, 1, 2, 0));
        cmem.xor_bit(Family::Counter, 1, 2, 0, true);
        assert!(!cmem.bit(Family::Counter, 1, 2, 0));
        cmem.xor_bit(Family::Counter, 1, 2, 0, false);
        assert!(!cmem.bit(Family::Counter, 1, 2, 0));
    }

    #[test]
    fn block_checks_pack_by_diagonal() {
        let geom = BlockGeometry::new(9, 3).unwrap();
        let mut cmem = CheckMemory::new(geom);
        cmem.store_block_checks(1, 2, &[true, false, true], &[false, true, false]);
        assert_eq!(
            cmem.block_checks(Family::Leading, 1, 2),
            vec![true, false, true]
        );
        assert_eq!(
            cmem.block_checks(Family::Counter, 1, 2),
            vec![false, true, false]
        );
        // Other blocks untouched.
        assert_eq!(cmem.block_checks(Family::Leading, 0, 0), vec![false; 3]);
    }

    #[test]
    fn packed_check_words_round_trip() {
        let geom = BlockGeometry::new(9, 3).unwrap();
        let mut cmem = CheckMemory::new(geom);
        cmem.store_block_checks_words(2, 1, 0b101, 0b010);
        assert_eq!(cmem.block_checks_word(Family::Leading, 2, 1), 0b101);
        assert_eq!(cmem.block_checks_word(Family::Counter, 2, 1), 0b010);
        assert_eq!(
            cmem.block_checks(Family::Leading, 2, 1),
            vec![true, false, true]
        );
        assert_eq!(cmem.block_checks_word(Family::Leading, 0, 0), 0);
    }

    #[test]
    fn fault_injection_flips_check_bits() {
        let geom = BlockGeometry::new(9, 3).unwrap();
        let mut cmem = CheckMemory::new(geom);
        cmem.inject_fault(Family::Leading, 0, 0, 0);
        assert!(cmem.bit(Family::Leading, 0, 0, 0));
        cmem.inject_fault(Family::Leading, 0, 0, 0);
        assert!(!cmem.bit(Family::Leading, 0, 0, 0));
    }

    #[test]
    fn memristor_count_matches_paper() {
        // Table II: check-bits = 2 x m x (n/m)^2 = 138,720 for n=1020, m=15
        // (printed as 1.39e5).
        let geom = BlockGeometry::paper();
        assert_eq!(CheckMemory::new(geom).memristor_count(), 138_720);
    }
}
