//! The dense offset-major packer — the pure planning function the device
//! entry points and the cluster scheduler share.

use super::plan::{Axis, PlacementPlan, Slot};
use crate::device::DeviceError;

impl PlacementPlan {
    /// Packs `requests` slots of `slot_width` cells onto a `line_len ×
    /// line_len` crossbar, using at most `line_limit` lines and at most
    /// `per_line_cap` slots per line.
    ///
    /// The fill is **offset-major**: request `i` lands on line `i % L` at
    /// offset `(i / L) * slot_width`, where `L = min(requests, line_limit,
    /// line_len)`. Every line therefore carries a request at offset 0
    /// before any line opens a second slot — for `requests <= L` the plan
    /// is exactly the classic one-request-per-line placement, and deeper
    /// batches add whole offset columns, which keeps the number of
    /// gate-replay passes at its minimum `ceil(requests / L)`.
    ///
    /// Pure and deterministic: the plan is a function of the arguments
    /// alone, which is what the cluster scheduler's reproducibility
    /// guarantee rests on.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::ZeroSlotWidth`] / [`DeviceError::EmptyBatch`] as in
    ///   [`PlacementPlan::new`];
    /// * [`DeviceError::ProgramTooWide`] — `slot_width` exceeds the line;
    /// * [`DeviceError::BatchTooLarge`] — more requests than the admitted
    ///   lines can hold even fully packed.
    pub fn pack(
        axis: Axis,
        line_len: usize,
        slot_width: usize,
        line_limit: usize,
        per_line_cap: usize,
        requests: usize,
    ) -> Result<Self, DeviceError> {
        Self::pack_rotated(
            axis,
            line_len,
            slot_width,
            line_limit,
            per_line_cap,
            requests,
            0,
        )
    }

    /// [`PlacementPlan::pack`] with a rotated slot-offset **fill origin**:
    /// depth `j` of the offset-major fill lands on physical offset column
    /// `(origin + j) % (line_len / slot_width)` instead of column `j`.
    ///
    /// A batch always filling from cell 0 concentrates memristor wear in
    /// the low cells of every line; rotating the origin — the cluster
    /// scheduler passes its wave index — levels write traffic across the
    /// whole line over time. `origin` may be any value (it is reduced
    /// modulo the line's geometric slot capacity), `origin == 0` is
    /// exactly [`PlacementPlan::pack`], and the plan remains a pure
    /// function of the arguments, so rotation preserves the scheduler's
    /// determinism guarantee.
    ///
    /// # Errors
    ///
    /// As [`PlacementPlan::pack`].
    pub fn pack_rotated(
        axis: Axis,
        line_len: usize,
        slot_width: usize,
        line_limit: usize,
        per_line_cap: usize,
        requests: usize,
        origin: usize,
    ) -> Result<Self, DeviceError> {
        Self::pack_avoiding(
            axis,
            line_len,
            slot_width,
            line_limit,
            per_line_cap,
            requests,
            origin,
            &[],
        )
    }

    /// [`PlacementPlan::pack_rotated`] that additionally skips the
    /// physical lines in `avoid` — the retired-line map of flash-style
    /// bad-block management (see
    /// [`RetiredLines`](crate::device::RetiredLines)).
    ///
    /// The offset-major fill runs over *logical* lines `0..L` exactly as
    /// in [`PlacementPlan::pack`]; logical line `l` is then mapped to the
    /// `l`-th non-avoided physical line, so avoided lines shrink capacity
    /// (`BatchTooLarge` reflects only the lines still in service) without
    /// changing the fill shape. `avoid` must be sorted ascending and
    /// deduplicated; an empty `avoid` is exactly
    /// [`PlacementPlan::pack_rotated`].
    ///
    /// # Errors
    ///
    /// As [`PlacementPlan::pack`], with `BatchTooLarge::rows` counting
    /// only non-avoided admitted lines.
    #[allow(clippy::too_many_arguments)]
    pub fn pack_avoiding(
        axis: Axis,
        line_len: usize,
        slot_width: usize,
        line_limit: usize,
        per_line_cap: usize,
        requests: usize,
        origin: usize,
        avoid: &[usize],
    ) -> Result<Self, DeviceError> {
        let mut plan = PlacementPlan::empty();
        plan.repack(
            axis,
            line_len,
            slot_width,
            line_limit,
            per_line_cap,
            requests,
            origin,
            avoid,
        )?;
        Ok(plan)
    }

    /// [`PlacementPlan::pack_avoiding`] in place: rebuilds `self` from the
    /// same arguments, reusing its slot buffer, so a per-wave planner packs
    /// without allocating. On error `self` is left empty.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn repack(
        &mut self,
        axis: Axis,
        line_len: usize,
        slot_width: usize,
        line_limit: usize,
        per_line_cap: usize,
        requests: usize,
        origin: usize,
        avoid: &[usize],
    ) -> Result<(), DeviceError> {
        self.slots.clear();
        self.lines_occupied = 0;
        if slot_width == 0 {
            return Err(DeviceError::ZeroSlotWidth);
        }
        if requests == 0 {
            return Err(DeviceError::EmptyBatch);
        }
        if slot_width > line_len {
            return Err(DeviceError::ProgramTooWide {
                row_size: slot_width,
                footprint: slot_width,
                n: line_len,
            });
        }
        debug_assert!(
            avoid.windows(2).all(|w| w[0] < w[1]),
            "avoid must be sorted ascending and deduplicated"
        );
        // Physical lines still in service; logical line `l` of the fill
        // lands on the `l`-th of them.
        let in_service = line_len - avoid.partition_point(|&l| l < line_len);
        let lines_avail = line_limit.min(in_service);
        // Admitted fill depth vs the line's full geometric slot capacity:
        // the former caps how many requests share a line, the latter is
        // the ring the fill origin rotates over.
        let slot_columns = line_len / slot_width;
        let per_line = slot_columns.min(per_line_cap).max(1);
        if requests > lines_avail * per_line {
            return Err(DeviceError::BatchTooLarge {
                requests,
                rows: lines_avail,
            });
        }
        let lines_used = requests.min(lines_avail);
        let origin = origin % slot_columns;
        // Depth 0 walks the in-service lines in order, skipping avoided
        // ones; every deeper slot reuses the line of its depth-0 twin.
        let mut avoided = avoid.iter().copied().peekable();
        let mut next_line = 0;
        for i in 0..requests {
            let line = if i < lines_used {
                while avoided.peek() == Some(&next_line) {
                    avoided.next();
                    next_line += 1;
                }
                next_line += 1;
                next_line - 1
            } else {
                self.slots[i % lines_used].line
            };
            self.slots.push(Slot {
                line,
                offset: ((origin + i / lines_used) % slot_columns) * slot_width,
            });
        }
        self.axis = axis;
        self.line_len = line_len;
        self.slot_width = slot_width;
        self.lines_occupied = lines_used;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shallow_batches_degenerate_to_one_request_per_line() {
        let plan = PlacementPlan::pack(Axis::Rows, 30, 7, 30, usize::MAX, 12).expect("packs");
        assert_eq!(plan.max_per_line(), 1);
        for (i, slot) in plan.slots().iter().enumerate() {
            assert_eq!((slot.line, slot.offset), (i, 0), "request {i}");
        }
    }

    #[test]
    fn deep_batches_fill_whole_offset_columns() {
        // 70 requests over 30 lines: offsets 0 and 7 full, offset 14 gets 10.
        let plan = PlacementPlan::pack(Axis::Rows, 30, 7, 30, usize::MAX, 70).expect("packs");
        assert_eq!(plan.max_per_line(), 3);
        let groups = plan.offset_groups();
        assert_eq!(groups.len(), 3, "minimal gate-replay passes");
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[1], (7, (0..30).collect()));
        assert_eq!(groups[2], (14, (0..10).collect()));
    }

    #[test]
    fn caps_and_limits_bound_the_capacity() {
        // 4 lines x 2 per line = 8 slots; 9 requests overflow.
        assert_eq!(
            PlacementPlan::pack(Axis::Cols, 30, 7, 4, 2, 9).unwrap_err(),
            DeviceError::BatchTooLarge {
                requests: 9,
                rows: 4
            }
        );
        let plan = PlacementPlan::pack(Axis::Cols, 30, 7, 4, 2, 8).expect("packs");
        assert_eq!(plan.lines_occupied(), 4);
        assert_eq!(plan.max_per_line(), 2);
        // per_line_cap = 1 is the row-only scheduler.
        assert_eq!(
            PlacementPlan::pack(Axis::Rows, 30, 7, 30, 1, 31).unwrap_err(),
            DeviceError::BatchTooLarge {
                requests: 31,
                rows: 30
            }
        );
        assert_eq!(
            PlacementPlan::pack(Axis::Rows, 30, 31, 30, 1, 1).unwrap_err(),
            DeviceError::ProgramTooWide {
                row_size: 31,
                footprint: 31,
                n: 30
            }
        );
    }

    #[test]
    fn rotated_fill_starts_at_the_origin_column_and_wraps() {
        // 30-cell lines, width 7: 4 slot columns at offsets 0/7/14/21.
        // Origin 2 over 3 lines × 70 requests... keep it readable: 8
        // requests on 3 lines, depth 3 → columns 2, 3, 0 in fill order.
        let plan =
            PlacementPlan::pack_rotated(Axis::Rows, 30, 7, 3, usize::MAX, 8, 2).expect("packs");
        let groups = plan.offset_groups();
        // offset_groups is offset-ascending; the *fill order* puts the
        // first 3 requests at column 2 (offset 14), next 3 at column 3
        // (offset 21), last 2 wrap to column 0 (offset 0).
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], (0, vec![0, 1]));
        assert_eq!(groups[1], (14, vec![0, 1, 2]));
        assert_eq!(groups[2], (21, vec![0, 1, 2]));
        // Spread slots (the first lines_used requests) sit at the origin.
        for (i, slot) in plan.slots().iter().take(3).enumerate() {
            assert_eq!((slot.line, slot.offset), (i, 14), "request {i}");
        }
    }

    #[test]
    fn origin_zero_is_exactly_the_classic_pack() {
        for requests in [1usize, 12, 70] {
            let classic =
                PlacementPlan::pack(Axis::Rows, 30, 7, 30, usize::MAX, requests).expect("packs");
            let rotated =
                PlacementPlan::pack_rotated(Axis::Rows, 30, 7, 30, usize::MAX, requests, 0)
                    .expect("packs");
            assert_eq!(classic, rotated, "{requests} requests");
            // And the origin wraps modulo the slot-column count (4 here).
            let wrapped =
                PlacementPlan::pack_rotated(Axis::Rows, 30, 7, 30, usize::MAX, requests, 4)
                    .expect("packs");
            assert_eq!(classic, wrapped, "{requests} requests, origin 4");
        }
    }

    #[test]
    fn avoided_lines_are_never_occupied_on_either_axis() {
        // Retire the first block-line band (lines 0..15) of a 30-line
        // device; every slot must land in the surviving band.
        let avoid: Vec<usize> = (0..15).collect();
        for axis in [Axis::Rows, Axis::Cols] {
            let plan = PlacementPlan::pack_avoiding(axis, 30, 7, 30, usize::MAX, 12, 0, &avoid)
                .expect("packs");
            for (i, slot) in plan.slots().iter().enumerate() {
                assert!(slot.line >= 15, "request {i} on retired line {}", slot.line);
                assert_eq!((slot.line, slot.offset), (15 + i, 0), "request {i}");
            }
        }
    }

    #[test]
    fn avoided_lines_shrink_capacity_on_either_axis() {
        // 15 of 30 lines retired, 4 slot columns: 60 slots remain.
        let avoid: Vec<usize> = (15..30).collect();
        for axis in [Axis::Rows, Axis::Cols] {
            let plan = PlacementPlan::pack_avoiding(axis, 30, 7, 30, usize::MAX, 60, 0, &avoid)
                .expect("packs");
            assert_eq!(plan.lines_occupied(), 15);
            assert_eq!(plan.max_per_line(), 4);
            assert_eq!(
                PlacementPlan::pack_avoiding(axis, 30, 7, 30, usize::MAX, 61, 0, &avoid)
                    .unwrap_err(),
                DeviceError::BatchTooLarge {
                    requests: 61,
                    rows: 15
                },
                "capacity must reflect only lines in service"
            );
        }
    }

    #[test]
    fn interleaved_avoid_list_preserves_the_fill_shape() {
        // Avoid every other line: logical lines 0..3 map to 1, 3, 5, 7.
        let avoid: Vec<usize> = (0..30).step_by(2).collect();
        let plan = PlacementPlan::pack_avoiding(Axis::Rows, 30, 7, 4, usize::MAX, 8, 0, &avoid)
            .expect("packs");
        let lines: Vec<usize> = plan.slots().iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![1, 3, 5, 7, 1, 3, 5, 7]);
        assert_eq!(plan.slots()[4].offset, 7, "second offset column");
    }

    #[test]
    fn empty_avoid_is_exactly_pack_rotated() {
        for (requests, origin) in [(1usize, 0usize), (12, 2), (70, 5)] {
            let classic =
                PlacementPlan::pack_rotated(Axis::Cols, 30, 7, 30, usize::MAX, requests, origin)
                    .expect("packs");
            let avoiding = PlacementPlan::pack_avoiding(
                Axis::Cols,
                30,
                7,
                30,
                usize::MAX,
                requests,
                origin,
                &[],
            )
            .expect("packs");
            assert_eq!(classic, avoiding, "{requests} requests, origin {origin}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Any pack the packer accepts is internally consistent: the
        // validating constructor accepts its slots as they are (in range,
        // disjoint, same line count), density within caps, line usage
        // minimal.
        #[test]
        fn packed_plans_are_disjoint_and_within_caps(
            line_len in 4usize..64,
            slot_width in 1usize..16,
            line_limit in 1usize..64,
            per_line_cap in 1usize..8,
            requests in 1usize..200,
        ) {
            match PlacementPlan::pack(
                Axis::Rows, line_len, slot_width, line_limit, per_line_cap, requests,
            ) {
                Ok(plan) => {
                    let validated =
                        PlacementPlan::new(Axis::Rows, line_len, slot_width, plan.slots().to_vec());
                    prop_assert_eq!(validated.as_ref(), Ok(&plan));
                    prop_assert_eq!(plan.requests(), requests);
                    prop_assert!(plan.max_per_line() <= per_line_cap);
                    prop_assert!(plan.lines_occupied() <= line_limit.min(line_len));
                    // Offset-major: lines only repeat once all are used.
                    prop_assert_eq!(
                        plan.lines_occupied(),
                        requests.min(line_limit.min(line_len))
                    );
                    for slot in plan.slots() {
                        prop_assert!(slot.offset + slot_width <= line_len);
                    }
                }
                Err(
                    DeviceError::BatchTooLarge { .. } | DeviceError::ProgramTooWide { .. },
                ) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }

        // An avoiding pack maps logical line `l` onto the `l`-th line in
        // service, whatever the avoid set, and passes the validating
        // constructor.
        #[test]
        fn avoiding_packs_fill_the_lines_in_service_in_order(
            line_len in 4usize..64,
            slot_width in 1usize..16,
            requests in 1usize..200,
            origin in 0usize..100,
            avoid_mask in 0u64..u64::MAX,
        ) {
            let avoid: Vec<usize> = (0..line_len).filter(|l| avoid_mask >> l & 1 == 1).collect();
            let in_service: Vec<usize> =
                (0..line_len).filter(|l| avoid_mask >> l & 1 == 0).collect();
            if let Ok(plan) = PlacementPlan::pack_avoiding(
                Axis::Rows, line_len, slot_width, line_len, usize::MAX, requests, origin, &avoid,
            ) {
                let validated =
                    PlacementPlan::new(Axis::Rows, line_len, slot_width, plan.slots().to_vec());
                prop_assert_eq!(validated.as_ref(), Ok(&plan));
                let used = plan.lines_occupied();
                for (i, slot) in plan.slots().iter().enumerate() {
                    prop_assert_eq!(slot.line, in_service[i % used]);
                }
            }
        }

        // Rotating the fill origin never changes the capacity envelope,
        // keeps slots legal, and stays a pure function of its arguments.
        #[test]
        fn rotated_packs_are_disjoint_deterministic_and_capacity_equivalent(
            line_len in 4usize..64,
            slot_width in 1usize..16,
            line_limit in 1usize..64,
            per_line_cap in 1usize..8,
            requests in 1usize..200,
            origin in 0usize..100,
        ) {
            let rotated = PlacementPlan::pack_rotated(
                Axis::Cols, line_len, slot_width, line_limit, per_line_cap, requests, origin,
            );
            let classic = PlacementPlan::pack(
                Axis::Cols, line_len, slot_width, line_limit, per_line_cap, requests,
            );
            match rotated {
                Ok(plan) => {
                    let again = PlacementPlan::pack_rotated(
                        Axis::Cols, line_len, slot_width, line_limit, per_line_cap,
                        requests, origin,
                    ).expect("same arguments pack again");
                    prop_assert_eq!(&plan, &again, "rotation must be deterministic");
                    let validated =
                        PlacementPlan::new(Axis::Cols, line_len, slot_width, plan.slots().to_vec());
                    prop_assert_eq!(validated.as_ref(), Ok(&plan));
                    prop_assert_eq!(plan.requests(), requests);
                    prop_assert!(plan.max_per_line() <= per_line_cap);
                    prop_assert_eq!(
                        plan.lines_occupied(),
                        requests.min(line_limit.min(line_len))
                    );
                    for slot in plan.slots() {
                        prop_assert_eq!(slot.offset % slot_width, 0);
                        prop_assert!(slot.offset + slot_width <= line_len);
                    }
                    let classic = classic.expect("rotation does not change capacity");
                    prop_assert_eq!(classic.lines_occupied(), plan.lines_occupied());
                    prop_assert_eq!(classic.max_per_line(), plan.max_per_line());
                }
                Err(e) => prop_assert_eq!(classic.unwrap_err(), e),
            }
        }
    }
}
