//! Partition-and-route compiler: serve circuits bigger than one line.
//!
//! Every program the device layer executes must fit one crossbar line
//! after dense remap. Real netlists — the 16-bit multiplier, wide ALUs —
//! don't, so [`PimDevice::compile`](crate::device::PimDevice::compile)
//! hard-errors with
//! [`DeviceError::ProgramTooWide`](crate::device::DeviceError::ProgramTooWide).
//! This module is the escape hatch: it cuts the oversized NOR DAG into
//! line-sized parts (`pimecc_netlist::partition`), compiles each part
//! through the existing SIMPLER `map_dense` path, and resolves every route
//! once, at compile time, into an index into a per-request **signal row**:
//!
//! ```text
//! [ host inputs | part 0 exports | part 1 exports | … ]
//! ```
//!
//! Each part reads its inputs from row indices fixed here and its readback
//! lands in its own export range, so a cut signal is read back after one
//! part's wave and re-loaded into its dependents by plain index copies. The
//! cluster layer executes the resulting [`PartitionedProgram`] as
//! dependency-ordered waves with host-side routing between them — ECC
//! pre-checks run on every wave, exactly as for ordinary programs.
//!
//! Compile through
//! [`PimCluster::compile_partitioned`](crate::cluster::PimCluster::compile_partitioned)
//! or
//! [`ClusterHandle::compile_partitioned`](crate::cluster::ClusterHandle::compile_partitioned);
//! submit with the matching `submit_partitioned`. Results come back
//! through the ordinary [`Ticket`](crate::cluster::Ticket) /
//! [`ClusterOutcome`](crate::cluster::ClusterOutcome) machinery, one
//! merged result per request.
//!
//! # Example
//!
//! ```
//! use pimecc::prelude::*;
//! use pimecc::netlist::generators;
//!
//! # fn main() -> Result<(), ClusterError> {
//! // A 6x6-bit multiplier: too many gates for one 30-cell line.
//! let nor = generators::mul(6).to_nor();
//! let mut cluster = PimClusterBuilder::new(2, 30, 3).build()?;
//! let program = cluster.compile_partitioned(&nor)?;
//! assert!(program.num_parts() > 1);
//!
//! // 63 * 63 = 3969, delivered like any other submission.
//! let ticket = cluster.submit_partitioned(&program, vec![true; 12])?;
//! let outcome = cluster.flush()?;
//! let out = outcome.outputs_for(ticket).unwrap();
//! let got: u32 = out.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum();
//! assert_eq!(got, 3969);
//! # Ok(())
//! # }
//! ```

use std::hash::{Hash, Hasher};
use std::ops::Range;

use pimecc_netlist::dot::write_partition_dot;
use pimecc_netlist::partition::{partition_nor, NetlistPartition};
use pimecc_netlist::{NorNetlist, NorSource};
use pimecc_simpler::MapError;

use crate::device::{netlist_fingerprint, CompiledProgram, ProgramCache};

/// Salt separating partitioned-program fingerprints from the plain and
/// packed netlist-fingerprint domains.
const PARTITION_KEY_SALT: u64 = 0x50AB_5EC7_0A27_711E;

/// One line-sized slice of a [`PartitionedProgram`]: a SIMPLER-compiled
/// sub-program plus the signal-row indices feeding its inputs and the row
/// range its outputs fill.
#[derive(Debug, Clone)]
pub struct SubProgram {
    program: CompiledProgram,
    level: usize,
    inputs: Vec<usize>,
    exports: Range<usize>,
}

impl SubProgram {
    /// The compiled sub-program (dense-remapped, fits one line).
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Dependency level: the wave index (within the request) this part
    /// runs in; all routed inputs come from strictly lower levels.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The signal-row index each of the sub-program's inputs is read
    /// from, in input order; every index lies before [`exports`](Self::exports).
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// The signal-row range the sub-program's outputs are written to, in
    /// output order.
    pub fn exports(&self) -> Range<usize> {
        self.exports.clone()
    }
}

/// An oversized NOR netlist compiled as a DAG of line-sized sub-programs
/// with a host-side routing table — the partition-and-route analogue of
/// [`CompiledProgram`].
///
/// Produced by
/// [`PimCluster::compile_partitioned`](crate::cluster::PimCluster::compile_partitioned)
/// /
/// [`ClusterHandle::compile_partitioned`](crate::cluster::ClusterHandle::compile_partitioned)
/// and shared behind an [`Arc`](std::sync::Arc); submit requests against
/// it with the
/// matching `submit_partitioned`. The scheduler executes the parts level
/// by level, reading cut signals back after each wave and re-loading them
/// into the dependent parts' input cells.
///
/// Routing is compiled: every request owns one signal row of
/// [`signal_width`](Self::signal_width) bits laid out as
/// `[host inputs | part 0 exports | part 1 exports | …]`. The primary
/// inputs fill the head, each part's readback fills its
/// [`SubProgram::exports`] range, and every consumer — a part's
/// [`SubProgram::inputs`] or a primary [`output`](Self::outputs) — is a
/// plain index into that row. An index below
/// [`num_inputs`](Self::num_inputs) is a host input bit; any other lies in
/// exactly one part's export range (output `k` of that part sits at
/// `exports().start + k`).
#[derive(Debug)]
pub struct PartitionedProgram {
    partition: NetlistPartition,
    parts: Vec<SubProgram>,
    outputs: Vec<usize>,
    signal_width: usize,
    num_inputs: usize,
    max_row_size: usize,
    fingerprint: u64,
    gate_budget: usize,
}

impl PartitionedProgram {
    /// The sub-programs, sorted by level.
    pub fn parts(&self) -> &[SubProgram] {
        &self.parts
    }

    /// Part-index range of each dependency level; levels execute in
    /// order, one wave per level per flush.
    pub fn levels(&self) -> &[Range<usize>] {
        self.partition.levels()
    }

    /// Number of sub-programs.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Number of dependency levels — the sequential waves one request
    /// needs.
    pub fn num_levels(&self) -> usize {
        self.partition.num_levels()
    }

    /// Number of primary inputs each request must supply.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs each request receives.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The signal-row index of each primary output, in output order.
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// Bits in one request's signal row: the primary inputs plus every
    /// part's exports.
    pub fn signal_width(&self) -> usize {
        self.signal_width
    }

    /// Total cut signals routed host-side per request (each is one
    /// readback bit plus one re-loaded input bit).
    pub fn cut_signals(&self) -> usize {
        self.partition.cut_size()
    }

    /// The widest row any sub-program occupies — must fit the executing
    /// cluster's shard rows.
    pub fn max_row_size(&self) -> usize {
        self.max_row_size
    }

    /// The gate budget per part the compiler settled on.
    pub fn gate_budget(&self) -> usize {
        self.gate_budget
    }

    /// Structural identity: one value per (netlist, row width) pair, in a
    /// domain separate from plain and packed program fingerprints. The
    /// flush scheduler groups same-fingerprint requests into shared
    /// waves.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The underlying netlist partition (part DAG, cut routing, reference
    /// [`eval`](NetlistPartition::eval)).
    pub fn partition(&self) -> &NetlistPartition {
        &self.partition
    }

    /// Renders the part DAG as a Graphviz digraph (see
    /// [`write_partition_dot`]).
    pub fn to_dot(&self, name: &str) -> String {
        write_partition_dot(&self.partition, name)
    }
}

/// Maps `source` (in the partition's global coordinates) to its
/// signal-row index; `bases[p]` is where part `p`'s exports start.
fn signal_of(partition: &NetlistPartition, bases: &[usize], source: NorSource) -> usize {
    match source {
        NorSource::Input(i) => i,
        NorSource::Gate(g) => {
            let part = partition.part_of(g);
            let output = partition.parts()[part]
                .exports()
                .binary_search(&g)
                .expect("producer exports every cut gate");
            bases[part] + output
        }
    }
}

/// Partitions `netlist` and compiles every part for a `row_size`-cell
/// row, shrinking the per-part gate budget until each part's dense remap
/// fits.
///
/// # Errors
///
/// The last [`MapError`] when even single-gate parts cannot be mapped
/// (e.g. a row too narrow for a part's input count).
pub(crate) fn compile_partitioned(
    cache: &mut ProgramCache,
    netlist: &NorNetlist,
    row_size: usize,
) -> Result<PartitionedProgram, MapError> {
    let mut budget = row_size.max(1);
    loop {
        let partition = partition_nor(netlist, budget).expect("positive budget always partitions");
        // Start of each part's export range in the signal row, plus the
        // row width as the final entry.
        let mut bases = Vec::with_capacity(partition.num_parts() + 1);
        bases.push(partition.num_inputs());
        for sub in partition.parts() {
            bases.push(bases[bases.len() - 1] + sub.exports().len());
        }
        match compile_parts(cache, &partition, &bases, row_size) {
            Ok(parts) => {
                let outputs = partition
                    .outputs()
                    .iter()
                    .map(|&s| signal_of(&partition, &bases, s))
                    .collect();
                let max_row_size = parts
                    .iter()
                    .map(|p: &SubProgram| p.program.program().row_size)
                    .max()
                    .unwrap_or(0);
                let mut h = std::collections::hash_map::DefaultHasher::new();
                netlist_fingerprint(netlist).hash(&mut h);
                row_size.hash(&mut h);
                h.write_u64(PARTITION_KEY_SALT);
                return Ok(PartitionedProgram {
                    num_inputs: partition.num_inputs(),
                    outputs,
                    signal_width: bases[partition.num_parts()],
                    parts,
                    max_row_size,
                    fingerprint: h.finish(),
                    gate_budget: budget,
                    partition,
                });
            }
            Err(e) if budget > 1 => {
                // A part overflowed its line: re-cut with a smaller
                // budget (successful part compiles stay cached).
                budget = (budget * 3 / 4).max(1);
                let _ = e;
            }
            Err(e) => return Err(e),
        }
    }
}

fn compile_parts(
    cache: &mut ProgramCache,
    partition: &NetlistPartition,
    bases: &[usize],
    row_size: usize,
) -> Result<Vec<SubProgram>, MapError> {
    partition
        .parts()
        .iter()
        .enumerate()
        .map(|(pi, sub)| {
            let program = cache.compile_packed(sub.netlist(), row_size)?;
            let inputs = sub
                .inputs()
                .iter()
                .map(|&s| signal_of(partition, bases, s))
                .collect();
            Ok(SubProgram {
                program,
                level: sub.level(),
                inputs,
                exports: bases[pi]..bases[pi + 1],
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimecc_netlist::generators;

    fn compile(netlist: &NorNetlist, row_size: usize) -> PartitionedProgram {
        let mut cache = ProgramCache::default();
        compile_partitioned(&mut cache, netlist, row_size).unwrap()
    }

    #[test]
    fn every_part_fits_the_line() {
        let nor = generators::mul(8).to_nor();
        let p = compile(&nor, 30);
        assert!(p.num_parts() > 1);
        assert!(p.max_row_size() <= 30);
        for part in p.parts() {
            assert!(part.program().program().row_size <= 30);
        }
    }

    /// The part whose export range holds `signal`; `None` for a host
    /// input bit.
    fn producer(p: &PartitionedProgram, signal: usize) -> Option<usize> {
        p.parts().iter().position(|q| q.exports().contains(&signal))
    }

    #[test]
    fn routes_are_consistent_with_levels() {
        let nor = generators::mul(6).to_nor();
        let p = compile(&nor, 30);
        for part in p.parts() {
            assert_eq!(part.inputs().len(), part.program().num_inputs());
            assert_eq!(part.exports().len(), part.program().num_outputs());
            for &signal in part.inputs() {
                assert!(signal < part.exports().start, "routes flow forward");
                match producer(&p, signal) {
                    Some(src) => assert!(p.parts()[src].level() < part.level()),
                    None => assert!(signal < p.num_inputs()),
                }
            }
        }
        for &signal in p.outputs() {
            assert!(signal < p.signal_width());
        }
    }

    #[test]
    fn signal_row_lays_inputs_then_exports_in_part_order() {
        let nor = generators::mul(6).to_nor();
        let p = compile(&nor, 30);
        let mut next = p.num_inputs();
        for (pi, part) in p.parts().iter().enumerate() {
            assert_eq!(
                part.exports().start,
                next,
                "part {pi} follows its predecessor"
            );
            next = part.exports().end;
        }
        assert_eq!(p.signal_width(), next);
        // Routing through the row reproduces the partition's reference.
        for v in [0u64, 0b1011_0110_0101, 0xFFF] {
            let inputs: Vec<bool> = (0..p.num_inputs()).map(|i| v >> i & 1 != 0).collect();
            let mut row = inputs.clone();
            for (part, sub) in p.parts().iter().zip(p.partition().parts()) {
                let local: Vec<bool> = part.inputs().iter().map(|&s| row[s]).collect();
                row.extend(sub.netlist().eval(&local));
            }
            let routed: Vec<bool> = p.outputs().iter().map(|&s| row[s]).collect();
            assert_eq!(routed, p.partition().eval(&inputs));
        }
    }

    #[test]
    fn fingerprint_depends_on_netlist_and_row_size() {
        let a = generators::mul(6).to_nor();
        let b = generators::mul(7).to_nor();
        let mut cache = ProgramCache::default();
        let pa = compile_partitioned(&mut cache, &a, 30).unwrap();
        let pa2 = compile_partitioned(&mut cache, &a, 30).unwrap();
        let pa_wide = compile_partitioned(&mut cache, &a, 40).unwrap();
        let pb = compile_partitioned(&mut cache, &b, 30).unwrap();
        assert_eq!(pa.fingerprint(), pa2.fingerprint());
        assert_ne!(pa.fingerprint(), pa_wide.fingerprint());
        assert_ne!(pa.fingerprint(), pb.fingerprint());
    }

    #[test]
    fn single_part_when_everything_fits() {
        let mut b = pimecc_netlist::NetlistBuilder::new();
        let x = b.input();
        let y = b.input();
        let g = b.nor(x, y);
        b.output(g);
        let nor = b.finish().to_nor();
        let p = compile(&nor, 30);
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.num_levels(), 1);
        assert_eq!(p.cut_signals(), 0);
    }

    #[test]
    fn dot_export_names_the_graph() {
        let nor = generators::mul(6).to_nor();
        let p = compile(&nor, 30);
        let text = p.to_dot("mul6");
        assert!(text.starts_with("digraph mul6 {"));
        assert!(text.contains("doublecircle"));
    }
}
