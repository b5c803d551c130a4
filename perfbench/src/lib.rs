//! End-to-end and per-layer benchmark of the synchronous `PimCluster`
//! front end: seeded closed-loop bursts of submit → flush → verified
//! answer on four standing workloads.
//!
//! The generator is one thread; a pool has at most two shards. Host times
//! are normalised by a reference loop run between timing windows (see
//! [`hostref`]); modeled figures come from the first pass over the seeded
//! burst sequence and repeat exactly for one seed.

pub mod alloc;
pub mod hostref;
pub mod measure;
pub mod rng;
pub mod workload;
