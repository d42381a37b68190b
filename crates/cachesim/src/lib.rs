//! Trace-driven cache simulation (the reproduction's stand-in for the
//! paper's modified DineroIII).
//!
//! The ASPLOS'96 paper attributes its speedups to second-level-cache
//! *capacity* misses, measured by feeding Pixie address traces through a
//! DineroIII simulator modified to classify misses as compulsory,
//! capacity, or conflict in a single pass. This crate provides the same
//! capability for traces produced by the `memtrace` crate:
//!
//! * [`Cache`] — one set-associative, write-allocate, write-back LRU
//!   cache level.
//! * [`MissClassifier`] — one-pass 3C classification (Hill & Smith):
//!   compulsory if the line was never referenced, capacity if a
//!   fully-associative LRU cache of the same capacity would also miss,
//!   conflict otherwise.
//! * [`Hierarchy`] — split L1 data cache backed by a unified L2 (the
//!   configuration of both paper machines); the L2 reference stream is
//!   classified.
//! * [`MachineModel`] — the two paper machines ([`MachineModel::r8000`],
//!   [`MachineModel::r10000`]) with cache geometry and the paper's crude
//!   timing model (§4.2: 1 instruction/cycle, 7-cycle L1-miss penalty,
//!   1.06 µs / 0.85 µs L2-miss penalty), plus proportional scaling for
//!   reduced-size experiments.
//! * [`SimSink`] — a [`memtrace::TraceSink`] that drives a [`Hierarchy`]
//!   online, replacing the Pixie trace file.
//!
//! # Examples
//!
//! ```
//! use cachesim::{MachineModel, SimSink};
//! use memtrace::{Addr, TraceSink};
//!
//! let machine = MachineModel::r8000();
//! let mut sim = SimSink::new(machine.hierarchy());
//! // Stream two passes of a little loop over 64 KiB...
//! for _pass in 0..2 {
//!     for off in (0..65536u64).step_by(8) {
//!         sim.read(Addr::new(0x1000_0000 + off), 8);
//!     }
//! }
//! let report = sim.finish();
//! assert!(report.l1.misses() > 0);
//! // 64 KiB fits in the 2 MB L2: second pass hits, all L2 misses compulsory.
//! assert_eq!(report.l2.misses(), report.classes.compulsory);
//! ```

mod cache;
mod classify;
mod config;
mod hierarchy;
mod linehash;
mod linetable;
mod lru;
mod machine;
mod paging;
mod report;
mod shard;
mod sink;
mod timing;
mod topology;

pub use cache::{Cache, CacheStats};
pub use classify::{MissClass, MissClassCounts, MissClassifier};
pub use config::{CacheConfig, CacheConfigError, WritePolicy};
pub use hierarchy::{Hierarchy, HierarchyConfig, Mmu};
pub use machine::MachineModel;
pub use paging::{PageMapper, PagePolicy, Tlb, TlbStats};
pub use report::SimReport;
pub use shard::{ShardPlan, ShardedSimSink};
pub use sink::SimSink;
pub use timing::{TimeBreakdown, TimingModel};
pub use topology::{MachineTopology, TopologyLevel, MAX_TOPOLOGY_LEVELS};
