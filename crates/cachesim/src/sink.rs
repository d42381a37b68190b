//! Online simulation as a trace sink.

use crate::{Hierarchy, SimReport};
use memtrace::{Access, AccessKind, Addr, TraceSink};

/// A [`TraceSink`] that drives a cache [`Hierarchy`] online.
///
/// This replaces the paper's Pixie-trace-file → DineroIII pipeline with
/// direct streaming: the workload's traced containers emit accesses
/// straight into the simulator, so paper-scale reference streams never
/// need to be materialized.
///
/// # Examples
///
/// ```
/// use cachesim::{MachineModel, SimSink};
/// use memtrace::{Addr, TraceSink};
///
/// let mut sim = SimSink::new(MachineModel::r10000().hierarchy());
/// sim.read(Addr::new(0x1000_0000), 8);
/// sim.instructions(4);
/// let report = sim.finish();
/// assert_eq!(report.reads, 1);
/// assert_eq!(report.instructions, 4);
/// ```
#[derive(Clone, Debug)]
pub struct SimSink {
    hierarchy: Hierarchy,
    instructions: u64,
    reads: u64,
    writes: u64,
    threads: u64,
}

impl SimSink {
    /// Creates a sink over an empty hierarchy.
    pub fn new(hierarchy: Hierarchy) -> Self {
        SimSink {
            hierarchy,
            instructions: 0,
            reads: 0,
            writes: 0,
            threads: 0,
        }
    }

    /// Records that `count` threads were forked and run during the
    /// measured region (drives the timing model's overhead term).
    pub fn add_threads(&mut self, count: u64) {
        self.threads += count;
    }

    /// Enables or disables the hierarchy's fast lookup paths; reports
    /// are bit-identical either way (see [`Hierarchy::set_fast_path`]).
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.hierarchy.set_fast_path(enabled);
    }

    /// Whether the fast lookup paths are enabled.
    pub fn fast_path(&self) -> bool {
        self.hierarchy.fast_path()
    }

    /// The underlying hierarchy (e.g. for mid-run inspection).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Reads `count` consecutive L1 lines in one call: exactly `count`
    /// calls of `access(Access::read(addr + k·l1_line, size))` for `k`
    /// in `0..count`, addresses wrapping. Runs that do not straddle an
    /// L1 line skip the per-line work whose result is known in advance
    /// (DESIGN.md §3.3.1, "Line runs").
    #[inline]
    pub fn read_lines(&mut self, addr: Addr, size: u32, count: u64) {
        self.reads += count;
        self.hierarchy.read_lines(addr, size, count);
    }

    /// Zeroes all counters and cache statistics while keeping cache
    /// contents warm — call after initialization, before the measured
    /// region, to mirror the paper's "results exclude program
    /// initialization costs".
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        self.instructions = 0;
        self.reads = 0;
        self.writes = 0;
        self.threads = 0;
    }

    /// Snapshots the current statistics.
    pub fn report(&self) -> SimReport {
        SimReport {
            instructions: self.instructions,
            reads: self.reads,
            writes: self.writes,
            l1: *self.hierarchy.l1_stats(),
            l2: *self.hierarchy.l2_stats(),
            l3: self.hierarchy.l3_stats().copied(),
            classes: self.hierarchy.classes(),
            tlb: self.hierarchy.tlb_stats(),
            memory_reads: self.hierarchy.memory_reads(),
            memory_writebacks: self.hierarchy.memory_writebacks(),
            threads: self.threads,
        }
    }

    /// Consumes the sink and returns the final statistics.
    pub fn finish(self) -> SimReport {
        self.report()
    }

    /// Flushes the hierarchy's probe observations (per-level
    /// hit/rehit/miss counts, modelled miss-latency histogram,
    /// classifier verdicts) into a profile for report embedding. Kept
    /// separate from [`report`](Self::report) on purpose: `SimReport`
    /// is `PartialEq`-compared by the fast≡slow differential suite,
    /// and probe counts legitimately differ between those paths.
    pub fn run_profile(&self) -> probe::RunProfile {
        self.hierarchy.run_profile()
    }
}

impl TraceSink for SimSink {
    #[inline]
    fn access(&mut self, access: Access) {
        match access.kind {
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
        self.hierarchy.access(access);
    }

    #[inline]
    fn access_batch(&mut self, accesses: &[Access]) {
        // Count reads/writes in one pass, then drive the hierarchy
        // without re-dispatching through the trait per element. Exactly
        // equivalent to element-wise delivery.
        let mut writes = 0u64;
        for access in accesses {
            writes += u64::from(access.kind == AccessKind::Write);
        }
        self.writes += writes;
        self.reads += accesses.len() as u64 - writes;
        for &access in accesses {
            self.hierarchy.access(access);
        }
    }

    #[inline]
    fn instructions(&mut self, count: u64) {
        self.instructions += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineModel;

    #[test]
    fn counts_match_hierarchy() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        for off in (0..4096).step_by(8) {
            sim.read(Addr::new(0x1000_0000 + off), 8);
        }
        sim.write(Addr::new(0x1000_0000), 8);
        sim.instructions(100);
        let r = sim.finish();
        assert_eq!(r.reads, 512);
        assert_eq!(r.writes, 1);
        assert_eq!(r.instructions, 100);
        assert_eq!(r.l1.references(), 513);
        assert_eq!(r.classes.total(), r.l2.misses());
    }

    #[test]
    fn reset_stats_starts_measured_region() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        // "Initialization": touch everything once (cold misses).
        for off in (0..4096).step_by(8) {
            sim.write(Addr::new(off), 8);
        }
        sim.reset_stats();
        // Measured region: everything is L2-warm.
        for off in (0..4096).step_by(8) {
            sim.read(Addr::new(off), 8);
        }
        let r = sim.finish();
        assert_eq!(r.l2.misses(), 0, "no compulsory misses in measured region");
        assert_eq!(r.classes.compulsory, 0);
        assert_eq!(r.writes, 0, "init writes excluded");
    }

    #[test]
    fn batch_delivery_equals_element_wise() {
        let mut one = SimSink::new(MachineModel::r8000().hierarchy());
        let mut many = SimSink::new(MachineModel::r8000().hierarchy());
        let accesses: Vec<Access> = (0..1000u64)
            .map(|i| {
                if i % 3 == 0 {
                    Access::write(Addr::new(i * 16), 8)
                } else {
                    Access::read(Addr::new((i * 56) % 4096), 8)
                }
            })
            .collect();
        for &access in &accesses {
            one.access(access);
        }
        // Ragged chunks so batch boundaries land everywhere.
        for chunk in accesses.chunks(13) {
            many.access_batch(chunk);
        }
        assert_eq!(one.finish(), many.finish());
    }

    #[test]
    fn fast_path_knob_reaches_the_hierarchy() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        assert!(sim.fast_path());
        sim.set_fast_path(false);
        assert!(!sim.fast_path());
        assert!(!sim.hierarchy().fast_path());
    }

    #[test]
    fn reports_pass_their_conservation_check_on_every_hierarchy_shape() {
        use crate::{
            CacheConfig, Hierarchy, HierarchyConfig, Mmu, PageMapper, PagePolicy, WritePolicy,
        };
        let l1 = CacheConfig::new(1 << 10, 32, 1).unwrap();
        let l2 = CacheConfig::new(1 << 13, 64, 2).unwrap();
        let l3 = CacheConfig::new(1 << 15, 128, 4).unwrap();
        let hierarchies = [
            Hierarchy::new(HierarchyConfig::new(l1, l2)),
            Hierarchy::new(HierarchyConfig::new(
                l1.with_write_policy(WritePolicy::WriteThroughNoAllocate),
                l2,
            )),
            Hierarchy::new(HierarchyConfig::new3(l1, l2, l3)),
            Hierarchy::with_mmu(
                HierarchyConfig::new(l1, l2),
                Mmu::new(PageMapper::new(PagePolicy::RandomSeeded(3), 4096), 8),
            ),
        ];
        for (shape, hierarchy) in hierarchies.into_iter().enumerate() {
            let mut sim = SimSink::new(hierarchy);
            let mut state = 0x5EEDu64;
            for step in 0..20_000u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = Addr::new((state >> 33) % (1 << 16));
                if state.is_multiple_of(3) {
                    sim.write(addr, 8);
                } else {
                    sim.read(addr, 8);
                }
                if step == 5_000 {
                    sim.reset_stats();
                }
            }
            let report = sim.finish();
            assert!(report.l1.writebacks > 0 || shape == 1, "shape {shape}");
            assert_eq!(report.check(), Ok(()), "shape {shape}");
        }
    }

    #[test]
    fn add_threads_accumulates() {
        let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
        sim.add_threads(100);
        sim.add_threads(23);
        assert_eq!(sim.report().threads, 123);
    }
}
