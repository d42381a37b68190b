//! Aggregated simulation results in the paper's table format.

use crate::{CacheStats, MachineModel, MissClassCounts, TimeBreakdown, TlbStats};
use std::fmt;

/// Everything the paper's cache-simulation tables (3, 5, 7, 9) report
/// for one program version, plus enough to drive the timing model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Instructions accounted analytically (the paper's "I fetches").
    pub instructions: u64,
    /// Data reads observed.
    pub reads: u64,
    /// Data writes observed.
    pub writes: u64,
    /// L1 data-cache statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// L3 statistics, when a third level was simulated.
    pub l3: Option<CacheStats>,
    /// 3C classification of L2 misses.
    pub classes: MissClassCounts,
    /// TLB statistics (zero when no MMU is simulated).
    pub tlb: TlbStats,
    /// Demand fetches that reached memory.
    pub memory_reads: u64,
    /// Dirty L2 lines written back to memory.
    pub memory_writebacks: u64,
    /// Threads forked+run during the measured region (0 for unthreaded
    /// versions); drives the thread-overhead term of the timing model.
    pub threads: u64,
}

impl SimReport {
    /// Total data references.
    pub fn data_references(&self) -> u64 {
        self.reads + self.writes
    }

    /// L1 miss rate in percent of data references (the denominator the
    /// paper's tables use).
    pub fn l1_miss_rate_percent(&self) -> f64 {
        if self.data_references() == 0 {
            0.0
        } else {
            100.0 * self.l1.misses() as f64 / self.data_references() as f64
        }
    }

    /// L2 miss rate in percent of L1 misses (the paper's convention:
    /// each level's rate is relative to the references it sees).
    pub fn l2_miss_rate_percent(&self) -> f64 {
        self.l2.miss_rate_percent()
    }

    /// Misses of the DRAM-facing level: the L3 when present, else the
    /// L2 — what the timing model charges the memory penalty for.
    pub fn llc_misses(&self) -> u64 {
        match &self.l3 {
            Some(l3) => l3.misses(),
            None => self.l2.misses(),
        }
    }

    /// Checks the conservation laws every simulated report obeys, and
    /// names the first one violated:
    ///
    /// * at every level, read (write) misses ≤ read (write) references;
    /// * the 3C classes sum to the DRAM-facing level's misses, which
    ///   equal the demand fetches that reached memory;
    /// * the L2 sees exactly the L1's misses plus its write-backs — or,
    ///   under a write-through no-allocate L1 (which never writes
    ///   back), its read misses plus every write;
    /// * an L3, when present, sees exactly the L2's misses plus its
    ///   write-backs.
    ///
    /// # Examples
    ///
    /// ```
    /// use cachesim::{MachineModel, SimSink};
    /// use memtrace::{Addr, TraceSink};
    ///
    /// let mut sim = SimSink::new(MachineModel::r8000().hierarchy());
    /// sim.write(Addr::new(0x1000), 8);
    /// let mut report = sim.finish();
    /// assert_eq!(report.check(), Ok(()));
    /// report.memory_reads += 1;
    /// assert!(report.check().is_err());
    /// ```
    pub fn check(&self) -> Result<(), String> {
        let levels = [
            ("L1", Some(self.l1)),
            ("L2", Some(self.l2)),
            ("L3", self.l3),
        ];
        for (name, stats) in levels {
            let Some(s) = stats else { continue };
            if s.read_misses > s.reads || s.write_misses > s.writes {
                return Err(format!(
                    "{name} misses exceed its references (read misses {} of {} reads, write \
                     misses {} of {} writes)",
                    s.read_misses, s.reads, s.write_misses, s.writes
                ));
            }
        }
        let llc = self.llc_misses();
        if self.classes.total() != llc {
            return Err(format!(
                "3C classes sum to {} but the DRAM-facing level missed {llc} times",
                self.classes.total()
            ));
        }
        if self.memory_reads != llc {
            return Err(format!(
                "{} memory reads but the DRAM-facing level missed {llc} times",
                self.memory_reads
            ));
        }
        let (l1, l2_refs) = (&self.l1, self.l2.references());
        let write_back = l1.misses() + l1.writebacks;
        let write_through = l1.read_misses + l1.writes;
        if l2_refs != write_back && (l1.writebacks != 0 || l2_refs != write_through) {
            return Err(format!(
                "L2 saw {l2_refs} references but the L1 missed {} times and wrote back {}",
                l1.misses(),
                l1.writebacks
            ));
        }
        let l2 = &self.l2;
        match self.l3 {
            Some(l3) if l3.references() != l2.misses() + l2.writebacks => Err(format!(
                "L3 saw {} references but the L2 missed {} times and wrote back {}",
                l3.references(),
                l2.misses(),
                l2.writebacks
            )),
            _ => Ok(()),
        }
    }

    /// Models execution time on `machine` using the paper's crude model,
    /// charging per-thread overhead at the machine's Table 1 value.
    pub fn time_on(&self, machine: &MachineModel) -> TimeBreakdown {
        let timing = machine.timing();
        let mut breakdown = timing.estimate_with_threads(
            self.instructions,
            self.l1.misses(),
            self.llc_misses(),
            self.threads,
            machine.thread_overhead_ns(),
        );
        breakdown.tlb_seconds =
            timing.tlb_seconds(self.tlb.misses, machine.tlb_miss_penalty_cycles());
        breakdown
    }
}

impl fmt::Display for SimReport {
    /// Renders the rows of the paper's per-version simulation columns
    /// ("memory references and cache misses in thousands").
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = |v: u64| (v as f64 / 1000.0).round() as u64;
        writeln!(f, "I fetches      {:>14}k", k(self.instructions))?;
        writeln!(f, "D references   {:>14}k", k(self.data_references()))?;
        writeln!(f, "L1 misses      {:>14}k", k(self.l1.misses()))?;
        writeln!(f, "  rate         {:>14.1}%", self.l1_miss_rate_percent())?;
        writeln!(f, "L2 misses      {:>14}k", k(self.l2.misses()))?;
        writeln!(f, "  rate         {:>14.1}%", self.l2_miss_rate_percent())?;
        writeln!(f, "L2 compulsory  {:>14}k", k(self.classes.compulsory))?;
        writeln!(f, "L2 capacity    {:>14}k", k(self.classes.capacity))?;
        write!(f, "L2 conflict    {:>14}k", k(self.classes.conflict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            instructions: 1_000_000,
            reads: 300_000,
            writes: 100_000,
            l1: CacheStats {
                reads: 300_000,
                writes: 100_000,
                read_misses: 30_000,
                write_misses: 10_000,
                writebacks: 5_000,
            },
            l2: CacheStats {
                reads: 40_000,
                writes: 5_000,
                read_misses: 4_000,
                write_misses: 500,
                writebacks: 100,
            },
            classes: MissClassCounts {
                compulsory: 500,
                capacity: 3_800,
                conflict: 200,
            },
            l3: None,
            tlb: TlbStats::default(),
            memory_reads: 4_500,
            memory_writebacks: 100,
            threads: 0,
        }
    }

    #[test]
    fn rates_match_paper_conventions() {
        let r = report();
        assert!((r.l1_miss_rate_percent() - 10.0).abs() < 1e-9);
        assert!((r.l2_miss_rate_percent() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_contains_class_rows() {
        let s = report().to_string();
        assert!(s.contains("L2 compulsory"), "{s}");
        assert!(s.contains("L2 capacity"), "{s}");
        assert!(s.contains("L2 conflict"), "{s}");
        assert!(s.contains("10.0%"), "{s}");
    }

    #[test]
    fn time_on_charges_all_components() {
        let machine = MachineModel::r8000();
        let mut r = report();
        let base = r.time_on(&machine).total();
        r.threads = 1_000_000;
        let with_threads = r.time_on(&machine).total();
        // 1M threads at 1.6 µs each = 1.6 s extra.
        assert!((with_threads - base - 1.6).abs() < 1e-6);
    }

    #[test]
    fn check_accepts_a_consistent_report_and_names_each_broken_law() {
        assert_eq!(report().check(), Ok(()));
        assert_eq!(SimReport::default().check(), Ok(()));
        type Corruption = fn(&mut SimReport);
        let broken: [(Corruption, &str); 5] = [
            (|r| r.l2.write_misses = r.l2.writes + 1, "L2 misses exceed"),
            (
                |r| {
                    r.l3 = Some(CacheStats {
                        reads: 1,
                        read_misses: 2,
                        ..CacheStats::default()
                    });
                },
                "L3 misses exceed",
            ),
            (|r| r.classes.conflict += 1, "3C classes sum"),
            (|r| r.memory_reads -= 1, "memory reads"),
            (|r| r.l1.writebacks += 1, "L2 saw"),
        ];
        for (corrupt, law) in broken {
            let mut r = report();
            corrupt(&mut r);
            let err = r.check().expect_err(law);
            assert!(err.contains(law), "{err}");
        }
    }

    #[test]
    fn check_links_the_l3_to_the_l2_misses_and_write_backs() {
        use crate::{CacheConfig, Hierarchy, HierarchyConfig, SimSink};
        use memtrace::{Addr, TraceSink};
        let mut sim = SimSink::new(Hierarchy::new(HierarchyConfig::new3(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(1024, 64, 2).unwrap(),
            CacheConfig::new(8192, 64, 4).unwrap(),
        )));
        let mut state = 3u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = Addr::new((state >> 24) % (1 << 15));
            if state.is_multiple_of(3) {
                sim.write(addr, 8);
            } else {
                sim.read(addr, 8);
            }
        }
        let report = sim.finish();
        let l3 = report.l3.expect("three levels");
        assert!(report.l2.writebacks > 0, "the L2 wrote back to the L3");
        assert_eq!(l3.references(), report.l2.misses() + report.l2.writebacks);
        assert_eq!(report.check(), Ok(()));
        let mut corrupted = report;
        corrupted.l3 = Some(CacheStats {
            reads: l3.reads + 1,
            ..l3
        });
        let err = corrupted.check().expect_err("L3 count off by one");
        assert!(err.contains("L3 saw"), "{err}");
        assert!(err.contains("wrote back"), "{err}");
    }

    #[test]
    fn empty_report_has_zero_rates() {
        let r = SimReport::default();
        assert_eq!(r.l1_miss_rate_percent(), 0.0);
        assert_eq!(r.l2_miss_rate_percent(), 0.0);
        assert_eq!(r.time_on(&MachineModel::r8000()).total(), 0.0);
    }
}
