//! The two-level cache hierarchy of the paper's machines.

use crate::paging::{PageMapper, Tlb, TlbStats};
use crate::{Cache, CacheConfig, CacheStats, MissClassCounts, MissClassifier};
use memtrace::{Access, AccessKind, Addr};

/// Virtual-memory simulation attached to a hierarchy: a page mapper
/// (virtual→physical) and a TLB.
///
/// When present, the L1 stays virtually indexed (as on the paper's
/// machines, where the small L1s are indexed below the page boundary)
/// while every L2 reference is made with the *physical* line address —
/// the effect the paper flags as a limitation of its own simulations:
/// "it works with virtual addresses whereas the L2 cache uses physical
/// addresses".
#[derive(Clone, Debug)]
pub struct Mmu {
    mapper: PageMapper,
    tlb: Tlb,
}

impl Mmu {
    /// Creates an MMU with the given mapping policy and TLB shape.
    pub fn new(mapper: PageMapper, tlb_entries: usize) -> Self {
        let page = mapper.page_size();
        Mmu {
            mapper,
            tlb: Tlb::new(tlb_entries, page),
        }
    }
}

/// One reference of the DRAM-facing level's stream, recorded instead of
/// classified when deferred classification is on (see
/// [`Hierarchy::set_deferred_classification`]). The sharded simulator
/// replays these into a single shared [`MissClassifier`] in program
/// order after its workers drain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LlcEvent {
    /// Line index at the DRAM-facing level.
    pub line: u64,
    /// Whether the reference hit.
    pub hit: bool,
}

/// L1 demand fetches of a [`Hierarchy::read_lines`] run that have not
/// reached the L2 yet: `rehits` more reads of `line`, the L2 line the
/// L2's previous reference read.
#[derive(Clone, Copy, Debug, Default)]
struct FetchRun {
    line: Option<u64>,
    rehits: u64,
}

/// Geometry of a two-level hierarchy: a (split) L1 data cache backed by
/// a unified L2.
///
/// Both paper machines have split first-level caches and a unified
/// second-level cache. Only the *data* side of L1 is simulated; the
/// instruction stream is accounted analytically (see the `memtrace`
/// crate docs and DESIGN.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// First-level data cache.
    pub l1d: CacheConfig,
    /// Unified second-level cache.
    pub l2: CacheConfig,
    /// Optional third-level cache (absent on the paper's machines;
    /// present on any modern part).
    pub l3: Option<CacheConfig>,
}

impl HierarchyConfig {
    /// Creates a two-level hierarchy config (the paper's machines).
    ///
    /// # Panics
    ///
    /// Panics if the L2 line size is smaller than the L1 line size
    /// (fills could not be satisfied line-at-a-time).
    pub fn new(l1d: CacheConfig, l2: CacheConfig) -> Self {
        assert!(
            l2.line() >= l1d.line(),
            "L2 line ({}) must be >= L1 line ({})",
            l2.line(),
            l1d.line()
        );
        HierarchyConfig { l1d, l2, l3: None }
    }

    /// Creates a three-level hierarchy config (a modern machine).
    ///
    /// # Panics
    ///
    /// Panics if any level's line size is smaller than the level
    /// above it.
    pub fn new3(l1d: CacheConfig, l2: CacheConfig, l3: CacheConfig) -> Self {
        let mut config = HierarchyConfig::new(l1d, l2);
        assert!(
            l3.line() >= l2.line(),
            "L3 line ({}) must be >= L2 line ({})",
            l3.line(),
            l2.line()
        );
        config.l3 = Some(l3);
        config
    }
}

/// A simulated L1-data + unified-L2 hierarchy with 3C classification of
/// the L2 reference stream.
///
/// Semantics (matching DineroIII's copy-back / write-allocate default,
/// which the paper used):
///
/// * every byte access is split into L1-line touches;
/// * an L1 miss sends a demand fetch to the L2;
/// * a dirty L1 victim sends a write-back to the L2;
/// * every L2 reference — fetch or write-back — updates the classifier,
///   so `classes().total() == l2_stats().misses()` always holds;
/// * dirty L2 victims count as memory write-backs.
///
/// # Examples
///
/// ```
/// use cachesim::{CacheConfig, Hierarchy, HierarchyConfig};
/// use memtrace::{Access, Addr};
///
/// let mut h = Hierarchy::new(HierarchyConfig::new(
///     CacheConfig::new(1 << 14, 32, 1)?,
///     CacheConfig::new(1 << 21, 128, 4)?,
/// ));
/// h.access(Access::read(Addr::new(0x1000_0000), 8));
/// assert_eq!(h.l1_stats().misses(), 1);
/// assert_eq!(h.l2_stats().misses(), 1);
/// assert_eq!(h.classes().compulsory, 1);
/// # Ok::<(), cachesim::CacheConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    /// 3C classifier over the DRAM-facing (last) level's stream.
    classifier: MissClassifier,
    l1_line: u64,
    l1_shift: u32,
    l1_write_through: bool,
    l2_line_shift: u32,
    l3_line_shift: u32,
    mmu: Option<Mmu>,
    /// When `Some`, the DRAM-facing level's references are appended
    /// here instead of being fed to `classifier` (deferred
    /// classification). The LLC same-line short-circuit is disabled in
    /// this mode: its "`note_hit` would be a structural no-op" argument
    /// holds only against the *local* previous reference, and the
    /// sharded replay interleaves several hierarchies' streams.
    llc_log: Option<Vec<LlcEvent>>,
    memory_reads: u64,
    memory_writebacks: u64,
    /// Below-L1 hits and DRAM-facing misses before the last
    /// [`reset_stats`](Hierarchy::reset_stats) (the histogram keeps them).
    latency_base: (u64, u64),
    /// Modelled ns to service an L1 miss that hits below, and one that
    /// misses the DRAM-facing level too ((0, 0) = unset).
    probe_service_ns: (u64, u64),
}

impl Hierarchy {
    /// Creates an empty hierarchy with virtual-address indexing at both
    /// levels (the paper's own simulation methodology).
    pub fn new(config: HierarchyConfig) -> Self {
        let last_level = config.l3.unwrap_or(config.l2);
        Hierarchy {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
            classifier: MissClassifier::new(&last_level),
            l1_line: config.l1d.line(),
            l1_shift: config.l1d.line().trailing_zeros(),
            l1_write_through: config.l1d.write_policy()
                == crate::WritePolicy::WriteThroughNoAllocate,
            l2_line_shift: config.l2.line().trailing_zeros(),
            l3_line_shift: last_level.line().trailing_zeros(),
            mmu: None,
            llc_log: None,
            memory_reads: 0,
            memory_writebacks: 0,
            latency_base: (0, 0),
            probe_service_ns: (0, 0),
        }
    }

    /// Sets the modelled per-reference penalties the probe layer uses
    /// to build its miss-latency histogram: `l1_miss_ns` for a
    /// reference serviced below the L1, plus `llc_miss_ns` more when
    /// the DRAM-facing level misses too. [`MachineModel::hierarchy`]
    /// (see `machine.rs`) derives both from the paper's Table 1
    /// penalties. With both zero (the default) none is built.
    ///
    /// [`MachineModel::hierarchy`]: crate::MachineModel::hierarchy
    pub fn set_probe_penalties(&mut self, l1_miss_ns: u64, llc_miss_ns: u64) {
        self.probe_service_ns = (l1_miss_ns, l1_miss_ns + llc_miss_ns);
    }

    /// Creates a hierarchy with virtual memory simulated: the TLB is
    /// consulted per access and the L2 is physically indexed through
    /// the MMU's page mapping.
    pub fn with_mmu(config: HierarchyConfig, mmu: Mmu) -> Self {
        let mut h = Hierarchy::new(config);
        h.mmu = Some(mmu);
        h
    }

    /// The configured geometry.
    pub fn config(&self) -> HierarchyConfig {
        HierarchyConfig {
            l1d: *self.l1d.config(),
            l2: *self.l2.config(),
            l3: self.l3.as_ref().map(|c| *c.config()),
        }
    }

    /// Enables or disables the fast lookup paths (same-line
    /// short-circuit here, MRU-first probing inside each level).
    /// Statistics are bit-identical either way; the slow path is kept
    /// as the exhaustive reference for differential tests and the
    /// `simbench` before/after comparison.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.l1d.set_fast_path(enabled);
        self.l2.set_fast_path(enabled);
        if let Some(l3) = &mut self.l3 {
            l3.set_fast_path(enabled);
        }
        self.classifier.set_fast_path(enabled);
        if let Some(mmu) = &mut self.mmu {
            mmu.tlb.set_fast_path(enabled);
        }
    }

    /// Whether the fast lookup paths are enabled.
    pub fn fast_path(&self) -> bool {
        self.l1d.fast_path()
    }

    /// Feeds one byte-granular access, splitting it across L1 lines.
    #[inline]
    pub fn access(&mut self, access: Access) {
        let is_write = access.kind == AccessKind::Write;
        let addr = access.addr.raw();
        // Trace-file replay feeds untrusted (addr, size) pairs: saturate
        // instead of wrapping so an access ending at the top of the
        // address space clamps its line span rather than spanning from
        // line 0.
        let last_byte = addr.saturating_add(u64::from(access.size.max(1)) - 1);
        if let Some(mmu) = &mut self.mmu {
            // One translation per page touched, not one per byte-access:
            // an access straddling a page boundary walks every page it
            // covers, and one contained in a single page walks just that
            // page.
            let shift = mmu.tlb.page_shift();
            let mut page = addr >> shift;
            let last_page = last_byte >> shift;
            loop {
                mmu.tlb.access(Addr::new(page << shift));
                if page == last_page {
                    break;
                }
                page += 1;
            }
        }
        let first_line = addr >> self.l1_shift;
        let last_line = last_byte >> self.l1_shift;
        // Same-line short-circuit: consecutive references to one L1
        // line (the overwhelmingly common case in loop traces) need no
        // set lookup, no L2 traffic and no write-back bookkeeping.
        if first_line == last_line && self.l1d.try_rehit(first_line, is_write) {
            return;
        }
        let mut line = first_line;
        loop {
            self.touch_l1_line(line, is_write);
            if line == last_line {
                break;
            }
            line += 1;
        }
    }

    /// Reads `count` consecutive L1 lines: exactly `count` calls of
    /// [`access`](Self::access)`(Access::read(addr + k·l1_line, size))`
    /// for `k` in `0..count` (addresses wrap), in one call.
    ///
    /// The per-line path runs when the fast path is off, the L1 is
    /// set-associative, an MMU is attached, classification is deferred,
    /// the reads would straddle an L1 line or the run would wrap.
    /// Otherwise the first line takes the same-line rehit as `access`
    /// would, the direct-mapped L1 walks the rest touching only tags and
    /// dirty bits (its LRU stamps are unobservable with one way), and
    /// the L1 misses reach the L2 in program order with every fetch
    /// that follows one to the same L2 line folded into one bulk rehit.
    pub(crate) fn read_lines(&mut self, addr: Addr, size: u32, count: u64) {
        if count == 0 {
            return;
        }
        let start = addr.raw();
        let span = u64::from(size.max(1)) - 1;
        let straddles = (start & (self.l1_line - 1)) + span >= self.l1_line;
        let wraps = (count - 1)
            .checked_mul(self.l1_line)
            .and_then(|offset| start.checked_add(offset))
            .is_none();
        if !self.fast_path()
            || self.l1d.config().assoc() != 1
            || self.mmu.is_some()
            || self.llc_log.is_some()
            || straddles
            || wraps
        {
            let mut addr = start;
            for _ in 0..count {
                self.access(Access::read(Addr::new(addr), size));
                addr = addr.wrapping_add(self.l1_line);
            }
            return;
        }
        let first = start >> self.l1_shift;
        let end = first + count;
        let begin = first + u64::from(self.l1d.try_rehit(first, false));
        let mut fetches = FetchRun::default();
        let mut hits = 0;
        for line in begin..end {
            let outcome = self.l1d.read_line_direct(line);
            if outcome.hit {
                hits += 1;
            } else {
                self.run_miss(line, outcome.writeback, &mut fetches);
            }
        }
        if end > begin {
            self.l1d.end_direct_run(end - 1, end - begin, hits);
        }
        self.flush_fetches(&mut fetches);
    }

    /// The L2 traffic of an L1 read miss inside
    /// [`read_lines`](Self::read_lines): the demand fetch joins
    /// `fetches` when it is to the L2 line the previous L2 reference
    /// read, and a dirty victim's write-back flushes the pending
    /// fetches first so the L2 sees program order.
    #[inline]
    fn run_miss(&mut self, l1_line: u64, writeback: Option<u64>, fetches: &mut FetchRun) {
        let l2_line = self.l2_line_of(l1_line);
        if fetches.line == Some(l2_line) {
            fetches.rehits += 1;
        } else {
            self.flush_fetches(fetches);
            self.reference_l2(l2_line, false);
            fetches.line = Some(l2_line);
        }
        if let Some(victim) = writeback {
            self.flush_fetches(fetches);
            let l2_line = self.l2_line_of(victim);
            self.reference_l2(l2_line, true);
            fetches.line = None;
        }
    }

    /// Sends the pending same-line fetches to the L2. Each would have
    /// been a same-line rehit there (the previous L2 reference read
    /// that line), so they go down as one bulk rehit.
    fn flush_fetches(&mut self, fetches: &mut FetchRun) {
        let rehits = std::mem::take(&mut fetches.rehits);
        if rehits == 0 {
            return;
        }
        let line = fetches.line.expect("pending fetches have a line");
        let rehit = self.l2.rehit_many(line, rehits, 0);
        assert!(rehit, "the previous L2 reference read line {line}");
    }

    /// Switches deferred classification on or off. While on, the
    /// DRAM-facing level's reference stream is recorded as
    /// [`LlcEvent`]s (see [`take_llc_events`](Self::take_llc_events))
    /// instead of being classified locally, and the LLC same-line
    /// short-circuit is disabled so the log is complete.
    pub(crate) fn set_deferred_classification(&mut self, on: bool) {
        if on {
            self.llc_log.get_or_insert_with(Vec::new);
        } else {
            self.llc_log = None;
        }
    }

    /// Number of deferred LLC events currently buffered.
    pub(crate) fn llc_event_count(&self) -> usize {
        self.llc_log.as_ref().map_or(0, Vec::len)
    }

    /// Drains the deferred LLC event log, in the order the references
    /// entered the DRAM-facing level.
    ///
    /// # Panics
    ///
    /// Panics if deferred classification is not enabled.
    pub(crate) fn drain_llc_events(&mut self, into: &mut Vec<LlcEvent>) {
        let log = self
            .llc_log
            .as_mut()
            .expect("deferred classification not enabled");
        into.append(log);
    }

    /// Replays one reference contained in a single L1 line. Statistics
    /// are identical to [`access`](Self::access) with any access whose
    /// bytes all fall in `l1_line`, minus the address arithmetic the
    /// sharded decoder has already done to know the line. Only valid
    /// without an MMU (no TLB traffic is recorded).
    #[inline]
    pub(crate) fn access_l1_line(&mut self, l1_line: u64, is_write: bool) {
        debug_assert!(self.mmu.is_none(), "single-line entry skips the TLB");
        if self.l1d.try_rehit(l1_line, is_write) {
            return;
        }
        self.touch_l1_line(l1_line, is_write);
    }

    /// Bulk same-line L1 rehit for run-length collapsed replay records:
    /// `reads` + `writes` references to `l1_line`, all guaranteed by
    /// the encoder to lie within that line. `false` means nothing was
    /// recorded and the caller must replay per-reference. Only
    /// meaningful without an MMU (no TLB traffic is recorded).
    #[inline]
    pub(crate) fn rehit_run(&mut self, l1_line: u64, reads: u64, writes: u64) -> bool {
        debug_assert!(self.mmu.is_none(), "rehit_run skips TLB accounting");
        self.l1d.rehit_many(l1_line, reads, writes)
    }

    /// Whether an MMU (TLB + physically-indexed L2) is attached.
    pub(crate) fn has_mmu(&self) -> bool {
        self.mmu.is_some()
    }

    /// Maps a virtual L1 line index to the L2 line index that backs it
    /// — through the page mapping when an MMU is attached.
    #[inline]
    fn l2_line_of(&self, l1_line: u64) -> u64 {
        let vaddr = l1_line * self.l1_line;
        match &self.mmu {
            Some(mmu) => mmu.mapper.translate(Addr::new(vaddr)).raw() >> self.l2_line_shift,
            None => vaddr >> self.l2_line_shift,
        }
    }

    #[inline]
    fn touch_l1_line(&mut self, l1_line: u64, is_write: bool) {
        let write_through = self.l1_write_through;
        let outcome = self.l1d.access_line(l1_line, is_write);
        if is_write && write_through {
            // Every write propagates immediately; a write miss does
            // not fetch (no write-allocate).
            let l2_line = self.l2_line_of(l1_line);
            self.reference_l2(l2_line, true);
        } else if !outcome.hit {
            // Demand fetch from L2 (write-allocate: fetch even on a
            // write miss; the L2 reference itself is a read).
            let l2_line = self.l2_line_of(l1_line);
            self.reference_l2(l2_line, false);
        }
        if let Some(victim) = outcome.writeback {
            // Dirty L1 victim written back to L2.
            let l2_line = self.l2_line_of(victim);
            self.reference_l2(l2_line, true);
        }
    }

    #[inline]
    fn reference_l2(&mut self, l2_line: u64, is_write: bool) {
        // Same-line short-circuit (fast path only): a rehit implies the
        // immediately-previous L2 reference was to this very line, so
        // the classifier already holds it at the MRU position of the
        // fully-associative model and in its seen-set — `note_hit`
        // would be a structural no-op. Nothing propagates downward on a
        // hit, so the short-circuit is complete. When the L2 is the
        // DRAM-facing level and classification is deferred, every
        // reference must produce a log event, so the short-circuit is
        // skipped (an L3 below makes the L2 stream unclassified and the
        // rehit always safe).
        if (self.l3.is_some() || self.llc_log.is_none()) && self.l2.try_rehit(l2_line, is_write) {
            return;
        }
        let outcome = self.l2.access_line(l2_line, is_write);
        match &mut self.l3 {
            None => {
                // The L2 is the DRAM-facing level: classify its stream
                // (or log it for a deferred, merged classification).
                if let Some(log) = &mut self.llc_log {
                    log.push(LlcEvent {
                        line: l2_line,
                        hit: outcome.hit,
                    });
                    if !outcome.hit {
                        self.memory_reads += 1;
                    }
                } else if outcome.hit {
                    self.classifier.note_hit(l2_line);
                } else {
                    self.classifier.classify_miss(l2_line);
                    self.memory_reads += 1;
                }
                if outcome.writeback.is_some() {
                    self.memory_writebacks += 1;
                }
            }
            Some(_) => {
                let ratio = self.l3_line_shift - self.l2_line_shift;
                if !outcome.hit {
                    self.reference_l3(l2_line >> ratio, false);
                }
                if let Some(victim) = outcome.writeback {
                    self.reference_l3(victim >> ratio, true);
                }
            }
        }
    }

    #[inline]
    fn reference_l3(&mut self, l3_line: u64, is_write: bool) {
        let l3 = self.l3.as_mut().expect("only called with an L3");
        // Same-line short-circuit, with the same classifier argument as
        // in `reference_l2`: the previous L3 reference was this line.
        // Skipped under deferred classification for the same reason as
        // there (the L3 is always the DRAM-facing level).
        if self.llc_log.is_none() && l3.try_rehit(l3_line, is_write) {
            return;
        }
        let outcome = l3.access_line(l3_line, is_write);
        if let Some(log) = &mut self.llc_log {
            log.push(LlcEvent {
                line: l3_line,
                hit: outcome.hit,
            });
            if !outcome.hit {
                self.memory_reads += 1;
            }
        } else if outcome.hit {
            self.classifier.note_hit(l3_line);
        } else {
            self.classifier.classify_miss(l3_line);
            self.memory_reads += 1;
        }
        if outcome.writeback.is_some() {
            self.memory_writebacks += 1;
        }
    }

    /// L1 data-cache statistics.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics (reference stream = L1 misses + L1 write-backs).
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// L3 statistics, if a third level is configured.
    pub fn l3_stats(&self) -> Option<&CacheStats> {
        self.l3.as_ref().map(super::cache::Cache::stats)
    }

    /// 3C classification of the DRAM-facing (last) level's misses.
    pub fn classes(&self) -> MissClassCounts {
        self.classifier.counts()
    }

    /// Misses of the DRAM-facing level (L3 if present, else L2).
    pub fn llc_misses(&self) -> u64 {
        match &self.l3 {
            Some(l3) => l3.stats().misses(),
            None => self.l2.stats().misses(),
        }
    }

    /// TLB statistics (zero if no MMU is attached).
    pub fn tlb_stats(&self) -> TlbStats {
        self.mmu.as_ref().map(|m| m.tlb.stats()).unwrap_or_default()
    }

    /// Demand fetches that reached main memory.
    pub fn memory_reads(&self) -> u64 {
        self.memory_reads
    }

    /// Dirty L2 lines written back to main memory.
    pub fn memory_writebacks(&self) -> u64 {
        self.memory_writebacks
    }

    /// Below-L1 hits and DRAM-facing misses since construction: the
    /// two ways a reference that left the L1 is serviced.
    fn latency_tallies(&self) -> (u64, u64) {
        let (hits, misses) = self.latency_base;
        let l3_hits = self.l3.as_ref().map_or(0, |l3| l3.stats().hits());
        (
            hits + self.l2.stats().hits() + l3_hits,
            misses + self.llc_misses(),
        )
    }

    /// Flushes the hierarchy's probe observations into a profile:
    /// per-level hit/rehit/miss sections, the modelled miss-latency
    /// histogram (derived from the counters), and the 3C classifier's
    /// verdict counts. Cumulative since construction; empty-ish when
    /// probes are compiled out (callers gate on [`probe::enabled`]).
    pub fn run_profile(&self) -> probe::RunProfile {
        let mut profile = probe::RunProfile::new();
        profile.push(self.l1d.probe_section("l1"));
        profile.push(self.l2.probe_section("l2"));
        if let Some(l3) = &self.l3 {
            profile.push(l3.probe_section("l3"));
        }
        if self.probe_service_ns != (0, 0) {
            let tallies = self.latency_tallies();
            profile.push(crate::timing::miss_service_section(
                self.probe_service_ns,
                tallies,
            ));
        }
        let classes = self.classifier.counts();
        let mut verdicts = probe::Section::new("classifier");
        verdicts
            .counter("compulsory", classes.compulsory)
            .counter("capacity", classes.capacity)
            .counter("conflict", classes.conflict);
        profile.push(verdicts);
        profile
    }

    /// Zeroes all statistics while keeping cache contents warm
    /// (excludes warm-up, as the paper's simulations exclude program
    /// initialization).
    pub fn reset_stats(&mut self) {
        self.latency_base = self.latency_tallies();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        if let Some(l3) = &mut self.l3 {
            l3.reset_stats();
        }
        self.classifier.reset_counts();
        if let Some(log) = &mut self.llc_log {
            log.clear();
        }
        if let Some(mmu) = &mut self.mmu {
            mmu.tlb.reset_stats();
        }
        self.memory_reads = 0;
        self.memory_writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::Addr;

    fn small_hierarchy() -> Hierarchy {
        // L1: 256 B direct-mapped, 32 B lines. L2: 2 KiB 2-way, 64 B lines.
        Hierarchy::new(HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        ))
    }

    #[test]
    fn l2_sees_only_l1_misses() {
        let mut h = small_hierarchy();
        // Two accesses to the same L1 line: one L1 miss, one hit.
        h.access(Access::read(Addr::new(0), 8));
        h.access(Access::read(Addr::new(8), 8));
        assert_eq!(h.l1_stats().references(), 2);
        assert_eq!(h.l1_stats().misses(), 1);
        assert_eq!(h.l2_stats().references(), 1);
    }

    #[test]
    fn classes_always_partition_l2_misses() {
        let mut h = small_hierarchy();
        let mut state = 99u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (state >> 30) % 16384;
            let write = state.is_multiple_of(3);
            let access = if write {
                Access::write(Addr::new(addr), 8)
            } else {
                Access::read(Addr::new(addr), 8)
            };
            h.access(access);
        }
        assert_eq!(h.classes().total(), h.l2_stats().misses());
    }

    #[test]
    fn access_spanning_l1_lines_touches_both() {
        let mut h = small_hierarchy();
        // 16 bytes starting 8 before a 32-byte boundary.
        h.access(Access::read(Addr::new(24), 16));
        assert_eq!(h.l1_stats().references(), 2);
    }

    #[test]
    fn zero_size_access_touches_one_line() {
        let mut h = small_hierarchy();
        h.access(Access::read(Addr::new(0), 0));
        assert_eq!(h.l1_stats().references(), 1);
    }

    #[test]
    fn dirty_l1_victim_writes_back_to_l2() {
        // L1 has 8 sets; addresses 0 and 256 collide in L1 set 0.
        let mut h = small_hierarchy();
        h.access(Access::write(Addr::new(0), 8)); // L1 miss, dirty
        h.access(Access::read(Addr::new(256), 8)); // evicts dirty line 0
                                                   // L2 references: fetch(0), fetch(256), writeback(0).
        assert_eq!(h.l2_stats().references(), 3);
        assert_eq!(h.l2_stats().writes, 1);
        // The write-back hits in L2 (line 0 still resident).
        assert_eq!(h.l2_stats().misses(), 2);
    }

    #[test]
    fn working_set_within_l2_stops_missing_after_warmup() {
        let mut h = small_hierarchy();
        // 1 KiB working set (fits 2 KiB L2, overflows 256 B L1).
        for _round in 0..4 {
            for off in (0..1024).step_by(8) {
                h.access(Access::read(Addr::new(off), 8));
            }
        }
        // After the first pass, L2 never misses again.
        assert_eq!(h.l2_stats().misses(), 1024 / 64);
        assert_eq!(h.classes().compulsory, 1024 / 64);
        assert_eq!(h.classes().capacity, 0);
        // But the L1 keeps missing (working set 4x its size).
        assert!(h.l1_stats().misses() > 1024 / 32);
    }

    #[test]
    fn working_set_exceeding_l2_causes_capacity_misses() {
        let mut h = small_hierarchy();
        // 8 KiB working set cycled: 4x the 2 KiB L2.
        for _round in 0..3 {
            for off in (0..8192).step_by(8) {
                h.access(Access::read(Addr::new(off), 8));
            }
        }
        let classes = h.classes();
        assert_eq!(classes.compulsory, 8192 / 64);
        assert_eq!(classes.capacity, 2 * 8192 / 64, "every revisit misses");
        assert_eq!(classes.conflict, 0);
    }

    #[test]
    fn reset_stats_keeps_contents_warm() {
        let mut h = small_hierarchy();
        for off in (0..1024).step_by(8) {
            h.access(Access::read(Addr::new(off), 8));
        }
        h.reset_stats();
        assert_eq!(h.l1_stats().references(), 0);
        assert_eq!(h.classes().total(), 0);
        // Second pass: L2-resident, so zero L2 misses — and crucially
        // not re-counted as compulsory.
        for off in (0..1024).step_by(8) {
            h.access(Access::read(Addr::new(off), 8));
        }
        assert_eq!(h.l2_stats().misses(), 0);
    }

    #[test]
    fn mmu_identity_matches_no_mmu_on_l2() {
        use crate::paging::{PageMapper, PagePolicy};
        let config = HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        );
        let mut plain = Hierarchy::new(config);
        let mut mapped = Hierarchy::with_mmu(
            config,
            Mmu::new(PageMapper::new(PagePolicy::Identity, 4096), 8),
        );
        let mut state = 7u64;
        let mut translations = 0u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (state >> 33) % 32768;
            let access = Access::read(Addr::new(addr), 8);
            plain.access(access);
            mapped.access(access);
            // One translation per 4 KiB page the 8-byte access touches.
            translations += ((addr + 7) >> 12) - (addr >> 12) + 1;
        }
        assert_eq!(plain.l2_stats(), mapped.l2_stats());
        assert_eq!(plain.tlb_stats().accesses, 0, "no MMU, no TLB traffic");
        assert_eq!(mapped.tlb_stats().accesses, translations);
        assert!(translations > 3000, "some accesses straddle pages");
    }

    #[test]
    fn random_page_mapping_changes_l2_conflicts() {
        use crate::paging::{PageMapper, PagePolicy};
        // A pathological virtual stride: cache-sized strides all alias
        // one set of a 512 KiB direct-mapped L2 (128 page colors at
        // 4 KiB pages).
        let config = HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(512 << 10, 64, 1).unwrap(),
        );
        let run = |mmu: Option<Mmu>| {
            let mut h = match mmu {
                Some(m) => Hierarchy::with_mmu(config, m),
                None => Hierarchy::new(config),
            };
            for _round in 0..20 {
                for i in 0..16u64 {
                    h.access(Access::read(Addr::new(i * (512 << 10)), 8));
                }
            }
            h.classes().conflict
        };
        let aliased = run(None);
        let randomized = run(Some(Mmu::new(
            PageMapper::new(PagePolicy::RandomSeeded(3), 4096),
            64,
        )));
        // 16 lines cycling one set: heavy conflicts; random frames
        // scatter them (Bershad et al.'s dynamic page recoloring
        // argument, reference [8] of the paper).
        assert!(aliased > 200, "expected alias storm, got {aliased}");
        assert!(
            randomized < aliased / 2,
            "random mapping should break the alias storm: {randomized} vs {aliased}"
        );
    }

    #[test]
    fn tlb_counts_page_walks() {
        use crate::paging::{PageMapper, PagePolicy};
        let config = HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        );
        let mut h = Hierarchy::with_mmu(
            config,
            Mmu::new(PageMapper::new(PagePolicy::Identity, 4096), 2),
        );
        // Walk 4 pages cyclically with a 2-entry TLB: all misses.
        for _round in 0..5 {
            for page in 0..4u64 {
                h.access(Access::read(Addr::new(page * 4096), 8));
            }
        }
        assert_eq!(h.tlb_stats().misses, 20);
    }

    #[test]
    fn write_through_l1_propagates_every_write() {
        use crate::WritePolicy;
        let config = HierarchyConfig::new(
            CacheConfig::new(256, 32, 1)
                .unwrap()
                .with_write_policy(WritePolicy::WriteThroughNoAllocate),
            CacheConfig::new(2048, 64, 2).unwrap(),
        );
        let mut h = Hierarchy::new(config);
        // Ten writes to the same address: each one reaches the L2.
        for _ in 0..10 {
            h.access(Access::write(Addr::new(0), 8));
        }
        assert_eq!(h.l2_stats().writes, 10);
        // And none of them allocated in L1 (no read yet): all misses.
        assert_eq!(h.l1_stats().misses(), 10);
        // A write-back L1 sends only the eventual writeback.
        let mut wb = Hierarchy::new(HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        ));
        for _ in 0..10 {
            wb.access(Access::write(Addr::new(0), 8));
        }
        assert_eq!(wb.l2_stats().writes, 0, "dirty line still resident");
        assert_eq!(wb.l1_stats().misses(), 1);
    }

    #[test]
    fn three_level_hierarchy_classifies_the_last_level() {
        let config = HierarchyConfig::new3(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(1024, 64, 2).unwrap(),
            CacheConfig::new(8192, 64, 4).unwrap(),
        );
        let mut h = Hierarchy::new(config);
        // 4 KiB working set: overflows L1 and L2, fits the 8 KiB L3.
        for _round in 0..4 {
            for off in (0..4096).step_by(8) {
                h.access(Access::read(Addr::new(off), 8));
            }
        }
        let l3 = *h.l3_stats().expect("three levels");
        assert_eq!(l3.misses(), 4096 / 64, "L3 only cold-misses");
        assert_eq!(h.classes().compulsory, 4096 / 64);
        assert_eq!(h.classes().capacity, 0, "fits the L3");
        assert_eq!(h.llc_misses(), l3.misses());
        assert!(h.l2_stats().misses() > l3.misses(), "L2 keeps missing");
        assert_eq!(h.memory_reads(), l3.misses());
    }

    #[test]
    fn three_level_capacity_misses_when_l3_overflows() {
        let config = HierarchyConfig::new3(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(1024, 64, 2).unwrap(),
            CacheConfig::new(4096, 64, 4).unwrap(),
        );
        let mut h = Hierarchy::new(config);
        // 16 KiB cycled: 4x the L3.
        for _round in 0..3 {
            for off in (0..16384).step_by(8) {
                h.access(Access::read(Addr::new(off), 8));
            }
        }
        assert_eq!(h.classes().compulsory, 16384 / 64);
        assert_eq!(h.classes().capacity, 2 * 16384 / 64);
        assert_eq!(h.classes().total(), h.llc_misses());
    }

    #[test]
    fn access_near_u64_max_does_not_overflow() {
        // A corrupt trace record can carry any (addr, size): the span
        // arithmetic must saturate, not wrap around to line 0.
        let mut h = small_hierarchy();
        h.access(Access::read(Addr::new(u64::MAX), 8));
        h.access(Access::write(Addr::new(u64::MAX - 3), 4096));
        h.access(Access::read(Addr::new(u64::MAX - 31), u32::MAX));
        // The clamped spans each touch exactly one L1 line (the last).
        assert_eq!(h.l1_stats().references(), 3);
        assert_eq!(h.l1_stats().misses(), 1, "all three hit the top line");
    }

    #[test]
    fn page_straddling_access_walks_both_pages() {
        use crate::paging::{PageMapper, PagePolicy};
        let config = HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        );
        let mut h = Hierarchy::with_mmu(
            config,
            Mmu::new(PageMapper::new(PagePolicy::Identity, 4096), 8),
        );
        // 16 bytes ending 8 into the second page: two translations.
        h.access(Access::read(Addr::new(4096 - 8), 16));
        assert_eq!(h.tlb_stats().accesses, 2);
        assert_eq!(h.tlb_stats().misses, 2);
        // Contained in one page: one translation.
        h.access(Access::read(Addr::new(100), 8));
        assert_eq!(h.tlb_stats().accesses, 3);
        // Spanning three pages: three translations (two already mapped).
        h.access(Access::read(Addr::new(4000), 2 * 4096));
        assert_eq!(h.tlb_stats().accesses, 6);
        assert_eq!(h.tlb_stats().misses, 3);
    }

    #[test]
    fn fast_and_slow_hierarchies_agree_on_everything() {
        let config = HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        );
        let mut fast = Hierarchy::new(config);
        let mut slow = Hierarchy::new(config);
        slow.set_fast_path(false);
        assert!(fast.fast_path());
        assert!(!slow.fast_path());
        let mut state = 42u64;
        for i in 0..30_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Mix strided sweeps (rehit-heavy) with random references.
            let addr = if i % 2 == 0 {
                (i * 4) % 16384
            } else {
                (state >> 30) % 16384
            };
            let access = if state.is_multiple_of(3) {
                Access::write(Addr::new(addr), 8)
            } else {
                Access::read(Addr::new(addr), 8)
            };
            fast.access(access);
            slow.access(access);
        }
        assert_eq!(fast.l1_stats(), slow.l1_stats());
        assert_eq!(fast.l2_stats(), slow.l2_stats());
        assert_eq!(fast.classes(), slow.classes());
        assert_eq!(fast.memory_reads(), slow.memory_reads());
        assert_eq!(fast.memory_writebacks(), slow.memory_writebacks());
    }

    /// Modelled penalties the latency tests arm: an L1 miss the level
    /// below serves, plus the extra trip to memory.
    const L1_NS: u64 = 127;
    const LLC_NS: u64 = 1920;

    /// Below-L1 hits and DRAM-facing misses since the last reset.
    fn serviced(h: &Hierarchy) -> (u64, u64) {
        let l3_hits = h.l3_stats().map_or(0, CacheStats::hits);
        (h.l2_stats().hits() + l3_hits, h.llc_misses())
    }

    /// Per-reference oracle for the `latency` section: after every
    /// access it tallies, one value at a time, the modelled cost of
    /// each below-L1 hit and each DRAM-facing miss that access caused.
    #[derive(Default)]
    struct LatencyTally {
        tally: probe::HistogramSnapshot,
        buckets: std::collections::BTreeMap<u64, u64>,
        seen: (u64, u64),
    }

    impl LatencyTally {
        fn record(&mut self, ns: u64) {
            let t = &mut self.tally;
            t.min = if t.count == 0 { ns } else { t.min.min(ns) };
            t.max = t.max.max(ns);
            t.count += 1;
            t.sum += ns;
            // The log₂ bucket holding `ns` ends one below a power of two.
            *self
                .buckets
                .entry((ns + 1).next_power_of_two() - 1)
                .or_insert(0) += 1;
        }

        fn access(&mut self, h: &mut Hierarchy, access: Access) {
            h.access(access);
            let now = serviced(h);
            for _ in self.seen.0..now.0 {
                self.record(L1_NS);
            }
            for _ in self.seen.1..now.1 {
                self.record(L1_NS + LLC_NS);
            }
            self.seen = now;
        }

        fn reset_stats(&mut self, h: &mut Hierarchy) {
            h.reset_stats();
            self.seen = (0, 0);
        }

        /// The tally as the histogram the profile should carry (empty
        /// when probes are compiled out).
        fn expected(&self) -> probe::HistogramSnapshot {
            if !probe::enabled() {
                return probe::HistogramSnapshot::default();
            }
            probe::HistogramSnapshot {
                buckets: self.buckets.iter().map(|(&upper, &n)| (upper, n)).collect(),
                ..self.tally.clone()
            }
        }
    }

    /// The `miss_service_ns` histogram of `section` (empty if absent).
    fn latency_of(profile: &probe::RunProfile, section: &str) -> probe::HistogramSnapshot {
        profile
            .sections()
            .iter()
            .filter(|s| s.name() == section)
            .flat_map(probe::Section::metrics)
            .find_map(|(name, metric)| match metric {
                probe::Metric::Histogram(h) if name == "miss_service_ns" => Some(h.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// A seeded mix of reads and writes over `span` bytes.
    fn random_stream(n: usize, seed: u64, span: u64) -> Vec<Access> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = Addr::new((state >> 24) % span);
                if state.is_multiple_of(3) {
                    Access::write(addr, 8)
                } else {
                    Access::read(addr, 8)
                }
            })
            .collect()
    }

    /// Drives `h` with a random stream, resetting its statistics
    /// halfway, and checks the derived latency histogram against the
    /// per-reference tally of the whole run.
    fn assert_latency_matches_tally(mut h: Hierarchy, label: &str) {
        h.set_probe_penalties(L1_NS, LLC_NS);
        let mut tally = LatencyTally::default();
        for (i, access) in random_stream(20_000, 5, 1 << 15).into_iter().enumerate() {
            if i == 10_000 {
                tally.reset_stats(&mut h);
            }
            tally.access(&mut h, access);
        }
        let derived = latency_of(&h.run_profile(), "latency");
        assert_eq!(derived, tally.expected(), "{label}");
        if probe::enabled() {
            assert_eq!(
                derived.buckets.len(),
                2,
                "{label}: hits and misses both seen"
            );
            assert!(
                derived.count > serviced(&h).0 + serviced(&h).1,
                "{label}: cumulative across the reset"
            );
        }
    }

    fn small_config() -> HierarchyConfig {
        HierarchyConfig::new(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(2048, 64, 2).unwrap(),
        )
    }

    #[test]
    fn latency_histogram_is_derived_per_serviced_reference() {
        let mut h = small_hierarchy();
        h.set_probe_penalties(L1_NS, LLC_NS);
        h.access(Access::read(Addr::new(0), 8)); // L2 miss
        h.access(Access::read(Addr::new(256), 8)); // L1 conflict, L2 miss
        h.access(Access::read(Addr::new(0), 8)); // L1 miss, L2 hit
        let snap = latency_of(&h.run_profile(), "latency");
        if probe::enabled() {
            assert_eq!(snap.count, 3);
            assert_eq!(snap.sum, L1_NS + 2 * (L1_NS + LLC_NS));
            assert_eq!((snap.min, snap.max), (L1_NS, L1_NS + LLC_NS));
            assert_eq!(snap.buckets, vec![(127, 1), (2047, 2)]);
        } else {
            assert_eq!(snap, probe::HistogramSnapshot::default());
        }
    }

    #[test]
    fn latency_section_needs_penalties() {
        let mut h = small_hierarchy();
        h.access(Access::read(Addr::new(0), 8));
        let profile = h.run_profile();
        assert!(profile.sections().iter().all(|s| s.name() != "latency"));
    }

    #[test]
    fn latency_matches_tally_on_two_levels() {
        assert_latency_matches_tally(Hierarchy::new(small_config()), "two-level");
    }

    #[test]
    fn latency_matches_tally_on_three_levels() {
        let config = HierarchyConfig::new3(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(1024, 64, 2).unwrap(),
            CacheConfig::new(8192, 64, 4).unwrap(),
        );
        assert_latency_matches_tally(Hierarchy::new(config), "three-level");
    }

    #[test]
    fn latency_matches_tally_with_an_mmu() {
        use crate::paging::{PageMapper, PagePolicy};
        let mmu = Mmu::new(PageMapper::new(PagePolicy::RandomSeeded(3), 4096), 8);
        assert_latency_matches_tally(Hierarchy::with_mmu(small_config(), mmu), "mmu");
    }

    #[test]
    fn latency_matches_tally_with_a_write_through_l1() {
        use crate::WritePolicy;
        let config = HierarchyConfig::new(
            CacheConfig::new(256, 32, 1)
                .unwrap()
                .with_write_policy(WritePolicy::WriteThroughNoAllocate),
            CacheConfig::new(2048, 64, 2).unwrap(),
        );
        assert_latency_matches_tally(Hierarchy::new(config), "write-through");
    }

    #[test]
    fn sharded_latency_sections_sum_to_the_serial_tally() {
        use crate::ShardedSimSink;
        use memtrace::TraceSink;
        let machine = crate::MachineModel::r8000()
            .scaled(1.0 / 16.0)
            .expect("valid scaled machine");
        let mut serial = machine.hierarchy();
        serial.set_probe_penalties(L1_NS, LLC_NS);
        let mut sharded = ShardedSimSink::new(serial.clone(), 4);
        let shards = sharded.plan().shards();
        assert!(shards >= 2, "the stream must be partitioned");
        let mut tally = LatencyTally::default();
        for access in random_stream(40_000, 11, 1 << 22) {
            tally.access(&mut serial, access);
            sharded.access(access);
        }
        sharded.report();
        let profile = sharded.run_profile();
        let mut merged = LatencyTally::default();
        for i in 0..shards {
            let shard = latency_of(&profile, &format!("shard{i}.latency"));
            if probe::enabled() {
                assert!(shard.count > 0, "shard {i} serviced references");
            }
            for (upper, n) in shard.buckets {
                // Every value in a bucket is its one modelled cost.
                let ns = if upper == 127 { L1_NS } else { L1_NS + LLC_NS };
                for _ in 0..n {
                    merged.record(ns);
                }
            }
        }
        assert_eq!(merged.expected(), tally.expected());
    }

    #[test]
    #[should_panic(expected = "L3 line")]
    fn l3_line_smaller_than_l2_line_is_rejected() {
        let _ = HierarchyConfig::new3(
            CacheConfig::new(256, 32, 1).unwrap(),
            CacheConfig::new(1024, 64, 2).unwrap(),
            CacheConfig::new(4096, 32, 4).unwrap(),
        );
    }

    #[test]
    #[should_panic(expected = "must be >=")]
    fn l2_line_smaller_than_l1_line_is_rejected() {
        let _ = HierarchyConfig::new(
            CacheConfig::new(256, 64, 1).unwrap(),
            CacheConfig::new(2048, 32, 2).unwrap(),
        );
    }
}
