//! Virtual memory effects: virtual→physical page mapping and a TLB.
//!
//! The paper lists both among its limitations (§6): "the simulation
//! works with virtual addresses whereas the L2 cache uses physical
//! addresses" — citing Kessler & Hill's page-placement work [27] and
//! Bershad et al.'s dynamic conflict-avoidance [8] — and its crude
//! model ignores TLB misses entirely (one reason the SOR baseline runs
//! slower than the model predicts: column sweeps of a 32 MB array touch
//! thousands of pages). These extensions let the harness quantify both
//! effects.

use crate::lru::LruSet;
use memtrace::Addr;

/// How virtual pages map to physical page frames (which determines the
/// set index bits of a physically-indexed L2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagePolicy {
    /// Physical = virtual: the most locality-friendly mapping (page
    /// coloring achieves approximately this).
    Identity,
    /// Pseudo-random frame per page (deterministic in the seed): what a
    /// first-touch allocator with a long-running system looks like.
    /// Destroys the contiguity of large arrays above the page size.
    RandomSeeded(u64),
    /// Bin-hopping-style mapping: consecutive virtual pages get frames
    /// whose cache colors cycle, avoiding same-color pileups.
    BinHopping,
}

/// A virtual→physical translator with a fixed page size.
///
/// # Examples
///
/// ```
/// use cachesim::{PageMapper, PagePolicy};
/// use memtrace::Addr;
///
/// let mapper = PageMapper::new(PagePolicy::Identity, 4096);
/// assert_eq!(mapper.translate(Addr::new(0x12345)), Addr::new(0x12345));
///
/// let random = PageMapper::new(PagePolicy::RandomSeeded(1), 4096);
/// let p = random.translate(Addr::new(0x12345));
/// // Page offset is preserved; only the frame number changes.
/// assert_eq!(p.raw() & 0xfff, 0x345);
/// ```
#[derive(Clone, Debug)]
pub struct PageMapper {
    policy: PagePolicy,
    page_size: u64,
    offset_mask: u64,
}

impl PageMapper {
    /// Creates a mapper.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn new(policy: PagePolicy, page_size: u64) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        PageMapper {
            policy,
            page_size,
            offset_mask: page_size - 1,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// The configured policy.
    pub fn policy(&self) -> PagePolicy {
        self.policy
    }

    /// Translates a virtual address to its physical address. The
    /// mapping is a deterministic function (a synthetic page table):
    /// the same virtual page always maps to the same frame.
    #[inline]
    pub fn translate(&self, vaddr: Addr) -> Addr {
        let vpn = vaddr.raw() / self.page_size;
        // Synthetic frame numbers live in a 28-bit frame space (a 1 TB
        // physical address space at 4 KiB pages). The non-identity
        // policies are *bijections* on that space, so distinct virtual
        // pages never alias one frame.
        const FRAME_BITS: u32 = 28;
        const FRAME_MASK: u64 = (1 << FRAME_BITS) - 1;
        debug_assert!(vpn <= FRAME_MASK, "virtual page number exceeds frame space");
        let frame = match self.policy {
            PagePolicy::Identity => vpn,
            PagePolicy::RandomSeeded(seed) => {
                // Bijective mix: xor, odd multiply (invertible mod 2^28),
                // xor-shift (invertible), odd multiply.
                let mut x = (vpn ^ (seed & FRAME_MASK)) & FRAME_MASK;
                x = x.wrapping_mul(0x9E3_779B | 1) & FRAME_MASK;
                x ^= x >> 14;
                x = x.wrapping_mul(0xBF5_8477 | 1) & FRAME_MASK;
                x
            }
            PagePolicy::BinHopping => vpn.wrapping_mul(0x9E37_79B9 | 1) & FRAME_MASK,
        };
        Addr::new((frame * self.page_size) | (vaddr.raw() & self.offset_mask))
    }
}

/// Statistics of a [`Tlb`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// Translations that missed the TLB.
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio in percent.
    pub fn miss_rate_percent(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.accesses as f64
        }
    }
}

/// A fully-associative LRU translation lookaside buffer.
///
/// The R8000 and R10000 both had fully-associative 64-ish entry TLBs;
/// a miss costs a software or hardware table walk the paper's crude
/// model omits.
///
/// # Examples
///
/// ```
/// use cachesim::Tlb;
/// use memtrace::Addr;
///
/// let mut tlb = Tlb::new(64, 4096);
/// tlb.access(Addr::new(0));
/// tlb.access(Addr::new(64));      // same page: hit
/// tlb.access(Addr::new(8192));    // new page: miss
/// assert_eq!(tlb.stats().misses, 2);
/// assert_eq!(tlb.stats().accesses, 3);
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: LruSet,
    page_shift: u32,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `entries` fully-associative entries over
    /// `page_size`-byte pages.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or above `u32::MAX`, or if
    /// `page_size` is not a power of two.
    pub fn new(entries: usize, page_size: u64) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            entries: LruSet::new(entries),
            page_shift: page_size.trailing_zeros(),
            stats: TlbStats::default(),
        }
    }

    /// Translates (i.e. touches) the page of `vaddr`; returns `true`
    /// on a TLB hit.
    #[inline]
    pub fn access(&mut self, vaddr: Addr) -> bool {
        self.stats.accesses += 1;
        let hit = self.entries.touch(vaddr.raw() >> self.page_shift);
        if !hit {
            self.stats.misses += 1;
        }
        hit
    }

    /// Log2 of the page size (for computing page numbers of a span).
    pub fn page_shift(&self) -> u32 {
        self.page_shift
    }

    /// Switches the entry set's fast lookup path on or off (see
    /// [`Hierarchy::set_fast_path`](crate::Hierarchy::set_fast_path)).
    /// Hit/miss behaviour is identical in both modes.
    pub fn set_fast_path(&mut self, fast: bool) {
        self.entries.set_fast(fast);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Zeroes the statistics, keeping the entries warm.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mapping_is_identity() {
        let m = PageMapper::new(PagePolicy::Identity, 4096);
        for addr in [0u64, 4095, 4096, 123_456_789] {
            assert_eq!(m.translate(Addr::new(addr)), Addr::new(addr));
        }
    }

    #[test]
    fn mappings_preserve_page_offsets() {
        for policy in [
            PagePolicy::RandomSeeded(42),
            PagePolicy::BinHopping,
            PagePolicy::Identity,
        ] {
            let m = PageMapper::new(policy, 4096);
            for addr in [1u64, 4095, 8191, 0x1234_5678] {
                let p = m.translate(Addr::new(addr));
                assert_eq!(p.raw() & 4095, addr & 4095, "{policy:?} {addr:#x}");
            }
        }
    }

    #[test]
    fn mapping_is_a_stable_function() {
        let m = PageMapper::new(PagePolicy::RandomSeeded(7), 4096);
        let a = m.translate(Addr::new(0x10_0000));
        let b = m.translate(Addr::new(0x10_0008));
        assert_eq!(a + 8, b, "same page must map to the same frame");
        assert_eq!(m.translate(Addr::new(0x10_0000)), a);
    }

    #[test]
    fn random_seeds_differ() {
        let m1 = PageMapper::new(PagePolicy::RandomSeeded(1), 4096);
        let m2 = PageMapper::new(PagePolicy::RandomSeeded(2), 4096);
        let v = Addr::new(0x20_0000);
        assert_ne!(m1.translate(v), m2.translate(v));
    }

    #[test]
    fn random_mapping_scatters_consecutive_pages() {
        let m = PageMapper::new(PagePolicy::RandomSeeded(3), 4096);
        let p0 = m.translate(Addr::new(0));
        let p1 = m.translate(Addr::new(4096));
        assert_ne!(
            p1.raw(),
            p0.raw() + 4096,
            "contiguity must be destroyed (w.h.p.)"
        );
    }

    #[test]
    fn tlb_within_reach_hits_after_warmup() {
        let mut tlb = Tlb::new(4, 4096);
        for _ in 0..3 {
            for page in 0..4u64 {
                tlb.access(Addr::new(page * 4096));
            }
        }
        assert_eq!(tlb.stats().misses, 4, "only cold misses");
        assert_eq!(tlb.stats().accesses, 12);
    }

    #[test]
    fn tlb_thrashes_beyond_reach() {
        let mut tlb = Tlb::new(4, 4096);
        for _round in 0..3 {
            for page in 0..8u64 {
                tlb.access(Addr::new(page * 4096));
            }
        }
        assert_eq!(tlb.stats().misses, 24, "LRU cycling misses every time");
        assert!((tlb.stats().miss_rate_percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tlb_reset_keeps_entries_warm() {
        let mut tlb = Tlb::new(4, 4096);
        tlb.access(Addr::new(0));
        tlb.reset_stats();
        assert!(tlb.access(Addr::new(8)), "same page still mapped");
        assert_eq!(tlb.stats().misses, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_panics() {
        let _ = Tlb::new(4, 1000);
    }
}
