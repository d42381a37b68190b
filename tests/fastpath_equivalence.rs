//! Differential testing of the fast simulation paths: with the fast
//! lookups enabled (same-line rehits, MRU-first way probes, the
//! classifier's direct-indexed line table, the TLB's hashing) every
//! [`SimReport`] field must be *bit-identical* to the exhaustive
//! reference path, on every workload and on a serving-shaped stream,
//! with and without an MMU attached, and regardless of how accesses are
//! batched on their way into the sink. The reports are a pure function
//! of the reference stream; the fast paths may only change how quickly
//! they are computed.
//!
//! The same contract extends to the *sharded* simulation pipeline:
//! [`ShardedSimSink`] partitions the reference stream by address-region
//! selector bits, simulates the shards on private hierarchies, and
//! reduces — and its report must be bit-identical to the unsharded
//! [`SimSink`]'s for every workload, shard count, and valid selector
//! shift, including the degenerate cases (one shard, an MMU forcing the
//! inline fallback).

use proptest::prelude::*;
use thread_locality::apps::{matmul, nbody, pde, sor};
use thread_locality::sim::{
    CacheConfig, Hierarchy, HierarchyConfig, MachineModel, Mmu, PageMapper, PagePolicy, ShardPlan,
    ShardedSimSink, SimReport, SimSink, WritePolicy,
};
use thread_locality::trace::{Access, AccessKind, Addr, AddressSpace, TraceSink, VecSink};

/// A machine small enough that the toy working sets below still
/// overflow the caches (otherwise the fast paths would never face an
/// eviction).
fn machine() -> MachineModel {
    MachineModel::r8000()
        .scaled_split(1.0 / 16.0, 1.0 / 64.0)
        .expect("valid scaled machine")
}

/// Runs `workload` twice — fast paths on and off — and returns both
/// reports.
fn both_ways(
    machine: &MachineModel,
    mut workload: impl FnMut(&mut SimSink),
) -> (SimReport, SimReport) {
    let run = |fast: bool, workload: &mut dyn FnMut(&mut SimSink)| {
        let mut sim = SimSink::new(machine.hierarchy());
        sim.set_fast_path(fast);
        workload(&mut sim);
        sim.finish()
    };
    (run(true, &mut workload), run(false, &mut workload))
}

#[test]
fn matmul_fast_equals_slow() {
    let machine = machine();
    for variant in [matmul::interchanged, matmul::transposed] {
        let (fast, slow) = both_ways(&machine, |sim| {
            let mut space = AddressSpace::new();
            let mut data = matmul::MatMulData::new(&mut space, 40, 7);
            variant(&mut data, sim);
        });
        assert_eq!(fast, slow);
        assert!(fast.l1.misses() > 0, "working set must overflow the L1");
    }
}

#[test]
fn pde_fast_equals_slow() {
    let (fast, slow) = both_ways(&machine(), |sim| {
        let mut space = AddressSpace::new();
        let mut data = pde::PdeData::new(&mut space, 48, 3);
        pde::regular(&mut data, 2, sim);
    });
    assert_eq!(fast, slow);
}

#[test]
fn sor_fast_equals_slow() {
    let (fast, slow) = both_ways(&machine(), |sim| {
        let mut space = AddressSpace::new();
        let mut data = sor::SorData::new(&mut space, 64, 11);
        sor::untiled(&mut data, 2, sim);
    });
    assert_eq!(fast, slow);
}

#[test]
fn nbody_fast_equals_slow() {
    let (fast, slow) = both_ways(&machine(), |sim| {
        let mut space = AddressSpace::new();
        let mut data = nbody::NBodyData::new(&mut space, 96, 2024);
        nbody::unthreaded(&mut data, 1, nbody::NBodyParams::default(), sim);
    });
    assert_eq!(fast, slow);
    assert!(fast.classes.total() > 0, "classifier must have been hit");
}

#[test]
fn fast_equals_slow_with_mmu_attached() {
    // A scrambling page mapping plus a tiny TLB exercises the per-page
    // translation walk and the TLB's LRU set in both modes.
    let config = HierarchyConfig::new(
        CacheConfig::new(1 << 12, 32, 1).unwrap(),
        CacheConfig::new(1 << 16, 128, 4).unwrap(),
    );
    let run = |fast: bool| {
        let mmu = Mmu::new(PageMapper::new(PagePolicy::RandomSeeded(5), 4096), 8);
        let mut sim = SimSink::new(Hierarchy::with_mmu(config, mmu));
        sim.set_fast_path(fast);
        let mut space = AddressSpace::new();
        let mut data = matmul::MatMulData::new(&mut space, 40, 9);
        matmul::interchanged(&mut data, &mut sim);
        sim.finish()
    };
    let (fast, slow) = (run(true), run(false));
    assert_eq!(fast, slow);
    assert!(fast.tlb.accesses > 0, "the MMU must have been consulted");
    assert!(fast.tlb.misses > 0, "an 8-entry TLB must thrash here");
}

/// SplitMix64: scatters object ids over the slot space.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A serving-shaped reference stream: 32 KiB objects SplitMix-placed
/// over 2^22 slots (a 128 GiB span), skewed popularity, requests that
/// scan one object line by line, every fourth one rewriting it. Odd
/// objects sit half a slot off, so their lines straddle the
/// classifier's table pages; every 16th request also touches the top
/// of the address space, with accesses that straddle lines there.
fn serving_stream() -> Vec<Access> {
    const OBJECT: u64 = 32 << 10;
    let mut accesses = Vec::new();
    let mut state = 0x5E4Eu64;
    for request in 0..400u64 {
        state = splitmix(state);
        // Squaring a uniform draw skews popularity toward low ids.
        let uniform = (state >> 40) as f64 / (1u64 << 24) as f64;
        let object = (uniform * uniform * 96.0) as u64;
        let base = (splitmix(object) % (1 << 22)) * OBJECT + (object % 2) * OBJECT / 2;
        let write = request % 4 == 3;
        for offset in (0..OBJECT).step_by(32) {
            let addr = Addr::new(base + offset + (offset % 24));
            accesses.push(if write {
                Access::write(addr, 8)
            } else {
                Access::read(addr, 8)
            });
        }
        // An access straddling an L1 line (and, at 16 KiB into an odd
        // object, an L2 line and a table page).
        accesses.push(Access::read(Addr::new(base + OBJECT / 2 - 8), 16));
        if request % 16 == 0 {
            for back in [1u64, 9, 40, 200, 5000] {
                accesses.push(Access::write(Addr::new(u64::MAX - back), 16));
                accesses.push(Access::read(Addr::new(u64::MAX - back * 128), 8));
            }
        }
    }
    accesses
}

#[test]
fn serving_shaped_stream_fast_equals_slow() {
    // The R8000's L1 over a 256 KiB L2: the stream's hot objects fit,
    // its working set does not.
    let config = HierarchyConfig::new(
        CacheConfig::new(16 << 10, 32, 1).unwrap(),
        CacheConfig::new(256 << 10, 128, 4).unwrap(),
    );
    let accesses = serving_stream();
    let run = |fast: bool| {
        let mut sim = SimSink::new(Hierarchy::new(config));
        sim.set_fast_path(fast);
        for chunk in accesses.chunks(1000) {
            sim.access_batch(chunk);
        }
        sim.finish()
    };
    let (fast, slow) = (run(true), run(false));
    assert_eq!(fast, slow);
    assert_eq!(fast.check(), Ok(()));
    let classes = fast.classes;
    assert!(
        classes.compulsory > 0 && classes.capacity > 0 && classes.conflict > 0,
        "the stream must exercise every class: {classes:?}"
    );
}

// ---------------------------------------------------------------------
// Sharded ≡ unsharded: the tentpole safety contract. Shard counts to
// exercise come from `SIM_SHARDS` when set (the CI matrix pins one
// count per leg) and default to the full sweep locally.
// ---------------------------------------------------------------------

fn shard_counts() -> Vec<u32> {
    match std::env::var("SIM_SHARDS") {
        Ok(s) => vec![s.parse().expect("SIM_SHARDS must be a shard count")],
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// Runs `$workload` (generic over the sink) once through the unsharded
/// sink and once per shard count through the sharded sink; every report
/// must be bit-identical. A macro because the workload kernels are
/// generic functions — they need monomorphizing per concrete sink type.
macro_rules! assert_sharded_matches_unsharded {
    ($name:literal, |$sim:ident| $workload:expr) => {{
        let machine = machine();
        let unsharded = {
            let mut $sim = SimSink::new(machine.hierarchy());
            $workload;
            $sim.finish()
        };
        for shards in shard_counts() {
            let mut $sim = ShardedSimSink::new(machine.hierarchy(), shards);
            $workload;
            assert_eq!($sim.finish(), unsharded, "{} @ {shards} shards", $name);
        }
    }};
}

#[test]
fn matmul_sharded_equals_unsharded() {
    assert_sharded_matches_unsharded!("matmul", |sim| {
        let mut space = AddressSpace::new();
        let mut data = matmul::MatMulData::new(&mut space, 40, 7);
        matmul::interchanged(&mut data, &mut sim);
    });
}

#[test]
fn pde_sharded_equals_unsharded() {
    assert_sharded_matches_unsharded!("pde", |sim| {
        let mut space = AddressSpace::new();
        let mut data = pde::PdeData::new(&mut space, 48, 3);
        pde::regular(&mut data, 2, &mut sim);
    });
}

#[test]
fn sor_sharded_equals_unsharded() {
    assert_sharded_matches_unsharded!("sor", |sim| {
        let mut space = AddressSpace::new();
        let mut data = sor::SorData::new(&mut space, 64, 11);
        sor::untiled(&mut data, 2, &mut sim);
    });
}

#[test]
fn nbody_sharded_equals_unsharded() {
    assert_sharded_matches_unsharded!("nbody", |sim| {
        let mut space = AddressSpace::new();
        let mut data = nbody::NBodyData::new(&mut space, 96, 2024);
        nbody::unthreaded(&mut data, 1, nbody::NBodyParams::default(), &mut sim);
    });
}

#[test]
fn sharded_with_mmu_falls_back_inline_and_matches() {
    // An MMU breaks the selector-bit partition (fully-associative TLB,
    // physically-indexed levels), so the sharded sink must degrade to
    // one inline shard — and still match, TLB stats included.
    let config = HierarchyConfig::new(
        CacheConfig::new(1 << 12, 32, 1).unwrap(),
        CacheConfig::new(1 << 16, 128, 4).unwrap(),
    );
    let hierarchy = || {
        let mmu = Mmu::new(PageMapper::new(PagePolicy::RandomSeeded(5), 4096), 8);
        Hierarchy::with_mmu(config, mmu)
    };
    assert_eq!(ShardPlan::for_hierarchy(&hierarchy(), 8).shards(), 1);
    let workload = |sink: &mut VecSink| {
        let mut space = AddressSpace::new();
        let mut data = matmul::MatMulData::new(&mut space, 40, 9);
        matmul::interchanged(&mut data, sink);
    };
    let mut recorded = VecSink::new();
    workload(&mut recorded);
    let mut unsharded = SimSink::new(hierarchy());
    let mut sharded = ShardedSimSink::new(hierarchy(), 8);
    unsharded.access_batch(recorded.accesses());
    sharded.access_batch(recorded.accesses());
    let (unsharded, sharded) = (unsharded.finish(), sharded.finish());
    assert_eq!(unsharded, sharded);
    assert!(sharded.tlb.misses > 0, "the TLB must have been exercised");
}

proptest! {
    /// Any shard count × any *valid* selector shift × an arbitrary
    /// access stream: the sharded report is byte-identical to the
    /// unsharded one. This sweeps partitions the auto-planner never
    /// picks (high shifts split on coarse regions and skew the queue
    /// load) — skew may cost throughput, never correctness.
    #[test]
    fn any_partition_yields_identical_reports(
        shards in 1u32..=8,
        // Valid selector field for the scaled r8000 below: L2 line 128
        // (lo = 7) and the smallest way is 16 KiB / 16 = 1 KiB... use
        // with_shift's own validation to skip invalid combinations.
        shift in 7u32..14,
        records in prop::collection::vec(
            (0u64..(1 << 21), 1u32..=512, any::<bool>()),
            1..800,
        ),
    ) {
        let machine = MachineModel::r8000().scaled(1.0 / 16.0).expect("valid scaled machine");
        // Shifts outside this geometry's selector field are skipped:
        // ShardPlan::for_hierarchy never produces them.
        let plan = ShardPlan::with_shift(&machine.hierarchy(), shards, shift);
        prop_assume!(plan.is_some());
        let plan = plan.unwrap();
        let accesses: Vec<Access> = records
            .iter()
            .map(|&(addr, size, is_write)| Access {
                addr: Addr::new(addr),
                size,
                kind: if is_write { AccessKind::Write } else { AccessKind::Read },
            })
            .collect();
        let mut unsharded = SimSink::new(machine.hierarchy());
        let mut sharded = ShardedSimSink::with_plan(machine.hierarchy(), plan);
        for chunk in accesses.chunks(64) {
            unsharded.access_batch(chunk);
            sharded.access_batch(chunk);
        }
        prop_assert_eq!(unsharded.finish(), sharded.finish());
    }
}

#[test]
fn batched_delivery_equals_element_wise_on_a_real_trace() {
    // Capture a real workload trace, then replay it into the simulator
    // one access at a time and in batches of every small size: the
    // batched sink entry point must be an exact refactoring.
    let machine = machine();
    let mut recorded = VecSink::new();
    {
        let mut space = AddressSpace::new();
        let mut data = sor::SorData::new(&mut space, 48, 23);
        sor::untiled(&mut data, 2, &mut recorded);
    }
    let accesses = recorded.accesses();
    assert!(accesses.len() > 5_000, "trace too small to be interesting");
    let element_wise = {
        let mut sim = SimSink::new(machine.hierarchy());
        for &access in accesses {
            sim.access(access);
        }
        sim.finish()
    };
    for chunk_size in [1usize, 2, 3, 7, 16, 64, 1024] {
        let mut sim = SimSink::new(machine.hierarchy());
        for chunk in accesses.chunks(chunk_size) {
            sim.access_batch(chunk);
        }
        assert_eq!(sim.finish(), element_wise, "chunk size {chunk_size}");
    }
}

// ---------------------------------------------------------------------
// Line runs ≡ per-line reads: `SimSink::read_lines(addr, size, count)`
// must leave every report field, the conservation check and the probe
// profile exactly as `count` reads of `size` bytes one L1 line apart.
// ---------------------------------------------------------------------

/// The hierarchy shapes the run entry must match the per-line loop on,
/// with whether the fast paths are on: the R8000's direct-mapped L1,
/// scaled and at full size (the serving machine), the R10000's 2-way L1
/// (per-line fallback), three levels, an MMU (per-line fallback), a
/// write-through L1, and the fast paths off (per-line fallback).
fn run_shapes() -> Vec<(&'static str, Hierarchy, bool)> {
    let r8000 = machine();
    let r10000 = MachineModel::r10000()
        .scaled_split(1.0 / 16.0, 1.0 / 64.0)
        .expect("valid scaled machine");
    let mut write_through = r8000.hierarchy_config();
    write_through.l1d = write_through
        .l1d
        .with_write_policy(WritePolicy::WriteThroughNoAllocate);
    let three = HierarchyConfig::new3(
        CacheConfig::new(1 << 10, 32, 1).unwrap(),
        CacheConfig::new(4 << 10, 64, 2).unwrap(),
        CacheConfig::new(16 << 10, 128, 4).unwrap(),
    );
    let mmu = Mmu::new(PageMapper::new(PagePolicy::RandomSeeded(7), 4096), 8);
    vec![
        ("r8000", r8000.hierarchy(), true),
        ("r8000-full", MachineModel::r8000().hierarchy(), true),
        ("r10000", r10000.hierarchy(), true),
        ("new3", Hierarchy::new(three), true),
        (
            "mmu",
            Hierarchy::with_mmu(r8000.hierarchy_config(), mmu),
            true,
        ),
        ("write-through", Hierarchy::new(write_through), true),
        ("slow", r8000.hierarchy(), false),
    ]
}

/// One step of a mixed stream: `count` reads one L1 line apart, or a
/// single access.
#[derive(Clone, Copy, Debug)]
enum Step {
    Run { addr: u64, size: u32, count: u64 },
    One(Access),
}

proptest! {
    /// Runs mixed with single reads and writes (whose dirty victims
    /// interrupt the L2 fetch runs), starting at any offset — line
    /// straddling and address-space wrapping included — with `count`
    /// from 0 to 3× the L1 sets and `size` from 1 to the L1 line, and
    /// serving scans: 4 KiB objects from a set of eight, read 8 bytes
    /// per L1 line, so repeats meet warm L1 and L2 lines.
    #[test]
    fn line_runs_equal_per_line_reads(
        raw in prop::collection::vec(
            (0u8..7, 0u64..(1 << 18), 1u32..=128, 0u64..=4096),
            1..48,
        ),
    ) {
        for (shape, hierarchy, fast) in run_shapes() {
            let config = hierarchy.config();
            let l1_line = config.l1d.line();
            let max_count = 3 * config.l1d.sets();
            let steps: Vec<Step> = raw
                .iter()
                .map(|&(kind, addr, size, count)| {
                    let size = 1 + (size - 1) % l1_line as u32;
                    let count = count % (max_count + 1);
                    match kind {
                        0..=2 => Step::Run { addr, size, count },
                        3 => Step::One(Access::read(Addr::new(addr), size)),
                        4 => Step::One(Access::write(Addr::new(addr), size)),
                        5 => Step::Run {
                            addr: addr % 8 * 4096 + 8,
                            size: 8,
                            count: 4096 / l1_line,
                        },
                        // The page mapper's frame space ends far below
                        // the top of the address space.
                        _ if shape == "mmu" => Step::Run { addr, size, count },
                        _ => Step::Run { addr: u64::MAX - addr % 4096, size, count },
                    }
                })
                .collect();
            let mut runs = SimSink::new(hierarchy.clone());
            let mut lines = SimSink::new(hierarchy);
            runs.set_fast_path(fast);
            lines.set_fast_path(fast);
            for &step in &steps {
                match step {
                    Step::Run { addr, size, count } => {
                        runs.read_lines(Addr::new(addr), size, count);
                        for k in 0..count {
                            let addr = addr.wrapping_add(k * l1_line);
                            lines.access(Access::read(Addr::new(addr), size));
                        }
                    }
                    Step::One(access) => {
                        runs.access(access);
                        lines.access(access);
                    }
                }
            }
            prop_assert_eq!(runs.run_profile(), lines.run_profile(), "{}", shape);
            let (runs, lines) = (runs.finish(), lines.finish());
            prop_assert_eq!(runs, lines, "{}", shape);
            prop_assert_eq!(runs.check(), Ok(()), "{}", shape);
        }
    }
}
