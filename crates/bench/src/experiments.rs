//! One function per paper table/figure, returning structured results.

use crate::ExpScale;
use cachesim::{MachineModel, SimReport, SimSink, TimeBreakdown};
use locality_sched::{
    BinPolicy, Hints, PaperBlockHash, ParRunReport, ParScheduler, RunMode, Scheduler,
    SchedulerConfig, StealPolicy,
};
use memtrace::AddressSpace;
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workloads::{matmul, nbody, pde, sor, BinGeometry, Kernel};

/// Largest power of two ≤ `x`.
fn prev_power_of_two(x: u64) -> u64 {
    assert!(x > 0);
    1 << (63 - x.leading_zeros())
}

/// The scheduler configuration a workload's threaded version uses on a
/// given machine, following the paper's choices:
///
/// * matmul: 2-D hints, block = L2/2 (§4.2);
/// * PDE: 1-D hints over line addresses, block = L2/2;
/// * SOR: 1-D hints over column addresses, block = L2/4 (the paper's
///   63 bins over a 32 MB array imply ~512 KB blocks on the 2 MB L2);
/// * N-body: 3-D hints, the package default of dimensions summing to
///   the L2 size (§3.2).
pub fn sched_config_for(workload: &str, machine: &MachineModel) -> SchedulerConfig {
    let kernel =
        Kernel::from_name(workload).unwrap_or_else(|| panic!("unknown workload {workload}"));
    BinGeometry::for_machine(machine).flat_config(kernel)
}

// ---------------------------------------------------------------------
// Parallel experiment driver: every (workload version × machine)
// combination of the paper tables is an independent simulation, so the
// suites build self-contained cells that a scoped-thread driver can fan
// out — with a join-in-spawn-order reduce that keeps the output
// identical to the sequential driver's.
// ---------------------------------------------------------------------

/// One independent simulation cell: a (workload version × machine)
/// combination owning all of its state, returning its table entry.
pub type Cell = Box<dyn FnOnce() -> (String, SimReport) + Send>;

/// How a batch of independent [`Cell`]s executes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Driver {
    /// One after another on the calling thread (the reference order).
    Sequential,
    /// One OS thread per cell via [`std::thread::scope`], results
    /// collected by joining handles in spawn order.
    #[default]
    Parallel,
}

/// Driver-level probe state: per-cell wall time and the number of
/// cells executed, accumulated across every [`run_cells`] call in the
/// process. Process-global (const constructors make the static free)
/// because cells run on driver-owned threads with no natural place to
/// thread a handle through.
struct DriverObs {
    cells: probe::Counter,
    cell_wall_ns: probe::Histogram,
}

static DRIVER_OBS: DriverObs = DriverObs {
    cells: probe::Counter::new(),
    cell_wall_ns: probe::Histogram::new(),
};

/// The driver's probe section (`"driver"`): cells executed so far and
/// the per-cell wall-time distribution.
pub fn driver_profile() -> probe::Section {
    let mut section = probe::Section::new("driver");
    section
        .counter("cells", DRIVER_OBS.cells.get())
        .histogram("cell_wall_ns", &DRIVER_OBS.cell_wall_ns);
    section
}

/// Runs `work` as one driver cell: counted in the `"driver"` probe
/// section and timed into its wall-clock histogram.
///
/// This is the accounting entry point for *every* independent
/// simulation the process runs — [`run_cells`] batches route through it
/// per cell, and benchmark mains that time runs directly (simbench's
/// slow/fast/sharded repetitions) must wrap each timed run in it, or
/// the published `"driver":{"cells":…}` counter silently reads zero.
pub fn drive<T>(work: impl FnOnce() -> T) -> T {
    let _span = DRIVER_OBS.cell_wall_ns.span();
    DRIVER_OBS.cells.incr();
    work()
}

/// Returns `report` if it passes [`SimReport::check`]'s conservation
/// laws, and panics naming `label` and the violated law otherwise, so
/// every experiment checks its reports as it produces them.
pub fn checked(label: &str, report: SimReport) -> SimReport {
    if let Err(law) = report.check() {
        panic!("{label}: simulation report violates a conservation law: {law}");
    }
    report
}

/// Runs one cell under the driver's probes and checks its report.
fn timed_cell(cell: Cell) -> (String, SimReport) {
    let (name, report) = drive(cell);
    let report = checked(&name, report);
    (name, report)
}

/// Runs `cells` under `driver`, returning results in cell order.
///
/// Determinism: each cell owns its address space, workload data and
/// [`SimSink`], shares nothing mutable with its siblings, and the
/// reduce joins handles in spawn order — so the result vector is
/// *identical* to the sequential driver's regardless of how the OS
/// interleaves cell completion (see DESIGN.md).
pub fn run_cells(cells: Vec<Cell>, driver: Driver) -> Vec<(String, SimReport)> {
    match driver {
        Driver::Sequential => cells.into_iter().map(timed_cell).collect(),
        Driver::Parallel => std::thread::scope(|scope| {
            let handles: Vec<_> = cells
                .into_iter()
                .map(|cell| scope.spawn(move || timed_cell(cell)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("simulation cell panicked"))
                .collect()
        }),
    }
}

/// Wraps one workload run as a [`Cell`]: fresh address space and sink
/// over a clone of `machine`, report collected on completion.
fn cell<F>(machine: &MachineModel, run: F) -> Cell
where
    F: FnOnce(&mut AddressSpace, &mut SimSink) -> workloads::WorkloadReport + Send + 'static,
{
    let machine = machine.clone();
    Box::new(move || {
        let mut space = AddressSpace::new();
        let mut sim = SimSink::new(machine.hierarchy());
        let report = run(&mut space, &mut sim);
        sim.add_threads(report.threads);
        (report.name.clone(), sim.finish())
    })
}

// ---------------------------------------------------------------------
// Workload suites: one cell per version of one workload on one machine.
// ---------------------------------------------------------------------

/// The five matmul versions of Table 2 on `machine`, as cells.
pub fn matmul_cells(scale: &ExpScale, machine: &MachineModel) -> Vec<Cell> {
    let n = scale.matmul_n;
    let tiles =
        matmul::TileConfig::for_caches(machine.l1_config().size(), machine.l2_config().size());
    let sched = sched_config_for("matmul", machine);
    let data = move |space: &mut AddressSpace| matmul::MatMulData::new(space, n, 42);
    vec![
        cell(machine, move |sp, s| matmul::interchanged(&mut data(sp), s)),
        cell(machine, move |sp, s| matmul::transposed(&mut data(sp), s)),
        cell(machine, move |sp, s| {
            matmul::tiled_interchanged(&mut data(sp), tiles, sp, s)
        }),
        cell(machine, move |sp, s| {
            matmul::tiled_transposed(&mut data(sp), tiles, sp, s)
        }),
        cell(machine, move |sp, s| {
            matmul::threaded(&mut data(sp), sched, s)
        }),
    ]
}

/// The three PDE versions of Table 4 on `machine`, as cells.
pub fn pde_cells(scale: &ExpScale, machine: &MachineModel) -> Vec<Cell> {
    let n = scale.pde_n;
    let iters = scale.pde_iters;
    let sched = sched_config_for("pde", machine);
    let data = move |space: &mut AddressSpace| pde::PdeData::new(space, n, 7);
    vec![
        cell(machine, move |sp, s| pde::regular(&mut data(sp), iters, s)),
        cell(machine, move |sp, s| {
            pde::cache_conscious(&mut data(sp), iters, s)
        }),
        cell(machine, move |sp, s| {
            pde::threaded(&mut data(sp), iters, sched, s)
        }),
    ]
}

/// The three SOR versions of Table 6 on `machine`, as cells.
pub fn sor_cells(scale: &ExpScale, machine: &MachineModel) -> Vec<Cell> {
    let n = scale.sor_n;
    let t = scale.sor_t;
    let tile = scale.sor_tile;
    let sched = sched_config_for("sor", machine);
    let data = move |space: &mut AddressSpace| sor::SorData::new(space, n, 99);
    vec![
        cell(machine, move |sp, s| sor::untiled(&mut data(sp), t, s)),
        cell(machine, move |sp, s| {
            sor::hand_tiled(&mut data(sp), t, tile, s)
        }),
        cell(machine, move |sp, s| {
            sor::threaded(&mut data(sp), t, sched, s)
        }),
    ]
}

/// The two N-body versions of Table 8 on `machine`, as cells.
pub fn nbody_cells(scale: &ExpScale, machine: &MachineModel, iterations: usize) -> Vec<Cell> {
    let n = scale.nbody_n;
    let params = nbody::NBodyParams {
        // Fix the scheduling plane so the default block (L2/3) cuts
        // each dimension into 4, as on the full-size machine.
        plane_extent: 4 * (machine.l2_config().size() / 3),
        ..nbody::NBodyParams::default()
    };
    let sched = sched_config_for("nbody", machine);
    let data = move |space: &mut AddressSpace| nbody::NBodyData::new(space, n, 2024);
    vec![
        cell(machine, move |sp, s| {
            nbody::unthreaded(&mut data(sp), iterations, params, s)
        }),
        cell(machine, move |sp, s| {
            nbody::threaded(&mut data(sp), iterations, params, sched, s)
        }),
    ]
}

/// Runs the five matmul versions of Table 2 on `machine`.
pub fn matmul_suite(scale: &ExpScale, machine: &MachineModel) -> Vec<(String, SimReport)> {
    run_cells(matmul_cells(scale, machine), Driver::default())
}

/// Runs the three PDE versions of Table 4 on `machine`.
pub fn pde_suite(scale: &ExpScale, machine: &MachineModel) -> Vec<(String, SimReport)> {
    run_cells(pde_cells(scale, machine), Driver::default())
}

/// Runs the three SOR versions of Table 6 on `machine`.
pub fn sor_suite(scale: &ExpScale, machine: &MachineModel) -> Vec<(String, SimReport)> {
    run_cells(sor_cells(scale, machine), Driver::default())
}

/// Runs the two N-body versions of Table 8 on `machine`.
pub fn nbody_suite(
    scale: &ExpScale,
    machine: &MachineModel,
    iterations: usize,
) -> Vec<(String, SimReport)> {
    run_cells(nbody_cells(scale, machine, iterations), Driver::default())
}

// ---------------------------------------------------------------------
// Table results
// ---------------------------------------------------------------------

/// Host-measured thread-package overhead (Table 1's methodology: fork
/// and run ~1M null threads evenly distributed across the scheduling
/// plane).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table1Result {
    /// Threads forked and run.
    pub threads: u64,
    /// Nanoseconds per fork.
    pub fork_ns: f64,
    /// Nanoseconds per run dispatch.
    pub run_ns: f64,
}

impl Table1Result {
    /// Total per-thread overhead in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.fork_ns + self.run_ns
    }
}

fn null_thread(_ctx: &mut (), _a: usize, _b: usize) {}

/// Table 1: measures this implementation's fork/run overhead on the
/// host, with the paper's micro-benchmark shape (uniformly distributed
/// 2-D hints).
pub fn table1(threads: u64) -> Table1Result {
    let config = SchedulerConfig::builder()
        .block_size(1 << 20)
        .build()
        .expect("static config");
    let block = 1u64 << 20;
    let mut best_fork = f64::INFINITY;
    let mut best_run = f64::INFINITY;
    for _rep in 0..3 {
        let mut sched: Scheduler<()> = Scheduler::new(config);
        let start = Instant::now();
        for i in 0..threads {
            let h1 = (i % 16) * block;
            let h2 = ((i / 16) % 16) * block;
            sched.fork(null_thread, i as usize, 0, Hints::two(h1.into(), h2.into()));
        }
        let fork_ns = start.elapsed().as_nanos() as f64 / threads as f64;
        let start = Instant::now();
        let stats = sched.run(&mut (), RunMode::Consume);
        let run_ns = start.elapsed().as_nanos() as f64 / threads as f64;
        assert_eq!(stats.threads_run, threads);
        best_fork = best_fork.min(fork_ns);
        best_run = best_run.min(run_ns);
    }
    Table1Result {
        threads,
        fork_ns: best_fork,
        run_ns: best_run,
    }
}

/// One row of a timing table: modeled seconds per machine.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeRow {
    /// Version name.
    pub version: String,
    /// Modeled time on the (scaled) R8000.
    pub r8000: TimeBreakdown,
    /// Modeled time on the (scaled) R10000.
    pub r10000: TimeBreakdown,
}

/// One row of a cache-miss table.
#[derive(Clone, Debug, PartialEq)]
pub struct MissRow {
    /// Version name.
    pub version: String,
    /// Simulation report on the (scaled) R8000.
    pub report: SimReport,
}

fn time_rows(
    cells_on: impl Fn(&MachineModel) -> Vec<Cell>,
    r8000: &MachineModel,
    r10000: &MachineModel,
    driver: Driver,
) -> Vec<TimeRow> {
    // Both machines' cells go into one batch, so a parallel driver
    // overlaps all (version × machine) combinations at once.
    let mut cells = cells_on(r8000);
    let split = cells.len();
    cells.extend(cells_on(r10000));
    let mut on_r8000 = run_cells(cells, driver);
    let on_r10000 = on_r8000.split_off(split);
    on_r8000
        .into_iter()
        .zip(on_r10000)
        .map(|((name, rep8), (name10, rep10))| {
            debug_assert_eq!(name, name10);
            TimeRow {
                version: name,
                r8000: rep8.time_on(r8000),
                r10000: rep10.time_on(r10000),
            }
        })
        .collect()
}

/// The two machine models at a workload's scale factor: the L2 scales
/// by `factor` — whole-array working sets shrink with the problem
/// *area*, so this preserves the paper's data : L2 ratios — while the
/// L1 keeps its full size, because L1-level working sets (a few matrix
/// columns, a register tile) shrink only with the problem *side* and
/// already sit at the same order as the real L1. Shrinking the L1 too
/// would fabricate conflict thrashing the paper's machines never saw.
pub fn machines(factor: f64) -> (MachineModel, MachineModel) {
    (
        MachineModel::r8000()
            .scaled_split(1.0, factor)
            .expect("valid scaled machine"),
        MachineModel::r10000()
            .scaled_split(1.0, factor)
            .expect("valid scaled machine"),
    )
}

/// Table 2: matmul modeled seconds, five versions × two machines.
pub fn table2(scale: &ExpScale) -> Vec<TimeRow> {
    table2_with(scale, Driver::default())
}

/// [`table2`] under an explicit [`Driver`] (the parallel and sequential
/// drivers produce identical rows; see `tests/fastpath_equivalence.rs`).
pub fn table2_with(scale: &ExpScale, driver: Driver) -> Vec<TimeRow> {
    let (r8000, r10000) = machines(scale.matmul_factor);
    time_rows(|m| matmul_cells(scale, m), &r8000, &r10000, driver)
}

/// Table 3: matmul reference/miss simulation on the scaled R8000
/// (untiled interchanged, tiled interchanged, threaded — the paper's
/// three columns).
pub fn table3(scale: &ExpScale) -> Vec<MissRow> {
    let (r8000, _) = machines(scale.matmul_factor);
    matmul_suite(scale, &r8000)
        .into_iter()
        .filter(|(name, _)| {
            name == "matmul/interchanged"
                || name == "matmul/tiled-interchanged"
                || name == "matmul/threaded"
        })
        .map(|(version, report)| MissRow { version, report })
        .collect()
}

/// Table 4: PDE modeled seconds.
pub fn table4(scale: &ExpScale) -> Vec<TimeRow> {
    table4_with(scale, Driver::default())
}

/// [`table4`] under an explicit [`Driver`].
pub fn table4_with(scale: &ExpScale, driver: Driver) -> Vec<TimeRow> {
    let (r8000, r10000) = machines(scale.pde_factor);
    time_rows(|m| pde_cells(scale, m), &r8000, &r10000, driver)
}

/// Table 5: PDE simulation on the scaled R8000.
pub fn table5(scale: &ExpScale) -> Vec<MissRow> {
    let (r8000, _) = machines(scale.pde_factor);
    pde_suite(scale, &r8000)
        .into_iter()
        .map(|(version, report)| MissRow { version, report })
        .collect()
}

/// Table 6: SOR modeled seconds.
pub fn table6(scale: &ExpScale) -> Vec<TimeRow> {
    table6_with(scale, Driver::default())
}

/// [`table6`] under an explicit [`Driver`].
pub fn table6_with(scale: &ExpScale, driver: Driver) -> Vec<TimeRow> {
    let (r8000, r10000) = machines(scale.sor_factor);
    time_rows(|m| sor_cells(scale, m), &r8000, &r10000, driver)
}

/// Table 7: SOR simulation on the scaled R8000.
pub fn table7(scale: &ExpScale) -> Vec<MissRow> {
    let (r8000, _) = machines(scale.sor_factor);
    sor_suite(scale, &r8000)
        .into_iter()
        .map(|(version, report)| MissRow { version, report })
        .collect()
}

/// Table 8: N-body modeled seconds over the full iteration count.
pub fn table8(scale: &ExpScale) -> Vec<TimeRow> {
    table8_with(scale, Driver::default())
}

/// [`table8`] under an explicit [`Driver`].
pub fn table8_with(scale: &ExpScale, driver: Driver) -> Vec<TimeRow> {
    let (r8000, r10000) = machines(scale.nbody_factor);
    time_rows(
        |m| nbody_cells(scale, m, scale.nbody_iters),
        &r8000,
        &r10000,
        driver,
    )
}

/// Table 9: N-body simulation on the scaled R8000 — one iteration, as
/// in the paper.
pub fn table9(scale: &ExpScale) -> Vec<MissRow> {
    let (r8000, _) = machines(scale.nbody_factor);
    nbody_suite(scale, &r8000, 1)
        .into_iter()
        .map(|(version, report)| MissRow { version, report })
        .collect()
}

// ---------------------------------------------------------------------
// Steal-policy ablation (host wall-clock)
// ---------------------------------------------------------------------

/// Scheduling-space block size used by the steal ablation's hints: one
/// bin per 4 KB block.
const STEAL_BLOCK: u64 = 4096;

/// Doubles per bin window (4 KB — cache-resident, so the workload is
/// compute-bound and worker *balance*, not memory bandwidth, decides
/// the critical path).
const STEAL_WINDOW: usize = 512;

/// Context for the steal ablation's workload: every thread of bin b
/// makes `passes[b]` summing passes over the bin's window of `data`
/// (the bin's working set); results land in per-thread `out` cells,
/// and each bin records which OS thread executed it in `owner` so the
/// run's critical path can be recomputed from known per-bin costs.
pub struct StealCtx {
    data: Vec<f64>,
    passes: Vec<usize>,
    out: Vec<AtomicU64>,
    owner: Vec<AtomicU64>,
}

fn windowed_sum(ctx: &StealCtx, thread: usize, bin: usize) {
    let window = &ctx.data[bin * STEAL_WINDOW..(bin + 1) * STEAL_WINDOW];
    let mut acc = 0.0f64;
    for _ in 0..ctx.passes[bin] {
        for &x in window {
            acc += x;
        }
    }
    ctx.out[thread].store(acc.to_bits(), Ordering::Relaxed);
    // A bin never splits across workers, so one store per thread of the
    // bin is enough — they all write the same worker's id.
    let mut h = DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    ctx.owner[bin].store(h.finish() | 1, Ordering::Relaxed);
}

fn steal_ctx(bins: usize, threads_per_bin: usize, passes_scale: usize) -> StealCtx {
    StealCtx {
        data: (0..bins * STEAL_WINDOW)
            .map(|i| (i % 97) as f64 * 0.5)
            .collect(),
        // Triangular cost profile: every thread of bin b costs
        // (b + 1) × a thread of bin 0. A partition balanced by
        // *thread count* — the ParScheduler's static handout —
        // therefore misjudges *work* by up to 2×, which is exactly
        // the imbalance stealing exists to absorb.
        passes: (0..bins).map(|b| (b + 1) * passes_scale).collect(),
        out: (0..bins * threads_per_bin)
            .map(|_| AtomicU64::new(0))
            .collect(),
        owner: (0..bins).map(|_| AtomicU64::new(0)).collect(),
    }
}

/// Critical path of the run just recorded in `ctx.owner`, in *work
/// units* (window-passes): groups bins by the OS thread that executed
/// them and returns (max per-thread unit sum, total units). Work units
/// are exact — each thread of bin b costs `passes[b]` passes by
/// construction — so unlike wall-clock busy time the result is
/// unaffected by how the host time-slices workers onto cores.
fn critical_path_units(ctx: &StealCtx, threads_per_bin: usize) -> (u64, u64) {
    let mut per_owner: Vec<(u64, u64)> = Vec::new();
    let mut total = 0u64;
    for (bin, owner) in ctx.owner.iter().enumerate() {
        let owner = owner.load(Ordering::Relaxed);
        assert_ne!(owner, 0, "bin {bin} never executed");
        let units = (ctx.passes[bin] * threads_per_bin) as u64;
        total += units;
        match per_owner.iter_mut().find(|(id, _)| *id == owner) {
            Some((_, sum)) => *sum += units,
            None => per_owner.push((owner, units)),
        }
    }
    let max = per_owner.iter().map(|&(_, sum)| sum).max().unwrap_or(0);
    (max, total)
}

fn fork_windowed(sched: &mut ParScheduler<StealCtx>, bins: usize, threads_per_bin: usize) {
    let mut thread = 0usize;
    for bin in 0..bins {
        for _ in 0..threads_per_bin {
            sched.fork(
                windowed_sum,
                thread,
                bin,
                Hints::one((bin as u64 * STEAL_BLOCK).into()),
            );
            thread += 1;
        }
    }
}

/// One measured cell of the steal ablation: one (policy, workers)
/// combination, best of three runs.
///
/// The headline metric is the *makespan* in deterministic work units —
/// the maximum per-worker sum of known per-bin costs, i.e. the run's
/// critical path under ideal parallel execution. Wall-clock (and the
/// `Instant`-based per-worker busy times inside `report`) conflate
/// scheduling quality with how many physical cores the host happens to
/// have: on a 1-core host every multi-worker wall-clock is just the
/// serialized total, and a worker's busy window absorbs time-slice
/// preemption from its peers. Work units do not.
#[derive(Clone, Debug)]
pub struct StealRow {
    /// Steal policy under test.
    pub policy: StealPolicy,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock nanoseconds of the best repetition.
    pub wall_ns: u64,
    /// Critical path of the best repetition, in work units
    /// (window-passes): max per-worker sum of executed bins' costs.
    pub makespan_units: u64,
    /// Critical path converted to nanoseconds via the single-worker
    /// calibration rate (units per ns with no scheduling overlap).
    pub modeled_ns: u64,
    /// Threads per second along the modeled critical path.
    pub threads_per_sec: f64,
    /// Full per-worker report of the best repetition.
    pub report: ParRunReport,
}

/// The steal-policy ablation: every [`StealPolicy`] at each worker
/// count, on a workload whose per-thread cost the static partition
/// cannot predict.
#[derive(Clone, Debug)]
pub struct StealAblationResult {
    /// Bins in the schedule.
    pub bins: usize,
    /// Threads per run.
    pub threads: u64,
    /// Worker counts measured.
    pub worker_counts: Vec<usize>,
    /// One row per (workers, policy), grouped by worker count.
    pub rows: Vec<StealRow>,
}

impl StealAblationResult {
    /// The measured cell for one (policy, workers) combination.
    pub fn row(&self, policy: StealPolicy, workers: usize) -> Option<&StealRow> {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.workers == workers)
    }

    /// Critical-path speedup of `policy` over [`StealPolicy::None`] at
    /// `workers` (1.0 when either cell is missing).
    pub fn speedup_vs_none(&self, policy: StealPolicy, workers: usize) -> f64 {
        match (
            self.row(StealPolicy::None, workers),
            self.row(policy, workers),
        ) {
            (Some(none), Some(row)) if row.makespan_units > 0 => {
                none.makespan_units as f64 / row.makespan_units as f64
            }
            _ => 1.0,
        }
    }

    /// Serializes the ablation — including each cell's full
    /// [`ParRunReport`] with per-worker steal counters — as one JSON
    /// object (the `BENCH_steal.json` payload).
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\"experiment\":\"steal_ablation\",\"workload\":\"windowed-sum\",\
             \"bins\":{},\"threads\":{},\"rows\":[",
            self.bins, self.threads
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            write!(
                json,
                "{{\"policy\":\"{}\",\"workers\":{},\"wall_ns\":{},\"makespan_units\":{},\
                 \"modeled_ns\":{},\"threads_per_sec\":{:.1},\"speedup_vs_none\":{:.3},\
                 \"report\":{}}}",
                row.policy,
                row.workers,
                row.wall_ns,
                row.makespan_units,
                row.modeled_ns,
                row.threads_per_sec,
                self.speedup_vs_none(row.policy, row.workers),
                row.report.to_json(),
            )
            .expect("writing to String cannot fail");
        }
        json.push_str("]}");
        json
    }
}

/// Measures every steal policy at each worker count on the windowed-sum
/// workload (`bins` bins × `threads_per_bin` threads, triangular pass
/// counts scaled by `passes_scale`), best of three repetitions per
/// cell (best by critical-path work units).
///
/// A dedicated single-worker calibration run (best-of-three wall-clock)
/// establishes the units→nanoseconds rate used for `modeled_ns`: with
/// one worker there is no overlap to mismeasure, so `wall / total
/// units` is the true per-unit cost on this host.
pub fn steal_ablation(
    bins: usize,
    threads_per_bin: usize,
    passes_scale: usize,
    worker_counts: &[usize],
) -> StealAblationResult {
    let ctx = steal_ctx(bins, threads_per_bin, passes_scale);
    let threads = (bins * threads_per_bin) as u64;
    let calib_config = SchedulerConfig::builder()
        .block_size(STEAL_BLOCK)
        .steal_policy(StealPolicy::None)
        .build()
        .expect("power-of-two block");
    let mut calib_wall_ns = u64::MAX;
    let mut total_units = 0u64;
    for _rep in 0..3 {
        let mut sched: ParScheduler<StealCtx> = ParScheduler::new(calib_config);
        fork_windowed(&mut sched, bins, threads_per_bin);
        let start = Instant::now();
        let report = sched.run_report(&ctx, 1);
        calib_wall_ns = calib_wall_ns.min((start.elapsed().as_nanos() as u64).max(1));
        assert_eq!(report.run.threads_run, threads);
        total_units = critical_path_units(&ctx, threads_per_bin).1;
    }
    let ns_per_unit = calib_wall_ns as f64 / total_units as f64;
    let mut rows = Vec::new();
    for &workers in worker_counts {
        for policy in [
            StealPolicy::None,
            StealPolicy::Random,
            StealPolicy::LocalityAware,
        ] {
            let config = SchedulerConfig::builder()
                .block_size(STEAL_BLOCK)
                .steal_policy(policy)
                .build()
                .expect("power-of-two block");
            let mut best: Option<StealRow> = None;
            for _rep in 0..3 {
                let mut sched: ParScheduler<StealCtx> = ParScheduler::new(config);
                fork_windowed(&mut sched, bins, threads_per_bin);
                let start = Instant::now();
                let report = sched.run_report(&ctx, workers);
                let wall_ns = (start.elapsed().as_nanos() as u64).max(1);
                assert_eq!(report.run.threads_run, threads);
                let (makespan_units, total) = critical_path_units(&ctx, threads_per_bin);
                assert_eq!(total, total_units);
                if best
                    .as_ref()
                    .is_none_or(|b| makespan_units < b.makespan_units)
                {
                    let modeled_ns = ((makespan_units as f64 * ns_per_unit) as u64).max(1);
                    best = Some(StealRow {
                        policy,
                        workers,
                        wall_ns,
                        makespan_units,
                        modeled_ns,
                        threads_per_sec: threads as f64 / (modeled_ns as f64 / 1e9),
                        report,
                    });
                }
            }
            rows.push(best.expect("three repetitions measured"));
        }
    }
    StealAblationResult {
        bins,
        threads,
        worker_counts: worker_counts.to_vec(),
        rows,
    }
}

/// The steal ablation at a table scale: the pass scale tracks
/// `matmul_n` so `--smoke`/`--full` shrink/grow the work as for the
/// tables. Each run must span many OS timeslices (tens of milliseconds
/// and up): the kernel's fair scheduler then advances oversubscribed
/// workers at near-equal rates, which is what makes the recorded
/// bin-to-worker assignment representative of truly parallel execution
/// even on hosts with fewer cores than workers.
pub fn steal(scale: &ExpScale) -> StealAblationResult {
    steal_ablation(48, 8, (scale.matmul_n / 4).max(2), &[1, 2, 4, 8])
}

// ---------------------------------------------------------------------
// Topology ablation: flat vs 2-level vs full machine-tree binning
// ---------------------------------------------------------------------

/// Builds the simulation cell for one (kernel, machine, policy)
/// combination: the kernel's threaded version under `policy`, with the
/// same problem sizes, seeds and hints as its paper table.
fn policy_cell<P: BinPolicy + Send + 'static>(
    scale: &ExpScale,
    kernel: Kernel,
    machine: &MachineModel,
    config: SchedulerConfig,
    policy: P,
) -> Cell {
    let scale = *scale;
    match kernel {
        Kernel::MatMul => {
            let n = scale.matmul_n;
            cell(machine, move |sp, s| {
                matmul::threaded_with(&mut matmul::MatMulData::new(sp, n, 42), config, policy, s)
            })
        }
        Kernel::Pde => {
            let (n, iters) = (scale.pde_n, scale.pde_iters);
            cell(machine, move |sp, s| {
                pde::threaded_with(&mut pde::PdeData::new(sp, n, 7), iters, config, policy, s)
            })
        }
        Kernel::Sor => {
            let (n, t) = (scale.sor_n, scale.sor_t);
            cell(machine, move |sp, s| {
                sor::threaded_with(&mut sor::SorData::new(sp, n, 99), t, config, policy, s)
            })
        }
        Kernel::NBody => {
            let n = scale.nbody_n;
            let params = nbody::NBodyParams {
                plane_extent: 4 * (machine.l2_config().size() / 3),
                ..nbody::NBodyParams::default()
            };
            cell(machine, move |sp, s| {
                nbody::threaded_with(
                    &mut nbody::NBodyData::new(sp, n, 2024),
                    1,
                    params,
                    config,
                    policy,
                    s,
                )
            })
        }
    }
}

/// One measured cell of the topology ablation: one threaded workload
/// under one binning depth on one machine, fully simulated.
#[derive(Clone, Debug)]
pub struct TopologyRow {
    /// Unique row label `"<kernel>.<machine>.<policy>"` — the benchdiff
    /// row key.
    pub workload: String,
    /// Kernel name (`"matmul"`, `"pde"`, `"sor"`, `"nbody"`).
    pub kernel: String,
    /// Machine name (`"r8000"` / `"r10000"` / `"numa2"`).
    pub machine: String,
    /// Policy name (`"flat"` / `"hierarchical"` / `"topology"`).
    pub policy: String,
    /// Block-size ladder the policy bins with, finest first. One entry
    /// for flat, two for hierarchical, one per machine-tree level for
    /// the full topology policy.
    pub blocks: Vec<u64>,
    /// Threads forked and run.
    pub threads: u64,
    /// Simulated data references (deterministic).
    pub accesses: u64,
    /// Full simulation report for this cell.
    pub report: SimReport,
    /// Modeled nanoseconds on this row's machine.
    pub modeled_ns: u64,
}

/// The topology ablation: each threaded kernel binned flat (paper
/// §3.2), two-level (L1-in-L2), and at the machine tree's full depth —
/// on both two-level paper machines (where the tree policy must
/// collapse to hierarchical) and on the four-level NUMA bench machine
/// (where the extra rungs group bins under L3 and socket subtrees).
#[derive(Clone, Debug)]
pub struct TopologyResult {
    /// One row per (kernel × machine × policy).
    pub rows: Vec<TopologyRow>,
}

impl TopologyResult {
    /// The measured cell for one (kernel, machine, policy).
    pub fn row(&self, kernel: &str, machine: &str, policy: &str) -> Option<&TopologyRow> {
        self.rows
            .iter()
            .find(|r| r.kernel == kernel && r.machine == machine && r.policy == policy)
    }

    fn delta_pct(flat: u64, other: u64) -> f64 {
        if flat == 0 {
            0.0
        } else {
            100.0 * (other as f64 - flat as f64) / flat as f64
        }
    }

    /// `policy`-vs-flat L1 miss delta in percent (negative = the
    /// deeper policy misses less).
    pub fn l1_miss_delta_pct(&self, kernel: &str, machine: &str, policy: &str) -> f64 {
        match (
            self.row(kernel, machine, "flat"),
            self.row(kernel, machine, policy),
        ) {
            (Some(f), Some(p)) => Self::delta_pct(f.report.l1.misses(), p.report.l1.misses()),
            _ => 0.0,
        }
    }

    /// `policy`-vs-flat L2 miss delta in percent.
    pub fn l2_miss_delta_pct(&self, kernel: &str, machine: &str, policy: &str) -> f64 {
        match (
            self.row(kernel, machine, "flat"),
            self.row(kernel, machine, policy),
        ) {
            (Some(f), Some(p)) => Self::delta_pct(f.report.l2.misses(), p.report.l2.misses()),
            _ => 0.0,
        }
    }

    /// `policy`-vs-flat modeled-time delta in percent.
    pub fn modeled_delta_pct(&self, kernel: &str, machine: &str, policy: &str) -> f64 {
        match (
            self.row(kernel, machine, "flat"),
            self.row(kernel, machine, policy),
        ) {
            (Some(f), Some(p)) => Self::delta_pct(f.modeled_ns, p.modeled_ns),
            _ => 0.0,
        }
    }

    /// The (kernel, machine) pairs present, in row order.
    pub fn pairs(&self) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for row in &self.rows {
            let pair = (row.kernel.clone(), row.machine.clone());
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
        pairs
    }

    /// Serializes the ablation as the `BENCH_topology.json` payload:
    /// per-cell deterministic miss counts/rates (benchdiff-gated) plus
    /// per-(kernel, machine) deltas of each deeper policy vs flat.
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\"experiment\":\"topology\",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let blocks = row
                .blocks
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            write!(
                json,
                "{{\"workload\":\"{}\",\"kernel\":\"{}\",\"machine\":\"{}\",\
                 \"policy\":\"{}\",\"depth\":{},\"blocks\":[{}],\"threads\":{},\
                 \"accesses\":{},\"l1_misses\":{},\"l2_misses\":{},\
                 \"l1_miss_rate_pct\":{:.4},\"l2_miss_rate_pct\":{:.4},\"modeled_ns\":{}}}",
                row.workload,
                row.kernel,
                row.machine,
                row.policy,
                row.blocks.len(),
                blocks,
                row.threads,
                row.accesses,
                row.report.l1.misses(),
                row.report.l2.misses(),
                row.report.l1_miss_rate_percent(),
                row.report.l2_miss_rate_percent(),
                row.modeled_ns,
            )
            .expect("writing to String cannot fail");
        }
        json.push_str("],\"deltas\":[");
        let mut first = true;
        for (kernel, machine) in self.pairs() {
            for policy in ["hierarchical", "topology"] {
                if !first {
                    json.push(',');
                }
                first = false;
                write!(
                    json,
                    "{{\"workload\":\"{kernel}.{machine}.{policy}\",\
                     \"l1_miss_delta_pct\":{:.4},\"l2_miss_delta_pct\":{:.4},\
                     \"modeled_delta_pct\":{:.4}}}",
                    self.l1_miss_delta_pct(&kernel, &machine, policy),
                    self.l2_miss_delta_pct(&kernel, &machine, policy),
                    self.modeled_delta_pct(&kernel, &machine, policy),
                )
                .expect("writing to String cannot fail");
            }
        }
        json.push_str("]}");
        json
    }
}

/// The topology ablation at `scale`: flat vs two-level vs full-tree
/// binning for every threaded kernel, on the scaled two-level R8000
/// and R10000 and the scaled four-level NUMA machine.
pub fn topology(scale: &ExpScale) -> TopologyResult {
    topology_with(scale, Driver::default())
}

/// [`topology`] under an explicit [`Driver`].
pub fn topology_with(scale: &ExpScale, driver: Driver) -> TopologyResult {
    let kernels = [
        ("matmul", Kernel::MatMul, scale.matmul_factor),
        ("pde", Kernel::Pde, scale.pde_factor),
        ("sor", Kernel::Sor, scale.sor_factor),
        ("nbody", Kernel::NBody, scale.nbody_factor),
    ];
    struct Meta {
        kernel: &'static str,
        machine_name: &'static str,
        policy: &'static str,
        blocks: Vec<u64>,
        machine: MachineModel,
        /// Whether this row reuses the previous row's report instead of
        /// owning a cell: a topology ladder equal to the hierarchical
        /// one builds the same policy, so it simulates the same run.
        same_as_previous: bool,
    }
    let mut cells: Vec<Cell> = Vec::new();
    let mut meta: Vec<Meta> = Vec::new();
    for (kname, kernel, factor) in kernels {
        // Same ratio-preserving scaling as the paper tables: coarse
        // levels shrink with the problem area, the L1 stays full-size.
        let (r8000, r10000) = machines(factor);
        let numa2 = MachineModel::numa2()
            .scaled_split(1.0, factor)
            .expect("valid scaled machine");
        for (mname, machine) in [("r8000", &r8000), ("r10000", &r10000), ("numa2", &numa2)] {
            let geo = BinGeometry::for_machine(machine);
            let config = geo.flat_config(kernel);
            cells.push(policy_cell(
                scale,
                kernel,
                machine,
                config,
                PaperBlockHash::from_config(&config),
            ));
            meta.push(Meta {
                kernel: kname,
                machine_name: mname,
                policy: "flat",
                blocks: vec![geo.l2_block(kernel)],
                machine: machine.clone(),
                same_as_previous: false,
            });
            let hier = geo
                .hierarchical(kernel)
                .expect("machine-derived geometry is valid");
            cells.push(policy_cell(scale, kernel, machine, config, hier));
            let hier_blocks = vec![geo.l1_block(kernel), geo.l2_block(kernel)];
            let tree_blocks = geo.level_blocks(kernel);
            let same_as_previous = tree_blocks == hier_blocks;
            meta.push(Meta {
                kernel: kname,
                machine_name: mname,
                policy: "hierarchical",
                blocks: hier_blocks,
                machine: machine.clone(),
                same_as_previous: false,
            });
            if !same_as_previous {
                let tree = geo
                    .topology_policy(kernel)
                    .expect("machine-derived ladder is valid");
                cells.push(policy_cell(scale, kernel, machine, config, tree));
            }
            meta.push(Meta {
                kernel: kname,
                machine_name: mname,
                policy: "topology",
                blocks: tree_blocks,
                machine: machine.clone(),
                same_as_previous,
            });
        }
    }
    let mut results = run_cells(cells, driver).into_iter();
    let mut previous: Option<SimReport> = None;
    let rows = meta
        .into_iter()
        .map(|m| {
            let report = if m.same_as_previous {
                previous.expect("a reused row follows the row it reuses")
            } else {
                results.next().expect("one cell per simulated row").1
            };
            previous = Some(report);
            let modeled_ns = (report.time_on(&m.machine).total() * 1e9).round() as u64;
            TopologyRow {
                workload: format!("{}.{}.{}", m.kernel, m.machine_name, m.policy),
                kernel: m.kernel.to_owned(),
                machine: m.machine_name.to_owned(),
                policy: m.policy.to_owned(),
                blocks: m.blocks,
                threads: report.threads,
                accesses: report.data_references(),
                report,
                modeled_ns,
            }
        })
        .collect();
    TopologyResult { rows }
}

/// Figure 4 data: modeled execution time on the scaled R8000 as a
/// function of the block dimension size, for the threaded version of
/// all four applications.
#[derive(Clone, Debug)]
pub struct Figure4Result {
    /// Block sizes in *full-machine-equivalent* bytes (the paper's
    /// x-axis, 64 KB … 8 MB).
    pub block_sizes: Vec<u64>,
    /// Per-application series of modeled seconds, matching
    /// `block_sizes`.
    pub series: Vec<(String, Vec<f64>)>,
}

/// Figure 4: block-size sensitivity sweep.
pub fn figure4(scale: &ExpScale) -> Figure4Result {
    let block_sizes: Vec<u64> = crate::paper::figure4::BLOCK_SIZES.to_vec();
    let mut series = Vec::new();

    let mut sweep =
        |name: &str,
         factor: f64,
         run: &mut dyn FnMut(&MachineModel, SchedulerConfig) -> SimReport| {
            let machine = MachineModel::r8000()
                .scaled_split(1.0, factor)
                .expect("valid scaled machine");
            let mut times = Vec::new();
            for &full_block in &block_sizes {
                let block = prev_power_of_two(((full_block as f64 * factor) as u64).max(64));
                let config = SchedulerConfig::builder()
                    .block_size(block)
                    .build()
                    .expect("power-of-two block");
                let report = checked(name, run(&machine, config));
                times.push(report.time_on(&machine).total());
            }
            series.push((name.to_owned(), times));
        };

    sweep("matmul", scale.matmul_factor, &mut |machine, config| {
        let mut space = AddressSpace::new();
        let mut data = matmul::MatMulData::new(&mut space, scale.matmul_n, 42);
        let mut sim = SimSink::new(machine.hierarchy());
        let report = matmul::threaded(&mut data, config, &mut sim);
        sim.add_threads(report.threads);
        sim.finish()
    });
    sweep("pde", scale.pde_factor, &mut |machine, config| {
        let mut space = AddressSpace::new();
        let mut data = pde::PdeData::new(&mut space, scale.pde_n, 7);
        let mut sim = SimSink::new(machine.hierarchy());
        let report = pde::threaded(&mut data, scale.pde_iters, config, &mut sim);
        sim.add_threads(report.threads);
        sim.finish()
    });
    sweep("sor", scale.sor_factor, &mut |machine, config| {
        let mut space = AddressSpace::new();
        let mut data = sor::SorData::new(&mut space, scale.sor_n, 99);
        let mut sim = SimSink::new(machine.hierarchy());
        let report = sor::threaded(&mut data, scale.sor_t, config, &mut sim);
        sim.add_threads(report.threads);
        sim.finish()
    });
    sweep("nbody", scale.nbody_factor, &mut |machine, config| {
        let mut space = AddressSpace::new();
        let mut data = nbody::NBodyData::new(&mut space, scale.nbody_n, 2024);
        let mut sim = SimSink::new(machine.hierarchy());
        let params = nbody::NBodyParams {
            plane_extent: 4 * (machine.l2_config().size() / 3),
            ..nbody::NBodyParams::default()
        };
        let report = nbody::threaded(&mut data, 1, params, config, &mut sim);
        sim.add_threads(report.threads);
        sim.finish()
    });

    Figure4Result {
        block_sizes,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_configs_follow_paper_rules() {
        let machine = MachineModel::r8000();
        assert_eq!(sched_config_for("matmul", &machine).block_size(0), 1 << 20);
        assert_eq!(sched_config_for("sor", &machine).block_size(0), 512 << 10);
        assert_eq!(sched_config_for("nbody", &machine).block_size(0), 512 << 10);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let _ = sched_config_for("quicksort", &MachineModel::r8000());
    }

    #[test]
    fn parallel_driver_matches_sequential_rows() {
        let scale = ExpScale::smoke();
        assert_eq!(
            table4_with(&scale, Driver::Sequential),
            table4_with(&scale, Driver::Parallel),
        );
    }

    #[test]
    fn run_cells_preserves_cell_order() {
        let cells: Vec<Cell> = (0..8)
            .map(|i| {
                let machine = MachineModel::r8000();
                Box::new(move || {
                    // Unequal work so completion order scrambles.
                    let mut sim = SimSink::new(machine.hierarchy());
                    for off in 0..(8 - i) * 500u64 {
                        use memtrace::TraceSink;
                        sim.read((off * 64).into(), 8);
                    }
                    (format!("cell{i}"), sim.finish())
                }) as Cell
            })
            .collect();
        let names: Vec<String> = run_cells(cells, Driver::Parallel)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let expect: Vec<String> = (0..8).map(|i| format!("cell{i}")).collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn table1_measures_positive_overhead() {
        let result = table1(10_000);
        assert!(result.fork_ns > 0.0);
        assert!(result.run_ns > 0.0);
        assert!(result.total_ns() < 100_000.0, "null threads cost < 100 µs");
    }

    /// A sub-smoke scale so the ablation's 36 simulated cells stay
    /// unit-test cheap.
    fn tiny_scale() -> ExpScale {
        ExpScale {
            matmul_n: 24,
            matmul_factor: 1.0 / 512.0,
            pde_n: 65,
            pde_iters: 2,
            pde_factor: 1.0 / 256.0,
            sor_n: 65,
            sor_t: 2,
            sor_tile: 8,
            sor_factor: 1.0 / 256.0,
            nbody_n: 128,
            nbody_iters: 1,
            nbody_factor: 1.0 / 256.0,
            serve_requests: 2_000,
        }
    }

    /// Regression for the hierarchical-binning no-op: every kernel ×
    /// paper-machine cell `BENCH_topology.json` measures — at every
    /// shipped scale preset — must give the hierarchical policy a
    /// sub-bin block strictly finer than its parent block. (Scaled bench
    /// machines shrink only the L2, which used to floor both blocks to
    /// the same value and made the hierarchical rows byte-identical to
    /// flat.)
    #[test]
    fn topology_cells_keep_hierarchical_levels_apart() {
        for (preset, scale) in [
            ("smoke", ExpScale::smoke()),
            ("default", ExpScale::default_scaled()),
            ("full", ExpScale::full()),
        ] {
            let kernels = [
                (Kernel::MatMul, scale.matmul_factor),
                (Kernel::Pde, scale.pde_factor),
                (Kernel::Sor, scale.sor_factor),
                (Kernel::NBody, scale.nbody_factor),
            ];
            for (kernel, factor) in kernels {
                let (r8000, r10000) = machines(factor);
                for machine in [&r8000, &r10000] {
                    let geo = BinGeometry::for_machine(machine);
                    assert!(
                        geo.l1_block(kernel) < geo.l2_block(kernel),
                        "{preset}: {kernel:?} on {}: l1_block {} !< l2_block {}",
                        machine.name(),
                        geo.l1_block(kernel),
                        geo.l2_block(kernel)
                    );
                    geo.hierarchical(kernel).expect("two-level geometry");
                }
            }
        }
    }

    #[test]
    fn topology_reports_all_cells() {
        let result = topology(&tiny_scale());
        assert_eq!(result.rows.len(), 36, "4 kernels × 3 machines × 3 policies");
        for kernel in ["matmul", "pde", "sor", "nbody"] {
            for machine in ["r8000", "r10000", "numa2"] {
                let flat = result.row(kernel, machine, "flat").expect("flat cell");
                let hier = result
                    .row(kernel, machine, "hierarchical")
                    .expect("hierarchical cell");
                let tree = result
                    .row(kernel, machine, "topology")
                    .expect("topology cell");
                assert_eq!(flat.blocks.len(), 1, "{kernel}.{machine}");
                assert_eq!(hier.blocks.len(), 2, "{kernel}.{machine}");
                assert_eq!(flat.threads, hier.threads, "{kernel}.{machine}");
                assert_eq!(flat.threads, tree.threads, "{kernel}.{machine}");
                // The access totals include traced package memory, and
                // the nested policies allocate more bin and group
                // records than flat, so they may add (but never remove)
                // references.
                assert!(hier.accesses >= flat.accesses, "{kernel}.{machine}");
                assert!(flat.report.l1.misses() > 0, "{kernel}.{machine}");
            }
            // On a two-level machine the full-tree ladder must equal
            // the two-level hierarchical ladder — the generalization
            // adds depth, never changes the depth-2 case. Equal blocks
            // build the same policy, so the topology row reuses the
            // hierarchical report by construction.
            for machine in ["r8000", "r10000"] {
                let hier = result.row(kernel, machine, "hierarchical").unwrap();
                let tree = result.row(kernel, machine, "topology").unwrap();
                assert_eq!(tree.blocks.len(), 2, "{kernel}: {machine} tree depth");
                assert_eq!(tree.blocks, hier.blocks, "{kernel}.{machine}");
            }
            // On the NUMA machine the tree has four rungs.
            let deep = result.row(kernel, "numa2", "topology").unwrap();
            assert_eq!(deep.blocks.len(), 4, "{kernel}: numa2 tree depth");
        }
        // The extra rungs must actually change scheduling somewhere:
        // on the four-level machine, flat vs full-tree binning has to
        // move misses or modeled time on at least two kernels.
        let moved = ["matmul", "pde", "sor", "nbody"]
            .iter()
            .filter(|kernel| {
                let flat = result.row(kernel, "numa2", "flat").unwrap();
                let tree = result.row(kernel, "numa2", "topology").unwrap();
                flat.report.l1.misses() != tree.report.l1.misses()
                    || flat.report.l2.misses() != tree.report.l2.misses()
                    || flat.modeled_ns != tree.modeled_ns
            })
            .count();
        assert!(
            moved >= 2,
            "full-depth binning is a no-op on {} of 4 kernels",
            4 - moved
        );
        // The hierarchical policy must actually schedule differently
        // from flat on some paper-machine cell (it was a silent no-op
        // when both levels floored to the same block size).
        assert!(
            result.rows.iter().any(|row| {
                row.policy == "hierarchical"
                    && row.machine != "numa2"
                    && result
                        .row(&row.kernel, &row.machine, "flat")
                        .is_some_and(|flat| {
                            flat.report.l1.misses() != row.report.l1.misses()
                                || flat.report.l2.misses() != row.report.l2.misses()
                        })
            }),
            "hierarchical is a no-op on every paper-machine cell"
        );
        let json = result.to_json();
        assert!(json.contains("\"experiment\":\"topology\""), "{json}");
        assert!(
            json.contains("\"workload\":\"matmul.numa2.topology\""),
            "{json}"
        );
        assert!(json.contains("\"depth\":4"), "{json}");
        assert!(
            json.contains("\"workload\":\"matmul.r10000.flat\""),
            "{json}"
        );
        assert!(
            json.contains("\"workload\":\"nbody.numa2.topology\",\"l1_miss_delta_pct\":"),
            "{json}"
        );
    }

    #[test]
    fn topology_parallel_driver_matches_sequential() {
        let scale = tiny_scale();
        let seq = topology_with(&scale, Driver::Sequential);
        let par = topology_with(&scale, Driver::Parallel);
        assert_eq!(seq.to_json(), par.to_json());
    }

    #[test]
    fn steal_ablation_reports_all_cells() {
        let result = steal_ablation(8, 4, 16, &[1, 2]);
        assert_eq!(result.threads, 32);
        assert_eq!(result.rows.len(), 6, "3 policies × 2 worker counts");
        for policy in [
            StealPolicy::None,
            StealPolicy::Random,
            StealPolicy::LocalityAware,
        ] {
            for workers in [1usize, 2] {
                let row = result.row(policy, workers).expect("cell measured");
                assert_eq!(row.report.run.threads_run, 32);
                assert_eq!(row.report.stats.workers().len(), workers);
                assert!(row.makespan_units > 0);
                assert!(row.modeled_ns > 0);
                assert!(row.threads_per_sec > 0.0);
            }
        }
        // Single-worker runs execute everything on one thread, so the
        // critical path is the whole workload regardless of policy.
        let total: u64 = (1..=8u64).map(|b| b * 16 * 4).sum();
        for policy in [
            StealPolicy::None,
            StealPolicy::Random,
            StealPolicy::LocalityAware,
        ] {
            assert_eq!(result.row(policy, 1).unwrap().makespan_units, total);
        }
        // With 2 workers and no stealing the assignment is the static
        // thread-count split, whose critical path is exactly the heavy
        // half of the triangular profile: bins 4..8 at 16 passes × 4
        // threads each. (Stealing policies' unit counts depend on OS
        // interleaving at this tiny scale, so only None is exact.)
        let none = result.row(StealPolicy::None, 2).unwrap();
        assert_eq!(none.report.stats.steals_attempted(), 0);
        assert_eq!(none.makespan_units, (5 + 6 + 7 + 8) * 16 * 4);
        for policy in [StealPolicy::Random, StealPolicy::LocalityAware] {
            let row = result.row(policy, 2).unwrap();
            assert!(row.makespan_units <= total, "critical path within total");
            assert!(row.makespan_units >= total / 2, "max is at least the mean");
        }
        let json = result.to_json();
        assert!(json.contains("\"experiment\":\"steal_ablation\""), "{json}");
        assert!(json.contains("\"per_worker\":["), "{json}");
        assert!(json.contains("\"makespan_units\":"), "{json}");
        assert!(json.contains("\"speedup_vs_none\":"), "{json}");
    }
}
