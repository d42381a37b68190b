//! `sched-forkrun`: the paper's Table 1 measurement. Rounds fork a batch
//! of null threads with seeded 2-D address hints and `run` them, with no
//! trace sink, alternating the paper's flat block hash and a topology
//! ladder over a four-level NUMA machine.

use crate::common::{
    derive_seed, guard_machine, median, percentile, splitmix64, timed_setup, Checks, Deadline,
    HostRef, Op, Size,
};
use cachesim::MachineModel;
use locality_sched::{
    BinPolicy, Hints, PaperBlockHash, ParScheduler, RunMode, Scheduler, SchedulerConfig,
    StealPolicy, TopologyPolicy,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workloads::{BinGeometry, Kernel};

/// Hint span per dimension, in multiples of the capacity of the cache
/// level a policy's finest block is sized for: the paper's matmul
/// data-set to L2 ratio. Both policies then allocate 24 × 24 finest bins.
const SPAN_MULTIPLE: u64 = 12;

/// The two binning policies the rounds alternate between.
pub const POLICIES: [&str; 2] = ["flat", "topology"];

/// One policy's batch: its scheduler configuration, policy and hints.
struct Batch<P> {
    config: SchedulerConfig,
    policy: P,
    hints: Vec<(u64, u64)>,
}

pub struct Setup {
    flat: Batch<PaperBlockHash>,
    topology: Batch<TopologyPolicy>,
    pub setup_s: f64,
}

fn hints(seed: u64, count: usize, span: u64) -> Vec<(u64, u64)> {
    let mut state = seed;
    (0..count)
        .map(|_| (splitmix64(&mut state) % span, splitmix64(&mut state) % span))
        .collect()
}

fn build(size: Size, seed: u64) -> Result<Setup, String> {
    // A batch whose hints and thread records fit a 2 MB host L2, so a
    // round measures the package rather than contention for a shared
    // last-level cache.
    let threads = match size {
        Size::Default => 25_000,
        Size::Tiny => 2_000,
    };
    let r8000 = MachineModel::r8000();
    let numa2 = MachineModel::numa2();
    guard_machine(&r8000)?;
    guard_machine(&numa2)?;
    let flat_config = SchedulerConfig::builder()
        .block_size(r8000.l2_capacity() / 2)
        .build()
        .map_err(|e| e.to_string())?;
    let topology = BinGeometry::for_machine(&numa2)
        .topology_policy(Kernel::MatMul)
        .map_err(|e| e.to_string())?;
    if topology.depth() != 4 {
        return Err(format!(
            "numa2 ladder has depth {}, expected 4",
            topology.depth()
        ));
    }
    Ok(Setup {
        flat: Batch {
            config: flat_config,
            policy: PaperBlockHash::from_config(&flat_config),
            hints: hints(
                derive_seed(seed, "flat-hints"),
                threads,
                SPAN_MULTIPLE * r8000.l2_capacity(),
            ),
        },
        topology: Batch {
            config: SchedulerConfig::default(),
            policy: topology,
            hints: hints(
                derive_seed(seed, "topology-hints"),
                threads,
                SPAN_MULTIPLE * numa2.l1_capacity(),
            ),
        },
        setup_s: 0.0,
    })
}

pub fn setup(size: Size, seed: u64) -> Result<Setup, String> {
    let (mut setup, setup_s) = timed_setup(11, || build(size, seed))?;
    setup.setup_s = setup_s;
    Ok(setup)
}

/// What every thread body adds to: a run count and an argument sum, so
/// a thread that ran twice or never shows.
#[derive(Default)]
struct Tally {
    count: u64,
    sum: u64,
}

fn tally(ctx: &mut Tally, arg: usize, _: usize) {
    ctx.count += 1;
    ctx.sum = ctx.sum.wrapping_add(arg as u64);
}

#[derive(Default)]
struct AtomicTally {
    count: AtomicU64,
    sum: AtomicU64,
}

fn atomic_tally(ctx: &AtomicTally, arg: usize, _: usize) {
    ctx.count.fetch_add(1, Ordering::Relaxed);
    ctx.sum.fetch_add(arg as u64, Ordering::Relaxed);
}

fn expected_sum(threads: usize) -> u64 {
    let n = threads as u64;
    n * n.saturating_sub(1) / 2
}

fn tally_problems(
    count: u64,
    sum: u64,
    threads: usize,
    threads_run: u64,
    pending: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    if count != threads as u64 || threads_run != threads as u64 {
        problems.push(format!(
            "{threads} threads forked, {count} bodies ran, run reported {threads_run}"
        ));
    }
    if sum != expected_sum(threads) {
        problems.push(format!(
            "argument checksum {sum}, expected {}",
            expected_sum(threads)
        ));
    }
    if pending != 0 {
        problems.push(format!("{pending} threads still pending after run"));
    }
    problems
}

/// One round's host times and bin count.
struct Round {
    fork_s: f64,
    run_s: f64,
    bins: usize,
}

/// One fork/run round. `traced` adds a span boundary between the fork
/// loop and the run; untraced rounds are timed as a whole and report
/// the whole round as run time.
fn round<P: BinPolicy>(
    sched: &mut Scheduler<Tally, P>,
    batch: &Batch<P>,
    name: &str,
    traced: bool,
    checks: &mut Checks,
) -> Round {
    let start = Instant::now();
    for (i, &(h1, h2)) in batch.hints.iter().enumerate() {
        sched.fork(tally, i, 0, Hints::two(h1.into(), h2.into()));
    }
    let forked = if traced { Instant::now() } else { start };
    let bins = sched.bins();
    let mut ctx = Tally::default();
    let stats = sched.run(&mut ctx, RunMode::Consume);
    let end = Instant::now();
    let problems = tally_problems(
        ctx.count,
        ctx.sum,
        batch.hints.len(),
        stats.threads_run,
        sched.pending(),
    );
    checks.record(&format!("{name} round"), problems);
    Round {
        fork_s: (forked - start).as_secs_f64(),
        run_s: (end - forked).as_secs_f64(),
        bins,
    }
}

/// Per-policy rounds of a phase.
#[derive(Default)]
pub struct Phase {
    pub rounds: u64,
    pub ops: Vec<Op>,
    per_policy: [Vec<(f64, f64)>; 2],
    bins: [Vec<usize>; 2],
}

impl Phase {
    /// Each policy's bin count in its first round.
    pub fn first_bins(&self) -> [Option<usize>; 2] {
        [self.bins[0].first().copied(), self.bins[1].first().copied()]
    }
}

/// Rounds between two samples of the host reference (~0.1 s of rounds).
const ROUNDS_PER_REF: u64 = 64;

/// Alternates flat and topology rounds until `deadline` says stop.
pub fn timed_phase(
    setup: &Setup,
    deadline: &Deadline,
    traced: bool,
    host: &mut HostRef,
    checks: &mut Checks,
) -> Phase {
    let mut phase = Phase::default();
    // One scheduler per policy for the whole phase, as a program keeps
    // its thread package across fork/run phases.
    let mut flat = Scheduler::with_policy(setup.flat.config, setup.flat.policy);
    let mut topology = Scheduler::with_policy(setup.topology.config, setup.topology.policy);
    let mut ref_secs = 0.0;
    while deadline.more(phase.rounds) {
        if phase.rounds % ROUNDS_PER_REF == 0 {
            ref_secs = host.sample();
        }
        let which = (phase.rounds % 2) as usize;
        let r = if which == 0 {
            round(&mut flat, &setup.flat, POLICIES[0], traced, checks)
        } else {
            round(&mut topology, &setup.topology, POLICIES[1], traced, checks)
        };
        let threads = if which == 0 {
            setup.flat.hints.len()
        } else {
            setup.topology.hints.len()
        };
        phase.rounds += 1;
        phase.ops.push(Op {
            class: which,
            work: threads as u64,
            threads: threads as u64,
            secs: r.fork_s + r.run_s,
            ref_secs,
        });
        phase.per_policy[which].push((r.fork_s, r.run_s));
        phase.bins[which].push(r.bins);
    }
    // Bins are a pure function of the seeded hints.
    for (which, bins) in phase.bins.iter().enumerate() {
        if bins.windows(2).any(|w| w[0] != w[1]) {
            checks.record(
                POLICIES[which],
                vec![format!("bin count varies across rounds: {bins:?}")],
            );
        }
    }
    phase
}

/// The core ledger's metrics, `{p}` standing for the policy name.
const LEDGER: [(&str, &str); 5] = [
    ("core.{p}.fork_ns_per_thread", "ns"),
    ("core.{p}.run_ns_per_thread", "ns"),
    ("core.{p}.round_ms_p50", "ms"),
    ("core.{p}.round_ms_p90", "ms"),
    ("core.{p}.bins", "count"),
];

/// Names and units of the core ledger, in emission order.
pub fn ledger_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = POLICIES
        .iter()
        .flat_map(|p| {
            LEDGER
                .iter()
                .map(move |(name, unit)| (name.replace("{p}", p), *unit))
        })
        .collect();
    names.push(("core.par2.threads_per_s".to_owned(), "1/s"));
    names.push(("core.par2.steals".to_owned(), "count"));
    names
}

/// The core ledger, in [`ledger_names`] order: per-policy fork and run
/// cost and round-time percentiles from a traced phase, then rounds of
/// the flat batch on a two-worker `ParScheduler` with locality-aware
/// stealing.
pub fn ledger(setup: &Setup, traced: &Phase, size: Size, checks: &mut Checks) -> Vec<f64> {
    let mut values = Vec::new();
    for which in 0..POLICIES.len() {
        let rounds = &traced.per_policy[which];
        let threads = if which == 0 {
            setup.flat.hints.len()
        } else {
            setup.topology.hints.len()
        };
        let total = (rounds.len() * threads).max(1) as f64;
        let fork: f64 = rounds.iter().map(|r| r.0).sum();
        let run: f64 = rounds.iter().map(|r| r.1).sum();
        let round_ms: Vec<f64> = rounds.iter().map(|r| (r.0 + r.1) * 1e3).collect();
        values.extend([
            fork * 1e9 / total,
            run * 1e9 / total,
            median(&round_ms),
            percentile(&round_ms, 90.0),
            traced.bins[which].first().copied().unwrap_or(0) as f64,
        ]);
    }

    let par_rounds = match size {
        Size::Default => 10,
        Size::Tiny => 2,
    };
    let config = SchedulerConfig::builder()
        .block_size(setup.flat.config.block_size(0))
        .steal_policy(StealPolicy::LocalityAware)
        .build()
        .expect("the flat block size is a valid configuration");
    let threads = setup.flat.hints.len();
    let mut secs = 0.0;
    let mut steals = Vec::with_capacity(par_rounds);
    for _ in 0..par_rounds {
        let mut sched: ParScheduler<AtomicTally> = ParScheduler::new(config);
        let ctx = AtomicTally::default();
        let start = Instant::now();
        for (i, &(h1, h2)) in setup.flat.hints.iter().enumerate() {
            sched.fork(atomic_tally, i, 0, Hints::two(h1.into(), h2.into()));
        }
        let report = sched.run_report(&ctx, 2);
        secs += start.elapsed().as_secs_f64();
        steals.push(report.stats.steals_succeeded() as f64);
        let problems = tally_problems(
            ctx.count.load(Ordering::Relaxed),
            ctx.sum.load(Ordering::Relaxed),
            threads,
            report.run.threads_run,
            sched.pending(),
        );
        checks.record("par2 round", problems);
    }
    values.push((par_rounds * threads) as f64 / secs);
    values.push(median(&steals));
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_catches_lost_and_repeated_threads() {
        assert!(tally_problems(4, 6, 4, 4, 0).is_empty());
        assert!(!tally_problems(3, 3, 4, 4, 0).is_empty());
        assert!(!tally_problems(4, 7, 4, 4, 0).is_empty());
        assert!(!tally_problems(4, 6, 4, 3, 0).is_empty());
        assert!(!tally_problems(4, 6, 4, 4, 1).is_empty());
    }

    #[test]
    fn rounds_pass_and_bins_follow_the_seed() {
        let setup = setup(Size::Tiny, 9).expect("tiny setup builds");
        let mut checks = Checks::default();
        let phase = timed_phase(
            &setup,
            &Deadline::ops(4),
            true,
            &mut HostRef::new(),
            &mut checks,
        );
        assert_eq!((checks.attempted, checks.failed), (4, 0));
        assert_eq!(phase.bins[0][0], phase.bins[0][1]);
        assert_eq!(
            ledger_names().len(),
            ledger(&setup, &phase, Size::Tiny, &mut checks).len()
        );
    }
}
