//! `kernels-traced`: the paper's four threaded kernels, each traced
//! through a fast-path `SimSink` on its scaled R8000, plus the per-layer
//! ledger that splits that pipeline into trace emission, kernel, L1, L2,
//! classifier and sharded replay.

use crate::common::{
    check_sim_report, derive_seed, guard_machine, time, timed_setup, Checks, Deadline, HostRef, Op,
    Size,
};
use cachesim::{Cache, MachineModel, MissClassifier, ShardedSimSink, SimReport, SimSink};
use locality_sched::SchedulerConfig;
use memtrace::{Access, AccessKind, AddressSpace, CountingSink, NullSink, TraceSink};
use std::time::{Duration, Instant};
use workloads::{matmul, nbody, pde, sor, BinGeometry, Kernel, WorkloadReport};

/// Kernel names in run order.
pub const KERNELS: [&str; 4] = ["matmul", "pde", "sor", "nbody"];

/// Problem sizes and machine factors. `Default` keeps the paper's
/// data-set to L2 ratios (matmul 12, PDE ~48, SOR ~15, N-body as
/// `ExpScale::default_scaled()`) on one machine, the R8000 with a
/// full-size L1 and a 1/16 L2, at a size where a pass over the four
/// kernels takes a few seconds, so that a run holds several samples of
/// each kernel.
struct Sizes {
    l2_factor: f64,
    matmul: usize,
    pde: (usize, usize),
    sor: (usize, usize),
    nbody: (usize, usize),
}

impl Sizes {
    fn of(size: Size) -> Self {
        match size {
            Size::Default => Sizes {
                l2_factor: 1.0 / 16.0,
                matmul: 256,
                pde: (513, 5),
                sor: (501, 30),
                nbody: (4_000, 1),
            },
            Size::Tiny => Sizes {
                l2_factor: 1.0 / 16.0,
                matmul: 32,
                pde: (65, 2),
                sor: (65, 3),
                nbody: (300, 1),
            },
        }
    }
}

#[derive(Clone)]
enum Data {
    MatMul(matmul::MatMulData),
    Pde(pde::PdeData, usize),
    Sor(sor::SorData, usize),
    NBody(nbody::NBodyData, usize, nbody::NBodyParams),
}

/// One kernel's inputs: its machine, scheduler configuration and data.
pub struct KernelInput {
    pub name: &'static str,
    machine: MachineModel,
    config: SchedulerConfig,
    data: Data,
}

/// Builds the four kernels' inputs from `seed`. Each data set sits after
/// a seed-sized pad in its address space, so the layout against the
/// scheduler's package memory (at a fixed address) differs by seed.
pub fn build_inputs(size: Size, seed: u64) -> Result<Vec<KernelInput>, String> {
    let sizes = Sizes::of(size);
    let machine = MachineModel::r8000()
        .scaled_split(1.0, sizes.l2_factor)
        .map_err(|e| format!("scaled R8000: {e}"))?;
    guard_machine(&machine)?;
    let mut inputs = Vec::with_capacity(KERNELS.len());
    for name in KERNELS {
        let kernel = Kernel::from_name(name).expect("known kernel");
        let config = BinGeometry::for_machine(&machine).flat_config(kernel);
        let mut space = AddressSpace::new();
        space.alloc(
            (derive_seed(seed, &format!("{name}-pad")) % 4096) * 128,
            128,
        );
        let data_seed = derive_seed(seed, name);
        let data = match name {
            "matmul" => Data::MatMul(matmul::MatMulData::new(&mut space, sizes.matmul, data_seed)),
            "pde" => Data::Pde(
                pde::PdeData::new(&mut space, sizes.pde.0, data_seed),
                sizes.pde.1,
            ),
            "sor" => Data::Sor(
                sor::SorData::new(&mut space, sizes.sor.0, data_seed),
                sizes.sor.1,
            ),
            _ => {
                let params = nbody::NBodyParams {
                    // The experiments' plane: the default block (L2/3)
                    // cuts each dimension into 4.
                    plane_extent: 4 * (machine.l2_config().size() / 3),
                    ..nbody::NBodyParams::default()
                };
                Data::NBody(
                    nbody::NBodyData::new(&mut space, sizes.nbody.0, data_seed),
                    sizes.nbody.1,
                    params,
                )
            }
        };
        inputs.push(KernelInput {
            name,
            machine: machine.clone(),
            config,
            data,
        });
    }
    Ok(inputs)
}

impl KernelInput {
    /// Runs the threaded kernel on `data`, a fresh copy of the input's.
    fn run<S: TraceSink>(&self, data: &mut Data, sink: &mut S) -> WorkloadReport {
        match data {
            Data::MatMul(d) => matmul::threaded(d, self.config, sink),
            Data::Pde(d, iters) => pde::threaded(d, *iters, self.config, sink),
            Data::Sor(d, t) => sor::threaded(d, *t, self.config, sink),
            Data::NBody(d, iters, params) => nbody::threaded(d, *iters, *params, self.config, sink),
        }
    }
}

/// A kernel run's numerical answer and schedule shape, which every run
/// must reproduce bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    checksum_bits: u64,
    max_error_bits: Option<u64>,
    threads: u64,
    bins: usize,
}

impl Answer {
    fn of(report: &WorkloadReport, data: &Data) -> Self {
        Answer {
            checksum_bits: report.checksum.to_bits(),
            max_error_bits: match data {
                Data::MatMul(d) => Some(d.max_error_vs_naive().to_bits()),
                _ => None,
            },
            threads: report.threads,
            bins: report.sched.as_ref().map_or(0, |s| s.bins()),
        }
    }
}

/// What a kernel run produced that must repeat exactly at a seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    answer: Answer,
    pub sim: SimReport,
    pub modeled_s: f64,
}

/// The untraced reference: the kernel's answer with a `NullSink`.
pub fn reference(input: &KernelInput) -> Answer {
    let mut data = input.data.clone();
    let report = input.run(&mut data, &mut NullSink);
    Answer::of(&report, &data)
}

/// One pipeline run: kernel → `SimSink` → timing model. Returns the
/// outcome and the host seconds of the run (data copy and result checks
/// excluded).
pub fn run_pipeline(input: &KernelInput) -> (Outcome, f64) {
    let mut data = input.data.clone();
    let mut sim = SimSink::new(input.machine.hierarchy());
    let (report, secs) = time(|| {
        let report = input.run(&mut data, &mut sim);
        sim.add_threads(report.threads);
        report
    });
    let sim = sim.report();
    let outcome = Outcome {
        answer: Answer::of(&report, &data),
        modeled_s: sim.time_on(&input.machine).total(),
        sim,
    };
    (outcome, secs)
}

/// The checks one kernel run must pass: conservation, its answer equal
/// to the untraced reference's, and (when `first` is given) the same
/// outcome as the first run at this seed.
pub fn check_outcome(
    outcome: &Outcome,
    reference: &Answer,
    first: Option<&Outcome>,
) -> Vec<String> {
    let mut problems = check_sim_report(&outcome.sim);
    let answer = &outcome.answer;
    if answer != reference {
        problems.push(format!(
            "answer {answer:?} differs from the untraced run's {reference:?}"
        ));
    }
    if let Some(bits) = answer.max_error_bits {
        let error = f64::from_bits(bits);
        if error.is_nan() || error > 1e-9 {
            problems.push(format!("matmul max_error_vs_naive {error}"));
        }
    }
    if outcome.sim.threads != answer.threads {
        problems.push("simulated thread count differs from the scheduler's".to_owned());
    }
    if let Some(first) = first {
        if first != outcome {
            problems.push("outcome differs from the first run at this seed".to_owned());
        }
    }
    problems
}

/// Everything the workload needs before its timed phase.
pub struct Setup {
    pub inputs: Vec<KernelInput>,
    pub references: Vec<Answer>,
    pub setup_s: f64,
}

pub fn setup(size: Size, seed: u64) -> Result<Setup, String> {
    let (inputs, setup_s) = timed_setup(9, || build_inputs(size, seed))?;
    let references = inputs.iter().map(reference).collect();
    Ok(Setup {
        inputs,
        references,
        setup_s,
    })
}

/// Totals of a timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub passes: u64,
    pub ops: Vec<Op>,
    /// The first pass's outcome per kernel.
    pub firsts: Vec<Outcome>,
}

/// Runs passes over the four kernels until `deadline` says stop. The
/// kernel, its scheduler and the simulator run fused in one call, so the
/// phase has no span boundaries to add when traced.
pub fn timed_phase(
    setup: &Setup,
    deadline: &Deadline,
    host: &mut HostRef,
    checks: &mut Checks,
) -> Phase {
    let mut phase = Phase::default();
    while deadline.more(phase.passes) {
        for (i, input) in setup.inputs.iter().enumerate() {
            let ref_secs = host.sample();
            let (outcome, secs) = run_pipeline(input);
            phase.ops.push(Op {
                class: i,
                work: outcome.sim.data_references(),
                threads: outcome.answer.threads,
                secs,
                ref_secs,
            });
            let problems = check_outcome(&outcome, &setup.references[i], phase.firsts.get(i));
            checks.record(input.name, problems);
            if phase.passes == 0 {
                phase.firsts.push(outcome);
            }
        }
        phase.passes += 1;
    }
    phase
}

/// A sink that counts how the kernel delivers references and replays
/// them, chunk by chunk, through every `cachesim` layer, timing each.
struct Tap {
    buf: Vec<Access>,
    single_calls: u64,
    batch_calls: u64,
    batched: u64,
    instructions: u64,
    replay: SimSink,
    sharded: ShardedSimSink,
    l1: Cache,
    l2: Cache,
    classifier: MissClassifier,
    l1_misses: Vec<memtrace::Addr>,
    l2_outcomes: Vec<(u64, bool)>,
    iso_l1_misses: u64,
    iso_l2_misses: u64,
    replay_t: Duration,
    sharded_t: Duration,
    l1_t: Duration,
    l2_t: Duration,
    classify_t: Duration,
}

const CHUNK: usize = 1 << 16;

impl Tap {
    fn new(machine: &MachineModel) -> Self {
        Tap {
            buf: Vec::with_capacity(CHUNK),
            single_calls: 0,
            batch_calls: 0,
            batched: 0,
            instructions: 0,
            replay: SimSink::new(machine.hierarchy()),
            sharded: ShardedSimSink::new(machine.hierarchy(), 2),
            l1: Cache::new(machine.l1_config()),
            l2: Cache::new(machine.l2_config()),
            classifier: MissClassifier::new(&machine.l2_config()),
            l1_misses: Vec::with_capacity(CHUNK),
            l2_outcomes: Vec::with_capacity(CHUNK),
            iso_l1_misses: 0,
            iso_l2_misses: 0,
            replay_t: Duration::ZERO,
            sharded_t: Duration::ZERO,
            l1_t: Duration::ZERO,
            l2_t: Duration::ZERO,
            classify_t: Duration::ZERO,
        }
    }

    fn flush(&mut self) {
        let chunk = &self.buf;
        let start = Instant::now();
        self.replay.access_batch(chunk);
        let t1 = Instant::now();
        self.sharded.access_batch(chunk);
        let t2 = Instant::now();
        // Isolated replays through the public per-level entry points:
        // one line per access (line splits ignored) and no write-backs.
        self.l1_misses.clear();
        for access in chunk {
            if !self
                .l1
                .access_addr(access.addr, access.kind == AccessKind::Write)
            {
                self.l1_misses.push(access.addr);
            }
        }
        let t3 = Instant::now();
        self.l2_outcomes.clear();
        for &addr in &self.l1_misses {
            let hit = self.l2.access_addr(addr, false);
            self.l2_outcomes.push((self.l2.line_of(addr), hit));
        }
        let t4 = Instant::now();
        for &(line, hit) in &self.l2_outcomes {
            if hit {
                self.classifier.note_hit(line);
            } else {
                self.classifier.classify_miss(line);
            }
        }
        let t5 = Instant::now();
        self.replay_t += t1 - start;
        self.sharded_t += t2 - t1;
        self.l1_t += t3 - t2;
        self.l2_t += t4 - t3;
        self.classify_t += t5 - t4;
        self.iso_l1_misses += self.l1_misses.len() as u64;
        self.iso_l2_misses += self.l2_outcomes.iter().filter(|o| !o.1).count() as u64;
        self.buf.clear();
    }
}

impl TraceSink for Tap {
    fn access(&mut self, access: Access) {
        self.single_calls += 1;
        self.buf.push(access);
        if self.buf.len() >= CHUNK {
            self.flush();
        }
    }

    fn access_batch(&mut self, accesses: &[Access]) {
        self.batch_calls += 1;
        self.batched += accesses.len() as u64;
        self.buf.extend_from_slice(accesses);
        if self.buf.len() >= CHUNK {
            self.flush();
        }
    }

    fn instructions(&mut self, count: u64) {
        self.instructions += count;
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// The kernel ledger's metrics, `{k}` standing for the kernel name.
const LEDGER: [(&str, &str); 20] = [
    ("workloads.{k}.produce_s", "s"),
    ("memtrace.{k}.accesses", "count"),
    ("memtrace.{k}.batched_pct", "%"),
    ("memtrace.{k}.accesses_per_batch", "count"),
    ("cachesim.{k}.replay_s", "s"),
    ("cachesim.{k}.l1_s", "s"),
    ("cachesim.{k}.l2_s", "s"),
    ("cachesim.{k}.classify_s", "s"),
    ("cachesim.{k}.l1_miss_pct", "%"),
    ("cachesim.{k}.l2_miss_pct", "%"),
    ("cachesim.{k}.iso_l1_miss_pct", "%"),
    ("cachesim.{k}.iso_l2_miss_pct", "%"),
    ("cachesim.{k}.compulsory", "count"),
    ("cachesim.{k}.capacity", "count"),
    ("cachesim.{k}.conflict", "count"),
    ("cachesim.{k}.modeled_s", "s"),
    ("cachesim.{k}.sharded_replay_s", "s"),
    ("cachesim.{k}.shard_speedup", "x"),
    ("core.{k}.threads", "count"),
    ("core.{k}.bins", "count"),
];

/// Names and units of the kernel ledger, in emission order.
pub fn ledger_names() -> Vec<(String, &'static str)> {
    KERNELS
        .iter()
        .flat_map(|k| {
            LEDGER
                .iter()
                .map(move |(name, unit)| (name.replace("{k}", k), *unit))
        })
        .collect()
}

/// The kernel ledger, in [`ledger_names`] order. For each kernel: a run
/// into `CountingSink` (trace emission, kernel and scheduler without a
/// simulator), then a run whose references are replayed chunk by chunk
/// through `SimSink::access_batch`, a two-shard `ShardedSimSink`, and
/// isolated L1, L2 and classifier passes. `pipeline` holds each kernel's
/// outcome from the timed phase at this seed, which the replay must
/// reproduce.
pub fn ledger(setup: &Setup, pipeline: &[Outcome], checks: &mut Checks) -> Vec<f64> {
    let mut values = Vec::with_capacity(KERNELS.len() * LEDGER.len());
    for (input, direct) in setup.inputs.iter().zip(pipeline) {
        let mut counting = CountingSink::new();
        let mut data = input.data.clone();
        let (report, produce_s) = time(|| input.run(&mut data, &mut counting));
        let sched = report.sched.clone().unwrap_or_default();

        let mut tap = Tap::new(&input.machine);
        let mut data = input.data.clone();
        let report = input.run(&mut data, &mut tap);
        tap.flush();
        tap.replay.instructions(tap.instructions);
        tap.replay.add_threads(report.threads);
        tap.sharded.instructions(tap.instructions);
        tap.sharded.add_threads(report.threads);
        let start = Instant::now();
        let sharded = tap.sharded.report();
        tap.sharded_t += start.elapsed();
        let replay = tap.replay.report();

        let mut problems = check_sim_report(&replay);
        if replay != direct.sim {
            problems.push("replayed report differs from the pipeline report".to_owned());
        }
        if sharded != replay {
            problems.push("sharded report differs from the serial replay".to_owned());
        }
        checks.record(&format!("{} ledger", input.name), problems);

        let accesses = tap.single_calls + tap.batched;
        let replay_s = tap.replay_t.as_secs_f64();
        let sharded_s = tap.sharded_t.as_secs_f64();
        let per_batch = if tap.batch_calls == 0 {
            0.0
        } else {
            tap.batched as f64 / tap.batch_calls as f64
        };
        values.extend([
            produce_s,
            accesses as f64,
            pct(tap.batched, accesses),
            per_batch,
            replay_s,
            tap.l1_t.as_secs_f64(),
            tap.l2_t.as_secs_f64(),
            tap.classify_t.as_secs_f64(),
            replay.l1_miss_rate_percent(),
            replay.l2_miss_rate_percent(),
            pct(tap.iso_l1_misses, accesses),
            pct(tap.iso_l2_misses, tap.iso_l1_misses),
            replay.classes.compulsory as f64,
            replay.classes.capacity as f64,
            replay.classes.conflict as f64,
            direct.modeled_s,
            sharded_s,
            replay_s / sharded_s,
            sched.threads() as f64,
            sched.bins() as f64,
        ]);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_outcomes_fail_their_checks() {
        let inputs = build_inputs(Size::Tiny, 7).expect("tiny inputs build");
        let matmul = &inputs[0];
        let reference = reference(matmul);
        let (outcome, _) = run_pipeline(matmul);
        assert!(check_outcome(&outcome, &reference, Some(&outcome)).is_empty());

        let mut bad = outcome.clone();
        bad.sim.classes.conflict += 1;
        assert!(!check_outcome(&bad, &reference, None).is_empty());
        let mut bad = outcome.clone();
        bad.answer.checksum_bits ^= 1;
        assert!(!check_outcome(&bad, &reference, None).is_empty());
        let mut bad = outcome.clone();
        bad.answer.max_error_bits = Some(1.0f64.to_bits());
        assert!(!check_outcome(&bad, &reference, None).is_empty());
        let mut bad = outcome.clone();
        bad.modeled_s += 1e-9;
        assert!(!check_outcome(&bad, &reference, Some(&outcome)).is_empty());
    }

    #[test]
    fn layout_and_results_follow_the_seed() {
        let a = build_inputs(Size::Tiny, 1).unwrap();
        let b = build_inputs(Size::Tiny, 1).unwrap();
        let c = build_inputs(Size::Tiny, 2).unwrap();
        let nbody = |inputs: &[KernelInput]| run_pipeline(&inputs[3]).0;
        assert_eq!(nbody(&a), nbody(&b));
        assert_ne!(nbody(&a), nbody(&c));
    }
}
