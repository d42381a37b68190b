//! The repository's benchmark: one command, three workloads, every
//! metric printed by name and unit, outputs checked. See `README.md`
//! in this directory for the workloads, the metrics and what each layer
//! metric should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernels-traced --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` it holds the end-to-end metrics of the named workload;
//! with `--trace 1` the per-layer ledger.

mod common;
mod forkrun;
mod kernels;
mod serving;

use common::{peak_rss_mb, rates, Checks, Deadline, HostRef, Metrics, Op, Size};
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order the benchmark declares them.
const WORKLOADS: [&str; 3] = ["kernels-traced", "sched-forkrun", "serve-zipf"];

/// Operations every timed phase runs at least, so that outcomes can be
/// compared within one invocation.
const MIN_OPS: u64 = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Default;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--size" => {
                size = match value()?.as_str() {
                    "default" => Size::Default,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes default or tiny, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        size,
    })
}

/// Setup of whichever workloads a run needs.
#[derive(Default)]
struct Setups {
    kernels: Option<kernels::Setup>,
    forkrun: Option<forkrun::Setup>,
    serving: Option<serving::Setup>,
}

impl Setups {
    fn kernels(&mut self, args: &Args) -> Result<&kernels::Setup, String> {
        if self.kernels.is_none() {
            self.kernels = Some(kernels::setup(args.size, args.seed)?);
        }
        Ok(self.kernels.as_ref().expect("just built"))
    }

    fn forkrun(&mut self, args: &Args) -> Result<&forkrun::Setup, String> {
        if self.forkrun.is_none() {
            self.forkrun = Some(forkrun::setup(args.size, args.seed)?);
        }
        Ok(self.forkrun.as_ref().expect("just built"))
    }

    fn serving(&mut self, args: &Args) -> Result<&serving::Setup, String> {
        if self.serving.is_none() {
            self.serving = Some(serving::setup(args.size, args.seed)?);
        }
        Ok(self.serving.as_ref().expect("just built"))
    }
}

/// One timed phase of the named workload (a run holds at most two).
#[allow(clippy::large_enum_variant)]
enum Phase {
    Kernels(kernels::Phase),
    Forkrun(forkrun::Phase),
    Serving(serving::Phase),
}

impl Phase {
    fn count(&self) -> u64 {
        match self {
            Phase::Kernels(p) => p.passes,
            Phase::Forkrun(p) => p.rounds,
            Phase::Serving(p) => p.runs,
        }
    }

    fn secs(&self) -> f64 {
        self.ops().iter().map(|op| op.secs).sum()
    }

    /// The timed operations. A workload's unit of work is a simulated
    /// data reference, a thread forked and run, or a request served.
    fn ops(&self) -> &[Op] {
        match self {
            Phase::Kernels(p) => &p.ops,
            Phase::Forkrun(p) => &p.ops,
            Phase::Serving(p) => &p.ops,
        }
    }
}

fn run_phase(
    args: &Args,
    setups: &mut Setups,
    deadline: &Deadline,
    traced: bool,
    host: &mut HostRef,
    checks: &mut Checks,
) -> Result<Phase, String> {
    Ok(match args.workload.as_str() {
        "kernels-traced" => Phase::Kernels(kernels::timed_phase(
            setups.kernels(args)?,
            deadline,
            host,
            checks,
        )),
        "sched-forkrun" => Phase::Forkrun(forkrun::timed_phase(
            setups.forkrun(args)?,
            deadline,
            traced,
            host,
            checks,
        )),
        _ => Phase::Serving(serving::timed_phase(
            setups.serving(args)?,
            deadline,
            traced,
            host,
            checks,
        )),
    })
}

/// The end-to-end metrics of the named workload, measured untraced.
fn end_to_end(args: &Args, checks: &mut Checks) -> Result<Metrics, String> {
    let mut setups = Setups::default();
    let mut host = HostRef::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let phase = run_phase(
        args,
        &mut setups,
        &Deadline::timed(budget, MIN_OPS),
        false,
        &mut host,
        checks,
    )?;
    let setup_s = match &phase {
        Phase::Kernels(_) => setups.kernels.as_ref().map(|s| s.setup_s),
        Phase::Forkrun(_) => setups.forkrun.as_ref().map(|s| s.setup_s),
        Phase::Serving(_) => setups.serving.as_ref().map(|s| s.setup_s),
    };
    let mut m = Metrics::default();
    m.push("setup_s", setup_s.expect("the phase built its setup"), "s");
    m.push("peak_rss_mb", peak_rss_mb()?, "MB");
    m.push("ok_ops_pct", checks.ok_pct(), "%");
    let (work_per_ref, threads_per_ref) = rates(phase.ops());
    m.push("work_per_ref", work_per_ref, "1/ref");
    m.push("threads_per_ref", threads_per_ref, "1/ref");
    Ok(m)
}

/// The per-layer ledger. The named workload's timed phase runs untraced
/// and then traced for the same number of operations, giving the
/// tracing overhead and the traced spans; then the ledger of the layers
/// this workload exercises runs. Every per-layer metric is printed; the
/// ledgers of layers another workload exercises read 0.
fn per_layer(args: &Args, checks: &mut Checks) -> Result<Metrics, String> {
    let mut setups = Setups::default();
    // Half the budget each, so that the traced run with its ledger stays
    // within a few times the untraced run's length.
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let mut host = HostRef::new();
    let untraced = run_phase(
        args,
        &mut setups,
        &Deadline::timed(budget, 1),
        false,
        &mut host,
        checks,
    )?;
    let traced = run_phase(
        args,
        &mut setups,
        &Deadline::ops(untraced.count()),
        true,
        &mut host,
        checks,
    )?;
    let overhead_pct = 100.0 * traced.secs() / untraced.secs();

    let groups = [
        kernels::ledger_names(),
        forkrun::ledger_names(),
        serving::ledger_names(),
    ];
    let mut values: Vec<Vec<f64>> = groups.iter().map(|names| vec![0.0; names.len()]).collect();
    let same = match (&untraced, &traced) {
        (Phase::Kernels(u), Phase::Kernels(t)) => {
            values[0] = kernels::ledger(setups.kernels(args)?, &u.firsts, checks);
            u.firsts == t.firsts
        }
        (Phase::Forkrun(u), Phase::Forkrun(t)) => {
            values[1] = forkrun::ledger(setups.forkrun(args)?, t, args.size, checks);
            u.first_bins() == t.first_bins()
        }
        (Phase::Serving(u), Phase::Serving(t)) => {
            values[2] = serving::ledger(setups.serving(args)?, t, checks);
            u.first == t.first
        }
        _ => unreachable!("both phases run the named workload"),
    };
    let problems = if same {
        Vec::new()
    } else {
        vec!["the traced phase's outcomes differ from the untraced phase's".to_owned()]
    };
    checks.record("traced phase", problems);

    let mut m = Metrics::default();
    for (names, values) in groups.into_iter().zip(values) {
        assert_eq!(
            names.len(),
            values.len(),
            "a ledger's names and values disagree"
        );
        for ((name, unit), value) in names.into_iter().zip(values) {
            m.push(name, value, unit);
        }
    }
    let ref_ms: Vec<f64> = untraced.ops().iter().map(|op| op.ref_secs * 1e3).collect();
    m.push("host_ref_ms", common::median(&ref_ms), "ms");
    m.push("trace_overhead_pct", overhead_pct, "%");
    Ok(m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = if args.trace {
        per_layer(&args, &mut checks)
    } else {
        end_to_end(&args, &mut checks)
    };
    let metrics = match metrics {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: setup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for metric in &metrics.0 {
        println!(
            "{:<44} {:>20} {}",
            metric.name,
            common::json_number(metric.value),
            metric.unit
        );
    }
    let finite = metrics.0.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not a finite number");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0 && finite,
        checks.attempted,
        checks.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
