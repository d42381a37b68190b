//! `serve-zipf`: online serving of a seeded Zipf/bursty request trace
//! under the flat policy on the unscaled R8000, replayed by the host as
//! fast as it can, plus the serving ledger.

use crate::common::{
    check_sim_report, derive_seed, guard_machine, median, percentile, time, timed_setup, Checks,
    Deadline, HostRef, Op, Size,
};
use cachesim::{Cache, MachineModel, MissClassifier, SimReport, SimSink};
use locality_sched::EvictionPolicy;
use memtrace::{Access, Addr, TraceSink};
use serve::{run_serve, Request, ServeConfig, ServePolicy, ServeReport, TraceConfig, TraceGen};
use std::time::Instant;

pub struct Setup {
    pub trace: TraceConfig,
    machine: MachineModel,
    config: ServeConfig,
    cap: u64,
    pub setup_s: f64,
}

/// The serving experiment's trace shape: Zipf-hot objects of a few KiB,
/// a working set far larger than the L2 with a hot set that fits,
/// Poisson arrivals 50 µs apart in calm periods and 8× denser in bursts.
fn trace_config(seed: u64, requests: u64) -> TraceConfig {
    TraceConfig {
        seed,
        requests,
        objects: 1 << 14,
        zipf_s: 0.9,
        object_bytes: 32 << 10,
        mean_interarrival_ns: 50_000,
        burst_factor: 8,
        burst_len: 512,
        calm_len: 1536,
    }
}

pub fn setup(size: Size, seed: u64) -> Result<Setup, String> {
    let requests = match size {
        Size::Default => 100_000,
        Size::Tiny => 2_000,
    };
    let trace = trace_config(derive_seed(seed, "serve-trace"), requests);
    let ((machine, config, cap), setup_s) = timed_setup(11, || {
        let machine = MachineModel::r8000();
        guard_machine(&machine)?;
        let config = ServeConfig::default_bench();
        let EvictionPolicy::LruCap { max_records } = config.eviction else {
            return Err(format!(
                "serving eviction {} has no record cap",
                config.eviction
            ));
        };
        // Building the generator builds its Zipf table; a config it
        // cannot serve fails here rather than mid-run.
        let mut probe = TraceGen::new(trace);
        if probe.next().is_none() {
            return Err("the trace generator yields no requests".to_owned());
        }
        Ok((machine, config, max_records))
    })?;
    Ok(Setup {
        trace,
        machine,
        config,
        cap,
        setup_s,
    })
}

/// What a serving run produced that must repeat exactly at a seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub report: ServeReport,
    pub sim: SimReport,
}

/// The serving run's accounting and memory bound.
pub fn check_outcome(
    outcome: &Outcome,
    requests: u64,
    cap: u64,
    first: Option<&Outcome>,
) -> Vec<String> {
    let r = &outcome.report;
    let mut problems = check_sim_report(&outcome.sim);
    if r.offered != requests {
        problems.push(format!("offered {} of {requests} requests", r.offered));
    }
    if r.offered != r.admitted + r.rejected {
        problems.push(format!(
            "offered {} != admitted {} + rejected {}",
            r.offered, r.admitted, r.rejected
        ));
    }
    if r.admitted != r.completed + r.shed {
        problems.push(format!(
            "admitted {} != completed {} + shed {}",
            r.admitted, r.completed, r.shed
        ));
    }
    if r.peak_live_bin_records > cap {
        problems.push(format!(
            "peak_live_bin_records {} exceeds cap {cap}",
            r.peak_live_bin_records
        ));
    }
    if let Some(first) = first {
        if first != outcome {
            problems.push("outcome differs from the first run at this seed".to_owned());
        }
    }
    problems
}

/// A trace iterator that stamps the host clock at every pull, so the gap
/// between successive pulls is the host time `run_serve` spent on the
/// previous request.
struct PullTimer {
    inner: TraceGen,
    last: Option<Instant>,
    gaps_us: Vec<f64>,
}

impl Iterator for PullTimer {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.gaps_us.push((now - last).as_secs_f64() * 1e6);
        }
        self.last = Some(now);
        self.inner.next()
    }
}

fn serve_once(setup: &Setup, traced: bool) -> (Outcome, f64, Vec<f64>) {
    let generator = TraceGen::new(setup.trace);
    let (config, policy) = (&setup.config, ServePolicy::Flat);
    let (outcome, secs, gaps) = if traced {
        let mut timer = PullTimer {
            inner: generator,
            last: None,
            gaps_us: Vec::with_capacity(setup.trace.requests as usize),
        };
        let (outcome, secs) = time(|| run_serve(&mut timer, &setup.machine, config, policy));
        (outcome, secs, timer.gaps_us)
    } else {
        let (outcome, secs) = time(|| run_serve(generator, &setup.machine, config, policy));
        (outcome, secs, Vec::new())
    };
    let outcome = outcome.expect("a guarded machine carves serving bins");
    let outcome = Outcome {
        report: outcome.report,
        sim: outcome.sim,
    };
    (outcome, secs, gaps)
}

#[derive(Debug, Default)]
pub struct Phase {
    pub runs: u64,
    pub ops: Vec<Op>,
    pub first: Option<Outcome>,
    /// Host seconds and pull gaps of the first run.
    first_secs: f64,
    first_gaps_us: Vec<f64>,
}

/// Serving runs until `deadline` says stop. With `traced`, each pull of
/// the trace iterator is stamped.
pub fn timed_phase(
    setup: &Setup,
    deadline: &Deadline,
    traced: bool,
    host: &mut HostRef,
    checks: &mut Checks,
) -> Phase {
    let mut phase = Phase::default();
    while deadline.more(phase.runs) {
        let ref_secs = host.sample();
        let (outcome, secs, gaps) = serve_once(setup, traced);
        phase.runs += 1;
        phase.ops.push(Op {
            class: 0,
            work: outcome.report.offered,
            threads: outcome.report.admitted,
            secs,
            ref_secs,
        });
        let problems = check_outcome(
            &outcome,
            setup.trace.requests,
            setup.cap,
            phase.first.as_ref(),
        );
        checks.record("serve run", problems);
        if phase.first.is_none() {
            phase.first = Some(outcome);
            phase.first_secs = secs;
            phase.first_gaps_us = gaps;
        }
    }
    phase
}

/// Names and units of the serving ledger, in emission order.
const LEDGER: [(&str, &str); 23] = [
    ("serve.tracegen_s", "s"),
    ("serve.run_s", "s"),
    ("serve.sim_accesses_per_s", "1/s"),
    ("serve.host_us_per_request_p50", "us"),
    ("serve.host_us_per_request_p99", "us"),
    ("serve.host_us_per_request_samples", "count"),
    ("serve.scan_replay_s", "s"),
    ("serve.scan_classify_s", "s"),
    ("serve.l1_miss_pct", "%"),
    ("serve.l2_miss_pct", "%"),
    ("serve.scan_l1_miss_pct", "%"),
    ("serve.scan_l2_miss_pct", "%"),
    ("serve.drains", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.mean_queue_depth", "count"),
    ("serve.evictions", "count"),
    ("serve.peak_live_bin_records", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.warm_hit_pct", "%"),
    ("serve.modeled_p50_ms", "ms"),
    ("serve.modeled_p99_ms", "ms"),
    ("serve.dropped_pct", "%"),
];

pub fn ledger_names() -> Vec<(String, &'static str)> {
    LEDGER
        .iter()
        .map(|(name, unit)| ((*name).to_owned(), *unit))
        .collect()
}

/// The serving ledger, in [`ledger_names`] order: trace generation
/// alone, the first pull-timed run of a traced phase with its queue,
/// eviction and modeled-latency figures, and an arrival-order scan of
/// every payload through `SimSink` and through an isolated classifier.
pub fn ledger(setup: &Setup, traced: &Phase, checks: &mut Checks) -> Vec<f64> {
    let (count, tracegen_s) = time(|| TraceGen::new(setup.trace).map(|r| r.bytes).sum::<u64>());
    std::hint::black_box(count);
    let outcome = traced
        .first
        .as_ref()
        .expect("a timed phase runs at least once");
    let gaps = &traced.first_gaps_us;
    let r = &outcome.report;

    let l1_line = setup.machine.l1_line();
    let mut sim = SimSink::new(setup.machine.hierarchy());
    let mut l1 = Cache::new(setup.machine.l1_config());
    let mut l2 = Cache::new(setup.machine.l2_config());
    let mut classifier = MissClassifier::new(&setup.machine.l2_config());
    let (mut replay_s, mut classify_s) = (0.0, 0.0);
    let mut lines = Vec::new();
    let mut l2_outcomes = Vec::new();
    for req in TraceGen::new(setup.trace) {
        lines.clear();
        let end = req.addr.saturating_add(req.bytes);
        let mut addr = req.addr;
        while addr < end {
            lines.push(Access::read(Addr::new(addr), 8));
            addr += l1_line;
        }
        let start = Instant::now();
        sim.access_batch(&lines);
        replay_s += start.elapsed().as_secs_f64();
        l2_outcomes.clear();
        for access in &lines {
            if !l1.access_addr(access.addr, false) {
                let hit = l2.access_addr(access.addr, false);
                l2_outcomes.push((l2.line_of(access.addr), hit));
            }
        }
        let start = Instant::now();
        for &(line, hit) in &l2_outcomes {
            if hit {
                classifier.note_hit(line);
            } else {
                classifier.classify_miss(line);
            }
        }
        classify_s += start.elapsed().as_secs_f64();
    }
    let scan = sim.report();
    checks.record("serve scan", check_sim_report(&scan));

    vec![
        tracegen_s,
        traced.first_secs,
        outcome.sim.data_references() as f64 / traced.first_secs,
        median(gaps),
        percentile(gaps, 99.0),
        gaps.len() as f64,
        replay_s,
        classify_s,
        outcome.sim.l1_miss_rate_percent(),
        outcome.sim.l2_miss_rate_percent(),
        scan.l1_miss_rate_percent(),
        scan.l2_miss_rate_percent(),
        r.drains as f64,
        r.max_queue_depth as f64,
        r.mean_queue_depth_x1000 as f64 / 1000.0,
        r.evictions as f64,
        r.peak_live_bin_records as f64,
        r.shed as f64,
        r.rejected as f64,
        r.warm_hit_rate_pct(),
        r.p50_latency_ns as f64 / 1e6,
        r.p99_latency_ns as f64 / 1e6,
        100.0 * (r.rejected + r.shed) as f64 / r.offered.max(1) as f64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_reports_fail_their_checks() {
        let setup = setup(Size::Tiny, 5).expect("tiny setup builds");
        let requests = setup.trace.requests;
        let (outcome, _, _) = serve_once(&setup, false);
        assert!(check_outcome(&outcome, requests, setup.cap, Some(&outcome)).is_empty());

        let mut bad = outcome.clone();
        bad.report.shed += 1;
        assert!(!check_outcome(&bad, requests, setup.cap, None).is_empty());
        let mut bad = outcome.clone();
        bad.report.rejected += 1;
        assert!(!check_outcome(&bad, requests, setup.cap, None).is_empty());
        let mut bad = outcome.clone();
        bad.report.peak_live_bin_records = setup.cap + 1;
        assert!(!check_outcome(&bad, requests, setup.cap, None).is_empty());
        let mut bad = outcome.clone();
        bad.sim.l2.read_misses = bad.sim.l2.reads + 1;
        assert!(!check_outcome(&bad, requests, setup.cap, None).is_empty());
        let mut bad = outcome.clone();
        bad.report.warm_hits += 1;
        assert!(!check_outcome(&bad, requests, setup.cap, Some(&outcome)).is_empty());
    }

    #[test]
    fn pull_timer_sees_every_request() {
        let setup = setup(Size::Tiny, 5).expect("tiny setup builds");
        let (traced, _, gaps) = serve_once(&setup, true);
        let (untraced, _, _) = serve_once(&setup, false);
        assert_eq!(traced, untraced);
        assert_eq!(gaps.len() as u64, setup.trace.requests);
    }
}
