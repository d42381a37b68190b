//! Shared plumbing: metric collection, operation checks, order
//! statistics, the machine guard, and host-resource probes.

use cachesim::{MachineModel, SimReport};
use std::time::{Duration, Instant};

/// Problem-size preset. `Default` is the benchmark proper; `Tiny` keeps
/// every code path but finishes in well under a second per workload, for
/// the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Default,
    Tiny,
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in emission order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, ...}`. Values
    /// print in Rust's shortest round-trip form, so every digit is kept.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite `f64` as a JSON number (non-finite values print as `null`,
/// which the output check then rejects).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        let text = format!("{value}");
        if text.contains(['.', 'e']) {
            text
        } else {
            format!("{text}.0")
        }
    } else {
        "null".to_owned()
    }
}

/// Operations attempted and the checks they failed. An operation is one
/// kernel run, one fork/run round, or one serving run; it fails if any
/// of its checks fails.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one operation whose failed checks are `problems`.
    pub fn record(&mut self, op: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for problem in problems {
                eprintln!("check failed: {op}: {problem}");
            }
        }
    }

    /// Share of operations that passed every check, in percent.
    pub fn ok_pct(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            100.0 * (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Conservation laws every simulation report must satisfy: at each
/// cache level hits + misses = references with neither term negative,
/// and the 3C classes sum to the last level's misses.
pub fn check_sim_report(report: &SimReport) -> Vec<String> {
    let mut problems = Vec::new();
    let mut levels = vec![("l1", report.l1), ("l2", report.l2)];
    if let Some(l3) = report.l3 {
        levels.push(("l3", l3));
    }
    for (name, stats) in levels {
        if stats.read_misses > stats.reads || stats.write_misses > stats.writes {
            problems.push(format!(
                "{name}: misses exceed references (reads {} / read misses {}, writes {} / write \
                 misses {})",
                stats.reads, stats.read_misses, stats.writes, stats.write_misses
            ));
        } else if stats.hits() + stats.misses() != stats.references() {
            problems.push(format!("{name}: hits + misses != references"));
        }
    }
    if report.classes.total() != report.llc_misses() {
        problems.push(format!(
            "3C classes sum to {} but the last level missed {}",
            report.classes.total(),
            report.llc_misses()
        ));
    }
    problems
}

/// Fails loudly on a machine the benchmark must not measure: the L1 must
/// be strictly smaller than the L2, and the locality topology's finest
/// levels must have exactly the simulated caches' capacities.
pub fn guard_machine(machine: &MachineModel) -> Result<(), String> {
    if machine.l1_capacity() >= machine.l2_capacity() {
        return Err(format!(
            "machine {}: L1 {} B is not smaller than L2 {} B",
            machine.name(),
            machine.l1_capacity(),
            machine.l2_capacity()
        ));
    }
    let config = machine.hierarchy_config();
    let mut simulated = vec![config.l1d.size(), config.l2.size()];
    if let Some(l3) = config.l3 {
        simulated.push(l3.size());
    }
    let topology = machine.topology().capacities();
    if topology.len() < simulated.len() || topology[..simulated.len()] != simulated[..] {
        return Err(format!(
            "machine {}: topology capacities {topology:?} disagree with simulated caches \
             {simulated:?}",
            machine.name()
        ));
    }
    Ok(())
}

/// SplitMix64: one step of the generator every seeded input derives from.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for one named input, derived from the run's `--seed`.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut state = seed;
    for byte in label.bytes() {
        state = splitmix64(&mut state) ^ u64::from(byte);
    }
    splitmix64(&mut state)
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile (`pct` in 0–100); 0 when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs `build` `reps` times and returns the last result with the median
/// build time in seconds.
pub fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let built = build()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one build"), median(&times)))
}

/// One timed operation of a phase. Operations of one `class` (one
/// kernel, one policy's round, one serving run) do identical work.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub class: usize,
    pub work: u64,
    pub threads: u64,
    pub secs: f64,
    /// The host reference's duration measured just before the operation.
    pub ref_secs: f64,
}

/// Work and threads per host reference duration (see [`HostRef`]):
/// each operation's time is divided by the reference measured next to
/// it, and each class is taken at its median, so neither a stall in one
/// operation nor the host's drift between runs moves the rate, while a
/// slower program moves it in full.
pub fn rates(ops: &[Op]) -> (f64, f64) {
    let classes = ops.iter().map(|op| op.class + 1).max().unwrap_or(0);
    let (mut work, mut threads, mut refs) = (0u64, 0u64, 0.0);
    for class in 0..classes {
        let of_class: Vec<&Op> = ops.iter().filter(|op| op.class == class).collect();
        let Some(first) = of_class.first() else {
            continue;
        };
        work += first.work;
        threads += first.threads;
        refs += median(
            &of_class
                .iter()
                .map(|op| op.secs / op.ref_secs)
                .collect::<Vec<_>>(),
        );
    }
    (work as f64 / refs, threads as f64 / refs)
}

/// A fixed piece of host work that belongs to the benchmark, not to the
/// program: pseudo-random read-modify-writes over a 16 MiB table, then a
/// dependent arithmetic chain. On a shared host the speed of memory and
/// cores drifts by tens of percent over minutes; the reference's
/// duration, measured between operations, tracks that drift, and rates
/// are expressed per reference duration.
pub struct HostRef {
    table: Vec<u64>,
}

impl HostRef {
    pub fn new() -> Self {
        HostRef {
            table: vec![1; 1 << 21],
        }
    }

    /// Runs the reference once and returns its duration in seconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let (mut index, mut acc) = (1usize, 0u64);
        for _ in 0..400_000 {
            index = index
                .wrapping_mul(0x27BB_2EE6_87B0_B0FD)
                .wrapping_add(0xB504_F32D)
                & mask;
            acc = acc.wrapping_add(self.table[index]).rotate_left(7);
            self.table[index] = acc;
        }
        for i in 0..2_000_000u64 {
            acc = (acc ^ (acc >> 29))
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(i);
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// Seconds `work` took, with its result.
pub fn time<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = work();
    (out, start.elapsed().as_secs_f64())
}

/// Decides when a timed phase ends: once `budget` has elapsed and at
/// least `min_ops` operations ran.
pub struct Deadline {
    start: Instant,
    budget: Duration,
    min_ops: u64,
}

impl Deadline {
    pub fn timed(budget: Duration, min_ops: u64) -> Self {
        Deadline {
            start: Instant::now(),
            budget,
            min_ops,
        }
    }

    /// Exactly `count` operations, to repeat another phase's count.
    pub fn ops(count: u64) -> Self {
        Deadline::timed(Duration::ZERO, count)
    }

    /// Whether another operation should start after `done` completed.
    pub fn more(&self, done: u64) -> bool {
        done < self.min_ops || self.start.elapsed() < self.budget
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn rates_take_each_class_at_its_median() {
        let op = |class, work, secs| Op {
            class,
            work,
            threads: 1,
            secs: secs * 2.0,
            ref_secs: 2.0,
        };
        let ops = [
            op(0, 10, 1.0),
            op(1, 30, 2.0),
            op(0, 10, 9.0),
            op(0, 10, 1.0),
        ];
        assert_eq!(rates(&ops), (40.0 / 3.0, 2.0 / 3.0));
    }

    #[test]
    fn json_numbers_keep_a_decimal_point() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn corrupted_report_fails_conservation() {
        let stats = |reads, read_misses| cachesim::CacheStats {
            reads,
            read_misses,
            ..Default::default()
        };
        let report = SimReport {
            reads: 10,
            l1: stats(10, 4),
            l2: stats(4, 2),
            classes: cachesim::MissClassCounts {
                compulsory: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(check_sim_report(&report).is_empty());
        let mut bad = report;
        bad.classes.capacity = 1;
        assert_eq!(check_sim_report(&bad).len(), 1);
        let mut bad = report;
        bad.l2.read_misses = 5;
        assert!(!check_sim_report(&bad).is_empty());
    }

    #[test]
    fn failed_check_counts_the_operation() {
        let mut checks = Checks::default();
        checks.record("a", Vec::new());
        checks.record("b", vec!["bad".into(), "worse".into()]);
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert_eq!(checks.ok_pct(), 50.0);
    }

    #[test]
    fn guard_rejects_inverted_and_accepts_bench_machines() {
        let smoke = MachineModel::r8000()
            .scaled_split(1.0, 1.0 / 128.0)
            .unwrap();
        assert!(guard_machine(&smoke).is_err());
        let default = MachineModel::r8000().scaled_split(1.0, 1.0 / 16.0).unwrap();
        assert!(guard_machine(&default).is_ok());
        assert!(guard_machine(&MachineModel::numa2()).is_ok());
    }

    #[test]
    fn derived_seeds_differ_by_label_and_repeat() {
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
    }
}
