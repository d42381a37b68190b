//! `simbench`: throughput benchmark of the fast-path simulation
//! pipeline, with a built-in differential check.
//!
//! For each workload the sequential baseline version runs twice — once
//! with the hierarchy's fast lookup paths disabled (the original,
//! exhaustive code path) and once enabled — and the two [`SimReport`]s
//! are asserted *equal on every field* before any timing is reported.
//! The benchmark therefore doubles as the differential suite's
//! release-mode leg: a fast path that drifts from the reference by a
//! single counter aborts the run instead of publishing numbers.
//!
//! A third cell times the *sharded* pipeline: the workload's trace is
//! captured once (setup, untimed), then replayed through a
//! [`ShardedSimSink`] — partition, compact per-shard queues, private
//! per-shard hierarchies, deterministic merge — and that report too
//! must be bit-identical before its throughput is published. The
//! sharded time is replay-only (trace *generation* is excluded, since a
//! production sharded run would capture once and drain continuously),
//! so `sharded_accesses_per_sec` measures the simulation engine, not
//! the traced workload; `slow`/`fast` times keep the original
//! generate-and-simulate definition for baseline continuity.

use crate::experiments::{drive, machines};
use crate::ExpScale;
use cachesim::{MachineModel, ShardedSimSink, SimReport, SimSink};
use memtrace::{Access, AddressSpace, TraceSink};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{matmul, nbody, pde, sor};

/// Shard count the benchmark's sharded cell uses by default.
pub const DEFAULT_SHARDS: u32 = 4;

/// Captures a workload's reference stream for later replay: the
/// accesses verbatim plus the analytic instruction count.
#[derive(Default)]
struct CaptureSink {
    accesses: Vec<Access>,
    instructions: u64,
}

impl TraceSink for CaptureSink {
    fn access(&mut self, access: Access) {
        self.accesses.push(access);
    }

    fn access_batch(&mut self, accesses: &[Access]) {
        self.accesses.extend_from_slice(accesses);
    }

    fn instructions(&mut self, count: u64) {
        self.instructions += count;
    }
}

/// Before/after measurement of one workload's trace simulation.
#[derive(Clone, Debug)]
pub struct SimBenchRow {
    /// Workload name (`matmul`, `pde`, `sor`, `nbody`).
    pub workload: String,
    /// Trace accesses per run (reads + writes, identical all ways).
    pub accesses: u64,
    /// Best wall time with the fast paths disabled (nanoseconds).
    pub slow_ns: u64,
    /// Best wall time with the fast paths enabled (nanoseconds).
    pub fast_ns: u64,
    /// Shards the sharded replay cell used (effective count).
    pub shards: u32,
    /// Best wall time replaying the captured trace through the sharded
    /// pipeline (nanoseconds).
    pub sharded_ns: u64,
}

impl SimBenchRow {
    /// Accesses simulated per second with the fast paths disabled.
    pub fn slow_accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / (self.slow_ns as f64 / 1e9)
    }

    /// Accesses simulated per second with the fast paths enabled.
    pub fn fast_accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / (self.fast_ns as f64 / 1e9)
    }

    /// Accesses simulated per second by the sharded replay.
    pub fn sharded_accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / (self.sharded_ns as f64 / 1e9)
    }

    /// Throughput ratio, fast over slow.
    pub fn speedup(&self) -> f64 {
        self.slow_ns as f64 / self.fast_ns as f64
    }

    /// Throughput ratio, sharded replay over slow (the same
    /// denominator convention as [`speedup`](Self::speedup)).
    pub fn sharded_speedup(&self) -> f64 {
        self.slow_ns as f64 / self.sharded_ns as f64
    }

    /// Row identity label: workload plus the shard count its sharded
    /// cell ran at, so baselines from different shard configurations
    /// never silently compare against each other.
    pub fn label(&self) -> String {
        format!("{}@s{}", self.workload, self.shards)
    }
}

/// All four workloads' before/after rows (`BENCH_sim.json` payload).
#[derive(Clone, Debug)]
pub struct SimBenchResult {
    /// Repetitions per (workload, path) cell; best time is kept.
    pub reps: u32,
    /// One row per workload.
    pub rows: Vec<SimBenchRow>,
    /// Probe observations of each workload's fast run (sections
    /// namespaced `"<workload>.<layer>"`) and sharded replay
    /// (`"<workload>.sharding"`, `"<workload>.shard<i>.<layer>"`) plus
    /// the experiment driver's section; empty when the probe layer is
    /// compiled out.
    pub profile: probe::RunProfile,
}

impl SimBenchResult {
    /// Serializes the result as one JSON object.
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\"experiment\":\"simbench\",\"reps\":{},\"rows\":[",
            self.reps
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            write!(
                json,
                "{{\"workload\":\"{}\",\"accesses\":{},\"shards\":{},\
                 \"slow_ns\":{},\"fast_ns\":{},\"sharded_ns\":{},\
                 \"slow_accesses_per_sec\":{:.1},\"fast_accesses_per_sec\":{:.1},\
                 \"sharded_accesses_per_sec\":{:.1},\
                 \"speedup\":{:.3},\"sharded_speedup\":{:.3}}}",
                row.label(),
                row.accesses,
                row.shards,
                row.slow_ns,
                row.fast_ns,
                row.sharded_ns,
                row.slow_accesses_per_sec(),
                row.fast_accesses_per_sec(),
                row.sharded_accesses_per_sec(),
                row.speedup(),
                row.sharded_speedup(),
            )
            .expect("writing to String cannot fail");
        }
        json.push(']');
        if probe::enabled() && !self.profile.is_empty() {
            write!(json, ",\"run_profile\":{}", self.profile.to_json())
                .expect("writing to String cannot fail");
        }
        json.push('}');
        json
    }
}

/// Times one workload three ways — slow, fast, sharded replay — best of
/// `reps`, asserting all reports identical before returning the row
/// plus the merged probe profile (the fast run's per-level counters and
/// the sharded run's partition/per-shard sections).
fn bench<D>(
    name: &str,
    machine: &MachineModel,
    reps: u32,
    shards: u32,
    make: impl Fn(&mut AddressSpace) -> D,
    run: impl Fn(&mut D, &mut AddressSpace, &mut dyn TraceSink),
) -> (SimBenchRow, probe::RunProfile) {
    let time = |fast: bool| -> (SimReport, u64, probe::RunProfile) {
        let mut best = u64::MAX;
        let mut report: Option<SimReport> = None;
        let mut profile = probe::RunProfile::new();
        for _ in 0..reps.max(1) {
            let mut space = AddressSpace::new();
            let mut data = make(&mut space);
            let mut sim = SimSink::new(machine.hierarchy());
            sim.set_fast_path(fast);
            let elapsed = drive(|| {
                let start = Instant::now();
                run(&mut data, &mut space, &mut sim);
                start.elapsed()
            });
            best = best.min((elapsed.as_nanos() as u64).max(1));
            // Capture probes before finish() consumes the sink; any
            // repetition works — the trace is deterministic.
            profile = sim.run_profile();
            let this = sim.finish();
            if let Some(prev) = &report {
                assert_eq!(prev, &this, "{name}: repetition not deterministic");
            }
            report = Some(this);
        }
        (report.expect("at least one repetition"), best, profile)
    };
    let (slow_report, slow_ns, _) = time(false);
    let (fast_report, fast_ns, mut profile) = time(true);
    assert_eq!(
        slow_report, fast_report,
        "{name}: fast path diverged from the exhaustive reference"
    );
    let fast_report = crate::experiments::checked(name, fast_report);

    // Sharded replay cell. Trace capture is setup, not measurement: run
    // the workload once into a buffer, then time draining that buffer
    // through the sharded pipeline.
    let mut capture = CaptureSink::default();
    {
        let mut space = AddressSpace::new();
        let mut data = make(&mut space);
        run(&mut data, &mut space, &mut capture);
    }
    let mut sharded_best = u64::MAX;
    let mut sharded_profile = probe::RunProfile::new();
    let mut effective_shards = shards;
    for _ in 0..reps.max(1) {
        let mut sim = ShardedSimSink::new(machine.hierarchy(), shards);
        effective_shards = sim.plan().shards();
        let elapsed = drive(|| {
            let start = Instant::now();
            for chunk in capture.accesses.chunks(8192) {
                sim.access_batch(chunk);
            }
            sim.instructions(capture.instructions);
            let report = sim.report();
            (start.elapsed(), report)
        });
        sharded_best = sharded_best.min((elapsed.0.as_nanos() as u64).max(1));
        assert_eq!(
            elapsed.1, fast_report,
            "{name}: sharded replay diverged from the unsharded reference"
        );
        sharded_profile = sim.run_profile();
    }
    for section in sharded_profile.into_sections() {
        // Keep the partition/queue stats and per-shard hierarchies;
        // the unsharded per-level sections are already in `profile`.
        if section.name() == "sharding" || section.name().starts_with("shard") {
            profile.push(section);
        }
    }

    let row = SimBenchRow {
        workload: name.to_owned(),
        accesses: slow_report.reads + slow_report.writes,
        slow_ns,
        fast_ns,
        shards: effective_shards,
        sharded_ns: sharded_best,
    };
    (row, profile)
}

/// Runs the benchmark: each workload's sequential baseline version on
/// its table's scaled R8000 — fast vs slow vs sharded replay, best of
/// `reps`.
pub fn simbench(scale: &ExpScale, reps: u32, shards: u32) -> SimBenchResult {
    let mut rows = Vec::new();
    let mut profile = probe::RunProfile::new();
    // Namespaces one workload's sections into the merged profile
    // (`"l1"` → `"matmul.l1"`) and keeps its row.
    fn keep(
        rows: &mut Vec<SimBenchRow>,
        profile: &mut probe::RunProfile,
        (row, run_profile): (SimBenchRow, probe::RunProfile),
    ) {
        for section in run_profile.into_sections() {
            let name = format!("{}.{}", row.workload, section.name());
            profile.push(section.renamed(name));
        }
        rows.push(row);
    }
    let n = scale.matmul_n;
    keep(
        &mut rows,
        &mut profile,
        bench(
            "matmul",
            &machines(scale.matmul_factor).0,
            reps,
            shards,
            |space| matmul::MatMulData::new(space, n, 42),
            |data, _sp, mut sim| {
                matmul::interchanged(data, &mut sim);
            },
        ),
    );
    let (pn, iters) = (scale.pde_n, scale.pde_iters);
    keep(
        &mut rows,
        &mut profile,
        bench(
            "pde",
            &machines(scale.pde_factor).0,
            reps,
            shards,
            |space| pde::PdeData::new(space, pn, 7),
            |data, _sp, mut sim| {
                pde::regular(data, iters, &mut sim);
            },
        ),
    );
    let (sn, t) = (scale.sor_n, scale.sor_t);
    keep(
        &mut rows,
        &mut profile,
        bench(
            "sor",
            &machines(scale.sor_factor).0,
            reps,
            shards,
            |space| sor::SorData::new(space, sn, 99),
            |data, _sp, mut sim| {
                sor::untiled(data, t, &mut sim);
            },
        ),
    );
    let bn = scale.nbody_n;
    let nbody_machine = machines(scale.nbody_factor).0;
    let params = nbody::NBodyParams {
        plane_extent: 4 * (nbody_machine.l2_config().size() / 3),
        ..nbody::NBodyParams::default()
    };
    keep(
        &mut rows,
        &mut profile,
        bench(
            "nbody",
            &nbody_machine,
            reps,
            shards,
            |space| nbody::NBodyData::new(space, bn, 2024),
            |data, _sp, mut sim| {
                nbody::unthreaded(data, 1, params, &mut sim);
            },
        ),
    );
    profile.push(crate::experiments::driver_profile());
    SimBenchResult {
        reps,
        rows,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simbench_smoke_checks_identity_and_reports_json() {
        let result = simbench(&ExpScale::smoke(), 1, DEFAULT_SHARDS);
        assert_eq!(result.rows.len(), 4);
        for row in &result.rows {
            assert!(row.accesses > 0, "{}", row.workload);
            assert!(row.speedup() > 0.0);
            assert!(row.fast_accesses_per_sec() > 0.0);
            assert!(row.sharded_speedup() > 0.0);
            assert_eq!(row.shards, DEFAULT_SHARDS, "{}", row.workload);
            assert_eq!(row.label(), format!("{}@s4", row.workload));
        }
        let json = result.to_json();
        assert!(json.contains("\"experiment\":\"simbench\""), "{json}");
        assert!(json.contains("\"workload\":\"nbody@s4\""), "{json}");
        assert!(json.contains("\"speedup\":"), "{json}");
        assert!(json.contains("\"sharded_speedup\":"), "{json}");
        assert!(json.contains("\"shards\":4"), "{json}");
        if probe::enabled() {
            assert!(json.contains("\"run_profile\":"), "{json}");
            assert!(json.contains("\"matmul.l1\":"), "{json}");
            assert!(json.contains("\"nbody.classifier\":"), "{json}");
            assert!(json.contains("\"matmul.sharding\":"), "{json}");
            assert!(json.contains("\"sor.shard0.l1\":"), "{json}");
            // The driver cell counter must reflect the benchmark's
            // timed runs — 4 workloads × (slow + fast + sharded) — not
            // the zero it silently published before the runs were
            // routed through the driver's accounting.
            let driver = json
                .split("\"driver\":{\"cells\":")
                .nth(1)
                .expect("driver section present");
            let cells: u64 = driver
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
                .expect("cells count");
            assert!(cells >= 12, "driver cells = {cells}");
        } else {
            assert!(!json.contains("run_profile"), "{json}");
        }
    }
}
