//! Cache-geometry sensitivity of the threaded scheduler's benefit —
//! a Hill & Smith-style sweep (reference \[21\] of the paper) over the
//! L2's associativity, capacity, and line size, using untiled vs
//! threaded matmul as the probe.
//!
//! Flags: `--full`, `--smoke` (problem scale, as for the tables).

use cachesim::{CacheConfig, HierarchyConfig, MachineModel, SimSink};
use locality_sched::SchedulerConfig;
use memtrace::AddressSpace;
use repro::fmt::TextTable;
use repro::scale::scale_from_args;
use workloads::matmul;

fn run(machine: &MachineModel, n: usize, threaded: bool) -> cachesim::SimReport {
    let mut space = AddressSpace::new();
    let mut data = matmul::MatMulData::new(&mut space, n, 42);
    let mut sim = SimSink::new(machine.hierarchy());
    if threaded {
        let config =
            SchedulerConfig::for_cache(machine.l2_config().size(), 2).expect("valid cache config");
        let report = matmul::threaded(&mut data, config, &mut sim);
        sim.add_threads(report.threads);
    } else {
        matmul::interchanged(&mut data, &mut sim);
    }
    repro::experiments::checked("sensitivity matmul", sim.finish())
}

fn machine_with_l2(l2: CacheConfig) -> MachineModel {
    let base = MachineModel::r8000();
    MachineModel::custom(
        format!("R8000/L2={l2}"),
        75e6,
        1.0,
        7.0,
        1060.0,
        HierarchyConfig::new(base.l1_config(), l2),
        base.thread_overhead_ns(),
    )
}

fn main() {
    let scale = scale_from_args(std::env::args().skip(1));
    let n = scale.matmul_n;
    let base_l2 = (3 * n * n * 8 / 12).next_power_of_two() as u64; // data : L2 = 12
    println!(
        "Sensitivity of threaded matmul (n = {n}) to L2 geometry; base L2 = {} KiB\n",
        base_l2 >> 10
    );

    // Associativity sweep at fixed capacity.
    println!(
        "L2 associativity (capacity {} KiB, 128 B lines):\n",
        base_l2 >> 10
    );
    let mut t = TextTable::new(vec![
        "assoc",
        "untiled misses",
        "(conflict)",
        "threaded misses",
        "(conflict)",
        "reduction",
    ]);
    for assoc in [1u32, 2, 4, 8] {
        let l2 = CacheConfig::new(base_l2, 128, assoc).expect("geometry");
        let machine = machine_with_l2(l2);
        let untiled = run(&machine, n, false);
        let threaded = run(&machine, n, true);
        t.row(vec![
            format!("{assoc}-way"),
            untiled.l2.misses().to_string(),
            untiled.classes.conflict.to_string(),
            threaded.l2.misses().to_string(),
            threaded.classes.conflict.to_string(),
            format!(
                "{:.1}x",
                untiled.l2.misses() as f64 / threaded.l2.misses().max(1) as f64
            ),
        ]);
    }
    print!("{}", t.render());

    // Line-size sweep at fixed capacity/assoc.
    println!("\nL2 line size (capacity {} KiB, 4-way):\n", base_l2 >> 10);
    let mut t = TextTable::new(vec![
        "line",
        "untiled misses",
        "threaded misses",
        "reduction",
    ]);
    for line in [32u64, 64, 128, 256] {
        let l2 = CacheConfig::new(base_l2, line, 4).expect("geometry");
        let machine = machine_with_l2(l2);
        let untiled = run(&machine, n, false);
        let threaded = run(&machine, n, true);
        t.row(vec![
            format!("{line}B"),
            untiled.l2.misses().to_string(),
            threaded.l2.misses().to_string(),
            format!(
                "{:.1}x",
                untiled.l2.misses() as f64 / threaded.l2.misses().max(1) as f64
            ),
        ]);
    }
    print!("{}", t.render());

    // Capacity sweep at fixed line/assoc: threading's benefit shrinks
    // as the cache approaches the data size.
    println!("\nL2 capacity (4-way, 128 B lines):\n");
    let mut t = TextTable::new(vec![
        "capacity",
        "data:L2",
        "untiled misses",
        "threaded misses",
        "reduction",
    ]);
    for shift in [-1i32, 0, 1, 2, 3] {
        let capacity = if shift < 0 {
            base_l2 >> (-shift)
        } else {
            base_l2 << shift
        };
        let l2 = CacheConfig::new(capacity, 128, 4).expect("geometry");
        let machine = machine_with_l2(l2);
        let untiled = run(&machine, n, false);
        let threaded = run(&machine, n, true);
        t.row(vec![
            format!("{}K", capacity >> 10),
            format!("{:.1}", (3 * n * n * 8) as f64 / capacity as f64),
            untiled.l2.misses().to_string(),
            threaded.l2.misses().to_string(),
            format!(
                "{:.1}x",
                untiled.l2.misses() as f64 / threaded.l2.misses().max(1) as f64
            ),
        ]);
    }
    print!("{}", t.render());
    println!("\nOnce the whole data set fits the L2, everyone's misses collapse to");
    println!("compulsory and scheduling stops mattering — locality scheduling is a");
    println!("capacity-miss technique, exactly as the paper frames it.");
}
