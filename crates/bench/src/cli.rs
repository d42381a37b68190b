//! Shared command-line driver for the `repro` binaries.

use crate::scale::scale_from_args;
use crate::{paper, print};

/// Every experiment name [`run_at`] knows, in the order [`all`] runs the
/// ones it includes.
pub const EXPERIMENTS: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "figure4",
    "steal",
    "simbench",
    "topology",
    "servebench",
    "servelong",
    "analyze",
];

/// The experiments `all` (or no name at all) runs: every one but the
/// long-run `servelong` gate and `analyze` (which `--analyze` adds).
pub fn all() -> Vec<String> {
    EXPERIMENTS
        .iter()
        .filter(|&&name| name != "servelong" && name != "analyze")
        .map(|&name| name.to_owned())
        .collect()
}

/// The valid names and flags, printed when an argument is rejected.
pub fn usage() -> String {
    format!(
        "valid experiments: {}, all\nvalid flags: --full, --smoke, --analyze, --shards N",
        EXPERIMENTS.join(", ")
    )
}

/// Checks every argument against the known experiment names and flags
/// and returns the experiment names in order. `--shards` must be
/// followed by (or joined with `=` to) a shard count.
///
/// # Errors
///
/// Returns a message naming the first unknown name, unknown flag, or
/// missing shard count.
pub fn parse_args(args: &[String]) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" | "--smoke" | "--analyze" => {}
            "--shards" => match iter.next().map(|n| n.parse::<u32>()) {
                Some(Ok(_)) => {}
                _ => return Err("--shards needs a count".to_owned()),
            },
            flag if flag.starts_with("--shards=") => {
                if flag["--shards=".len()..].parse::<u32>().is_err() {
                    return Err("--shards needs a count".to_owned());
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            name if name == "all" || EXPERIMENTS.contains(&name) => names.push(name.to_owned()),
            name => return Err(format!("unknown experiment: {name}")),
        }
    }
    Ok(names)
}

/// [`parse_args`], or — on a mismatch — the error and [`usage`] on
/// stderr and exit status 2, so a mistyped name or flag runs nothing.
pub fn names_or_exit(args: &[String]) -> Vec<String> {
    parse_args(args).unwrap_or_else(|err| {
        eprintln!("{err}\n{}", usage());
        std::process::exit(2);
    })
}

/// Writes an experiment's JSON payload to `path`, exiting non-zero if
/// the write fails: a run whose artifact is missing must not pass.
pub fn write_json(path: &str, json: String) {
    if let Err(err) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {err}");
        std::process::exit(1);
    }
    println!("\nwrote {path}");
}

/// Runs one named experiment at the scale selected by the process's
/// command-line flags (`--full`, `--smoke`, default scaled; `simbench`
/// additionally honours `--shards N`). Exits with status 2, running
/// nothing, if any argument is an unknown flag or an experiment name.
///
/// Recognised experiments are [`EXPERIMENTS`]: `table1` … `table9`,
/// `figure4`, `steal`, `simbench`, `topology`, `servebench` (those last
/// four also write their `BENCH_*.json` payloads), `servelong` (the
/// long-run bounded-memory gate — exits nonzero if the bin table ever
/// exceeded its cap), and `analyze` (the `schedlint` four-kernel
/// self-check, writing `ANALYZE_smoke.json`).
pub fn run(experiment: &str) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(name) = names_or_exit(&args).first() {
        eprintln!("unexpected experiment name: {name}\nthis binary only runs {experiment}");
        std::process::exit(2);
    }
    let scale = scale_from_args(args);
    run_at(experiment, &scale);
}

/// Runs one named experiment at an explicit scale.
pub fn run_at(experiment: &str, scale: &crate::ExpScale) {
    match experiment {
        "table1" => {
            print::table1(&crate::table1(paper::table1::THREADS));
        }
        "table2" => print::time_table(
            &format!("Table 2: matrix multiply (n = {})", scale.matmul_n),
            &crate::table2(scale),
            &paper::table2::ROWS,
            "Modeled seconds on ratio-preserved scaled machines; compare ratios, not absolutes.",
        ),
        "table3" => print::miss_table(
            "Table 3: matmul memory references and cache misses (scaled R8000)",
            &crate::table3(scale),
            &print::paper_columns3(&paper::table3::ROWS[..7]),
            "",
        ),
        "table4" => print::time_table(
            &format!(
                "Table 4: PDE (n = {}, {} iterations + residual)",
                scale.pde_n, scale.pde_iters
            ),
            &crate::table4(scale),
            &paper::table4::ROWS,
            "",
        ),
        "table5" => print::miss_table(
            "Table 5: PDE cache misses (scaled R8000)",
            &crate::table5(scale),
            &print::paper_columns3(&paper::table5::ROWS),
            "",
        ),
        "table6" => print::time_table(
            &format!(
                "Table 6: SOR (n = {}, t = {}, tile {})",
                scale.sor_n, scale.sor_t, scale.sor_tile
            ),
            &crate::table6(scale),
            &paper::table6::ROWS,
            "",
        ),
        "table7" => print::miss_table(
            "Table 7: SOR memory references and cache misses (scaled R8000)",
            &crate::table7(scale),
            &print::paper_columns3(&paper::table7::ROWS),
            "",
        ),
        "table8" => print::time_table(
            &format!(
                "Table 8: N-body ({} bodies, {} iterations)",
                scale.nbody_n, scale.nbody_iters
            ),
            &crate::table8(scale),
            &paper::table8::ROWS,
            "",
        ),
        "table9" => print::miss_table(
            "Table 9: N-body cache misses, one iteration (scaled R8000)",
            &crate::table9(scale),
            &print::paper_columns2(&paper::table9::ROWS),
            "",
        ),
        "figure4" => print::figure4(&crate::figure4(scale)),
        "simbench" => {
            // `--shards N` (default 4) sizes the sharded replay cell;
            // the planner clamps to what the machine geometry allows.
            let shards = crate::scale::shards_from_args(
                std::env::args().skip(1),
                crate::simbench::DEFAULT_SHARDS,
            );
            let result = crate::simbench::simbench(scale, 3, shards);
            print::simbench(&result);
            write_json("BENCH_sim.json", result.to_json());
        }
        "topology" => {
            let result = crate::experiments::topology(scale);
            print::topology(&result);
            write_json("BENCH_topology.json", result.to_json());
        }
        "servebench" => {
            let result = crate::servebench::servebench(scale);
            print::servebench(&result);
            write_json("BENCH_serve.json", result.to_json());
        }
        "servelong" => {
            let (result, violations) = crate::servebench::servelong(scale);
            print::servebench(&result);
            if violations.is_empty() {
                println!(
                    "\nservelong: OK — {} requests per policy, live bin records never exceeded {}",
                    result.trace.requests,
                    crate::servebench::SERVELONG_CAP
                );
            } else {
                for violation in &violations {
                    eprintln!("servelong VIOLATION: {violation}");
                }
                std::process::exit(1);
            }
        }
        "analyze" => {
            // Fixed analysis scale, independent of --smoke/--full: the
            // committed ANALYZE_smoke.json baseline must be
            // byte-reproducible on every host.
            let machine = analyze::default_machine();
            let opts = analyze::AnalyzeOptions::default();
            let mut report = analyze::AnalyzeReport::new(machine.name(), opts.hint_threshold_pct);
            for kernel in workloads::Kernel::ALL {
                let capture =
                    analyze::capture_kernel(kernel, &machine, &analyze::AnalyzeScale::default());
                report.kernels.push(analyze::analyze(&capture, &opts));
            }
            print!("{}", report.to_text());
            write_json("ANALYZE_smoke.json", report.to_json());
        }
        "steal" => {
            let result = crate::experiments::steal(scale);
            print::steal(&result);
            write_json("BENCH_steal.json", result.to_json());
        }
        other => {
            eprintln!("unknown experiment: {other}\n{}", usage());
            std::process::exit(2);
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_args_keeps_names_in_order_and_accepts_every_flag() {
        let args = argv("--smoke steal --shards 4 all --shards=2 --analyze table3 --full");
        assert_eq!(parse_args(&args), Ok(argv("steal all table3")));
        assert_eq!(parse_args(&[]), Ok(Vec::new()));
    }

    #[test]
    fn parse_args_rejects_unknown_names_flags_and_counts() {
        for bad in [
            "binpolicy",
            "--smok",
            "table1 -v",
            "--shards",
            "--shards four",
            "--shards=x",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
        assert_eq!(
            parse_args(&argv("table10")),
            Err("unknown experiment: table10".to_owned())
        );
    }

    #[test]
    fn all_skips_only_the_long_gate_and_the_analysis() {
        let all = all();
        assert_eq!(all.len(), EXPERIMENTS.len() - 2);
        assert!(!all.contains(&"servelong".to_owned()));
        assert!(!all.contains(&"analyze".to_owned()));
    }
}
