//! `repro` — runs any or all of the paper's tables/figures.
//!
//! ```text
//! repro [all|table1|table2|...|table9|figure4|steal|simbench|topology|servebench|servelong|analyze]...
//!       [--full|--smoke] [--analyze] [--shards N]
//! ```
//!
//! `--analyze` (or the `analyze` experiment name) appends the
//! `schedlint` four-kernel schedule-safety self-check and writes
//! `ANALYZE_smoke.json`. Any other name or flag is rejected with the
//! valid set and exit status 2 before anything runs.

use repro::cli;
use repro::scale::scale_from_args;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted = cli::names_or_exit(&args);
    if wanted.is_empty() || wanted.iter().any(|name| name == "all") {
        wanted = cli::all();
    }
    if args.iter().any(|a| a == "--analyze") && !wanted.iter().any(|name| name == "analyze") {
        wanted.push("analyze".to_owned());
    }
    let scale = scale_from_args(args);
    println!(
        "thread-locality reproduction harness (scale: matmul n={}, pde n={}, sor n={}, nbody n={})\n",
        scale.matmul_n, scale.pde_n, scale.sor_n, scale.nbody_n
    );
    for experiment in &wanted {
        cli::run_at(experiment, &scale);
    }
}
