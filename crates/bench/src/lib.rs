//! Reproduction harness for every table and figure in the paper's
//! evaluation (§4).
//!
//! Each `tableN`/`figure4` module computes structured results that the
//! corresponding binary prints next to the paper's published numbers.
//! Absolute times cannot match 1996 SGI hardware; what must match — and
//! what the integration tests assert — is the *shape*: which version
//! wins, by roughly what factor, and where behaviour changes (e.g.
//! Figure 4's degradation once the block size exceeds the L2 size).
//!
//! Problem/machine scaling: the paper's traces are 10⁹–10¹⁰
//! references. The default [`ExpScale`] shrinks each problem *and* the
//! machine's caches by the same factor, preserving every
//! data-set : cache ratio the analysis depends on (see EXPERIMENTS.md);
//! `ExpScale::full()` reproduces the paper's exact sizes.

pub mod benchdiff;
pub mod cli;
pub mod experiments;
pub mod fmt;
pub mod paper;
pub mod print;
pub mod scale;
pub mod servebench;
pub mod simbench;

pub use experiments::{
    figure4, run_cells, steal_ablation, table1, table2, table2_with, table3, table4, table4_with,
    table5, table6, table6_with, table7, table8, table8_with, table9, topology, topology_with,
    Cell, Driver, Figure4Result, MissRow, StealAblationResult, StealRow, Table1Result, TimeRow,
    TopologyResult, TopologyRow,
};
pub use scale::ExpScale;
pub use servebench::{servebench, ServeBenchResult, ServeBenchRow};
pub use simbench::{SimBenchResult, SimBenchRow};
