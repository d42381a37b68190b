//! Golden smoke tests: run the table/figure binaries end to end at
//! `--smoke` scale and snapshot the *shape* of their output — row and
//! column counts and numeric sanity — without pinning host-dependent
//! timing values.

use std::process::Command;

fn run_smoke(bin: &str) -> String {
    let output = Command::new(bin)
        .arg("--smoke")
        .output()
        .unwrap_or_else(|err| panic!("spawning {bin}: {err}"));
    assert!(
        output.status.success(),
        "{bin} --smoke failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("binaries emit UTF-8")
}

/// Every whitespace-separated numeric token in `line` after the first
/// `skip` tokens, asserted finite.
fn finite_numbers(line: &str, skip: usize) -> Vec<f64> {
    line.split_whitespace()
        .skip(skip)
        .map(|tok| {
            let v: f64 = tok
                .parse()
                .unwrap_or_else(|_| panic!("non-numeric cell {tok:?} in {line:?}"));
            assert!(v.is_finite(), "non-finite cell in {line:?}");
            v
        })
        .collect()
}

#[test]
fn table1_smoke_output_has_the_papers_shape() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_table1"));
    assert!(
        stdout.contains("Table 1: thread overhead"),
        "missing title:\n{stdout}"
    );
    assert!(!stdout.contains("NaN"), "NaN in output:\n{stdout}");

    let lines: Vec<&str> = stdout.lines().collect();
    // One measured row per paper row, in the paper's order.
    for label in ["Fork", "Run", "Total"] {
        let row = lines
            .iter()
            .find(|l| l.split_whitespace().next() == Some(label))
            .unwrap_or_else(|| panic!("missing row {label}:\n{stdout}"));
        // Label + host + paper R8000 + paper R10000.
        let cells = finite_numbers(row, 1);
        assert_eq!(cells.len(), 3, "row {label}: {row:?}");
        assert!(cells.iter().all(|&v| v > 0.0), "row {label}: {row:?}");
    }
    // The modeled L2-miss row has no host measurement.
    let miss = lines
        .iter()
        .find(|l| l.starts_with("L2 miss"))
        .unwrap_or_else(|| panic!("missing L2 miss row:\n{stdout}"));
    assert!(miss.split_whitespace().any(|tok| tok == "-"), "{miss:?}");
    // Footer names the thread count.
    assert!(stdout.contains("null threads"), "{stdout}");
}

#[test]
fn figure4_smoke_output_has_the_papers_shape() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_figure4"));
    assert!(
        stdout.contains("Figure 4: execution time vs block dimension size"),
        "missing title:\n{stdout}"
    );
    assert!(!stdout.contains("NaN"), "NaN in output:\n{stdout}");

    let lines: Vec<&str> = stdout.lines().collect();
    let header = lines
        .iter()
        .find(|l| l.starts_with("block"))
        .unwrap_or_else(|| panic!("missing header:\n{stdout}"));
    // "block (full-equiv)" plus the four workload series.
    for series in ["matmul", "pde", "sor", "nbody"] {
        assert!(header.contains(series), "{header:?}");
    }

    // The paper sweeps 64K..8M: eight block-size rows, one modeled
    // time per series, all positive and finite.
    let expected_blocks = ["64K", "128K", "256K", "512K", "1M", "2M", "4M", "8M"];
    let mut seen = 0;
    for (i, block) in expected_blocks.iter().enumerate() {
        let row = lines
            .iter()
            .find(|l| l.split_whitespace().next() == Some(*block))
            .unwrap_or_else(|| panic!("missing block row {block}:\n{stdout}"));
        let cells = finite_numbers(row, 1);
        assert_eq!(cells.len(), 4, "block {block}: {row:?}");
        assert!(cells.iter().all(|&v| v > 0.0), "block {block}: {row:?}");
        seen = i + 1;
    }
    assert_eq!(seen, 8);

    // One ASCII sparkline per series, annotated with its min and max.
    for series in ["matmul", "pde", "sor", "nbody"] {
        let spark = lines
            .iter()
            .find(|l| l.trim_start().starts_with(series) && l.contains('['))
            .unwrap_or_else(|| panic!("missing sparkline for {series}:\n{stdout}"));
        assert!(spark.contains("(min") && spark.contains("max"), "{spark:?}");
    }
}

/// `repro` checks every name and flag before running anything: a
/// removed experiment or a mistyped flag exits non-zero, prints the
/// valid set, and runs no experiment.
#[test]
fn repro_rejects_unknown_names_and_flags() {
    for args in [&["binpolicy"][..], &["--smok", "table1"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawning repro");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(args[0]), "{args:?} not named: {stderr}");
        for name in repro::cli::EXPERIMENTS {
            assert!(
                stderr.contains(name),
                "{args:?}: {name} not listed: {stderr}"
            );
        }
        assert!(stderr.contains("--smoke"), "{args:?}: flags not listed");
        assert!(
            output.stdout.is_empty(),
            "{args:?} ran something: {}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}
