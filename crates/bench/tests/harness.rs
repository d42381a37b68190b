//! Tests of the reproduction harness itself: the paper constants are
//! internally consistent, the suites produce the expected version
//! lists, and the smoke-scale experiments have the paper's shape.

use repro::{experiments, paper, ExpScale};

#[test]
fn paper_constants_are_internally_consistent() {
    // Table 1: total = fork + run, per machine.
    assert!(
        (paper::table1::TOTAL_US.0 - paper::table1::FORK_US.0 - paper::table1::RUN_US.0).abs()
            < 1e-9
    );
    assert!(
        (paper::table1::TOTAL_US.1 - paper::table1::FORK_US.1 - paper::table1::RUN_US.1).abs()
            < 1e-9
    );
    // Thread overhead beats an L2 miss by less than 2x (the paper's
    // economics: one saved miss pays for most of a thread).
    assert!(paper::table1::TOTAL_US.0 < 2.0 * paper::table1::L2_MISS_US.0);

    // Miss tables: compulsory + capacity + conflict == misses.
    let check3 = |rows: &[(&str, u64, u64, u64)]| {
        let get = |name: &str, col: usize| {
            rows.iter()
                .find(|r| r.0 == name)
                .map(|r| match col {
                    0 => r.1,
                    1 => r.2,
                    _ => r.3,
                })
                .expect("row exists")
        };
        for col in 0..3 {
            let total = get("L2 misses", col);
            let parts =
                get("L2 compulsory", col) + get("L2 capacity", col) + get("L2 conflict", col);
            // The paper's tables round to thousands; allow 1% slack.
            assert!(
                (total as i64 - parts as i64).unsigned_abs() <= total / 100 + 2,
                "column {col}: {total} vs {parts}"
            );
        }
    };
    check3(&paper::table3::ROWS[..7]);
    check3(&paper::table5::ROWS);
    check3(&paper::table7::ROWS);

    // Timing tables: every version has positive times on both machines.
    for rows in [
        &paper::table2::ROWS[..],
        &paper::table4::ROWS[..],
        &paper::table6::ROWS[..],
    ] {
        for (name, r8, r10) in rows {
            assert!(*r8 > 0.0 && *r10 > 0.0, "{name}");
        }
    }
}

#[test]
fn suites_produce_the_papers_version_lists() {
    let scale = ExpScale::smoke();
    let (r8000, _) = experiments::machines(scale.matmul_factor);
    let names: Vec<String> = experiments::matmul_suite(&scale, &r8000)
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(
        names,
        vec![
            "matmul/interchanged",
            "matmul/transposed",
            "matmul/tiled-interchanged",
            "matmul/tiled-transposed",
            "matmul/threaded",
        ]
    );
}

#[test]
fn smoke_scale_tables_have_the_papers_shape() {
    let scale = ExpScale::smoke();

    // Table 3 shape: untiled >> threaded >= tiled-ish on L2 misses.
    let rows = repro::table3(&scale);
    assert_eq!(rows.len(), 3);
    let untiled = &rows[0].report;
    let tiled = &rows[1].report;
    let threaded = &rows[2].report;
    assert!(untiled.l2.misses() > 2 * threaded.l2.misses());
    assert!(untiled.l2.misses() > 2 * tiled.l2.misses());
    assert!(untiled.classes.capacity > untiled.classes.conflict);

    // Table 7 shape: both transformations kill SOR capacity misses.
    // (At smoke scale the tiled version's O(n·s) band no longer fits
    // the over-shrunk L2, so its reduction is weaker than at default
    // scale — see the scaling_consistency tests.)
    let rows = repro::table7(&scale);
    let untiled = &rows[0].report;
    let tiled = &rows[1].report;
    let threaded = &rows[2].report;
    assert!(untiled.classes.capacity > 3 * tiled.classes.capacity.max(1));
    assert!(untiled.classes.capacity > 10 * threaded.classes.capacity.max(1));

    // Figure 4 shape: oversized blocks degrade matmul.
    let fig = repro::figure4(&scale);
    let matmul_series = &fig
        .series
        .iter()
        .find(|(n, _)| n == "matmul")
        .expect("series")
        .1;
    let best = matmul_series.iter().copied().fold(f64::MAX, f64::min);
    let last = *matmul_series.last().expect("nonempty");
    assert!(
        last > 1.2 * best,
        "no knee: best {best}, 8M-equivalent {last}"
    );
}

#[test]
fn scale_flags_select_presets() {
    use repro::scale::scale_from_args;
    let default = scale_from_args(Vec::<String>::new());
    assert_eq!(default.matmul_n, ExpScale::default_scaled().matmul_n);
    let full = scale_from_args(vec!["--full".to_owned()]);
    assert_eq!(full.matmul_n, 1024);
    let smoke = scale_from_args(vec!["x".to_owned(), "--smoke".to_owned()]);
    assert_eq!(smoke.matmul_n, ExpScale::smoke().matmul_n);
}
