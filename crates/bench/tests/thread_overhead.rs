//! The package's wall-clock economics, alone in its own test binary.
//!
//! This bound is a host-time measurement, so it lives apart from the
//! harness tests: cargo runs test binaries one after another, and
//! within this one no simulation cell runs beside the fork/run loop
//! being timed.

#[test]
fn table1_thread_overhead_is_far_below_a_paper_l2_miss() {
    // Forking+running a thread on a modern host costs well under the
    // paper's 1.06 µs L2 miss.
    let result = repro::table1(50_000);
    assert!(
        result.total_ns() < 1060.0,
        "thread overhead {} ns",
        result.total_ns()
    );
}
