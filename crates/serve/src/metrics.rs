//! Aggregate serving metrics — the row `BENCH_serve.json` reports per
//! policy.
//!
//! Everything here is integral and derived from the deterministic
//! virtual clock, so a report is byte-reproducible across runs and
//! platforms (fractional metrics are scaled: `*_x1000` fields carry
//! three decimal places as integers).

/// One serving run's scoreboard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeReport {
    /// Policy identifier (`flat`, `hierarchical`, …).
    pub policy: &'static str,
    /// Serving lanes the run modeled.
    pub lanes: u64,
    /// Requests the trace offered.
    pub offered: u64,
    /// Requests admitted past the queue bound.
    pub admitted: u64,
    /// Requests turned away at admission.
    pub rejected: u64,
    /// Admitted requests cancelled while queued by a shedding
    /// admission policy (`admitted == completed + shed` once the run
    /// ends drained).
    pub shed: u64,
    /// Requests actually served.
    pub completed: u64,
    /// Served requests whose payload was mostly L2-resident (≤ half
    /// the touched lines missed).
    pub warm_hits: u64,
    /// Served requests that mostly missed (the complement).
    pub cold_misses: u64,
    /// Drain units granted to lanes.
    pub drains: u64,
    /// Deepest the pending queue ever got.
    pub max_queue_depth: u64,
    /// Time-weighted mean pending depth, ×1000.
    pub mean_queue_depth_x1000: u64,
    /// Median modeled latency (arrival → completion), nanoseconds.
    pub p50_latency_ns: u64,
    /// 99th-percentile modeled latency, nanoseconds.
    pub p99_latency_ns: u64,
    /// Mean modeled latency, nanoseconds.
    pub mean_latency_ns: u64,
    /// Mean of per-request latency ÷ service time, ×1000.
    pub mean_slowdown_x1000: u64,
    /// Virtual time from first arrival to last completion.
    pub makespan_ns: u64,
    /// Bin records the engine's eviction policy retired.
    pub evictions: u64,
    /// Most live bin records the engine's table ever held — the memory
    /// bound the eviction policy enforces.
    pub peak_live_bin_records: u64,
    /// Σ over shed requests of payload bytes × time queued, reported
    /// in byte-milliseconds: memory held only to be thrown away.
    pub wasted_memory_time: u64,
}

impl ServeReport {
    /// Warm hits as a percentage of completed requests.
    pub fn warm_hit_rate_pct(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            100.0 * self.warm_hits as f64 / self.completed as f64
        }
    }

    /// Checks the conservation laws every finished serving run obeys,
    /// and names the first one violated:
    ///
    /// * every offered request was admitted or rejected;
    /// * every admitted request completed or was shed (the run ends
    ///   drained);
    /// * every completed request was a warm hit or a cold miss;
    /// * with `cap` set (the run's `LruCap` bound), the bin table never
    ///   held more live records than that.
    pub fn check(&self, cap: Option<u64>) -> Result<(), String> {
        if self.admitted + self.rejected != self.offered {
            return Err(format!(
                "admitted {} + rejected {} != offered {}",
                self.admitted, self.rejected, self.offered
            ));
        }
        if self.completed + self.shed != self.admitted {
            return Err(format!(
                "completed {} + shed {} != admitted {}",
                self.completed, self.shed, self.admitted
            ));
        }
        if self.warm_hits + self.cold_misses != self.completed {
            return Err(format!(
                "warm hits {} + cold misses {} != completed {}",
                self.warm_hits, self.cold_misses, self.completed
            ));
        }
        match cap {
            Some(cap) if self.peak_live_bin_records > cap => Err(format!(
                "peak_live_bin_records {} exceeds cap {cap}",
                self.peak_live_bin_records
            )),
            _ => Ok(()),
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice; zero when
/// empty. `pct` is 0–100.
pub fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len() as u64).div_ceil(100);
    let idx = rank.saturating_sub(1).min(sorted.len() as u64 - 1);
    sorted[usize::try_from(idx).unwrap_or(usize::MAX)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    fn empty_report() -> ServeReport {
        ServeReport {
            policy: "flat",
            lanes: 1,
            offered: 0,
            admitted: 0,
            rejected: 0,
            shed: 0,
            completed: 0,
            warm_hits: 0,
            cold_misses: 0,
            drains: 0,
            max_queue_depth: 0,
            mean_queue_depth_x1000: 0,
            p50_latency_ns: 0,
            p99_latency_ns: 0,
            mean_latency_ns: 0,
            mean_slowdown_x1000: 0,
            makespan_ns: 0,
            evictions: 0,
            peak_live_bin_records: 0,
            wasted_memory_time: 0,
        }
    }

    #[test]
    fn warm_rate_handles_empty() {
        let mut report = empty_report();
        assert_eq!(report.warm_hit_rate_pct(), 0.0);
        report.completed = 4;
        report.warm_hits = 3;
        assert!((report.warm_hit_rate_pct() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn check_accepts_a_balanced_report_and_names_each_broken_law() {
        let report = ServeReport {
            offered: 100,
            admitted: 90,
            rejected: 10,
            shed: 5,
            completed: 85,
            warm_hits: 60,
            cold_misses: 25,
            peak_live_bin_records: 40,
            ..empty_report()
        };
        assert_eq!(report.check(None), Ok(()));
        assert_eq!(report.check(Some(40)), Ok(()));
        assert_eq!(empty_report().check(Some(1)), Ok(()));
        type Corruption = fn(&mut ServeReport);
        let broken: [(Corruption, &str); 4] = [
            (|r| r.rejected += 1, "!= offered"),
            (|r| r.shed -= 1, "!= admitted"),
            (|r| r.cold_misses += 1, "!= completed"),
            (|r| r.peak_live_bin_records += 1, "exceeds cap 40"),
        ];
        for (corrupt, law) in broken {
            let mut r = report;
            corrupt(&mut r);
            let err = r.check(Some(40)).expect_err(law);
            assert!(err.contains(law), "{err}");
        }
        let mut uncapped = report;
        uncapped.peak_live_bin_records = u64::MAX;
        assert_eq!(uncapped.check(None), Ok(()), "no cap, no bound");
    }
}
