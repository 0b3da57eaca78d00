//! Scheduling outcome metrics and the shared quantile helpers.

use serde::{Deserialize, Serialize};

/// Exact nearest-rank quantile over **pre-sorted** samples: the smallest
/// element whose rank covers fraction `p` of the population
/// (`sorted[ceil(p·n) - 1]`, clamped into range). Returns 0 on empty
/// input. Sorting once and calling this per percentile is the pattern
/// every consumer (JCT percentiles, group profiles, serve's latency
/// summaries) shares.
pub fn quantile_sorted(sorted: &[i64], p: f64) -> i64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// [`quantile_sorted`] over `f64` samples. Returns 0.0 on empty input.
pub fn quantile_sorted_f64(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// Nearest-rank quantile over a histogram given as ascending
/// `(upper_bound, count)` buckets: the bound of the first bucket whose
/// cumulative count covers fraction `p` of the total. `None` when every
/// count is zero. This is the bucketed twin of [`quantile_sorted`] —
/// serve's latency histograms report p50/p95/p99 through it.
pub fn quantile_weighted(buckets: &[(f64, u64)], p: f64) -> Option<f64> {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(bound, count) in buckets {
        seen += count;
        if seen >= rank {
            return Some(bound);
        }
    }
    buckets.last().map(|&(bound, _)| bound)
}

/// What a scheduling run is judged by.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Policy label that produced this run.
    pub policy: String,
    /// Jobs completed.
    pub jobs: usize,
    /// Mean job completion time (seconds).
    pub mean_jct: f64,
    /// Median JCT.
    pub p50_jct: i64,
    /// 95th-percentile JCT.
    pub p95_jct: i64,
    /// 99th-percentile JCT.
    pub p99_jct: i64,
    /// Worst JCT.
    pub max_jct: i64,
    /// Time from first arrival to last completion.
    pub makespan: i64,
    /// Mean cluster CPU utilization over the makespan, in `[0, 1]`.
    pub mean_utilization: f64,
    /// Batch instances killed for online load (0 without eviction).
    pub evictions: u64,
    /// Jobs the policy had no usable prediction for (FIFO and the oracles
    /// always report 0; prediction-driven policies count every job that
    /// fell back to its neutral / pessimistic key).
    pub unknown_jobs: u64,
    /// Distinct event times the simulation stopped at (arrivals, finishes,
    /// online-load reconfigurations), each ending in one dispatch pass —
    /// the simulator's unit of work, independent of the host.
    pub events: u64,
}

impl SimMetrics {
    /// Build from raw per-job completion times.
    pub fn from_jcts(
        policy: &str,
        mut jcts: Vec<i64>,
        makespan: i64,
        mean_utilization: f64,
    ) -> SimMetrics {
        jcts.sort_unstable();
        let n = jcts.len();
        SimMetrics {
            policy: policy.to_string(),
            jobs: n,
            mean_jct: if n == 0 {
                0.0
            } else {
                jcts.iter().sum::<i64>() as f64 / n as f64
            },
            p50_jct: quantile_sorted(&jcts, 0.50),
            p95_jct: quantile_sorted(&jcts, 0.95),
            p99_jct: quantile_sorted(&jcts, 0.99),
            max_jct: jcts.last().copied().unwrap_or(0),
            makespan,
            mean_utilization,
            evictions: 0,
            unknown_jobs: 0,
            events: 0,
        }
    }

    /// One-line rendering for comparison tables.
    pub fn render_row(&self) -> String {
        let evict = if self.evictions > 0 {
            format!("  evictions {}", self.evictions)
        } else {
            String::new()
        };
        let unknown = if self.unknown_jobs > 0 {
            format!("  unknown {}", self.unknown_jobs)
        } else {
            String::new()
        };
        format!(
            "{:<22} jobs {:>5}  mean JCT {:>9.1}s  p50 {:>7}s  p95 {:>8}s  p99 {:>8}s  makespan {:>8}s  util {:>5.1}%{evict}{unknown}",
            self.policy,
            self.jobs,
            self.mean_jct,
            self.p50_jct,
            self.p95_jct,
            self.p99_jct,
            self.makespan,
            100.0 * self.mean_utilization
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_jcts() {
        let m = SimMetrics::from_jcts("fifo", vec![10, 20, 30, 40, 100], 200, 0.5);
        assert_eq!(m.jobs, 5);
        assert_eq!(m.mean_jct, 40.0);
        assert_eq!(m.p50_jct, 30);
        assert_eq!(m.p95_jct, 100);
        assert_eq!(m.p99_jct, 100);
        assert_eq!(m.max_jct, 100);
        assert!(m.render_row().contains("fifo"));
    }

    #[test]
    fn empty_metrics() {
        let m = SimMetrics::from_jcts("x", vec![], 0, 0.0);
        assert_eq!(m.jobs, 0);
        assert_eq!(m.mean_jct, 0.0);
        assert_eq!(m.p50_jct, 0);
        assert_eq!(m.p99_jct, 0);
    }

    #[test]
    fn single_job() {
        let m = SimMetrics::from_jcts("x", vec![42], 42, 1.0);
        assert_eq!(m.p50_jct, 42);
        assert_eq!(m.p95_jct, 42);
        assert_eq!(m.p99_jct, 42);
    }

    #[test]
    fn quantile_sorted_edge_cases() {
        // Empty → 0 by convention.
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        // Single sample: every percentile is that sample.
        assert_eq!(quantile_sorted(&[7], 0.01), 7);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
        // Nearest-rank on a 10-element ladder.
        let v: Vec<i64> = (1..=10).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 5);
        assert_eq!(quantile_sorted(&v, 0.95), 10);
        assert_eq!(quantile_sorted(&v, 0.99), 10);
        assert_eq!(quantile_sorted(&v, 0.10), 1);
        // Ties: repeated values are picked by rank, not uniqueness.
        let t = [1, 5, 5, 5, 9];
        assert_eq!(quantile_sorted(&t, 0.50), 5);
        assert_eq!(quantile_sorted(&t, 0.75), 5);
        assert_eq!(quantile_sorted(&t, 0.99), 9);
        // p outside [0,1] clamps to the extremes instead of panicking.
        assert_eq!(quantile_sorted(&t, -1.0), 1);
        assert_eq!(quantile_sorted(&t, 2.0), 9);
    }

    #[test]
    fn quantile_sorted_f64_matches_integer_twin() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(quantile_sorted_f64(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted_f64(&v, 0.95), 100.0);
        assert_eq!(quantile_sorted_f64(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted_f64(&[2.5], 0.99), 2.5);
    }

    #[test]
    fn quantile_weighted_over_buckets() {
        // 10 samples ≤ 100, 85 ≤ 1000, 5 ≤ 10000.
        let buckets = [(100.0, 10u64), (1_000.0, 85), (10_000.0, 5)];
        assert_eq!(quantile_weighted(&buckets, 0.05), Some(100.0));
        assert_eq!(quantile_weighted(&buckets, 0.50), Some(1_000.0));
        assert_eq!(quantile_weighted(&buckets, 0.95), Some(1_000.0));
        assert_eq!(quantile_weighted(&buckets, 0.99), Some(10_000.0));
        // All-zero histogram has no quantiles.
        assert_eq!(quantile_weighted(&[(100.0, 0), (200.0, 0)], 0.5), None);
        assert_eq!(quantile_weighted(&[], 0.5), None);
        // Single hot bucket.
        assert_eq!(quantile_weighted(&[(50.0, 3)], 0.5), Some(50.0));
    }
}
