//! Sample statistics and the derived metrics, kept apart from the
//! measuring code so each formula is unit-tested on its own.

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A host timing as reported on the context line: its sample count,
/// median and 90th percentile.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub median: f64,
    /// Nearest-rank p90: the smallest sample with at least 90% of the
    /// samples at or below it.
    pub p90: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = (0.9 * sorted.len() as f64).ceil() as usize;
        Summary {
            samples: sorted.len(),
            median: median(samples),
            p90: sorted[rank.max(1) - 1],
        }
    }
}

/// Modeled cost of the failures: the failure-injected job's virtual time
/// minus the same job's with no failure.
pub fn recovery_virtual_s(job_virtual_ns: u64, failure_free_ns: u64) -> f64 {
    ns_diff_s(job_virtual_ns, failure_free_ns)
}

/// The paper's resilience overhead: the failure-free protected job's
/// virtual time minus the same application run unprotected.
pub fn ckpt_overhead_virtual_s(failure_free_ns: u64, unprotected_ns: u64) -> f64 {
    ns_diff_s(failure_free_ns, unprotected_ns)
}

fn ns_diff_s(a: u64, b: u64) -> f64 {
    (a as f64 - b as f64) / 1e9
}

/// Estimated share of a job's host time spent in VeloC restarts: every
/// restart the trace saw, each priced at one direct restart call of the
/// job's per-rank size, over the job's median host time.
pub fn restart_share(restarts: u64, restart_call_s: f64, job_host_s: f64) -> f64 {
    restarts as f64 * restart_call_s / job_host_s
}

/// Share of executed steps that were useful: ranks × final iterations over
/// every step executed, recompute included. 1.0 means nothing was redone.
pub fn useful_step_ratio(ranks: usize, iterations: u64, steps: u64) -> f64 {
    if steps == 0 {
        return 0.0;
    }
    (ranks as f64 * iterations as f64) / steps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn virtual_subtractions() {
        // 1.5 s failure-injected job over a 1.2 s failure-free one.
        assert!((recovery_virtual_s(1_500_000_000, 1_200_000_000) - 0.3).abs() < 1e-12);
        assert!((ckpt_overhead_virtual_s(1_200_000_000, 1_000_000_000) - 0.2).abs() < 1e-12);
        // A negative difference is reported, not clamped: it would mean the
        // protected job got cheaper than the unprotected one.
        assert!(ckpt_overhead_virtual_s(1, 2) < 0.0);
    }

    #[test]
    fn useful_step_ratio_counts_recompute_as_waste() {
        // 8 ranks × 60 iterations with 4 iterations redone on every rank.
        let r = useful_step_ratio(8, 60, 8 * 64);
        assert!((r - 60.0 / 64.0).abs() < 1e-12);
        assert_eq!(useful_step_ratio(8, 60, 8 * 60), 1.0);
        assert_eq!(useful_step_ratio(8, 60, 0), 0.0);
    }

    #[test]
    fn restart_share_prices_every_restart() {
        // 24 restarts of 10 ms each in a 2 s job.
        assert!((restart_share(24, 0.01, 2.0) - 0.12).abs() < 1e-12);
        assert_eq!(restart_share(0, 0.01, 2.0), 0.0);
    }

    #[test]
    fn p90_is_reported_with_its_sample_count() {
        let one = Summary::of(&[4.0]);
        assert_eq!((one.samples, one.median, one.p90), (1, 4.0, 4.0));
        // Nearest rank: 9 of 10 samples lie at or below the 9th.
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(Summary::of(&ten).p90, 9.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = Summary::of(&twenty);
        assert_eq!((s.samples, s.median, s.p90), (20, 10.5, 18.0));
    }
}
