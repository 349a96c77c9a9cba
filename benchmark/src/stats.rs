//! Estimators. Gating timings are calibrated medians: every round times the
//! canary next to the measured operations, and a timing is the median over
//! rounds of `sample ÷ canary`, scaled back to milliseconds by the canary's
//! nominal time. On a shared host the neighbours slow both alike, so the ratio
//! stays where the raw times — minimum included — move by tens of percent
//! (README.md, "Why calibrated"). Per-layer timings are best-of-N; minimum,
//! median and tail of the raw samples are reported as diagnostics.

use crate::canary::NOMINAL_MS;

/// A duration in milliseconds, the unit every timing sample is kept in.
pub fn millis(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The smallest sample. Panics on an empty slice: every caller measures at
/// least once.
pub fn best(samples: &[f64]) -> f64 {
    samples
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("at least one sample")
}

/// Best-of-N per position, then the mean over positions. The positions of
/// the delta cycle do different work, so a global minimum would only report
/// the cheapest delta.
pub fn best_per_position_mean(positions: &[Vec<f64>]) -> f64 {
    positions.iter().map(|p| best(p)).sum::<f64>() / positions.len() as f64
}

/// The median over rounds of `sample ÷ canary`, times the canary's nominal
/// time: what the operation takes on a host on which the canary takes
/// [`NOMINAL_MS`]. `canary[r]` is the pass timed in the same round as
/// `samples[r]`.
pub fn calibrated(samples: &[f64], canary: &[f64]) -> f64 {
    assert_eq!(samples.len(), canary.len(), "one canary pass per sample");
    let ratios: Vec<f64> = samples.iter().zip(canary).map(|(s, c)| s / c).collect();
    median(&ratios) * NOMINAL_MS
}

/// [`calibrated`] per position, then the mean over positions — for the same
/// reason as [`best_per_position_mean`].
pub fn calibrated_per_position_mean(positions: &[Vec<f64>], canary: &[f64]) -> f64 {
    positions.iter().map(|p| calibrated(p, canary)).sum::<f64>() / positions.len() as f64
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it, as
/// `(quantile, value)`. With fewer than ten samples beyond the median no
/// percentile above it qualifies and the median stands in, reported as
/// quantile 0.5.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let s = sorted(samples);
    if s.len() <= 2 * BEYOND {
        return (0.5, median(samples));
    }
    let index = s.len() - BEYOND - 1;
    ((index + 1) as f64 / s.len() as f64, s[index])
}

/// How much longer `with` takes than `without`, in percent, when the two were
/// sampled in alternating rounds: the median, over positions and rounds, of
/// `with[pos][k] ÷ without[pos][k]`, minus one. Neighbouring rounds see the
/// same host phase, so the pairs cancel what per-series statistics keep (in a
/// busy hour the difference of two minima of a dozen rounds reads ± 15 % for
/// an overhead of nothing).
pub fn paired_excess_pct(without: &[Vec<f64>], with: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = without
        .iter()
        .zip(with)
        .flat_map(|(a, b)| a.iter().zip(b).map(|(a, b)| b / a))
        .collect();
    (median(&ratios) - 1.0) * 100.0
}

/// `(p50 − min) / min` in percent: how far the typical sample sits above
/// the undisturbed one.
pub fn noise_pct(samples: &[f64]) -> f64 {
    let min = best(samples);
    (median(samples) - min) / min * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_ignores_outliers_and_order() {
        assert_eq!(best(&[5.0, 3.0, 90.0, 3.5]), 3.0);
        assert_eq!(best(&[7.0]), 7.0);
    }

    #[test]
    fn per_position_best_does_not_collapse_to_the_cheapest_position() {
        // Position 0 is cheap, position 1 expensive; one slow round each.
        let positions = vec![vec![1.0, 9.0, 1.2], vec![10.0, 10.5, 30.0]];
        assert_eq!(best_per_position_mean(&positions), 5.5);
        let all: Vec<f64> = positions.concat();
        assert_eq!(best(&all), 1.0, "a global min reports only position 0");
    }

    #[test]
    fn calibration_cancels_what_slows_operation_and_canary_alike() {
        let quiet = [30.0, 31.0, 29.0];
        let canary = [NOMINAL_MS; 3];
        assert_eq!(calibrated(&quiet, &canary), 30.0);
        // A host phase that makes everything 1.5 x slower, and one round in
        // which only the operation was hit.
        let busy = [45.0, 46.5, 90.0];
        let slow = [NOMINAL_MS * 1.5; 3];
        assert!((calibrated(&busy, &slow) - 31.0).abs() < 1e-9);
        let positions = vec![vec![10.0, 10.0, 10.0], vec![45.0, 46.5, 90.0]];
        assert!(
            (calibrated_per_position_mean(&positions, &slow) - (10.0 / 1.5 + 31.0) / 2.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, value) = tail(&samples);
        assert_eq!(value, 90.0);
        assert_eq!(q, 0.9);
        assert_eq!(samples.iter().filter(|s| **s > value).count(), 10);

        let twenty_one: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&twenty_one), (11.0 / 21.0, 11.0));

        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), (0.5, 10.5), "never below the median");
        let few = [2.0, 1.0, 3.0];
        assert_eq!(tail(&few), (0.5, 2.0));
    }

    #[test]
    fn pairs_cancel_a_host_phase_that_hits_both_series() {
        // Rounds 2 and 3 ran in a slow phase; `with` costs 2 % more throughout.
        let without = vec![vec![10.0, 30.0, 29.0], vec![20.0, 60.0, 61.0]];
        let with: Vec<Vec<f64>> = without
            .iter()
            .map(|p| p.iter().map(|x| x * 1.02).collect())
            .collect();
        assert!((paired_excess_pct(&without, &with) - 2.0).abs() < 1e-9);
        assert_eq!(paired_excess_pct(&without, &without), 0.0);
    }

    #[test]
    fn noise_is_relative_to_the_minimum() {
        assert_eq!(noise_pct(&[10.0, 11.0, 12.0]), 10.0);
        assert_eq!(noise_pct(&[10.0, 10.0, 10.0]), 0.0);
    }
}
