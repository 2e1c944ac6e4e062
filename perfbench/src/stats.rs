//! Order statistics over latency samples.
//!
//! A percentile is only reported when the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie strictly above the rank it names, or
//! the run fails instead of printing a number that one outlier decides.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples per window when a run's samples are split into consecutive
/// windows. A reported median is the median of the per-window medians:
/// on a shared machine a CPU spends seconds at a time slowed by its
/// neighbours, and a stretch like that moves a few windows rather than
/// the whole run. Tails are never windowed (see [`whole_run_quantile`]):
/// a stall that lands in few windows is exactly what a p99 must show.
pub const WINDOW_SAMPLES: usize = 2000;

/// Most windows a run is split into.
pub const MAX_WINDOWS: usize = 20;

/// Windows for `n` samples: as many whole windows of
/// [`WINDOW_SAMPLES`] as fit, between 1 and [`MAX_WINDOWS`].
pub fn windows_for(n: usize) -> usize {
    (n / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS)
}

/// Nearest-rank `q`-quantile of an ascending slice. Refused when fewer
/// than [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn quantile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples has {beyond} beyond it; {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// The `q`-quantile of each of `windows` equal consecutive windows of
/// `samples` (in arrival order). Every window must support it.
pub fn per_window(samples: &[f64], q: f64, windows: usize) -> Result<Vec<f64>, String> {
    let width = samples.len() / windows;
    (0..windows)
        .map(|w| {
            let mut window = samples[w * width..(w + 1) * width].to_vec();
            window.sort_by(f64::total_cmp);
            quantile(&window, q)
        })
        .collect()
}

/// The `q`-quantile over every sample of the run, refused like
/// [`quantile`].
pub fn whole_run_quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

/// The median of [`per_window`].
pub fn windowed_quantile(samples: &[f64], q: f64, windows: usize) -> Result<f64, String> {
    Ok(median(&per_window(samples, q, windows)?))
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_refused_with_fewer_than_ten_samples_beyond_it() {
        // 1009 samples: rank ceil(0.99 * 1009) = 999, so 10 lie beyond.
        assert_eq!(quantile(&ramp(1009), 0.99), Ok(999.0));
        // 1000 samples: rank 990, only 10 beyond — still enough.
        assert_eq!(quantile(&ramp(1000), 0.99), Ok(990.0));
        // 999 samples: rank 990, 9 beyond — refused.
        let err = quantile(&ramp(999), 0.99).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn median_needs_ten_above_it_too() {
        assert_eq!(quantile(&ramp(20), 0.5), Ok(10.0));
        assert!(quantile(&ramp(19), 0.5).is_err());
    }

    #[test]
    fn every_window_must_support_the_percentile() {
        // 5 windows of 1000: each p99 has exactly 10 beyond.
        let samples = ramp(5000);
        assert_eq!(
            per_window(&samples, 0.99, 5),
            Ok(vec![990.0, 1990.0, 2990.0, 3990.0, 4990.0])
        );
        assert_eq!(windowed_quantile(&samples, 0.99, 5), Ok(2990.0));
        // 4995 samples: windows of 999, each p99 has 9 beyond.
        assert!(windowed_quantile(&ramp(4995), 0.99, 5).is_err());
        // One window is the whole-run quantile.
        assert_eq!(windowed_quantile(&ramp(1009), 0.99, 1), Ok(999.0));
    }

    #[test]
    fn a_stall_in_one_window_moves_the_whole_run_p99_not_the_median() {
        // A stall in one window of twenty, and four more windows 1.5x
        // slower: the windowed median stays at the unslowed cost, while
        // the whole-run p99 reports the stall.
        let mut samples = vec![2.0; 20 * 100];
        for s in &mut samples[..40] {
            *s = 100.0;
        }
        samples[500..900].iter_mut().for_each(|s| *s = 3.0);
        assert_eq!(windowed_quantile(&samples, 0.5, 20), Ok(2.0));
        assert_eq!(whole_run_quantile(&samples, 0.99), Ok(100.0));
        assert_eq!(whole_run_quantile(&samples, 0.98), Ok(3.0));
        assert!(whole_run_quantile(&samples[..999], 0.99).is_err());
    }

    #[test]
    fn window_count_follows_the_sample_count() {
        assert_eq!(windows_for(0), 1);
        assert_eq!(windows_for(3999), 1);
        assert_eq!(windows_for(4000), 2);
        assert_eq!(windows_for(10_000_000), MAX_WINDOWS);
        // A run too short for even one p99 is still refused.
        assert!(windowed_quantile(&ramp(999), 0.99, windows_for(999)).is_err());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
