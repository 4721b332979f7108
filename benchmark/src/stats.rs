//! Order statistics over small sample sets.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for no samples (a run with no samples is reported failed).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    quantile_sorted(&sorted(samples), 0.5)
}

/// Percentile `p` (0–100), or `None` unless at least [`TAIL_SUPPORT`]
/// samples lie beyond it: a p90 of 30 samples is three samples, not a tail.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let at_or_below = (samples.len() as f64 * p / 100.0).ceil() as usize;
    if samples.len().saturating_sub(at_or_below) < TAIL_SUPPORT {
        return None;
    }
    Some(quantile_sorted(&sorted(samples), p / 100.0))
}

/// The highest whole percentile the sample supports and its value, or
/// `None` when even the median has fewer than [`TAIL_SUPPORT`] samples
/// beyond it.
pub fn highest_supported_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    (50..=99)
        .rev()
        .map(f64::from)
        .find_map(|p| percentile(samples, p).map(|v| (p, v)))
}

/// `(max − min) / median`: the within-set spread the A/A report prints.
pub fn range_over_median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match (s.first(), s.last()) {
        (Some(min), Some(max)) => (max - min) / quantile_sorted(&s, 0.5),
        _ => f64::NAN,
    }
}
