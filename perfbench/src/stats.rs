//! Order statistics over measured samples.

use std::time::Duration;

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (sorted in place).
/// `NaN` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (nearest rank).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Durations as fractional units of `per_second` (1e6 for µs).
pub fn scaled(durations: &[Duration], per_second: f64) -> Vec<f64> {
    durations
        .iter()
        .map(|d| d.as_secs_f64() * per_second)
        .collect()
}

/// Mean of `values` (`0` for an empty slice).
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

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }
}
