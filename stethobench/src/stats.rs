//! Summary statistics for timings.

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly above the `q` percentile: how much evidence it rests on.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q);
    samples.iter().filter(|&&x| x > p).count()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Split each session's wall clock into the time its stages account for
/// and the remainder spent waiting (sleeps, read timeouts, polls).
/// Returns the means of session, stage sum and wait, which add up exactly.
pub fn session_split(session_ms: &[f64], stage_sum_ms: &[f64]) -> (f64, f64, f64) {
    assert_eq!(session_ms.len(), stage_sum_ms.len());
    let wait: Vec<f64> = session_ms
        .iter()
        .zip(stage_sum_ms)
        .map(|(s, st)| s - st)
        .collect();
    (mean(session_ms), mean(stage_sum_ms), mean(&wait))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(beyond(&v, 0.9), 10);
    }

    #[test]
    fn wait_is_the_remainder_of_the_session() {
        let session = [72.0, 80.0, 70.0];
        let stages = [7.0, 9.0, 5.5];
        let (s, st, w) = session_split(&session, &stages);
        assert_eq!(s, 74.0);
        assert!((st + w - s).abs() < 1e-9);
        assert!((w - (65.0 + 71.0 + 64.5) / 3.0).abs() < 1e-9);
    }
}
