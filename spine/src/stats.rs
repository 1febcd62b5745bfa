//! Percentiles, medians and the run-to-run spread.

/// The `p`-th percentile (0 < p ≤ 100) of `values` by nearest rank: the
/// smallest value with at least `p` percent of the sample at or below it.
/// `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`] of nanosecond samples, scaled by `per_unit` nanoseconds
/// (1e6 for milliseconds, 1e3 for microseconds).
pub fn percentile_ns(ns: &[u64], p: f64, per_unit: f64) -> Option<f64> {
    let values: Vec<f64> = ns.iter().map(|&v| v as f64 / per_unit).collect();
    percentile(&values, p)
}

/// The mean of the slowest tenth of nanosecond samples without the
/// slowest hundredth, scaled like [`percentile_ns`]: the band from p90 to
/// p99. Frame times over the socket are quantised by the kernel's
/// delayed-ACK timer, so a tail *percentile* flips between two values as
/// the share of slow frames crosses it; the mean of the band moves
/// smoothly with that share, and one stray stall does not move it at all.
pub fn tail_mean_ns(ns: &[u64], per_unit: f64) -> Option<f64> {
    if ns.is_empty() {
        return None;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let end = n - n / 100;
    let start = (n - n.div_ceil(10)).min(end - 1);
    let band = &sorted[start..end];
    Some(band.iter().map(|&v| v as f64).sum::<f64>() / band.len() as f64 / per_unit)
}

/// The median as the mean of the two middle values for an even count (what
/// Python's `statistics.median` returns).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // The i-th of four cut points sits at position i(n+1)/4, counting
        // from 1, clamped to the sample and interpolated linearly.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile_ns(&[2_000_000, 4_000_000], 50.0, 1e6), Some(2.0));
    }

    #[test]
    fn tail_mean_is_over_the_p90_to_p99_band() {
        // 91..=99 of 1..=100: the slowest tenth without the slowest one.
        let v: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert_eq!(tail_mean_ns(&v, 1e6), Some(95.0));
        // Fewer than ten samples: the slowest one.
        assert_eq!(tail_mean_ns(&[3_000, 9_000, 1_000], 1e3), Some(9.0));
        assert_eq!(tail_mean_ns(&[], 1.0), None);
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
