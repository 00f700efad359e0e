//! Percentile and median arithmetic over latency samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` of the samples at or below it. `None` when
/// there are no samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a list of values (mean of the two middle values for an even
/// count). `None` when the list is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Sorts the samples and returns `(p50, p99)` in microseconds.
pub fn p50_p99_us(samples_ns: &mut [u64]) -> Option<(f64, f64)> {
    samples_ns.sort_unstable();
    let p50 = percentile(samples_ns, 0.50)?;
    let p99 = percentile(samples_ns, 0.99)?;
    Some((p50 as f64 / 1e3, p99 as f64 / 1e3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        // 2 700 samples leave 27 beyond p99.
        let v: Vec<u64> = (1..=2700).collect();
        assert_eq!(percentile(&v, 0.99), Some(2673));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p50_p99_sorts_and_converts_to_microseconds() {
        let mut ns: Vec<u64> = (1..=1000).rev().map(|i| i * 1000).collect();
        assert_eq!(p50_p99_us(&mut ns), Some((500.0, 990.0)));
        assert_eq!(p50_p99_us(&mut []), None);
    }
}
