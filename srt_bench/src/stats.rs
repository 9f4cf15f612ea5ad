//! Order statistics for the result rows: percentiles, the
//! segment-median p99 and the quartile spread `compare` reports.

/// Sorts a sample ascending (`total_cmp`, so a stray NaN cannot panic).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `q` of the sample at or below it. Empty input reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Samples a phase needs before its p99 is cut into three segments.
/// At 3000 every segment keeps ten samples beyond its own p99; the
/// floor is lower because the one phase between the two
/// (`wire_anytime`, 1280 samples) has a tail that is a plateau at the
/// deadline, where four samples beyond are as good as forty.
pub const SEGMENTED_P99_MIN: usize = 1200;

/// The tail metric of a latency phase, over samples in arrival order.
///
/// With at least [`SEGMENTED_P99_MIN`] samples the phase is cut into
/// three equal segments and the result is the median of the three
/// segment p99s, so one machine stall (which lands in one segment)
/// cannot own the metric. Shorter phases report the plain p99.
pub fn p99_stall_resistant(in_order: &[f64]) -> f64 {
    if in_order.len() < SEGMENTED_P99_MIN {
        return percentile(&sorted(in_order.to_vec()), 0.99);
    }
    let seg = in_order.len() / 3;
    let p99s: Vec<f64> = (0..3)
        .map(|k| percentile(&sorted(in_order[k * seg..(k + 1) * seg].to_vec()), 0.99))
        .collect();
    median(&p99s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn short_phase_reports_plain_p99() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(p99_stall_resistant(&v), 989.0);
    }

    #[test]
    fn one_stall_cannot_own_the_segmented_p99() {
        // 3000 samples at 1.0 with a 2% tail at 3.0 in every segment,
        // plus one stall that puts 40 consecutive samples at 50.0.
        let mut v = vec![1.0; 3000];
        for (i, x) in v.iter_mut().enumerate() {
            if i % 50 == 0 {
                *x = 3.0;
            }
        }
        for x in &mut v[1200..1240] {
            *x = 50.0;
        }
        assert_eq!(percentile(&sorted(v.clone()), 0.99), 50.0);
        assert_eq!(p99_stall_resistant(&v), 3.0);
    }
}
