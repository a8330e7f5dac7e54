//! The benchmark's estimators: mid-distribution quantiles over exact sample
//! vectors, the admissible-percentile rule, and the lap estimator that
//! makes host-clock numbers repeat.

/// The percentiles a timing may be reported at, in ascending order.
pub const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond the
/// `p` quantile. Counted in integers (parts per 10 000) so that 10 000
/// samples admit p99.9 exactly.
pub fn admissible(n: usize, p: f64) -> bool {
    let beyond_per_10k = 10_000 - (p * 10_000.0).round() as usize;
    n * beyond_per_10k >= MIN_TAIL_SAMPLES * 10_000
}

/// The highest of [`PERCENTILES`] that `n` samples can support, if any.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().copied().rfind(|&p| admissible(n, p))
}

/// The `p` quantile of an ascending-sorted sample vector, by the
/// mid-distribution rule (0 when empty).
///
/// Simulated latencies are discrete: on `dev-steady` more than half of
/// all ops are a cache-hit page program and cost the same nanoseconds,
/// so a nearest-rank median is one constant of the timing model and
/// moves only when a change pushes a whole class across the 50 % line.
/// Here each distinct value `v` sits at `F_mid(v) = P(X < v) + P(X = v)/2`
/// and the quantile is read off the straight lines between those points
/// (Parzen's mid-quantile). With all-distinct samples this is the usual
/// interpolated quantile; with ties it moves smoothly with the share of
/// ops in each latency class, which is what a regression check wants.
pub fn quantile(sorted: &[u64], p: f64) -> f64 {
    let n = sorted.len() as f64;
    let mut prev: Option<(f64, f64)> = None; // (F_mid, value) of the class before
    let mut i = 0;
    while i < sorted.len() {
        let v = sorted[i];
        let run = sorted[i..].iter().take_while(|&&x| x == v).count();
        let f_mid = (i as f64 + run as f64 / 2.0) / n;
        if p <= f_mid {
            return match prev {
                Some((f0, v0)) => v0 + (p - f0) / (f_mid - f0) * (v as f64 - v0),
                None => v as f64,
            };
        }
        prev = Some((f_mid, v as f64));
        i += run;
    }
    prev.map_or(0.0, |(_, v)| v)
}

/// Median of a float slice (0 when empty); the slice is sorted in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The host-time estimator over K identical laps: the **second-fastest**.
///
/// Host noise on a shared machine is one-sided — a lap is slowed by its
/// neighbours, never sped up — so the low end of the lap times is the
/// repeatable part. The minimum itself is the one value a lucky
/// scheduling quirk can produce; the second-smallest needs two laps to
/// agree. With one lap it is that lap, with two the slower one.
pub fn second_fastest(lap_ns: &[u64]) -> u64 {
    let mut v = lap_ns.to_vec();
    v.sort_unstable();
    v.get(1).or(v.first()).copied().unwrap_or(0)
}

/// `(slowest − fastest) ÷ fastest` over the laps: the noise the
/// estimator removed.
pub fn lap_spread(lap_ns: &[u64]) -> f64 {
    match (lap_ns.iter().min(), lap_ns.iter().max()) {
        (Some(&lo), Some(&hi)) if lo > 0 => (hi - lo) as f64 / lo as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_wants_ten_samples_beyond() {
        assert_eq!(highest_percentile(9), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(99), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(9_999), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(highest_percentile(12_000), Some(0.999));
        assert_eq!(highest_percentile(100_000), Some(0.9999));
        assert!(admissible(10_000, 0.999) && !admissible(9_999, 0.999));
    }

    #[test]
    fn quantile_interpolates_between_mid_distribution_points() {
        // All distinct: the usual interpolated quantile.
        let v: Vec<u64> = (1..=100).collect();
        assert!((quantile(&v, 0.5) - 50.5).abs() < 1e-9);
        assert!((quantile(&v, 0.99) - 99.5).abs() < 1e-9);
        assert_eq!(quantile(&v, 0.999), 100.0);
        assert_eq!(quantile(&[7], 0.5), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Ties: 30 fast ops, 70 slow ones. F_mid(10) = 0.15, F_mid(20) =
        // 0.65, so the median lies 70 % of the way from 10 to 20 ...
        let mut v = vec![10u64; 30];
        v.extend(vec![20u64; 70]);
        assert!((quantile(&v, 0.5) - 17.0).abs() < 1e-9);
        // ... and moves when five ops change class, where a nearest-rank
        // median would still read 20.
        let mut w = vec![10u64; 35];
        w.extend(vec![20u64; 65]);
        assert!(quantile(&w, 0.5) < quantile(&v, 0.5));
        // Never outside the sample range.
        assert_eq!(quantile(&v, 0.01), 10.0);
        assert_eq!(quantile(&v, 0.9999), 20.0);
    }

    #[test]
    fn second_fastest_lap_ignores_one_lucky_and_all_slow_laps() {
        assert_eq!(second_fastest(&[500, 420, 405, 472, 431]), 420);
        assert_eq!(second_fastest(&[9, 3]), 9);
        assert_eq!(second_fastest(&[4]), 4);
        assert_eq!(second_fastest(&[]), 0);
        // One slow outlier does not move it; one fast outlier moves it
        // only to the next-fastest honest lap.
        assert_eq!(second_fastest(&[100, 101, 102, 103, 900]), 101);
        assert_eq!(second_fastest(&[60, 101, 102, 103, 104]), 101);
        assert!((lap_spread(&[405, 472, 431]) - 67.0 / 405.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
