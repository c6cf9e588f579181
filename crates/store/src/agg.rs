//! Order statistics shared by the query layer and the criterion shim.
//!
//! One implementation of median / nearest-rank percentiles / Tukey IQR
//! outlier fences serves both `cutelock report` and the bench harness, so
//! the numbers in a saved baseline and the numbers printed by a bench run
//! can never drift apart.
//!
//! All `u64` entry points take **sorted** slices and do their internal
//! arithmetic widened to `u128`, which matches `std::time::Duration`
//! averaging exactly and cannot overflow on adversarial inputs (the
//! property tests feed full-range `u64`s).

/// The median of a sorted slice: the middle element, or the floor-average
/// of the two middle elements for even lengths (`Duration` semantics).
pub fn median_u64(sorted: &[u64]) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let m = if n % 2 == 1 {
        u128::from(sorted[n / 2])
    } else {
        (u128::from(sorted[n / 2 - 1]) + u128::from(sorted[n / 2])) / 2
    };
    Some(m as u64)
}

/// The nearest-rank `p`-th percentile of a sorted slice: the element at
/// rank `ceil(p/100 * n)` (1-based), clamped into range. Note this differs
/// from [`median_u64`] at even lengths — the median averages the two middle
/// elements, `percentile(50)` picks one — which is why summaries report
/// both.
pub fn percentile_u64(sorted: &[u64], p: f64) -> Option<u64> {
    let idx = percentile_index(sorted.len(), p)?;
    Some(sorted[idx])
}

/// [`median_u64`] over floats (`total_cmp`-sorted input; averages via the
/// usual `(a + b) / 2`).
pub fn median_f64(sorted: &[f64]) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// [`percentile_u64`] over floats.
pub(crate) fn percentile_f64(sorted: &[f64], p: f64) -> Option<f64> {
    let idx = percentile_index(sorted.len(), p)?;
    Some(sorted[idx])
}

/// 0-based nearest-rank index shared by the percentile entry points.
fn percentile_index(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !p.is_finite() {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as isize;
    Some(rank.clamp(1, n as isize) as usize - 1)
}

/// The subslice of a sorted slice that survives Tukey IQR rejection.
///
/// With fewer than five samples the whole slice is kept. Otherwise, with
/// `q1 = sorted[n/4]` and `q3 = sorted[3n/4]`, everything outside
/// `[q1 - 1.5*iqr, q3 + 1.5*iqr]` is dropped (the low fence saturates at
/// zero). Kept elements are contiguous in sorted order, so the result is a
/// subslice, not a copy.
pub fn tukey_keep_u64(sorted: &[u64]) -> &[u64] {
    let n = sorted.len();
    if n < 5 {
        return sorted;
    }
    let q1 = u128::from(sorted[n / 4]);
    let q3 = u128::from(sorted[(3 * n) / 4]);
    let iqr = q3.saturating_sub(q1);
    let lo = q1.saturating_sub(iqr * 3 / 2);
    let hi = q3 + iqr * 3 / 2;
    let start = sorted.partition_point(|&s| u128::from(s) < lo);
    let end = sorted.partition_point(|&s| u128::from(s) <= hi);
    &sorted[start..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median_u64(&[]), None);
        assert_eq!(median_u64(&[7]), Some(7));
        assert_eq!(median_u64(&[1, 3, 9]), Some(3));
        assert_eq!(median_u64(&[1, 3, 9, 9]), Some(6));
        // Widened math: averaging the two middle values cannot overflow,
        // and the result floors back to u64::MAX - 1.
        assert_eq!(median_u64(&[u64::MAX - 1, u64::MAX]), Some(u64::MAX - 1));
        assert_eq!(median_u64(&[u64::MAX, u64::MAX]), Some(u64::MAX));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10, 20, 30, 40, 50];
        assert_eq!(percentile_u64(&s, 0.0), Some(10));
        assert_eq!(percentile_u64(&s, 50.0), Some(30));
        assert_eq!(percentile_u64(&s, 90.0), Some(50));
        assert_eq!(percentile_u64(&s, 100.0), Some(50));
        assert_eq!(percentile_u64(&s, 200.0), Some(50), "clamped");
        assert_eq!(percentile_u64(&[], 50.0), None);
        assert_eq!(percentile_u64(&s, f64::NAN), None);
    }

    #[test]
    fn median_f64_and_percentile_f64_mirror_u64() {
        assert_eq!(median_f64(&[1.0, 2.0]), Some(1.5));
        assert_eq!(median_f64(&[1.0, 2.0, 4.0]), Some(2.0));
        assert_eq!(median_f64(&[]), None);
        assert_eq!(percentile_f64(&[1.0, 2.0, 4.0], 100.0), Some(4.0));
    }

    #[test]
    fn tukey_keeps_small_samples_whole() {
        let s = [0, 1, 1_000_000];
        assert_eq!(tukey_keep_u64(&s), &s);
    }

    #[test]
    fn tukey_drops_a_far_outlier() {
        // Matches the shim's pinned behavior: 9 clean ~12ms samples plus a
        // 80ms hiccup; the hiccup falls outside the high fence.
        let mut s = vec![
            12_000_000u64,
            12_100_000,
            11_900_000,
            12_050_000,
            11_950_000,
            12_000_000,
            12_020_000,
            11_980_000,
            12_010_000,
            80_000_000,
        ];
        s.sort_unstable();
        let kept = tukey_keep_u64(&s);
        assert_eq!(kept.len(), 9);
        assert!(kept.iter().all(|&v| v < 13_000_000));
    }

    #[test]
    fn tukey_low_fence_saturates_at_zero() {
        let s = [0u64, 1, 2, 3, 4, 5, 6, 7];
        assert_eq!(tukey_keep_u64(&s), &s);
    }
}
