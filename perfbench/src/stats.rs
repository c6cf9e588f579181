//! Latency summaries. Every median and percentile comes from
//! `cutelock_store::agg`; this module only picks which percentile is the
//! tail.

use cutelock_store::agg::{median_u64, percentile_u64};

/// Samples a tail percentile must leave beyond it.
const BEYOND: usize = 10;

/// Median and tail of one latency sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// The tail's percentile, or `None` when fewer than 20 samples leave
    /// no percentile ≥ 50 with ten samples beyond it (the tail then falls
    /// back to the median).
    pub tail_p: Option<f64>,
}

impl Summary {
    pub fn tail_label(&self) -> String {
        match self.tail_p {
            Some(p) => format!("p{p}"),
            None => "p50 (n<20, no tail)".to_string(),
        }
    }
}

/// The highest percentile on a 0.1 grid from 50 to 99.9 whose nearest
/// rank (as `agg` computes it) still leaves at least ten of `n` samples
/// beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (500..=999).rev().map(|pm| pm as f64 / 10.0).find(|&p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        rank >= 1 && n.saturating_sub(rank) >= BEYOND
    })
}

/// Summarizes latencies given in nanoseconds; `None` for no samples.
pub fn summarize(lat_ns: &[u64]) -> Option<Summary> {
    let mut sorted = lat_ns.to_vec();
    sorted.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let p50 = median_u64(&sorted)?;
    let tail_p = tail_percentile(sorted.len());
    let tail = match tail_p {
        Some(p) => percentile_u64(&sorted, p)?,
        None => p50,
    };
    Some(Summary {
        n: sorted.len(),
        p50_ms: ms(p50),
        tail_ms: ms(tail),
        tail_p,
    })
}

/// Median of float samples through `agg`.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    cutelock_store::agg::median_f64(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(150), Some(93.3));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.9));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            assert!(n - rank >= BEYOND, "n={n} p={p}");
            // One grid step higher would leave fewer than ten beyond.
            let up = ((p * 10.0).round() + 1.0) / 10.0;
            if up < 99.95 {
                let r = (up / 100.0 * n as f64).ceil() as usize;
                assert!(n - r < BEYOND, "n={n} p={p} is not the highest");
            }
        }
    }

    #[test]
    fn summary_on_known_vectors() {
        // 1..=100 ms: median 50.5 ms, p90 is the 90th sample.
        let v: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50_ms, 50.5);
        assert_eq!(s.tail_p, Some(90.0));
        assert_eq!(s.tail_ms, 90.0);
        // 20 samples: the tail is the 10th, with ten beyond it.
        let v: Vec<u64> = (1..=20).rev().map(|i| i * 1_000_000).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.tail_p, s.tail_ms), (Some(50.0), 10.0));
        // Too few samples for a tail: falls back to the median.
        let s = summarize(&[3_000_000, 1_000_000, 2_000_000]).unwrap();
        assert_eq!((s.tail_p, s.tail_ms, s.p50_ms), (None, 2.0, 2.0));
        assert!(summarize(&[]).is_none());
    }
}
