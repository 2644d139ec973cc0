//! Order statistics for the reported metrics.

/// Median of `values` (mean of the middle two for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples that must lie beyond the reported tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The reported tail of a latency sample: the highest percentile with
/// at least [`TAIL_MIN_BEYOND`] samples beyond it, i.e. the order
/// statistic with exactly that many samples above it. Failed requests
/// enter as `+inf`, so they count as missing any latency limit.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Median and tail of `samples`. With too few samples for ten to lie
/// beyond anything, the tail is the maximum.
pub fn p50_and_tail(samples: &[f64]) -> (f64, Tail) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        let t = Tail {
            percentile: f64::NAN,
            value: f64::NAN,
            samples: 0,
        };
        return (f64::NAN, t);
    }
    let p50 = median(&v);
    let rank = n.saturating_sub(TAIL_MIN_BEYOND).max(1);
    let tail = Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    };
    (p50, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=400).map(f64::from).collect();
        let (p50, tail) = p50_and_tail(&samples);
        assert_eq!(p50, 200.5);
        // 390 is the 97.5th percentile; 391..=400 lie beyond it.
        assert_eq!(tail.percentile, 97.5);
        assert_eq!(tail.value, 390.0);
        assert_eq!(tail.samples, 400);
    }

    #[test]
    fn failures_push_the_tail_to_infinity() {
        let mut samples = vec![1.0; 100];
        samples.extend([f64::INFINITY; 20]);
        let (_, tail) = p50_and_tail(&samples);
        assert!(tail.value.is_infinite());
    }
}
