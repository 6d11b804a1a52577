//! Order statistics over timing samples.

/// Median of `v` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail percentile every latency is reported at: the highest level
/// that leaves at least ten samples beyond it in a typical run of every
/// workload. Fixed rather than chosen per run, so that a seed with a few
/// more updates does not jump to another percentile; each label reports
/// the samples actually beyond it.
pub const TAIL_LEVEL: f64 = 0.75;

/// A tail percentile with the population it was taken over.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub samples: usize,
}

impl Tail {
    /// Samples strictly beyond the percentile's rank.
    pub fn beyond(&self) -> usize {
        self.samples - rank(self.samples.max(1), TAIL_LEVEL).min(self.samples)
    }

    /// `p75 of 120, 30 beyond` style label.
    pub fn label(&self) -> String {
        format!("p{} of {}, {} beyond", TAIL_LEVEL * 100.0, self.samples, self.beyond())
    }
}

/// The [`TAIL_LEVEL`] percentile of `v`.
pub fn tail(v: &[f64]) -> Tail {
    Tail { value: percentile(v, TAIL_LEVEL), samples: v.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_counts_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v[..40]);
        assert_eq!((t.value, t.beyond()), (30.0, 10));
        assert_eq!(tail(&v[..2]).beyond(), 0);
        assert_eq!(tail(&[]).beyond(), 0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
