//! Order statistics over run samples.

/// The percentile ladder a tail is reported from, in per mille.
const TAILS: [usize; 4] = [900, 950, 990, 999];

/// At most this many values are kept per sample set.
const KEPT: usize = 1 << 16;

/// A sample set of bounded size: every value until `KEPT` are held, then
/// every second one, every fourth… — always the values at multiples of
/// the current stride, so two sets fed in step keep the same positions,
/// and the benchmark's memory does not grow with the speed of what it
/// measures.
#[derive(Debug, Clone)]
pub struct Decimated {
    kept: Vec<f64>,
    stride: u64,
    seen: u64,
}

impl Default for Decimated {
    fn default() -> Self {
        Decimated {
            kept: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }
}

impl Decimated {
    pub fn push(&mut self, value: f64) {
        if self.seen.is_multiple_of(self.stride) && self.kept.len() == KEPT {
            let mut index = 0;
            self.kept.retain(|_| {
                index += 1;
                index % 2 == 1
            });
            self.stride *= 2;
        }
        if self.seen.is_multiple_of(self.stride) {
            self.kept.push(value);
        }
        self.seen += 1;
    }

    /// Values pushed, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    pub fn kept(&self) -> &[f64] {
        &self.kept
    }

    pub fn median(&mut self) -> f64 {
        median(&mut self.kept)
    }

    pub fn percentile(&mut self, p: f64) -> f64 {
        percentile(&mut self.kept, p)
    }

    /// Pool another set's kept values with this one's.
    pub fn merge(&mut self, other: Decimated) {
        self.kept.extend(other.kept);
        self.seen += other.seen;
    }
}

/// Sorts `samples` and returns the `p`-th percentile (0–100), linearly
/// interpolated between the two nearest ranks. Empty input gives 0.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let sorted = &*samples;
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of the ladder (90, 95, 99, 99.9) that still has
/// at least ten samples beyond it; `None` below 100 samples, where even
/// p90 would rest on fewer than ten.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rfind(|&&p| n * (1000 - p) >= 10_000)
        .map(|&p| p as f64 / 10.0)
}

/// `want` capped at the highest percentile `n` samples support, falling
/// back to the median when no tail is supported.
pub fn supported_tail(n: usize, want: f64) -> f64 {
    highest_supported_tail(n).map_or(50.0, |p| p.min(want))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let mut v = vec![40.0, 10.0, 30.0, 20.0];
        assert_eq!(median(&mut v), 25.0);
        assert_eq!(percentile(&mut v, 0.0), 10.0);
        assert_eq!(percentile(&mut v, 100.0), 40.0);
        assert_eq!(percentile(&mut v, 75.0), 32.5);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
    }

    #[test]
    fn decimated_keeps_multiples_of_its_stride() {
        let mut set = Decimated::default();
        for i in 0..(3 * KEPT as u64) {
            set.push(i as f64);
        }
        assert_eq!(set.seen(), 3 * KEPT as u64);
        assert_eq!(set.stride, 4, "halved at KEPT and again at 2 * KEPT values");
        assert!(set.kept().len() <= KEPT && set.kept().len() >= KEPT / 2);
        assert!(set
            .kept()
            .iter()
            .enumerate()
            .all(|(k, v)| *v == (4 * k) as f64));
        // The median of a uniform ramp survives decimation.
        let mid = 1.5 * KEPT as f64;
        assert!((set.median() - mid).abs() <= 4.0);
        let mut small = Decimated::default();
        [3.0, 1.0, 2.0].into_iter().for_each(|v| small.push(v));
        assert_eq!((small.median(), small.seen()), (2.0, 3));
        small.merge(set);
        assert_eq!(small.seen(), 3 + 3 * KEPT as u64);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(199), Some(90.0));
        assert_eq!(highest_supported_tail(200), Some(95.0));
        assert_eq!(highest_supported_tail(1_000), Some(99.0));
        assert_eq!(highest_supported_tail(9_999), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(50, 99.0), 50.0);
        assert_eq!(supported_tail(300, 99.0), 95.0);
        assert_eq!(supported_tail(100_000, 95.0), 95.0);
    }
}
