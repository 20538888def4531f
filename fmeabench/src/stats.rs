//! Percentiles over timing samples.

/// Timing samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

/// The tail of a sample set: the highest whole percentile with at least
/// ten samples beyond it, the value there, and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub n: usize,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn p50(&self) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "median of no samples");
        let mid = v.len() / 2;
        if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        }
    }

    /// The highest whole percentile `p` whose nearest-rank sample leaves at
    /// least ten samples above it. Needs at least eleven samples.
    pub fn tail(&self) -> Tail {
        let v = self.sorted();
        let n = v.len();
        assert!(n >= 11, "a tail needs at least 11 samples, got {n}");
        let percentile = (100 * (n - 10) / n) as u32;
        // nearest rank: ceil(p * n / 100), 1-based
        let rank = (percentile as usize * n).div_ceil(100).max(1);
        debug_assert!(n - rank >= 10);
        Tail {
            percentile,
            value: v[rank - 1],
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in 11..300 {
            let mut s = Samples::default();
            for i in 0..n {
                s.push(i as f64);
            }
            let t = s.tail();
            let beyond = s.0.iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= 10, "n={n} p={} beyond={beyond}", t.percentile);
            // one percentile higher would leave fewer than ten
            let next = ((t.percentile as usize + 1) * n).div_ceil(100);
            assert!(t.percentile == 99 || n - next < 10, "n={n}");
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        let mut s = Samples::default();
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.p50(), 2.0);
        s.push(4.0);
        assert_eq!(s.p50(), 2.5);
    }
}
