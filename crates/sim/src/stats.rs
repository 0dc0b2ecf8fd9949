//! Summary statistics for repeated runs.

use std::fmt;

/// Mean / standard deviation / extrema of a sample.
///
/// # Example
///
/// ```
/// use bc_sim::Summary;
///
/// let s = Summary::of(&[1.0, 2.0, 3.0]);
/// assert_eq!(s.mean, 2.0);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises a sample. Returns an all-zero summary for an empty
    /// slice.
    pub fn of(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Summary {
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64; // cast-ok: sample count to divisor
        let var = if n < 2 {
            0.0
        } else {
            let dof = (n - 1) as f64; // cast-ok: sample count to divisor
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / dof
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            mean,
            std: var.sqrt(),
            min,
            max,
            n,
        }
    }

    /// Half-width of the ~95 % normal-approximation confidence interval.
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std / (self.n as f64).sqrt() // cast-ok: sample count to divisor
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ± {:.3} (n={})", self.mean, self.ci95(), self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.ci95(), 0.0);
    }

    #[test]
    fn empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = Summary::of(&[1.0, 2.0, 3.0]);
        let many: Vec<f64> = (0..300).map(|i| 1.0 + (i % 3) as f64).collect();
        let many = Summary::of(&many);
        assert!(many.ci95() < few.ci95());
    }

    #[test]
    fn display_contains_mean() {
        assert!(format!("{}", Summary::of(&[1.0, 1.0])).contains("1.000"));
    }
}
