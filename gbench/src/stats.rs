//! Order statistics for the per-rep samples.

/// Median of `xs` (the mean of the middle two for an even count), as
/// Python's `statistics.median` computes it. `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles of `xs`, as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them. One sample is its own quartiles; `NaN` when empty.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let len = s.len();
    if len < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A sample's median, quartiles and size — how every metric is reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The samples, in the order they were taken.
    pub values: Vec<f64>,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: Vec<f64>) -> Self {
        let (q1, q3) = quartiles(&values);
        Summary {
            median: median(&values),
            q1,
            q3,
            values,
        }
    }

    /// A single measurement.
    pub fn one(v: f64) -> Self {
        Self::of(vec![v])
    }

    /// Interquartile distance as a share of the median's magnitude
    /// (0 when the median is 0 and the quartiles agree).
    pub fn spread(&self) -> f64 {
        let width = self.q3 - self.q1;
        if width == 0.0 {
            0.0
        } else {
            width / self.median.abs()
        }
    }
}
