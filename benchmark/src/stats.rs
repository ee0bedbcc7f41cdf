//! Order statistics over per-cell timings.

/// Median of `values`; the mean of the two middle values for an even
/// count. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)`, so exactly `n − rank` samples lie beyond it.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // up a rank that is exact in decimal.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Tail percentiles considered, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail timing and the percentile it was read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
}

impl Tail {
    /// The printed label, e.g. `p90` or `p99.9`.
    pub fn label(&self) -> String {
        format!("p{}", self.percentile)
    }
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it (p90 at 100 samples, p75 at 40). With fewer than 40
/// samples no tail qualifies and the nearest-rank p50 is reported.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            percentile: 50.0,
            value: f64::NAN,
        };
    }
    let percentile = TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile,
        value: nearest_rank(&sorted, percentile),
    }
}
