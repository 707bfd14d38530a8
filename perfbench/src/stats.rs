//! The benchmark's statistics: medians, the tail percentile, ratios over
//! attempted cells and metric-name validation.

/// The median of `values` (the mean of the two middle values for an even
/// count); `None` for an empty slice.
pub(crate) fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples needed beyond a reported tail percentile.
pub(crate) const TAIL_BEYOND: usize = 10;

/// The nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The highest whole percentile in `50..=99` that leaves at least
/// [`TAIL_BEYOND`] samples above it; `None` when even the median does not
/// (fewer than 20 samples).
pub(crate) fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n - rank(p, n).min(n) >= TAIL_BEYOND)
}

/// A tail statistic: which percentile was reported, its value, the sample
/// count and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Tail {
    /// The percentile reported (50 when there are too few samples for a
    /// higher one).
    pub percentile: u32,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// The tail of `values`, the cells of every pass together, at the
/// [`tail_percentile`] of one pass's `per_pass` cells (nearest rank over all
/// of `values`): the highest percentile that leaves at least [`TAIL_BEYOND`]
/// cells of every pass beyond it. Fixing it by the pass keeps a run with
/// more passes from reporting a higher percentile. Falls back to the median
/// when a pass has fewer than 20 cells; `None` for an empty slice.
pub(crate) fn tail(values: &[f64], per_pass: usize) -> Option<Tail> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let percentile = tail_percentile(per_pass).unwrap_or(50);
    let position = rank(percentile, n);
    Some(Tail {
        percentile,
        value: sorted[position - 1],
        samples: n,
        beyond: n - position,
    })
}

/// `part / whole`, 0 when there is no whole. The end-to-end ratios divide
/// by attempted cells, errors and panics included, so a cell that fails
/// still counts.
pub(crate) fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_inputs() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(126), Some(92));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100_000), Some(99));
        for n in 20..2000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - rank(p + 1, n) < TAIL_BEYOND,
                    "n={n}: p{} also fits",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn tail_reports_value_count_and_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        let t = tail(&values, 100).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (90, 90.0, 100, 10)
        );
        let few = tail(&[2.0, 9.0, 4.0], 3).unwrap();
        assert_eq!((few.percentile, few.value, few.beyond), (50, 4.0, 1));
        assert_eq!(tail(&[], 100), None);
    }

    #[test]
    fn the_tail_percentile_follows_one_pass_not_the_pass_count() {
        // Three passes of 100 cells: p90 as for one pass, with ten cells of
        // every pass beyond it.
        let values: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail(&values, 100).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (90, 270.0, 300, 30)
        );
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 10.0), 0.3);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for name in ["cells_per_s", "core.qbf.self_ms", "p-50", "9lives"] {
            assert!(valid_metric_name(name), "{name}");
        }
        for name in ["", "_x", ".x", "a b", "a/b", "ms%", &"x".repeat(65)] {
            assert!(!valid_metric_name(name), "{name}");
        }
    }
}
