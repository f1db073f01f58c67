//! Sample summaries: medians, quartiles, percentiles.

/// A summarised metric: what the result file and `--compare` carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The statistic a run reports: the median from [`Summary::of`], the
    /// mean of the better half from [`Summary::better_half`].
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// First and third quartile (equal to the median below 2 samples).
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples` (not necessarily sorted). Empty input
    /// summarises to all zeros with `n == 0`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (Some(&min), Some(&max)) = (v.first(), v.last()) else {
            return Summary::single(0.0, 0);
        };
        let value = median_sorted(&v);
        let (q1, q3) = quartiles_sorted(&v).unwrap_or((value, value));
        Summary {
            value,
            min,
            max,
            q1,
            q3,
            n: v.len(),
        }
    }

    /// Summarise the samples of an end-to-end metric: the value is the
    /// mean of their better half, the spread is over all of them.
    pub fn better_half(samples: &[f64], higher_is_better: bool) -> Summary {
        Summary {
            value: better_half_mean(samples, higher_is_better),
            ..Summary::of(samples)
        }
    }

    /// A metric that is one number by construction (a ratio of totals).
    pub fn single(value: f64, n: usize) -> Summary {
        Summary {
            value,
            min: value,
            max: value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// Interquartile range as a share of the reported value — the
    /// spread the benchmark contract bounds.
    pub fn iqr_frac(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// Mean of the better half of the samples (the larger half when
/// `higher_is_better`, the middle one included when the count is odd).
/// What disturbs a timed pass from outside the program (a neighbour on
/// the shared host, the scheduler parking two busy threads on one core)
/// only ever makes it slower and dearer, in bursts: the better half of a
/// run's passes is what the program costs when left alone, and it moves
/// with every change to the program that moves the passes as a whole.
pub fn better_half_mean(samples: &[f64], higher_is_better: bool) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let half = &v[..v.len().div_ceil(2)];
    if half.is_empty() {
        0.0
    } else {
        half.iter().sum::<f64>() / half.len() as f64
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(v, n=4)` (the exclusive method) gives them;
/// `None` below two samples.
fn quartiles_sorted(v: &[f64]) -> Option<(f64, f64)> {
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile `p` in `[0, 100]` of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.saturating_sub(1).min(last)]
}

/// Metric and workload names: `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.value, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (1.0, 4.0));
        assert!((s.iqr_frac() - 1.5).abs() < 1e-12);
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.q3, s.n), (7.0, 7.0, 1));
    }

    #[test]
    fn better_half_mean_takes_the_side_the_metric_prefers() {
        let v = [300.0, 100.0, 250.0, 260.0, 90.0];
        assert_eq!(better_half_mean(&v, true), (300.0 + 260.0 + 250.0) / 3.0);
        assert_eq!(better_half_mean(&v, false), (90.0 + 100.0 + 250.0) / 3.0);
        assert_eq!(better_half_mean(&[3.0, 1.0], false), 1.0);
        assert_eq!(better_half_mean(&[3.0], true), 3.0);
        assert_eq!(better_half_mean(&[], true), 0.0);
        let s = Summary::better_half(&v, true);
        assert_eq!((s.value, s.min, s.max, s.n), (270.0, 90.0, 300.0, 5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn name_charset() {
        for ok in ["shuffle_mib_s", "server.requests", "a-b", "9x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
