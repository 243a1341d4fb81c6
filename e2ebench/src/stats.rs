//! Order statistics with the benchmark's steadiness rules built in.
//!
//! * A median needs at least [`MIN_MEDIAN_SAMPLES`] samples: no latency
//!   metric rests on a single run.
//! * A tail is the highest percentile with at least [`TAIL_BEYOND`]
//!   samples beyond it, reported together with the percentile it reached
//!   and the sample count.

/// Fewest samples a reported median may rest on.
pub const MIN_MEDIAN_SAMPLES: usize = 3;

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count), or
/// `None` with fewer than [`MIN_MEDIAN_SAMPLES`] samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.len() < MIN_MEDIAN_SAMPLES {
        return None;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    let mid = n / 2;
    if n % 2 == 1 {
        sorted.get(mid).copied()
    } else {
        Some((sorted.get(mid - 1)? + sorted.get(mid)?) / 2.0)
    }
}

/// A tail latency: the value, the percentile it sits at, and how many
/// samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, in percent.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The highest percentile of `values` that still has [`TAIL_BEYOND`]
/// samples strictly beyond its rank, or `None` when there are too few
/// samples for any tail.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(values);
    let rank = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: *sorted.get(rank)?,
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_refuses_single_and_paired_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), None);
        assert_eq!(median(&[4.0, 5.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; TAIL_BEYOND]), None);
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.samples, 200);
        let beyond = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
    }

    #[test]
    fn tail_of_eleven_samples_is_the_minimum() {
        let values: Vec<f64> = (0..11).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 0.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    }
}
