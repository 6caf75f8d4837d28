//! Quantiles and the regression verdict.
//!
//! Latency samples are kept raw, so a run's quantiles are exact
//! nearest-rank values, never histogram buckets. Quartiles across runs
//! follow Python's `statistics.quantiles(values, n=4)` (the "exclusive"
//! method), so `compare` and any outside check of the same files agree.

/// The nearest-rank `q`-quantile of ascending `sorted` samples: the
/// smallest sample with at least a `q` share of the samples at or below
/// it. `None` for no samples.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median as `statistics.median`: the mean of the two middle values of
/// an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, exactly as
/// `statistics.quantiles(values, n=4)` computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    if v.len() < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The outcome of comparing a change against its parent on one
/// (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side-by-side comparison.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    pub base_median: f64,
    pub head_median: f64,
    pub base_quartiles: [f64; 3],
    pub head_quartiles: [f64; 3],
    /// Share of pairs the head won; ties count for neither side.
    pub won: f64,
    pub verdict: Verdict,
}

/// Compare paired runs (`base[i]` was run against `head[i]`) under the
/// metric's regression `bound`, a share of the base median.
///
/// * better: the head wins at least nine tenths of the pairs and its
///   median improves on the base median by more than the base's own
///   quartile distance;
/// * unresolved: the base spread is wider than the bound, unless every
///   head run beats every base run;
/// * worse: the head median is worse than the base median by more than
///   the bound;
/// * same: otherwise.
pub fn compare(base: &[f64], head: &[f64], bound: f64, better: Better) -> Option<Comparison> {
    let pairs = base.len().min(head.len());
    let base_quartiles = quartiles(base)?;
    let head_quartiles = quartiles(head)?;
    let (base_median, head_median) = (median(base), median(head));
    let beats = |h: f64, b: f64| match better {
        Better::Lower => h < b,
        Better::Higher => h > b,
    };
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| beats(h, b))
        .count();
    #[allow(clippy::cast_precision_loss)]
    let won = wins as f64 / pairs as f64;
    let improvement = match better {
        Better::Lower => base_median - head_median,
        Better::Higher => head_median - base_median,
    };
    let base_iqr = base_quartiles[2] - base_quartiles[0];
    let scale = base_median.abs();
    let base_spread = if scale > 0.0 { base_iqr / scale } else { 0.0 };
    let regression = if scale > 0.0 {
        -improvement / scale
    } else {
        0.0
    };
    let every_head_beats_every_base = match better {
        Better::Lower => {
            head.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                < base.iter().copied().fold(f64::INFINITY, f64::min)
        }
        Better::Higher => {
            head.iter().copied().fold(f64::INFINITY, f64::min)
                > base.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    };
    let verdict = if won >= 0.9 && improvement > base_iqr {
        Verdict::Better
    } else if base_spread > bound && !every_head_beats_every_base {
        Verdict::Unresolved
    } else if regression > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    Some(Comparison {
        base_median,
        head_median,
        base_quartiles,
        head_quartiles,
        won,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(50));
        assert_eq!(nearest_rank(&s, 0.9), Some(90));
        assert_eq!(nearest_rank(&s, 0.99), Some(99));
        assert_eq!(nearest_rank(&s, 1.0), Some(100));
        assert_eq!(nearest_rank(&s, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7], 0.5), Some(7));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // 3 samples: the median is the second, p90 the third.
        assert_eq!(nearest_rank(&[10, 20, 30], 0.5), Some(20));
        assert_eq!(nearest_rank(&[10, 20, 30], 0.9), Some(30));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from statistics.quantiles(data, n=4).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        let odd = [1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0];
        assert_eq!(quartiles(&odd), Some([3.0, 7.0, 11.0]));
        // Unsorted input and a two-value sample, where the exclusive
        // method extrapolates past the data.
        assert_eq!(quartiles(&[4.0, 1.0]), Some([0.25, 2.5, 4.75]));
        assert_eq!(quartiles(&[5.0]), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn clear_gain_is_better_and_clear_loss_is_worse() {
        let base = around(100.0, 0.2);
        let faster = around(80.0, 0.2);
        let c = compare(&base, &faster, 0.1, Better::Lower).unwrap();
        assert_eq!(c.verdict, Verdict::Better);
        assert_eq!(c.won, 1.0);
        let slower = around(120.0, 0.2);
        assert_eq!(
            compare(&base, &slower, 0.1, Better::Lower).unwrap().verdict,
            Verdict::Worse
        );
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            compare(&base, &slower, 0.1, Better::Higher)
                .unwrap()
                .verdict,
            Verdict::Better
        );
        assert_eq!(
            compare(&base, &faster, 0.1, Better::Higher)
                .unwrap()
                .verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn a_change_inside_the_bound_is_the_same() {
        let base = around(100.0, 0.2);
        let slightly_slower = around(103.0, 0.2);
        let c = compare(&base, &slightly_slower, 0.05, Better::Lower).unwrap();
        assert_eq!(c.verdict, Verdict::Same);
        assert_eq!(c.won, 0.0);
    }

    #[test]
    fn a_noisy_parent_makes_the_verdict_unresolved() {
        // Base quartile distance is ~45% of its median: wider than a 10% bound.
        let base = around(100.0, 10.0);
        let head = around(101.0, 10.0);
        assert_eq!(
            compare(&base, &head, 0.1, Better::Lower).unwrap().verdict,
            Verdict::Unresolved
        );
        // ...unless every head run beats every base run.
        let head: Vec<f64> = base.iter().map(|b| b - 200.0).collect();
        assert_ne!(
            compare(&base, &head, 0.1, Better::Lower).unwrap().verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let base = around(100.0, 1.0);
        let c = compare(&base, &base, 0.1, Better::Lower).unwrap();
        assert_eq!(c.won, 0.0);
        assert_eq!(c.verdict, Verdict::Same);
    }
}
