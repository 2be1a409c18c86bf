//! Paired A/B timing: the statistic each kernel is timed with and the
//! rule that judges a change against its parent.
//!
//! `perf_trajectory --ab <parent-binary>` runs the parent binary and
//! itself alternately, [`PAIRS`] times each, reads back every row's rate
//! from each run's CSV tables ([`rates`]), and [`judge`]s each row on
//! its pairs. When a row fails, it runs [`PAIRS`] more and judges again
//! on all of them: a row fails the gate only when the failure holds on
//! the pairs it was not chosen by. Nothing is compared with a number
//! recorded on another machine state: both sides of every pair run back
//! to back on the same machine.

use std::time::Instant;

/// Alternating runs per side in an A/B comparison.
pub const PAIRS: usize = 10;

/// Pairs the change must lose, out of [`PAIRS`], before a row can
/// [`Verdict::Fail`]. By chance alone a row loses at least 9 of 10 with
/// probability 11/1024 ≈ 1.1%, and the median-ratio condition must hold
/// too. (At 8 of 10, 5.5% by chance, unchanged code failed an A/A run on
/// a shared 2 vCPU machine.) Over the ~40 rows of one run, though, some
/// row loses 9 of 10 by chance about one run in three, and on a noisy
/// row the median condition does not stop it: hence [`CONFIRM_LOSSES`].
pub const FAIL_LOSSES: usize = 9;

/// Pairs the change must lose, out of `2 * PAIRS`, to fail once a
/// failure has been re-run with [`PAIRS`] fresh pairs. Given 9 losses in
/// the first 10, unchanged code loses 8 of the next 10 with probability
/// 56/1024 ≈ 5.5%; a row that is really slower keeps losing.
pub const CONFIRM_LOSSES: usize = 17;

/// A row fails only when its median change/parent rate ratio is below
/// this (a more than 15% throughput loss).
pub const FAIL_RATIO: f64 = 0.85;

/// A row whose parent quartile spread exceeds this fraction of the
/// parent median cannot resolve a 15% loss: it is reported as
/// [`Verdict::Unresolved`] unless it failed.
pub const MAX_SPREAD: f64 = 0.15;

/// Wall-clock a closure `reps` times and return the **minimum** elapsed
/// seconds (after one untimed warm-up call). The minimum is the standard
/// robust statistic for microbenchmarks on shared machines: every source
/// of interference only ever adds time.
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The outcome for one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Neither failed nor unresolved.
    Pass,
    /// The change lost at least [`losses_to_fail`] pairs and its median
    /// ratio is below [`FAIL_RATIO`].
    Fail,
    /// Not failed, but the parent's own spread exceeds [`MAX_SPREAD`].
    Unresolved,
    /// The row ran on one side only; it is reported, not gated.
    OneSided,
}

impl Verdict {
    /// The verdict as printed in the A/B table.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::OneSided => "ONE-SIDED",
        }
    }
}

/// One row's pair statistics and verdict. A statistic with no samples
/// behind it (a one-sided row) is NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The parent's median rate.
    pub parent_median: f64,
    /// The change's median rate.
    pub change_median: f64,
    /// Pairs with a rate on both sides.
    pub pairs: usize,
    /// Pairs in which the change's rate was higher.
    pub won: usize,
    /// The median over pairs of change rate / parent rate.
    pub median_ratio: f64,
    /// The parent's interquartile range over its median.
    pub parent_spread: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (NaN when empty).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let at = q * (s.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (at - lo as f64)
}

/// The losses that fail a row judged on `pairs` pairs: [`FAIL_LOSSES`]
/// for one set of [`PAIRS`], [`CONFIRM_LOSSES`] once it has been re-run.
pub fn losses_to_fail(pairs: usize) -> usize {
    if pairs > PAIRS {
        CONFIRM_LOSSES
    } else {
        FAIL_LOSSES
    }
}

/// Judge one row from its rates (higher is better), `parent[i]` and
/// `change[i]` being pair `i`. An empty side makes the row one-sided.
pub fn judge(parent: &[f64], change: &[f64]) -> Judgement {
    let pairs = parent.len().min(change.len());
    let ratios: Vec<f64> = parent.iter().zip(change).map(|(p, c)| c / p).collect();
    let won = ratios.iter().filter(|&&r| r > 1.0).count();
    let lost = ratios.iter().filter(|&&r| r < 1.0).count();
    let median_ratio = quantile(&ratios, 0.5);
    let parent_spread = (quantile(parent, 0.75) - quantile(parent, 0.25)) / quantile(parent, 0.5);
    let verdict = if pairs == 0 {
        Verdict::OneSided
    } else if lost >= losses_to_fail(pairs) && median_ratio < FAIL_RATIO {
        Verdict::Fail
    } else if parent_spread > MAX_SPREAD {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    };
    Judgement {
        parent_median: quantile(parent, 0.5),
        change_median: quantile(change, 0.5),
        pairs,
        won,
        median_ratio,
        parent_spread,
        verdict,
    }
}

/// Every `(kernel, rate)` row of one `perf_trajectory` CSV table: the
/// `kernel` column and the first column whose header ends in `_per_s`.
pub fn rates(csv: &str) -> Result<Vec<(String, f64)>, String> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().ok_or("empty table")?.split(',').collect();
    let kernel = header.iter().position(|&h| h == "kernel");
    let rate = header.iter().position(|h| h.ends_with("_per_s"));
    let (Some(kernel), Some(rate)) = (kernel, rate) else {
        return Err(format!("no kernel or rate column in header {header:?}"));
    };
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            match (cells.get(kernel), cells.get(rate).map(|r| r.parse::<f64>())) {
                (Some(k), Some(Ok(r))) => Ok((k.to_string(), r)),
                _ => Err(format!("malformed row {line:?}")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten parent rates around 1e9 with a quartile spread of about 4%.
    const PARENT: [f64; PAIRS] = [1.00, 1.03, 0.98, 1.01, 0.97, 1.02, 0.99, 1.04, 0.96, 1.00];

    fn scaled(xs: &[f64], by: f64) -> Vec<f64> {
        xs.iter().map(|x| x * by * 1e9).collect()
    }

    #[test]
    fn identical_distributions_pass() {
        let parent = scaled(&PARENT, 1.0);
        // The same values, paired in another order.
        let mut change = parent.clone();
        change.rotate_left(3);
        let j = judge(&parent, &change);
        assert_eq!(j.verdict, Verdict::Pass);
        assert_eq!(j.pairs, PAIRS);
        assert!((j.median_ratio - 1.0).abs() < 0.05, "{j:?}");
        assert!(j.parent_spread < MAX_SPREAD, "{j:?}");
    }

    #[test]
    fn a_uniform_twenty_percent_slowdown_fails() {
        let parent = scaled(&PARENT, 1.0);
        let change = scaled(&PARENT, 0.8);
        let j = judge(&parent, &change);
        assert_eq!(j.verdict, Verdict::Fail, "{j:?}");
        assert_eq!(j.won, 0);
        assert!((j.median_ratio - 0.8).abs() < 1e-9);
    }

    #[test]
    fn a_small_consistent_slowdown_is_not_a_failure() {
        // Losing every pair by 10% stays inside the 15% tolerance.
        let j = judge(&scaled(&PARENT, 1.0), &scaled(&PARENT, 0.9));
        assert_eq!(j.verdict, Verdict::Pass, "{j:?}");
        assert_eq!(j.won, 0);
    }

    #[test]
    fn a_failure_must_hold_on_its_re_run() {
        // `losing` of ten pairs lost by 20%, the rest won by 10%.
        let set = |losing: usize| -> (Vec<f64>, Vec<f64>) {
            let parent = scaled(&PARENT, 1.0);
            let change = parent
                .iter()
                .enumerate()
                .map(|(i, p)| p * if i < losing { 0.8 } else { 1.1 })
                .collect();
            (parent, change)
        };
        let (mut parent, mut change) = set(9);
        assert_eq!(judge(&parent, &change).verdict, Verdict::Fail);
        // Seven more losses of ten: 16 of 20, one short of a failure,
        // though the median ratio is still 0.8.
        let (p2, c2) = set(7);
        let j = judge(
            &[parent.clone(), p2].concat(),
            &[change.clone(), c2].concat(),
        );
        assert_eq!((j.pairs, j.won), (2 * PAIRS, 4), "{j:?}");
        assert!(j.median_ratio < FAIL_RATIO, "{j:?}");
        assert_ne!(j.verdict, Verdict::Fail, "{j:?}");
        // Eight more: 17 of 20, the failure is confirmed.
        let (p2, c2) = set(8);
        parent.extend(p2);
        change.extend(c2);
        assert_eq!(judge(&parent, &change).verdict, Verdict::Fail);
    }

    #[test]
    fn a_one_sided_row_is_reported_not_gated() {
        let rates = scaled(&PARENT, 1.0);
        for j in [judge(&[], &rates), judge(&rates, &[])] {
            assert_eq!(j.verdict, Verdict::OneSided);
            assert_eq!(j.pairs, 0);
        }
    }

    #[test]
    fn a_wide_parent_spread_reads_unresolved() {
        // Quartiles at about 0.7 and 1.3 of the median: a 15% loss
        // cannot be told from this row's noise.
        let wide = [0.5, 1.5, 0.7, 1.3, 0.6, 1.4, 1.0, 1.0, 0.8, 1.2];
        let parent = scaled(&wide, 1.0);
        let mut change = parent.clone();
        change.reverse();
        let j = judge(&parent, &change);
        assert!(j.parent_spread > MAX_SPREAD, "{j:?}");
        assert_eq!(j.verdict, Verdict::Unresolved);
        // A clear loss on the same noisy parent still fails.
        let j = judge(&parent, &scaled(&wide, 0.5));
        assert_eq!(j.verdict, Verdict::Fail);
    }

    #[test]
    fn todays_serve_table_parses() {
        let csv = "kernel,n,ops_per_s,p50_us,p99_us\n\
                   serve-ingest-frames,102400,1.432e8,1.103,6.250\n\
                   serve-mixed-queries,4000,2.154e6,0.290,1.567\n\
                   cluster-failover-gap,101,6.312e3,10884.000,13011.000\n";
        let rows = rates(csv).expect("parses");
        assert_eq!(
            rows,
            vec![
                ("serve-ingest-frames".to_string(), 1.432e8),
                ("serve-mixed-queries".to_string(), 2.154e6),
                ("cluster-failover-gap".to_string(), 6.312e3),
            ]
        );
        assert!(rates("kernel,n\nx,1\n").is_err(), "no rate column");
        assert!(
            rates("kernel,n,elem_per_s\nx,1,fast\n").is_err(),
            "bad rate"
        );
    }

    #[test]
    fn best_of_returns_minimum() {
        let mut calls = 0u32;
        let t = best_of(3, || calls += 1);
        assert_eq!(calls, 4, "one warm-up plus three timed reps");
        assert!(t >= 0.0 && t.is_finite());
    }
}
