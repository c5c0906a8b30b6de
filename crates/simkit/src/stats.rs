//! Statistics used by the experiment harness.
//!
//! The paper's exploratory analysis is correlational: Fig. 2/3 are inverse
//! relationships, Fig. 4 is a "near one-to-one" (rank-monotone) relationship
//! and Fig. 5 is a lagged relationship. This module provides the estimators
//! the reproduction uses to *quantify* those shapes: Pearson and Spearman
//! correlation, ordinary least squares, lagged cross-correlation, quantiles
//! and segmented (two-era) log-linear fits for Fig. 1.

/// Arithmetic mean (NaN for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (NaN for empty input).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolated quantile, `q` in [0, 1]. Panics on empty input,
/// and with "NaN in quantile input" on a NaN among two or more values.
///
/// Defined on the stably sorted input, but found by selection: O(n)
/// instead of a sort, with the same bits. A selected zero takes its sign
/// from the stable order, the one place +0.0 and −0.0 could differ.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range");
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in quantile input");
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let mut scratch = xs.to_vec();
    let (_, &mut lo_x, upper) = scratch.select_nth_unstable_by(lo, cmp);
    let lo_x = stable_order_statistic(xs, lo, lo_x);
    if lo == hi {
        return lo_x;
    }
    // `hi == lo + 1`: the least element above the selected one.
    let hi_x = *upper.iter().min_by(|a, b| cmp(a, b)).expect("hi < len");
    let hi_x = stable_order_statistic(xs, hi, hi_x);
    let frac = pos - lo as f64;
    lo_x * (1.0 - frac) + hi_x * frac
}

/// The `k`-th element of `xs` after a stable sort, given its value `x`.
///
/// Without NaN, +0.0 and −0.0 are the only values that compare equal
/// while differing in bits, so only a zero needs its sign resolved: the
/// stable order keeps zeros in input order after the negatives, so the
/// `k`-th element is the `(k − #{x < 0})`-th zero of `xs`.
fn stable_order_statistic(xs: &[f64], k: usize, x: f64) -> f64 {
    if x != 0.0 {
        return x;
    }
    let negatives = xs.iter().filter(|&&v| v < 0.0).count();
    *xs.iter()
        .filter(|&&v| v == 0.0)
        .nth(k - negatives)
        .expect("a zero order statistic is one of the zeros")
}

/// Pearson product-moment correlation of two equal-length slices.
///
/// Returns NaN if either side has zero variance or lengths differ/empty.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.is_empty() {
        return f64::NAN;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Average ranks (1-based), averaging ties.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in rank input"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            out[idx[k]] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson on average ranks).
///
/// Fig. 4's "near one-to-one relationship" between monthly temperature and
/// power is precisely a Spearman ρ near 1.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.is_empty() {
        return f64::NAN;
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Ordinary-least-squares fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r2: f64,
    /// Number of points used.
    pub n: usize,
}

/// Fit a line by ordinary least squares. Returns `None` when under-determined
/// (fewer than 2 points or zero x-variance).
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let e = y - (slope * x + intercept);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LinearFit {
        slope,
        intercept,
        r2,
        n: xs.len(),
    })
}

/// Cross-correlation of `x[t]` against `y[t + lag]` for `lag ≥ 0`.
///
/// Used for Fig. 5: demand (and hence energy) leads deadline concentrations,
/// so `cross_correlation(power, deadlines, lag)` peaks at a positive lag of
/// one to two months.
pub fn cross_correlation(xs: &[f64], ys: &[f64], lag: usize) -> f64 {
    if lag >= xs.len() || lag >= ys.len() {
        return f64::NAN;
    }
    let n = xs.len().min(ys.len()) - lag;
    pearson(&xs[..n], &ys[lag..lag + n])
}

/// The lag in `0..=max_lag` with the highest cross-correlation.
pub fn best_lag(xs: &[f64], ys: &[f64], max_lag: usize) -> (usize, f64) {
    let mut best = (0usize, f64::NEG_INFINITY);
    for lag in 0..=max_lag {
        let c = cross_correlation(xs, ys, lag);
        if c.is_finite() && c > best.1 {
            best = (lag, c);
        }
    }
    best
}

/// A two-segment log-linear fit with a known breakpoint (Fig. 1's two eras).
#[derive(Debug, Clone, Copy)]
pub struct SegmentedDoubling {
    /// Doubling time (in x-units) before the breakpoint.
    pub doubling_before: f64,
    /// Doubling time (in x-units) after the breakpoint.
    pub doubling_after: f64,
    /// Fit for the early era in log2-space.
    pub fit_before: LinearFit,
    /// Fit for the late era in log2-space.
    pub fit_after: LinearFit,
}

/// Fit exponential growth `y = a·2^(x/T)` on both sides of `break_x`,
/// returning the doubling times `T`. `ys` must be positive.
pub fn segmented_doubling_fit(xs: &[f64], ys: &[f64], break_x: f64) -> Option<SegmentedDoubling> {
    let log2ys: Vec<f64> = ys.iter().map(|y| y.log2()).collect();
    let (mut xb, mut yb, mut xa, mut ya) = (vec![], vec![], vec![], vec![]);
    for (&x, &ly) in xs.iter().zip(&log2ys) {
        if x < break_x {
            xb.push(x);
            yb.push(ly);
        } else {
            xa.push(x);
            ya.push(ly);
        }
    }
    let fit_before = linear_fit(&xb, &yb)?;
    let fit_after = linear_fit(&xa, &ya)?;
    Some(SegmentedDoubling {
        doubling_before: 1.0 / fit_before.slope,
        doubling_after: 1.0 / fit_after.slope,
        fit_before,
        fit_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
    }

    /// The sort-based definition `quantile` must match bit for bit.
    fn quantile_by_sort(xs: &[f64], q: f64) -> f64 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn quantile_rejects_nan() {
        quantile(&[1.0, f64::NAN, 0.5], 0.5);
    }

    #[test]
    fn quantile_keeps_the_stable_sign_of_zero() {
        let xs = [0.0, -0.0, -1.0, -0.0, 2.0];
        for q in [0.25, 0.5, 0.75, 0.3, 0.6] {
            assert_eq!(
                quantile(&xs, q).to_bits(),
                quantile_by_sort(&xs, q).to_bits(),
                "q = {q}"
            );
        }
        assert_eq!(quantile(&xs, 0.25).to_bits(), 0.0f64.to_bits());
        assert_eq!(quantile(&xs, 0.5).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let inv = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &inv) + 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]).is_nan());
    }

    #[test]
    fn spearman_monotone_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 8.0, 27.0, 64.0, 125.0]; // nonlinear but monotone
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        let dec = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&xs, &dec) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 2.0).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-9);
        assert!((f.intercept + 2.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!(linear_fit(&[1.0], &[1.0]).is_none());
        assert!(linear_fit(&[1.0, 1.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn cross_correlation_finds_lag() {
        // y is x shifted *later* by 2: y[t+2] = x[t].
        let xs: Vec<f64> = (0..40).map(|i| ((i as f64) * 0.7).sin()).collect();
        let mut ys = vec![0.0, 0.0];
        ys.extend_from_slice(&xs[..38]);
        // x leads y: correlating x[t] with y[t+lag] peaks at lag 2.
        let (lag, c) = best_lag(&xs, &ys, 5);
        assert_eq!(lag, 2);
        assert!(c > 0.99);
    }

    #[test]
    fn segmented_doubling_two_eras() {
        // Before x=10: doubling every 2 units. After: doubling every 0.5.
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                if x < 10.0 {
                    2f64.powf(x / 2.0)
                } else {
                    2f64.powf(10.0 / 2.0) * 2f64.powf((x - 10.0) / 0.5)
                }
            })
            .collect();
        let fit = segmented_doubling_fit(&xs, &ys, 10.0).unwrap();
        assert!((fit.doubling_before - 2.0).abs() < 1e-6);
        assert!((fit.doubling_after - 0.5).abs() < 1e-6);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn pearson_bounded(
                xs in prop::collection::vec(-1e3f64..1e3, 3..50),
                ys in prop::collection::vec(-1e3f64..1e3, 3..50),
            ) {
                let n = xs.len().min(ys.len());
                let r = pearson(&xs[..n], &ys[..n]);
                if r.is_finite() {
                    prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
                }
            }

            #[test]
            fn spearman_invariant_to_monotone_transform(
                xs in prop::collection::vec(-100f64..100.0, 5..30),
            ) {
                // Spearman(x, exp(x)) == 1 because exp is strictly monotone.
                let ys: Vec<f64> = xs.iter().map(|x| (x / 50.0).exp()).collect();
                let rho = spearman(&xs, &ys);
                // Ties in xs can reduce rho slightly below 1; allow slack for ties.
                prop_assert!(rho > 0.999 || rho.is_nan());
            }

            #[test]
            fn quantile_within_range(
                xs in prop::collection::vec(-1e6f64..1e6, 1..100),
                q in 0.0f64..1.0,
            ) {
                let v = quantile(&xs, q);
                let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }

            /// Selection returns the stable sort's bits on heavily tied
            /// input with mixed ±0.0, at every order statistic, every
            /// midpoint between two, and a drawn `q`.
            #[test]
            fn quantile_matches_sort_bits(
                draws in prop::collection::vec((0u32..7, 0u8..2), 1..80),
                q in 0.0f64..1.0,
            ) {
                // Values in {-3, …, 3}; a zero takes its sign from the flag.
                let xs: Vec<f64> = draws
                    .iter()
                    .map(|&(v, neg)| {
                        let x = v as f64 - 3.0;
                        if x == 0.0 && neg == 1 { -0.0 } else { x }
                    })
                    .collect();
                let last = (xs.len() - 1) as f64;
                let mut qs = vec![q, 0.0, 1.0];
                for k in 0..xs.len() {
                    qs.push(k as f64 / last.max(1.0));
                    qs.push((k as f64 + 0.5) / last.max(1.0));
                }
                for q in qs.into_iter().filter(|q| (0.0..=1.0).contains(q)) {
                    let (got, want) = (quantile(&xs, q), quantile_by_sort(&xs, q));
                    prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "q = {q}: {got:?} != {want:?} on {xs:?}"
                    );
                }
            }

            #[test]
            fn ranks_are_permutation_sums(
                xs in prop::collection::vec(-1e3f64..1e3, 1..60),
            ) {
                let r = ranks(&xs);
                let n = xs.len() as f64;
                let sum: f64 = r.iter().sum();
                // Rank sums are preserved even under ties: n(n+1)/2.
                prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
            }
        }
    }
}
