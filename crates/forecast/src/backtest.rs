//! Rolling-origin backtesting.
//!
//! The experiment harness scores every forecaster the same way an operator
//! would deploy it: refit on a sliding training window, forecast the next
//! `horizon` hours, advance by `step`, repeat — then average the errors.

use crate::metrics::{mae, mape, rmse, smape};
use crate::model::ForecasterKind;

/// Aggregate backtest scores for one model on one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacktestReport {
    /// Which model.
    pub kind: ForecasterKind,
    /// Mean absolute error across folds.
    pub mae: f64,
    /// Root-mean-square error across folds.
    pub rmse: f64,
    /// Mean absolute percentage error across folds (%).
    pub mape: f64,
    /// Symmetric MAPE across folds (%).
    pub smape: f64,
    /// Number of folds evaluated.
    pub folds: usize,
}

/// Run a rolling-origin backtest of `kind` over `series`.
///
/// * `train` — training-window length (observations)
/// * `horizon` — forecast length scored per fold
/// * `step` — origin advance between folds
/// * `period` — seasonality passed to the model (24 for hourly)
pub fn backtest(
    kind: ForecasterKind,
    series: &[f64],
    train: usize,
    horizon: usize,
    step: usize,
    period: usize,
) -> Option<BacktestReport> {
    assert!(train > 0 && horizon > 0 && step > 0);
    if series.len() < train + horizon {
        return None;
    }
    let mut maes = Vec::new();
    let mut rmses = Vec::new();
    let mut mapes = Vec::new();
    let mut smapes = Vec::new();
    let mut origin = train;
    while origin + horizon <= series.len() {
        let hist = &series[origin - train..origin];
        let actual = &series[origin..origin + horizon];
        let mut model = kind.build(period);
        model.fit(hist);
        let forecast = model.forecast(horizon);
        maes.push(mae(actual, &forecast));
        rmses.push(rmse(actual, &forecast));
        mapes.push(mape(actual, &forecast));
        smapes.push(smape(actual, &forecast));
        origin += step;
    }
    if maes.is_empty() {
        return None;
    }
    let avg = |v: &[f64]| {
        let finite: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.is_empty() {
            f64::NAN
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    };
    Some(BacktestReport {
        kind,
        mae: avg(&maes),
        rmse: avg(&rmses),
        mape: avg(&mapes),
        smape: avg(&smapes),
        folds: maes.len(),
    })
}

/// Backtest every built-in model and return reports sorted by MAE.
pub fn backtest_all(
    series: &[f64],
    train: usize,
    horizon: usize,
    step: usize,
    period: usize,
) -> Vec<BacktestReport> {
    let mut out: Vec<BacktestReport> = ForecasterKind::ALL
        .iter()
        .filter_map(|&k| backtest(k, series, train, horizon, step, period))
        .collect();
    out.sort_by(|a, b| a.mae.partial_cmp(&b.mae).expect("finite MAE"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                20.0 + 5.0 * (i as f64 / 24.0 * std::f64::consts::TAU).sin()
                    + 0.5 * ((i * 7919) % 13) as f64 / 13.0
            })
            .collect()
    }

    #[test]
    fn backtest_produces_folds() {
        let s = seasonal_series(24 * 20);
        let r = backtest(ForecasterKind::SeasonalNaive, &s, 24 * 7, 24, 24, 24).unwrap();
        assert!(r.folds > 5);
        assert!(r.mae.is_finite() && r.mae >= 0.0);
        assert!(r.rmse >= r.mae);
    }

    #[test]
    fn too_short_series_is_none() {
        let s = seasonal_series(30);
        assert!(backtest(ForecasterKind::Mean, &s, 48, 24, 24, 24).is_none());
    }

    #[test]
    fn seasonal_models_win_on_seasonal_series() {
        let s = seasonal_series(24 * 30);
        let reports = backtest_all(&s, 24 * 7, 24, 48, 24);
        assert!(reports.len() >= 6);
        let best = reports[0];
        // A season-aware model (seasonal-naive, HW, or AR with 24 lags)
        // must beat the plain mean.
        let mean_mae = reports
            .iter()
            .find(|r| r.kind == ForecasterKind::Mean)
            .unwrap()
            .mae;
        assert!(
            best.mae < mean_mae * 0.6,
            "best {:?} {:.3} vs mean {:.3}",
            best.kind,
            best.mae,
            mean_mae
        );
        assert!(matches!(
            best.kind,
            ForecasterKind::SeasonalNaive | ForecasterKind::HoltWinters | ForecasterKind::Ar
        ));
    }

    #[test]
    fn reports_sorted_by_mae() {
        let s = seasonal_series(24 * 15);
        let reports = backtest_all(&s, 24 * 5, 24, 48, 24);
        assert!(reports.windows(2).all(|w| w[0].mae <= w[1].mae));
    }
}
