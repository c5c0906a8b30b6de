//! Forecasting models.
//!
//! All models implement [`Forecaster`]: fit on a history slice, then produce
//! an `h`-step-ahead point forecast. They are deliberately classical — the
//! paper asks for *decision support* ("predictive analytics and
//! instrumentation"), and for hourly grid/demand series with strong daily
//! seasonality, seasonal and smoothing methods are the right baseline class.

use crate::linalg::least_squares;

/// A point forecaster.
pub trait Forecaster {
    /// Fit on a history (oldest first). Returns false if the history is too
    /// short for this model, in which case forecasts fall back to the last
    /// observed value.
    fn fit(&mut self, history: &[f64]) -> bool;

    /// Write a `horizon`-step forecast into `out` (cleared first). This is
    /// the hot-path entry point: callers that refresh forecasts every
    /// simulated hour reuse one buffer instead of allocating a `Vec` per
    /// refresh, and implementations perform no internal allocation.
    fn forecast_into(&self, horizon: usize, out: &mut Vec<f64>);

    /// Forecast `horizon` steps past the end of the fitted history
    /// (allocating convenience wrapper over [`Forecaster::forecast_into`]).
    fn forecast(&self, horizon: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(horizon);
        self.forecast_into(horizon, &mut out);
        out
    }

    /// Human-readable model name.
    fn name(&self) -> &'static str;
}

/// Enumerates the built-in models (for sweeps and tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForecasterKind {
    /// Grand mean of the history.
    Mean,
    /// Last value plus average step (random-walk with drift).
    Drift,
    /// Repeat the last full season.
    SeasonalNaive,
    /// Simple exponential smoothing.
    Ses,
    /// Holt's linear trend.
    Holt,
    /// Additive Holt-Winters.
    HoltWinters,
    /// Autoregressive AR(p) by least squares.
    Ar,
}

impl ForecasterKind {
    /// All kinds, in table order.
    pub const ALL: [ForecasterKind; 7] = [
        ForecasterKind::Mean,
        ForecasterKind::Drift,
        ForecasterKind::SeasonalNaive,
        ForecasterKind::Ses,
        ForecasterKind::Holt,
        ForecasterKind::HoltWinters,
        ForecasterKind::Ar,
    ];

    /// Instantiate with sensible defaults for hourly series with a daily
    /// season of `period` (24 for hourly data).
    pub fn build(self, period: usize) -> Box<dyn Forecaster + Send> {
        match self {
            ForecasterKind::Mean => Box::new(MeanModel::default()),
            ForecasterKind::Drift => Box::new(Drift::default()),
            ForecasterKind::SeasonalNaive => Box::new(SeasonalNaive::new(period)),
            ForecasterKind::Ses => Box::new(Ses::new(0.3)),
            ForecasterKind::Holt => Box::new(Holt::new(0.3, 0.05)),
            ForecasterKind::HoltWinters => Box::new(HoltWinters::new(0.25, 0.02, 0.25, period)),
            ForecasterKind::Ar => Box::new(Ar::new(period.clamp(2, 48))),
        }
    }
}

/// Fallback shared by every model: repeat the last observation.
fn fallback_into(last: Option<f64>, horizon: usize, out: &mut Vec<f64>) {
    out.clear();
    out.resize(horizon, last.unwrap_or(0.0));
}

/// Grand-mean forecaster.
#[derive(Debug, Default, Clone)]
pub struct MeanModel {
    mean: Option<f64>,
}

impl Forecaster for MeanModel {
    fn fit(&mut self, history: &[f64]) -> bool {
        if history.is_empty() {
            return false;
        }
        self.mean = Some(history.iter().sum::<f64>() / history.len() as f64);
        true
    }

    fn forecast_into(&self, horizon: usize, out: &mut Vec<f64>) {
        fallback_into(self.mean, horizon, out);
    }

    fn name(&self) -> &'static str {
        "mean"
    }
}

/// Random walk with drift.
#[derive(Debug, Default, Clone)]
pub struct Drift {
    last: Option<f64>,
    slope: f64,
}

impl Forecaster for Drift {
    fn fit(&mut self, history: &[f64]) -> bool {
        let n = history.len();
        if n == 0 {
            return false;
        }
        self.last = Some(history[n - 1]);
        self.slope = if n >= 2 {
            (history[n - 1] - history[0]) / (n - 1) as f64
        } else {
            0.0
        };
        true
    }

    fn forecast_into(&self, horizon: usize, out: &mut Vec<f64>) {
        match self.last {
            Some(last) => {
                out.clear();
                out.extend((1..=horizon).map(|h| last + self.slope * h as f64));
            }
            None => fallback_into(None, horizon, out),
        }
    }

    fn name(&self) -> &'static str {
        "drift"
    }
}

/// Repeat the last observed season.
#[derive(Debug, Clone)]
pub struct SeasonalNaive {
    period: usize,
    season: Vec<f64>,
    last: Option<f64>,
}

impl SeasonalNaive {
    /// Seasonal-naive with the given period (24 = daily on hourly data).
    pub fn new(period: usize) -> SeasonalNaive {
        assert!(period >= 1);
        SeasonalNaive {
            period,
            season: Vec::new(),
            last: None,
        }
    }
}

impl Forecaster for SeasonalNaive {
    fn fit(&mut self, history: &[f64]) -> bool {
        self.last = history.last().copied();
        if history.len() < self.period {
            // Failed refit on a reused model: drop the stale season.
            self.season.clear();
            return false;
        }
        self.season.clear();
        self.season
            .extend_from_slice(&history[history.len() - self.period..]);
        true
    }

    fn forecast_into(&self, horizon: usize, out: &mut Vec<f64>) {
        if self.season.is_empty() {
            return fallback_into(self.last, horizon, out);
        }
        out.clear();
        out.extend((0..horizon).map(|h| self.season[h % self.period]));
    }

    fn name(&self) -> &'static str {
        "seasonal-naive"
    }
}

/// Simple exponential smoothing.
#[derive(Debug, Clone)]
pub struct Ses {
    alpha: f64,
    level: Option<f64>,
}

impl Ses {
    /// SES with smoothing factor `alpha` in (0,1].
    pub fn new(alpha: f64) -> Ses {
        assert!(alpha > 0.0 && alpha <= 1.0);
        Ses { alpha, level: None }
    }
}

impl Forecaster for Ses {
    fn fit(&mut self, history: &[f64]) -> bool {
        if history.is_empty() {
            return false;
        }
        let mut level = history[0];
        for &y in &history[1..] {
            level = self.alpha * y + (1.0 - self.alpha) * level;
        }
        self.level = Some(level);
        true
    }

    fn forecast_into(&self, horizon: usize, out: &mut Vec<f64>) {
        fallback_into(self.level, horizon, out);
    }

    fn name(&self) -> &'static str {
        "ses"
    }
}

/// Holt's linear-trend method.
#[derive(Debug, Clone)]
pub struct Holt {
    alpha: f64,
    beta: f64,
    level: Option<f64>,
    trend: f64,
}

impl Holt {
    /// Holt with level/trend smoothing factors.
    pub fn new(alpha: f64, beta: f64) -> Holt {
        assert!(alpha > 0.0 && alpha <= 1.0 && beta > 0.0 && beta <= 1.0);
        Holt {
            alpha,
            beta,
            level: None,
            trend: 0.0,
        }
    }
}

impl Forecaster for Holt {
    fn fit(&mut self, history: &[f64]) -> bool {
        if history.len() < 2 {
            // Clear any previously fitted state so a failed refit falls
            // back to pure persistence (models are reused across refits).
            self.level = history.last().copied();
            self.trend = 0.0;
            return false;
        }
        let mut level = history[0];
        let mut trend = history[1] - history[0];
        for &y in &history[1..] {
            let prev_level = level;
            level = self.alpha * y + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - prev_level) + (1.0 - self.beta) * trend;
        }
        self.level = Some(level);
        self.trend = trend;
        true
    }

    fn forecast_into(&self, horizon: usize, out: &mut Vec<f64>) {
        match self.level {
            Some(level) => {
                out.clear();
                out.extend((1..=horizon).map(|h| level + self.trend * h as f64));
            }
            None => fallback_into(None, horizon, out),
        }
    }

    fn name(&self) -> &'static str {
        "holt"
    }
}

/// Additive Holt-Winters (level + trend + seasonal).
#[derive(Debug, Clone)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    gamma: f64,
    period: usize,
    level: Option<f64>,
    trend: f64,
    season: Vec<f64>,
    t_end: usize,
}

impl HoltWinters {
    /// Additive Holt-Winters with the given smoothing factors and period.
    pub fn new(alpha: f64, beta: f64, gamma: f64, period: usize) -> HoltWinters {
        assert!(period >= 2);
        HoltWinters {
            alpha,
            beta,
            gamma,
            period,
            level: None,
            trend: 0.0,
            season: Vec::new(),
            t_end: 0,
        }
    }
}

impl Forecaster for HoltWinters {
    fn fit(&mut self, history: &[f64]) -> bool {
        let m = self.period;
        if history.len() < 2 * m {
            // Clear any previously fitted state so a failed refit falls
            // back to pure persistence (models are reused across refits).
            self.level = history.last().copied();
            self.trend = 0.0;
            self.season.clear();
            return false;
        }
        // Initialize: level = mean of first season, trend from season means,
        // seasonal indices from deviations.
        let first_mean: f64 = history[..m].iter().sum::<f64>() / m as f64;
        let second_mean: f64 = history[m..2 * m].iter().sum::<f64>() / m as f64;
        let mut level = first_mean;
        let mut trend = (second_mean - first_mean) / m as f64;
        let mut season: Vec<f64> = (0..m).map(|i| history[i] - first_mean).collect();

        for (t, &y) in history.iter().enumerate().skip(m) {
            let s_idx = t % m;
            let prev_level = level;
            level = self.alpha * (y - season[s_idx]) + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - prev_level) + (1.0 - self.beta) * trend;
            season[s_idx] = self.gamma * (y - level) + (1.0 - self.gamma) * season[s_idx];
        }
        self.level = Some(level);
        self.trend = trend;
        self.season = season;
        self.t_end = history.len();
        true
    }

    fn forecast_into(&self, horizon: usize, out: &mut Vec<f64>) {
        match (&self.level, self.season.is_empty()) {
            (Some(level), false) => {
                out.clear();
                out.extend((1..=horizon).map(|h| {
                    let s = self.season[(self.t_end + h - 1) % self.period];
                    level + self.trend * h as f64 + s
                }));
            }
            (last, _) => fallback_into(*last, horizon, out),
        }
    }

    fn name(&self) -> &'static str {
        "holt-winters"
    }
}

/// AR(p) fit by least squares, iterated forward for multi-step forecasts.
#[derive(Debug, Clone)]
pub struct Ar {
    p: usize,
    coef: Vec<f64>,
    intercept: f64,
    tail: Vec<f64>,
}

impl Ar {
    /// AR of order `p ≥ 1`.
    pub fn new(p: usize) -> Ar {
        assert!(p >= 1);
        Ar {
            p,
            coef: Vec::new(),
            intercept: 0.0,
            tail: Vec::new(),
        }
    }
}

impl Forecaster for Ar {
    fn fit(&mut self, history: &[f64]) -> bool {
        let p = self.p;
        self.tail.clear();
        self.tail
            .extend_from_slice(&history[history.len().saturating_sub(p)..]);
        // Clear fitted coefficients up front: models are refit in place
        // across a run, and a failed refit (short or degenerate history —
        // e.g. a constant series makes the normal equations singular) must
        // fall back to persistence, not forecast with stale coefficients
        // against a fresh tail.
        self.coef.clear();
        self.intercept = 0.0;
        if history.len() < 2 * p + 2 {
            return false;
        }
        let mut xs = Vec::with_capacity(history.len() - p);
        let mut ys = Vec::with_capacity(history.len() - p);
        for t in p..history.len() {
            let mut row: Vec<f64> = (1..=p).map(|k| history[t - k]).collect();
            row.push(1.0); // intercept
            xs.push(row);
            ys.push(history[t]);
        }
        match least_squares(&xs, &ys) {
            Some(beta) => {
                self.intercept = beta[p];
                self.coef.extend_from_slice(&beta[..p]);
                true
            }
            None => false,
        }
    }

    fn forecast_into(&self, horizon: usize, out: &mut Vec<f64>) {
        if self.coef.is_empty() || self.tail.is_empty() {
            return fallback_into(self.tail.last().copied(), horizon, out);
        }
        // Iterate forward using `out` itself as the growing history: lag
        // `k+1` at step `i` is either an earlier forecast (`out[i-k-1]`) or
        // one of the fitted tail values — no scratch buffer needed.
        out.clear();
        let tail = &self.tail;
        for i in 0..horizon {
            let mut y = self.intercept;
            for (k, c) in self.coef.iter().enumerate() {
                let back = k + 1;
                let v = if i >= back {
                    out[i - back]
                } else {
                    tail[tail.len() - (back - i)]
                };
                y += c * v;
            }
            out.push(y);
        }
    }

    fn name(&self) -> &'static str {
        "ar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_series(n: usize, period: f64) -> Vec<f64> {
        (0..n)
            .map(|i| 10.0 + 3.0 * (i as f64 / period * std::f64::consts::TAU).sin())
            .collect()
    }

    #[test]
    fn mean_model_is_mean() {
        let mut m = MeanModel::default();
        assert!(m.fit(&[1.0, 2.0, 3.0]));
        assert_eq!(m.forecast(3), vec![2.0, 2.0, 2.0]);
        assert_eq!(m.name(), "mean");
    }

    #[test]
    fn drift_extends_trend() {
        let mut d = Drift::default();
        assert!(d.fit(&[0.0, 1.0, 2.0, 3.0]));
        let f = d.forecast(2);
        assert!((f[0] - 4.0).abs() < 1e-9);
        assert!((f[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn seasonal_naive_repeats_season() {
        let hist = sine_series(96, 24.0);
        let mut m = SeasonalNaive::new(24);
        assert!(m.fit(&hist));
        let f = m.forecast(24);
        for (i, v) in f.iter().enumerate() {
            assert!((v - hist[72 + i]).abs() < 1e-12);
        }
        // Too-short history falls back.
        let mut short = SeasonalNaive::new(24);
        assert!(!short.fit(&[5.0]));
        assert_eq!(short.forecast(2), vec![5.0, 5.0]);
    }

    #[test]
    fn ses_converges_to_constant() {
        let mut m = Ses::new(0.5);
        assert!(m.fit(&vec![7.0; 50]));
        assert!((m.forecast(1)[0] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn holt_tracks_linear_series() {
        let hist: Vec<f64> = (0..60).map(|i| 2.0 + 0.5 * i as f64).collect();
        let mut m = Holt::new(0.5, 0.3);
        assert!(m.fit(&hist));
        let f = m.forecast(4);
        for (h, v) in f.iter().enumerate() {
            let expected = 2.0 + 0.5 * (59 + h + 1) as f64;
            assert!((v - expected).abs() < 0.5, "h={h}: {v} vs {expected}");
        }
    }

    #[test]
    fn holt_winters_beats_ses_on_seasonal_data() {
        let hist = sine_series(24 * 14, 24.0);
        let (train, test) = hist.split_at(24 * 12);
        let mut hw = HoltWinters::new(0.25, 0.02, 0.25, 24);
        let mut ses = Ses::new(0.3);
        assert!(hw.fit(train));
        assert!(ses.fit(train));
        let err = |f: Vec<f64>| -> f64 {
            f.iter().zip(test).map(|(a, b)| (a - b).abs()).sum::<f64>() / test.len() as f64
        };
        let hw_err = err(hw.forecast(test.len()));
        let ses_err = err(ses.forecast(test.len()));
        assert!(
            hw_err < ses_err * 0.5,
            "HW {hw_err:.3} should beat SES {ses_err:.3} on seasonal data"
        );
    }

    #[test]
    fn ar_learns_ar1_dynamics() {
        // y_t = 0.8 y_{t-1} + 2.0 exactly.
        let mut hist = vec![1.0];
        for _ in 0..200 {
            let prev = *hist.last().unwrap();
            hist.push(0.8 * prev + 2.0);
        }
        let mut ar = Ar::new(2);
        assert!(ar.fit(&hist));
        let f = ar.forecast(5);
        let mut expected = *hist.last().unwrap();
        for v in f {
            expected = 0.8 * expected + 2.0;
            assert!((v - expected).abs() < 1e-3, "{v} vs {expected}");
        }
    }

    #[test]
    fn kinds_build_and_run() {
        let hist = sine_series(24 * 8, 24.0);
        for kind in ForecasterKind::ALL {
            let mut m = kind.build(24);
            m.fit(&hist);
            let f = m.forecast(48);
            assert_eq!(f.len(), 48);
            assert!(f.iter().all(|v| v.is_finite()), "{:?} produced NaN", kind);
        }
    }

    #[test]
    fn failed_refit_falls_back_to_persistence() {
        // Models are refit in place across a simulation run; a refit that
        // fails (short history) must not forecast with stale fitted state.
        let varying = sine_series(24 * 8, 24.0);
        for kind in ForecasterKind::ALL {
            let mut m = kind.build(24);
            assert!(m.fit(&varying));
            m.fit(&[5.0, 5.0, 5.0]); // succeeds for simple models, fails for seasonal/AR
            let f = m.forecast(4);
            assert_eq!(f, vec![5.0; 4], "{kind:?} kept stale state");
        }
    }

    #[test]
    fn short_ar_refit_clears_stale_coefficients() {
        // The driver refits one persistent model per hour; early hours have
        // histories long enough for a tail but too short for AR(24). Such a
        // refit must clear the previous run's coefficients, not combine
        // them with the fresh tail.
        let mut ar = Ar::new(24);
        assert!(ar.fit(&sine_series(24 * 8, 24.0)));
        let short = vec![5.0; 30]; // 30 < 2·24 + 2
        assert!(!ar.fit(&short));
        assert_eq!(ar.forecast(3), vec![5.0; 3]);
    }

    #[test]
    fn empty_history_safe() {
        for kind in ForecasterKind::ALL {
            let mut m = kind.build(24);
            assert!(!m.fit(&[]));
            let f = m.forecast(3);
            assert_eq!(f.len(), 3);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every model yields finite forecasts on bounded random input.
            #[test]
            fn forecasts_finite(
                hist in prop::collection::vec(-100.0f64..100.0, 1..200),
                horizon in 1usize..50,
            ) {
                for kind in ForecasterKind::ALL {
                    let mut m = kind.build(24);
                    m.fit(&hist);
                    let f = m.forecast(horizon);
                    prop_assert_eq!(f.len(), horizon);
                    for v in f {
                        prop_assert!(v.is_finite(), "{:?} produced {v}", kind);
                    }
                }
            }
        }
    }
}
