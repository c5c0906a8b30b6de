//! Figure and table regeneration (F1–F5, T1).
//!
//! Each function reproduces one artifact of the paper's exploratory
//! analysis from a simulation run (or, for Fig. 1 / Table I, from embedded
//! data), returning plain row structs that the `repro` binary prints and
//! the integration tests assert shapes on.

use greener_simkit::calendar::YearMonth;
use greener_simkit::series::align_monthly;
use greener_simkit::stats;
use greener_workload::calendar::{Area, ConferenceCalendar};

use crate::driver::RunResult;
use crate::trends::ComputeTrend;

/// Fig. 1 output: the landmark dataset plus the two fitted doubling times.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// `(name, year, petaflop/s-days)` rows in dataset order.
    pub rows: Vec<(&'static str, f64, f64)>,
    /// Doubling time before 2012, months.
    pub doubling_before_months: f64,
    /// Doubling time after 2012, months.
    pub doubling_after_months: f64,
    /// Growth factor across the modern era.
    pub modern_growth: f64,
}

/// Regenerate Fig. 1.
pub fn fig1() -> Fig1 {
    let trend = ComputeTrend::fit();
    Fig1 {
        rows: trend
            .systems
            .iter()
            .map(|s| (s.name, s.year, s.pfs_days))
            .collect(),
        doubling_before_months: trend.doubling_before_months(),
        doubling_after_months: trend.doubling_after_months(),
        modern_growth: trend.modern_era_growth(),
    }
}

/// One month of Fig. 2: average power vs. green share.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Row {
    /// Month.
    pub ym: YearMonth,
    /// Average facility power, kW.
    pub power_kw: f64,
    /// Solar+wind share of supplied energy, percent.
    pub green_pct: f64,
}

/// Fig. 2 output with its headline statistic.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Monthly rows.
    pub rows: Vec<Fig2Row>,
    /// Pearson correlation between monthly power and green share (the
    /// paper's "mismatch": negative).
    pub correlation: f64,
}

/// Regenerate Fig. 2 from a run.
pub fn fig2(run: &RunResult) -> Fig2 {
    let power = run.telemetry.monthly_power_kw();
    let green = run.telemetry.monthly_green_pct();
    let rows: Vec<Fig2Row> = align_monthly(&power, &green)
        .into_iter()
        .map(|(ym, p, g)| Fig2Row {
            ym,
            power_kw: p,
            green_pct: g,
        })
        .collect();
    let p: Vec<f64> = rows.iter().map(|r| r.power_kw).collect();
    let g: Vec<f64> = rows.iter().map(|r| r.green_pct).collect();
    Fig2 {
        correlation: stats::pearson(&p, &g),
        rows,
    }
}

/// One month of Fig. 3: average price vs. green share.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Row {
    /// Month.
    pub ym: YearMonth,
    /// Average locational marginal price, $/MWh.
    pub lmp_usd_mwh: f64,
    /// Solar+wind share, percent.
    pub green_pct: f64,
}

/// Fig. 3 output.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Monthly rows.
    pub rows: Vec<Fig3Row>,
    /// Pearson correlation between price and green share (negative:
    /// "energy prices tend to be lower when percentage of sustainable
    /// energy is higher").
    pub correlation: f64,
    /// Mean spring (Feb–May) price, $/MWh (the paper's $20–25 claim).
    pub spring_mean_price: f64,
}

/// Regenerate Fig. 3 from a run.
pub fn fig3(run: &RunResult) -> Fig3 {
    let lmp = run.telemetry.monthly_lmp();
    let green = run.telemetry.monthly_green_pct();
    let rows: Vec<Fig3Row> = align_monthly(&lmp, &green)
        .into_iter()
        .map(|(ym, l, g)| Fig3Row {
            ym,
            lmp_usd_mwh: l,
            green_pct: g,
        })
        .collect();
    let l: Vec<f64> = rows.iter().map(|r| r.lmp_usd_mwh).collect();
    let g: Vec<f64> = rows.iter().map(|r| r.green_pct).collect();
    let spring: Vec<f64> = rows
        .iter()
        .filter(|r| (2..=5).contains(&r.ym.month.number()))
        .map(|r| r.lmp_usd_mwh)
        .collect();
    Fig3 {
        correlation: stats::pearson(&l, &g),
        spring_mean_price: stats::mean(&spring),
        rows,
    }
}

/// One month of Fig. 4: average power vs. temperature.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// Month.
    pub ym: YearMonth,
    /// Average facility power, kW.
    pub power_kw: f64,
    /// Average outdoor temperature, °F.
    pub temp_f: f64,
}

/// Fig. 4 output.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Monthly rows.
    pub rows: Vec<Fig4Row>,
    /// Spearman rank correlation (the "near one-to-one relationship").
    pub spearman: f64,
    /// Pearson correlation.
    pub pearson: f64,
}

/// Regenerate Fig. 4 from a run.
pub fn fig4(run: &RunResult) -> Fig4 {
    let power = run.telemetry.monthly_power_kw();
    let temp = run.telemetry.monthly_temp_f();
    let rows: Vec<Fig4Row> = align_monthly(&power, &temp)
        .into_iter()
        .map(|(ym, p, t)| Fig4Row {
            ym,
            power_kw: p,
            temp_f: t,
        })
        .collect();
    let p: Vec<f64> = rows.iter().map(|r| r.power_kw).collect();
    let t: Vec<f64> = rows.iter().map(|r| r.temp_f).collect();
    Fig4 {
        spearman: stats::spearman(&t, &p),
        pearson: stats::pearson(&t, &p),
        rows,
    }
}

/// One month of Fig. 5: energy usage vs. deadline count.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// Month.
    pub ym: YearMonth,
    /// Average facility power, kW.
    pub power_kw: f64,
    /// Average IT power, kW (the demand-side component, used for the lead
    /// statistic so the cooling season does not confound it).
    pub it_power_kw: f64,
    /// Conference deadlines in the month (Table I).
    pub deadlines: usize,
}

/// Fig. 5 output with the paper's two observations quantified.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Monthly rows Jan 2020 – Dec 2021.
    pub rows: Vec<Fig5Row>,
    /// Best lag (months) when correlating power with *future* deadline
    /// counts — positive: activity leads deadlines.
    pub lead_months: usize,
    /// Correlation at that lead.
    pub lead_correlation: f64,
    /// Early-year pickup in 2020: mean(Feb, Mar) − Jan IT power, kW.
    pub pickup_2020_kw: f64,
    /// Early-year pickup in 2021: mean(Feb, Mar) − Jan IT power, kW.
    ///
    /// The paper: "a sharper pickup in energy usage starting around
    /// Jan/Feb 2021 … significantly higher than in the same period of the
    /// previous year" — i.e. the *rise* out of January is steeper in 2021,
    /// ahead of the spring-2021 deadline concentration. Computed on IT
    /// power because the paper controls for temperature.
    pub pickup_2021_kw: f64,
}

/// Regenerate Fig. 5 from a run and the deadline calendar it used.
pub fn fig5(run: &RunResult, calendar: &ConferenceCalendar) -> Fig5 {
    let power = run.telemetry.monthly_power_kw();
    let it_power = run
        .telemetry
        .series_of(|f| f.it_power_w / 1_000.0)
        .monthly(greener_simkit::series::MonthlyAgg::Mean);
    let start = power
        .first()
        .map(|r| r.ym)
        .unwrap_or(YearMonth::new(2020, 1));
    let counts = calendar.monthly_counts(start, power.len());
    let rows: Vec<Fig5Row> = power
        .iter()
        .zip(&it_power)
        .zip(&counts)
        .map(|((p, it), (ym, c))| {
            debug_assert_eq!(p.ym, *ym);
            Fig5Row {
                ym: *ym,
                power_kw: p.value,
                it_power_kw: it.value,
                deadlines: *c,
            }
        })
        .collect();
    // The anticipatory lead is measured on IT power: the compute-demand
    // component the deadline ramp drives (total power adds the cooling
    // season on top, as the paper itself cautions).
    let p: Vec<f64> = rows.iter().map(|r| r.it_power_kw).collect();
    let d: Vec<f64> = rows.iter().map(|r| r.deadlines as f64).collect();
    let (lead, corr) = stats::best_lag(&p, &d, 3);
    let pickup = |year: i32| -> f64 {
        let month = |m: u32| {
            rows.iter()
                .find(|r| r.ym == YearMonth::new(year, m))
                .map(|r| r.it_power_kw)
        };
        match (month(1), month(2), month(3)) {
            (Some(jan), Some(feb), Some(mar)) => (feb + mar) / 2.0 - jan,
            _ => f64::NAN,
        }
    };
    Fig5 {
        lead_months: lead,
        lead_correlation: corr,
        pickup_2020_kw: pickup(2020),
        pickup_2021_kw: pickup(2021),
        rows,
    }
}

/// Table I: the conference list by area.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// `(area label, conference names)` rows.
    pub rows: Vec<(&'static str, Vec<&'static str>)>,
    /// Total deadline events 2020–21.
    pub total_deadlines: usize,
}

/// Regenerate Table I.
pub fn table1() -> Table1 {
    let cal = ConferenceCalendar::table_i();
    let rows = Area::ALL
        .iter()
        .map(|&a| {
            (
                a.label(),
                cal.by_area(a).iter().map(|c| c.name).collect::<Vec<_>>(),
            )
        })
        .collect();
    Table1 {
        rows,
        total_deadlines: cal.total_deadlines(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SimDriver;
    use crate::scenario::Scenario;

    fn small_run() -> RunResult {
        // Six months starting Jan 2020 at 1/10 scale: enough months for
        // structural assertions; the 24-month shape checks live in the
        // integration suite.
        let mut s = Scenario::two_year_small(51);
        s.horizon_hours = 181 * 24;
        SimDriver::run(&s)
    }

    #[test]
    fn fig1_has_both_eras() {
        let f = fig1();
        assert!(f.rows.len() >= 20);
        assert!(f.doubling_before_months > f.doubling_after_months * 4.0);
        assert!(f.modern_growth > 1e5);
    }

    #[test]
    fn fig2_rows_align() {
        let run = small_run();
        let f = fig2(&run);
        assert_eq!(f.rows.len(), 6);
        assert!(f.rows.iter().all(|r| r.power_kw > 0.0));
        assert!(f.rows.iter().all(|r| (0.0..100.0).contains(&r.green_pct)));
    }

    #[test]
    fn fig3_spring_prices_low() {
        let run = small_run();
        let f = fig3(&run);
        assert!(
            (15.0..32.0).contains(&f.spring_mean_price),
            "spring price {:.1}",
            f.spring_mean_price
        );
    }

    #[test]
    fn fig4_reports_correlations() {
        let run = small_run();
        let f = fig4(&run);
        assert_eq!(f.rows.len(), 6);
        assert!(f.spearman.is_finite());
        // Jan–Jun is the rising half of the year: power tracks temp.
        assert!(f.spearman > 0.0, "spearman {:.2}", f.spearman);
    }

    #[test]
    fn fig5_rows_carry_deadlines() {
        let run = small_run();
        let f = fig5(&run, &ConferenceCalendar::table_i());
        assert_eq!(f.rows.len(), 6);
        let total: usize = f.rows.iter().map(|r| r.deadlines).sum();
        assert!(total > 10, "H1-2020 deadlines {total}");
    }

    #[test]
    fn table1_covers_areas() {
        let t = table1();
        assert_eq!(t.rows.len(), 5);
        assert!(t.rows.iter().all(|(_, confs)| confs.len() >= 4));
        assert!(t.total_deadlines >= 70);
        // Spot-check familiar names are in the right area.
        let (_, ml) = t.rows.iter().find(|(a, _)| *a == "General ML").unwrap();
        assert!(ml.contains(&"NeurIPS") && ml.contains(&"ICLR"));
    }
}
