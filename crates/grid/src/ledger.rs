//! Energy-purchase ledger.
//!
//! Every kWh the datacenter draws is recorded with the grid conditions at
//! purchase time (price, carbon intensity, green share). The ledger is what
//! makes the paper's *opportunity cost* analysis possible: the same total
//! energy bought at different times carries different fiscal and
//! environmental cost, and the delta to the best feasible timing is the
//! opportunity cost (§II-A).

use greener_simkit::units::{Dollars, Energy, KgCo2};

/// One purchase record (typically one simulated hour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PurchaseRecord {
    /// Hour index of the purchase.
    pub hour: u64,
    /// Energy drawn from the grid.
    pub energy: Energy,
    /// Locational marginal price at purchase time, $/MWh.
    pub lmp_usd_mwh: f64,
    /// Grid carbon intensity at purchase time, kg/MWh.
    pub ci_kg_mwh: f64,
    /// Green (solar+wind) share of the grid at purchase time, in \[0,1\].
    pub green_share: f64,
}

impl PurchaseRecord {
    /// Fiscal cost of this purchase.
    pub fn cost(&self) -> Dollars {
        self.energy.cost_at(self.lmp_usd_mwh)
    }

    /// Carbon embodied in this purchase.
    pub fn carbon(&self) -> KgCo2 {
        self.energy.carbon_at(self.ci_kg_mwh)
    }
}

/// Append-only purchase ledger with aggregate queries.
#[derive(Debug, Clone, Default)]
pub struct PurchaseLedger {
    records: Vec<PurchaseRecord>,
}

impl PurchaseLedger {
    /// An empty ledger.
    pub fn new() -> PurchaseLedger {
        PurchaseLedger::default()
    }

    /// Record a purchase.
    pub fn record(&mut self, rec: PurchaseRecord) {
        self.records.push(rec);
    }

    /// All records, in insertion order.
    pub fn records(&self) -> &[PurchaseRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no purchases have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total energy purchased.
    pub fn total_energy(&self) -> Energy {
        self.records.iter().map(|r| r.energy).sum()
    }

    /// Total fiscal cost.
    pub fn total_cost(&self) -> Dollars {
        self.records.iter().map(|r| r.cost()).sum()
    }

    /// Total embodied carbon.
    pub fn total_carbon(&self) -> KgCo2 {
        self.records.iter().map(|r| r.carbon()).sum()
    }

    /// Energy-weighted average green share of purchases.
    pub fn energy_weighted_green_share(&self) -> f64 {
        let total = self.total_energy().kwh();
        if total <= 0.0 {
            return f64::NAN;
        }
        self.records
            .iter()
            .map(|r| r.green_share * r.energy.kwh())
            .sum::<f64>()
            / total
    }

    /// Energy-weighted average price, $/MWh.
    pub fn energy_weighted_price(&self) -> f64 {
        let total = self.total_energy().mwh();
        if total <= 0.0 {
            return f64::NAN;
        }
        self.total_cost().value() / total
    }

    /// Energy-weighted average carbon intensity, kg/MWh.
    pub fn energy_weighted_ci(&self) -> f64 {
        let total = self.total_energy().mwh();
        if total <= 0.0 {
            return f64::NAN;
        }
        self.total_carbon().value() / total
    }

    /// The cheapest possible carbon for the *same total energy* if it could
    /// have been freely re-timed across the recorded hours subject to a
    /// per-hour cap of `max_mult ×` the actual hourly energy. The difference
    /// to [`Self::total_carbon`] is the environmental opportunity cost.
    pub fn counterfactual_min_carbon(&self, max_mult: f64) -> KgCo2 {
        assert!(
            max_mult >= 1.0,
            "hourly cap must allow at least actual energy"
        );
        let total = self.total_energy().kwh();
        if total <= 0.0 {
            return KgCo2::ZERO;
        }
        // Greedy: fill the cleanest hours first up to their caps.
        let mut hours: Vec<&PurchaseRecord> = self.records.iter().collect();
        hours.sort_by(|a, b| a.ci_kg_mwh.partial_cmp(&b.ci_kg_mwh).expect("finite CI"));
        let mut remaining = total;
        let mut carbon = 0.0;
        for rec in hours {
            if remaining <= 0.0 {
                break;
            }
            let cap = rec.energy.kwh() * max_mult;
            let take = cap.min(remaining);
            carbon += Energy::from_kwh(take).carbon_at(rec.ci_kg_mwh).value();
            remaining -= take;
        }
        // If caps don't absorb everything (max_mult too small relative to
        // skew), charge the remainder at the dirtiest hour's intensity.
        if remaining > 0.0 {
            let worst = self
                .records
                .iter()
                .map(|r| r.ci_kg_mwh)
                .fold(f64::NEG_INFINITY, f64::max);
            carbon += Energy::from_kwh(remaining).carbon_at(worst).value();
        }
        KgCo2(carbon)
    }

    /// Same counterfactual for fiscal cost (cheapest hours first).
    pub fn counterfactual_min_cost(&self, max_mult: f64) -> Dollars {
        assert!(max_mult >= 1.0);
        let total = self.total_energy().kwh();
        if total <= 0.0 {
            return Dollars::ZERO;
        }
        let mut hours: Vec<&PurchaseRecord> = self.records.iter().collect();
        hours.sort_by(|a, b| {
            a.lmp_usd_mwh
                .partial_cmp(&b.lmp_usd_mwh)
                .expect("finite LMP")
        });
        let mut remaining = total;
        let mut cost = 0.0;
        for rec in hours {
            if remaining <= 0.0 {
                break;
            }
            let take = (rec.energy.kwh() * max_mult).min(remaining);
            cost += Energy::from_kwh(take).cost_at(rec.lmp_usd_mwh).value();
            remaining -= take;
        }
        if remaining > 0.0 {
            let worst = self
                .records
                .iter()
                .map(|r| r.lmp_usd_mwh)
                .fold(f64::NEG_INFINITY, f64::max);
            cost += Energy::from_kwh(remaining).cost_at(worst).value();
        }
        Dollars(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(hour: u64, kwh: f64, lmp: f64, ci: f64, green: f64) -> PurchaseRecord {
        PurchaseRecord {
            hour,
            energy: Energy::from_kwh(kwh),
            lmp_usd_mwh: lmp,
            ci_kg_mwh: ci,
            green_share: green,
        }
    }

    fn sample_ledger() -> PurchaseLedger {
        let mut l = PurchaseLedger::new();
        l.record(rec(0, 100.0, 50.0, 400.0, 0.04)); // dirty, expensive
        l.record(rec(1, 100.0, 20.0, 200.0, 0.08)); // clean, cheap
        l
    }

    #[test]
    fn totals() {
        let l = sample_ledger();
        assert!((l.total_energy().kwh() - 200.0).abs() < 1e-9);
        // 0.1 MWh·50 + 0.1 MWh·20 = 7 $.
        assert!((l.total_cost().value() - 7.0).abs() < 1e-9);
        // 0.1·400 + 0.1·200 = 60 kg.
        assert!((l.total_carbon().value() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_averages() {
        let l = sample_ledger();
        assert!((l.energy_weighted_green_share() - 0.06).abs() < 1e-12);
        assert!((l.energy_weighted_price() - 35.0).abs() < 1e-9);
        assert!((l.energy_weighted_ci() - 300.0).abs() < 1e-9);
        assert!(PurchaseLedger::new().energy_weighted_price().is_nan());
    }

    #[test]
    fn counterfactual_shifts_to_clean_hours() {
        let l = sample_ledger();
        // With 2x hourly headroom all 200 kWh fit in the clean hour.
        let cf = l.counterfactual_min_carbon(2.0);
        assert!((cf.value() - 0.2 * 200.0).abs() < 1e-9);
        // Opportunity cost = 60 - 40 = 20 kg.
        assert!((l.total_carbon().value() - cf.value() - 20.0).abs() < 1e-9);
        // Cost counterfactual: all at $20 → $4.
        let cc = l.counterfactual_min_cost(2.0);
        assert!((cc.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn counterfactual_never_exceeds_actual() {
        let l = sample_ledger();
        for mult in [1.0, 1.5, 3.0] {
            assert!(l.counterfactual_min_carbon(mult).value() <= l.total_carbon().value() + 1e-9);
            assert!(l.counterfactual_min_cost(mult).value() <= l.total_cost().value() + 1e-9);
        }
    }

    #[test]
    fn unit_mult_reproduces_actual_totals() {
        // With max_mult = 1 every hour can only hold what it actually held,
        // so the counterfactual equals reality.
        let l = sample_ledger();
        assert!((l.counterfactual_min_carbon(1.0).value() - l.total_carbon().value()).abs() < 1e-9);
        assert!((l.counterfactual_min_cost(1.0).value() - l.total_cost().value()).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_is_safe() {
        let l = PurchaseLedger::new();
        assert!(l.is_empty());
        assert_eq!(l.total_energy().kwh(), 0.0);
        assert_eq!(l.counterfactual_min_carbon(2.0).value(), 0.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The counterfactual is monotone non-increasing in headroom and
            /// always bounded by the actual totals.
            #[test]
            fn counterfactual_monotone(
                kwh in prop::collection::vec(1.0f64..500.0, 1..40),
                cis in prop::collection::vec(50.0f64..800.0, 1..40),
            ) {
                let n = kwh.len().min(cis.len());
                let mut l = PurchaseLedger::new();
                for i in 0..n {
                    l.record(rec(i as u64, kwh[i], 30.0, cis[i], 0.05));
                }
                let actual = l.total_carbon().value();
                let c1 = l.counterfactual_min_carbon(1.0).value();
                let c2 = l.counterfactual_min_carbon(2.0).value();
                let c4 = l.counterfactual_min_carbon(4.0).value();
                prop_assert!((c1 - actual).abs() < 1e-6);
                prop_assert!(c2 <= c1 + 1e-6);
                prop_assert!(c4 <= c2 + 1e-6);
            }
        }
    }
}
