//! Weatherized compute optimization (§II-B): run the Dodd-Frank-style
//! stress suite over a summer month and print the resilience scorecard.
//!
//! ```sh
//! cargo run --release --example stress_test
//! ```

use greener_world::climate::StressScenario;
use greener_world::core::scenario::Scenario;
use greener_world::core::stress::run_suite;
use greener_world::simkit::calendar::CalDate;

fn main() {
    let mut base = Scenario::two_year_small(11).named("stress-demo");
    base.start = CalDate::new(2020, 7, 1);
    base.horizon_hours = 31 * 24;

    let suite = StressScenario::standard_suite();
    let reports = run_suite(&base, &suite).expect("the standard suite's names are valid labels");

    println!("=== climate & operations stress suite (July 2020, 1/10-scale cluster) ===");
    println!(
        "{:<26} {:>9} {:>9} {:>9} {:>10} {:>9} {:>6}",
        "scenario", "cool-sat", "slo-viol", "score", "energy", "PUE", "pass"
    );
    for r in &reports {
        println!(
            "{:<26} {:>8.1}% {:>8.1}% {:>8.1}% {:>9.0}k {:>9.3} {:>6}",
            r.scenario,
            r.cooling_saturation * 100.0,
            r.slo_violation * 100.0,
            r.violation_score * 100.0,
            r.energy_kwh / 1000.0,
            r.mean_pue,
            if r.pass { "PASS" } else { "FAIL" },
        );
    }
}
