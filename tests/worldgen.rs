//! A tier-1 pin on world generation over a full two-year horizon.
//!
//! The golden determinism table replays 14 days from 2020-01-01, so it
//! never reaches the 2020 leap day, the year boundary or most of the
//! conference calendar's deadline ramps and lulls. This test folds every
//! weather, grid and trace bit of the two-year small world into one
//! FNV-1a digest, so any change to how world-gen resolves the calendar,
//! orders a float expression or draws a stream shows up here.

use greener_world::core::driver::World;
use greener_world::core::scenario::Scenario;
use greener_world::simkit::rng::Fnv1a;
use std::fmt::Write;

#[test]
fn two_year_small_world_digest_is_pinned() {
    let world = World::build(&Scenario::two_year_small(1));
    let mut h = Fnv1a::new();
    let (w, g) = (&world.weather, &world.grid);
    let columns = [
        &w.temp_f,
        &w.wind_ms,
        &w.cloud,
        &g.demand_mw,
        &g.wind_mw,
        &g.solar_mw,
        &g.nuclear_mw,
        &g.hydro_mw,
        &g.other_mw,
        &g.gas_mw,
        &g.lmp_usd_mwh,
        &g.ci_kg_mwh,
        &g.green_share,
    ];
    for column in columns {
        writeln!(h, "column {}", column.len()).unwrap();
        for v in column {
            write!(h, "{:016x} ", v.to_bits()).unwrap();
        }
    }
    for j in &world.trace {
        writeln!(
            h,
            "{} {} {:?} {} {:016x} {} {} {:?} {:?}",
            j.id.0,
            j.user.0,
            j.kind,
            j.gpus,
            j.work_gpu_hours.to_bits(),
            j.submit.secs(),
            j.deferrable,
            j.start_deadline.map(|t| t.secs()),
            j.queue
        )
        .unwrap();
    }
    assert_eq!(world.trace.len(), 31_344, "trace length");
    assert_eq!(
        h.finish(),
        0xf9c3_8f10_8e8a_ed8e,
        "two-year small world digest"
    );
}
