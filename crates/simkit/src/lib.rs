//! # greener-simkit
//!
//! Deterministic simulation substrate for the `greener` workspace — the
//! reproduction of *“A Green(er) World for A.I.”* (IPDPSW 2022).
//!
//! This crate provides everything the domain models share:
//!
//! * [`units`] — strongly-typed physical quantities (watts, joules, dollars,
//!   kilograms of CO₂, litres, degrees Fahrenheit) so power/energy/carbon
//!   accounting cannot silently mix units.
//! * [`time`] / [`calendar`] — simulation time (seconds since scenario start)
//!   and a leap-year-aware civil calendar so experiments line up with the
//!   paper's 2020–21 months.
//! * [`rng`] — named, splittable deterministic RNG streams; every stochastic
//!   path in the workspace derives from a single root seed.
//! * [`des`] — a minimal, stable-ordered discrete-event queue: FIFO ties,
//!   a monotone clock, and a count of clamped past schedules. The replay
//!   driver's reference engine runs on it.
//! * [`obs`] — generic, decision-invisible observation probes: event loops
//!   emit typed observation points to statically-composed [`obs::Probe`]
//!   sets, so callers pay only for what they watch.
//! * [`series`] — hourly time-series storage with monthly aggregation.
//! * [`stats`] — the statistics used by the experiment harness (regression,
//!   Pearson/Spearman correlation, quantiles, cross-correlation).
//! * [`sweep`] — Rayon-powered deterministic parameter sweeps (the *outer*
//!   threading level: across runs).
//! * [`par`] — structured fork/join and sharded-map helpers for *in-run*
//!   parallelism over independent RNG streams (the *inner* level).
//! * [`proc`] — supervised-child-process helpers (wall-clock-bounded
//!   waits, atomic file publication) for backends that treat worker
//!   execution as unreliable.

mod arenas;
pub mod calendar;
pub mod des;
pub mod fastmap;
pub mod obs;
pub mod par;
pub mod proc;
pub mod rng;
pub mod series;
pub mod stats;
pub mod sweep;
pub mod time;
pub mod units;

pub use calendar::{CalDate, Month, YearMonth};
pub use des::{EventQueue, ScheduledEvent};
pub use obs::Probe;
pub use rng::RngHub;
pub use series::{HourlySeries, MonthlyAgg, MonthlyRow};
pub use time::{Duration, SimTime, HOUR, MINUTE, SECONDS_PER_DAY, SECONDS_PER_HOUR};
pub use units::{Celsius, Dollars, Energy, Fahrenheit, KgCo2, Liters, Power};
