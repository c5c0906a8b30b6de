//! # greener-sched
//!
//! Job scheduling and the paper's energy-aware control policies.
//!
//! In Eq. 1's terms this crate is `p` (the resource-allocation rule) plus
//! the scheduler-facing half of `c` (power caps, carbon-aware gating).
//! Baselines (FCFS, SJF, EASY backfill) provide the traditional levers;
//! the energy-aware wrappers implement what §II proposes:
//!
//! * [`policy`] — the [`SchedPolicy`] trait, dispatch signals, and the
//!   baseline policies (including fit-indexed, exhaustive EASY backfill).
//! * [`waitq`] — the fit-indexed [`WaitQueue`] policies dispatch against,
//!   plus the [`waitq::DepthStats`] queue-depth observation hook.
//! * [`energy`] — static power capping and temperature-aware capping
//!   (tighten caps when cooling is expensive).
//! * [`carbon`] — carbon-aware temporal shifting (defer deferrable jobs to
//!   forecast-greener hours, ref \[16\]) and green-queue segmentation.
//! * [`config`] — [`PolicyKind`], the plain-data descriptor that names
//!   ([`PolicyKind::label`]) and builds every policy; policies themselves
//!   carry no name.

pub mod carbon;
pub mod config;
pub mod energy;
pub mod policy;
pub mod waitq;

pub use carbon::{CarbonAwarePolicy, GreenQueuePolicy};
pub use config::PolicyKind;
pub use energy::{PowerCapPolicy, TempAwarePolicy};
pub use policy::{
    Decision, EasyBackfillPolicy, FcfsPolicy, LoneDispatch, QueuedJob, SchedPolicy, SchedSignals,
    SjfPolicy,
};
pub use waitq::{DepthStats, WaitQueue};
