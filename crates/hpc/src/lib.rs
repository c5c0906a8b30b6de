//! # greener-hpc
//!
//! The datacenter/HPC substrate: a simulated MIT-SuperCloud-like cluster.
//!
//! The paper's Eq. 1 control levers live here: the supplied resources `q_s`
//! (nodes × GPUs), and the hardware control mechanisms `c` — GPU power caps
//! (§II-C: "optimal GPU power-caps provide an effective way to control
//! energy consumption with minimal impact on training speed", ref \[15\]) and
//! cooling behaviour, which couples facility power to outdoor temperature
//! and produces Fig. 4's power↔temperature relationship.
//!
//! * [`gpu`] — the power-cap → throughput curve (V100-like calibration),
//!   power draw under caps, and optimal-cap search.
//! * [`cluster`] — nodes, gang allocation (spanning allowed), release, and
//!   IT-power aggregation.
//! * [`cooling`] — chiller COP vs. outdoor temperature, PUE, and the
//!   evaporative-cooling water footprint.
//! * [`telemetry`] — the hourly frames every experiment consumes
//!   (the "instrumentation and logging" §IV-B calls for), with frame
//!   assembly behind [`telemetry::TelemetryProbe`] so only runs that watch
//!   hourly telemetry pay for it.

pub mod cluster;
pub mod cooling;
pub mod gpu;
pub mod telemetry;

pub use cluster::{AllocError, Allocation, Cluster, ClusterSpec};
pub use cooling::{CoolingModel, CoolingPoint};
pub use gpu::GpuModel;
pub use telemetry::{HourObservation, TelemetryFrame, TelemetryLog, TelemetryProbe};
