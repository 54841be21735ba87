//! # netmaster-sim
//!
//! Discrete smartphone simulator for the NetMaster reproduction. The
//! paper deployed its middleware on three Android 4.1.1 handsets; this
//! crate is the substitute substrate: it replays recorded (synthetic)
//! days — screen sessions, interactions, network demands — under a
//! pluggable [`Policy`] and prices the resulting transfer timeline with
//! the RRC radio model, reporting the exact metrics of Figs. 7–10
//! (energy, radio-on time, bandwidth utilization, affected
//! interactions, wake-up counts).
//!
//! Policies transform demands (`plan_day`); the runner owns pricing,
//! so all policies are compared under identical radio physics.
//!
//! ```
//! use netmaster_sim::{simulate, DefaultPolicy, SimConfig};
//! use netmaster_trace::gen::generate_volunteers;
//!
//! let trace = &generate_volunteers(3, 1)[0];
//! let m = simulate(&trace.days, &mut DefaultPolicy, &SimConfig::default());
//! assert!(m.energy_j > 0.0);
//! assert_eq!(m.days, 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fleet;
pub mod metrics;
pub mod par;
pub mod plan;
pub mod runner;

pub use fleet::{
    run_fleet, run_fleet_streaming_with, FleetHealth, FleetLedger, FleetMember, FleetReport,
    UserLedgerRollup,
};
pub use metrics::RunMetrics;
pub use par::{par_map, par_map_indexed};
pub use plan::{DayPlan, DefaultPolicy, Execution, Policy};
pub use runner::{compare, simulate, SimConfig};
