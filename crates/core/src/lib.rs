//! # netmaster-core
//!
//! The NetMaster middleware (ICPP 2014): a cross-app service that mines
//! a smartphone user's habit from monitored traces, predicts user
//! active slots and screen-off network activity hour-by-hour, and
//! reschedules background transfers into the slots where the radio will
//! be up anyway — solved as a multiple-knapsack problem with overlapped
//! itemsets (Algorithm 1, `(1−ε)/2`-approximate). A real-time
//! adjustment layer (exponential-sleep duty cycling + Special Apps)
//! covers prediction misses so the chance of an undesired interrupt
//! stays under 1%.
//!
//! The three middleware components of §V map onto modules:
//!
//! | paper component | module |
//! |---|---|
//! | monitoring component | [`monitoring`] |
//! | mining component | `netmaster-mining` (driven from [`policies::NetMasterPolicy`]) |
//! | scheduling component | [`decision`] + [`dutycycle`] |
//!
//! ```
//! use netmaster_core::policies::{NetMasterPolicy, DefaultPolicy};
//! use netmaster_core::NetMasterConfig;
//! use netmaster_radio::{LinkModel, RrcModel};
//! use netmaster_sim::{simulate, SimConfig};
//! use netmaster_trace::gen::generate_volunteers;
//!
//! let trace = &generate_volunteers(10, 7)[0];
//! let cfg = SimConfig::default();
//! let mut nm = NetMasterPolicy::new(
//!     NetMasterConfig::default(), LinkModel::default(), RrcModel::wcdma_default(),
//! ).with_training(&trace.days[..7]);
//! let base = simulate(&trace.days[7..], &mut DefaultPolicy, &cfg);
//! let master = simulate(&trace.days[7..], &mut nm, &cfg);
//! assert!(master.energy_j < base.energy_j);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod decision;
pub mod dutycycle;
pub mod monitoring;
pub mod policies;
pub mod service;
pub mod watchtower;

pub use config::NetMasterConfig;
pub use decision::{DayRouting, DecisionMaker, Disposition};
pub use dutycycle::{idle_wakeups, run_window, DutyOutcome, SleepScheme};
pub use monitoring::{Database, KindCounts, Monitor, MonitorConfig, Record};
pub use service::{DayReport, MiddlewareService, ServiceSummary};

/// `true` when this build compiles the `strict-invariants` runtime
/// oracles (solver floors, watchtower monotonicity) into the stack.
pub const STRICT_INVARIANTS: bool = cfg!(feature = "strict-invariants");
