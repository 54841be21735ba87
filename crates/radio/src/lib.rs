//! # netmaster-radio
//!
//! Cellular radio substrate for the NetMaster reproduction: RRC
//! state-machine power models (WCDMA and LTE, constants from Huang et
//! al. MobiSys'12), energy accounting over transfer timelines, carrier
//! link rates and slot capacities, and duty-cycle wake-up pricing.
//!
//! The paper estimates energy with exactly this model-based approach
//! (§VI-A: "we adopt the power model proposed in \[5, 8, 11\]"), so this
//! crate is a reimplementation of the published model rather than an
//! approximation of hardware measurements.
//!
//! ```
//! use netmaster_radio::{RrcModel, Interval};
//!
//! let radio = RrcModel::wcdma_default();
//! // Two isolated 10-second transfers...
//! let separate = radio.account(&[Interval::new(0, 10), Interval::new(600, 610)]);
//! // ...cost far more than the same transfers batched together.
//! let batched = radio.account(&[Interval::new(0, 10), Interval::new(10, 20)]);
//! assert!(batched.total_j() < 0.75 * separate.total_j());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod battery;
pub mod duty;
pub mod fach;
pub mod link;
pub mod power;
pub mod rrc;
pub mod timeline;

pub use attribution::{apportion, bill_each, ranked, AppEnergy};
pub use battery::BatteryModel;
pub use duty::DutyCycleCost;
pub use fach::{FachConfig, SizeAwareRrc};
pub use link::LinkModel;
pub use power::{Milliwatts, RrcConfig, TailPhase, TailPolicy};
pub use rrc::{EnergyBreakdown, RrcModel, SpanKey};
pub use timeline::{RadioState, Segment, Timeline};

// Re-export the interval type the accounting API speaks.
pub use netmaster_trace::time::Interval;
