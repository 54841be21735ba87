//! # netmaster-mining
//!
//! User habit mining for the NetMaster reproduction: hourly intensity
//! extraction, Pearson-correlation analysis of usage patterns (Eq. 1,
//! Figs. 3–4), hour-level prediction of user active slots (Eq. 2) and
//! screen-off network active slots (Eq. 3) with the impact-based δ
//! threshold, and "Special Apps" detection (§IV-C2).
//!
//! ```
//! use netmaster_mining::{HourlyHistory, PredictionConfig, predict_active_slots};
//! use netmaster_trace::gen::generate_panel;
//!
//! let trace = &generate_panel(14, 7)[3]; // the regular commuter
//! let history = HourlyHistory::from_trace(trace);
//! let pred = predict_active_slots(&history, PredictionConfig::default());
//! // The commuter's 07:00 peak is predicted active on weekdays.
//! assert!(pred.weekday[7]);
//! // Deep night is not.
//! assert!(!pred.weekday[3]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod confidence;
pub mod incremental;
pub mod intensity;
pub mod pearson;
pub mod prediction;
pub mod predictors;
pub mod special;
pub mod stability;

pub use confidence::{
    predict_with_confidence, predict_with_confidence_from_counts, wilson_interval, Bound,
};
pub use incremental::IncrementalMiner;
pub use intensity::HourlyHistory;
pub use pearson::{cross_day_matrix, cross_user_matrix, pearson, CorrelationMatrix};
pub use prediction::{
    predict_active_slots, prediction_accuracy, ActiveSlotPrediction, NetworkPrediction,
    PredictionConfig,
};
pub use predictors::{predict_with, EwmaModel, FrequencyModel, SmoothedModel, UsageModel};
pub use special::SpecialApps;
pub use stability::{drift_points, habit_stability, habit_stability_for, StabilityReport};
