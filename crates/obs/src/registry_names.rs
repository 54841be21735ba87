//! The metric-name and journal-kind registry: the single source of
//! truth for every observability name in the workspace.
//!
//! Every metric is one row of the `metrics!` table below:
//! `IDENT = "name": "help text";`. A row expands to a `pub const IDENT`
//! holding the name, documented by its help text, and to one entry of
//! [`METRICS`], which the Prometheus exporter reads for its `# HELP`
//! lines. A metric without HELP text therefore cannot be written.
//! Journal event kinds are plain `KIND_*` consts.
//!
//! `netmaster lint` (rule `metric-names`) machine-checks this file
//! three ways: every *literal* name at an instrumentation site must be
//! declared here, every [`DecisionEvent`](crate::DecisionEvent)
//! variant must have a matching `KIND_*` const (and vice versa), and
//! every name must appear in DESIGN.md/EXPERIMENTS.md so the docs
//! cannot drift from the code. Adding a metric starts here.
//!
//! Naming: counters end in `_total`, histograms in `_seconds`, gauges
//! that track maxima in `_highwater`; stage spans are
//! `stage_<stage>_seconds` (what `span!("<stage>")` expands to). The
//! exporter prepends `netmaster_` at render time.

/// Declares the metric table: one `pub const` per row plus [`METRICS`].
macro_rules! metrics {
    ($($ident:ident = $name:literal: $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $ident: &str = $name;
        )*

        /// Every registered metric as `(name, HELP text)`, in table
        /// order. [`Snapshot::to_prometheus`](crate::Snapshot::to_prometheus)
        /// joins it at render time, so the exposition's HELP lines can
        /// never drift from the registry.
        pub const METRICS: &[(&str, &str)] = &[$(($name, $help)),*];
    };
}

metrics! {
    // --- Scheduler / policy counters -----------------------------------
    SCHED_DEFERRED_TOTAL = "sched_deferred_total":
        "Activities the planner deferred out of their requested slot";
    SCHED_PREFETCHED_TOTAL = "sched_prefetched_total":
        "Activities prefetched into an earlier active slot";
    SCHED_DUTY_SERVED_TOTAL = "sched_duty_served_total":
        "Activities the duty-cycle fallback served";
    SCHED_WRONG_DECISIONS_TOTAL = "sched_wrong_decisions_total":
        "Interactions hurt by a blocked radio (wrong decisions)";
    PREDICTION_HITS_TOTAL = "prediction_hits_total":
        "Activities served inside a correctly-predicted slot";
    PREDICTION_MISSES_TOTAL = "prediction_misses_total":
        "Trained-day demands that fell through to the duty-cycle fallback";
    SLOT_HOURS_PREDICTED_TOTAL = "slot_hours_predicted_total":
        "Slot-hours the habit model predicted active";
    SLOT_HOURS_ACTIVE_TOTAL = "slot_hours_active_total":
        "Slot-hours that actually saw user activity";
    SLOT_HOURS_OVERLAP_TOTAL = "slot_hours_overlap_total":
        "Slot-hours predicted active that really were active";
    POLICY_DAYS_TRAINED_TOTAL = "policy_days_trained_total":
        "Days executed with a trained habit model";
    POLICY_DAYS_UNTRAINED_TOTAL = "policy_days_untrained_total":
        "Days executed before the habit model had enough history";
    SERVICE_DAYS_TOTAL = "service_days_total": "Days run through the middleware service";
    SPECIAL_PASSTHROUGH_TOTAL = "special_passthrough_total":
        "Activities passed through untouched as special apps";

    // --- Planner / solver ----------------------------------------------
    PLANNER_SLOTS_TOTAL = "planner_slots_total": "Slots handed to the day planner";
    PLANNER_ITEMS_TOTAL = "planner_items_total": "Items handed to the day planner";
    KNAPSACK_FASTPATH_TOTAL = "knapsack_fastpath_total":
        "SIN-KNAP calls answered by the greedy fast path";
    KNAPSACK_DP_TOTAL = "knapsack_dp_total":
        "SIN-KNAP calls solved by the full DP or the sparse quantized DP";
    KNAPSACK_BNB_TOTAL = "knapsack_bnb_total":
        "Dispatcher calls answered exactly by branch-and-bound";
    KNAPSACK_DP_CELLS_HIGHWATER = "knapsack_dp_cells_highwater":
        "Largest DP table (cells) any call touched";
    KNAPSACK_CHOICE_BITS_HIGHWATER = "knapsack_choice_bits_highwater":
        "Largest choice-bitset (bits) any call touched";
    KNAPSACK_QDP_STATES_HIGHWATER = "knapsack_qdp_states_highwater":
        "Largest sparse-DP state arena any call grew";

    // --- Duty cycle ------------------------------------------------------
    DUTY_WAKEUPS_TOTAL = "duty_wakeups_total": "Wakeups the duty-cycle fallback scheduled";
    DUTY_EMPTY_WAKEUPS_TOTAL = "duty_empty_wakeups_total": "Wakeups that found nothing to do";

    // --- Mining ----------------------------------------------------------
    MINING_REMINE_TOTAL = "mining_remine_total": "Full re-mines triggered by the incremental miner";
    MINING_DAYS_ABSORBED_TOTAL = "mining_days_absorbed_total":
        "Days absorbed incrementally without a re-mine";
    MINING_DRIFT_RESETS_TOTAL = "mining_drift_resets_total":
        "Miner resets forced by detected habit drift";

    // --- Journal / ledger rings ------------------------------------------
    JOURNAL_DROPPED_TOTAL = "journal_dropped_total":
        "Events the bounded journal ring discarded on overflow";
    LEDGER_RECORDS_TOTAL = "ledger_records_total":
        "Activity lifecycle records appended to the causal trace ledger";
    LEDGER_DROPPED_TOTAL = "ledger_dropped_total":
        "Lifecycle records the bounded ledger ring discarded on overflow";
    JOURNAL_RING_HIGHWATER = "journal_ring_highwater":
        "Highest fill level the journal ring reached before a drain";
    LEDGER_RING_HIGHWATER = "ledger_ring_highwater":
        "Highest fill level the trace-ledger ring reached before a drain";

    // --- Fleet -----------------------------------------------------------
    FLEET_MEMBERS_TOTAL = "fleet_members_total": "Members simulated across all fleet runs";
    FLEET_MEMBER_SECONDS = "fleet_member_seconds": "Wall-clock seconds per simulated member";

    // --- Fleet-level outcome gauges --------------------------------------
    FLEET_SAVING_RATIO = "fleet_saving_ratio":
        "Mean energy-saving ratio of the most recent fleet/watch run";

    // --- Span tree / sampling profiler -----------------------------------
    SPANS_STARTED_TOTAL = "spans_started_total":
        "Spans entered (every span!/timer! guard constructed)";
    SPANS_ABANDONED_TOTAL = "spans_abandoned_total":
        "Spans dropped mid-panic, counted here instead of their histogram";
    TRACE_STORE_DROPPED_TOTAL = "trace_store_dropped_total":
        "Completed span trees the bounded trace store evicted on overflow";
    PROFILE_SAMPLES_TOTAL = "profile_samples_total":
        "Live span stacks the sampling profiler has captured";

    // --- Telemetry hub / scrape server -----------------------------------
    HUB_MEMBERS_DONE = "hub_members_done": "Members the live run has completed so far";
    HUB_MEMBERS_PER_SEC = "hub_members_per_sec": "Windowed EWMA of members completed per second";
    HUB_DAYS_DONE = "hub_days_done": "Simulated days the live run has executed so far";
    SERVE_REQUESTS_TOTAL = "serve_requests_total": "HTTP requests the scrape server has answered";

    // --- Latency histograms ----------------------------------------------
    DEFERRAL_LATENCY_SECONDS = "deferral_latency_seconds":
        "Seconds of delay each deferred activity experienced (simulated)";
    DUTY_SERVICE_LATENCY_SECONDS = "duty_service_latency_seconds":
        "Delay between a demand's request and its duty-cycle service";

    // --- Stage spans (`span!("<stage>")` → `stage_<stage>_seconds`) ------
    STAGE_MINE_SECONDS = "stage_mine_seconds": "Habit mining stage latency";
    STAGE_PREDICT_SECONDS = "stage_predict_seconds": "Usage prediction stage latency";
    STAGE_PLAN_DAY_SECONDS = "stage_plan_day_seconds": "Day planning stage latency";
    STAGE_SOLVE_SECONDS = "stage_solve_seconds": "Knapsack solve stage latency";
    STAGE_DUTYCYCLE_SECONDS = "stage_dutycycle_seconds": "Duty-cycle fallback stage latency";
    STAGE_RUN_DAY_SECONDS = "stage_run_day_seconds": "Whole-day execution stage latency";
}

// --- Journal event kinds (DecisionEvent variant names) ---------------

/// A slot's usage was predicted.
pub const KIND_SLOT_PREDICTED: &str = "SlotPredicted";
/// An activity was placed in a slot.
pub const KIND_ACTIVITY_SCHEDULED: &str = "ActivityScheduled";
/// A deferral actually executed.
pub const KIND_DEFERRAL_EXECUTED: &str = "DeferralExecuted";
/// Prediction contradicted the trace.
pub const KIND_PREDICTION_MISS: &str = "PredictionMiss";
/// The duty-cycle fallback took over a slot.
pub const KIND_DUTY_CYCLE_FALLBACK: &str = "DutyCycleFallback";
/// A special app bypassed scheduling.
pub const KIND_SPECIAL_APP_PASSTHROUGH: &str = "SpecialAppPassthrough";
/// A scheduling decision was retrospectively wrong.
pub const KIND_WRONG_DECISION: &str = "WrongDecision";
/// A full day finished executing.
pub const KIND_DAY_EXECUTED: &str = "DayExecuted";
/// A drift monitor fired.
pub const KIND_DRIFT_DETECTED: &str = "DriftDetected";
/// A member's health scorecard degraded.
pub const KIND_HEALTH_DEGRADED: &str = "HealthDegraded";

/// The registered `# HELP` line for `name`, when the registry knows it.
pub fn help_for(name: &str) -> Option<&'static str> {
    METRICS.iter().find(|(n, _)| *n == name).map(|&(_, h)| h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_prometheus_shaped() {
        for (name, _) in METRICS {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} breaks the Prometheus charset"
            );
        }
    }

    #[test]
    fn help_covers_every_metric() {
        for (name, help) in METRICS {
            assert!(!help.is_empty(), "{name} has empty HELP text");
            assert!(
                !help.contains('\n') && !help.contains('\\'),
                "{name} HELP text needs escaping"
            );
        }
    }

    #[test]
    fn stage_consts_match_span_expansion() {
        // span!("<stage>") expands to "stage_<stage>_seconds"; the consts
        // must stay consistent with that shape.
        for (stage, full) in [
            ("mine", STAGE_MINE_SECONDS),
            ("predict", STAGE_PREDICT_SECONDS),
            ("plan_day", STAGE_PLAN_DAY_SECONDS),
            ("solve", STAGE_SOLVE_SECONDS),
            ("dutycycle", STAGE_DUTYCYCLE_SECONDS),
            ("run_day", STAGE_RUN_DAY_SECONDS),
        ] {
            assert_eq!(full, format!("stage_{stage}_seconds"));
        }
    }
}
