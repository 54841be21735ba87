//! Causal activity tracing: the per-activity "flight recorder".
//!
//! The journal ([`crate::Journal`]) answers *what the scheduler did*
//! per day; this module answers *what happened to one activity and
//! why*. Every network activity carries a stable trace id (packed
//! `day << 32 | index`, assigned at generation by `netmaster-trace`),
//! and the policy appends one [`ActivityTrace`] lifecycle record per
//! activity it plans: how it was classified, which slot prediction and
//! knapsack decision routed it ([`PlanReason`]), where it actually ran
//! ([`Outcome`]), and — filled in lazily by the middleware service —
//! how much radio energy it was apportioned versus the baseline
//! ([`EnergyShare`]).
//!
//! Records live in a bounded ring ([`TraceLedger`]) mirroring the
//! journal's discipline: overflow evicts oldest-first and counts drops
//! (`ledger_dropped_total`), and every append bumps
//! `ledger_records_total`. The policy writes a day's records once, into
//! one `Vec` that becomes that day's chunk of the ring; the service
//! prices the chunk in place, and a drain of one buffered day hands the
//! same `Vec` back out.

use crate::ring::{Chunk, Ring};
use crate::runtime_enabled;
use serde::{Deserialize, Serialize};

/// Default ring capacity: several weeks of single-user activity.
pub const DEFAULT_LEDGER_CAPACITY: usize = 16_384;

/// Why the knapsack stage could not place an item in any active slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// No predicted slot could host the item (no candidate generated).
    NoCandidate,
    /// Every candidate's deferral penalty exceeded its energy saving.
    NoPositiveProfit,
    /// Profitable candidates existed but slot capacity ran out.
    CapacityFull,
}

/// Which solver arm answered the winning slot's knapsack instance.
///
/// Mirrors `netmaster_knapsack::SolverKind` (obs sits below the solver
/// crates in the dependency order, so it keeps its own copy for
/// serialization); policies map one onto the other when they record a
/// [`PlanReason::Assigned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverArm {
    /// Capacity-slack fast path: every eligible item fit at once.
    Fastpath,
    /// Exact branch-and-bound within its node budget.
    Bnb,
    /// Profit-quantized `(1 − ε)` dynamic program.
    Dp,
}

/// How the planner routed one screen-off activity (the causal "why"
/// recorded at plan time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlanReason {
    /// The screen was on at the natural start: the radio is already up
    /// with the user, nothing to schedule.
    ScreenOn,
    /// The miner had too little history; the day is duty-cycle-only.
    Untrained,
    /// The activity arrived inside a predicted user-active slot (the
    /// real-time layer holds it for the imminent screen-on/wake-up).
    InActiveSlot,
    /// The knapsack assigned the activity to a predicted slot.
    Assigned {
        /// Winning slot index (into the day's predicted slot list).
        slot: usize,
        /// Winning candidate's profit (energy saving minus penalty, J).
        profit: f64,
        /// Item weight (payload bytes) charged against the slot.
        weight: u64,
        /// The competing slot, when the item had two candidates.
        runner_up_slot: Option<usize>,
        /// The competing candidate's profit (J; 0 when none).
        runner_up_profit: f64,
        /// `true` when served before its natural time (prefetch),
        /// `false` when deferred later.
        prefetch: bool,
        /// Which solver arm answered the winning slot's knapsack
        /// (`None` only for records predating the dispatcher).
        solver: Option<SolverArm>,
    },
    /// The knapsack rejected the activity; it fell to the duty-cycle
    /// fallback layer.
    Rejected {
        /// Why no slot took it.
        reason: RejectReason,
    },
}

/// Where the activity finally executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Ran at its natural time (screen-on, or a duty wake-up landed
    /// exactly on the arrival).
    Natural,
    /// Deferred into a later predicted slot.
    Deferred {
        /// Destination slot index.
        slot: usize,
    },
    /// Pre-served in an earlier predicted slot.
    Prefetched {
        /// Destination slot index.
        slot: usize,
    },
    /// Served by a duty-cycle wake-up.
    DutyServed,
}

/// Per-activity radio energy apportionment (joules), filled in by the
/// middleware service after pricing the day's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyShare {
    /// Energy apportioned to this activity under the NetMaster plan.
    pub actual_j: f64,
    /// Energy it would have been apportioned at its natural time under
    /// the stock radio (full inactivity timers).
    pub baseline_j: f64,
}

impl EnergyShare {
    /// Baseline minus actual: positive when NetMaster saved energy on
    /// this activity.
    #[inline]
    pub fn saved_j(&self) -> f64 {
        self.baseline_j - self.actual_j
    }
}

/// One activity's complete causal lifecycle: generated → classified →
/// planned → executed → energy-apportioned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivityTrace {
    /// Stable packed trace id (`day << 32 | index`).
    pub trace_id: u64,
    /// Day the activity belongs to.
    pub day: usize,
    /// Numeric app id from the trace.
    pub app: u16,
    /// Natural start time (simulated seconds).
    pub natural_start: u64,
    /// Transfer duration (seconds).
    pub duration: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// `true` when the screen was on at the natural start
    /// (classification outcome).
    pub screen_on: bool,
    /// The planning decision and its reason.
    pub plan: PlanReason,
    /// Where it finally executed.
    pub outcome: Outcome,
    /// When it actually ran (simulated seconds).
    pub executed_at: u64,
    /// `|executed_at − natural_start|` seconds.
    pub latency_secs: u64,
    /// Radio energy apportionment, once the service priced the day.
    pub energy: Option<EnergyShare>,
}

impl ActivityTrace {
    /// The activity's day-local index (low half of the trace id).
    #[inline]
    pub fn index(&self) -> usize {
        (self.trace_id & 0xFFFF_FFFF) as usize
    }

    /// Human name of the outcome, for tables and golden tests.
    pub fn outcome_kind(&self) -> &'static str {
        match self.outcome {
            Outcome::Natural => "natural",
            Outcome::Deferred { .. } => "deferred",
            Outcome::Prefetched { .. } => "prefetched",
            Outcome::DutyServed => "duty_served",
        }
    }

    /// `true` when the plan stage counted this as a prediction miss
    /// (screen-off demand that fell to the duty layer on a trained day).
    pub fn is_prediction_miss(&self) -> bool {
        matches!(
            self.plan,
            PlanReason::InActiveSlot | PlanReason::Rejected { .. }
        )
    }
}

/// Bounded ring of [`ActivityTrace`] records, one chunk per recorded
/// day. One ledger per policy, like the journal.
#[derive(Debug)]
pub struct TraceLedger {
    ring: Ring<Vec<ActivityTrace>, Chunk>,
}

impl Default for TraceLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceLedger {
    /// Ledger with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_LEDGER_CAPACITY)
    }

    /// Ledger holding at most `cap` records (at least 1).
    pub fn with_capacity(cap: usize) -> Self {
        TraceLedger {
            ring: Ring::new(cap.max(1)),
        }
    }

    /// Appends one day's records, as written, in one chunk. A no-op
    /// when observability is switched off at run time.
    pub fn record_day(&mut self, records: Vec<ActivityTrace>) {
        if !runtime_enabled() {
            return;
        }
        let n = records.len() as u64;
        crate::counter!(crate::names::LEDGER_DROPPED_TOTAL, self.ring.push(records));
        crate::counter!(crate::names::LEDGER_RECORDS_TOTAL, n);
    }

    /// Buffered records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted by the ring bound since creation.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Highest fill level the ring has reached since creation.
    pub fn high_water(&self) -> usize {
        self.ring.high_water()
    }

    /// Buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &ActivityTrace> {
        self.ring.records()
    }

    /// The newest recorded day's records, when they belong to `day`
    /// (the service fills their [`EnergyShare`]s in after pricing that
    /// day's timeline).
    pub fn day_mut(&mut self, day: usize) -> Option<&mut [ActivityTrace]> {
        self.ring
            .back_mut()
            .filter(|chunk| chunk.first().is_some_and(|r| r.day == day))
            .map(Vec::as_mut_slice)
    }

    /// Takes every buffered record, oldest first; a lone buffered day
    /// is handed over without a copy. Publishes the ring's high-water
    /// mark as a gauge when it has risen since the last drain.
    pub fn drain(&mut self) -> Vec<ActivityTrace> {
        if let Some(hw) = self.ring.high_water_rise() {
            crate::gauge_max(crate::names::LEDGER_RING_HIGHWATER, hw as f64);
        }
        self.ring.drain_records()
    }
}

/// Encodes lifecycle records as JSONL: one object per line.
pub fn trace_to_jsonl(records: &[ActivityTrace]) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r)?);
        out.push('\n');
    }
    Ok(out)
}

/// Parses JSONL produced by [`trace_to_jsonl`] (blank lines ignored).
pub fn trace_from_jsonl(s: &str) -> Result<Vec<ActivityTrace>, serde_json::Error> {
    s.lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(day: usize, idx: usize) -> ActivityTrace {
        ActivityTrace {
            trace_id: ((day as u64) << 32) | idx as u64,
            day,
            app: 3,
            natural_start: 1_000,
            duration: 10,
            bytes: 4_096,
            screen_on: false,
            plan: PlanReason::Assigned {
                slot: 1,
                profit: 12.5,
                weight: 10,
                runner_up_slot: Some(0),
                runner_up_profit: 4.0,
                prefetch: false,
                solver: Some(SolverArm::Fastpath),
            },
            outcome: Outcome::Deferred { slot: 1 },
            executed_at: 5_000,
            latency_secs: 4_000,
            energy: Some(EnergyShare {
                actual_j: 2.0,
                baseline_j: 18.62,
            }),
        }
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let _g = crate::test_serial();
        crate::reset();
        let mut l = TraceLedger::with_capacity(3);
        l.record_day((0..2).map(|i| rec(0, i)).collect());
        l.record_day(Vec::new());
        l.record_day((0..3).map(|i| rec(1, i)).collect());
        let snap = crate::snapshot();
        assert_eq!(snap.counter(crate::names::LEDGER_RECORDS_TOTAL), 5);
        assert_eq!(snap.counter(crate::names::LEDGER_DROPPED_TOTAL), 2);
        assert_eq!((l.len(), l.dropped(), l.high_water()), (3, 2, 3));
        let drained = l.drain();
        assert_eq!(drained, (0..3).map(|i| rec(1, i)).collect::<Vec<_>>());
        let gauge = || crate::snapshot().gauge(crate::names::LEDGER_RING_HIGHWATER);
        assert_eq!(gauge(), Some(3.0));
        // A drain with no new high water leaves the gauge where it was.
        l.record_day(vec![rec(2, 0)]);
        assert_eq!(l.drain().len(), 1);
        assert_eq!(gauge(), Some(3.0));
        crate::reset();
    }

    #[test]
    fn newest_day_is_mutable_in_place() {
        let _g = crate::test_serial();
        let mut l = TraceLedger::new();
        l.record_day(vec![rec(0, 0)]);
        assert!(l.day_mut(1).is_none(), "day 1 has not been recorded");
        l.record_day(vec![rec(1, 0), rec(1, 1)]);
        assert!(l.day_mut(0).is_none(), "day 0 is no longer the newest");
        for r in l.day_mut(1).expect("day 1 is the newest") {
            r.energy = Some(EnergyShare {
                actual_j: 1.0,
                baseline_j: 3.0,
            });
        }
        let recs = l.drain();
        assert!(l.is_empty());
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].energy.unwrap().baseline_j, 18.62);
        assert_eq!(recs[2].energy.unwrap().saved_j(), 2.0);
    }

    #[test]
    fn jsonl_round_trips_every_plan_reason() {
        let reasons = [
            PlanReason::ScreenOn,
            PlanReason::Untrained,
            PlanReason::InActiveSlot,
            PlanReason::Assigned {
                slot: 0,
                profit: 1.0,
                weight: 2,
                runner_up_slot: None,
                runner_up_profit: 0.0,
                prefetch: true,
                solver: Some(SolverArm::Bnb),
            },
            PlanReason::Assigned {
                slot: 1,
                profit: 2.0,
                weight: 4,
                runner_up_slot: Some(0),
                runner_up_profit: 1.5,
                prefetch: false,
                solver: Some(SolverArm::Dp),
            },
            PlanReason::Rejected {
                reason: RejectReason::NoCandidate,
            },
            PlanReason::Rejected {
                reason: RejectReason::NoPositiveProfit,
            },
            PlanReason::Rejected {
                reason: RejectReason::CapacityFull,
            },
        ];
        let records: Vec<ActivityTrace> = reasons
            .iter()
            .enumerate()
            .map(|(i, &plan)| {
                let mut r = rec(2, i);
                r.plan = plan;
                r.energy = if i % 2 == 0 { r.energy } else { None };
                r
            })
            .collect();
        let jsonl = trace_to_jsonl(&records).unwrap();
        assert_eq!(jsonl.lines().count(), records.len());
        let back = trace_from_jsonl(&jsonl).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn miss_classification_and_outcome_kinds() {
        let mut r = rec(0, 0);
        assert_eq!(r.outcome_kind(), "deferred");
        assert!(!r.is_prediction_miss());
        r.plan = PlanReason::InActiveSlot;
        r.outcome = Outcome::DutyServed;
        assert_eq!(r.outcome_kind(), "duty_served");
        assert!(r.is_prediction_miss());
        r.plan = PlanReason::ScreenOn;
        r.outcome = Outcome::Natural;
        assert_eq!(r.outcome_kind(), "natural");
        assert!(!r.is_prediction_miss());
        r.outcome = Outcome::Prefetched { slot: 0 };
        assert_eq!(r.outcome_kind(), "prefetched");
    }

    #[test]
    fn switched_off_ledger_stays_empty() {
        let _g = crate::test_serial();
        crate::reset();
        // Two records into a one-slot ring would drop one if recorded.
        let mut l = TraceLedger::with_capacity(1);
        crate::set_runtime_enabled(false);
        l.record_day(vec![rec(0, 0), rec(0, 1)]);
        crate::set_runtime_enabled(true);
        assert!(l.is_empty());
        assert_eq!(l.dropped(), 0);
        let snap = crate::snapshot();
        assert_eq!(snap.counter(crate::names::LEDGER_DROPPED_TOTAL), 0);
        assert_eq!(snap.counter(crate::names::LEDGER_RECORDS_TOTAL), 0);
        crate::reset();
    }
}
