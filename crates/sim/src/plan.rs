//! The policy interface: a scheduling policy transforms one day of
//! network demands into an execution plan.
//!
//! The simulator replays a recorded day (screen sessions, interactions,
//! network demands) under a policy that may move, batch, or hold the
//! demands and control the radio. The policy returns a [`DayPlan`]; the
//! runner prices it with the radio model and scores user impact.

use netmaster_radio::TailPolicy;
use netmaster_trace::time::{Interval, Seconds, Timestamp};
use netmaster_trace::trace::DayTrace;

/// One executed transfer in the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Execution {
    /// When the transfer actually ran.
    pub start: Timestamp,
    /// Active transfer seconds.
    pub duration: Seconds,
    /// Bytes down.
    pub bytes_down: u64,
    /// Bytes up.
    pub bytes_up: u64,
    /// The demand's natural start time, when the policy moved it.
    pub moved_from: Option<Timestamp>,
}

impl Execution {
    /// Executes a demand unchanged at its natural time.
    pub fn natural(a: &netmaster_trace::event::NetworkActivity) -> Self {
        Execution {
            start: a.start,
            duration: a.duration,
            bytes_down: a.bytes_down,
            bytes_up: a.bytes_up,
            moved_from: None,
        }
    }

    /// Executes a demand at a different time.
    pub fn moved(a: &netmaster_trace::event::NetworkActivity, at: Timestamp) -> Self {
        Execution {
            start: at,
            duration: a.duration,
            bytes_down: a.bytes_down,
            bytes_up: a.bytes_up,
            moved_from: Some(a.start),
        }
    }

    /// The radio-occupancy span of this execution.
    pub fn span(&self) -> Interval {
        Interval::new(self.start, self.start + self.duration.max(1))
    }

    /// `true` when the policy moved this transfer.
    pub fn was_moved(&self) -> bool {
        self.moved_from.is_some()
    }
}

/// A policy's plan for one day.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DayPlan {
    /// Every transfer that ran, possibly moved/batched, in no promised
    /// order: consumers that need time order sort for themselves
    /// (`RrcModel::account` and the radio sweeps sort their span keys),
    /// and the RRC totals depend only on the multiset of spans.
    pub executions: Vec<Execution>,
    /// Interactions the policy itself scored as *affected* (held behind
    /// a delay window, or a wrong radio-off decision). The policy owns
    /// this judgement because the criteria differ: delay/batch affect
    /// any interaction inside a hold window, NetMaster only counts
    /// real-time-adjustment failures.
    pub affected_interactions: u64,
    /// Duty-cycle wake-ups that found nothing to send.
    pub empty_wakeups: u64,
}

impl DayPlan {
    /// Pass-through plan: every demand runs at its natural time.
    pub fn passthrough(day: &DayTrace) -> Self {
        DayPlan {
            executions: day.activities.iter().map(Execution::natural).collect(),
            affected_interactions: 0,
            empty_wakeups: 0,
        }
    }

    /// Total bytes (down, up) in the plan.
    pub fn total_bytes(&self) -> (u64, u64) {
        self.executions
            .iter()
            .fold((0, 0), |(d, u), e| (d + e.bytes_down, u + e.bytes_up))
    }

    /// Number of moved transfers.
    pub fn moved_count(&self) -> u64 {
        self.executions.iter().filter(|e| e.was_moved()).count() as u64
    }
}

/// A scheduling policy under evaluation.
///
/// `plan_day` is called once per simulated day *in order*; stateful
/// policies (NetMaster's mining component) fold each observed day into
/// their history after planning it, exactly as the middleware's
/// monitoring component records while the scheduler runs.
pub trait Policy {
    /// Display name (Fig. 7 legend).
    fn name(&self) -> String;

    /// How the radio demotes after transfers under this policy
    /// (stock timers, fast dormancy, or forced off).
    fn tail_policy(&self) -> TailPolicy;

    /// Plans one day.
    fn plan_day(&mut self, day: &DayTrace) -> DayPlan;
}

/// The stock device: no middleware, every transfer at its natural time,
/// full inactivity timers. The "Baseline"/“without NetMaster” arm.
#[derive(Debug, Clone, Default)]
pub struct DefaultPolicy;

impl Policy for DefaultPolicy {
    fn name(&self) -> String {
        "default".into()
    }

    fn tail_policy(&self) -> TailPolicy {
        TailPolicy::Full
    }

    fn plan_day(&mut self, day: &DayTrace) -> DayPlan {
        DayPlan::passthrough(day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_trace::event::{ActivityCause, AppId, NetworkActivity};

    fn demand(start: Timestamp) -> NetworkActivity {
        NetworkActivity {
            start,
            duration: 10,
            bytes_down: 500,
            bytes_up: 100,
            app: AppId(0),
            cause: ActivityCause::Background,
        }
    }

    #[test]
    fn natural_execution_preserves_time() {
        let e = Execution::natural(&demand(42));
        assert_eq!(e.start, 42);
        assert!(!e.was_moved());
        assert_eq!(e.span(), Interval::new(42, 52));
    }

    #[test]
    fn moved_execution_remembers_origin() {
        let e = Execution::moved(&demand(42), 100);
        assert_eq!(e.start, 100);
        assert_eq!(e.moved_from, Some(42));
        assert!(e.was_moved());
    }

    #[test]
    fn passthrough_plan_covers_all_demands() {
        let mut day = DayTrace::new(0);
        day.activities = vec![demand(10), demand(20)];
        let plan = DayPlan::passthrough(&day);
        assert_eq!(plan.executions.len(), 2);
        assert_eq!(plan.total_bytes(), (1_000, 200));
        assert_eq!(plan.moved_count(), 0);
        assert_eq!(plan.affected_interactions, 0);
    }

    #[test]
    fn default_policy_is_identity() {
        let mut p = DefaultPolicy;
        let mut day = DayTrace::new(3);
        day.activities = vec![demand(netmaster_trace::time::day_start(3) + 5)];
        let plan = p.plan_day(&day);
        assert_eq!(
            plan.executions[0].start,
            netmaster_trace::time::day_start(3) + 5
        );
        assert_eq!(p.tail_policy(), TailPolicy::Full);
        assert_eq!(p.name(), "default");
    }

    #[test]
    fn zero_duration_execution_has_unit_span() {
        let mut a = demand(5);
        a.duration = 0;
        let e = Execution::natural(&a);
        assert_eq!(e.span().len(), 1);
    }
}
