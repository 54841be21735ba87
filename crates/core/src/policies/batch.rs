//! The "naive batch" comparison arm (Huang et al. [2], §VI-C).
//!
//! Screen-off network activities queue until `max_batch` of them have
//! accumulated, then the whole batch executes back-to-back in one radio
//! session. A needs-network interaction while demands are queued forces
//! an early flush — the radio must come up for the user — and counts as
//! an affected interaction; this is why Fig. 9 plateaus past five:
//! users rarely leave more than a handful of background transfers
//! unclaimed before touching the phone again.

use netmaster_radio::TailPolicy;
use netmaster_sim::{DayPlan, Execution, Policy};
use netmaster_trace::trace::DayTrace;

/// Bounded batching policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum screen-off activities aggregated into one batch.
    /// `0` or `1` disables batching.
    pub max_batch: usize,
}

impl BatchPolicy {
    /// New batch policy.
    pub fn new(max_batch: usize) -> Self {
        BatchPolicy { max_batch }
    }
}

impl Policy for BatchPolicy {
    fn name(&self) -> String {
        format!("batch-{}", self.max_batch)
    }

    fn tail_policy(&self) -> TailPolicy {
        TailPolicy::Full
    }

    fn plan_day(&mut self, day: &DayTrace) -> DayPlan {
        let mut plan = DayPlan::default();
        if self.max_batch <= 1 {
            return DayPlan::passthrough(day);
        }
        // Time-ordered merge of demands and interactions.
        let mut queue: Vec<usize> = Vec::new(); // indices into activities
        let mut ia = 0usize; // next interaction
        let flush = |queue: &mut Vec<usize>, at: u64, plan: &mut DayPlan| {
            let mut t = at;
            for &idx in queue.iter() {
                let a = &day.activities[idx];
                if t == a.start {
                    plan.executions.push(Execution::natural(a));
                } else {
                    plan.executions.push(Execution::moved(a, t));
                }
                t += a.duration.max(1);
            }
            queue.clear();
        };
        for (idx, (a, screen_on)) in day.activity_screen_states().enumerate() {
            // Interactions arriving before this demand may force a flush.
            while ia < day.interactions.len() && day.interactions[ia].at <= a.start {
                let i = &day.interactions[ia];
                if i.needs_network && !queue.is_empty() {
                    plan.affected_interactions += 1;
                    flush(&mut queue, i.at, &mut plan);
                }
                ia += 1;
            }
            if screen_on {
                plan.executions.push(Execution::natural(a));
                continue;
            }
            queue.push(idx);
            if queue.len() >= self.max_batch {
                flush(&mut queue, a.start, &mut plan);
            }
        }
        // Remaining interactions may still force a flush.
        while ia < day.interactions.len() {
            let i = &day.interactions[ia];
            if i.needs_network && !queue.is_empty() {
                plan.affected_interactions += 1;
                flush(&mut queue, i.at, &mut plan);
            }
            ia += 1;
        }
        // Day over: flush stragglers at their own arrival times' tail
        // end (the last demand's arrival — nothing is dropped).
        if let Some(&last) = queue.last() {
            let at = day.activities[last].start;
            flush(&mut queue, at, &mut plan);
        }
        plan.executions.sort_by_key(|e| e.start);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_sim::{simulate, DefaultPolicy, SimConfig};
    use netmaster_trace::event::{ActivityCause, AppId, Interaction, NetworkActivity};
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;

    fn demand(start: u64) -> NetworkActivity {
        NetworkActivity {
            start,
            duration: 5,
            bytes_down: 500,
            bytes_up: 0,
            app: AppId(0),
            cause: ActivityCause::Background,
        }
    }

    #[test]
    fn batch_of_three_executes_at_third_arrival() {
        let mut day = DayTrace::new(0);
        day.activities = vec![demand(1_000), demand(2_000), demand(3_000)];
        let plan = BatchPolicy::new(3).plan_day(&day);
        let mut starts: Vec<u64> = plan.executions.iter().map(|e| e.start).collect();
        starts.sort_unstable();
        // All three run back-to-back from 3 000.
        assert_eq!(starts, vec![3_000, 3_005, 3_010]);
    }

    #[test]
    fn max_batch_one_is_passthrough() {
        let mut day = DayTrace::new(0);
        day.activities = vec![demand(1_000), demand(2_000)];
        let plan = BatchPolicy::new(1).plan_day(&day);
        assert_eq!(plan.moved_count(), 0);
        let plan0 = BatchPolicy::new(0).plan_day(&day);
        assert_eq!(plan0.moved_count(), 0);
    }

    #[test]
    fn needs_network_interaction_forces_flush_and_counts() {
        let mut day = DayTrace::new(0);
        day.activities = vec![demand(1_000), demand(2_000)];
        day.interactions = vec![Interaction {
            at: 2_500,
            app: AppId(0),
            needs_network: true,
        }];
        day.sessions = vec![netmaster_trace::event::ScreenSession {
            start: 2_400,
            end: 2_600,
        }];
        let plan = BatchPolicy::new(5).plan_day(&day);
        assert_eq!(plan.affected_interactions, 1);
        // Both demands flushed at the interaction instant.
        let starts: Vec<u64> = plan.executions.iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![2_500, 2_505]);
    }

    #[test]
    fn leftover_queue_flushes_by_day_end() {
        let mut day = DayTrace::new(0);
        day.activities = vec![demand(1_000), demand(2_000)];
        let plan = BatchPolicy::new(10).plan_day(&day);
        assert_eq!(plan.executions.len(), 2, "nothing dropped");
        // Flushed at the last arrival.
        let starts: Vec<u64> = plan.executions.iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![2_000, 2_005]);
    }

    #[test]
    fn bigger_batches_save_more_until_interactions_cap_them() {
        let trace = TraceGenerator::new(UserProfile::volunteers().remove(2))
            .with_seed(31)
            .generate(7);
        let cfg = SimConfig::default();
        let base = simulate(&trace.days, &mut DefaultPolicy, &cfg);
        let b2 = simulate(&trace.days, &mut BatchPolicy::new(2), &cfg);
        let b5 = simulate(&trace.days, &mut BatchPolicy::new(5), &cfg);
        let b10 = simulate(&trace.days, &mut BatchPolicy::new(10), &cfg);
        assert!(b5.energy_j < b2.energy_j, "more batching saves more");
        assert!(b2.energy_j < base.energy_j);
        // Fig. 9: performance plateaus past ~5 — user interactions
        // flush queues before they grow that deep.
        let gain_5_to_10 = 1.0 - b10.energy_j / b5.energy_j;
        let gain_2_to_5 = 1.0 - b5.energy_j / b2.energy_j;
        assert!(
            gain_5_to_10 < gain_2_to_5 + 0.02,
            "plateau expected: 2→5 {gain_2_to_5:.3}, 5→10 {gain_5_to_10:.3}"
        );
        assert_eq!(b10.bytes_down, base.bytes_down, "no bytes lost");
    }
}
