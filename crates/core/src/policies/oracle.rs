//! The oracle: off-line optimal scheduling with perfect knowledge
//! (§IV-B, and the "Oracle" bar of Fig. 7(a)).
//!
//! With the user active slot set known exactly, every screen-off
//! network activity is scheduled into the *adjacent* actual screen
//! session — no prediction error, no penalty — and the radio is forced
//! off after every batch. This is the ground-truth minimum the paper
//! derives by off-line analysis ("the optimal result refers to the
//! minimal energy cost for the same network activities").

use netmaster_radio::TailPolicy;
use netmaster_sim::{DayPlan, Execution, Policy};
use netmaster_trace::event::NetworkActivity;
use netmaster_trace::trace::DayTrace;
use std::collections::HashMap;

/// Offline-optimal policy.
#[derive(Debug, Clone, Default)]
pub struct OraclePolicy;

impl OraclePolicy {
    /// Picks the actual session nearest to the demand (by boundary
    /// distance); returns its index, or `None` when the day has no
    /// sessions at all.
    fn nearest_session(day: &DayTrace, a: &NetworkActivity) -> Option<usize> {
        day.sessions
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| {
                if s.span().contains(a.start) {
                    0
                } else if a.start < s.start {
                    s.start - a.start
                } else {
                    a.start - s.end
                }
            })
            .map(|(i, _)| i)
    }
}

impl Policy for OraclePolicy {
    fn name(&self) -> String {
        "oracle".into()
    }

    fn tail_policy(&self) -> TailPolicy {
        TailPolicy::Immediate
    }

    fn plan_day(&mut self, day: &DayTrace) -> DayPlan {
        let mut plan = DayPlan::default();
        let mut fwd: HashMap<usize, u64> = HashMap::new();
        let mut back: HashMap<usize, u64> = HashMap::new();
        for (a, screen_on) in day.activity_screen_states() {
            if screen_on {
                plan.executions.push(Execution::natural(a));
                continue;
            }
            match Self::nearest_session(day, a) {
                None => plan.executions.push(Execution::natural(a)),
                Some(i) => {
                    let s = &day.sessions[i];
                    let dur = a.duration.max(1);
                    let at = if a.start < s.start {
                        // Defer into the upcoming session.
                        let off = fwd.entry(i).or_insert(0);
                        let t = s.start + *off;
                        *off += dur;
                        t
                    } else {
                        // Prefetch into the previous session.
                        let off = back.entry(i).or_insert(0);
                        let t = s.end.saturating_sub(*off + dur).max(s.start);
                        *off += dur;
                        t
                    };
                    plan.executions.push(Execution::moved(a, at));
                }
            }
        }
        plan.executions.sort_by_key(|e| e.start);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_sim::{simulate, DefaultPolicy, SimConfig};
    use netmaster_trace::event::{ActivityCause, AppId, ScreenSession};
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;

    fn demand(start: u64) -> NetworkActivity {
        NetworkActivity {
            start,
            duration: 10,
            bytes_down: 1_000,
            bytes_up: 0,
            app: AppId(0),
            cause: ActivityCause::Background,
        }
    }

    #[test]
    fn screen_off_demands_move_into_sessions() {
        let mut day = DayTrace::new(0);
        day.sessions = vec![
            ScreenSession {
                start: 1_000,
                end: 1_100,
            },
            ScreenSession {
                start: 50_000,
                end: 50_200,
            },
        ];
        day.activities = vec![demand(5_000), demand(49_000), demand(60_000)];
        let mut p = OraclePolicy;
        let plan = p.plan_day(&day);
        assert_eq!(plan.executions.len(), 3);
        for e in &plan.executions {
            assert!(e.was_moved(), "all screen-off demands move");
            let in_session = day
                .sessions
                .iter()
                .any(|s| e.start >= s.start && e.start < s.end);
            assert!(
                in_session,
                "execution at {} must be inside a session",
                e.start
            );
        }
        // 5 000 is nearer session 0's end (3 900) than session 1's start
        // (45 000): it prefetches into session 0.
        assert!(plan
            .executions
            .iter()
            .any(|e| e.moved_from == Some(5_000) && e.start < 1_100));
    }

    #[test]
    fn screen_on_demands_stay_put() {
        let mut day = DayTrace::new(0);
        day.sessions = vec![ScreenSession {
            start: 100,
            end: 300,
        }];
        day.activities = vec![demand(150)];
        let plan = OraclePolicy.plan_day(&day);
        assert!(!plan.executions[0].was_moved());
    }

    #[test]
    fn day_without_sessions_keeps_natural_times() {
        let mut day = DayTrace::new(0);
        day.activities = vec![demand(1_000)];
        let plan = OraclePolicy.plan_day(&day);
        assert_eq!(plan.executions[0].start, 1_000);
    }

    #[test]
    fn oracle_is_the_cheapest_arm() {
        let trace = TraceGenerator::new(UserProfile::volunteers().remove(1))
            .with_seed(5)
            .generate(7);
        let cfg = SimConfig::default();
        let base = simulate(&trace.days, &mut DefaultPolicy, &cfg);
        let oracle = simulate(&trace.days, &mut OraclePolicy, &cfg);
        assert!(
            oracle.energy_j < 0.4 * base.energy_j,
            "oracle should save >60%: {} vs {}",
            oracle.energy_j,
            base.energy_j
        );
        assert_eq!(
            oracle.affected_interactions, 0,
            "the oracle never interrupts"
        );
        assert_eq!(oracle.bytes_down, base.bytes_down);
    }

    #[test]
    fn prefetch_cursors_stack_without_overlap() {
        let mut day = DayTrace::new(0);
        day.sessions = vec![ScreenSession {
            start: 1_000,
            end: 1_100,
        }];
        day.activities = vec![demand(2_000), demand(3_000), demand(4_000)];
        let plan = OraclePolicy.plan_day(&day);
        let mut starts: Vec<u64> = plan.executions.iter().map(|e| e.start).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), 3, "prefetches must not collide");
    }
}
