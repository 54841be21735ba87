//! The "naive delay" comparison arm (Qian et al. [10], §VI-C).
//!
//! Screen-off network activities are held and released at the next
//! boundary of a fixed interval grid (Qian et al. batch periodic
//! transfers to common period boundaries), so everything arriving
//! within one interval aggregates into a single radio session. The
//! scheme is blind to user habit, so interactions landing inside a
//! hold window are *affected* — the radio is off and content is stale
//! exactly when the user shows up (Fig. 8(c)).

use netmaster_radio::TailPolicy;
use netmaster_sim::{DayPlan, Execution, Policy};
use netmaster_trace::time::Seconds;
use netmaster_trace::trace::DayTrace;

/// Fixed-interval delay policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPolicy {
    /// Seconds each screen-off transfer is deferred.
    pub delay: Seconds,
}

impl DelayPolicy {
    /// New delay policy.
    pub fn new(delay: Seconds) -> Self {
        DelayPolicy { delay }
    }
}

impl Policy for DelayPolicy {
    fn name(&self) -> String {
        format!("delay-{}s", self.delay)
    }

    fn tail_policy(&self) -> TailPolicy {
        // The naive schemes aggregate transfers but leave the stock
        // inactivity timers alone — the paper's explanation of why they
        // "fail to avoid wasting radio-on time".
        TailPolicy::Full
    }

    fn plan_day(&mut self, day: &DayTrace) -> DayPlan {
        let mut plan = DayPlan::default();
        // Hold windows [arrival, release) of deferred demands.
        let mut holds: Vec<(u64, u64)> = Vec::new();
        let mut stagger: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (a, screen_on) in day.activity_screen_states() {
            if screen_on || self.delay == 0 {
                plan.executions.push(Execution::natural(a));
            } else {
                // Release at the next interval-grid boundary; demands in
                // the same interval aggregate into one radio session,
                // running back-to-back from the boundary.
                let release = (a.start / self.delay + 1) * self.delay;
                let off = stagger.entry(release).or_insert(0);
                plan.executions.push(Execution::moved(a, release + *off));
                *off += a.duration.max(1);
                holds.push((a.start, release));
            }
        }
        // Affected interactions: any interaction inside a hold window.
        for i in &day.interactions {
            if holds.iter().any(|&(s, e)| i.at >= s && i.at < e) {
                plan.affected_interactions += 1;
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
    use netmaster_trace::event::{
        ActivityCause, AppId, Interaction, NetworkActivity, ScreenSession,
    };
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
    fn screen_off_demands_release_at_grid_boundary() {
        let mut day = DayTrace::new(0);
        day.activities = vec![demand(1_000), demand(1_010)];
        let plan = DelayPolicy::new(60).plan_day(&day);
        // Both demands in the [960, 1020) interval release together at
        // 1020, running back-to-back (5 s each).
        assert_eq!(plan.executions[0].start, 1_020);
        assert_eq!(plan.executions[1].start, 1_025);
        assert_eq!(plan.executions[0].moved_from, Some(1_000));
        // A demand exactly on a boundary still waits a full interval.
        let mut day2 = DayTrace::new(0);
        day2.activities = vec![demand(1_020)];
        let plan2 = DelayPolicy::new(60).plan_day(&day2);
        assert_eq!(plan2.executions[0].start, 1_080);
    }

    #[test]
    fn zero_delay_is_identity() {
        let mut day = DayTrace::new(0);
        day.activities = vec![demand(1_000)];
        let plan = DelayPolicy::new(0).plan_day(&day);
        assert!(!plan.executions[0].was_moved());
        assert_eq!(plan.affected_interactions, 0);
    }

    #[test]
    fn screen_on_demands_unaffected() {
        let mut day = DayTrace::new(0);
        day.sessions = vec![ScreenSession {
            start: 900,
            end: 1_200,
        }];
        day.activities = vec![demand(1_000)];
        let plan = DelayPolicy::new(60).plan_day(&day);
        assert!(!plan.executions[0].was_moved());
    }

    #[test]
    fn interactions_in_hold_windows_are_affected() {
        let mut day = DayTrace::new(0);
        // Demand at 1 000 is held until the next 60 s boundary, 1 020.
        day.sessions = vec![ScreenSession {
            start: 1_005,
            end: 1_090,
        }];
        day.activities = vec![demand(1_000)];
        day.interactions = vec![
            Interaction {
                at: 1_010,
                app: AppId(0),
                needs_network: false,
            }, // inside hold
            Interaction {
                at: 1_050,
                app: AppId(0),
                needs_network: true,
            }, // after release
        ];
        let plan = DelayPolicy::new(60).plan_day(&day);
        assert_eq!(plan.affected_interactions, 1);
    }

    #[test]
    fn longer_delays_affect_more_interactions_and_save_more_radio_time() {
        let trace = TraceGenerator::new(UserProfile::volunteers().remove(0))
            .with_seed(13)
            .generate(7);
        let cfg = SimConfig::default();
        let base = simulate(&trace.days, &mut DefaultPolicy, &cfg);
        let short = simulate(&trace.days, &mut DelayPolicy::new(10), &cfg);
        let long = simulate(&trace.days, &mut DelayPolicy::new(600), &cfg);
        // Fig. 8(a): radio-on time shrinks with the interval…
        assert!(long.radio_on_secs < short.radio_on_secs);
        // A tiny delay may break a lucky natural merge, so allow slack.
        assert!(short.radio_on_secs <= base.radio_on_secs * 1.05);
        // …Fig. 8(c): affected interactions grow with it.
        assert!(long.affected_interactions > short.affected_interactions);
        // Delay alone cannot approach NetMaster-scale savings (paper:
        // 9.2% energy cut at 600 s vs 77.8% for NetMaster).
        assert!(
            long.energy_saving_vs(&base) < 0.5,
            "delay saves too much: {}",
            long.energy_saving_vs(&base)
        );
        // No bytes lost at any setting.
        assert_eq!(long.bytes_down, base.bytes_down);
    }
}
