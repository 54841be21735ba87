//! The simulation runner: replays recorded days under a policy and
//! prices the resulting transfer timeline with the radio model.

use crate::metrics::RunMetrics;
use crate::plan::Policy;
use netmaster_radio::{DutyCycleCost, LinkModel, RrcConfig, RrcModel};
use netmaster_trace::time::Interval;
use netmaster_trace::trace::DayTrace;

/// Environment shared by all policies in a comparison: radio
/// technology, carrier link, and duty-cycle pricing.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Radio technology parameters.
    pub radio: RrcConfig,
    /// Carrier link model.
    pub link: LinkModel,
    /// Duty-cycle wake-up pricing.
    pub duty: DutyCycleCost,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            radio: RrcConfig::wcdma(),
            link: LinkModel::default(),
            duty: DutyCycleCost::default(),
        }
    }
}

/// Simulates `days` under `policy` and returns aggregate metrics.
///
/// Days are planned in order (stateful policies learn as they go); the
/// full multi-day transfer timeline is priced in one pass so tails that
/// cross midnight are handled exactly once.
pub fn simulate(days: &[DayTrace], policy: &mut dyn Policy, cfg: &SimConfig) -> RunMetrics {
    let mut spans: Vec<Interval> = Vec::new();
    let mut m = RunMetrics {
        policy: policy.name(),
        days: days.len(),
        ..Default::default()
    };
    for day in days {
        let plan = policy.plan_day(day);
        for e in &plan.executions {
            spans.push(e.span());
            m.bytes_down += e.bytes_down;
            m.bytes_up += e.bytes_up;
            if e.was_moved() {
                m.moved_transfers += 1;
            }
        }
        m.executed_transfers += plan.executions.len() as u64;
        m.affected_interactions += plan.affected_interactions;
        m.empty_wakeups += plan.empty_wakeups;
        m.interactions += day.interactions.len() as u64;
        m.screen_on_secs += day.screen_on_seconds();
        m.power_on_secs += netmaster_trace::time::SECS_PER_DAY;
    }

    let radio = RrcModel {
        config: cfg.radio.clone(),
        tail_policy: policy.tail_policy(),
    };
    let rrc = radio.account(&spans);
    m.rrc = rrc;
    m.wakeups = rrc.wakeups + m.empty_wakeups;
    m.transfer_secs = rrc.active_secs;
    m.radio_on_secs =
        rrc.radio_on_secs() + m.empty_wakeups as f64 * cfg.duty.empty_wakeup_secs(&cfg.radio);
    m.energy_j = rrc.total_j() + cfg.duty.total_empty_j(&cfg.radio, m.empty_wakeups);
    m
}

/// Simulates several policies over the same days, returning metrics in
/// the same order. Policies are trained/evaluated independently.
pub fn compare(
    days: &[DayTrace],
    policies: &mut [Box<dyn Policy + Send>],
    cfg: &SimConfig,
) -> Vec<RunMetrics> {
    policies
        .iter_mut()
        .map(|p| simulate(days, p.as_mut(), cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DayPlan, DefaultPolicy, Execution};
    use netmaster_radio::TailPolicy;
    use netmaster_trace::event::{ActivityCause, AppId, NetworkActivity};

    fn day_with_demands(starts: &[u64]) -> DayTrace {
        let mut d = DayTrace::new(0);
        d.activities = starts
            .iter()
            .map(|&s| NetworkActivity {
                start: s,
                duration: 10,
                bytes_down: 1_000,
                bytes_up: 100,
                app: AppId(0),
                cause: ActivityCause::Background,
            })
            .collect();
        d
    }

    #[test]
    fn default_policy_energy_matches_radio_model() {
        let day = day_with_demands(&[100, 5_000]);
        let cfg = SimConfig::default();
        let m = simulate(&[day], &mut DefaultPolicy, &cfg);
        // Two isolated WCDMA transfers: 2 × (1.1 + 8 + 9.52) J.
        assert!((m.energy_j - 2.0 * 18.62).abs() < 1e-9, "{}", m.energy_j);
        assert_eq!(m.wakeups, 2);
        assert_eq!(m.bytes_down, 2_000);
        assert_eq!(m.executed_transfers, 2);
        assert_eq!(m.moved_transfers, 0);
        assert_eq!(m.days, 1);
        assert_eq!(m.power_on_secs, 86_400);
    }

    /// A toy policy that batches everything at noon and kills tails.
    struct NoonBatcher;
    impl Policy for NoonBatcher {
        fn name(&self) -> String {
            "noon".into()
        }
        fn tail_policy(&self) -> TailPolicy {
            TailPolicy::Immediate
        }
        fn plan_day(&mut self, day: &DayTrace) -> DayPlan {
            let noon = netmaster_trace::time::at_hour(day.day, 12);
            let mut t = noon;
            let mut plan = DayPlan::default();
            for a in &day.activities {
                plan.executions.push(Execution::moved(a, t));
                t += a.duration.max(1);
            }
            plan
        }
    }

    #[test]
    fn batching_policy_beats_default() {
        let days: Vec<DayTrace> = (0..3)
            .map(|d| {
                let mut day = day_with_demands(&[]);
                day.day = d;
                let base = netmaster_trace::time::day_start(d);
                day.activities =
                    day_with_demands(&[base + 100, base + 10_000, base + 30_000, base + 60_000])
                        .activities;
                day
            })
            .collect();
        let cfg = SimConfig::default();
        let base = simulate(&days, &mut DefaultPolicy, &cfg);
        let batched = simulate(&days, &mut NoonBatcher, &cfg);
        assert!(batched.energy_j < 0.5 * base.energy_j);
        assert!(batched.radio_on_secs < base.radio_on_secs);
        assert_eq!(batched.moved_transfers, 12);
        assert_eq!(batched.bytes_down, base.bytes_down, "no bytes lost");
        // Rate while radio-on improves.
        assert!(batched.avg_down_rate() > base.avg_down_rate());
    }

    #[test]
    fn empty_wakeups_are_priced() {
        struct Wakey;
        impl Policy for Wakey {
            fn name(&self) -> String {
                "wakey".into()
            }
            fn tail_policy(&self) -> TailPolicy {
                TailPolicy::Immediate
            }
            fn plan_day(&mut self, _day: &DayTrace) -> DayPlan {
                DayPlan {
                    empty_wakeups: 5,
                    ..Default::default()
                }
            }
        }
        let cfg = SimConfig::default();
        let m = simulate(&[DayTrace::new(0)], &mut Wakey, &cfg);
        assert_eq!(m.empty_wakeups, 5);
        assert_eq!(m.wakeups, 5);
        // 5 × 2.02 J.
        assert!((m.energy_j - 10.1).abs() < 1e-9);
        assert!((m.radio_on_secs - 20.0).abs() < 1e-9);
    }

    #[test]
    fn compare_runs_all_policies() {
        let days = vec![day_with_demands(&[100, 50_000])];
        let cfg = SimConfig::default();
        let mut policies: Vec<Box<dyn Policy + Send>> =
            vec![Box::new(DefaultPolicy), Box::new(NoonBatcher)];
        let results = compare(&days, &mut policies, &cfg);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].policy, "default");
        assert_eq!(results[1].policy, "noon");
        assert!(results[1].energy_j < results[0].energy_j);
    }

    #[test]
    fn cross_midnight_tail_counted_once() {
        // Transfer ending at 23:59:55 with a 17 s tail crossing midnight.
        let mut d0 = DayTrace::new(0);
        d0.activities = vec![NetworkActivity {
            start: 86_395 - 10,
            duration: 10,
            bytes_down: 1,
            bytes_up: 0,
            app: AppId(0),
            cause: ActivityCause::Background,
        }];
        let mut d1 = DayTrace::new(1);
        d1.activities = vec![NetworkActivity {
            start: 86_400 + 3,
            duration: 10,
            bytes_down: 1,
            bytes_up: 0,
            app: AppId(0),
            cause: ActivityCause::Background,
        }];
        let cfg = SimConfig::default();
        let m = simulate(&[d0, d1], &mut DefaultPolicy, &cfg);
        // Second transfer starts 8 s after the first ends — inside the
        // 17 s tail: only ONE promotion despite the midnight boundary.
        assert_eq!(m.wakeups, 1);
    }
}
