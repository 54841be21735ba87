//! Acceptance tests for the fleet health watchtower: a habit shift
//! injected mid-run must raise a `DriftDetected` journal event within
//! days, while unshifted panel users sail through healthy.

use netmaster_core::watchtower::{run_watch, HabitShift, WatchSpec};
use netmaster_obs::health::HealthStatus;
use netmaster_obs::DecisionEvent;
use netmaster_sim::FleetHealth;

const SHIFTED_USER: usize = 2;
const SHIFT_DAY: usize = 14;

fn shifted_spec() -> WatchSpec {
    WatchSpec {
        users: 8,
        days: 21,
        seed: 2014,
        shift: Some(HabitShift {
            user_index: SHIFTED_USER,
            at_day: SHIFT_DAY,
        }),
        ..WatchSpec::default()
    }
}

/// Days on which a `DriftDetected` event fired for the outcome's user.
fn drift_days(outcome: &netmaster_core::watchtower::UserWatchOutcome) -> Vec<usize> {
    outcome
        .journal
        .iter()
        .filter_map(|e| match &e.event {
            DecisionEvent::DriftDetected { day, .. } => Some(*day),
            _ => None,
        })
        .collect()
}

#[test]
fn habit_shift_is_detected_within_three_days() {
    let outcomes = run_watch(&shifted_spec());
    assert_eq!(outcomes.len(), 8);

    // The shifted user alarms within 3 days of the day-14 shift.
    let shifted = &outcomes[SHIFTED_USER];
    let days = drift_days(shifted);
    assert!(
        !days.is_empty(),
        "no DriftDetected for the shifted user: {:?}",
        shifted.scorecard
    );
    let first = *days.iter().min().unwrap();
    assert!(
        (SHIFT_DAY..SHIFT_DAY + 3).contains(&first),
        "first alarm on day {first}, expected within 3 days of day {SHIFT_DAY}"
    );
    assert_eq!(
        shifted.scorecard.first_alarm_day,
        Some(first as u32),
        "scorecard must agree with the journal"
    );
    assert_ne!(
        shifted.scorecard.status,
        HealthStatus::Healthy,
        "a drifted user cannot be reported healthy"
    );
    // The drift response re-mined the user's habit model.
    assert!(shifted.scorecard.remines >= 1);
    // The journal also carries the health transition.
    assert!(shifted.journal.iter().any(|e| matches!(
        &e.event,
        DecisionEvent::HealthDegraded { user, .. } if *user == SHIFTED_USER as u32
    )));

    // Every unshifted panel user stays healthy: no alarms, no events.
    for (i, o) in outcomes.iter().enumerate() {
        if i == SHIFTED_USER {
            continue;
        }
        assert_eq!(
            o.scorecard.status,
            HealthStatus::Healthy,
            "unshifted user {i} flagged: {:?}",
            o.scorecard
        );
        assert_eq!(
            o.scorecard.drift_alarms,
            0,
            "unshifted user {i} alarmed on days {:?}",
            drift_days(o)
        );
    }
}

#[test]
fn fleet_health_report_isolates_the_drifted_user() {
    let outcomes = run_watch(&shifted_spec());
    let cards: Vec<_> = outcomes.iter().map(|o| o.scorecard.clone()).collect();
    let health = FleetHealth::from_scorecards(&cards, 3);
    assert_eq!(health.members(), 8);
    assert_eq!(health.healthy, 7);
    assert_eq!(health.degraded + health.critical, 1);
    // The drifted user tops the worst-K list, with a stated reason.
    assert_eq!(health.worst[0].user, SHIFTED_USER as u32);
    assert!(
        !health.worst[0].reasons.is_empty(),
        "worst user must carry a reason"
    );
}

#[test]
fn quiet_fleet_is_uniformly_healthy() {
    let spec = WatchSpec {
        users: 8,
        days: 21,
        seed: 7,
        shift: None,
        ..WatchSpec::default()
    };
    let outcomes = run_watch(&spec);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(
            o.scorecard.status,
            HealthStatus::Healthy,
            "user {i} false-alarmed: {:?} drift days {:?}",
            o.scorecard,
            drift_days(o)
        );
    }
    let cards: Vec<_> = outcomes.iter().map(|o| o.scorecard.clone()).collect();
    let health = FleetHealth::from_scorecards(&cards, 5);
    assert_eq!(health.healthy, 8);
    assert_eq!(health.degraded + health.critical, 0);
}

/// When CI runs this suite with `--features strict-invariants`, the
/// watchtower monotonicity oracles inside `observe_day` fire on every
/// simulated day above; this test pins that the checked configuration
/// was actually compiled in (a feature-plumbing regression would
/// silently turn the run into a vacuous one).
#[test]
#[cfg(feature = "strict-invariants")]
#[allow(clippy::assertions_on_constants)]
fn strict_invariants_are_compiled_in() {
    assert!(netmaster::STRICT_INVARIANTS);
    assert!(netmaster_core::STRICT_INVARIANTS);
}
