//! The obs-enabled NetMaster policy must feed the metrics registry: a
//! trained policy simulated over held-out days records prediction hits
//! and times its day planning. The registry is process-global and other
//! tests reset it, so this check is the only test in its binary; it
//! compares snapshots taken around the run rather than resetting.

#![cfg(feature = "obs")]

use netmaster_bench::harness::{self, TEST_DAYS};
use netmaster_obs::names::{PREDICTION_HITS_TOTAL, STAGE_PLAN_DAY_SECONDS};

#[test]
fn trained_policy_records_prediction_hits_and_plan_day_latency() {
    netmaster_obs::set_runtime_enabled(true);
    let trace = &harness::volunteers()[0];
    let mut policy = harness::trained_netmaster(trace);
    let plan_days = |snap: &netmaster_obs::Snapshot| {
        snap.histogram(STAGE_PLAN_DAY_SECONDS)
            .map_or(0, |h| h.count)
    };

    let before = netmaster_obs::snapshot();
    let run = harness::run_test_days(trace, &mut policy);
    let after = netmaster_obs::snapshot();

    assert!(run.executed_transfers > 0, "the test days carry traffic");
    let hits = after.counter(PREDICTION_HITS_TOTAL) - before.counter(PREDICTION_HITS_TOTAL);
    assert!(hits > 0, "a trained policy must record prediction hits");
    let timed = plan_days(&after) - plan_days(&before);
    assert!(
        timed >= TEST_DAYS as u64,
        "each of the {TEST_DAYS} planned days must record a {STAGE_PLAN_DAY_SECONDS} sample, got {timed}"
    );
}
