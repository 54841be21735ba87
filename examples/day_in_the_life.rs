//! A day in the life: hour-by-hour narration of one simulated day under
//! NetMaster — what the miner predicted, where the scheduler moved each
//! background transfer, and what the duty-cycle layer caught.
//!
//! ```text
//! cargo run --example day_in_the_life --release
//! ```

use netmaster::core::decision::{DecisionMaker, Disposition};
use netmaster::mining::NetworkPrediction;
use netmaster::prelude::*;
use netmaster::trace::time::{hour_of, DayKind, HOURS_PER_DAY};

fn main() {
    let profile = UserProfile::volunteers().remove(0);
    let trace = TraceGenerator::new(profile).with_seed(2014).generate(15);
    let (train, day) = (trace.slice_days(0, 14), &trace.days[14]);

    // Mining: predictions from two weeks of history.
    let history = HourlyHistory::from_trace(&train);
    let active = predict_active_slots(&history, PredictionConfig::default());
    let network = NetworkPrediction::from_trace(&train);

    // Decision making: Algorithm 1 compiled to a routing table.
    let maker = DecisionMaker::new(
        NetMasterConfig::default(),
        LinkModel::default(),
        RrcModel::wcdma_default(),
    );
    let routing = maker.plan_day(day.day, &active, &network);
    let (imm, defer, pre, duty) = routing.disposition_counts();

    let kind = DayKind::of_day(day.day);
    println!(
        "day {} ({kind:?}) — {} predicted active slots, planner profit {:.1} J",
        day.day,
        routing.slots.len(),
        routing.planned_profit
    );
    println!(
        "plan: {imm} immediate-hours, {defer} defer quotas, {pre} prefetch quotas, {duty} duty-cycle\n"
    );

    // Narrate each hour.
    for h in 0..HOURS_PER_DAY {
        let hour_start = netmaster::trace::time::at_hour(day.day, h);
        let in_slot = routing.in_active_slot(hour_start);
        let interactions = day
            .interactions
            .iter()
            .filter(|i| hour_of(i.at) == h)
            .count();
        let demands: Vec<_> = day
            .screen_off_activities()
            .filter(|a| hour_of(a.start) == h)
            .collect();
        let fg = day
            .activity_screen_states()
            .filter(|&(a, on)| on && hour_of(a.start) == h)
            .count();

        let slot_mark = if in_slot { "ACTIVE" } else { "      " };
        let mut story = String::new();
        if interactions > 0 {
            story.push_str(&format!("{interactions} interactions, "));
        }
        if fg > 0 {
            story.push_str(&format!("{fg} foreground transfers, "));
        }
        if !demands.is_empty() {
            let route = routing.disposition(h, 0);
            let verb = match route {
                Disposition::Immediate => "ride the planned-on radio".to_string(),
                Disposition::DeferTo { slot } => format!(
                    "defer to the {:02}h slot",
                    hour_of(routing.slots[slot].start)
                ),
                Disposition::PrefetchIn { slot } => format!(
                    "were pre-served in the {:02}h slot",
                    hour_of(routing.slots[slot].start)
                ),
                Disposition::DutyCycle => "wait for a duty-cycle wake-up".to_string(),
            };
            story.push_str(&format!("{} background syncs {verb}", demands.len()));
        }
        if story.is_empty() {
            story.push_str("quiet");
        }
        println!("{h:02}h {slot_mark} | {story}");
    }

    // Price the day.
    let cfg = SimConfig::default();
    let mut nm = NetMasterPolicy::new(
        NetMasterConfig::default(),
        LinkModel::default(),
        RrcModel::wcdma_default(),
    )
    .with_training(&train.days);
    let base = simulate(std::slice::from_ref(day), &mut DefaultPolicy, &cfg);
    let master = simulate(std::slice::from_ref(day), &mut nm, &cfg);
    println!(
        "\nthe day cost {:.0} J stock vs {:.0} J under NetMaster ({:.1}% saved, {} duty wake-ups)",
        base.energy_j,
        master.energy_j,
        100.0 * master.energy_saving_vs(&base),
        master.empty_wakeups
    );
}
