//! Battery week: run the middleware service day by day and report the
//! savings in the units a user sees — battery percentage points — plus
//! the per-app "energy devourers" ranking that motivates the title.
//!
//! ```text
//! cargo run --example battery_week --release
//! ```

use netmaster::prelude::*;
use netmaster::radio::attribution::{apportion, ranked};

fn main() {
    let trace = TraceGenerator::new(UserProfile::volunteers().remove(1))
        .with_seed(2014)
        .generate(21);

    // Who devours the battery on the stock device?
    let transfers: Vec<_> = trace.days[14..]
        .iter()
        .flat_map(|d| d.activities.iter())
        .map(|a| (a.app, a.span()))
        .collect();
    let att = apportion(&RrcModel::wcdma_default(), &transfers);
    let total: f64 = att.values().map(|e| e.total_j()).sum();
    println!("stock-device energy devourers (test week, {total:.0} J):");
    for (app, e) in ranked(&att).into_iter().take(5) {
        println!(
            "  {:<32} {:>6.0} J  ({:>4.1}%, {:.0}% overhead)",
            trace.apps.name(app).unwrap_or("?"),
            e.total_j(),
            100.0 * e.total_j() / total,
            100.0 * e.overhead_fraction()
        );
    }

    // The middleware service, installed with two weeks of history.
    let battery = BatteryModel::htc_one_x();
    let mut service = MiddlewareService::new()
        .with_battery(battery)
        .import_history(&trace.days[..14]);

    println!("\nday-by-day under NetMaster:");
    println!(
        "{:>4} {:>9} {:>11} {:>8} {:>10} {:>7}",
        "day", "stock J", "netmaster J", "saving", "moved", "batt pts"
    );
    for day in &trace.days[14..] {
        let r = service.run_day(day);
        println!(
            "{:>4} {:>9.0} {:>11.0} {:>7.1}% {:>10} {:>7.2}",
            r.day,
            r.stock_energy_j,
            r.energy_j,
            100.0 * r.saving(),
            r.moved_transfers,
            r.battery_points_saved
        );
    }

    let s = service.summary();
    println!(
        "\nweek total: {:.1}% of network energy saved = {:.1} battery points ({:.2}%/day)",
        100.0 * s.saving(),
        s.battery_points_saved,
        s.battery_points_saved / s.days as f64
    );
    println!(
        "on a {} mAh battery the stock network stack alone costs {:.1} points/day",
        battery.capacity_mah,
        battery.percent_per_day(s.stock_energy_j / s.days as f64)
    );
    println!("wrong decisions all week: {}", s.wrong_decisions);
}
