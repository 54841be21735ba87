//! Threshold-tuning probe: prints per-day watched-metric series for
//! panel members, with an optional habit shift. Not part of the test
//! suite; used to pick WatchConfig defaults.

fn main() {
    use netmaster_core::MiddlewareService;
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;

    let days = 21;
    let shift_day = 14;
    for seed_base in [2014u64, 7] {
        for user in 0..8usize {
            for shifted in [false, true] {
                let panel = UserProfile::panel();
                let profile = panel[user % panel.len()].clone();
                let seed = seed_base.wrapping_add(user as u64 * 7919);
                let mut trace = TraceGenerator::new(profile.clone())
                    .with_seed(seed)
                    .generate(days);
                if shifted {
                    let mut p = profile.clone();
                    p.weekday_intensity.rotate_right(12);
                    p.weekend_intensity.rotate_right(12);
                    for app in &mut p.apps {
                        app.hourly_affinity.rotate_right(12);
                    }
                    let alt = TraceGenerator::new(p).with_seed(seed).generate(days);
                    for d in shift_day..days {
                        trace.days[d] = alt.days[d].clone();
                    }
                }
                let mut svc = MiddlewareService::new();
                print!(
                    "seed {seed_base} user {user} ({}) {}: ",
                    profile.label,
                    if shifted { "SHIFT" } else { "base " }
                );
                for day in &trace.days {
                    let r = svc.run_day(day);
                    let hr = r
                        .hit_rate()
                        .map(|h| format!("{h:.2}"))
                        .unwrap_or_else(|| "  - ".into());
                    let sr = r
                        .slot_recall()
                        .map(|h| format!("{h:.2}"))
                        .unwrap_or_else(|| "  - ".into());
                    print!(
                        "{hr}/{sr}/p{}a{} ",
                        r.slot_hours_predicted, r.slot_hours_active
                    );
                }
                println!();
            }
        }
        println!();
    }
}
