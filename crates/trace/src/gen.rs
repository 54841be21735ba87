//! Habit-driven synthetic trace generation.
//!
//! [`TraceGenerator`] turns a [`UserProfile`] into a multi-day [`Trace`]:
//! hour-by-hour interaction counts follow the profile's diurnal intensity
//! with regularity-controlled day-to-day noise, interactions cluster into
//! short screen-on sessions, foreground network activities ride on
//! interactions, and background syncs tick away around the clock.
//!
//! Generation is fully deterministic given `(profile, seed)`.

use crate::dist::{self, LogNormal, Poisson, WeightedIndex};
use crate::event::{ActivityCause, AppId, Interaction, NetworkActivity, ScreenSession};
use crate::profile::UserProfile;
use crate::time::{DayIndex, DayKind, Timestamp, HOURS_PER_DAY, SECS_PER_DAY, SECS_PER_HOUR};
use crate::trace::{DayTrace, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs that vary the generated workload without editing profiles.
/// Used by ablation benches (e.g. sweeping background load).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenOptions {
    /// Multiplier on background sync periods (>1 ⇒ fewer syncs).
    pub bg_period_scale: f64,
    /// Multiplier on foreground network probability.
    pub fg_prob_scale: f64,
    /// Multiplier on all intensity vectors.
    pub intensity_scale: f64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            bg_period_scale: 1.0,
            fg_prob_scale: 1.0,
            intensity_scale: 1.0,
        }
    }
}

/// Deterministic trace generator for one user profile.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: UserProfile,
    seed: u64,
    options: GenOptions,
}

/// Minimum seconds a screen session lasts.
const MIN_SESSION_SECS: u64 = 3;
/// Maximum seconds a screen session lasts.
const MAX_SESSION_SECS: u64 = 900;
/// Seconds of session time bought per interaction at minimum.
const SECS_PER_INTERACTION: u64 = 3;

impl TraceGenerator {
    /// Generator with the default seed.
    pub fn new(profile: UserProfile) -> Self {
        TraceGenerator {
            profile,
            seed: 0,
            options: GenOptions::default(),
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets workload options.
    pub fn with_options(mut self, options: GenOptions) -> Self {
        self.options = options;
        self
    }

    /// The profile being generated from.
    pub fn profile(&self) -> &UserProfile {
        &self.profile
    }

    /// Generates `days` consecutive days starting at day 0 (a Monday).
    pub fn generate(&self, days: usize) -> Trace {
        let mut trace = Trace::new(self.profile.user_id);
        let app_ids: Vec<AppId> = self
            .profile
            .apps
            .iter()
            .map(|a| trace.apps.register(&a.name))
            .collect();
        // Independent stream per user so panels are order-insensitive.
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (self.profile.user_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut days_gen = DayGenerator::new(&self.profile, self.options, app_ids);
        trace.days.reserve_exact(days);
        for day in 0..days {
            days_gen.draw_day(&mut rng, day);
            debug_assert_eq!(days_gen.day.validate(), Ok(()));
            // A clone sizes each event vector to its exact length.
            trace.days.push(days_gen.day.clone());
        }
        trace
    }
}

/// Foreground traffic of one app: what an interaction with it may send.
#[derive(Debug)]
struct ForegroundModel {
    app: AppId,
    /// Chance that an interaction needs the network.
    fires: f64,
    bytes: LogNormal,
    uplink_fraction: f64,
}

/// Background syncs of one app.
#[derive(Debug)]
struct BackgroundModel {
    app: AppId,
    /// Mean seconds between sync events, options applied.
    period: f64,
    /// Activities per sync event, minus one.
    extra_in_burst: Poisson,
    bytes: LogNormal,
    jitter: LogNormal,
    burst_spread: f64,
    uplink_fraction: f64,
}

/// Everything a trace's days draw from, built once per trace: the
/// profile's distributions with their constants precomputed, a
/// per-hour app-choice table, and buffers reused from day to day,
/// the drawn day among them.
///
/// Each day makes exactly the random draws, in the order, and with the
/// float expressions of drawing from the profile directly, so the
/// output does not depend on this hoisting.
struct DayGenerator<'a> {
    profile: &'a UserProfile,
    intensity_scale: f64,
    day_factor: LogNormal,
    scatter_chance: f64,
    hour_noise: LogNormal,
    extra_in_session: Poisson,
    session_len: LogNormal,
    /// App choice for an interaction in a session starting at hour `h`.
    app_by_hour: [WeightedIndex; HOURS_PER_DAY],
    foreground: Vec<ForegroundModel>,
    fg_rate: LogNormal,
    background: Vec<BackgroundModel>,
    bg_rate: LogNormal,
    /// Sessions as drawn: `(start, len, interactions)`.
    raw_sessions: Vec<(Timestamp, u64, u64)>,
    /// Interactions per kept session.
    session_k: Vec<u64>,
    /// The last day drawn.
    day: DayTrace,
}

impl<'a> DayGenerator<'a> {
    fn new(p: &'a UserProfile, options: GenOptions, app_ids: Vec<AppId>) -> Self {
        let noise = 1.0 - p.regularity;
        let app_by_hour = std::array::from_fn(|hour| {
            WeightedIndex::new(
                p.apps
                    .iter()
                    .map(|a| a.popularity * a.hourly_affinity[hour])
                    .collect(),
            )
        });
        let foreground = p
            .apps
            .iter()
            .zip(&app_ids)
            .map(|(app, &id)| ForegroundModel {
                app: id,
                fires: app.fg_network_prob * options.fg_prob_scale,
                bytes: LogNormal::new(app.fg_bytes_median.max(256.0), app.fg_bytes_sigma),
                uplink_fraction: app.fg_uplink_fraction,
            })
            .collect();
        let background = p
            .apps
            .iter()
            .zip(&app_ids)
            .filter_map(|(app, &id)| {
                let bg = app.background.as_ref()?;
                Some(BackgroundModel {
                    app: id,
                    period: bg.period * options.bg_period_scale,
                    extra_in_burst: Poisson::new((bg.burst_mean - 1.0).max(0.0)),
                    bytes: LogNormal::new(bg.bytes_median, bg.bytes_sigma),
                    jitter: LogNormal::new(1.0, bg.jitter),
                    burst_spread: bg.burst_spread,
                    uplink_fraction: bg.uplink_fraction,
                })
            })
            .collect();
        DayGenerator {
            profile: p,
            intensity_scale: options.intensity_scale,
            day_factor: LogNormal::new(1.0, noise * 0.45),
            scatter_chance: noise * 0.3,
            hour_noise: LogNormal::new(1.0, noise * 0.35),
            extra_in_session: Poisson::new((p.session.interactions_per_session - 1.0).max(0.0)),
            session_len: LogNormal::new(p.session.duration_median, p.session.duration_sigma),
            app_by_hour,
            foreground,
            fg_rate: LogNormal::new(p.session.fg_rate_median, 0.5),
            background,
            bg_rate: LogNormal::new(p.session.bg_rate_median, 0.5),
            raw_sessions: Vec::new(),
            session_k: Vec::new(),
            day: DayTrace::default(),
        }
    }

    /// Draws day `day` into `self.day`.
    ///
    /// Every event vector comes out in [`DayTrace::normalize`] order
    /// without a whole-day sort of sessions or interactions: sessions
    /// are drawn hour by hour and sorted within their hour, and the
    /// interactions and foreground activities of one session are sorted
    /// within the session. Hours and sessions are disjoint and in time
    /// order, so these block sorts give what one stable sort of the day
    /// would. One stable sort remains, merging the foreground run with
    /// each app's background syncs.
    // lint:hot-path
    fn draw_day(&mut self, rng: &mut StdRng, day: DayIndex) {
        let p = self.profile;
        let weekend = DayKind::of_day(day).is_weekend();

        // Day-level modulation: overall mood plus occasional scattered
        // days whose shape is shifted and damped.
        let day_factor = self.day_factor.sample(rng);
        let scattered = dist::coin(rng, self.scatter_chance);
        let shift: i64 = if scattered {
            rng.random_range(-3..=3)
        } else {
            0
        };
        let scatter_damp = if scattered { 0.6 } else { 1.0 };

        // Hour-by-hour expected interaction counts.
        let mut hour_counts = [0u64; HOURS_PER_DAY];
        for (h, count) in hour_counts.iter_mut().enumerate() {
            let src = ((h as i64 + shift).rem_euclid(HOURS_PER_DAY as i64)) as usize;
            let lambda = p.intensity(weekend, src)
                * self.intensity_scale
                * day_factor
                * scatter_damp
                * self.hour_noise.sample(rng);
            *count = Poisson::new(lambda).sample(rng);
        }

        // Cluster interactions into sessions, sorted by start.
        let day_start = crate::time::day_start(day);
        let day_end = day_start + SECS_PER_DAY;
        self.raw_sessions.clear();
        for (h, &n) in hour_counts.iter().enumerate() {
            let hour_block = self.raw_sessions.len();
            let mut remaining = n;
            while remaining > 0 {
                let k = (1 + self.extra_in_session.sample(rng)).min(remaining);
                remaining -= k;
                let start =
                    day_start + h as u64 * SECS_PER_HOUR + rng.random_range(0..SECS_PER_HOUR);
                let len = self
                    .session_len
                    .sample(rng)
                    .round()
                    .max((k * SECS_PER_INTERACTION) as f64) as u64;
                let len = len.clamp(MIN_SESSION_SECS, MAX_SESSION_SECS);
                self.raw_sessions.push((start, len, k));
            }
            self.raw_sessions[hour_block..].sort_by_key(|&(s, ..)| s);
        }

        self.day.day = day;
        let DayTrace {
            sessions,
            interactions,
            activities,
            ..
        } = &mut self.day;
        sessions.clear();
        interactions.clear();
        activities.clear();

        // Resolve overlaps by pushing sessions later; drop any that fall
        // off the end of the day.
        self.session_k.clear();
        let mut cursor = day_start;
        for &(start, len, k) in &self.raw_sessions {
            let start = start.max(cursor.saturating_add(1));
            let end = start.saturating_add(len);
            if end >= day_end {
                break;
            }
            sessions.push(ScreenSession { start, end });
            self.session_k.push(k);
            cursor = end;
        }

        // Place interactions inside sessions, pick apps, spawn
        // foreground network activities.
        for (s, &k) in sessions.iter().zip(&self.session_k) {
            let apps = &self.app_by_hour[crate::time::hour_of(s.start)];
            let (i0, a0) = (interactions.len(), activities.len());
            for _ in 0..k {
                let Some(app_idx) = apps.sample(rng) else {
                    continue;
                };
                let fg = &self.foreground[app_idx];
                let at = rng.random_range(s.start..s.end);
                let fires = dist::coin(rng, fg.fires);
                interactions.push(Interaction {
                    at,
                    app: fg.app,
                    needs_network: fires,
                });
                if fires {
                    let bytes = fg.bytes.sample(rng).max(128.0);
                    let rate = self.fg_rate.sample(rng).max(256.0);
                    let duration = (bytes / rate).round().clamp(1.0, 90.0) as u64;
                    let up = (bytes * fg.uplink_fraction) as u64;
                    let down = bytes as u64 - up;
                    activities.push(NetworkActivity {
                        start: at,
                        duration,
                        bytes_down: down,
                        bytes_up: up,
                        app: fg.app,
                        cause: ActivityCause::Foreground,
                    });
                }
            }
            interactions[i0..].sort_by_key(|i| i.at);
            activities[a0..].sort_by_key(|a| a.start);
        }

        // Background syncs, all day, regardless of screen state. Each
        // sync event is a burst of one or more activities a few seconds
        // apart (DNS + per-endpoint connections of one logical sync).
        for bg in &self.background {
            let mut t = day_start as f64 + rng.random::<f64>() * bg.period;
            while (t as Timestamp) < day_end {
                let n_sub = 1 + bg.extra_in_burst.sample(rng);
                let total_bytes = bg.bytes.sample(rng).max(64.0);
                let mut sub_t = t;
                for _ in 0..n_sub {
                    let at = sub_t as Timestamp;
                    let bytes = (total_bytes / n_sub as f64).max(64.0);
                    let rate = self.bg_rate.sample(rng).max(64.0);
                    let duration = (bytes / rate).round().clamp(1.0, 60.0) as u64;
                    let up = (bytes * bg.uplink_fraction) as u64;
                    let down = bytes as u64 - up;
                    if at + duration < day_end {
                        activities.push(NetworkActivity {
                            start: at,
                            duration,
                            bytes_down: down,
                            bytes_up: up,
                            app: bg.app,
                            cause: ActivityCause::Background,
                        });
                    }
                    sub_t += dist::exponential(rng, bg.burst_spread).max(1.0);
                }
                t += bg.period * bg.jitter.sample(rng);
            }
        }
        activities.sort_by_key(|a| a.start);
    }
}

/// Generates the 8-user study panel (§III / Figs. 1–5).
pub fn generate_panel(days: usize, seed: u64) -> Vec<Trace> {
    UserProfile::panel()
        .into_iter()
        .map(|p| TraceGenerator::new(p).with_seed(seed).generate(days))
        .collect()
}

/// Generates the 3-volunteer evaluation set (§VI / Fig. 7).
pub fn generate_volunteers(days: usize, seed: u64) -> Vec<Trace> {
    UserProfile::volunteers()
        .into_iter()
        .map(|p| TraceGenerator::new(p).with_seed(seed).generate(days))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ActivityCause;

    fn small_trace() -> Trace {
        let profile = UserProfile::panel().remove(0);
        TraceGenerator::new(profile).with_seed(42).generate(7)
    }

    #[test]
    fn generated_trace_validates() {
        let t = small_trace();
        assert_eq!(t.num_days(), 7);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn generation_is_deterministic() {
        let p = UserProfile::panel().remove(3);
        let a = TraceGenerator::new(p.clone()).with_seed(7).generate(3);
        let b = TraceGenerator::new(p).with_seed(7).generate(3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = UserProfile::panel().remove(3);
        let a = TraceGenerator::new(p.clone()).with_seed(1).generate(3);
        let b = TraceGenerator::new(p).with_seed(2).generate(3);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_has_both_activity_causes() {
        let t = small_trace();
        let fg = t
            .all_activities()
            .filter(|a| a.cause == ActivityCause::Foreground)
            .count();
        let bg = t
            .all_activities()
            .filter(|a| a.cause == ActivityCause::Background)
            .count();
        assert!(fg > 10, "only {fg} foreground activities in a week");
        assert!(bg > 10, "only {bg} background activities in a week");
    }

    #[test]
    fn days_come_out_in_normalized_order() {
        for p in UserProfile::panel() {
            let t = TraceGenerator::new(p).with_seed(5).generate(7);
            for d in &t.days {
                let mut sorted = d.clone();
                sorted.normalize();
                assert_eq!(&sorted, d, "day {} needed a re-sort", d.day);
            }
        }
    }

    #[test]
    fn interactions_live_inside_sessions() {
        let t = small_trace();
        for d in &t.days {
            for i in &d.interactions {
                assert!(
                    d.screen_on_at(i.at),
                    "interaction at {} outside sessions",
                    i.at
                );
            }
        }
    }

    #[test]
    fn foreground_activities_start_screen_on() {
        let t = small_trace();
        for d in &t.days {
            for a in d
                .activities
                .iter()
                .filter(|a| a.cause == ActivityCause::Foreground)
            {
                assert!(d.screen_on_at(a.start));
            }
        }
    }

    #[test]
    fn night_hours_are_quiet() {
        let t = small_trace();
        // Office worker sleeps 01:00–06:00; interactions there should be rare.
        let night: usize = t
            .all_interactions()
            .filter(|i| (1..6).contains(&crate::time::hour_of(i.at)))
            .count();
        let total = t.all_interactions().count();
        assert!(total > 100, "trace too sparse: {total}");
        assert!(
            (night as f64) < 0.05 * total as f64,
            "{night}/{total} interactions at night"
        );
    }

    #[test]
    fn background_runs_around_the_clock() {
        let t = small_trace();
        let night_bg = t
            .all_activities()
            .filter(|a| a.cause == ActivityCause::Background)
            .filter(|a| (2..5).contains(&crate::time::hour_of(a.start)))
            .count();
        assert!(
            night_bg > 5,
            "only {night_bg} background syncs between 02–05 h"
        );
    }

    #[test]
    fn options_scale_background_load() {
        let p = UserProfile::panel().remove(0);
        let dense = TraceGenerator::new(p.clone())
            .with_seed(3)
            .with_options(GenOptions {
                bg_period_scale: 0.5,
                ..Default::default()
            })
            .generate(5);
        let sparse = TraceGenerator::new(p)
            .with_seed(3)
            .with_options(GenOptions {
                bg_period_scale: 2.0,
                ..Default::default()
            })
            .generate(5);
        let count = |t: &Trace| {
            t.all_activities()
                .filter(|a| a.cause == ActivityCause::Background)
                .count()
        };
        assert!(count(&dense) > 2 * count(&sparse));
    }

    #[test]
    fn options_scale_intensity_and_fg_probability() {
        let p = UserProfile::panel().remove(0);
        let base = TraceGenerator::new(p.clone()).with_seed(6).generate(5);
        let quiet = TraceGenerator::new(p.clone())
            .with_seed(6)
            .with_options(GenOptions {
                intensity_scale: 0.3,
                ..Default::default()
            })
            .generate(5);
        assert!(
            quiet.all_interactions().count() * 2 < base.all_interactions().count(),
            "intensity scale must thin interactions"
        );
        let offline = TraceGenerator::new(p)
            .with_seed(6)
            .with_options(GenOptions {
                fg_prob_scale: 0.0,
                ..Default::default()
            })
            .generate(5);
        let fg = offline
            .all_activities()
            .filter(|a| a.cause == ActivityCause::Foreground)
            .count();
        assert_eq!(fg, 0, "zero fg probability yields no foreground transfers");
        assert!(offline.all_activities().count() > 0, "background survives");
    }

    #[test]
    fn activity_volumes_are_positive_and_bounded() {
        let t = small_trace();
        for a in t.all_activities() {
            assert!(a.volume() >= 64, "sub-64-byte activities are noise");
            assert!(a.duration >= 1 && a.duration <= 90);
        }
    }

    #[test]
    fn panel_and_volunteers_generate() {
        let panel = generate_panel(2, 9);
        assert_eq!(panel.len(), 8);
        assert!(panel.iter().all(|t| t.validate().is_ok()));
        let vols = generate_volunteers(2, 9);
        assert_eq!(vols.len(), 3);
        assert!(vols.iter().all(|t| t.validate().is_ok()));
    }

    #[test]
    fn weekend_warrior_uses_weekends_more() {
        let p = UserProfile::panel().remove(7);
        let t = TraceGenerator::new(p).with_seed(11).generate(14);
        let (mut wd, mut we) = (0usize, 0usize);
        for d in &t.days {
            let n = d.interactions.len();
            if DayKind::of_day(d.day).is_weekend() {
                we += n;
            } else {
                wd += n;
            }
        }
        // 10 weekdays vs 4 weekend days; per-day rate should still favour weekends.
        assert!((we as f64 / 4.0) > (wd as f64 / 10.0), "we={we} wd={wd}");
    }
}
