//! Trace containers: a day of activity, a multi-day per-user trace, and
//! the app-name registry shared by both.

use crate::event::{AppId, Event, Interaction, NetworkActivity, ScreenSession};
use crate::time::{
    day_start, merge_intervals, DayIndex, Interval, Seconds, Timestamp, SECS_PER_DAY,
};
use serde::{Deserialize, Serialize};

/// Maps [`AppId`]s to package-style names (`com.tencent.mm`, …).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppRegistry {
    names: Vec<String>,
}

impl AppRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a name, returning its id. Re-registering an existing
    /// name returns the existing id.
    pub fn register(&mut self, name: &str) -> AppId {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            return AppId(pos as u16);
        }
        assert!(self.names.len() < u16::MAX as usize, "app registry full");
        self.names.push(name.to_owned());
        AppId((self.names.len() - 1) as u16)
    }

    /// Name for an id, if registered.
    pub fn name(&self, id: AppId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Id for a name, if registered.
    pub fn lookup(&self, name: &str) -> Option<AppId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|p| AppId(p as u16))
    }

    /// Number of registered apps.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no apps are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(AppId, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (AppId(i as u16), n.as_str()))
    }
}

/// The merge walk behind [`DayTrace::activity_screen_states`]: answers
/// [`DayTrace::screen_on_at`] for a run of instants with one cursor over
/// the sessions, which advances while the instants ascend.
struct ScreenWalk<'a> {
    day: &'a DayTrace,
    /// Whether the day's sessions are sorted by start; if not, every
    /// answer is a point query.
    sorted: bool,
    /// `sessions[..next]` start before `prev`, the last instant asked.
    next: usize,
    prev: Timestamp,
}

impl<'a> ScreenWalk<'a> {
    fn new(day: &'a DayTrace) -> Self {
        ScreenWalk {
            day,
            sorted: day.sessions.is_sorted_by_key(|s| s.start),
            next: 0,
            prev: 0,
        }
    }

    fn on_at(&mut self, t: Timestamp) -> bool {
        let sessions = self.day.sessions.as_slice();
        if !self.sorted {
            return self.day.screen_on_at(t);
        }
        if t < self.prev {
            self.next = sessions.partition_point(|s| s.start < t);
        }
        while sessions.get(self.next).is_some_and(|s| s.start < t) {
            self.next += 1;
        }
        self.prev = t;
        // As in `screen_on_at`: a session starting at `t` counts as on,
        // even a zero-length one; otherwise the last session starting
        // before `t` decides.
        match sessions.get(self.next) {
            Some(s) if s.start == t => true,
            _ => self.next > 0 && sessions[self.next - 1].span().contains(t),
        }
    }
}

/// Everything that happened on one day: screen sessions, interactions,
/// and network activities, each sorted by time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DayTrace {
    /// Which day of the trace this is.
    pub day: DayIndex,
    /// Screen-on sessions, disjoint, sorted by start.
    pub sessions: Vec<ScreenSession>,
    /// User interactions, sorted by time.
    pub interactions: Vec<Interaction>,
    /// Network activities, sorted by start.
    pub activities: Vec<NetworkActivity>,
}

impl DayTrace {
    /// New empty day.
    pub fn new(day: DayIndex) -> Self {
        DayTrace {
            day,
            ..Default::default()
        }
    }

    /// Full span of the day.
    pub fn span(&self) -> Interval {
        Interval::new(day_start(self.day), day_start(self.day) + SECS_PER_DAY)
    }

    /// Total screen-on seconds.
    pub fn screen_on_seconds(&self) -> Seconds {
        self.sessions.iter().map(ScreenSession::len).sum()
    }

    /// `true` when `t` falls inside a screen-on session. A point query:
    /// to ask it of every activity, walk
    /// [`activity_screen_states`](Self::activity_screen_states).
    pub fn screen_on_at(&self, t: Timestamp) -> bool {
        // Sessions are sorted and disjoint: binary search by start.
        match self.sessions.binary_search_by(|s| s.start.cmp(&t)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.sessions[i - 1].span().contains(t),
        }
    }

    /// Each activity, in order, with whether the screen was on at its
    /// start: the answer of [`screen_on_at`](Self::screen_on_at)`(a.start)`
    /// for any day, found by one merge walk of the activities against
    /// the sessions. A start that goes backwards re-seeks with a binary
    /// search, and a day whose sessions are not sorted by start asks
    /// `screen_on_at` for each activity.
    // lint:hot-path
    pub fn activity_screen_states(&self) -> impl Iterator<Item = (&NetworkActivity, bool)> {
        let mut walk = ScreenWalk::new(self);
        self.activities
            .iter()
            .map(move |a| (a, walk.on_at(a.start)))
    }

    /// [`activity_screen_states`](Self::activity_screen_states)' answers
    /// by activity index, written over `out`: the form for a caller that
    /// keeps a day's states in a buffer it reuses.
    // lint:hot-path
    pub fn activity_screen_states_into(&self, out: &mut Vec<bool>) {
        let mut walk = ScreenWalk::new(self);
        out.resize(self.activities.len(), false);
        for (on, a) in out.iter_mut().zip(&self.activities) {
            *on = walk.on_at(a.start);
        }
    }

    /// Splits activities into (screen-on, screen-off) by their start time.
    pub fn split_activities_by_screen(&self) -> (Vec<&NetworkActivity>, Vec<&NetworkActivity>) {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for (a, screen_on) in self.activity_screen_states() {
            if screen_on {
                on.push(a);
            } else {
                off.push(a);
            }
        }
        (on, off)
    }

    /// Network activities that start while the screen is off.
    pub fn screen_off_activities(&self) -> impl Iterator<Item = &NetworkActivity> {
        self.activity_screen_states()
            .filter_map(|(a, on)| (!on).then_some(a))
    }

    /// Seconds of screen-on time overlapped by at least one transfer —
    /// the numerator of the paper's *radio utilization ratio* (Fig. 2).
    pub fn utilized_screen_on_seconds(&self) -> Seconds {
        let transfer_spans: Vec<Interval> =
            self.activities.iter().map(NetworkActivity::span).collect();
        let merged = merge_intervals(transfer_spans);
        self.sessions
            .iter()
            .map(|s| crate::time::overlap_with(&merged, &s.span()))
            .sum()
    }

    /// All day events in simulator order.
    pub fn events(&self) -> Vec<Event> {
        let mut v: Vec<Event> = Vec::with_capacity(
            2 * self.sessions.len() + self.interactions.len() + self.activities.len(),
        );
        for s in &self.sessions {
            v.push(Event::ScreenOn(s.start));
            v.push(Event::ScreenOff(s.end));
        }
        v.extend(self.interactions.iter().copied().map(Event::Interaction));
        v.extend(self.activities.iter().copied().map(Event::Network));
        v.sort_by_key(|e| (e.at(), e.rank()));
        v
    }

    /// Validates internal invariants (sortedness, disjoint sessions,
    /// containment in the day). Returns a description of the first
    /// violation, or `Ok(())`.
    pub fn validate(&self) -> Result<(), String> {
        let span = self.span();
        let mut prev_end = span.start;
        for s in &self.sessions {
            if s.start < prev_end {
                return Err(format!(
                    "session at {} overlaps previous (prev end {prev_end})",
                    s.start
                ));
            }
            if s.end > span.end {
                return Err(format!(
                    "session ending {} spills past day end {}",
                    s.end, span.end
                ));
            }
            if s.is_empty() {
                return Err(format!("empty session at {}", s.start));
            }
            prev_end = s.end;
        }
        if !self.interactions.windows(2).all(|w| w[0].at <= w[1].at) {
            return Err("interactions unsorted".into());
        }
        if !self.activities.windows(2).all(|w| w[0].start <= w[1].start) {
            return Err("activities unsorted".into());
        }
        for i in &self.interactions {
            if !span.contains(i.at) {
                return Err(format!("interaction at {} outside day", i.at));
            }
        }
        for a in &self.activities {
            if !span.contains(a.start) {
                return Err(format!("activity at {} outside day", a.start));
            }
        }
        Ok(())
    }

    /// Sorts all three event vectors into canonical order.
    pub fn normalize(&mut self) {
        self.sessions.sort_by_key(|s| s.start);
        self.interactions.sort_by_key(|i| i.at);
        self.activities.sort_by_key(|a| a.start);
    }
}

/// A multi-day trace for one user.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Stable user identifier (1-based in the paper's figures).
    pub user_id: u32,
    /// App registry for this trace.
    pub apps: AppRegistry,
    /// One entry per day, `days[i].day == i`.
    pub days: Vec<DayTrace>,
}

impl Trace {
    /// New empty trace for a user.
    pub fn new(user_id: u32) -> Self {
        Trace {
            user_id,
            ..Default::default()
        }
    }

    /// Number of recorded days.
    pub fn num_days(&self) -> usize {
        self.days.len()
    }

    /// Total span covered by the trace.
    pub fn span(&self) -> Interval {
        Interval::new(0, day_start(self.num_days()))
    }

    /// All network activities across days, in time order.
    pub fn all_activities(&self) -> impl Iterator<Item = &NetworkActivity> {
        self.days.iter().flat_map(|d| d.activities.iter())
    }

    /// All interactions across days, in time order.
    pub fn all_interactions(&self) -> impl Iterator<Item = &Interaction> {
        self.days.iter().flat_map(|d| d.interactions.iter())
    }

    /// All screen sessions across days, in time order.
    pub fn all_sessions(&self) -> impl Iterator<Item = &ScreenSession> {
        self.days.iter().flat_map(|d| d.sessions.iter())
    }

    /// Total bytes (down, up) over the whole trace.
    pub fn total_bytes(&self) -> (u64, u64) {
        self.all_activities()
            .fold((0, 0), |(d, u), a| (d + a.bytes_down, u + a.bytes_up))
    }

    /// `true` when `t` falls in a screen-on session.
    pub fn screen_on_at(&self, t: Timestamp) -> bool {
        let day = crate::time::day_of(t);
        self.days.get(day).is_some_and(|d| d.screen_on_at(t))
    }

    /// Sub-trace containing days `[from, to)` (re-indexed from 0 is NOT
    /// performed; day indices keep their absolute values so weekday math
    /// stays correct). Days past the end are absent, so a range that
    /// starts past the end, or ends before it starts, yields no days.
    pub fn slice_days(&self, from: DayIndex, to: DayIndex) -> Trace {
        let to = to.min(self.days.len());
        Trace {
            user_id: self.user_id,
            apps: self.apps.clone(),
            days: self.days.get(from..to).unwrap_or_default().to_vec(),
        }
    }

    /// Validates every day and the day indexing.
    pub fn validate(&self) -> Result<(), String> {
        for (i, d) in self.days.iter().enumerate() {
            if self.days[0].day + i != d.day {
                return Err(format!(
                    "day {i} has index {} (expected {})",
                    d.day,
                    self.days[0].day + i
                ));
            }
            d.validate()
                .map_err(|e| format!("user {} day {}: {e}", self.user_id, d.day))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ActivityCause;

    fn session(start: Timestamp, end: Timestamp) -> ScreenSession {
        ScreenSession { start, end }
    }

    fn activity(start: Timestamp, duration: Seconds, bytes: u64) -> NetworkActivity {
        NetworkActivity {
            start,
            duration,
            bytes_down: bytes,
            bytes_up: 0,
            app: AppId(0),
            cause: ActivityCause::Background,
        }
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = AppRegistry::new();
        let a = reg.register("com.tencent.mm");
        let b = reg.register("browser");
        assert_ne!(a, b);
        assert_eq!(reg.register("com.tencent.mm"), a);
        assert_eq!(reg.name(a), Some("com.tencent.mm"));
        assert_eq!(reg.lookup("browser"), Some(b));
        assert_eq!(reg.lookup("absent"), None);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.iter().count(), 2);
    }

    #[test]
    fn screen_on_lookup() {
        let mut d = DayTrace::new(0);
        d.sessions = vec![session(100, 200), session(300, 400)];
        assert!(!d.screen_on_at(99));
        assert!(d.screen_on_at(100));
        assert!(d.screen_on_at(199));
        assert!(!d.screen_on_at(200));
        assert!(d.screen_on_at(350));
        assert!(!d.screen_on_at(400));
        assert_eq!(d.screen_on_seconds(), 200);
    }

    #[test]
    fn screen_state_walk_answers_like_point_queries() {
        let walk = |d: &DayTrace| -> Vec<bool> {
            let states: Vec<bool> = d.activity_screen_states().map(|(_, on)| on).collect();
            // The buffer form writes the same answers over a dirty buffer.
            let mut buf = vec![true; 3];
            d.activity_screen_states_into(&mut buf);
            assert_eq!(buf, states);
            states
        };
        let mut d = DayTrace::new(0);
        // Starts on a session's start and end, a zero-length session,
        // and starts that go backwards.
        d.sessions = vec![session(100, 200), session(250, 250), session(300, 400)];
        let starts = [100, 200, 250, 399, 150, 99, 400, 300, 0];
        d.activities = starts.iter().map(|&s| activity(s, 1, 1)).collect();
        assert_eq!(
            walk(&d),
            [true, false, true, true, true, false, false, true, false]
        );
        // Sessions out of order fall back to the point query.
        d.sessions.reverse();
        let asked: Vec<bool> = starts.iter().map(|&s| d.screen_on_at(s)).collect();
        assert_eq!(walk(&d), asked);
        d.sessions.clear();
        assert_eq!(walk(&d), [false; 9]);
    }

    #[test]
    fn split_by_screen_state() {
        let mut d = DayTrace::new(0);
        d.sessions = vec![session(100, 200)];
        d.activities = vec![activity(150, 10, 100), activity(250, 10, 100)];
        let (on, off) = d.split_activities_by_screen();
        assert_eq!(on.len(), 1);
        assert_eq!(off.len(), 1);
        assert_eq!(on[0].start, 150);
        assert_eq!(d.screen_off_activities().count(), 1);
    }

    #[test]
    fn utilized_screen_on_time_counts_transfer_overlap_once() {
        let mut d = DayTrace::new(0);
        d.sessions = vec![session(0, 100)];
        // Two overlapping transfers inside the session: 10..40 and 30..60.
        d.activities = vec![activity(10, 30, 1), activity(30, 30, 1)];
        assert_eq!(d.utilized_screen_on_seconds(), 50);
    }

    #[test]
    fn day_validation_catches_problems() {
        let mut d = DayTrace::new(0);
        d.sessions = vec![session(100, 200), session(150, 300)];
        assert!(d.validate().is_err());
        d.sessions = vec![session(100, 200)];
        d.interactions = vec![
            Interaction {
                at: 50,
                app: AppId(0),
                needs_network: false,
            },
            Interaction {
                at: 20,
                app: AppId(0),
                needs_network: false,
            },
        ];
        assert!(d.validate().unwrap_err().contains("unsorted"));
        d.normalize();
        assert!(d.validate().is_ok());
    }

    #[test]
    fn trace_slicing_and_totals() {
        let mut t = Trace::new(7);
        for day in 0..5 {
            let mut d = DayTrace::new(day);
            d.activities = vec![activity(day_start(day) + 10, 5, 100)];
            t.days.push(d);
        }
        assert_eq!(t.num_days(), 5);
        assert_eq!(t.total_bytes(), (500, 0));
        let s = t.slice_days(1, 3);
        assert_eq!(s.num_days(), 2);
        assert_eq!(s.days[0].day, 1);
        assert!(s.validate().is_ok());
        assert_eq!(s.total_bytes(), (200, 0));
    }

    #[test]
    fn slicing_out_of_range_yields_no_days() {
        let mut t = Trace::new(7);
        t.apps.register("com.example");
        for day in 0..5 {
            t.days.push(DayTrace::new(day));
        }
        for (from, to) in [(25, 30), (5, 9), (7, 3), (3, 2), (9, 0)] {
            let s = t.slice_days(from, to);
            assert_eq!(s.num_days(), 0, "slice_days({from}, {to})");
            assert_eq!((s.user_id, &s.apps), (7, &t.apps));
        }
        assert_eq!(t.slice_days(3, 30).num_days(), 2, "the end is clamped");
    }

    #[test]
    fn day_events_are_ordered() {
        let mut d = DayTrace::new(0);
        d.sessions = vec![session(100, 200)];
        d.interactions = vec![Interaction {
            at: 100,
            app: AppId(0),
            needs_network: true,
        }];
        d.activities = vec![activity(100, 5, 10)];
        let ev = d.events();
        assert!(matches!(ev[0], Event::ScreenOn(100)));
        assert!(matches!(ev[1], Event::Interaction(_)));
        assert!(matches!(ev[2], Event::Network(_)));
        assert!(matches!(ev[3], Event::ScreenOff(200)));
    }
}
