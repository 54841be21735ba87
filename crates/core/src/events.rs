//! The monitoring component's event layer (§V-A): broadcasters and
//! receivers. State changes (screen, foreground app) are *event
//! triggered*; byte counters are *time triggered* on the 1 s / 30 s
//! dual timers. The [`EventBus`] decouples producers (the trace
//! replayer here; Android's broadcast intents in the original) from
//! consumers (the recording database, usage counters, live policy
//! hooks).

use crate::monitoring::{Database, MonitorConfig, Record};
use netmaster_trace::event::AppId;
use netmaster_trace::time::Timestamp;
use netmaster_trace::trace::DayTrace;

/// A system event as the middleware sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemEvent {
    /// Screen state changed (event trigger).
    ScreenChanged {
        /// When.
        at: Timestamp,
        /// New state.
        on: bool,
    },
    /// Foreground app changed (event trigger).
    ForegroundChanged {
        /// When.
        at: Timestamp,
        /// App now in front.
        app: AppId,
    },
    /// A network activity was attributed to an app (per-UID counters).
    NetworkDetected {
        /// Activity start.
        at: Timestamp,
        /// Owning app.
        app: AppId,
        /// Total bytes.
        bytes: u64,
    },
    /// A byte-counter sample fired (time trigger).
    BytesSampled {
        /// Sample instant.
        at: Timestamp,
        /// Bytes received since the last sample.
        down: u64,
        /// Bytes sent since the last sample.
        up: u64,
    },
}

impl SystemEvent {
    /// Event timestamp.
    pub fn at(&self) -> Timestamp {
        match *self {
            SystemEvent::ScreenChanged { at, .. }
            | SystemEvent::ForegroundChanged { at, .. }
            | SystemEvent::NetworkDetected { at, .. }
            | SystemEvent::BytesSampled { at, .. } => at,
        }
    }
}

/// A registered receiver.
pub trait EventReceiver {
    /// Handles one event. Events arrive in non-decreasing time order.
    fn on_event(&mut self, event: &SystemEvent);
}

/// Fan-out bus: every broadcast reaches every receiver in registration
/// order.
#[derive(Default)]
pub struct EventBus {
    receivers: Vec<Box<dyn EventReceiver>>,
}

impl EventBus {
    /// Empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a receiver; returns its index for later retrieval.
    pub fn register(&mut self, r: Box<dyn EventReceiver>) -> usize {
        self.receivers.push(r);
        self.receivers.len() - 1
    }

    /// Broadcasts one event to all receivers.
    pub fn broadcast(&mut self, event: &SystemEvent) {
        for r in &mut self.receivers {
            r.on_event(event);
        }
    }

    /// Number of registered receivers.
    pub fn len(&self) -> usize {
        self.receivers.len()
    }

    /// `true` when no receivers are registered.
    pub fn is_empty(&self) -> bool {
        self.receivers.is_empty()
    }

    /// Takes a receiver back out (consuming the slot).
    pub fn take(&mut self, index: usize) -> Box<dyn EventReceiver> {
        self.receivers.remove(index)
    }
}

/// Builds a day's §V-A event stream: event triggers from state
/// changes, time-triggered byte samples on the dual timers, sorted by
/// time.
pub fn day_events(day: &DayTrace, cfg: &MonitorConfig) -> Vec<SystemEvent> {
    let mut events: Vec<SystemEvent> = Vec::new();
    for s in &day.sessions {
        events.push(SystemEvent::ScreenChanged {
            at: s.start,
            on: true,
        });
        events.push(SystemEvent::ScreenChanged {
            at: s.end,
            on: false,
        });
    }
    for i in &day.interactions {
        events.push(SystemEvent::ForegroundChanged {
            at: i.at,
            app: i.app,
        });
    }
    for (a, screen_on) in day.activity_screen_states() {
        events.push(SystemEvent::NetworkDetected {
            at: a.start,
            app: a.app,
            bytes: a.volume(),
        });
        // Time-triggered samples across the transfer window, on the
        // screen-state-appropriate timer.
        let (period, n) = cfg.byte_samples(screen_on, a);
        let per_down = a.bytes_down / n;
        let per_up = a.bytes_up / n;
        for k in 0..n {
            events.push(SystemEvent::BytesSampled {
                at: a.start + (k + 1) * period,
                down: per_down,
                up: per_up,
            });
        }
    }
    events.sort_by_key(|e| e.at());
    events
}

/// Emits a day's event stream onto a bus.
pub fn replay_day(day: &DayTrace, cfg: &MonitorConfig, bus: &mut EventBus) {
    for e in &day_events(day, cfg) {
        bus.broadcast(e);
    }
}

/// Receiver that records events into the monitoring [`Database`] — the
/// §V-A recording path expressed through the bus.
#[derive(Default)]
pub struct DatabaseRecorder {
    /// The backing store.
    pub db: Database,
}

impl DatabaseRecorder {
    /// Recorder with the given cache capacity.
    pub fn new(cache_bytes: usize) -> Self {
        DatabaseRecorder {
            db: Database::new(cache_bytes),
        }
    }
}

impl EventReceiver for DatabaseRecorder {
    fn on_event(&mut self, event: &SystemEvent) {
        let record = match *event {
            SystemEvent::ScreenChanged { at, on } => Record::Screen { at, on },
            SystemEvent::ForegroundChanged { at, app } => Record::Foreground { at, app },
            SystemEvent::NetworkDetected { at, app, bytes } => Record::Network { at, app, bytes },
            SystemEvent::BytesSampled { at, down, up } => Record::Bytes { at, down, up },
        };
        self.db.record(record);
    }
}

/// Receiver that maintains live per-hour usage counts — the mining
/// component's incremental input.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct UsageCounter {
    /// Interactions per hour-of-day, accumulated.
    pub per_hour: [u64; 24],
    /// Total interactions seen.
    pub total: u64,
}

impl EventReceiver for UsageCounter {
    fn on_event(&mut self, event: &SystemEvent) {
        if let SystemEvent::ForegroundChanged { at, .. } = event {
            self.per_hour[netmaster_trace::time::hour_of(*at)] += 1;
            self.total += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitoring::Monitor;
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// (events seen, last timestamp, still in order).
    type CounterState = Rc<RefCell<(usize, Timestamp, bool)>>;

    /// Shared-state counter so the test can inspect a receiver after it
    /// was boxed into the bus.
    #[derive(Default)]
    struct SharedCounter(CounterState);

    impl SharedCounter {
        fn new() -> (Self, CounterState) {
            let cell: CounterState = Rc::new(RefCell::new((0, 0, true)));
            (SharedCounter(cell.clone()), cell)
        }
    }

    impl EventReceiver for SharedCounter {
        fn on_event(&mut self, event: &SystemEvent) {
            let mut st = self.0.borrow_mut();
            st.0 += 1;
            if event.at() < st.1 {
                st.2 = false;
            }
            st.1 = event.at();
        }
    }

    fn one_day() -> DayTrace {
        TraceGenerator::new(UserProfile::panel().remove(0))
            .with_seed(3)
            .generate(1)
            .days
            .remove(0)
    }

    #[test]
    fn events_reach_every_receiver_in_time_order() {
        let day = one_day();
        let cfg = MonitorConfig::default();
        let (ra, sa) = SharedCounter::new();
        let (rb, sb) = SharedCounter::new();
        let mut bus = EventBus::new();
        bus.register(Box::new(ra));
        bus.register(Box::new(rb));
        assert_eq!(bus.len(), 2);
        replay_day(&day, &cfg, &mut bus);
        let expected = day_events(&day, &cfg).len();
        assert!(expected > 10);
        assert_eq!(sa.borrow().0, expected, "receiver A saw every event");
        assert_eq!(sb.borrow().0, expected, "receiver B saw every event");
        assert!(sa.borrow().2, "events arrived in time order");
        assert!(sb.borrow().2);
    }

    #[test]
    fn day_events_cover_all_trigger_kinds() {
        let day = one_day();
        let evs = day_events(&day, &MonitorConfig::default());
        let screens = evs
            .iter()
            .filter(|e| matches!(e, SystemEvent::ScreenChanged { .. }))
            .count();
        let fgs = evs
            .iter()
            .filter(|e| matches!(e, SystemEvent::ForegroundChanged { .. }))
            .count();
        let nets = evs
            .iter()
            .filter(|e| matches!(e, SystemEvent::NetworkDetected { .. }))
            .count();
        let bytes = evs
            .iter()
            .filter(|e| matches!(e, SystemEvent::BytesSampled { .. }))
            .count();
        assert_eq!(screens, 2 * day.sessions.len());
        assert_eq!(fgs, day.interactions.len());
        assert_eq!(nets, day.activities.len());
        assert!(
            bytes >= day.activities.len(),
            "at least one sample per activity"
        );
    }

    #[test]
    fn database_recorder_matches_direct_monitor() {
        // The bus path and Monitor::observe_day implement the same
        // §V-A trigger model: same record multiset, per kind.
        let day = one_day();
        let cfg = MonitorConfig::default();

        let mut direct = Monitor::new();
        direct.observe_day(&day);
        direct.finalize();

        let mut recorder = DatabaseRecorder::new(cfg.cache_bytes);
        for e in &day_events(&day, &cfg) {
            recorder.on_event(e);
        }
        recorder.db.flush();

        assert_eq!(
            recorder.db.kind_counts(),
            direct.db.kind_counts(),
            "bus path and direct path must record the same multiset"
        );
    }

    #[test]
    fn usage_counter_counts_interactions() {
        let day = one_day();
        let mut counter = UsageCounter::default();
        for i in &day.interactions {
            counter.on_event(&SystemEvent::ForegroundChanged {
                at: i.at,
                app: i.app,
            });
        }
        assert_eq!(counter.total as usize, day.interactions.len());
        assert_eq!(counter.per_hour.iter().sum::<u64>(), counter.total);
        // Screen events do not count as usage.
        counter.on_event(&SystemEvent::ScreenChanged { at: 0, on: true });
        assert_eq!(counter.total as usize, day.interactions.len());
    }

    #[test]
    fn bus_take_removes_a_receiver() {
        let (ra, sa) = SharedCounter::new();
        let mut bus = EventBus::new();
        let idx = bus.register(Box::new(ra));
        bus.broadcast(&SystemEvent::ScreenChanged { at: 1, on: true });
        let _boxed = bus.take(idx);
        assert!(bus.is_empty());
        bus.broadcast(&SystemEvent::ScreenChanged { at: 2, on: false });
        assert_eq!(sa.borrow().0, 1, "removed receiver sees nothing more");
    }

    #[test]
    fn empty_bus_is_fine() {
        let mut bus = EventBus::new();
        assert!(bus.is_empty());
        bus.broadcast(&SystemEvent::ScreenChanged { at: 1, on: true });
        replay_day(&one_day(), &MonitorConfig::default(), &mut bus);
    }
}
