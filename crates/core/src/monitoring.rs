//! The monitoring component (§V-A): records time, app, cellular network
//! and screen state into an on-device database through a hybrid
//! event-/time-triggered model, batching writes in a memory cache.
//!
//! Event triggers fire on state changes (screen on/off, foreground app
//! switch); time triggers sample non-state variables (transferred
//! bytes) every second while the screen is on and every 30 s while it
//! is off. Records pass through a 500 KB write cache before hitting
//! "flash", because frequent small flash writes are slow and
//! energy-hungry \[15\]; the flush count is the proxy for that cost.

use netmaster_trace::event::{AppId, NetworkActivity};
use netmaster_trace::time::{Seconds, Timestamp};
use netmaster_trace::trace::DayTrace;
use serde::{Deserialize, Serialize};

/// Monitoring model parameters (§V-A values).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Byte-counter sampling period while the screen is on.
    pub screen_on_timer: Seconds,
    /// Byte-counter sampling period while the screen is off.
    pub screen_off_timer: Seconds,
    /// Write-cache size in bytes before a flush.
    pub cache_bytes: usize,
}

impl MonitorConfig {
    /// The time-trigger rule for one transfer: the sampling period of
    /// the screen state it starts in, and the number of samples over
    /// its duration (a zero-length transfer still gets one).
    pub fn byte_samples(&self, day: &DayTrace, a: &NetworkActivity) -> (Seconds, u64) {
        let period = if day.screen_on_at(a.start) {
            self.screen_on_timer
        } else {
            self.screen_off_timer
        };
        (period, a.duration.max(1).div_ceil(period))
    }
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            screen_on_timer: 1,
            screen_off_timer: 30,
            cache_bytes: 500_000,
        }
    }
}

/// One monitoring record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// Screen state change (event trigger).
    Screen {
        /// When.
        at: Timestamp,
        /// New state.
        on: bool,
    },
    /// Foreground app switch (event trigger).
    Foreground {
        /// When.
        at: Timestamp,
        /// App now in front.
        app: AppId,
    },
    /// Sampled byte counters (time trigger).
    Bytes {
        /// Sample instant.
        at: Timestamp,
        /// Bytes received since the previous sample.
        down: u64,
        /// Bytes sent since the previous sample.
        up: u64,
    },
    /// A network activity attributed to an app (event trigger on
    /// per-UID counters).
    Network {
        /// Activity start.
        at: Timestamp,
        /// Owning app.
        app: AppId,
        /// Total bytes.
        bytes: u64,
    },
}

impl Record {
    /// Which count this record adds to.
    fn kind(&self) -> RecordKind {
        match self {
            Record::Screen { on: true, .. } => RecordKind::ScreenOn,
            Record::Screen { on: false, .. } => RecordKind::ScreenOff,
            Record::Foreground { .. } => RecordKind::Foreground,
            Record::Bytes { .. } => RecordKind::Bytes,
            Record::Network { .. } => RecordKind::Network,
        }
    }

    /// Serialized size estimate used for cache accounting.
    pub fn size_bytes(&self) -> usize {
        self.kind().size_bytes()
    }
}

/// The kinds of record the [`Database`] counts.
#[derive(Debug, Clone, Copy)]
enum RecordKind {
    ScreenOn,
    ScreenOff,
    Foreground,
    Bytes,
    Network,
}

impl RecordKind {
    /// Serialized size of one record of this kind.
    fn size_bytes(self) -> usize {
        match self {
            RecordKind::ScreenOn | RecordKind::ScreenOff => 9,
            RecordKind::Foreground => 10,
            RecordKind::Bytes => 24,
            RecordKind::Network => 18,
        }
    }
}

/// Records written so far, per kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Screen-on events.
    pub screen_on: u64,
    /// Screen-off events.
    pub screen_off: u64,
    /// Foreground-app switches.
    pub foreground: u64,
    /// Byte-counter samples.
    pub bytes: u64,
    /// Per-app network activities.
    pub network: u64,
}

impl KindCounts {
    /// Records of every kind.
    pub fn total(&self) -> u64 {
        self.screen_on + self.screen_off + self.foreground + self.bytes + self.network
    }

    fn slot(&mut self, kind: RecordKind) -> &mut u64 {
        match kind {
            RecordKind::ScreenOn => &mut self.screen_on,
            RecordKind::ScreenOff => &mut self.screen_off,
            RecordKind::Foreground => &mut self.foreground,
            RecordKind::Bytes => &mut self.bytes,
            RecordKind::Network => &mut self.network,
        }
    }
}

/// The on-device record store with a write-back cache, modelled by
/// counts: records per kind, bytes in the cache and flushes. Nothing
/// reads the records back (the miner consumes [`DayTrace`]s), so none
/// are kept; the flush count, the §V-A proxy for flash-write cost, is
/// exactly what a store holding every record would report.
#[derive(Debug, Clone, Default)]
pub struct Database {
    counts: KindCounts,
    cache_used: usize,
    cache_capacity: usize,
    flushes: u64,
}

impl Database {
    /// A database with the given cache capacity.
    pub fn new(cache_capacity: usize) -> Self {
        Database {
            cache_capacity,
            ..Default::default()
        }
    }

    /// Appends a record through the cache.
    pub fn record(&mut self, r: Record) {
        self.add(r.kind(), 1);
    }

    /// Appends `n` records of one kind through the cache, flushing
    /// whenever it fills — the same flushes as `n` calls to
    /// [`Database::record`].
    fn add(&mut self, kind: RecordKind, mut n: u64) {
        *self.counts.slot(kind) += n;
        let size = kind.size_bytes();
        // Records that fill the cache from its current level; a cache
        // already at capacity (capacity 0) flushes on every record.
        let to_fill = self
            .cache_capacity
            .saturating_sub(self.cache_used)
            .div_ceil(size)
            .max(1) as u64;
        if n < to_fill {
            self.cache_used += n as usize * size;
            return;
        }
        n -= to_fill;
        // From empty, every `per_flush` records flush once more.
        let per_flush = self.cache_capacity.div_ceil(size).max(1) as u64;
        self.flushes += 1 + n / per_flush;
        self.cache_used = (n % per_flush) as usize * size;
    }

    /// Forces the cache to flash.
    pub fn flush(&mut self) {
        // Records are never empty, so an empty cache holds no bytes.
        if self.cache_used == 0 {
            return;
        }
        self.cache_used = 0;
        self.flushes += 1;
    }

    /// Number of flash flushes so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Records written so far (cached or flushed), per kind.
    pub fn kind_counts(&self) -> KindCounts {
        self.counts
    }

    /// Total records, cached or persisted.
    pub fn len(&self) -> usize {
        self.counts.total() as usize
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The monitoring component: turns an observed day into database
/// records via the hybrid trigger model.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    /// Trigger configuration.
    pub config: MonitorConfig,
    /// Backing store.
    pub db: Database,
}

impl Monitor {
    /// New monitor with default §V-A parameters.
    pub fn new() -> Self {
        let config = MonitorConfig::default();
        Monitor {
            config,
            db: Database::new(config.cache_bytes),
        }
    }

    /// Observes one day, emitting event- and time-triggered records.
    /// Each kind goes through the cache in bulk, in the order the
    /// records would be written: screen changes, foreground switches,
    /// network activities, then the day's byte samples.
    // lint:hot-path
    pub fn observe_day(&mut self, day: &DayTrace) {
        // Event triggers: an on and an off per screen session (both
        // 9 B, so on/off interleaving does not move a flush), foreground
        // switches and per-app activities.
        let sessions = day.sessions.len() as u64;
        self.db.add(RecordKind::ScreenOn, sessions);
        self.db.add(RecordKind::ScreenOff, sessions);
        self.db
            .add(RecordKind::Foreground, day.interactions.len() as u64);
        self.db
            .add(RecordKind::Network, day.activities.len() as u64);
        // Time triggers: one byte sample per period *that saw traffic*
        // (idle samples carry no record — the real component reads
        // counters but only writes deltas). Every sample is 24 B, so
        // their time order does not move a flush either.
        let samples: u64 = day
            .activities
            .iter()
            .map(|a| self.config.byte_samples(day, a).1)
            .sum();
        self.db.add(RecordKind::Bytes, samples);
    }

    /// Ends the session: flush outstanding records.
    pub fn finalize(&mut self) {
        self.db.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;

    /// The record-retaining store and monitor this module used to be:
    /// every record is kept, and a day's byte samples are sorted by
    /// time before they are written. Kept only as the oracle for the
    /// counting [`Database`].
    mod reference {
        use super::super::{MonitorConfig, Record};
        use netmaster_trace::time::Timestamp;
        use netmaster_trace::trace::DayTrace;

        #[derive(Default)]
        pub struct Database {
            persisted: Vec<Record>,
            cache: Vec<Record>,
            cache_used: usize,
            cache_capacity: usize,
            flushes: u64,
        }

        impl Database {
            pub fn new(cache_capacity: usize) -> Self {
                Database {
                    cache_capacity,
                    ..Default::default()
                }
            }

            pub fn record(&mut self, r: Record) {
                self.cache_used += r.size_bytes();
                self.cache.push(r);
                if self.cache_used >= self.cache_capacity {
                    self.flush();
                }
            }

            pub fn flush(&mut self) {
                if self.cache.is_empty() {
                    return;
                }
                self.persisted.append(&mut self.cache);
                self.cache_used = 0;
                self.flushes += 1;
            }

            pub fn flush_count(&self) -> u64 {
                self.flushes
            }

            pub fn len(&self) -> usize {
                self.persisted.len() + self.cache.len()
            }
        }

        pub struct Monitor {
            pub config: MonitorConfig,
            pub db: Database,
        }

        impl Monitor {
            pub fn observe_day(&mut self, day: &DayTrace) {
                for s in &day.sessions {
                    self.db.record(Record::Screen {
                        at: s.start,
                        on: true,
                    });
                    self.db.record(Record::Screen {
                        at: s.end,
                        on: false,
                    });
                }
                for i in &day.interactions {
                    self.db.record(Record::Foreground {
                        at: i.at,
                        app: i.app,
                    });
                }
                for a in &day.activities {
                    self.db.record(Record::Network {
                        at: a.start,
                        app: a.app,
                        bytes: a.volume(),
                    });
                }
                let mut samples: Vec<(Timestamp, u64, u64)> = Vec::new();
                for a in &day.activities {
                    let period = if day.screen_on_at(a.start) {
                        self.config.screen_on_timer
                    } else {
                        self.config.screen_off_timer
                    };
                    let dur = a.duration.max(1);
                    let n_samples = dur.div_ceil(period);
                    let per_down = a.bytes_down / n_samples.max(1);
                    let per_up = a.bytes_up / n_samples.max(1);
                    for k in 0..n_samples {
                        samples.push((a.start + (k + 1) * period, per_down, per_up));
                    }
                }
                samples.sort_by_key(|&(t, ..)| t);
                for (at, down, up) in samples {
                    self.db.record(Record::Bytes { at, down, up });
                }
            }
        }
    }

    #[test]
    fn flushes_match_the_record_retaining_oracle() {
        // Capacities that flush mid-kind (100 B holds 11 screen
        // records), a few times a day (4 KiB) and rarely (§V-A's
        // 500 KB).
        for cache_bytes in [100, 4 * 1024, 500_000] {
            let config = MonitorConfig {
                cache_bytes,
                ..MonitorConfig::default()
            };
            for (u, profile) in UserProfile::panel().into_iter().enumerate() {
                let trace = TraceGenerator::new(profile)
                    .with_seed(11 + u as u64)
                    .generate(21);
                let mut counted = Monitor {
                    config,
                    db: Database::new(cache_bytes),
                };
                let mut oracle = reference::Monitor {
                    config,
                    db: reference::Database::new(cache_bytes),
                };
                for d in &trace.days {
                    counted.observe_day(d);
                    oracle.observe_day(d);
                    let case = format!("cache {cache_bytes} B, user {u}, day {}", d.day);
                    assert_eq!(
                        counted.db.flush_count(),
                        oracle.db.flush_count(),
                        "flushes, {case}"
                    );
                    assert_eq!(counted.db.len(), oracle.db.len(), "records, {case}");
                }
                counted.finalize();
                oracle.db.flush();
                assert_eq!(counted.db.flush_count(), oracle.db.flush_count());
            }
        }
    }

    #[test]
    fn bulk_add_matches_single_records() {
        // A run written in bulk adds flushes like the same run written
        // one record at a time, zero capacity included.
        for cap in [0, 1, 9, 10, 24, 100, 257] {
            let mut one = Database::new(cap);
            let mut bulk = Database::new(cap);
            let screen_on = Record::Screen { at: 0, on: true };
            let bytes = Record::Bytes {
                at: 0,
                down: 0,
                up: 0,
            };
            let network = Record::Network {
                at: 0,
                app: AppId(0),
                bytes: 0,
            };
            let foreground = Record::Foreground {
                at: 0,
                app: AppId(0),
            };
            let screen_off = Record::Screen { at: 0, on: false };
            for (r, n) in [
                (screen_on, 7),
                (bytes, 0),
                (network, 13),
                (foreground, 1),
                (bytes, 40),
                (screen_off, 3),
            ] {
                for _ in 0..n {
                    one.record(r);
                }
                bulk.add(r.kind(), n);
                assert_eq!(bulk.flush_count(), one.flush_count(), "cap {cap}");
                assert_eq!(bulk.kind_counts(), one.kind_counts());
            }
            one.flush();
            bulk.flush();
            assert_eq!(bulk.flush_count(), one.flush_count(), "cap {cap}");
        }
    }

    #[test]
    fn cache_batches_writes() {
        let mut db = Database::new(100);
        for i in 0..20 {
            db.record(Record::Bytes {
                at: i,
                down: 1,
                up: 1,
            }); // 24 B each
        }
        // 100 B cache, 24 B records ⇒ flush every 5 records (120 ≥ 100).
        assert_eq!(db.flush_count(), 4);
        assert_eq!(db.len(), 20);
        assert_eq!(db.kind_counts().bytes, 20);
        // The 20th record closed the fourth flush: nothing is cached.
        db.flush();
        assert_eq!(db.flush_count(), 4);
    }

    #[test]
    fn explicit_flush_drains_cache() {
        let mut db = Database::new(1_000_000);
        db.record(Record::Screen { at: 1, on: true });
        assert_eq!(db.flush_count(), 0);
        db.flush();
        assert_eq!(db.kind_counts().screen_on, 1);
        assert_eq!(db.flush_count(), 1);
        // Flushing an empty cache is a no-op.
        db.flush();
        assert_eq!(db.flush_count(), 1);
    }

    #[test]
    fn big_cache_flushes_rarely() {
        // The design point of the 500 KB cache: a full day of records
        // must cost only a handful of flash writes.
        let trace = TraceGenerator::new(UserProfile::panel().remove(2))
            .with_seed(4)
            .generate(7);
        let mut mon = Monitor::new();
        for d in &trace.days {
            mon.observe_day(d);
        }
        mon.finalize();
        assert!(
            mon.db.kind_counts().total() > 1_000,
            "expected a busy week, got {}",
            mon.db.len()
        );
        assert!(
            mon.db.flush_count() <= 3,
            "500 KB cache should batch a week into a few flushes, got {}",
            mon.db.flush_count()
        );
    }

    #[test]
    fn observe_day_emits_all_event_kinds() {
        let trace = TraceGenerator::new(UserProfile::panel().remove(0))
            .with_seed(8)
            .generate(1);
        let mut mon = Monitor::new();
        mon.observe_day(&trace.days[0]);
        mon.finalize();
        let c = mon.db.kind_counts();
        assert!(c.screen_on > 0);
        assert!(c.screen_off > 0);
        assert!(c.foreground > 0);
        assert!(c.network > 0);
        assert!(c.bytes > 0);
    }

    #[test]
    fn screen_off_sampling_is_coarser() {
        // A 60 s screen-off transfer gets 2 samples (30 s timer); the
        // same transfer screen-on gets 60 (1 s timer).
        use netmaster_trace::event::{ActivityCause, ScreenSession};
        let mk_day = |screen_on: bool| {
            let mut d = DayTrace::new(0);
            if screen_on {
                d.sessions = vec![ScreenSession { start: 0, end: 200 }];
            }
            d.activities = vec![NetworkActivity {
                start: 10,
                duration: 60,
                bytes_down: 600,
                bytes_up: 0,
                app: AppId(0),
                cause: ActivityCause::Background,
            }];
            d
        };
        let count_bytes = |day: &DayTrace| {
            let mut mon = Monitor::new();
            mon.observe_day(day);
            mon.finalize();
            mon.db.kind_counts().bytes
        };
        assert_eq!(count_bytes(&mk_day(false)), 2);
        assert_eq!(count_bytes(&mk_day(true)), 60);
    }

    #[test]
    fn record_sizes_are_positive() {
        for r in [
            Record::Screen { at: 0, on: true },
            Record::Foreground {
                at: 0,
                app: AppId(0),
            },
            Record::Bytes {
                at: 0,
                down: 0,
                up: 0,
            },
            Record::Network {
                at: 0,
                app: AppId(0),
                bytes: 0,
            },
        ] {
            assert!(r.size_bytes() > 0);
        }
    }
}
