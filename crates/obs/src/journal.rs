//! The decision-audit journal: a bounded ring buffer of typed events
//! explaining *why* a day's plan looks the way it does — which slots
//! the miner predicted, where each screen-off demand was routed, which
//! predictions missed and fell to the duty-cycle layer, and where the
//! Special-App guard overrode a block.
//!
//! Journals are per-policy (one middleware instance, one journal), so a
//! fleet of policies never interleaves events. `emit` takes a closure:
//! when observability is switched off at run time, the event is never
//! even constructed.

use crate::{runtime_enabled, Ring};
use serde::{Deserialize, Serialize};

/// Default ring capacity: a few weeks of single-user days.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// A typed scheduling decision, in simulated time (seconds since the
/// trace epoch; `day` indexes the trace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DecisionEvent {
    /// The miner predicted a user-active slot for the day.
    SlotPredicted {
        /// Day being planned.
        day: usize,
        /// Index into the day's slot list.
        slot: usize,
        /// Slot start (simulated seconds).
        start: u64,
        /// Slot end (simulated seconds).
        end: u64,
    },
    /// The planner routed a screen-off demand into a predicted slot.
    ActivityScheduled {
        /// Day being planned.
        day: usize,
        /// Hour-of-day the demand arrived in.
        hour: usize,
        /// Destination slot index.
        slot: usize,
        /// `true` when pre-served in an earlier slot (prefetch),
        /// `false` when deferred to a later one.
        prefetch: bool,
    },
    /// A scheduled demand was actually moved at execution time.
    DeferralExecuted {
        /// Day being planned.
        day: usize,
        /// Natural start of the demand.
        from: u64,
        /// When it actually ran.
        to: u64,
        /// `|to − from|` in simulated seconds.
        latency_secs: u64,
    },
    /// A trained prediction missed: the demand fell through to the
    /// duty-cycle layer (or arrived screen-off inside a predicted
    /// active slot).
    PredictionMiss {
        /// Day being planned.
        day: usize,
        /// Hour-of-day of the missed demand.
        hour: usize,
    },
    /// The duty-cycle layer covered a screen-off window.
    DutyCycleFallback {
        /// Day being planned.
        day: usize,
        /// Window start (simulated seconds).
        window_start: u64,
        /// Pending demands handed to the window.
        arrivals: u64,
        /// Wake-ups performed.
        wakeups: u64,
        /// Wake-ups that found nothing pending.
        empty_wakeups: u64,
        /// Demands served inside the window.
        served: u64,
    },
    /// A Special App needed the network while the radio was planned
    /// off; the real-time layer powered it preemptively instead of
    /// counting a wrong decision.
    SpecialAppPassthrough {
        /// Day being planned.
        day: usize,
        /// Numeric app id from the trace.
        app: u16,
        /// Interaction instant.
        at: u64,
    },
    /// A needs-network interaction hit a blocked radio: a wrong
    /// decision charged against user experience.
    WrongDecision {
        /// Day being planned.
        day: usize,
        /// Interaction instant.
        at: u64,
    },
    /// The middleware service finished executing a day.
    DayExecuted {
        /// Day index.
        day: usize,
        /// Whether the miner was trained for this day.
        trained: bool,
        /// Transfers rescheduled today.
        moved_transfers: u64,
        /// Wrong decisions today.
        wrong_decisions: u64,
    },
    /// A watchtower drift detector fired on a watched per-user metric:
    /// the habit the miner learned no longer matches observed behaviour.
    DriftDetected {
        /// Day the alarm fired.
        day: usize,
        /// Fleet member id.
        user: u32,
        /// Watched metric name (`hit_rate` / `saving_ratio` /
        /// `deferral_latency`).
        metric: String,
        /// Detector name (`page_hinkley` / `windowed_cusum`).
        detector: String,
        /// The detector statistic at the moment of the alarm.
        statistic: f64,
        /// The threshold it crossed.
        threshold: f64,
    },
    /// A user's health scorecard worsened (healthy → degraded or
    /// degraded → critical).
    HealthDegraded {
        /// Day the transition was observed.
        day: usize,
        /// Fleet member id.
        user: u32,
        /// New status (`degraded` / `critical`).
        status: String,
        /// Why (first triggering reason).
        reason: String,
    },
}

impl DecisionEvent {
    /// The variant name, for compact summaries and golden tests.
    pub fn kind(&self) -> &'static str {
        use crate::names;
        match self {
            DecisionEvent::SlotPredicted { .. } => names::KIND_SLOT_PREDICTED,
            DecisionEvent::ActivityScheduled { .. } => names::KIND_ACTIVITY_SCHEDULED,
            DecisionEvent::DeferralExecuted { .. } => names::KIND_DEFERRAL_EXECUTED,
            DecisionEvent::PredictionMiss { .. } => names::KIND_PREDICTION_MISS,
            DecisionEvent::DutyCycleFallback { .. } => names::KIND_DUTY_CYCLE_FALLBACK,
            DecisionEvent::SpecialAppPassthrough { .. } => names::KIND_SPECIAL_APP_PASSTHROUGH,
            DecisionEvent::WrongDecision { .. } => names::KIND_WRONG_DECISION,
            DecisionEvent::DayExecuted { .. } => names::KIND_DAY_EXECUTED,
            DecisionEvent::DriftDetected { .. } => names::KIND_DRIFT_DETECTED,
            DecisionEvent::HealthDegraded { .. } => names::KIND_HEALTH_DEGRADED,
        }
    }
}

/// A journaled event with its monotonic sequence number (assigned at
/// emit time; gaps reveal ring-buffer drops).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Monotonic per-journal sequence number.
    pub seq: u64,
    /// The decision event.
    pub event: DecisionEvent,
}

/// Bounded ring buffer of [`JournalEntry`]s. When full, the oldest
/// entry is dropped and counted.
#[derive(Debug)]
pub struct Journal {
    ring: Ring<JournalEntry>,
    next_seq: u64,
    /// Muted journals drop events before construction — the
    /// metrics-only flight-recorder detail level for fleet members,
    /// where nobody will ever drain the ring.
    muted: bool,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl Journal {
    /// Journal with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// Journal holding at most `cap` entries (at least 1).
    pub fn with_capacity(cap: usize) -> Self {
        Journal {
            ring: Ring::new(cap.max(1)),
            next_seq: 0,
            muted: false,
        }
    }

    /// Mutes (or unmutes) the journal: while muted, [`Journal::emit`]
    /// is a no-op and events are never constructed.
    pub fn set_muted(&mut self, muted: bool) {
        self.muted = muted;
    }

    /// Appends the event produced by `f`. When observability is
    /// switched off at run time, or the journal is muted, `f` never
    /// runs.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> DecisionEvent) {
        if self.muted || !runtime_enabled() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.push(JournalEntry { seq, event: f() }) > 0 {
            crate::counter!(crate::names::JOURNAL_DROPPED_TOTAL);
        }
    }

    /// Buffered entries.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Entries evicted by the ring bound since creation.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Highest fill level the ring has reached since creation. Equal
    /// to the capacity once anything has been dropped — on `/healthz`
    /// this distinguishes "ring sized generously" from "ring brim-full
    /// and truncating".
    pub fn high_water(&self) -> usize {
        self.ring.high_water()
    }

    /// Takes every buffered entry, oldest first. Publishes the ring's
    /// high-water mark as a gauge when it has risen since the last
    /// drain (`emit` only maintains a local max).
    pub fn drain(&mut self) -> Vec<JournalEntry> {
        if let Some(hw) = self.ring.high_water_rise() {
            crate::gauge_max(crate::names::JOURNAL_RING_HIGHWATER, hw as f64);
        }
        self.ring.drain().collect()
    }
}

/// Encodes entries as JSONL: one `serde_json` object per line.
pub fn to_jsonl(entries: &[JournalEntry]) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for e in entries {
        out.push_str(&serde_json::to_string(e)?);
        out.push('\n');
    }
    Ok(out)
}

/// Parses JSONL produced by [`to_jsonl`] (blank lines ignored).
pub fn parse_jsonl(s: &str) -> Result<Vec<JournalEntry>, serde_json::Error> {
    s.lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(day: usize) -> DecisionEvent {
        DecisionEvent::PredictionMiss { day, hour: 3 }
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let _g = crate::test_serial();
        crate::reset();
        let mut j = Journal::with_capacity(3);
        for day in 0..5 {
            j.emit(|| sample(day));
        }
        // Each ring eviction also bumps the fleet-wide drop counter.
        assert_eq!(
            crate::snapshot().counter(crate::names::JOURNAL_DROPPED_TOTAL),
            2
        );
        crate::reset();
        let entries = j.drain();
        // Drain publishes the high-water mark as a gauge.
        let snap = crate::snapshot();
        let hw = snap
            .gauges
            .iter()
            .find(|g| g.name == crate::names::JOURNAL_RING_HIGHWATER)
            .map(|g| g.value);
        assert_eq!(hw, Some(3.0));
        // Oldest two were evicted; seq numbers reveal the gap.
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(entries[0].event, sample(2));
        // Later drains publish only a rise, and the gauge keeps reading
        // the ring's high water.
        let gauge = || crate::snapshot().gauge(crate::names::JOURNAL_RING_HIGHWATER);
        j.emit(|| sample(5));
        assert_eq!(j.drain().len(), 1);
        assert_eq!(gauge(), Some(3.0));
        let mut big = Journal::with_capacity(8);
        (0..5).for_each(|day| big.emit(|| sample(day)));
        big.drain();
        assert_eq!((gauge(), big.high_water()), (Some(5.0), 5));
        crate::reset();
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let all = vec![
            DecisionEvent::SlotPredicted {
                day: 14,
                slot: 0,
                start: 1_209_600,
                end: 1_216_800,
            },
            DecisionEvent::ActivityScheduled {
                day: 14,
                hour: 3,
                slot: 0,
                prefetch: false,
            },
            DecisionEvent::DeferralExecuted {
                day: 14,
                from: 1_220_000,
                to: 1_230_000,
                latency_secs: 10_000,
            },
            DecisionEvent::PredictionMiss { day: 14, hour: 5 },
            DecisionEvent::DutyCycleFallback {
                day: 14,
                window_start: 1_240_000,
                arrivals: 2,
                wakeups: 5,
                empty_wakeups: 3,
                served: 2,
            },
            DecisionEvent::SpecialAppPassthrough {
                day: 14,
                app: 7,
                at: 1_250_000,
            },
            DecisionEvent::WrongDecision {
                day: 14,
                at: 1_260_000,
            },
            DecisionEvent::DayExecuted {
                day: 14,
                trained: true,
                moved_transfers: 12,
                wrong_decisions: 0,
            },
            DecisionEvent::DriftDetected {
                day: 15,
                user: 3,
                metric: "hit_rate".to_owned(),
                detector: "page_hinkley".to_owned(),
                statistic: 0.42,
                threshold: 0.3,
            },
            DecisionEvent::HealthDegraded {
                day: 15,
                user: 3,
                status: "degraded".to_owned(),
                reason: "hit_rate drift on day 15".to_owned(),
            },
        ];
        let entries: Vec<JournalEntry> = all
            .into_iter()
            .enumerate()
            .map(|(i, event)| JournalEntry {
                seq: i as u64,
                event,
            })
            .collect();
        let jsonl = to_jsonl(&entries).unwrap();
        assert_eq!(jsonl.lines().count(), entries.len());
        let back = parse_jsonl(&jsonl).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn kinds_name_every_variant() {
        assert_eq!(sample(0).kind(), "PredictionMiss");
        assert_eq!(
            DecisionEvent::DayExecuted {
                day: 0,
                trained: false,
                moved_transfers: 0,
                wrong_decisions: 0
            }
            .kind(),
            "DayExecuted"
        );
    }

    #[test]
    fn switched_off_journal_stays_empty() {
        let _g = crate::test_serial();
        crate::set_runtime_enabled(false);
        let mut j = Journal::new();
        j.emit(|| unreachable!("event must not be constructed when switched off"));
        crate::set_runtime_enabled(true);
        assert!(j.is_empty());
    }
}
