//! Declarative SLO alerting over the metrics-history store.
//!
//! An [`AlertRule`] watches one recorded series with one of three
//! conditions — a latest-value **threshold**, sample **absence**, or a
//! two-window **burn rate** — and an [`AlertEngine`] evaluates the rule
//! set on every sampler tick with Prometheus-style state transitions:
//!
//! ```text
//! inactive ──breach──▶ pending ──for_samples breaches──▶ firing
//!     ▲                   │                                 │
//!     └────no breach──────┘◀────────no breach (resolve)─────┘
//! ```
//!
//! Crossing into firing emits a typed
//! [`DecisionEvent::AlertFiring`](crate::DecisionEvent) journal event;
//! leaving it emits `AlertResolved`. The engine publishes the count of
//! firing rules as the `alerts_firing` gauge, and any firing
//! page-severity rule folds into `/healthz` as a 503.
//!
//! ## Rule grammar
//!
//! One rule per spec, `;`-separated in CLI flags:
//!
//! ```text
//! spec      := name ':' body (':' modifier)*
//! body      := metric ('<' | '>') number          — threshold
//!            | 'absent(' metric [',' stale_secs] ')'  — absence
//!            | 'burn(' metric ',' short_secs ',' long_secs ',' per_sec ')'
//! modifier  := 'for=' samples | 'sev=' ('warn' | 'page')
//! ```
//!
//! Examples: `saving-floor:fleet_saving_ratio<0.2:for=3:sev=page`,
//! `drops:burn(journal_dropped_total,60,300,0.5)`,
//! `stall:absent(hub_members_per_sec,30)`.

use crate::store::MetricStore;
use crate::{DecisionEvent, Journal, JournalEntry};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Default consecutive breaching samples before pending turns firing.
pub const DEFAULT_FOR_SAMPLES: u32 = 1;

/// Default absence staleness window, seconds.
pub const DEFAULT_STALE_SECS: f64 = 30.0;

/// How loud a firing rule is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Visible on `/alerts` only.
    Warn,
    /// Additionally degrades `/healthz` to 503 while firing.
    Page,
}

impl Severity {
    fn tag(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Page => "page",
        }
    }
}

/// What a rule checks against its series.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Latest sample `<` (below=true) or `>` the bound.
    Threshold {
        /// `true` for `<`, `false` for `>`.
        below: bool,
        /// The bound.
        value: f64,
    },
    /// No sample recorded within the staleness window.
    Absence {
        /// Seconds without a sample before the series counts absent.
        stale_secs: f64,
    },
    /// Counter burn rate: the per-second increase exceeds `per_sec`
    /// over *both* the short and the long window (the classic
    /// two-window guard against alerting on a lone spike or on old
    /// history).
    BurnRate {
        /// Short (fast) window, seconds.
        short_secs: f64,
        /// Long (slow) window, seconds.
        long_secs: f64,
        /// Firing threshold, units per second.
        per_sec: f64,
    },
}

/// One declarative alert rule over a recorded series.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name (journal events and `/alerts` rows carry it).
    pub name: String,
    /// Recorded series to watch.
    pub metric: String,
    /// Condition on that series.
    pub condition: Condition,
    /// Consecutive breaching samples before pending turns firing.
    pub for_samples: u32,
    /// Severity while firing.
    pub severity: Severity,
}

impl AlertRule {
    /// Parses one rule spec (see the module-level grammar).
    pub fn parse(spec: &str) -> Result<AlertRule, String> {
        let bad = |why: &str| format!("bad alert rule {spec:?}: {why}");
        let mut fields = spec.split(':');
        let name = fields
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| bad("expected `name:body`"))?;
        let body = fields
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| bad("missing condition body"))?;
        let (metric, condition) = parse_body(body).map_err(|e| bad(&e))?;
        let mut rule = AlertRule {
            name: name.to_owned(),
            metric,
            condition,
            for_samples: DEFAULT_FOR_SAMPLES,
            severity: Severity::Warn,
        };
        for m in fields {
            if let Some(n) = m.strip_prefix("for=") {
                rule.for_samples = n
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("for= needs a positive integer"))?;
            } else if let Some(s) = m.strip_prefix("sev=") {
                rule.severity = match s {
                    "warn" => Severity::Warn,
                    "page" => Severity::Page,
                    _ => return Err(bad("sev= must be warn or page")),
                };
            } else {
                return Err(bad(&format!("unknown modifier {m:?}")));
            }
        }
        Ok(rule)
    }

    /// Parses a `;`-separated list of rule specs (blanks skipped).
    pub fn parse_list(specs: &str) -> Result<Vec<AlertRule>, String> {
        specs
            .split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(AlertRule::parse)
            .collect()
    }
}

fn parse_body(body: &str) -> Result<(String, Condition), String> {
    if let Some(args) = body
        .strip_prefix("absent(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let mut parts = args.split(',').map(str::trim);
        let metric = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or("absent() needs a metric")?;
        let stale_secs = match parts.next() {
            None => DEFAULT_STALE_SECS,
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|v| *v > 0.0)
                .ok_or("absent() staleness must be positive seconds")?,
        };
        if parts.next().is_some() {
            return Err("absent() takes at most two arguments".into());
        }
        return Ok((metric.to_owned(), Condition::Absence { stale_secs }));
    }
    if let Some(args) = body.strip_prefix("burn(").and_then(|s| s.strip_suffix(')')) {
        let parts: Vec<&str> = args.split(',').map(str::trim).collect();
        let [metric, short, long, per_sec] = parts[..] else {
            return Err("burn() needs (metric, short_secs, long_secs, per_sec)".into());
        };
        let num = |s: &str, what: &str| {
            s.parse::<f64>()
                .ok()
                .filter(|v| *v > 0.0)
                .ok_or(format!("burn() {what} must be positive"))
        };
        let short_secs = num(short, "short window")?;
        let long_secs = num(long, "long window")?;
        if long_secs <= short_secs {
            return Err("burn() long window must exceed the short window".into());
        }
        return Ok((
            metric.to_owned(),
            Condition::BurnRate {
                short_secs,
                long_secs,
                per_sec: per_sec
                    .parse::<f64>()
                    .map_err(|_| "burn() rate must be a number".to_owned())?,
            },
        ));
    }
    for (i, below) in [(body.find('<'), true), (body.find('>'), false)] {
        if let Some(i) = i {
            let metric = body[..i].trim();
            if metric.is_empty() {
                return Err("threshold needs a metric on the left".into());
            }
            let value = body[i + 1..]
                .trim()
                .parse::<f64>()
                .map_err(|_| "threshold bound must be a number".to_owned())?;
            return Ok((metric.to_owned(), Condition::Threshold { below, value }));
        }
    }
    Err("expected `metric<v`, `metric>v`, `absent(...)`, or `burn(...)`".into())
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Inactive,
    Pending { breaches: u32 },
    Firing { since_ms: u64 },
}

/// One rule's public state on `/alerts`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertStatus {
    /// Rule name.
    pub rule: String,
    /// Watched series.
    pub metric: String,
    /// `warn` or `page`.
    pub severity: String,
    /// `inactive`, `pending`, or `firing`.
    pub state: String,
    /// Consecutive breaching samples so far.
    pub breaches: u32,
    /// When the rule entered firing (ms), while firing.
    pub since_ms: Option<u64>,
    /// The value last evaluated (absent for never-evaluated rules).
    pub value: Option<f64>,
}

/// The `/alerts` response document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertsReport {
    /// Rules currently firing.
    pub firing: u64,
    /// `true` when any firing rule has page severity.
    pub page_firing: bool,
    /// Every rule's state.
    pub alerts: Vec<AlertStatus>,
}

struct EngineState {
    phases: Vec<Phase>,
    breaches: Vec<u32>,
    last_values: Vec<Option<f64>>,
    journal: Journal,
}

/// Evaluates a fixed rule set against a [`MetricStore`] on every
/// sampler tick. Interior-mutable: one `Arc<AlertEngine>` serves the
/// sampler (writes) and the scrape server (reads) concurrently.
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    state: Mutex<EngineState>,
}

impl AlertEngine {
    /// An engine over `rules` (order is the `/alerts` display order).
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        let n = rules.len();
        AlertEngine {
            rules,
            state: Mutex::new(EngineState {
                phases: vec![Phase::Inactive; n],
                breaches: vec![0; n],
                last_values: vec![None; n],
                journal: Journal::new(),
            }),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs one evaluation pass at `now_ms` against the store,
    /// advancing every rule's state machine and emitting journal
    /// events on firing/resolve transitions. Publishes the firing
    /// count as the `alerts_firing` gauge.
    pub fn evaluate(&self, store: &MetricStore, now_ms: u64) {
        let mut st = self.lock();
        for (i, rule) in self.rules.iter().enumerate() {
            let (breach, value) = check(rule, store, now_ms);
            st.last_values[i] = value;
            let phase = st.phases[i];
            let next = match (phase, breach) {
                (Phase::Inactive, false) => Phase::Inactive,
                (Phase::Inactive, true) | (Phase::Pending { .. }, true) => {
                    let breaches = match phase {
                        Phase::Pending { breaches } => breaches + 1,
                        _ => 1,
                    };
                    if breaches >= rule.for_samples {
                        st.journal.emit(|| DecisionEvent::AlertFiring {
                            rule: rule.name.clone(),
                            metric: rule.metric.clone(),
                            severity: rule.severity.tag().to_owned(),
                            value: value.unwrap_or(f64::NAN),
                            at_ms: now_ms,
                        });
                        Phase::Firing { since_ms: now_ms }
                    } else {
                        Phase::Pending { breaches }
                    }
                }
                (Phase::Pending { .. }, false) => Phase::Inactive,
                (Phase::Firing { since_ms }, true) => Phase::Firing { since_ms },
                (Phase::Firing { since_ms }, false) => {
                    st.journal.emit(|| DecisionEvent::AlertResolved {
                        rule: rule.name.clone(),
                        metric: rule.metric.clone(),
                        firing_secs: now_ms.saturating_sub(since_ms) as f64 / 1000.0,
                        at_ms: now_ms,
                    });
                    Phase::Inactive
                }
            };
            st.breaches[i] = match next {
                Phase::Inactive => 0,
                Phase::Pending { breaches } => breaches,
                Phase::Firing { .. } => st.breaches[i].max(rule.for_samples),
            };
            st.phases[i] = next;
        }
        let firing = st
            .phases
            .iter()
            .filter(|p| matches!(p, Phase::Firing { .. }))
            .count();
        drop(st);
        crate::gauge_set(crate::names::ALERTS_FIRING, firing as f64);
    }

    /// Rules currently firing.
    pub fn firing(&self) -> u64 {
        self.lock()
            .phases
            .iter()
            .filter(|p| matches!(p, Phase::Firing { .. }))
            .count() as u64
    }

    /// `true` while any page-severity rule is firing (`/healthz` folds
    /// this into a 503).
    pub fn page_firing(&self) -> bool {
        let st = self.lock();
        self.rules
            .iter()
            .zip(&st.phases)
            .any(|(r, p)| r.severity == Severity::Page && matches!(p, Phase::Firing { .. }))
    }

    /// The `/alerts` document.
    pub fn report(&self) -> AlertsReport {
        let st = self.lock();
        let alerts = self
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| AlertStatus {
                rule: r.name.clone(),
                metric: r.metric.clone(),
                severity: r.severity.tag().to_owned(),
                state: match st.phases[i] {
                    Phase::Inactive => "inactive",
                    Phase::Pending { .. } => "pending",
                    Phase::Firing { .. } => "firing",
                }
                .to_owned(),
                breaches: st.breaches[i],
                since_ms: match st.phases[i] {
                    Phase::Firing { since_ms } => Some(since_ms),
                    _ => None,
                },
                value: st.last_values[i],
            })
            .collect();
        AlertsReport {
            firing: st
                .phases
                .iter()
                .filter(|p| matches!(p, Phase::Firing { .. }))
                .count() as u64,
            page_firing: self
                .rules
                .iter()
                .zip(&st.phases)
                .any(|(r, p)| r.severity == Severity::Page && matches!(p, Phase::Firing { .. })),
            alerts,
        }
    }

    /// Drains transition events accumulated since the last drain.
    pub fn drain_journal(&self) -> Vec<JournalEntry> {
        self.lock().journal.drain()
    }

    /// Drained transition events rendered as JSONL ("" when none, or
    /// when serialization fails).
    pub fn drain_journal_jsonl(&self) -> String {
        let entries = self.drain_journal();
        if entries.is_empty() {
            return String::new();
        }
        crate::to_jsonl(&entries).unwrap_or_default()
    }
}

/// One rule check: `(breaching, observed value)`.
fn check(rule: &AlertRule, store: &MetricStore, now_ms: u64) -> (bool, Option<f64>) {
    match &rule.condition {
        Condition::Threshold { below, value } => match store.last_value(&rule.metric) {
            Some(v) => ((*below && v < *value) || (!*below && v > *value), Some(v)),
            None => (false, None),
        },
        Condition::Absence { stale_secs } => {
            let horizon = now_ms.saturating_sub((stale_secs * 1000.0) as u64);
            let last = store.last_sample_ms(&rule.metric);
            (last.is_none_or(|t| t < horizon), last.map(|t| t as f64))
        }
        Condition::BurnRate {
            short_secs,
            long_secs,
            per_sec,
        } => {
            let window = |secs: f64| {
                store.rate(
                    &rule.metric,
                    now_ms.saturating_sub((secs * 1000.0) as u64),
                    now_ms,
                )
            };
            let short = window(*short_secs);
            let long = window(*long_secs);
            match (short, long) {
                (Some(s), Some(l)) => (s >= *per_sec && l >= *per_sec, Some(s)),
                _ => (false, short.or(long)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreOptions;
    use crate::{CounterSnap, GaugeSnap, Snapshot};

    fn snap(counter: u64, gauge: f64) -> Snapshot {
        Snapshot {
            counters: vec![CounterSnap {
                name: "t_alert_total".to_owned(),
                value: counter,
            }],
            gauges: vec![GaugeSnap {
                name: "t_alert_gauge".to_owned(),
                value: gauge,
            }],
            histograms: Vec::new(),
        }
    }

    #[test]
    fn grammar_parses_every_condition() {
        let r = AlertRule::parse("floor:t_alert_gauge<0.2:for=3:sev=page").unwrap();
        assert_eq!(r.name, "floor");
        assert_eq!(r.metric, "t_alert_gauge");
        assert_eq!(
            r.condition,
            Condition::Threshold {
                below: true,
                value: 0.2
            }
        );
        assert_eq!(r.for_samples, 3);
        assert_eq!(r.severity, Severity::Page);

        let r = AlertRule::parse("spike:t_alert_total>100").unwrap();
        assert_eq!(
            r.condition,
            Condition::Threshold {
                below: false,
                value: 100.0
            }
        );
        assert_eq!((r.for_samples, r.severity), (1, Severity::Warn));

        let r = AlertRule::parse("stall:absent(t_alert_gauge,15)").unwrap();
        assert_eq!(r.condition, Condition::Absence { stale_secs: 15.0 });
        let r = AlertRule::parse("stall:absent(t_alert_gauge)").unwrap();
        assert_eq!(
            r.condition,
            Condition::Absence {
                stale_secs: DEFAULT_STALE_SECS
            }
        );

        let r = AlertRule::parse("drops:burn(t_alert_total,60,300,0.5)").unwrap();
        assert_eq!(
            r.condition,
            Condition::BurnRate {
                short_secs: 60.0,
                long_secs: 300.0,
                per_sec: 0.5
            }
        );

        let list = AlertRule::parse_list("a:t_alert_gauge<1; b:t_alert_total>2 ;; ").unwrap();
        assert_eq!(list.len(), 2);

        for bad in [
            "",
            "noname",
            "x:",
            "x:metric=5",
            "x:t<notanumber",
            "x:absent()",
            "x:burn(m,60,30,1)",
            "x:t_alert_gauge<1:for=0",
            "x:t_alert_gauge<1:sev=loud",
            "x:t_alert_gauge<1:whatever",
        ] {
            assert!(AlertRule::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn threshold_walks_pending_firing_resolved() {
        let _g = crate::test_serial();
        crate::reset();
        let store = MetricStore::new(StoreOptions::default());
        let engine = AlertEngine::new(vec![AlertRule::parse(
            "floor:t_alert_gauge<0.5:for=2:sev=page",
        )
        .unwrap()]);

        // Healthy sample: inactive.
        store.sample_at(1000, &snap(0, 0.9));
        engine.evaluate(&store, 1000);
        assert_eq!(engine.report().alerts[0].state, "inactive");
        assert!(!engine.page_firing());

        // First breach: pending, not yet firing (for=2).
        store.sample_at(2000, &snap(0, 0.1));
        engine.evaluate(&store, 2000);
        let s = engine.report();
        assert_eq!(s.alerts[0].state, "pending");
        assert_eq!(s.alerts[0].breaches, 1);
        assert_eq!(s.firing, 0);
        assert!(engine.drain_journal().is_empty());

        // Second consecutive breach: firing + journal event + gauge.
        store.sample_at(3000, &snap(0, 0.2));
        engine.evaluate(&store, 3000);
        let s = engine.report();
        assert_eq!(s.alerts[0].state, "firing");
        assert_eq!(s.alerts[0].since_ms, Some(3000));
        assert!(s.page_firing);
        assert_eq!(engine.firing(), 1);
        assert!(engine.page_firing());
        assert_eq!(
            crate::snapshot().gauge(crate::names::ALERTS_FIRING),
            Some(1.0)
        );
        let events = engine.drain_journal();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event.kind(), "AlertFiring");

        // Recovery: resolved event, back to inactive, gauge drops.
        store.sample_at(9000, &snap(0, 0.8));
        engine.evaluate(&store, 9000);
        assert_eq!(engine.report().alerts[0].state, "inactive");
        assert!(!engine.page_firing());
        let events = engine.drain_journal();
        assert_eq!(events.len(), 1);
        match &events[0].event {
            DecisionEvent::AlertResolved { firing_secs, .. } => {
                assert!((firing_secs - 6.0).abs() < 1e-9)
            }
            other => panic!("expected AlertResolved, got {other:?}"),
        }
        assert_eq!(
            crate::snapshot().gauge(crate::names::ALERTS_FIRING),
            Some(0.0)
        );
        crate::reset();
    }

    #[test]
    fn pending_resets_on_recovery() {
        let _g = crate::test_serial();
        crate::reset();
        let store = MetricStore::new(StoreOptions::default());
        let engine = AlertEngine::new(vec![AlertRule::parse("f:t_alert_gauge<0.5:for=3").unwrap()]);
        for (t, v) in [(1000u64, 0.1f64), (2000, 0.2), (3000, 0.9), (4000, 0.1)] {
            store.sample_at(t, &snap(0, v));
            engine.evaluate(&store, t);
        }
        // The healthy sample at t=3000 reset the streak.
        let s = engine.report();
        assert_eq!(s.alerts[0].state, "pending");
        assert_eq!(s.alerts[0].breaches, 1);
        assert_eq!(s.firing, 0);
        crate::reset();
    }

    #[test]
    fn absence_and_burn_rate_fire() {
        let _g = crate::test_serial();
        crate::reset();
        let store = MetricStore::new(StoreOptions::default());
        let engine = AlertEngine::new(vec![
            AlertRule::parse("stale:absent(t_alert_gauge,5)").unwrap(),
            AlertRule::parse("burn:burn(t_alert_total,10,30,2):sev=page").unwrap(),
            AlertRule::parse("ghost:absent(never_recorded_total,5)").unwrap(),
        ]);
        // Counter burning at 5/s for 40 s; gauge sampled throughout.
        for i in 0..41u64 {
            store.sample_at(i * 1000, &snap(i * 5, 1.0));
        }
        engine.evaluate(&store, 40_000);
        let s = engine.report();
        assert_eq!(s.alerts[0].state, "inactive", "gauge is fresh");
        assert_eq!(s.alerts[1].state, "firing", "burn rate 5/s > 2/s");
        assert_eq!(s.alerts[2].state, "firing", "missing series is absent");
        assert!(s.page_firing);

        // 20 s later with no new samples the gauge goes stale; the burn
        // windows now hold a single sample and stop breaching.
        engine.evaluate(&store, 60_000);
        let s = engine.report();
        assert_eq!(s.alerts[0].state, "firing", "stale gauge fires absence");
        assert_eq!(s.alerts[1].state, "inactive");
        crate::reset();
    }

    #[test]
    fn report_serializes_to_json() {
        let engine = AlertEngine::new(vec![AlertRule::parse("f:t_alert_gauge<0.5").unwrap()]);
        let json = serde_json::to_string(&engine.report()).unwrap();
        let back: AlertsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.alerts.len(), 1);
        assert_eq!(back.alerts[0].state, "inactive");
        assert!(!back.page_firing);
    }
}
