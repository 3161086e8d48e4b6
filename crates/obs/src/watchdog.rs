//! Declarative SLO watchdogs over the time-series ring.
//!
//! A [`Watchdog`] holds a set of [`SloRule`]s — "p99 latency above
//! 100 ms", "decode failures above 5/s", "cache hit ratio below 10%" —
//! and evaluates them against a [`Sampler`]'s sliding window after each
//! new frame. Detection is **edge-triggered**: entering breach emits
//! one structured `slo_breach` warn event, increments
//! `rsmem_slo_breaches_total{rule}` in the global registry, and offers
//! a flight-recorder exemplar (for latency rules, stamped with the
//! trace ID of the histogram's max-bucket exemplar so the slow request
//! links straight to `rsmem trace` output); leaving breach emits one
//! `slo_recovered` info event. A rule that stays broken does not spam.
//!
//! The watchdog itself has no hot-path hook — it runs on whichever
//! thread drives sampling (the service's sampler thread, a test) — so
//! it needs no disabled-path discipline beyond the sampler's.

use crate::json::Value;
use crate::log::{event, Level};
use crate::metrics::Counter;
use crate::recorder::{self, Exemplar};
use crate::timeseries::Sampler;
use std::sync::Mutex;

/// How a rule turns a window of frames into a value to compare.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// `quantile(q)` of histogram series `series` over the window
    /// (delta distribution); breaches when **above** the threshold.
    QuantileAbove {
        /// Tracked histogram series name.
        series: &'static str,
        /// Quantile in `[0, 1]`, e.g. `0.99`.
        q: f64,
    },
    /// Per-second rate of scalar series `series` over the window;
    /// breaches when **above** the threshold.
    RateAbove {
        /// Tracked scalar (counter/closure) series name.
        series: &'static str,
    },
    /// `Δhits / (Δhits + Δmisses)` over the window; breaches when
    /// **below** the threshold. No verdict while both deltas are zero —
    /// an idle cache is not a broken cache.
    HitRatioBelow {
        /// Tracked hit-counter series name.
        hits: &'static str,
        /// Tracked miss-counter series name.
        misses: &'static str,
    },
}

/// One service-level objective, evaluated over a sliding window of
/// sampler frames.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Stable rule name — the `rule` label of
    /// `rsmem_slo_breaches_total` and the `rule` field of alert events.
    pub name: &'static str,
    /// What to measure.
    pub kind: RuleKind,
    /// Sliding window, in frames (clamped to ≥ 2 for deltas).
    pub window: usize,
    /// Breach threshold; the comparison direction is the kind's.
    pub threshold: f64,
}

/// An edge-triggered breach notification returned by
/// [`Watchdog::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The breached rule's name.
    pub rule: &'static str,
    /// The measured value that crossed the threshold.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
}

/// The SLO rules over the solver series that
/// [`crate::timeseries::track_solver_defaults`] tracks: they need no
/// serving layer, so the daemon and `rsmem top`'s wrap mode share them.
pub fn solver_slo_rules() -> Vec<SloRule> {
    vec![
        SloRule {
            name: "decode_failure_rate",
            kind: RuleKind::RateAbove {
                series: "decode_failures",
            },
            window: 5,
            threshold: 5.0,
        },
        SloRule {
            name: "mc_silent_rate",
            kind: RuleKind::RateAbove {
                series: "mc_silent",
            },
            window: 5,
            threshold: 0.5,
        },
    ]
}

struct RuleState {
    rule: SloRule,
    breaches: Counter,
    breached: bool,
}

/// A set of SLO rules with per-rule breach state. See the module docs.
pub struct Watchdog {
    states: Mutex<Vec<RuleState>>,
}

impl Watchdog {
    /// Builds a watchdog over `rules`, resolving each rule's
    /// `rsmem_slo_breaches_total{rule}` counter in the global registry
    /// up front (so `/metrics` shows every rule at `0` from startup).
    pub fn new(rules: Vec<SloRule>) -> Watchdog {
        let registry = crate::metrics::global();
        registry.declare_counter("rsmem_slo_breaches_total");
        let states = rules
            .into_iter()
            .map(|rule| RuleState {
                breaches: registry.counter("rsmem_slo_breaches_total", &[("rule", rule.name)]),
                breached: false,
                rule,
            })
            .collect();
        Watchdog {
            states: Mutex::new(states),
        }
    }

    /// Evaluates every rule against `sampler`'s current window and
    /// returns the rules that *entered* breach on this evaluation.
    /// Call after each new frame (re-evaluating an unchanged window is
    /// harmless — edges cannot re-fire).
    pub fn evaluate(&self, sampler: &Sampler) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let mut states = self.states.lock().expect("watchdog lock");
        for state in states.iter_mut() {
            let Some(value) = measure(&state.rule, sampler) else {
                continue; // not enough frames / idle: no verdict either way
            };
            let breach = match state.rule.kind {
                RuleKind::QuantileAbove { .. } | RuleKind::RateAbove { .. } => {
                    value > state.rule.threshold
                }
                RuleKind::HitRatioBelow { .. } => value < state.rule.threshold,
            };
            if breach && !state.breached {
                state.breached = true;
                state.breaches.inc();
                on_breach(&state.rule, value, sampler);
                alerts.push(Alert {
                    rule: state.rule.name,
                    value,
                    threshold: state.rule.threshold,
                });
            } else if !breach && state.breached {
                state.breached = false;
                event(Level::Info, "obs.watchdog", "slo_recovered")
                    .field("rule", state.rule.name)
                    .field("value", value)
                    .field("threshold", state.rule.threshold)
                    .emit();
            }
        }
        alerts
    }

    /// Names of the rules currently in breach.
    pub fn active(&self) -> Vec<&'static str> {
        self.states
            .lock()
            .expect("watchdog lock")
            .iter()
            .filter(|s| s.breached)
            .map(|s| s.rule.name)
            .collect()
    }

    /// Adds the names of the rules currently in breach to a frame or
    /// history document, under `"breaches"`.
    pub fn annotate(&self, mut doc: Value) -> Value {
        if let Value::Object(fields) = &mut doc {
            let breaches = self.active().into_iter().map(|r| Value::String(r.into()));
            fields.insert("breaches".into(), Value::Array(breaches.collect()));
        }
        doc
    }

    /// One live frame: forces a fresh sample, evaluates every rule over
    /// the new window, and returns the newest `rsmem-metrics/1` frame
    /// with its breaches; `None` when `sampler` holds no frame.
    pub fn frame(&self, sampler: &Sampler) -> Option<Value> {
        sampler.sample_now();
        self.evaluate(sampler);
        sampler.latest_json().map(|frame| self.annotate(frame))
    }
}

/// The rule's current measurement over the sampler window, if one can
/// be made.
fn measure(rule: &SloRule, sampler: &Sampler) -> Option<f64> {
    match &rule.kind {
        RuleKind::QuantileAbove { series, q } => {
            let window = sampler.window_histogram(series, rule.window)?;
            if window.count == 0 {
                return None; // no observations this window
            }
            window.quantile(*q)
        }
        RuleKind::RateAbove { series } => sampler.window_rate(series, rule.window),
        RuleKind::HitRatioBelow { hits, misses } => {
            let frames = sampler.window(rule.window.max(2));
            let (first, last) = (frames.first()?, frames.last()?);
            let delta_hits = last.scalar(hits)? - first.scalar(hits)?;
            let delta_misses = last.scalar(misses)? - first.scalar(misses)?;
            let total = delta_hits + delta_misses;
            if total <= 0.0 {
                return None;
            }
            Some(delta_hits / total)
        }
    }
}

/// One-time actions on entering breach: the warn event and the
/// flight-recorder exemplar.
fn on_breach(rule: &SloRule, value: f64, sampler: &Sampler) {
    event(Level::Warn, "obs.watchdog", "slo_breach")
        .field("rule", rule.name)
        .field("value", value)
        .field("threshold", rule.threshold)
        .emit();
    // Latency rules carry the offending request's trace: the sampled
    // histogram's exemplar is the most recent max-bucket observation,
    // i.e. (one of) the slow requests that caused the breach.
    let trace_id = match &rule.kind {
        RuleKind::QuantileAbove { series, .. } => sampler
            .histogram_handle(series)
            .and_then(|h| h.exemplar())
            .map_or(0, |e| e.trace_id),
        _ => 0,
    };
    let (name, threshold) = (rule.name, rule.threshold);
    recorder::record_exemplar_with("slo-breach", || Exemplar {
        code: name.to_owned(),
        trace_id,
        detail: format!("rule {name}: value {value} crossed threshold {threshold}"),
        ..Default::default()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::metrics::{Counter, Histogram};
    use std::time::Duration;

    fn manual_sampler() -> (ManualClock, Sampler) {
        let (control, clock) = ManualClock::new();
        (
            control,
            Sampler::with_clock(16, Duration::from_secs(1), clock),
        )
    }

    fn breaches(rule: &str) -> u64 {
        crate::metrics::global()
            .find_counter("rsmem_slo_breaches_total", &[("rule", rule)])
            .map_or(0, |c| c.get())
    }

    #[test]
    fn rate_rule_fires_once_per_burst_and_recovers() {
        let (clock, sampler) = manual_sampler();
        let failures = Counter::standalone();
        sampler.track_counter("failures", failures.clone());
        sampler.set_enabled(true);
        let watchdog = Watchdog::new(vec![SloRule {
            name: "wd_test_failure_rate",
            kind: RuleKind::RateAbove { series: "failures" },
            window: 3,
            threshold: 5.0,
        }]);

        sampler.maybe_sample();
        assert!(
            watchdog.evaluate(&sampler).is_empty(),
            "one frame: no verdict"
        );

        // A burst: 100 failures in one second → 100/s ≫ 5/s.
        failures.add(100);
        clock.advance(Duration::from_secs(1));
        sampler.maybe_sample();
        let alerts = watchdog.evaluate(&sampler);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "wd_test_failure_rate");
        assert!(alerts[0].value > 5.0);
        assert_eq!(breaches("wd_test_failure_rate"), 1);
        assert_eq!(watchdog.active(), vec!["wd_test_failure_rate"]);

        // Still breached next frame: edge-triggered, no second alert.
        failures.add(100);
        clock.advance(Duration::from_secs(1));
        sampler.maybe_sample();
        assert!(watchdog.evaluate(&sampler).is_empty());
        assert_eq!(breaches("wd_test_failure_rate"), 1);

        // The burst ends; the window drains and the rule recovers.
        for _ in 0..4 {
            clock.advance(Duration::from_secs(1));
            sampler.maybe_sample();
        }
        assert!(watchdog.evaluate(&sampler).is_empty());
        assert!(watchdog.active().is_empty(), "recovered after the burst");
        assert_eq!(breaches("wd_test_failure_rate"), 1);

        // A second burst is a new edge.
        failures.add(100);
        clock.advance(Duration::from_secs(1));
        sampler.maybe_sample();
        assert_eq!(watchdog.evaluate(&sampler).len(), 1);
        assert_eq!(breaches("wd_test_failure_rate"), 2);
    }

    #[test]
    fn quantile_rule_breaches_and_captures_a_trace_linked_exemplar() {
        // The recorder's tests reset its global exemplar store; hold
        // their lock so no reset lands between capture and snapshot.
        let _guard = crate::log::test_env_lock();
        let (clock, sampler) = manual_sampler();
        let latency = Histogram::with_bounds(&[100, 1_000, 100_000]);
        sampler.track_histogram("lat_us", latency.clone());
        sampler.set_enabled(true);
        let watchdog = Watchdog::new(vec![SloRule {
            name: "wd_test_latency_p99",
            kind: RuleKind::QuantileAbove {
                series: "lat_us",
                q: 0.99,
            },
            window: 3,
            threshold: 10_000.0,
        }]);

        let _recording = recorder::enable_scoped();
        sampler.maybe_sample();
        watchdog.evaluate(&sampler);
        // Slow observations under a trace: the histogram exemplar picks
        // up the trace ID, the breach exemplar links to it.
        {
            let _t = crate::log::trace_scope(0xD00F);
            for _ in 0..10 {
                latency.observe(90_000.0);
            }
        }
        clock.advance(Duration::from_secs(1));
        sampler.maybe_sample();
        let alerts = watchdog.evaluate(&sampler);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].value > 10_000.0);

        // Other watchdog tests may breach their own rules meanwhile: pick
        // this rule's exemplar by name.
        let snapshot = recorder::snapshot();
        let exemplar = snapshot
            .exemplars
            .iter()
            .find(|e| e.kind == "slo-breach" && e.code == "wd_test_latency_p99")
            .expect("breach exemplar captured");
        assert_eq!(exemplar.trace_id, 0xD00F, "linked to the slow trace");
        assert!(exemplar.detail.contains("crossed threshold"));
    }

    #[test]
    fn hit_ratio_rule_ignores_idle_windows() {
        let (clock, sampler) = manual_sampler();
        let (hits, misses) = (Counter::standalone(), Counter::standalone());
        sampler.track_counter("hits", hits.clone());
        sampler.track_counter("misses", misses.clone());
        sampler.set_enabled(true);
        let watchdog = Watchdog::new(vec![SloRule {
            name: "wd_test_hit_ratio",
            kind: RuleKind::HitRatioBelow {
                hits: "hits",
                misses: "misses",
            },
            window: 4,
            threshold: 0.5,
        }]);

        // Idle frames: no lookups, no verdict, no breach.
        for _ in 0..3 {
            sampler.maybe_sample();
            clock.advance(Duration::from_secs(1));
            assert!(watchdog.evaluate(&sampler).is_empty());
        }
        // A miss-heavy window breaches.
        misses.add(9);
        hits.add(1);
        sampler.maybe_sample();
        let alerts = watchdog.evaluate(&sampler);
        assert_eq!(alerts.len(), 1);
        assert!((alerts[0].value - 0.1).abs() < 1e-9);
    }
}
