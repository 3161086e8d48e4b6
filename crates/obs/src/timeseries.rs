//! Time-series telemetry: a fixed-capacity ring of periodic metric
//! samples, with windowed rates and quantiles derived from the deltas.
//!
//! The aggregates in [`crate::metrics`] are cumulative-since-startup;
//! the paper's questions are about *rates over time* (fault arrival vs.
//! scrub/decode recovery), and an operator watching a server needs
//! "requests per second now" and "p99 over the last minute", not
//! totals. A [`Sampler`] closes that gap: it tracks a fixed set of
//! named sources (counter/gauge/histogram handles or closures), copies
//! their values into a ring of frames at a configurable interval, and
//! serves windows of that ring as rates, quantiles, and canonical-JSON
//! `rsmem-metrics/1` frames (the service's `/debug/metrics/history`
//! and `/v1/stream/metrics` payloads, and `rsmem top`'s input).
//!
//! Cost discipline matches the rest of the crate:
//!
//! * **disabled**: [`Sampler::maybe_sample`] is one relaxed atomic load
//!   and zero heap allocations (gated by the counting-allocator test,
//!   like spans and the flight recorder);
//! * **enabled, off-interval**: a `try_lock` + one clock read — callers
//!   never block, contending tickers simply skip;
//! * **enabled, sampling**: values are written *in place* over the
//!   oldest ring slot, so once the ring has filled and the source list
//!   is stable, steady-state sampling performs **zero allocations**
//!   (histogram snapshots reuse their bucket vectors). Serialization
//!   to JSON allocates, but only on demand (a scrape or a stream), not
//!   per sample.
//!
//! Timestamps are monotonic microseconds since the sampler's creation,
//! taken from an injectable [`Clock`] — the same seam
//! [`crate::Progress`] uses, so throttling is deterministically
//! testable.

use crate::clock::{system_clock, Clock};
use crate::json::Value;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Schema tag of every serialized frame and history document.
pub const SCHEMA: &str = "rsmem-metrics/1";

/// Default ring capacity (frames) of the [`global`] sampler.
pub const DEFAULT_CAPACITY: usize = 256;

/// Default sampling interval of the [`global`] sampler.
const DEFAULT_INTERVAL: Duration = Duration::from_secs(1);

/// Where a tracked series reads its value from.
pub enum Source {
    /// A counter handle; serialized as a scalar, rates derived.
    Counter(Counter),
    /// A gauge handle; serialized as a scalar, no rate.
    Gauge(Gauge),
    /// A histogram handle; serialized as count/sum/quantiles.
    Histogram(Histogram),
    /// An arbitrary read — e.g. cache statistics owned by another
    /// subsystem. Treated like a counter (monotone, rates derived);
    /// the closure must not allocate if the zero-allocation
    /// steady-state contract is to hold.
    Fn(Box<dyn Fn() -> f64 + Send>),
}

/// One sampled value inside a ring slot.
#[derive(Debug, Clone, PartialEq)]
enum SlotValue {
    Scalar(f64),
    Histogram(HistogramSnapshot),
}

/// One ring slot: everything sampled at a single instant.
struct Frame {
    seq: u64,
    ts_us: u64,
    values: Vec<SlotValue>,
}

/// A read-only copy of one frame, for rendering and serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSnapshot {
    /// Monotone frame number (1-based; never reused within a sampler).
    pub seq: u64,
    /// Microseconds since the sampler was created.
    pub ts_us: u64,
    /// `(series name, value)` in tracking order.
    pub values: Vec<(String, FrameValue)>,
}

/// A sampled value in a [`FrameSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum FrameValue {
    /// A monotone reading (counter or closure); rates are derived.
    Scalar(f64),
    /// A gauge reading; level-valued, so no rate is derived.
    Gauge(f64),
    /// Full histogram state at the sample instant.
    Histogram(HistogramSnapshot),
}

impl FrameSnapshot {
    /// The scalar value of `name`, if tracked and scalar.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.values.iter().find_map(|(n, v)| match v {
            FrameValue::Scalar(s) | FrameValue::Gauge(s) if n == name => Some(*s),
            _ => None,
        })
    }

    /// The histogram snapshot of `name`, if tracked and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.values.iter().find_map(|(n, v)| match v {
            FrameValue::Histogram(h) if n == name => Some(h),
            _ => None,
        })
    }
}

struct Inner {
    clock: Clock,
    epoch: Instant,
    sources: Vec<(String, Source)>,
    /// Whether each source derives a rate (counters and closures do,
    /// gauges do not); parallel to `sources`.
    monotone: Vec<bool>,
    ring: Vec<Frame>,
    capacity: usize,
    /// Next ring slot to (over)write.
    head: usize,
    /// Frames currently held (`<= capacity`).
    len: usize,
    seq: u64,
    last_sample: Option<Instant>,
}

impl Inner {
    /// Oldest-to-newest iteration order over the ring.
    fn ordered(&self) -> impl Iterator<Item = &Frame> {
        let start = (self.head + self.capacity - self.len) % self.capacity;
        (0..self.len).map(move |i| &self.ring[(start + i) % self.capacity])
    }
}

/// A fixed-capacity time-series sampler. See the module docs for the
/// cost contract; see [`global`] for the process-wide instance the
/// service, bench harness and `rsmem top` share.
pub struct Sampler {
    enabled: AtomicBool,
    interval_us: AtomicU64,
    inner: Mutex<Inner>,
}

impl Sampler {
    /// A sampler holding up to `capacity` frames, sampling at most once
    /// per `interval`, reading the system clock.
    pub fn new(capacity: usize, interval: Duration) -> Sampler {
        Sampler::with_clock(capacity, interval, system_clock())
    }

    /// Like [`Sampler::new`] with an injected [`Clock`] — the
    /// deterministic-test seam shared with [`crate::Progress`].
    pub fn with_clock(capacity: usize, interval: Duration, mut clock: Clock) -> Sampler {
        let capacity = capacity.max(2);
        let epoch = clock();
        Sampler {
            enabled: AtomicBool::new(false),
            interval_us: AtomicU64::new(duration_us(interval)),
            inner: Mutex::new(Inner {
                clock,
                epoch,
                sources: Vec::new(),
                monotone: Vec::new(),
                ring: Vec::new(),
                capacity,
                head: 0,
                len: 0,
                seq: 0,
                last_sample: None,
            }),
        }
    }

    /// Turns sampling on or off. Off is the default; while off,
    /// [`Sampler::maybe_sample`] is one relaxed atomic load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether sampling is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Changes the sampling interval (takes effect on the next tick).
    pub fn set_interval(&self, interval: Duration) {
        self.interval_us
            .store(duration_us(interval), Ordering::Relaxed);
    }

    /// The current sampling interval.
    pub fn interval(&self) -> Duration {
        Duration::from_micros(self.interval_us.load(Ordering::Relaxed))
    }

    /// Tracks a counter under `name` (replacing any same-named source).
    pub fn track_counter(&self, name: &str, counter: Counter) {
        self.track(name, Source::Counter(counter));
    }

    /// Tracks a gauge under `name`.
    pub fn track_gauge(&self, name: &str, gauge: Gauge) {
        self.track(name, Source::Gauge(gauge));
    }

    /// Tracks a histogram under `name`.
    pub fn track_histogram(&self, name: &str, histogram: Histogram) {
        self.track(name, Source::Histogram(histogram));
    }

    /// Tracks a closure under `name`; see [`Source::Fn`].
    pub fn track_fn(&self, name: &str, read: impl Fn() -> f64 + Send + 'static) {
        self.track(name, Source::Fn(Box::new(read)));
    }

    /// Registers (or replaces) a source. Changing the source list mid
    /// run is allowed; existing frames keep their old shape and the
    /// next overwrite of each slot re-allocates it once.
    pub fn track(&self, name: &str, source: Source) {
        let monotone = matches!(source, Source::Counter(_) | Source::Fn(_));
        let mut inner = self.inner.lock().expect("sampler lock");
        if let Some(i) = inner.sources.iter().position(|(n, _)| n == name) {
            inner.sources[i].1 = source;
            inner.monotone[i] = monotone;
        } else {
            inner.sources.push((name.to_owned(), source));
            inner.monotone.push(monotone);
        }
    }

    /// The histogram handle tracked under `name`, if any — so the
    /// watchdog can link a latency breach to that histogram's
    /// trace-carrying exemplar.
    pub(crate) fn histogram_handle(&self, name: &str) -> Option<Histogram> {
        let inner = self.inner.lock().expect("sampler lock");
        inner.sources.iter().find_map(|(n, s)| match s {
            Source::Histogram(h) if n == name => Some(h.clone()),
            _ => None,
        })
    }

    /// Samples a frame if enabled and the interval has elapsed; returns
    /// whether a frame was recorded. This is the hook hot loops call
    /// (via [`tick`]): disabled it is a single relaxed atomic load, and
    /// it never blocks — if another thread holds the sampler it skips.
    pub fn maybe_sample(&self) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        let Ok(mut inner) = self.inner.try_lock() else {
            return false;
        };
        let now = (inner.clock)();
        let interval = Duration::from_micros(self.interval_us.load(Ordering::Relaxed));
        if let Some(last) = inner.last_sample {
            if now.duration_since(last) < interval {
                return false;
            }
        }
        sample_locked(&mut inner, now);
        true
    }

    /// Samples a frame right now regardless of interval or the enabled
    /// flag (the streaming endpoint drives its own cadence); returns
    /// the new frame's sequence number.
    pub fn sample_now(&self) -> u64 {
        let mut inner = self.inner.lock().expect("sampler lock");
        let now = (inner.clock)();
        sample_locked(&mut inner, now);
        inner.seq
    }

    /// Discards all frames (sources and configuration stay).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("sampler lock");
        inner.ring.clear();
        inner.head = 0;
        inner.len = 0;
        inner.last_sample = None;
    }

    /// All held frames, oldest first.
    pub fn history(&self) -> Vec<FrameSnapshot> {
        let inner = self.inner.lock().expect("sampler lock");
        inner.ordered().map(|f| snapshot_frame(&inner, f)).collect()
    }

    /// The most recent frame, if any.
    pub fn latest(&self) -> Option<FrameSnapshot> {
        let inner = self.inner.lock().expect("sampler lock");
        let mut last = None;
        for frame in inner.ordered() {
            last = Some(frame);
        }
        last.map(|f| snapshot_frame(&inner, f))
    }

    /// The last up-to-`window` frames, oldest first.
    pub fn window(&self, window: usize) -> Vec<FrameSnapshot> {
        let inner = self.inner.lock().expect("sampler lock");
        let skip = inner.len.saturating_sub(window);
        inner
            .ordered()
            .skip(skip)
            .map(|f| snapshot_frame(&inner, f))
            .collect()
    }

    /// Per-second rate of scalar series `name` over the last `window`
    /// frames (newest minus oldest, divided by the elapsed time).
    /// `None` without at least two frames or a matching scalar series.
    pub(crate) fn window_rate(&self, name: &str, window: usize) -> Option<f64> {
        let frames = self.window(window.max(2));
        let first = frames.first()?;
        let last = frames.last()?;
        if last.ts_us <= first.ts_us {
            return None;
        }
        let elapsed_s = (last.ts_us - first.ts_us) as f64 / 1e6;
        Some((last.scalar(name)? - first.scalar(name)?) / elapsed_s)
    }

    /// The distribution histogram `name` observed *within* the last
    /// `window` frames (newest snapshot minus oldest). With a single
    /// frame, the cumulative distribution up to that frame.
    pub(crate) fn window_histogram(&self, name: &str, window: usize) -> Option<HistogramSnapshot> {
        let frames = self.window(window.max(1));
        let last = frames.last()?.histogram(name)?;
        if frames.len() < 2 {
            return Some(last.clone());
        }
        let first = frames.first()?.histogram(name)?;
        Some(last.delta(first))
    }

    /// The full ring as one canonical-JSON `rsmem-metrics/1` document:
    /// `{"schema":…,"frames":[…]}` with per-frame rates derived from
    /// consecutive frames.
    pub fn history_json(&self) -> Value {
        let frames = self.history();
        let mut out = Vec::with_capacity(frames.len());
        let mut previous: Option<&FrameSnapshot> = None;
        for frame in &frames {
            out.push(frame_to_json(frame, previous));
            previous = Some(frame);
        }
        Value::object(vec![
            ("schema", Value::String(SCHEMA.into())),
            ("frames", Value::Array(out)),
        ])
    }

    /// The newest frame as one canonical-JSON `rsmem-metrics/1` frame,
    /// with rates derived against the frame before it.
    pub(crate) fn latest_json(&self) -> Option<Value> {
        let frames = self.window(2);
        let frame = frames.last()?;
        let previous = if frames.len() == 2 {
            frames.first()
        } else {
            None
        };
        Some(frame_to_json(frame, previous))
    }
}

/// Records one frame into the ring, reusing the overwritten slot's
/// allocations (the steady-state zero-allocation path).
fn sample_locked(inner: &mut Inner, now: Instant) {
    inner.seq += 1;
    inner.last_sample = Some(now);
    let seq = inner.seq;
    let ts_us = duration_us(now.duration_since(inner.epoch));
    if inner.len < inner.capacity {
        // Ring still filling: allocate a fresh frame.
        let values = inner
            .sources
            .iter()
            .map(|(_, source)| read_source(source))
            .collect();
        let head = inner.head;
        inner.ring.insert(head, Frame { seq, ts_us, values });
        inner.head = (inner.head + 1) % inner.capacity;
        inner.len += 1;
        return;
    }
    // Steady state: overwrite the oldest slot in place. Split the
    // borrow so sources (read) and the slot (written) can coexist.
    let head = inner.head;
    inner.head = (inner.head + 1) % inner.capacity;
    let Inner { sources, ring, .. } = inner;
    let slot = &mut ring[head];
    slot.seq = seq;
    slot.ts_us = ts_us;
    slot.values.truncate(sources.len());
    for (i, (_, source)) in sources.iter().enumerate() {
        match (slot.values.get_mut(i), source) {
            (Some(SlotValue::Histogram(snapshot)), Source::Histogram(h)) => {
                h.snapshot_into(snapshot);
            }
            (Some(SlotValue::Scalar(s)), src) if !matches!(src, Source::Histogram(_)) => {
                *s = read_scalar(src);
            }
            (Some(slot_value), src) => *slot_value = read_source(src),
            (None, src) => slot.values.push(read_source(src)),
        }
    }
}

fn read_source(source: &Source) -> SlotValue {
    match source {
        Source::Histogram(h) => SlotValue::Histogram(h.snapshot()),
        other => SlotValue::Scalar(read_scalar(other)),
    }
}

fn read_scalar(source: &Source) -> f64 {
    match source {
        Source::Counter(c) => c.get() as f64,
        Source::Gauge(g) => g.get() as f64,
        Source::Fn(f) => f(),
        Source::Histogram(_) => unreachable!("histograms snapshot, not scalar-read"),
    }
}

fn snapshot_frame(inner: &Inner, frame: &Frame) -> FrameSnapshot {
    FrameSnapshot {
        seq: frame.seq,
        ts_us: frame.ts_us,
        values: inner
            .sources
            .iter()
            .zip(inner.monotone.iter())
            .zip(frame.values.iter())
            .map(|(((name, _), monotone), value)| {
                let value = match value {
                    SlotValue::Scalar(s) if *monotone => FrameValue::Scalar(*s),
                    SlotValue::Scalar(s) => FrameValue::Gauge(*s),
                    SlotValue::Histogram(h) => FrameValue::Histogram(h.clone()),
                };
                (name.clone(), value)
            })
            .collect(),
    }
}

/// Serializes one frame as a canonical-JSON `rsmem-metrics/1` object.
/// Scalars land under `"scalars"`, per-second rates (vs. `previous`,
/// when given) under `"rates"`, histogram count/sum/p50/p90/p99 under
/// `"quantiles"`.
pub fn frame_to_json(frame: &FrameSnapshot, previous: Option<&FrameSnapshot>) -> Value {
    let mut scalars = Vec::new();
    let mut rates = Vec::new();
    let mut quantiles = Vec::new();
    let elapsed_s = previous
        .filter(|p| frame.ts_us > p.ts_us)
        .map(|p| (frame.ts_us - p.ts_us) as f64 / 1e6);
    for (name, value) in &frame.values {
        match value {
            FrameValue::Scalar(s) => {
                scalars.push((name.as_str(), Value::Number(*s)));
                if let (Some(elapsed_s), Some(previous)) = (elapsed_s, previous) {
                    if let Some(before) = previous.scalar(name) {
                        rates.push((name.as_str(), Value::Number((*s - before) / elapsed_s)));
                    }
                }
            }
            FrameValue::Gauge(s) => scalars.push((name.as_str(), Value::Number(*s))),
            FrameValue::Histogram(h) => {
                let current = match previous.and_then(|p| p.histogram(name)) {
                    Some(before) => h.delta(before),
                    None => h.clone(),
                };
                let q = |q: f64| Value::Number(current.quantile(q).unwrap_or(0.0));
                quantiles.push((
                    name.as_str(),
                    Value::object(vec![
                        ("count", Value::Number(current.count as f64)),
                        ("sum", Value::Number(current.sum)),
                        ("p50", q(0.5)),
                        ("p90", q(0.9)),
                        ("p99", q(0.99)),
                    ]),
                ));
            }
        }
    }
    Value::object(vec![
        ("schema", Value::String(SCHEMA.into())),
        ("seq", Value::Number(frame.seq as f64)),
        ("ts_us", Value::Number(frame.ts_us as f64)),
        ("scalars", Value::object(scalars)),
        ("rates", Value::object(rates)),
        ("quantiles", Value::object(quantiles)),
    ])
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The process-wide sampler shared by the bench harness and
/// `rsmem top`'s in-process mode (the service builds its own, with its
/// per-instance series). Created disabled with the default capacity
/// and interval.
pub fn global() -> &'static Sampler {
    static GLOBAL: OnceLock<Sampler> = OnceLock::new();
    GLOBAL.get_or_init(|| Sampler::new(DEFAULT_CAPACITY, DEFAULT_INTERVAL))
}

/// The hot-loop hook: `global().maybe_sample()`. Solver loops (sim
/// shards, stress iterations, experiment sweeps, service requests)
/// call this; when the global sampler is disabled — the default — it
/// costs one relaxed atomic load and performs no allocation.
pub fn tick() {
    global().maybe_sample();
}

/// Tracks the solver-level series most runs care about on `sampler`:
/// decode failures (summed over the `rs`/`rm`/`irs` families), Monte
/// Carlo silent corruptions and trials, and arbiter mismatches. Handles
/// are resolved eagerly in the [`crate::metrics::global`] registry
/// (creating zero-valued series if absent) so per-sample reads are
/// plain atomic loads.
pub fn track_solver_defaults(sampler: &Sampler) {
    let registry = crate::metrics::global();
    let failure = |family: &str| {
        registry.counter(
            "rsmem_decode_outcomes_total",
            &[("family", family), ("outcome", "failure")],
        )
    };
    let (rs, rm, irs) = (failure("rs"), failure("rm"), failure("irs"));
    sampler.track_fn("decode_failures", move || {
        (rs.get() + rm.get() + irs.get()) as f64
    });
    sampler.track_counter(
        "mc_silent",
        registry.counter("rsmem_solver_mc_outcomes_total", &[("outcome", "silent")]),
    );
    sampler.track_counter(
        "mc_trials",
        registry.counter("rsmem_solver_mc_trials_total", &[]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual_sampler(capacity: usize, interval: Duration) -> (ManualClock, Sampler) {
        let (control, clock) = ManualClock::new();
        (control, Sampler::with_clock(capacity, interval, clock))
    }

    #[test]
    fn disabled_sampler_records_nothing() {
        let (_clock, sampler) = manual_sampler(8, Duration::from_secs(1));
        sampler.track_counter("c", Counter::standalone());
        assert!(!sampler.maybe_sample());
        assert!(sampler.history().is_empty());
        assert!(sampler.latest().is_none());
    }

    /// The deterministic throttling test the shared clock abstraction
    /// exists for: sampling obeys the interval exactly, with no sleeps.
    #[test]
    fn sampling_is_throttled_by_the_injected_clock() {
        let (clock, sampler) = manual_sampler(8, Duration::from_secs(1));
        let c = Counter::standalone();
        sampler.track_counter("jobs", c.clone());
        sampler.set_enabled(true);

        assert!(sampler.maybe_sample(), "first tick samples immediately");
        c.add(10);
        assert!(!sampler.maybe_sample(), "same instant: throttled");
        clock.advance(Duration::from_millis(999));
        assert!(!sampler.maybe_sample(), "inside the interval: throttled");
        clock.advance(Duration::from_millis(1));
        assert!(sampler.maybe_sample(), "interval elapsed: sampled");
        c.add(20);
        clock.advance(Duration::from_secs(2));
        assert!(sampler.maybe_sample());

        let history = sampler.history();
        assert_eq!(history.len(), 3);
        assert_eq!(
            history.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(history[0].scalar("jobs"), Some(0.0));
        assert_eq!(history[1].scalar("jobs"), Some(10.0));
        assert_eq!(history[2].scalar("jobs"), Some(30.0));
        // 20 more jobs over exactly 2 seconds.
        assert_eq!(sampler.window_rate("jobs", 2), Some(10.0));
        // Over the whole window: 30 jobs in 3 seconds.
        assert_eq!(sampler.window_rate("jobs", 3), Some(10.0));
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let (clock, sampler) = manual_sampler(3, Duration::from_secs(1));
        sampler.track_counter("c", Counter::standalone());
        sampler.set_enabled(true);
        for _ in 0..5 {
            assert!(sampler.maybe_sample());
            clock.advance(Duration::from_secs(1));
        }
        let seqs: Vec<u64> = sampler.history().iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(sampler.latest().unwrap().seq, 5);
        sampler.clear();
        assert!(sampler.history().is_empty());
    }

    #[test]
    fn window_quantiles_use_the_delta_distribution() {
        let (clock, sampler) = manual_sampler(8, Duration::from_secs(1));
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        sampler.track_histogram("lat", h.clone());
        sampler.set_enabled(true);
        // Frame 1: all mass small.
        for _ in 0..100 {
            h.observe(5.0);
        }
        sampler.maybe_sample();
        clock.advance(Duration::from_secs(1));
        // Between frames: a burst of slow observations.
        for _ in 0..100 {
            h.observe(500.0);
        }
        sampler.maybe_sample();
        // Cumulative p99 mixes both; the windowed delta isolates the burst.
        let windowed = sampler
            .window_histogram("lat", 2)
            .unwrap()
            .quantile(0.5)
            .unwrap();
        assert!(
            (100.0..=1000.0).contains(&windowed),
            "window median {windowed} should sit in the burst bucket"
        );
        let cumulative = h.snapshot().quantile(0.5).unwrap();
        assert!(cumulative <= 100.0, "cumulative median {cumulative}");
    }

    #[test]
    fn frame_json_is_canonical_and_carries_rates_and_quantiles() {
        let (clock, sampler) = manual_sampler(8, Duration::from_secs(1));
        let c = Counter::standalone();
        let g = Gauge::standalone();
        let h = Histogram::with_bounds(&[10, 100]);
        sampler.track_counter("reqs", c.clone());
        sampler.track_gauge("inflight", g.clone());
        sampler.track_histogram("lat", h.clone());
        sampler.set_enabled(true);
        sampler.maybe_sample();
        c.add(30);
        g.set(2);
        h.observe(50.0);
        clock.advance(Duration::from_secs(2));
        sampler.maybe_sample();

        let frame = sampler.latest_json().unwrap();
        let encoded = frame.encode();
        // Canonical: parse → encode is a fixed point.
        assert_eq!(crate::json::parse(&encoded).unwrap().encode(), encoded);
        assert_eq!(frame.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(
            frame.get("scalars").unwrap().get("reqs").unwrap().as_f64(),
            Some(30.0)
        );
        assert_eq!(
            frame.get("rates").unwrap().get("reqs").unwrap().as_f64(),
            Some(15.0),
            "30 requests over 2 seconds"
        );
        // Gauges carry no rate.
        assert!(frame.get("rates").unwrap().get("inflight").is_none());
        let lat = frame.get("quantiles").unwrap().get("lat").unwrap();
        assert_eq!(lat.get("count").unwrap().as_f64(), Some(1.0));
        let p99 = lat.get("p99").unwrap().as_f64().unwrap();
        assert!((10.0..=100.0).contains(&p99), "p99 {p99}");

        let history = sampler.history_json();
        assert_eq!(history.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(history.get("frames").unwrap().as_array().unwrap().len(), 2);
        let doc = history.encode();
        assert_eq!(crate::json::parse(&doc).unwrap().encode(), doc);
    }

    #[test]
    fn global_sampler_tick_is_a_no_op_while_disabled() {
        // Other tests may enable the global sampler; this one only
        // asserts tick() does not panic and respects the flag shape.
        let sampler = global();
        let was = sampler.enabled();
        sampler.set_enabled(false);
        tick();
        sampler.set_enabled(was);
    }

    #[test]
    fn steady_state_overwrite_reuses_slot_shapes() {
        let (clock, sampler) = manual_sampler(2, Duration::from_secs(1));
        let h = Histogram::with_bounds(&[10]);
        sampler.track_histogram("lat", h.clone());
        sampler.track_counter("c", Counter::standalone());
        sampler.set_enabled(true);
        for i in 0..6 {
            h.observe((i * 7) as f64);
            assert!(sampler.maybe_sample());
            clock.advance(Duration::from_secs(1));
        }
        let history = sampler.history();
        assert_eq!(history.len(), 2);
        assert_eq!(history[1].histogram("lat").unwrap().count, 6);
        assert_eq!(history[0].histogram("lat").unwrap().count, 5);
    }
}
