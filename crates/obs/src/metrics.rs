//! Counters, gauges and histograms with Prometheus text rendering.
//!
//! A [`Registry`] owns an insertion-ordered list of metric *families*
//! (one `# TYPE` line each); each family holds metrics keyed by their
//! encoded label string, kept sorted so rendering is deterministic.
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-wrapped
//! atomics: updating one never touches the registry lock, so hot solver
//! loops pay a single atomic RMW per observation and nothing more. A
//! counter spreads its value over cache-line-padded per-thread slots,
//! so parallel workers bumping the same counter never contend for one
//! cache line; reading it sums the slots.
//!
//! The [`global`] registry collects solver-level series
//! (`rsmem_solver_*`, `rsmem_arbiter_*`); `rsmem-service` renders it
//! after its own per-instance HTTP registry so `GET /metrics` exposes
//! both side by side.
//!
//! Label values are escaped per the Prometheus text exposition format:
//! `\` → `\\`, `"` → `\"`, newline → `\n`.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-thread slots each [`Counter`] spreads its value over.
const COUNTER_SLOTS: usize = 8;

/// One counter slot, alone on its cache line.
#[derive(Default)]
#[repr(align(64))]
struct Slot(AtomicU64);

/// This thread's counter slot, handed out round-robin on first use, so
/// up to [`COUNTER_SLOTS`] concurrent threads each update their own.
fn slot_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SLOTS);
        }
        slot.get()
    })
}

/// A monotonically increasing counter (also usable as a bridge for
/// externally maintained totals via [`Counter::set`]).
///
/// Updates go to the calling thread's slot; [`Counter::get`] sums the
/// slots.
#[derive(Clone)]
pub struct Counter(Arc<[Slot; COUNTER_SLOTS]>);

impl Counter {
    fn new() -> Counter {
        Counter(Arc::new(std::array::from_fn(|_| Slot::default())))
    }

    /// A counter owned by no registry. The time-series sampler tracks
    /// aggregate series (e.g. "all requests" across endpoints) that
    /// deliberately stay out of the `/metrics` exposition; standalone
    /// handles keep those updates identical to registry handles.
    pub fn standalone() -> Counter {
        Counter::new()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0[slot_index()].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` — hot loops batch locally and add once per shard.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0[slot_index()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Overwrites the value. For mirroring a total maintained elsewhere
    /// (e.g. cache statistics) into the exposition; not for hot paths,
    /// and not concurrently with updates from other threads.
    pub fn set(&self, value: u64) {
        for (i, slot) in self.0.iter().enumerate() {
            slot.0
                .store(if i == 0 { value } else { 0 }, Ordering::Relaxed);
        }
    }

    /// Current value: the sum of the slots.
    pub fn get(&self) -> u64 {
        self.0.iter().fold(0, |sum, slot| {
            sum.wrapping_add(slot.0.load(Ordering::Relaxed))
        })
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge owned by no registry; see [`Counter::standalone`].
    pub fn standalone() -> Gauge {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Overwrites the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram. Buckets are non-cumulative internally and
/// rendered cumulatively (`le="..."` + `+Inf`) per Prometheus.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

struct HistogramCore {
    /// Upper bounds, strictly increasing; the overflow bucket is implicit.
    bounds: Vec<u64>,
    /// One slot per bound plus the overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum as `f64` bits, updated by compare-exchange.
    sum_bits: AtomicU64,
    /// OpenMetrics-style exemplar of the most recent observation that
    /// landed in the highest bucket seen so far: bucket index **plus
    /// one** (0 = none yet), the trace ID active when it was observed,
    /// and the observed value's bits. The three stores are independent
    /// relaxed atomics — a concurrent reader can see a torn triple. The
    /// exemplar is a forensic hint linking a slow request to its trace,
    /// not an invariant, so that race is accepted.
    exemplar_bucket: AtomicU64,
    exemplar_trace: AtomicU64,
    exemplar_value_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[u64]) -> HistogramCore {
        HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            exemplar_bucket: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
            exemplar_value_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// The trace-linked exemplar a [`Histogram`] carries: its most recent
/// observation in the highest bucket seen so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketExemplar {
    /// Non-cumulative bucket index (`bounds.len()` = the `+Inf` bucket).
    pub bucket: usize,
    /// The trace ID active when the observation was recorded.
    pub trace_id: u64,
    /// The observed value.
    pub value: f64,
}

/// A point-in-time copy of a histogram's state, cheap to diff and to
/// estimate quantiles from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite upper bounds (the overflow bucket is implicit).
    pub bounds: Vec<u64>,
    /// Non-cumulative counts, one per bound plus the overflow slot.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation inside the bucket holding the target rank — the
    /// same estimate `histogram_quantile` would produce from the
    /// rendered exposition.
    ///
    /// The open-ended `+Inf` bucket has no upper edge to interpolate
    /// toward, so a rank landing there clamps to the largest finite
    /// bound instead of extrapolating. Returns `None` for an empty
    /// histogram (or one with no finite buckets).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.buckets.iter().enumerate() {
            let before = cumulative;
            cumulative += bucket_count;
            if cumulative as f64 >= rank && bucket_count > 0 {
                if i >= self.bounds.len() {
                    return Some(*self.bounds.last()? as f64);
                }
                let upper = self.bounds[i] as f64;
                let lower = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                let fraction = ((rank - before as f64) / bucket_count as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * fraction);
            }
        }
        // Torn concurrent snapshot (count ahead of bucket stores): fall
        // back to the largest finite bound.
        self.bounds.last().map(|&b| b as f64)
    }

    /// The distribution observed *since* `earlier` — per-bucket
    /// saturating differences. Both snapshots must come from the same
    /// histogram (identical bounds).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        debug_assert_eq!(
            self.bounds, earlier.bounds,
            "snapshots of the same histogram"
        );
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum - earlier.sum,
        }
    }
}

impl Histogram {
    /// A histogram owned by no registry; see [`Counter::standalone`].
    /// `bounds` must be strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram(Arc::new(HistogramCore::new(bounds)))
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let core = &*self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| value <= b as f64)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut current = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match core.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        // Keep the exemplar pointing at the most recent observation in
        // the highest bucket seen so far, but only when a trace is
        // active — an exemplar exists to link back to trace output.
        if let Some(trace) = crate::log::current_trace_id() {
            let tag = idx as u64 + 1;
            if tag >= core.exemplar_bucket.load(Ordering::Relaxed) {
                core.exemplar_trace.store(trace, Ordering::Relaxed);
                core.exemplar_value_bits
                    .store(value.to_bits(), Ordering::Relaxed);
                core.exemplar_bucket.store(tag, Ordering::Relaxed);
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// A point-in-time copy of bounds, bucket counts, count and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        self.snapshot_into(&mut out);
        out
    }

    /// Like [`Histogram::snapshot`] but reusing `out`'s allocations —
    /// after the first call with a given histogram, refreshing the same
    /// snapshot performs no heap allocation (the sampler's steady-state
    /// contract).
    pub(crate) fn snapshot_into(&self, out: &mut HistogramSnapshot) {
        let core = &*self.0;
        if out.bounds != core.bounds {
            out.bounds.clear();
            out.bounds.extend_from_slice(&core.bounds);
        }
        out.buckets.clear();
        out.buckets
            .extend(core.buckets.iter().map(|b| b.load(Ordering::Relaxed)));
        out.count = core.count.load(Ordering::Relaxed);
        out.sum = f64::from_bits(core.sum_bits.load(Ordering::Relaxed));
    }

    /// The current exemplar, if any observation was made under an
    /// active trace. See [`BucketExemplar`] for the (accepted) torn-read
    /// caveat.
    pub fn exemplar(&self) -> Option<BucketExemplar> {
        let tag = self.0.exemplar_bucket.load(Ordering::Relaxed);
        if tag == 0 {
            return None;
        }
        Some(BucketExemplar {
            bucket: (tag - 1) as usize,
            trace_id: self.0.exemplar_trace.load(Ordering::Relaxed),
            value: f64::from_bits(self.0.exemplar_value_bits.load(Ordering::Relaxed)),
        })
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Kind tag used for the `# TYPE` line and registration checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

struct Family {
    name: String,
    kind: Kind,
    /// `(encoded_label_string, metric)`, sorted by the label string.
    metrics: Vec<(String, Metric)>,
}

/// An insertion-ordered collection of metric families.
///
/// The service holds a per-instance registry for its HTTP series (so
/// snapshot tests stay deterministic); solver crates publish to the
/// process-wide [`global`] registry.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Declares a family without creating any metric, so it renders its
    /// `# TYPE` line even while empty (stable exposition from startup).
    pub fn declare_counter(&self, name: &str) {
        self.declare(name, Kind::Counter);
    }

    /// See [`Registry::declare_counter`].
    pub fn declare_histogram(&self, name: &str) {
        self.declare(name, Kind::Histogram);
    }

    fn declare(&self, name: &str, kind: Kind) {
        let mut families = self.families.lock().expect("metrics registry lock");
        if let Some(family) = families.iter().find(|f| f.name == name) {
            assert_eq!(
                family.kind, kind,
                "metric family {name:?} re-declared with a different type"
            );
            return;
        }
        families.push(Family {
            name: name.to_owned(),
            kind,
            metrics: Vec::new(),
        });
    }

    /// Returns the counter for `name` + `labels`, creating both the
    /// family and the metric on first use. The handle is cheap to clone
    /// and callers should cache it outside hot loops.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, Kind::Counter, labels, || {
            Metric::Counter(Counter::new())
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Returns the gauge for `name` + `labels`; see [`Registry::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, Kind::Gauge, labels, || {
            Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0))))
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Returns the histogram for `name` + `labels` with the given
    /// strictly increasing integer bucket bounds. Bounds are fixed at
    /// first creation; later calls reuse the existing buckets.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        match self.get_or_insert(name, Kind::Histogram, labels, || {
            Metric::Histogram(Histogram(Arc::new(HistogramCore::new(bounds))))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Returns the counter for `name` + `labels` only if it already
    /// exists — unlike [`Registry::counter`] this never creates the
    /// metric, so read-side queries cannot grow the exposition.
    pub fn find_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<Counter> {
        let encoded = encode_labels(labels);
        let families = self.families.lock().expect("metrics registry lock");
        let family = families.iter().find(|f| f.name == name)?;
        let i = family
            .metrics
            .binary_search_by(|(k, _)| k.cmp(&encoded))
            .ok()?;
        match &family.metrics[i].1 {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        }
    }

    /// Returns the histogram for `name` + `labels` only if it already
    /// exists; the histogram sibling of [`Registry::find_counter`].
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        let encoded = encode_labels(labels);
        let families = self.families.lock().expect("metrics registry lock");
        let family = families.iter().find(|f| f.name == name)?;
        let i = family
            .metrics
            .binary_search_by(|(k, _)| k.cmp(&encoded))
            .ok()?;
        match &family.metrics[i].1 {
            Metric::Histogram(h) => Some(h.clone()),
            _ => None,
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let encoded = encode_labels(labels);
        let mut families = self.families.lock().expect("metrics registry lock");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                families.push(Family {
                    name: name.to_owned(),
                    kind,
                    metrics: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        assert_eq!(
            family.kind, kind,
            "metric family {name:?} used with a different type"
        );
        match family.metrics.binary_search_by(|(k, _)| k.cmp(&encoded)) {
            Ok(i) => clone_metric(&family.metrics[i].1),
            Err(i) => {
                let metric = make();
                let handle = clone_metric(&metric);
                family.metrics.insert(i, (encoded, metric));
                handle
            }
        }
    }

    /// Renders every family in the Prometheus text exposition format:
    /// families in declaration order, metrics within a family sorted by
    /// label string, histograms with cumulative `le` buckets.
    pub fn render(&self) -> String {
        self.render_opts(false)
    }

    /// Like [`Registry::render`] but additionally annotating histogram
    /// bucket lines with their [`BucketExemplar`] in OpenMetrics style
    /// (`… # {trace_id="…"} value`). Off by default — appending the
    /// annotation changes bucket lines, and the plain exposition is
    /// byte-stable for existing scrapers.
    pub fn render_with_exemplars(&self) -> String {
        self.render_opts(true)
    }

    fn render_opts(&self, exemplars: bool) -> String {
        let mut out = String::new();
        let families = self.families.lock().expect("metrics registry lock");
        for family in families.iter() {
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for (labels, metric) in &family.metrics {
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", family.name, labels, c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", family.name, labels, g.get());
                    }
                    Metric::Histogram(h) => {
                        render_histogram(&mut out, &family.name, labels, h, exemplars);
                    }
                }
            }
        }
        out
    }
}

fn clone_metric(metric: &Metric) -> Metric {
    match metric {
        Metric::Counter(c) => Metric::Counter(c.clone()),
        Metric::Gauge(g) => Metric::Gauge(g.clone()),
        Metric::Histogram(h) => Metric::Histogram(h.clone()),
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram, exemplars: bool) {
    let core = &*h.0;
    let exemplar = if exemplars { h.exemplar() } else { None };
    let annotate = |out: &mut String, bucket: usize| {
        if let Some(e) = &exemplar {
            if e.bucket == bucket {
                let _ = write!(
                    out,
                    " # {{trace_id=\"{}\"}} {}",
                    crate::log::format_trace_id(e.trace_id),
                    format_float(e.value)
                );
            }
        }
    };
    let mut cumulative = 0u64;
    for (i, bound) in core.bounds.iter().enumerate() {
        cumulative += core.buckets[i].load(Ordering::Relaxed);
        let _ = write!(
            out,
            "{name}_bucket{} {cumulative}",
            with_label(labels, "le", &bound.to_string())
        );
        annotate(out, i);
        out.push('\n');
    }
    cumulative += core.buckets[core.bounds.len()].load(Ordering::Relaxed);
    let _ = write!(
        out,
        "{name}_bucket{} {cumulative}",
        with_label(labels, "le", "+Inf")
    );
    annotate(out, core.bounds.len());
    out.push('\n');
    let _ = writeln!(out, "{name}_sum{labels} {}", format_float(h.sum()));
    let _ = writeln!(out, "{name}_count{labels} {}", h.count());
}

/// Formats a histogram sum: integral values print without a fraction so
/// integer-valued observations render as Prometheus integers.
fn format_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Encodes a label set as `{k1="v1",k2="v2"}` (empty string for no
/// labels), escaping values per the Prometheus text format.
fn encode_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{}\"", escape_label_value(value));
    }
    out.push('}');
    out
}

/// Inserts one more label into an already-encoded label string —
/// `""` + `le`/`5` → `{le="5"}`, `{a="b"}` + `le`/`5` → `{a="b",le="5"}`.
fn with_label(encoded: &str, key: &str, value: &str) -> String {
    let escaped = escape_label_value(value);
    if encoded.is_empty() {
        format!("{{{key}=\"{escaped}\"}}")
    } else {
        let inner = &encoded[..encoded.len() - 1]; // drop trailing '}'
        format!("{inner},{key}=\"{escaped}\"}}")
    }
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
pub(crate) fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// The process-wide registry solver crates publish to.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The build identity baked in at compile time: `(version, git_hash)`.
/// The hash comes from `git rev-parse --short=12 HEAD` in the crate's
/// build script; `"unknown"` when building outside a git checkout.
pub fn build_info() -> (&'static str, &'static str) {
    (env!("CARGO_PKG_VERSION"), env!("RSMEM_GIT_HASH"))
}

/// Registers the conventional `rsmem_build_info` gauge — constant `1`
/// with the build identity as labels — so any `/metrics` scrape (and
/// the bench harness, which reads [`build_info`] directly) can tell
/// which build produced the numbers.
pub fn register_build_info(registry: &Registry) {
    let (version, git_hash) = build_info();
    registry
        .gauge(
            "rsmem_build_info",
            &[("git_hash", git_hash), ("version", version)],
        )
        .set(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_info_gauge_identifies_the_build() {
        let (version, git_hash) = build_info();
        assert!(!version.is_empty());
        assert!(!git_hash.is_empty());
        let r = Registry::new();
        register_build_info(&r);
        let text = r.render();
        assert!(text.contains("# TYPE rsmem_build_info gauge"), "{text}");
        assert!(
            text.contains(&format!(
                "rsmem_build_info{{git_hash=\"{git_hash}\",version=\"{version}\"}} 1"
            )),
            "{text}"
        );
    }

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("jobs_total", &[]);
        c.inc();
        c.add(4);
        c.add(0);
        assert_eq!(c.get(), 5);
        let g = r.gauge("depth", &[]);
        g.inc();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
        let text = r.render();
        assert!(text.contains("# TYPE jobs_total counter\njobs_total 5\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth -3\n"));
    }

    #[test]
    fn handles_are_shared_per_label_set() {
        let r = Registry::new();
        let a = r.counter("hits", &[("kind", "x")]);
        let b = r.counter("hits", &[("kind", "x")]);
        let other = r.counter("hits", &[("kind", "y")]);
        a.inc();
        b.inc();
        other.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(other.get(), 1);
    }

    #[test]
    fn counter_slots_sum_across_threads_and_set_replaces_them() {
        let c = Counter::standalone();
        std::thread::scope(|scope| {
            for t in 0..(2 * COUNTER_SLOTS as u64) {
                let c = &c;
                scope.spawn(move || {
                    c.inc();
                    c.add(t);
                });
            }
        });
        let n = 2 * COUNTER_SLOTS as u64;
        assert_eq!(c.get(), n + n * (n - 1) / 2);
        assert!(
            c.0.iter()
                .filter(|s| s.0.load(Ordering::Relaxed) > 0)
                .count()
                > 1,
            "threads spread over slots"
        );
        c.set(5);
        assert_eq!(c.get(), 5);
        c.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn families_render_in_declaration_order_metrics_sorted() {
        let r = Registry::new();
        r.declare_counter("zeta_total");
        r.declare_counter("alpha_total");
        r.counter("zeta_total", &[("s", "200")]).inc();
        r.counter("zeta_total", &[("s", "104")]).add(2);
        let text = r.render();
        let zeta = text.find("# TYPE zeta_total").unwrap();
        let alpha = text.find("# TYPE alpha_total").unwrap();
        assert!(zeta < alpha, "declaration order, not alphabetical");
        let l104 = text.find("zeta_total{s=\"104\"} 2").unwrap();
        let l200 = text.find("zeta_total{s=\"200\"} 1").unwrap();
        assert!(l104 < l200, "label-sorted within family");
    }

    #[test]
    fn declared_empty_family_still_renders_type_line() {
        let r = Registry::new();
        r.declare_histogram("latency_us");
        assert_eq!(r.render(), "# TYPE latency_us histogram\n");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("terms", &[], &[10, 100, 1000]);
        h.observe(5.0);
        h.observe(50.0);
        h.observe(50.0);
        h.observe(5000.0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5105.0);
        let text = r.render();
        assert!(text.contains("terms_bucket{le=\"10\"} 1\n"), "{text}");
        assert!(text.contains("terms_bucket{le=\"100\"} 3\n"), "{text}");
        assert!(text.contains("terms_bucket{le=\"1000\"} 3\n"), "{text}");
        assert!(text.contains("terms_bucket{le=\"+Inf\"} 4\n"), "{text}");
        assert!(text.contains("terms_sum 5105\n"), "{text}");
        assert!(text.contains("terms_count 4\n"), "{text}");
    }

    #[test]
    fn histogram_le_label_appends_to_existing_labels() {
        let r = Registry::new();
        let h = r.histogram("dur", &[("op", "solve")], &[1]);
        h.observe(0.5);
        let text = r.render();
        assert!(
            text.contains("dur_bucket{op=\"solve\",le=\"1\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("dur_sum{op=\"solve\"} 0.5\n"), "{text}");
        assert!(text.contains("dur_count{op=\"solve\"} 1\n"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("evil_total", &[("path", "a\\b\"c\nd")]).inc();
        let text = r.render();
        assert!(
            text.contains("evil_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn escape_label_value_covers_all_specials() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("back\\slash"), "back\\\\slash");
        assert_eq!(escape_label_value("qu\"ote"), "qu\\\"ote");
        assert_eq!(escape_label_value("new\nline"), "new\\nline");
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("thing", &[]);
        r.gauge("thing", &[]);
    }

    #[test]
    fn registry_is_thread_safe_under_contention() {
        let r = Registry::new();
        let threads = 8;
        let per_thread = 1000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let r = &r;
                scope.spawn(move || {
                    let c = r.counter("contended_total", &[]);
                    let h = r.histogram("contended_hist", &[], &[10, 100]);
                    let label = if t % 2 == 0 { "even" } else { "odd" };
                    let labelled = r.counter("split_total", &[("side", label)]);
                    for i in 0..per_thread {
                        c.inc();
                        labelled.inc();
                        h.observe((i % 150) as f64);
                    }
                });
            }
        });
        let c = r.counter("contended_total", &[]);
        assert_eq!(c.get(), threads as u64 * per_thread);
        let h = r.histogram("contended_hist", &[], &[10, 100]);
        assert_eq!(h.count(), threads as u64 * per_thread);
        let even = r.counter("split_total", &[("side", "even")]);
        let odd = r.counter("split_total", &[("side", "odd")]);
        assert_eq!(even.get() + odd.get(), threads as u64 * per_thread);
        // Sum must equal the exact sum of observations (CAS loop is lossless).
        let expected: f64 = (0..per_thread).map(|i| (i % 150) as f64).sum::<f64>() * threads as f64;
        assert_eq!(h.sum(), expected);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global().counter("obs_selftest_total", &[]);
        let b = global().counter("obs_selftest_total", &[]);
        a.inc();
        assert_eq!(b.get(), a.get());
    }

    #[test]
    fn find_histogram_is_read_only_and_kind_checked() {
        let r = Registry::new();
        assert!(r.find_histogram("lat_us", &[]).is_none());
        let h = r.histogram("lat_us", &[("op", "x")], &[10, 100]);
        h.observe(5.0);
        let found = r.find_histogram("lat_us", &[("op", "x")]).unwrap();
        assert_eq!(found.count(), 1);
        assert!(r.find_histogram("lat_us", &[("op", "y")]).is_none());
        r.counter("a_counter", &[]);
        assert!(r.find_histogram("a_counter", &[]).is_none());
    }

    /// Quantile estimates never decrease as `q` increases — for an
    /// assortment of mass placements including the overflow bucket.
    #[test]
    fn quantile_is_monotonic_in_q() {
        let bounds = [10u64, 100, 1_000, 10_000];
        let distributions: &[&[f64]] = &[
            &[1.0, 5.0, 50.0, 500.0, 5_000.0, 50_000.0],
            &[7.0; 10],
            &[50_000.0, 60_000.0, 1.0],
            &[9.0, 11.0, 99.0, 101.0, 999.0, 1_001.0, 9_999.0, 10_001.0],
        ];
        for observations in distributions {
            let h = Histogram::with_bounds(&bounds);
            for &v in *observations {
                h.observe(v);
            }
            let snap = h.snapshot();
            let mut previous = f64::NEG_INFINITY;
            for i in 0..=100 {
                let q = i as f64 / 100.0;
                let estimate = snap.quantile(q).unwrap();
                assert!(
                    estimate >= previous,
                    "quantile({q}) = {estimate} < quantile at previous q = {previous} \
                     for {observations:?}"
                );
                previous = estimate;
            }
        }
    }

    /// With every observation in one bucket, each quantile stays inside
    /// that bucket's edges, and the extremes hit them exactly.
    #[test]
    fn quantile_is_exact_on_single_bucket_mass() {
        let bounds = [10u64, 100, 1_000];
        let h = Histogram::with_bounds(&bounds);
        for _ in 0..25 {
            h.observe(40.0); // all mass in (10, 100]
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), Some(10.0), "q=0 is the lower edge");
        assert_eq!(snap.quantile(1.0), Some(100.0), "q=1 is the upper edge");
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let estimate = snap.quantile(q).unwrap();
            assert!(
                (10.0..=100.0).contains(&estimate),
                "quantile({q}) = {estimate}"
            );
        }
        // Interpolation is linear in rank within the bucket.
        assert_eq!(snap.quantile(0.5), Some(55.0));
    }

    /// Every estimate is bounded by the histogram's finite bucket edges
    /// regardless of where the mass sits.
    #[test]
    fn quantile_is_bounded_by_bucket_edges() {
        let bounds = [5u64, 50, 500];
        let h = Histogram::with_bounds(&bounds);
        for v in [1.0, 2.0, 30.0, 400.0, 1_000.0, 100_000.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let estimate = snap.quantile(q).unwrap();
            assert!(
                (0.0..=500.0).contains(&estimate),
                "quantile({q}) = {estimate} escaped the bucket edges"
            );
        }
    }

    /// The open-ended `+Inf` bucket clamps to the largest finite bound
    /// instead of extrapolating past it (the interpolation fix).
    #[test]
    fn quantile_in_overflow_bucket_clamps_to_last_finite_bound() {
        let bounds = [10u64, 100];
        let h = Histogram::with_bounds(&bounds);
        h.observe(1e9);
        h.observe(2e9); // all mass in +Inf
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), Some(100.0), "q={q}");
        }
        // Empty histogram: no estimate at all.
        assert_eq!(
            Histogram::with_bounds(&bounds).snapshot().quantile(0.5),
            None
        );
    }

    #[test]
    fn snapshot_delta_subtracts_per_bucket() {
        let h = Histogram::with_bounds(&[10, 100]);
        h.observe(5.0);
        let earlier = h.snapshot();
        h.observe(50.0);
        h.observe(500.0);
        let delta = h.snapshot().delta(&earlier);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.buckets, vec![0, 1, 1]);
        assert_eq!(delta.sum, 550.0);
        // Refreshing into an existing snapshot reuses its buffers.
        let mut reused = earlier;
        h.snapshot_into(&mut reused);
        assert_eq!(reused, h.snapshot());
    }

    #[test]
    fn exemplar_tracks_most_recent_max_bucket_observation_under_trace() {
        let h = Histogram::with_bounds(&[10, 100]);
        h.observe(5.0);
        assert!(h.exemplar().is_none(), "no trace active: no exemplar");
        {
            let _t = crate::log::trace_scope(0xABCD);
            h.observe(50.0);
        }
        let e = h.exemplar().unwrap();
        assert_eq!((e.bucket, e.trace_id, e.value), (1, 0xABCD, 50.0));
        {
            let _t = crate::log::trace_scope(0xBEEF);
            h.observe(60.0); // same bucket, more recent: replaces
        }
        let e = h.exemplar().unwrap();
        assert_eq!((e.bucket, e.trace_id, e.value), (1, 0xBEEF, 60.0));
        {
            let _t = crate::log::trace_scope(0xF00D);
            h.observe(7.0); // lower bucket: kept out
        }
        assert_eq!(h.exemplar().unwrap().trace_id, 0xBEEF);
    }

    #[test]
    fn render_with_exemplars_annotates_only_the_exemplar_bucket() {
        let r = Registry::new();
        let h = r.histogram("lat_us", &[], &[10, 100]);
        h.observe(5.0);
        {
            let _t = crate::log::trace_scope(1);
            h.observe(40.0);
        }
        let plain = r.render();
        assert!(
            !plain.contains('#') || !plain.contains("trace_id"),
            "{plain}"
        );
        let annotated = r.render_with_exemplars();
        assert!(
            annotated.contains(&format!(
                "lat_us_bucket{{le=\"100\"}} 2 # {{trace_id=\"{}\"}} 40",
                crate::log::format_trace_id(1)
            )),
            "{annotated}"
        );
        assert!(
            annotated.contains("lat_us_bucket{le=\"10\"} 1\n"),
            "{annotated}"
        );
    }
}
