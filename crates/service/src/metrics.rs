//! Plain-text service metrics: request counters by endpoint/status,
//! cache counters, an in-flight gauge, and per-endpoint latency
//! histograms. Rendered in the Prometheus text exposition format so any
//! scraper (or `curl`) can read it.
//!
//! Backed by the shared [`rsmem_obs::metrics::Registry`]. The service
//! keeps a **per-instance** registry for its HTTP families (so tests
//! can assert byte-exact renders regardless of what other code pushed
//! into the process-global registry); `/metrics` additionally appends
//! the global registry's solver-level series — see
//! `crate::render_metrics`.

use crate::cache::CacheStats;
use rsmem_obs::metrics::{Counter, Gauge, Histogram, Registry};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// Upper bounds of the latency histogram buckets, in microseconds. The
/// last implicit bucket is `+Inf`.
const LATENCY_BUCKETS_US: [u64; 7] = [100, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000];

/// The service's metrics registry. One instance is shared by every
/// worker; updates are atomic handle operations, with a short registry
/// lock only on first use of a new label combination.
pub struct Metrics {
    started: Instant,
    registry: Registry,
    uptime: Gauge,
    inflight: AtomicI64,
    inflight_gauge: Gauge,
    shed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_shared: Counter,
    cache_evictions: Counter,
    cache_entries: Gauge,
    cache_capacity: Gauge,
    /// Aggregate (label-free) handles for the time-series sampler.
    /// Standalone — not registered — so `/metrics` keeps its byte-stable
    /// shape while the sampler reads whole-service totals cheaply.
    sampled_requests: Counter,
    sampled_errors: Counter,
    sampled_latency: Histogram,
}

impl Metrics {
    /// A fresh registry. Families are declared here, in render order,
    /// so the exposition's shape is stable from the first scrape.
    pub fn new() -> Self {
        let registry = Registry::new();
        let uptime = registry.gauge("rsmem_uptime_seconds", &[]);
        registry.declare_counter("rsmem_requests_total");
        let inflight_gauge = registry.gauge("rsmem_requests_inflight", &[]);
        let shed = registry.counter("rsmem_connections_shed_total", &[]);
        let cache_hits = registry.counter("rsmem_cache_hits_total", &[]);
        let cache_misses = registry.counter("rsmem_cache_misses_total", &[]);
        let cache_shared = registry.counter("rsmem_cache_singleflight_shared_total", &[]);
        let cache_evictions = registry.counter("rsmem_cache_evictions_total", &[]);
        let cache_entries = registry.gauge("rsmem_cache_entries", &[]);
        let cache_capacity = registry.gauge("rsmem_cache_capacity", &[]);
        registry.declare_histogram("rsmem_request_duration_us");
        Metrics {
            started: Instant::now(),
            registry,
            uptime,
            inflight: AtomicI64::new(0),
            inflight_gauge,
            shed,
            cache_hits,
            cache_misses,
            cache_shared,
            cache_evictions,
            cache_entries,
            cache_capacity,
            sampled_requests: Counter::standalone(),
            sampled_errors: Counter::standalone(),
            sampled_latency: Histogram::with_bounds(&LATENCY_BUCKETS_US),
        }
    }

    /// Records one completed request.
    pub fn record_request(&self, endpoint: &'static str, status: u16, elapsed: Duration) {
        let status_text = status.to_string();
        self.registry
            .counter(
                "rsmem_requests_total",
                &[("endpoint", endpoint), ("status", &status_text)],
            )
            .inc();
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.registry
            .histogram(
                "rsmem_request_duration_us",
                &[("endpoint", endpoint)],
                &LATENCY_BUCKETS_US,
            )
            .observe(us as f64);
        self.sampled_requests.inc();
        if status >= 500 {
            self.sampled_errors.inc();
        }
        self.sampled_latency.observe(us as f64);
    }

    /// The aggregate request counter the time-series sampler tracks.
    pub fn sampled_requests(&self) -> Counter {
        self.sampled_requests.clone()
    }

    /// The aggregate 5xx counter the time-series sampler tracks.
    pub fn sampled_errors(&self) -> Counter {
        self.sampled_errors.clone()
    }

    /// The aggregate latency histogram the time-series sampler tracks
    /// (all endpoints, [`LATENCY_BUCKETS_US`] bounds).
    pub fn sampled_latency(&self) -> Histogram {
        self.sampled_latency.clone()
    }

    /// Marks a request as started; the guard decrements on drop.
    pub fn inflight_guard(&self) -> InflightGuard<'_> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        InflightGuard { metrics: self }
    }

    /// Current number of requests being handled.
    pub fn inflight(&self) -> i64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Records a connection shed with `503` because the backlog was full.
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    /// Total requests recorded for `endpoint` with `status`. A
    /// read-only query: never creates the series.
    #[cfg(test)]
    fn request_count(&self, endpoint: &'static str, status: u16) -> u64 {
        let status_text = status.to_string();
        self.registry
            .find_counter(
                "rsmem_requests_total",
                &[("endpoint", endpoint), ("status", &status_text)],
            )
            .map_or(0, |c| c.get())
    }

    /// Renders the registry (plus the cache counters) as Prometheus
    /// text. Gauge-style series whose truth lives elsewhere (uptime,
    /// in-flight, cache statistics) are refreshed into their registry
    /// handles just before rendering.
    pub fn render(&self, cache: CacheStats, cache_len: usize, cache_capacity: usize) -> String {
        self.refresh(cache, cache_len, cache_capacity);
        self.registry.render()
    }

    /// Like [`Metrics::render`] with OpenMetrics-style exemplar
    /// annotations on histogram bucket lines (the trace ID of the most
    /// recent max-bucket observation) — behind `/metrics?exemplars=1`
    /// so the default exposition stays byte-stable.
    pub fn render_with_exemplars(
        &self,
        cache: CacheStats,
        cache_len: usize,
        cache_capacity: usize,
    ) -> String {
        self.refresh(cache, cache_len, cache_capacity);
        self.registry.render_with_exemplars()
    }

    fn refresh(&self, cache: CacheStats, cache_len: usize, cache_capacity: usize) {
        self.uptime
            .set(i64::try_from(self.started.elapsed().as_secs()).unwrap_or(i64::MAX));
        self.inflight_gauge.set(self.inflight());
        self.cache_hits.set(cache.hits);
        self.cache_misses.set(cache.misses);
        self.cache_shared.set(cache.shared);
        self.cache_evictions.set(cache.evictions);
        self.cache_entries
            .set(i64::try_from(cache_len).unwrap_or(i64::MAX));
        self.cache_capacity
            .set(i64::try_from(cache_capacity).unwrap_or(i64::MAX));
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Decrements the in-flight gauge when dropped.
pub struct InflightGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_counters_accumulate_by_endpoint_and_status() {
        let m = Metrics::new();
        m.record_request("analyze", 200, Duration::from_micros(300));
        m.record_request("analyze", 200, Duration::from_micros(700));
        m.record_request("analyze", 400, Duration::from_micros(50));
        assert_eq!(m.request_count("analyze", 200), 2);
        assert_eq!(m.request_count("analyze", 400), 1);
        assert_eq!(m.request_count("experiment", 200), 0);
    }

    #[test]
    fn request_count_queries_do_not_grow_the_exposition() {
        let m = Metrics::new();
        let before = m.render(CacheStats::default(), 0, 0);
        assert_eq!(m.request_count("analyze", 200), 0);
        assert_eq!(m.render(CacheStats::default(), 0, 0), before);
    }

    #[test]
    fn inflight_gauge_tracks_guards() {
        let m = Metrics::new();
        assert_eq!(m.inflight(), 0);
        {
            let _a = m.inflight_guard();
            let _b = m.inflight_guard();
            assert_eq!(m.inflight(), 2);
        }
        assert_eq!(m.inflight(), 0);
    }

    #[test]
    fn render_includes_every_family() {
        let m = Metrics::new();
        m.record_request("analyze", 200, Duration::from_micros(300));
        m.record_shed();
        let text = m.render(
            CacheStats {
                hits: 3,
                misses: 1,
                shared: 2,
                evictions: 0,
            },
            1,
            128,
        );
        assert!(text.contains("rsmem_requests_total{endpoint=\"analyze\",status=\"200\"} 1"));
        assert!(text.contains("rsmem_cache_hits_total 3"));
        assert!(text.contains("rsmem_cache_singleflight_shared_total 2"));
        assert!(text.contains("rsmem_connections_shed_total 1"));
        assert!(text.contains("rsmem_requests_inflight 0"));
        assert!(text.contains("rsmem_cache_capacity 128"));
        assert!(
            text.contains("rsmem_request_duration_us_bucket{endpoint=\"analyze\",le=\"500\"} 1")
        );
        assert!(text.contains("rsmem_request_duration_us_count{endpoint=\"analyze\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let m = Metrics::new();
        m.record_request("x", 200, Duration::from_micros(50));
        m.record_request("x", 200, Duration::from_micros(400));
        m.record_request("x", 200, Duration::from_secs(10)); // overflow
        let text = m.render(CacheStats::default(), 0, 0);
        assert!(text.contains("rsmem_request_duration_us_bucket{endpoint=\"x\",le=\"100\"} 1"));
        assert!(text.contains("rsmem_request_duration_us_bucket{endpoint=\"x\",le=\"500\"} 2"));
        assert!(text.contains("rsmem_request_duration_us_bucket{endpoint=\"x\",le=\"+Inf\"} 3"));
    }

    /// Byte-exact snapshot of the exposition the pre-registry
    /// implementation produced, so the migration onto the shared
    /// registry cannot silently reorder, rename or reformat a series
    /// existing scrape configs depend on.
    #[test]
    fn render_is_byte_stable_against_the_legacy_snapshot() {
        let m = Metrics::new();
        m.record_request("analyze", 200, Duration::from_micros(300));
        m.record_request("analyze", 404, Duration::from_micros(40));
        m.record_request("experiment", 200, Duration::from_micros(2_000));
        m.record_shed();
        let text = m.render(
            CacheStats {
                hits: 5,
                misses: 2,
                shared: 1,
                evictions: 4,
            },
            3,
            64,
        );
        let mut lines = text.lines();
        // The uptime value depends on wall time; pin the family header
        // and value prefix, then compare everything after it verbatim.
        assert_eq!(lines.next(), Some("# TYPE rsmem_uptime_seconds gauge"));
        assert!(lines.next().unwrap().starts_with("rsmem_uptime_seconds "));
        let rest: Vec<&str> = lines.collect();
        let expected = "\
# TYPE rsmem_requests_total counter
rsmem_requests_total{endpoint=\"analyze\",status=\"200\"} 1
rsmem_requests_total{endpoint=\"analyze\",status=\"404\"} 1
rsmem_requests_total{endpoint=\"experiment\",status=\"200\"} 1
# TYPE rsmem_requests_inflight gauge
rsmem_requests_inflight 0
# TYPE rsmem_connections_shed_total counter
rsmem_connections_shed_total 1
# TYPE rsmem_cache_hits_total counter
rsmem_cache_hits_total 5
# TYPE rsmem_cache_misses_total counter
rsmem_cache_misses_total 2
# TYPE rsmem_cache_singleflight_shared_total counter
rsmem_cache_singleflight_shared_total 1
# TYPE rsmem_cache_evictions_total counter
rsmem_cache_evictions_total 4
# TYPE rsmem_cache_entries gauge
rsmem_cache_entries 3
# TYPE rsmem_cache_capacity gauge
rsmem_cache_capacity 64
# TYPE rsmem_request_duration_us histogram
rsmem_request_duration_us_bucket{endpoint=\"analyze\",le=\"100\"} 1
rsmem_request_duration_us_bucket{endpoint=\"analyze\",le=\"500\"} 2
rsmem_request_duration_us_bucket{endpoint=\"analyze\",le=\"1000\"} 2
rsmem_request_duration_us_bucket{endpoint=\"analyze\",le=\"5000\"} 2
rsmem_request_duration_us_bucket{endpoint=\"analyze\",le=\"25000\"} 2
rsmem_request_duration_us_bucket{endpoint=\"analyze\",le=\"100000\"} 2
rsmem_request_duration_us_bucket{endpoint=\"analyze\",le=\"1000000\"} 2
rsmem_request_duration_us_bucket{endpoint=\"analyze\",le=\"+Inf\"} 2
rsmem_request_duration_us_sum{endpoint=\"analyze\"} 340
rsmem_request_duration_us_count{endpoint=\"analyze\"} 2
rsmem_request_duration_us_bucket{endpoint=\"experiment\",le=\"100\"} 0
rsmem_request_duration_us_bucket{endpoint=\"experiment\",le=\"500\"} 0
rsmem_request_duration_us_bucket{endpoint=\"experiment\",le=\"1000\"} 0
rsmem_request_duration_us_bucket{endpoint=\"experiment\",le=\"5000\"} 1
rsmem_request_duration_us_bucket{endpoint=\"experiment\",le=\"25000\"} 1
rsmem_request_duration_us_bucket{endpoint=\"experiment\",le=\"100000\"} 1
rsmem_request_duration_us_bucket{endpoint=\"experiment\",le=\"1000000\"} 1
rsmem_request_duration_us_bucket{endpoint=\"experiment\",le=\"+Inf\"} 1
rsmem_request_duration_us_sum{endpoint=\"experiment\"} 2000
rsmem_request_duration_us_count{endpoint=\"experiment\"} 1";
        assert_eq!(rest.join("\n"), expected);
    }

    #[test]
    fn fresh_instance_renders_all_type_lines_with_no_series_noise() {
        let m = Metrics::new();
        let text = m.render(CacheStats::default(), 0, 8);
        // Declared-but-empty families still print their TYPE line.
        assert!(text.contains("# TYPE rsmem_requests_total counter\n# TYPE"));
        assert!(text.ends_with("# TYPE rsmem_request_duration_us histogram\n"));
    }
}
