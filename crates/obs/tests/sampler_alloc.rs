//! Proves the time-series sampler's steady-state cost contract with a
//! counting global allocator: once the ring is full, `sample_now`
//! overwrites the oldest slot in place — counters, gauges, closures and
//! histograms all land in reused buffers, so sampling performs **zero
//! heap allocations** no matter how long the process runs.
//!
//! (The fill phase legitimately allocates one fresh frame per slot;
//! only the steady state is gated.)

use rsmem_obs::timeseries::Sampler;
use rsmem_obs::{Counter, Gauge, Histogram};
use std::time::Duration;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn steady_state_sampling_allocates_nothing() {
    let capacity = 4;
    let sampler = Sampler::new(capacity, Duration::from_millis(1));
    let ops = Counter::standalone();
    let inflight = Gauge::standalone();
    let latency = Histogram::with_bounds(&[10, 100, 1_000, 10_000]);
    sampler.track_counter("ops", ops.clone());
    sampler.track_gauge("inflight", inflight.clone());
    sampler.track_histogram("latency_us", latency.clone());
    sampler.track_fn("load", || 0.5);
    sampler.set_enabled(true);

    // Fill the ring (plus one overwrite, so the in-place path has run
    // once and any lazily-grown slot buffer is at final size).
    for i in 0..=capacity as u64 {
        ops.inc();
        inflight.set(i as i64);
        latency.observe((i * 37 % 2_000) as f64);
        sampler.sample_now();
    }

    let before = allocations();
    let mut last_seq = 0;
    for i in 0..512u64 {
        ops.add(3);
        inflight.set((i % 7) as i64);
        latency.observe((i * 97 % 20_000) as f64);
        let seq = sampler.sample_now();
        assert!(seq > last_seq, "every forced sample must land a frame");
        last_seq = seq;
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state sampling must reuse ring-slot allocations"
    );

    // The ring really did rotate: only the newest `capacity` frames
    // remain, ending at the last sequence number.
    let history = sampler.history();
    assert_eq!(history.len(), capacity);
    assert_eq!(history.last().unwrap().seq, last_seq);
}

#[test]
fn disabled_tick_does_not_allocate() {
    // `tick()` is compiled into solver hot paths (ber_curve, MC shards,
    // stress sweeps); with the global sampler disabled it must cost one
    // relaxed load and nothing else. Warm the lazy global first.
    rsmem_obs::timeseries::tick();
    assert!(!rsmem_obs::timeseries::global().enabled());

    let before = allocations();
    for _ in 0..1_000 {
        rsmem_obs::timeseries::tick();
    }
    let after = allocations();
    assert_eq!(after - before, 0, "disabled tick must not allocate");
}
