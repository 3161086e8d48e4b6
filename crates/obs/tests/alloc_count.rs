//! Proves the "zero overhead when disabled" contract with a counting
//! global allocator: building and emitting events and spans while
//! logging is off performs **zero heap allocations** — even when field
//! values would require conversion (e.g. `&str` → `String`), because
//! the builder defers `Into<FieldValue>` until the record is known to
//! be enabled.

use rsmem_obs::log::{event, span, trace_scope, Level};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn disabled_events_and_spans_allocate_nothing() {
    // Logging is never initialised in this test binary, so the fast
    // gate (one relaxed atomic load) must reject everything. Exercise
    // the trace machinery too: a disabled hot path may still run inside
    // a trace scope.
    let _trace = trace_scope(0x1234_5678);

    // Spans also double as profiler probes (PR 5) and flight-recorder
    // event pairs (PR 8). Neither is ever enabled in this binary, so
    // their gates — two more relaxed atomic loads inside `span_at` —
    // must not allocate either; the span loop below covers the combined
    // disabled path.
    assert!(!rsmem_obs::profile::is_enabled());
    assert!(!rsmem_obs::recorder::enabled());

    // Warm up thread-locals and lazy statics outside the measured region
    // (including the global time-series sampler's lazy cell).
    event(Level::Error, "warmup", "warmup")
        .field("k", 1u64)
        .emit();
    {
        let mut s = span("warmup", "warmup");
        s.record("k", 1u64);
    }
    rsmem_obs::timeseries::tick();
    assert!(!rsmem_obs::timeseries::global().enabled());

    let owned = String::from("pre-built so the &str path is the test");
    let before = allocations();

    for i in 0..1000u64 {
        event(Level::Error, "hot.path", "solve")
            .field("iteration", i)
            .field("ratio", 0.25f64)
            .field("flag", true)
            .field("label", owned.as_str())
            .emit();

        let mut s = span("hot.path", "solve");
        assert!(!s.active());
        s.record("items", i);
        s.record("name", owned.as_str());
        assert_eq!(s.elapsed_us(), None);

        // Profiler-side scope reads are thread-local Cell ops.
        let _ = rsmem_obs::profile::current_node();

        // Disabled recorder hooks must bail on the gate before touching
        // rings, interning or reservoirs — including the exemplar path,
        // whose builder closure must never run.
        rsmem_obs::recorder::record_event(
            rsmem_obs::recorder::RecordKind::Decode,
            "hot.path",
            "solve",
            i,
            0,
        );
        let kept = rsmem_obs::recorder::record_exemplar_with("decode-failure", || {
            panic!("exemplar builder must not run while disabled")
        });
        assert!(!kept);

        // The solver hot paths also carry time-series sampling points
        // (PR 10); with the global sampler disabled each is one relaxed
        // atomic load.
        rsmem_obs::timeseries::tick();
    }

    let after = allocations();
    assert_eq!(after - before, 0, "disabled events/spans must not allocate");
}
