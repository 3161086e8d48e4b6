//! Pins that Monte-Carlo scrubs allocate nothing: a warm serial duplex
//! campaign allocates no more with a scrub every 90 s than with one
//! every 900 s.
//!
//! Periodic scrubs draw no randomness, so both campaigns inject the same
//! faults at the same instants and end on the same erasure sets; they
//! differ only in which scrubs (masking, two decodes, rewrite) run. A
//! scrub runs only on a word-pair that a fault has touched since a scrub
//! last left it a fixed point. The 90 s campaign reaches each fault
//! sooner, so it repairs more (the `correct` assertion below) and runs
//! more scrubs that do work. Any per-scrub allocation therefore shows up
//! as a higher count at 90 s. The counting allocator is per thread, so the campaign
//! runs on the test thread (`threads = 1`).

use rsmem_sim::runner::run_duplex_threaded;
use rsmem_sim::{ScrubTiming, SimConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// The duplex RS(18,16) campaign at `period_s` seconds between scrubs.
fn campaign(period_s: f64) -> (usize, rsmem_sim::MonteCarloReport) {
    let config = SimConfig {
        seu_per_bit_day: 1e-2,
        erasure_per_symbol_day: 1e-2,
        scrub: Some((period_s / 86_400.0, ScrubTiming::Periodic)),
        ..SimConfig::rs18_16_baseline()
    };
    let before = allocations();
    let report = run_duplex_threaded(&config, 512, 11, 1).unwrap();
    (allocations() - before, report)
}

#[test]
fn scrubs_allocate_nothing() {
    // Warm-up: registers the metric families and grows the thread's
    // decode workspaces.
    campaign(900.0);
    let (often, report_often) = campaign(90.0);
    let (rarely, report_rarely) = campaign(900.0);
    assert_eq!(report_often.trials, 512);
    assert!(
        report_often.correct > report_rarely.correct,
        "the 90 s scrubs must do work: {report_often} vs {report_rarely}"
    );
    assert!(
        often <= rarely,
        "scrubbing every 90 s allocated {often} times, every 900 s {rarely}"
    );
}
