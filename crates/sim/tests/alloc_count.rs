//! Pins that Monte-Carlo scrubs allocate nothing: a warm serial duplex
//! campaign allocates no more with a scrub every 90 s than with one
//! every 900 s. A second gate pins the same for whole-array campaigns,
//! and that their trials reuse the arrays instead of rebuilding them.
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

use rsmem_sim::array::{run_duplex_array, ArrayConfig};
use rsmem_sim::runner::run_duplex_threaded;
use rsmem_sim::{ArrayReport, ScrubTiming, SimConfig};

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

/// Words in each array campaign.
const WORDS: usize = 64;

/// A duplex RS(18,16) array campaign of `trials` trials with a scrub
/// every `period_days`. Array campaigns always run on the calling thread.
///
/// A permanent fault can allocate: the first erasure of a module grows
/// its erasure list, which later trials then reuse. That is a cost per
/// fault, which warms up; at this rate (about five per replica and
/// trial) it stays well below the one-per-word bound on what six more
/// trials may allocate.
fn array_campaign(period_days: f64, trials: usize) -> (usize, ArrayReport) {
    let config = ArrayConfig {
        base: SimConfig {
            seu_per_bit_day: 1e-2,
            erasure_per_symbol_day: 1e-3,
            scrub: Some((period_days, ScrubTiming::Periodic)),
            ..SimConfig::rs18_16_baseline()
        },
        words: WORDS,
        mbu_width_bits: 2,
        interleave_depth: 4,
    };
    let before = allocations();
    let report = run_duplex_array(&config, trials, 7).unwrap();
    (allocations() - before, report)
}

#[test]
fn array_campaigns_allocate_per_fault_not_per_word() {
    // Warm-up, as above.
    array_campaign(0.05, 2);
    // Scrubs: ten times as many scrub ticks, each decoding only the
    // word-pairs a fault touched, allocate nothing more.
    let (often, report_often) = array_campaign(0.005, 2);
    let (rarely, report_rarely) = array_campaign(0.05, 2);
    assert!(
        report_often.failed_words < report_rarely.failed_words,
        "the 0.005-day scrubs must do work: {report_often:?} vs {report_rarely:?}"
    );
    assert!(
        often <= rarely,
        "scrubbing every 0.005 day allocated {often} times, every 0.05 day {rarely}"
    );
    // Trials: six more trials cost fewer allocations than one per word,
    // so no trial rebuilds its arrays, modules or datawords.
    let (eight, _) = array_campaign(0.05, 8);
    let (two, _) = array_campaign(0.05, 2);
    assert!(
        eight < two + WORDS,
        "8 trials allocated {eight} times, 2 trials {two}"
    );
}
