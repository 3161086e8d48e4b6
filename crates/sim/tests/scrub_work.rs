//! Pins the decode work of a seeded Monte-Carlo campaign: how many RS
//! decodes end clean, corrected and failed.
//!
//! Scrubs draw no randomness, so which scrubs run changes no fault and
//! no outcome: the corrected and failed counts are fixed by the fault
//! history alone. The clean count measures the scrubs' confirmation
//! decodes, the ones that find a word already right. A scrub that
//! decodes a word (simplex) or both words of a pair to the same word
//! leaves a fixed point, so no confirmation follows it, and a trial is
//! stored as one, so a tick before its first fault decodes nothing
//! (`runner::tests::scrub_work_trials_with_a_tick_before_any_fault`
//! counts 493 such trials here). A rise in the clean count means the
//! simulators re-decode converged or freshly stored words again.
//!
//! The counters are process-wide, so this binary holds one test.

use rsmem_sim::runner::run_duplex_threaded;
use rsmem_sim::{ScrubTiming, SimConfig};

/// `rsmem_solver_decode_outcomes_total` for `clean`, `corrected` and
/// `failure`, in that order.
fn outcomes() -> [u64; 3] {
    ["clean", "corrected", "failure"].map(|outcome| {
        rsmem_obs::global()
            .counter(
                "rsmem_solver_decode_outcomes_total",
                &[("outcome", outcome)],
            )
            .get()
    })
}

#[test]
fn converged_scrubs_decode_no_confirmations() {
    let config = SimConfig {
        seu_per_bit_day: 1e-2,
        erasure_per_symbol_day: 1e-2,
        scrub: Some((900.0 / 86_400.0, ScrubTiming::Periodic)),
        ..SimConfig::rs18_16_baseline()
    };
    let before = outcomes();
    let report = run_duplex_threaded(&config, 512, 11, 1).unwrap();
    let after = outcomes();
    let [clean, corrected, failure] = [0, 1, 2].map(|i| after[i] - before[i]);
    assert_eq!(report.trials, 512);
    assert_eq!(
        (clean, corrected, failure),
        (4_501, 2_921, 106),
        "decode outcomes of the seeded campaign"
    );
}
