//! Exact Monte-Carlo result pins.
//!
//! Every campaign below is seeded, so its outcome counts are a pure
//! function of the simulator's code. The pins record those counts; any
//! change to fault injection, scrubbing, masking or decoding that moves
//! a single trial fails here. The rates are chosen so that scrubs both
//! correct words and fail on them (one-sided permanent faults plus
//! several upsets per scrub interval), which exercises every scrub
//! branch, while keeping the debug-mode run to a few seconds.

use rsmem_sim::array::{run_duplex_array, run_simplex_array, ArrayConfig};
use rsmem_sim::runner::{run_duplex_threaded, run_simplex_threaded};
use rsmem_sim::{MonteCarloReport, ScrubTiming, SimConfig};

/// Trials per word campaign: three shards (256 + 256 + 88).
const TRIALS: usize = 600;

/// The pinned seeds of every word campaign.
const SEEDS: [u64; 2] = [0x5EED_0001, 0x5EED_0002];

/// The scrub settings each word campaign runs under.
const SCRUBS: [Option<(f64, ScrubTiming)>; 3] = [
    Some((0.1, ScrubTiming::Periodic)),
    Some((0.1, ScrubTiming::Exponential)),
    None,
];

fn word_config(scrub: Option<(f64, ScrubTiming)>) -> SimConfig {
    SimConfig {
        seu_per_bit_day: 2e-2,
        erasure_per_symbol_day: 5e-3,
        scrub,
        ..SimConfig::rs18_16_baseline()
    }
}

fn counts(report: &MonteCarloReport) -> [usize; 3] {
    [report.correct, report.silent, report.detected]
}

/// `(correct, silent, detected)` of every word campaign, in
/// `SEEDS × SCRUBS` order.
fn word_counts(
    run: fn(&SimConfig, usize, u64, usize) -> Result<MonteCarloReport, rsmem_sim::SimError>,
    threads: usize,
) -> Vec<[usize; 3]> {
    SEEDS
        .iter()
        .flat_map(|&seed| {
            SCRUBS.iter().map(move |&scrub| {
                counts(&run(&word_config(scrub), TRIALS, seed, threads).expect("campaign runs"))
            })
        })
        .collect()
}

#[test]
fn simplex_campaigns_are_pinned() {
    let pinned: [[usize; 3]; 6] = [
        [259, 53, 288],
        [197, 67, 336],
        [16, 46, 538],
        [268, 61, 271],
        [197, 52, 351],
        [15, 41, 544],
    ];
    assert_eq!(word_counts(run_simplex_threaded, 1), pinned);
}

#[test]
fn duplex_campaigns_are_pinned() {
    let pinned: [[usize; 3]; 6] = [
        [413, 75, 112],
        [330, 83, 187],
        [26, 71, 503],
        [432, 64, 104],
        [336, 90, 174],
        [33, 82, 485],
    ];
    assert_eq!(word_counts(run_duplex_threaded, 1), pinned);
}

#[test]
fn word_campaigns_are_thread_count_invariant() {
    assert_eq!(
        word_counts(run_simplex_threaded, 3),
        word_counts(run_simplex_threaded, 1)
    );
    assert_eq!(
        word_counts(run_duplex_threaded, 3),
        word_counts(run_duplex_threaded, 1)
    );
}

fn array_config(timing: ScrubTiming) -> ArrayConfig {
    ArrayConfig {
        base: SimConfig {
            seu_per_bit_day: 1e-2,
            erasure_per_symbol_day: 5e-3,
            scrub: Some((0.05, timing)),
            ..SimConfig::rs18_16_baseline()
        },
        words: 64,
        mbu_width_bits: 2,
        interleave_depth: 4,
    }
}

/// `(failed_words, silent_words)` under periodic, then exponential,
/// scrubbing.
fn array_counts(
    run: fn(&ArrayConfig, usize, u64) -> Result<rsmem_sim::ArrayReport, rsmem_sim::SimError>,
) -> Vec<[usize; 2]> {
    [ScrubTiming::Periodic, ScrubTiming::Exponential]
        .into_iter()
        .map(|timing| {
            let report = run(&array_config(timing), 12, 0xA11A).expect("campaign runs");
            [report.failed_words, report.silent_words]
        })
        .collect()
}

#[test]
fn simplex_array_campaigns_are_pinned() {
    assert_eq!(array_counts(run_simplex_array), [[173, 24], [248, 33]]);
}

#[test]
fn duplex_array_campaigns_are_pinned() {
    assert_eq!(array_counts(run_duplex_array), [[21, 11], [52, 32]]);
}

/// The `mc_array` benchmark's shape: 1024 words, 2-bit MBUs, interleave
/// depth 4, a periodic scrub every 0.01 day over a 2-day store.
fn benchmark_array_config() -> ArrayConfig {
    ArrayConfig {
        base: SimConfig {
            seu_per_bit_day: 1e-3,
            erasure_per_symbol_day: 1e-4,
            scrub: Some((0.01, ScrubTiming::Periodic)),
            store_days: 2.0,
            ..SimConfig::rs18_16_baseline()
        },
        words: 1024,
        mbu_width_bits: 2,
        interleave_depth: 4,
    }
}

/// One trial of the benchmark-shaped duplex campaign. At these rates
/// most trials end with every word read back correctly, so the seed is
/// one whose trial loses a word: a change that moves any fault, scrub
/// or read-back decision is then likely to move the counts.
#[test]
fn benchmark_shaped_duplex_array_campaign_is_pinned() {
    let report = run_duplex_array(&benchmark_array_config(), 1, 27).expect("campaign runs");
    assert_eq!([report.failed_words, report.silent_words], [1, 1]);
}
