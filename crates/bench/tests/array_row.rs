//! The `array_duplex_1024` row is deterministic and matches the
//! fingerprint committed in `BENCH_baseline.json`.
//!
//! The row's fingerprint folds in process-wide decode counters, so this
//! binary holds one test: no other test may decode while it runs.

use rsmem_bench::harness::{array_duplex_1024, BenchReport};

#[test]
fn array_row_is_deterministic_and_matches_the_baseline() {
    let first = array_duplex_1024().unwrap();
    assert_eq!(array_duplex_1024().unwrap(), first, "a rerun differs");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(path).unwrap();
    let baseline = BenchReport::from_json(&rsmem_obs::json::parse(&text).unwrap()).unwrap();
    let pinned = baseline
        .benches
        .iter()
        .find(|b| b.name == "array_duplex_1024")
        .expect("the baseline has an array_duplex_1024 row");
    assert_eq!(
        first, pinned.fingerprint,
        "array_duplex_1024: {first:016x}, baseline {:016x}",
        pinned.fingerprint
    );
}
