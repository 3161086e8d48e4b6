//! Snapshot coverage for the family-labelled decode-outcome series.
//!
//! A single `#[test]` in its own binary: the global metrics registry is
//! process-wide, so ordering matters — first prove that raw `RsCode`
//! usage leaves the exposition byte-stable (no family series appears),
//! then prove the trait layer creates exactly the `family="rs"` series.

use rsmem_code::RsCode;
use rsmem_codes::{build, MemoryCode};
use rsmem_models::CodeParams;
use rsmem_obs::metrics::global;

/// The series keys (everything before the value) of one rendered
/// exposition, so value churn does not hide series-set changes.
fn series_keys(text: &str) -> Vec<String> {
    text.lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((key, _)) if !line.starts_with('#') => key.to_owned(),
            _ => line.to_owned(),
        })
        .collect()
}

#[test]
fn family_series_appear_only_at_the_trait_layer() {
    let code = RsCode::new(18, 16, 8).unwrap();
    let data: Vec<u16> = (0..16).map(|i| (i * 7 + 3) as u16).collect();
    let word = code.encode(&data).unwrap();

    // Raw solver-layer decodes: the paper pipeline's direct path.
    let mut corrupted = word.clone();
    corrupted[5] ^= 0x40;
    RsCode::decode(&code, &corrupted, &[]).unwrap();
    let before = global().render();

    // More raw decodes must not grow the exposition — RS-only output
    // stays byte-stable in its series set, and no family label exists.
    RsCode::decode(&code, &word, &[]).unwrap();
    RsCode::decode(&code, &corrupted, &[5]).unwrap();
    let after = global().render();
    assert!(
        !before.contains("rsmem_decode_outcomes_total"),
        "raw RsCode decode must not create family-labelled series:\n{before}"
    );
    assert_eq!(
        series_keys(&before),
        series_keys(&after),
        "raw decodes changed the exposition's series set"
    );

    // The trait layer adds the family label, for both entry points: the
    // `build` factory and the concrete code called through the trait.
    let built = build(CodeParams::rs18_16()).unwrap();
    built.decode(&corrupted, &[]).unwrap();
    let text = global().render();
    assert!(text.contains("# TYPE rsmem_decode_outcomes_total counter"));
    assert!(text.contains("rsmem_decode_outcomes_total{family=\"rs\",outcome=\"corrected\"} 1"));
    assert!(text.contains("rsmem_decode_outcomes_total{family=\"rs\",outcome=\"clean\"} 0"));

    MemoryCode::decode(&code, &word, &[]).unwrap();
    assert!(global()
        .render()
        .contains("rsmem_decode_outcomes_total{family=\"rs\",outcome=\"clean\"} 1"));

    // Batch decodes settle the same series in one pass.
    let mut words = [word.clone(), corrupted.clone(), word.clone()].concat();
    let erasures = vec![Vec::new(); 3];
    let mut out = Vec::new();
    built.decode_batch(&mut words, &erasures, &mut out).unwrap();
    let text = global().render();
    assert!(text.contains("rsmem_decode_outcomes_total{family=\"rs\",outcome=\"clean\"} 3"));
    assert!(text.contains("rsmem_decode_outcomes_total{family=\"rs\",outcome=\"corrected\"} 2"));

    // And the other families label their own series.
    let rm = build(CodeParams::rm1(4).unwrap()).unwrap();
    let rm_word = rm.encode(&[1, 0, 1, 1, 0]).unwrap();
    rm.decode(&rm_word, &[]).unwrap();
    let irs = build(CodeParams::interleaved(18, 16, 8, 2).unwrap()).unwrap();
    let irs_data: Vec<u16> = (0..32).collect();
    let irs_word = irs.encode(&irs_data).unwrap();
    irs.decode(&irs_word, &[]).unwrap();
    let text = global().render();
    assert!(text.contains("rsmem_decode_outcomes_total{family=\"rm\",outcome=\"clean\"} 1"));
    assert!(text.contains("rsmem_decode_outcomes_total{family=\"irs\",outcome=\"clean\"} 1"));
}
