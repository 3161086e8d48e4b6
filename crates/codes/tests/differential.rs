//! Exhaustive small-code and differential tests across the
//! [`MemoryCode`] families.
//!
//! Three classes of evidence:
//!
//! 1. RM(1,3)/RM(1,4) **full-codebook** checks: every dataword encodes
//!    to a distinct codeword at the design distance, round-trips, and
//!    every within-budget error/erasure pattern decodes exactly.
//! 2. Interleaved-RS **burst-vs-predicate**: bursts up to `max_burst`
//!    always correct; random patterns admitted by the capability
//!    predicate always correct.
//! 3. **Trait-object vs concrete** RS: on the pinned stress-corpus
//!    seeds, `Box<dyn MemoryCode>` decoding (scalar and batch) is
//!    bit-identical to calling `RsCode` directly.

use rand::{Rng, SeedableRng};
use rsmem_code::{BatchDecoder, BatchOutcome, DecodeOpts, DecodeOutcome, RsCode, Symbol};
use rsmem_codes::{build, InterleavedRs, MemoryCode, ReedMuller};
use rsmem_models::CodeParams;

/// The stress harness's pinned corpus seeds (crates/stress/tests).
const PINNED_SEEDS: [u64; 4] = [0xDA7E, 0xC0FFEE, 0x1234, 42];

fn all_datawords(k: usize) -> impl Iterator<Item = Vec<Symbol>> {
    (0..1u32 << k).map(move |bits| (0..k).map(|i| ((bits >> i) & 1) as Symbol).collect())
}

fn hamming(a: &[Symbol], b: &[Symbol]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[test]
fn rm_full_codebook_round_trip_and_distance() {
    for r in [3u32, 4] {
        let code = ReedMuller::new(r).unwrap();
        let (n, k, d) = (1usize << r, r as usize + 1, 1usize << (r - 1));
        let codebook: Vec<(Vec<Symbol>, Vec<Symbol>)> = all_datawords(k)
            .map(|data| {
                let word = code.encode(&data).unwrap();
                assert_eq!(word.len(), n);
                match code.decode(&word, &[]).unwrap() {
                    DecodeOutcome::Clean { data: got } => assert_eq!(got, data),
                    other => panic!("RM(1,{r}) codeword misread: {other:?}"),
                }
                (data, word)
            })
            .collect();
        assert_eq!(codebook.len(), 1 << k);
        // Pairwise minimum distance is exactly 2^(r−1).
        let mut min = n;
        for i in 0..codebook.len() {
            for j in i + 1..codebook.len() {
                min = min.min(hamming(&codebook[i].1, &codebook[j].1));
            }
        }
        assert_eq!(min, d, "RM(1,{r}) minimum distance");
    }
}

#[test]
fn rm13_every_pattern_within_budget_decodes_exactly() {
    // RM(1,3): n = 8, budget d−1 = 3. Exhaust every error mask and
    // erasure mask with er + 2·re ≤ 3 over every dataword.
    let code = ReedMuller::new(3).unwrap();
    for data in all_datawords(4) {
        let clean = code.encode(&data).unwrap();
        for emask in 0u32..256 {
            for fmask in 0u32..256 {
                if emask & fmask != 0 {
                    continue; // erasures and errors disjoint here
                }
                let erasures: Vec<usize> = (0..8).filter(|i| emask >> i & 1 == 1).collect();
                let flips: Vec<usize> = (0..8).filter(|i| fmask >> i & 1 == 1).collect();
                if erasures.len() + 2 * flips.len() > 3 {
                    continue;
                }
                let mut word = clean.clone();
                for &p in &flips {
                    word[p] ^= 1;
                }
                // Also corrupt half the erased cells: an erasure may or
                // may not hold the right value.
                for (i, &p) in erasures.iter().enumerate() {
                    if i % 2 == 0 {
                        word[p] ^= 1;
                    }
                }
                let outcome = code.decode(&word, &erasures).unwrap();
                let got = outcome
                    .data()
                    .unwrap_or_else(|| panic!("within-budget pattern detected: {outcome:?}"));
                assert_eq!(got, &data[..], "er={erasures:?} flips={flips:?}");
            }
        }
    }
}

#[test]
fn irs_burst_correction_matches_capability_predicate() {
    // Depth 3 over RS(15,9): t_inner = 3 → bursts up to 9; worst-case
    // random budget = inner redundancy 6.
    let code = InterleavedRs::new(15, 9, 4, 3).unwrap();
    let params = code.params();
    let data: Vec<Symbol> = (0..params.k())
        .map(|j| ((j * 5 + 1) % 16) as Symbol)
        .collect();
    let clean = code.encode(&data).unwrap();
    assert_eq!(code.max_burst(), 9);
    assert_eq!(params.max_burst(), 9);

    for b in 1..=code.max_burst() {
        for start in 0..params.n() - b {
            let mut word = clean.clone();
            for cell in &mut word[start..start + b] {
                *cell ^= 0x9;
            }
            let outcome = code.decode(&word, &[]).unwrap();
            let got = outcome
                .data()
                .unwrap_or_else(|| panic!("burst b={b} at {start} not corrected: {outcome:?}"));
            assert_eq!(got, &data[..], "burst b={b} at {start}");
        }
    }

    // Random (non-burst) patterns admitted by the predicate: place all
    // faults in one constituent — the worst case the guarantee covers.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1235_5EED);
    for _ in 0..200 {
        let er = rng.gen_range(0..4usize);
        let re_cap = (6 - er) / 2;
        let re = rng.gen_range(0..=re_cap);
        assert!(params.within_capability(er, re));
        let mut word = clean.clone();
        let mut erasures = Vec::new();
        // Constituent w holds physical positions {i·depth + w}.
        let w = rng.gen_range(0..3usize);
        let mut inner_positions: Vec<usize> = (0..15).collect();
        for i in (1..inner_positions.len()).rev() {
            inner_positions.swap(i, rng.gen_range(0..=i));
        }
        for (idx, &i) in inner_positions[..er + re].iter().enumerate() {
            let p = i * 3 + w;
            word[p] ^= 1 + rng.gen_range(0..15) as Symbol;
            if idx < er {
                erasures.push(p);
            }
        }
        let outcome = code.decode(&word, &erasures).unwrap();
        let got = outcome
            .data()
            .unwrap_or_else(|| panic!("admitted ({er},{re}) pattern failed: {outcome:?}"));
        assert_eq!(got, &data[..]);
    }
}

#[test]
fn rs_trait_object_bit_identical_on_pinned_seeds() {
    for &(n, k, m) in &[(18usize, 16usize, 8u32), (36, 16, 8), (15, 9, 4)] {
        let concrete = RsCode::new(n, k, m).unwrap();
        let boxed: Box<dyn MemoryCode> = build(CodeParams::new(n, k, m).unwrap()).unwrap();
        for &seed in &PINNED_SEEDS {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut words = Vec::new();
            let mut erasure_sets = Vec::new();
            for _ in 0..64 {
                let data: Vec<Symbol> = (0..k)
                    .map(|_| rng.gen_range(0..1u32 << m) as Symbol)
                    .collect();
                let mut word = concrete.encode(&data).unwrap();
                let faults = rng.gen_range(0..=(n - k) + 2);
                let mut erasures = Vec::new();
                for _ in 0..faults {
                    let p = rng.gen_range(0..n);
                    word[p] ^= 1 + rng.gen_range(0..(1u32 << m) - 1) as Symbol;
                    if rng.gen_range(0..2) == 0 && !erasures.contains(&p) {
                        erasures.push(p);
                    }
                }
                // Scalar path: identical outcome structs.
                assert_eq!(
                    boxed.decode(&word, &erasures).unwrap(),
                    concrete.decode(&word, &erasures).unwrap(),
                    "seed {seed:#x} RS({n},{k})"
                );
                words.extend_from_slice(&word);
                erasure_sets.push(erasures);
            }
            // Batch path: identical outcomes AND identical in-place
            // corrections vs BatchDecoder on the concrete code.
            let mut trait_words = words.clone();
            let mut trait_out = Vec::new();
            boxed
                .decode_batch(&mut trait_words, &erasure_sets, &mut trait_out)
                .unwrap();
            let mut concrete_out = Vec::new();
            BatchDecoder::new()
                .decode_batch(
                    &concrete,
                    &mut words,
                    &erasure_sets,
                    &DecodeOpts::default(),
                    &mut concrete_out,
                )
                .unwrap();
            assert_eq!(trait_out, concrete_out, "seed {seed:#x} RS({n},{k}) batch");
            assert_eq!(trait_words, words, "seed {seed:#x} RS({n},{k}) in-place");
        }
    }
}

#[test]
fn every_family_rejects_claims_beyond_capability() {
    // Flood each code with more corruption than its budget: no Clean
    // outcome may report the wrong data.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
    for params in [
        CodeParams::rs18_16(),
        CodeParams::rm1(4).unwrap(),
        CodeParams::interleaved(18, 16, 8, 2).unwrap(),
    ] {
        let code = build(params).unwrap();
        let size = 1u32 << params.m();
        let data: Vec<Symbol> = (0..params.k())
            .map(|_| rng.gen_range(0..size) as Symbol)
            .collect();
        let clean = code.encode(&data).unwrap();
        for _ in 0..100 {
            let mut word = clean.clone();
            let faults = params.capability().budget + 1 + rng.gen_range(0..3usize);
            for _ in 0..faults.min(params.n()) {
                let p = rng.gen_range(0..params.n());
                word[p] ^= 1 + rng.gen_range(0..size - 1) as Symbol;
            }
            if word == clean {
                continue;
            }
            if let DecodeOutcome::Clean { data: got } = code.decode(&word, &[]).unwrap() {
                assert_eq!(got, data, "corrupted word reported clean with wrong data");
            }
        }
    }
}

#[test]
fn batch_outcomes_match_scalar_for_every_family() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_CAFE);
    for params in [
        CodeParams::rs36_16(),
        CodeParams::rm1(5).unwrap(),
        CodeParams::interleaved(15, 9, 4, 3).unwrap(),
    ] {
        let code = build(params).unwrap();
        let size = 1u32 << params.m();
        let mut words = Vec::new();
        let mut erasure_sets = Vec::new();
        let mut scalar = Vec::new();
        for _ in 0..48 {
            let data: Vec<Symbol> = (0..params.k())
                .map(|_| rng.gen_range(0..size) as Symbol)
                .collect();
            let mut word = code.encode(&data).unwrap();
            for _ in 0..rng.gen_range(0..4usize) {
                word[rng.gen_range(0..params.n())] ^= 1 + rng.gen_range(0..size - 1) as Symbol;
            }
            scalar.push(code.decode(&word, &[]).unwrap());
            words.extend_from_slice(&word);
            erasure_sets.push(Vec::new());
        }
        let mut out = Vec::new();
        code.decode_batch(&mut words, &erasure_sets, &mut out)
            .unwrap();
        for (i, (batch, scalar)) in out.iter().zip(&scalar).enumerate() {
            let matches = matches!(
                (batch, scalar),
                (BatchOutcome::Clean, DecodeOutcome::Clean { .. })
                    | (
                        BatchOutcome::Corrected { .. },
                        DecodeOutcome::Corrected { .. }
                    )
                    | (BatchOutcome::Failure(_), DecodeOutcome::Failure(_))
            );
            assert!(matches, "{params}: word {i}: {batch:?} vs {scalar:?}");
            if let DecodeOutcome::Corrected { codeword, .. } = scalar {
                let n = params.n();
                assert_eq!(
                    &words[i * n..(i + 1) * n],
                    codeword,
                    "{params}: word {i} in-place repair"
                );
            }
        }
    }
}
