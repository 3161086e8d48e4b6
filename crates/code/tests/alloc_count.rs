//! Proves the steady-state allocation contract of the batched decode
//! plane with a counting global allocator: after one warm-up call, a
//! [`BatchDecoder::decode_batch`] over clean words with no declared
//! erasures performs **zero heap allocations** — the workspace buffers,
//! the outcome vector and the syndrome lanes are all reused. This is
//! the property that lets the Monte-Carlo shard loop batch millions of
//! trials without touching the allocator.

use rsmem_code::{BatchDecoder, BatchOutcome, DecodeOpts, RsCode};
use rsmem_gf::Symbol;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn warm_clean_batches_allocate_nothing() {
    // Logging/profiling are never initialised in this test binary, so
    // the decode spans reduce to their disabled fast gates (which the
    // obs crate separately proves allocation-free).
    let code = RsCode::new(18, 16, 8).unwrap();
    let mut words: Vec<Vec<Symbol>> = (0..96u32)
        .map(|i| {
            let data: Vec<Symbol> = (0..16u32)
                .map(|j| ((i * 31 + j * 7) % 256) as Symbol)
                .collect();
            code.encode(&data).unwrap()
        })
        .collect();
    let mut decoder = BatchDecoder::new();
    let mut outcomes = Vec::new();

    // Warm-up: grows the transpose/syndrome buffers, the outcome vector
    // and the global metric counters to their steady-state sizes.
    decoder
        .decode_batch(
            &code,
            &mut words,
            &[],
            &DecodeOpts::default(),
            &mut outcomes,
        )
        .unwrap();
    assert!(outcomes.iter().all(|o| *o == BatchOutcome::Clean));

    let before = allocations();
    for _ in 0..100 {
        decoder
            .decode_batch(
                &code,
                &mut words,
                &[],
                &DecodeOpts::default(),
                &mut outcomes,
            )
            .unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm clean decode_batch calls must not allocate"
    );
    assert!(outcomes.iter().all(|o| *o == BatchOutcome::Clean));
}

#[test]
fn warm_batches_with_empty_erasure_sets_allocate_nothing() {
    // The per-word erasure convention (one, possibly empty, set per
    // word) is what the simulator passes; empty sets must stay on the
    // allocation-free path too.
    let code = RsCode::new(36, 16, 8).unwrap();
    let mut words: Vec<Vec<Symbol>> = (0..32u32)
        .map(|i| {
            let data: Vec<Symbol> = (0..16u32)
                .map(|j| ((i * 13 + j * 5 + 1) % 256) as Symbol)
                .collect();
            code.encode(&data).unwrap()
        })
        .collect();
    let erasures: Vec<Vec<usize>> = vec![Vec::new(); words.len()];
    let mut decoder = BatchDecoder::new();
    let mut outcomes = Vec::new();

    decoder
        .decode_batch(
            &code,
            &mut words,
            &erasures,
            &DecodeOpts::default(),
            &mut outcomes,
        )
        .unwrap();

    let before = allocations();
    for _ in 0..100 {
        decoder
            .decode_batch(
                &code,
                &mut words,
                &erasures,
                &DecodeOpts::default(),
                &mut outcomes,
            )
            .unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm decode_batch with empty erasure sets must not allocate"
    );
}
