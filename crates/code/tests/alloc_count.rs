//! Proves the steady-state allocation contract of the batched decode
//! plane with a counting global allocator: after one warm-up call, a
//! [`BatchDecoder::decode_batch`] performs **zero heap allocations** —
//! the workspace buffers, the outcome vector, the syndrome lanes and the
//! decode core's buffers for escalated words are all reused. This is
//! the property that lets the Monte-Carlo shard loop batch millions of
//! trials without touching the allocator.

use rsmem_code::{BatchDecoder, BatchOutcome, DecodeOpts, DecoderBackend, RsCode};
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

#[test]
fn warm_batches_of_dirty_words_allocate_nothing() {
    // Escalated words run the decode core on the decoder's own
    // workspace, so correcting and failing words stay off the allocator
    // too: one error, one and two erasures (wrong values), and a
    // two-error word beyond RS(18,16)'s capability.
    let code = RsCode::new(18, 16, 8).unwrap();
    let data: Vec<Symbol> = (0..16).map(|j| (j * 13 + 3) as Symbol).collect();
    let clean = code.encode(&data).unwrap();
    let dirty = |flips: &[(usize, Symbol)]| {
        let mut word = clean.clone();
        for &(p, v) in flips {
            word[p] ^= v;
        }
        word
    };
    let stored = vec![
        dirty(&[(5, 0x40)]),
        dirty(&[(2, 0x11)]),
        dirty(&[(2, 0x11), (9, 0x80)]),
        dirty(&[(1, 0x10), (9, 0x33)]),
        clean.clone(),
    ];
    let erasures = vec![vec![], vec![2], vec![2, 9], vec![], vec![]];
    for backend in [DecoderBackend::Sugiyama, DecoderBackend::BerlekampMassey] {
        let opts = DecodeOpts::with_backend(backend);
        let mut decoder = BatchDecoder::new();
        let mut outcomes = Vec::new();
        let mut words = stored.clone();
        decoder
            .decode_batch(&code, &mut words, &erasures, &opts, &mut outcomes)
            .unwrap();
        let expected = outcomes.clone();
        assert!(
            expected[..3].iter().all(BatchOutcome::is_flagged),
            "{backend}"
        );
        assert!(!expected[3].is_flagged(), "{backend}: beyond capability");

        let before = allocations();
        for _ in 0..100 {
            words.clone_from_slice(&stored);
            decoder
                .decode_batch(&code, &mut words, &erasures, &opts, &mut outcomes)
                .unwrap();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{backend}: warm decode_batch over dirty words must not allocate"
        );
        assert_eq!(outcomes, expected, "{backend}");
    }
}
