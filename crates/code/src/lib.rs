//! Reed–Solomon coding for the `rsmem` workspace.
//!
//! Implements the RS(n,k) codes the DATE 2005 paper uses as EDAC for
//! highly-reliable memories, over GF(2^m) from [`rsmem_gf`]:
//!
//! * systematic encoding with a generator polynomial
//!   `g(x) = ∏_{j=0}^{n−k−1} (x − α^{b+j})`,
//! * full **errors-and-erasures** decoding — a received word with `er`
//!   erasures (located symbols, e.g. permanent faults found by on-line
//!   testing) and `re` random errors (e.g. SEU bit-flips) is corrected
//!   whenever `er + 2·re ≤ n − k`,
//! * two independent decoder back-ends, the Sugiyama (extended Euclidean)
//!   algorithm and Berlekamp–Massey, cross-checked in the test-suite,
//! * *shortened* codes (any `n ≤ 2^m − 1`), as needed by the paper's
//!   RS(18,16) and RS(36,16) with byte symbols, and
//! * the decoder latency/area complexity model of the paper's Section 6
//!   (`Td ≈ 3n + 10(n−k)` clock cycles) in [`complexity`].
//!
//! # Examples
//!
//! ```
//! use rsmem_code::{RsCode, DecodeOutcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let code = RsCode::new(18, 16, 8)?; // the paper's RS(18,16), byte symbols
//! let data: Vec<u16> = (0..16).collect();
//! let mut word = code.encode(&data)?;
//!
//! word[5] ^= 0x40;                     // one SEU bit-flip
//! let out = code.decode(&word, &[])?;  // no known erasures
//! match out {
//!     DecodeOutcome::Corrected { data: d, .. } => assert_eq!(d, data),
//!     _ => unreachable!("single error is always correctable"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod bm;
mod code;
pub mod complexity;
mod decode;
mod encode;
mod error;
mod euclid;
mod forney;
mod interleave;
mod locator;
#[cfg(test)]
mod matrix;
mod polyops;
mod syndrome;

pub use batch::{BatchDecoder, BatchOutcome, DecodeOpts};
pub use code::RsCode;
pub use decode::{register_metrics, Correction, DecodeFailure, DecodeOutcome, DecoderBackend};
pub use error::CodeError;
pub use interleave::Interleaver;
pub use syndrome::syndromes;

/// Re-export of the symbol type used for codeword entries.
pub use rsmem_gf::Symbol;
