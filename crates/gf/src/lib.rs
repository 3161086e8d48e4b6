//! Galois-field arithmetic for the `rsmem` workspace.
//!
//! This crate implements the finite fields GF(2^m) for `2 <= m <= 16`
//! together with the polynomial algebra over them that a Reed–Solomon
//! codec needs:
//!
//! * [`GfField`] — a field instance with precomputed log/antilog tables,
//!   built from a primitive polynomial (a default table of primitive
//!   polynomials is provided in [`primitive`]).
//! * [`Poly`] — dense univariate polynomials over GF(2^m) with addition,
//!   multiplication, Euclidean division, evaluation, formal derivatives
//!   and the partial extended Euclidean algorithm used by the Sugiyama
//!   decoder.
//!
//! # Examples
//!
//! ```
//! use rsmem_gf::GfField;
//!
//! # fn main() -> Result<(), rsmem_gf::GfError> {
//! let field = GfField::new(8)?; // GF(256) with the standard 0x11d polynomial
//! let a = 0x53;
//! let b = 0xca;
//! let p = field.mul(a, b);
//! assert_eq!(field.div(p, b)?, a);
//! # Ok(())
//! # }
//! ```
//!
//! All symbols are represented as `u16` values in `0..field.size()`;
//! the crate never allocates per-operation, and a [`GfField`] is cheap to
//! share behind a reference (it is `Send + Sync`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod field;
#[cfg(any(test, doctest))]
mod gf2;
mod poly;
pub mod primitive;

pub use error::GfError;
pub use field::GfField;
pub use poly::Poly;

/// The symbol type used throughout the workspace.
///
/// Symbols of every supported field (m ≤ 16) fit in a `u16`.
pub type Symbol = u16;
