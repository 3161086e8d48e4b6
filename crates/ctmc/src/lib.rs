//! Continuous-time Markov chain (CTMC) engine for reliability analysis.
//!
//! This crate is the `rsmem` workspace's replacement for the NASA **SURE**
//! solver the DATE 2005 paper relies on. It provides:
//!
//! * [`MarkovModel`] — describe a chain implicitly (initial state +
//!   per-state transition function) and let [`StateSpace::explore`]
//!   enumerate it breadth-first into an indexed state space with a sparse
//!   generator matrix;
//! * transient solvers for `p'(t) = p(t)·Q`:
//!   - [`uniformization::transient`] — the workhorse. Because the
//!     uniformized iteration is non-negative it has **no cancellation**, so
//!     absorbing-state probabilities retain full *relative* accuracy down
//!     to the f64 denormal floor (~1e-308) — exactly what the paper's
//!     BER-vs-permanent-fault sweeps (1e-200 territory) need;
//!   - [`paths`] — a SURE-style path-bound solver for *acyclic* chains
//!     (no scrubbing), computing log-space lower/upper bounds that remain
//!     meaningful below 1e-308
//!     (the tests cross-check both solvers against an adaptive RKF45
//!     integrator, `tests/support/rkf45.rs`);
//! * [`steady`] — steady-state distribution and mean time to absorption;
//! * [`sparse::CsrMatrix`] / [`dense::DenseMatrix`] — the minimal linear
//!   algebra the above needs (no external LA dependency).
//!
//! # Examples
//!
//! A two-state failure chain `Good --λ--> Fail` has
//! `P_fail(t) = 1 − e^{−λt}`:
//!
//! ```
//! use rsmem_ctmc::{MarkovModel, StateSpace, uniformization};
//!
//! struct TwoState {
//!     lambda: f64,
//! }
//!
//! impl MarkovModel for TwoState {
//!     type State = bool; // false = good, true = failed
//!     fn initial_state(&self) -> bool { false }
//!     fn transitions(&self, s: &bool, out: &mut Vec<(bool, f64)>) {
//!         if !s {
//!             out.push((true, self.lambda));
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), rsmem_ctmc::CtmcError> {
//! let space = StateSpace::explore(&TwoState { lambda: 0.5 })?;
//! let p = uniformization::transient(&space, 2.0, &Default::default())?;
//! let fail = space.index_of(&true).unwrap();
//! assert!((p[fail] - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
mod error;
mod model;
pub mod paths;
pub mod poisson;
pub mod rewards;
pub mod sparse;
pub mod steady;
mod step;
pub mod uniformization;

pub use error::CtmcError;
pub use model::{MarkovModel, StateSpace};
