//! Discrete-event Monte-Carlo simulation of RS-coded memories.
//!
//! The DATE 2005 paper evaluates its simplex/duplex memory arrangements
//! purely analytically (Markov models solved with SURE). This crate builds
//! the system the models *describe* and runs it:
//!
//! * a memory module stores an actual RS codeword; SEUs flip real bits
//!   and permanent faults stick real symbols (and are *located*, i.e.
//!   reported as erasures, per the paper's self-checking assumption);
//! * the duplex [`arbiter`] implements Section 3 of the paper verbatim on
//!   top of the real `rsmem_code` decoder: erasure masking, independent
//!   decoding with per-word correction flags, and flag-based comparison;
//! * scrubbing periodically reads, corrects and rewrites the word —
//!   deterministically periodic (the real system) or exponentially timed
//!   (matching the Markov approximation), selectable for validation;
//! * the [`runner`] repeats trials with independent seeds and reports
//!   failure fractions with Wilson confidence intervals.
//!
//! The simulator serves two purposes: it *cross-validates* the Markov
//! models of [`rsmem_models`](https://docs.rs) on their common ground, and
//! it measures effects the counting models abstract away (mis-correction,
//! flag-based arbiter recovery, deterministic-vs-exponential scrubbing).
//!
//! # Examples
//!
//! ```
//! use rsmem_sim::{runner, CodeFamily, SimConfig, ScrubTiming};
//!
//! # fn main() -> Result<(), rsmem_sim::SimError> {
//! let config = SimConfig {
//!     n: 18,
//!     k: 16,
//!     m: 8,
//!     family: CodeFamily::Rs,
//!     depth: 1,
//!     seu_per_bit_day: 1e-2, // accelerated test conditions
//!     erasure_per_symbol_day: 0.0,
//!     scrub: None,
//!     store_days: 2.0,
//! };
//! let report = runner::run_simplex(&config, 200, 42)?;
//! assert_eq!(report.trials, 200);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod array;
mod config;
mod error;
mod events;
mod memory;
pub mod metrics;
pub mod miscorrection;
pub mod runner;
mod system;

pub use array::{ArrayConfig, ArrayReport};
pub use config::{ScrubTiming, SimConfig};
pub use error::SimError;
pub use rsmem_models::CodeFamily;
pub use runner::{MonteCarloReport, TrialOutcome};
