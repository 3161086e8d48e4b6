//! Per-family decode-outcome counters for the [`MemoryCode`] layer.
//!
//! The solver crate settles the backend-level `rsmem_solver_decode_*`
//! series; those are untouched here and stay byte-identical for code
//! that calls `RsCode` directly. This module adds one series *above*
//! the trait boundary — `rsmem_decode_outcomes_total{family,outcome}` —
//! so a `rsmem compare` run shows the `rs` / `rm` / `irs` outcome mix
//! side by side in `/metrics`.
//!
//! Handles are resolved lazily on the first trait-layer decode of each
//! family: a process that never routes a decode through [`MemoryCode`]
//! renders exactly the same `/metrics` text as before this module
//! existed (pinned by `tests/family_metrics.rs`).
//!
//! [`MemoryCode`]: crate::MemoryCode

use rsmem_code::{BatchOutcome, DecodeFailure, DecodeOutcome};
use rsmem_obs::metrics::{global, Counter};
use rsmem_obs::recorder::{self, RecordKind};
use std::sync::OnceLock;

/// Cached counter handles for one code family, resolved once so the
/// per-decode cost is a single relaxed atomic add.
struct FamilyMetrics {
    clean: Counter,
    corrected: Counter,
    failure: Counter,
}

impl FamilyMetrics {
    fn resolve(family: &'static str) -> FamilyMetrics {
        let by_outcome = |outcome: &str| {
            global().counter(
                "rsmem_decode_outcomes_total",
                &[("family", family), ("outcome", outcome)],
            )
        };
        FamilyMetrics {
            clean: by_outcome("clean"),
            corrected: by_outcome("corrected"),
            failure: by_outcome("failure"),
        }
    }
}

fn family_metrics(family: &'static str) -> &'static FamilyMetrics {
    static RS: OnceLock<FamilyMetrics> = OnceLock::new();
    static RM: OnceLock<FamilyMetrics> = OnceLock::new();
    static IRS: OnceLock<FamilyMetrics> = OnceLock::new();
    let slot = match family {
        "rs" => &RS,
        "rm" => &RM,
        _ => &IRS,
    };
    slot.get_or_init(|| FamilyMetrics::resolve(family))
}

/// Settles the family-labelled outcome counter for one decode.
pub(crate) fn record_outcome(family: &'static str, outcome: &DecodeOutcome) {
    let metrics = family_metrics(family);
    match outcome {
        DecodeOutcome::Clean { .. } => metrics.clean.inc(),
        DecodeOutcome::Corrected { .. } => metrics.corrected.inc(),
        DecodeOutcome::Failure(_) => metrics.failure.inc(),
    }
}

/// Batch variant of [`record_outcome`]: one pass over the outcome
/// slice, three atomic adds.
pub(crate) fn record_batch(family: &'static str, outcomes: &[BatchOutcome]) {
    let (mut clean, mut corrected, mut failure) = (0u64, 0u64, 0u64);
    for outcome in outcomes {
        match outcome {
            BatchOutcome::Clean => clean += 1,
            BatchOutcome::Corrected { .. } => corrected += 1,
            BatchOutcome::Failure(_) => failure += 1,
        }
    }
    let metrics = family_metrics(family);
    if clean > 0 {
        metrics.clean.add(clean);
    }
    if corrected > 0 {
        metrics.corrected.add(corrected);
    }
    if failure > 0 {
        metrics.failure.add(failure);
    }
}

/// Compact outcome encoding for flight-recorder events, mirroring the
/// solver layer: 0 = clean, 1 = corrected, 2+discriminant = failure.
fn outcome_code(outcome: &DecodeOutcome) -> u64 {
    match outcome {
        DecodeOutcome::Clean { .. } => 0,
        DecodeOutcome::Corrected { .. } => 1,
        DecodeOutcome::Failure(failure) => {
            2 + match failure {
                DecodeFailure::TooManyErasures { .. } => 0,
                DecodeFailure::KeyEquation => 1,
                DecodeFailure::CapabilityExceeded { .. } => 2,
                DecodeFailure::RootCountMismatch => 3,
                DecodeFailure::Unverified => 4,
                _ => 5,
            }
        }
    }
}

/// Emits a flight-recorder `decode` event for families that do not pass
/// through the solver crate's decode core (RM and interleaved-RS run
/// their own decoders, so they record here instead).
pub(crate) fn record_decode_event(
    target: &'static str,
    name: &'static str,
    outcome: &DecodeOutcome,
) {
    if !recorder::enabled() {
        return;
    }
    let corrections = match outcome {
        DecodeOutcome::Corrected { corrections, .. } => corrections.len() as u64,
        _ => 0,
    };
    recorder::record_event(
        RecordKind::Decode,
        target,
        name,
        outcome_code(outcome),
        corrections,
    );
}
