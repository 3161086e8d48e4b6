//! `rsmem-stress` — deterministic differential stress/fault-injection
//! harness for the `rsmem` workspace.
//!
//! The analytic models, the decoder and the simulator of this workspace
//! all claim the same physics; this crate is the adversary that tries to
//! pull them apart. Four suites run from a single seed:
//!
//! 1. **decode** — erasure+error patterns swept across the
//!    capability lattice (inside / on / beyond `er + 2·re = n − k`)
//!    through encode → inject → decode with *both* key-equation
//!    back-ends, classifying corrected / detected / miscorrected and
//!    enforcing re-encode, syndrome and bounded-distance-uniqueness
//!    invariants; exhaustive on a small code, seeded-random on the rest
//!    of the zoo (including the paper's RS(18,16) and RS(36,16));
//! 2. **families** — the same lattice sweep driven
//!    through the [`rsmem_codes::MemoryCode`] trait across the RS,
//!    Reed–Muller and interleaved-RS implementations, checking the
//!    trait contracts (plus RS trait-vs-concrete bit-identity and a
//!    `decode_batch`-vs-scalar differential);
//! 3. **arbiter** — correlated two-module patterns
//!    mirroring the paper's duplex state variables (X/Y/b/e1/e2/ec)
//!    against a brute-force guaranteed-recovery oracle, plus
//!    malformed-input robustness probes;
//! 4. **xval** ([`xval`]) — randomized system configurations comparing
//!    the CTMC transient against the Monte-Carlo simulator inside a
//!    statistical tolerance band.
//!
//! Every violation is **shrunk** to a minimal reproduction and rendered
//! as a ready-to-paste unit test, so a CI failure is
//! immediately actionable. The whole run is reproducible from
//! `(seed, budget)` alone — the harness carries its own [`rng`].
//!
//! Surfaced as `rsmem stress --seed 0xDA7E --budget N` by the CLI and as
//! a bounded-time corpus replay under `cargo test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter_suite;
mod decode;
mod families;
mod report;
pub mod rng;
mod shrink;
pub mod xval;

pub use report::{
    ArbiterReport, DecodeReport, Divergence, FamiliesReport, StressReport, XvalReport,
};

/// Budgets and seed for one stress run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressConfig {
    /// Master seed; every suite derives its own stream from it.
    pub seed: u64,
    /// Random decode-chain cases.
    pub decode_budget: usize,
    /// Exhaustive small-code decode cases (0 disables the sweep).
    pub exhaustive_budget: usize,
    /// Correlated duplex-arbiter cases (includes malformed probes).
    pub arbiter_budget: usize,
    /// Code-family trait differential cases (RS/RM/IRS zoo).
    pub families_budget: usize,
    /// Randomized analytic-vs-simulation configurations.
    pub xval_configs: usize,
    /// Monte-Carlo trials per cross-validation configuration.
    pub xval_trials: usize,
    /// Cap on stored divergences per suite (each one is shrunk, which
    /// costs decodes).
    pub max_divergences: usize,
}

impl StressConfig {
    /// The configuration the CLI uses: `budget` random decode cases,
    /// with the other budgets scaled from it. Small budgets (quick
    /// smoke runs) skip the exhaustive sweep and shrink the
    /// cross-validation stage so `--budget 500` stays interactive.
    pub fn with_budget(seed: u64, budget: usize) -> Self {
        let full = budget >= 50_000;
        Self {
            seed,
            decode_budget: budget,
            exhaustive_budget: if full { 60_000 } else { 0 },
            arbiter_budget: (budget / 10).max(200),
            families_budget: (budget / 10).max(200),
            xval_configs: if full { 8 } else { 2 },
            xval_trials: if full { 2_500 } else { 400 },
            max_divergences: 16,
        }
    }

    /// A small configuration for the bounded-time `cargo test` tier.
    pub fn test_tier(seed: u64) -> Self {
        Self {
            seed,
            decode_budget: 3_000,
            exhaustive_budget: 10_000,
            arbiter_budget: 600,
            families_budget: 800,
            xval_configs: 2,
            xval_trials: 500,
            max_divergences: 8,
        }
    }
}

/// Runs all four suites and collects the report.
pub fn run(config: &StressConfig) -> StressReport {
    let mut run_span = rsmem_obs::span("stress", "run");
    run_span.record("seed", config.seed);
    let mut master = rng::SplitMix64::new(config.seed);
    let decode_seed = master.next_u64();
    let arbiter_seed = master.next_u64();
    let xval_seed = master.next_u64();
    // Drawn *after* the original three so adding the families suite did
    // not perturb their pinned streams.
    let families_seed = master.next_u64();
    // Each suite gets its own timed span; the Drop at the end of the
    // block stamps the elapsed time even if the suite panics.
    let decode = {
        let mut span = rsmem_obs::span("stress.decode", "suite");
        let report = decode::run(
            decode_seed,
            config.decode_budget,
            config.exhaustive_budget,
            config.max_divergences,
        );
        span.record("cases", report.cases);
        span.record("divergences", report.divergences.len() as u64);
        report
    };
    let families = {
        let mut span = rsmem_obs::span("stress.families", "suite");
        let report = families::run(
            families_seed,
            config.families_budget,
            config.max_divergences,
        );
        span.record("cases", report.cases);
        span.record("divergences", report.divergences.len() as u64);
        report
    };
    let arbiter = {
        let mut span = rsmem_obs::span("stress.arbiter", "suite");
        let report =
            arbiter_suite::run(arbiter_seed, config.arbiter_budget, config.max_divergences);
        span.record("cases", report.cases);
        span.record("divergences", report.divergences.len() as u64);
        report
    };
    let xval = {
        let mut span = rsmem_obs::span("stress.xval", "suite");
        let report = xval::run(
            xval_seed,
            config.xval_configs,
            config.xval_trials,
            config.max_divergences,
        );
        span.record("configs", report.configs);
        span.record("divergences", report.divergences.len() as u64);
        report
    };
    let report = StressReport {
        seed: config.seed,
        decode,
        families,
        arbiter,
        xval,
    };
    run_span.record("divergences", report.divergence_count() as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_report() {
        let config = StressConfig {
            seed: 7,
            decode_budget: 300,
            exhaustive_budget: 500,
            arbiter_budget: 100,
            families_budget: 160,
            xval_configs: 1,
            xval_trials: 200,
            max_divergences: 4,
        };
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a, b);
        assert!(a.is_clean(), "{a}");
    }

    #[test]
    fn report_renders() {
        let config = StressConfig {
            seed: 3,
            decode_budget: 100,
            exhaustive_budget: 0,
            arbiter_budget: 50,
            families_budget: 40,
            xval_configs: 0,
            xval_trials: 0,
            max_divergences: 4,
        };
        let report = run(&config);
        let text = report.to_string();
        assert!(text.contains("stress run, seed 0x3"));
        assert!(text.contains("decode suite:"));
        assert!(text.contains("family suite:"));
        assert!(text.contains("divergences:   none"), "{text}");
    }
}
