//! Monte-Carlo campaign runner and statistics.
//!
//! Campaigns are **sharded**: trials are split into fixed-size blocks of
//! [`SHARD_TRIALS`], each with its own RNG seeded deterministically from
//! `(seed, shard_index)`. Shards are independent jobs, so they fan out
//! across `std::thread::scope` workers — and because the shard layout
//! depends only on `(trials, seed)`, never on the worker count, a
//! campaign's report is **bit-identical for every thread count**.
//! Outcome counts are merged by integer addition, which is
//! order-independent.

use crate::metrics::mc_metrics;
use crate::system::{Engine, Layout};
use crate::{SimConfig, SimError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsmem_codes::build;
use rsmem_obs::log::{current_trace_id, trace_scope};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Trials per shard. Small enough that modest campaigns still spread
/// across workers, large enough that per-shard overhead (one RNG seed,
/// one task dispatch) stays negligible.
pub const SHARD_TRIALS: usize = 256;

/// The RNG seed of shard `shard` in a campaign seeded with `seed`:
/// a SplitMix64 mix, so neighbouring shards (and neighbouring campaign
/// seeds) get decorrelated streams.
fn shard_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Classification of one storage-period trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrialOutcome {
    /// The read returned the originally stored data.
    Correct,
    /// The read returned *wrong* data without any indication (decoder
    /// mis-correction that slipped past the arbiter).
    SilentCorruption,
    /// The system reported an unrecoverable error (no output).
    Detected,
}

/// Aggregated results of a Monte-Carlo campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloReport {
    /// Number of trials run.
    pub trials: usize,
    /// Trials that returned correct data.
    pub correct: usize,
    /// Trials with silent data corruption.
    pub silent: usize,
    /// Trials with a detected failure.
    pub detected: usize,
    /// `(silent + detected) / trials` — the empirical analogue of the
    /// Markov models' `P_Fail`.
    pub failure_fraction: f64,
    /// 95% Wilson confidence interval on the failure fraction.
    pub wilson_95: (f64, f64),
    /// `m·(n−k)/k × failure_fraction` — the empirical Eq.-(1) BER.
    pub ber_estimate: f64,
}

impl fmt::Display for MonteCarloReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} trials: {} correct, {} silent, {} detected; \
             P_fail = {:.3e} (95% CI [{:.3e}, {:.3e}]), BER ≈ {:.3e}",
            self.trials,
            self.correct,
            self.silent,
            self.detected,
            self.failure_fraction,
            self.wilson_95.0,
            self.wilson_95.1,
            self.ber_estimate
        )
    }
}

/// 95% Wilson score interval for a binomial proportion.
pub(crate) fn wilson_interval(successes: usize, trials: usize) -> (f64, f64) {
    assert!(trials > 0, "wilson interval of zero trials");
    let z = 1.959_963_984_540_054_f64; // Φ⁻¹(0.975)
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    // At the boundaries the analytic endpoint is exactly 0 (or 1); pin it
    // so floating-point rounding cannot leak an ulp past the boundary.
    let lo = if successes == 0 {
        0.0
    } else {
        (center - half).max(0.0)
    };
    let hi = if successes == trials {
        1.0
    } else {
        (center + half).min(1.0)
    };
    (lo, hi)
}

/// Outcome counts of a (partial) campaign. Merging is integer addition:
/// associative and commutative, so shard completion order cannot affect
/// the final report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OutcomeCounts {
    pub(crate) correct: usize,
    pub(crate) silent: usize,
    pub(crate) detected: usize,
}

impl OutcomeCounts {
    pub(crate) fn record(&mut self, outcome: TrialOutcome) {
        match outcome {
            TrialOutcome::Correct => self.correct += 1,
            TrialOutcome::SilentCorruption => self.silent += 1,
            TrialOutcome::Detected => self.detected += 1,
        }
    }

    pub(crate) fn merge(mut self, other: OutcomeCounts) -> OutcomeCounts {
        self.correct += other.correct;
        self.silent += other.silent;
        self.detected += other.detected;
        self
    }
}

fn summarize(counts: OutcomeCounts, n: usize, k: usize, m: u32) -> MonteCarloReport {
    let trials = counts.correct + counts.silent + counts.detected;
    let failures = counts.silent + counts.detected;
    let failure_fraction = failures as f64 / trials as f64;
    let prefactor = m as f64 * (n - k) as f64 / k as f64;
    MonteCarloReport {
        trials,
        correct: counts.correct,
        silent: counts.silent,
        detected: counts.detected,
        failure_fraction,
        wilson_95: wilson_interval(failures, trials),
        ber_estimate: prefactor * failure_fraction,
    }
}

/// Runs the sharded campaign: workers pull shard indices from an atomic
/// cursor, simulate each shard with its own deterministically-seeded RNG,
/// and the per-worker counts merge commutatively.
///
/// `run_shard_trials` receives the shard's RNG and its trial count and
/// returns the shard's outcome counts. Handing the closure the *whole*
/// shard (rather than one trial at a time) lets campaign entry points
/// play all trials first and then decode every read-back in one batch
/// per shard.
fn run_sharded<F>(trials: usize, seed: u64, threads: usize, run_shard_trials: F) -> OutcomeCounts
where
    F: Fn(&mut StdRng, usize) -> OutcomeCounts + Sync,
{
    let shards = trials.div_ceil(SHARD_TRIALS);
    let metrics = mc_metrics();
    let run_shard = |shard: usize| {
        // Trace level: one span per 256-trial shard is far too chatty
        // for normal logging but exactly the granularity the profiler's
        // latency histogram wants.
        let mut shard_span = rsmem_obs::span_at(rsmem_obs::Level::Trace, "sim.mc", "shard");
        shard_span.record("shard", shard);
        let mut rng = StdRng::seed_from_u64(shard_seed(seed, shard as u64));
        let in_shard = SHARD_TRIALS.min(trials - shard * SHARD_TRIALS);
        let counts = run_shard_trials(&mut rng, in_shard);
        // Publish per shard, not per trial: five relaxed adds per 256
        // trials instead of contended increments inside the trial loop.
        metrics.shards.inc();
        metrics.trials.add(in_shard as u64);
        metrics.correct.add(counts.correct as u64);
        metrics.silent.add(counts.silent as u64);
        metrics.detected.add(counts.detected as u64);
        // Shard completion is also the campaign's time-series sampling
        // point — the freshly-published counters land in the next frame.
        rsmem_obs::timeseries::tick();
        counts
    };

    let workers = threads.max(1).min(shards);
    if workers <= 1 {
        return (0..shards)
            .map(run_shard)
            .fold(OutcomeCounts::default(), OutcomeCounts::merge);
    }
    let cursor = AtomicUsize::new(0);
    // Carry the spawning thread's trace ID and profiler position into
    // the scoped workers so a request's shard-level events stay
    // attributable to it and shard spans nest under the campaign span.
    let trace = current_trace_id();
    let profile_node = rsmem_obs::profile::current_node();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let run_shard = &run_shard;
                scope.spawn(move || {
                    let _trace = trace.map(trace_scope);
                    let _profile = rsmem_obs::profile::attach_scope(profile_node);
                    let mut counts = OutcomeCounts::default();
                    loop {
                        let shard = cursor.fetch_add(1, Ordering::Relaxed);
                        if shard >= shards {
                            break;
                        }
                        counts = counts.merge(run_shard(shard));
                    }
                    counts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("MC shard worker panicked"))
            .fold(OutcomeCounts::default(), OutcomeCounts::merge)
    })
}

/// Attaches a finished campaign's outcome counts (and the implied
/// trials/second) to its span; a no-op when logging is off.
fn record_campaign(span: &mut rsmem_obs::Span, counts: &OutcomeCounts) {
    if !span.active() {
        return;
    }
    span.record("correct", counts.correct);
    span.record("silent", counts.silent);
    span.record("detected", counts.detected);
    if let Some(us) = span.elapsed_us() {
        if us > 0 {
            let total = (counts.correct + counts.silent + counts.detected) as f64;
            let rate = total / (us as f64 / 1e6);
            span.record("trials_per_sec", (rate * 10.0).round() / 10.0);
        }
    }
}

/// Runs `trials` independent simplex storage periods on one thread.
/// Identical to [`run_simplex_threaded`] with any worker count.
///
/// # Errors
///
/// [`SimError::NoTrials`] for `trials == 0`, or configuration errors.
pub fn run_simplex(
    config: &SimConfig,
    trials: usize,
    seed: u64,
) -> Result<MonteCarloReport, SimError> {
    run_simplex_threaded(config, trials, seed, 1)
}

/// Runs `trials` independent simplex storage periods across up to
/// `threads` workers. The report depends only on `(config, trials,
/// seed)` — see the module docs for why the worker count cannot change
/// it.
///
/// # Errors
///
/// See [`run_simplex`].
pub fn run_simplex_threaded(
    config: &SimConfig,
    trials: usize,
    seed: u64,
    threads: usize,
) -> Result<MonteCarloReport, SimError> {
    run_words(config, trials, seed, threads, ("simplex_campaign", 1))
}

/// Runs `trials` independent duplex storage periods on one thread.
/// Identical to [`run_duplex_threaded`] with any worker count.
///
/// # Errors
///
/// See [`run_simplex`].
pub fn run_duplex(
    config: &SimConfig,
    trials: usize,
    seed: u64,
) -> Result<MonteCarloReport, SimError> {
    run_duplex_threaded(config, trials, seed, 1)
}

/// Runs `trials` independent duplex storage periods across up to
/// `threads` workers; the worker count cannot change the report.
///
/// # Errors
///
/// See [`run_simplex`].
pub fn run_duplex_threaded(
    config: &SimConfig,
    trials: usize,
    seed: u64,
    threads: usize,
) -> Result<MonteCarloReport, SimError> {
    run_words(config, trials, seed, threads, ("duplex_campaign", 2))
}

/// Runs a sharded word campaign of `replicas` modules per trial under a
/// `sim.mc` span called `name`. Each shard plays its trials on one
/// engine and reads all of them back in one batch.
fn run_words(
    config: &SimConfig,
    trials: usize,
    seed: u64,
    threads: usize,
    (name, replicas): (&'static str, usize),
) -> Result<MonteCarloReport, SimError> {
    if trials == 0 {
        return Err(SimError::NoTrials);
    }
    config.validate()?;
    let code = build(config.code_params()?)?;
    let mut span = rsmem_obs::span("sim.mc", name);
    span.record("trials", trials);
    span.record("threads", threads);
    let counts = run_sharded(trials, seed, threads, |rng, in_shard| {
        let mut engine = Engine::new(code.as_ref(), config, replicas, Layout::Word);
        for _ in 0..in_shard {
            engine.play(rng);
        }
        engine.classify()
    });
    record_campaign(&mut span, &counts);
    Ok(summarize(counts, config.n, config.k, config.m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::sample_exponential;
    use crate::system::run_trial;
    use rand::Rng;

    type Campaign = fn(&SimConfig, usize, u64) -> Result<MonteCarloReport, SimError>;

    #[test]
    fn wilson_interval_properties() {
        let (lo, hi) = wilson_interval(0, 100);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.05);
        let (lo, hi) = wilson_interval(100, 100);
        assert!(lo > 0.95);
        assert_eq!(hi, 1.0);
        let (lo, hi) = wilson_interval(50, 100);
        assert!(lo < 0.5 && hi > 0.5);
        assert!(hi - lo < 0.25);
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn wilson_needs_trials() {
        let _ = wilson_interval(0, 0);
    }

    #[test]
    fn fault_free_campaign_reports_zero_failures() {
        let report = run_simplex(&SimConfig::rs18_16_baseline(), 25, 7).unwrap();
        assert_eq!(report.correct, 25);
        assert_eq!(report.failure_fraction, 0.0);
        assert_eq!(report.ber_estimate, 0.0);
        assert_eq!(report.wilson_95.0, 0.0);
    }

    #[test]
    fn zero_trials_rejected() {
        assert_eq!(
            run_simplex(&SimConfig::rs18_16_baseline(), 0, 1),
            Err(SimError::NoTrials)
        );
        assert_eq!(
            run_duplex(&SimConfig::rs18_16_baseline(), 0, 1),
            Err(SimError::NoTrials)
        );
    }

    #[test]
    fn reports_are_seed_reproducible() {
        let mut config = SimConfig::rs18_16_baseline();
        config.seu_per_bit_day = 2e-2;
        let a = run_duplex(&config, 50, 11).unwrap();
        let b = run_duplex(&config, 50, 11).unwrap();
        assert_eq!(a, b);
        let c = run_duplex(&config, 50, 12).unwrap();
        // Different seed: almost surely different counts (not guaranteed,
        // but with 50 stochastic trials collisions are negligible for the
        // purpose of this regression guard).
        let _ = c;
    }

    #[test]
    fn ber_estimate_uses_eq1_prefactor() {
        let mut config = SimConfig::rs18_16_baseline();
        config.seu_per_bit_day = 0.5;
        let report = run_simplex(&config, 60, 3).unwrap();
        // RS(18,16), m=8: prefactor 1 → BER == failure fraction.
        assert!((report.ber_estimate - report.failure_fraction).abs() < 1e-15);
    }

    #[test]
    fn sharded_report_is_thread_count_invariant() {
        // 600 trials span 3 shards (256 + 256 + 88): the report must be
        // bit-identical for every worker count, including oversubscribed.
        let mut config = SimConfig::rs18_16_baseline();
        config.seu_per_bit_day = 2e-2;
        let serial = run_duplex_threaded(&config, 600, 42, 1).unwrap();
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                serial,
                run_duplex_threaded(&config, 600, 42, threads).unwrap()
            );
        }
        let simplex_serial = run_simplex_threaded(&config, 600, 42, 1).unwrap();
        assert_eq!(
            simplex_serial,
            run_simplex_threaded(&config, 600, 42, 4).unwrap()
        );
    }

    #[test]
    fn partial_final_shard_counts_every_trial() {
        // Trial count far from a shard multiple: totals must still add up.
        let report = run_simplex(&SimConfig::rs18_16_baseline(), 300, 9).unwrap();
        assert_eq!(report.trials, 300);
        assert_eq!(report.correct + report.silent + report.detected, 300);
    }

    #[test]
    fn batched_campaign_matches_per_trial_decodes() {
        // The campaign entry points batch all of a shard's final decodes.
        // Rebuilding the same shard layout with the scalar per-trial
        // `run_trial` must give bit-identical counts —
        // the batch plane is an optimization, never a behavior change.
        let mut config = SimConfig::rs18_16_baseline();
        config.seu_per_bit_day = 2e-2;
        config.erasure_per_symbol_day = 2e-3;
        let trials = 300usize;
        let seed = 5u64;

        let code = build(config.code_params().unwrap()).unwrap();
        for (replicas, run) in [(1, run_simplex as Campaign), (2, run_duplex)] {
            let mut scalar = OutcomeCounts::default();
            for shard in 0..trials.div_ceil(SHARD_TRIALS) {
                let mut rng = StdRng::seed_from_u64(shard_seed(seed, shard as u64));
                let mut engine = Engine::new(code.as_ref(), &config, replicas, Layout::Word);
                for _ in 0..SHARD_TRIALS.min(trials - shard * SHARD_TRIALS) {
                    scalar.record(run_trial(&mut engine, &mut rng));
                }
            }
            let batched = run(&config, trials, seed).unwrap();
            assert_eq!(
                (batched.correct, batched.silent, batched.detected),
                (scalar.correct, scalar.silent, scalar.detected),
                "{replicas}-replica batch/scalar divergence"
            );
        }
    }

    /// The trials of `crates/sim/tests/scrub_work.rs`'s campaign whose
    /// first scrub tick comes before their first fault. A trial is stored
    /// clean, so such a tick decodes nothing; a store that listed every
    /// word would decode the pair there, two `Clean` outcomes per trial.
    /// Counted from each trial's own draws: its dataword, then the SEU
    /// and permanent-fault clocks of both replicas.
    #[test]
    fn scrub_work_trials_with_a_tick_before_any_fault() {
        let period = 900.0 / 86_400.0;
        let config = SimConfig {
            seu_per_bit_day: 1e-2,
            erasure_per_symbol_day: 1e-2,
            scrub: Some((period, crate::ScrubTiming::Periodic)),
            ..SimConfig::rs18_16_baseline()
        };
        let (trials, seed) = (512, 11);
        let seu_rate = config.seu_per_bit_day * config.m as f64 * config.n as f64;
        let perm_rate = config.erasure_per_symbol_day * config.n as f64;
        let code = build(config.code_params().unwrap()).unwrap();
        let mut before_any_fault = 0;
        for shard in 0..trials / SHARD_TRIALS {
            let mut rng = StdRng::seed_from_u64(shard_seed(seed, shard as u64));
            let mut engine = Engine::new(code.as_ref(), &config, 2, Layout::Word);
            for _ in 0..SHARD_TRIALS {
                let mut probe = rng.clone();
                for _ in 0..config.k {
                    probe.gen_range(0..1usize << config.m);
                }
                let seu = [0; 2].map(|_| sample_exponential(&mut probe, seu_rate));
                let perm = [0; 2].map(|_| sample_exponential(&mut probe, perm_rate));
                let first_fault = seu.into_iter().chain(perm).fold(f64::INFINITY, f64::min);
                before_any_fault += usize::from(period < first_fault.min(config.store_days));
                engine.play(&mut rng);
            }
            engine.classify();
        }
        // A store that listed every word would decode 2 × 493 = 986 more
        // `Clean` outcomes than the 4 501 that `scrub_work.rs` pins.
        assert_eq!(before_any_fault, 493);
    }

    #[test]
    fn shard_seeds_are_decorrelated() {
        let a = shard_seed(1, 0);
        let b = shard_seed(1, 1);
        let c = shard_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn display_is_informative() {
        let report = run_simplex(&SimConfig::rs18_16_baseline(), 5, 1).unwrap();
        let s = report.to_string();
        assert!(s.contains("5 trials"));
        assert!(s.contains("P_fail"));
    }
}
