//! Event timing shared by the word and array simulators: exponential
//! inter-arrival draws, scrub scheduling and idle-tick skipping.

use crate::config::ScrubTiming;
use rand::Rng;

/// Samples an exponential inter-arrival time with the given rate
/// (events per day). Returns `f64::INFINITY` for rate 0.
pub(crate) fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate_per_day: f64) -> f64 {
    debug_assert!(rate_per_day >= 0.0);
    if rate_per_day == 0.0 {
        return f64::INFINITY;
    }
    // Inverse-CDF with u in (0, 1]: −ln(u)/rate. gen::<f64>() ∈ [0,1);
    // use 1−u to exclude ln(0).
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).ln() / rate_per_day
}

/// The time of the scrub after one at `now`: `now + period` for a
/// periodic clock, `now` plus an exponential draw of mean `period` for an
/// exponential one, never for no scrubbing.
pub(crate) fn schedule_scrub<R: Rng + ?Sized>(
    rng: &mut R,
    now: f64,
    scrub: Option<(f64, ScrubTiming)>,
) -> f64 {
    match scrub {
        None => f64::INFINITY,
        Some((period, ScrubTiming::Periodic)) => now + period,
        Some((period, ScrubTiming::Exponential)) => now + sample_exponential(rng, 1.0 / period),
    }
}

/// Where a scrub clock stands after the idle ticks are skipped.
///
/// Called after a scrub that left every module clean, with the next tick
/// `next_tick` already scheduled. Until the next fault, every scrub
/// would find only clean modules and do nothing, so a periodic clock
/// can jump over each tick before `until` (the earliest pending fault,
/// or the horizon). It takes the same `t += period` additions as the
/// tick-by-tick loop, so the tick times stay bit-identical. The strict
/// `<` leaves a tick that ties with `until` to the caller's own tie
/// rule. An exponential clock is left as it is: each of its intervals
/// is a draw from the random stream the faults share, so skipping
/// ticks would move every later draw.
pub(crate) fn skip_idle_ticks(
    next_tick: f64,
    scrub: Option<(f64, ScrubTiming)>,
    until: f64,
) -> f64 {
    let Some((period, ScrubTiming::Periodic)) = scrub else {
        return next_tick;
    };
    let mut t = next_tick;
    while t < until {
        t += period;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_sample_mean_is_reciprocal_rate() {
        let mut rng = StdRng::seed_from_u64(7);
        let rate = 4.0;
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(&mut rng, rate))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 0.25).abs() < 0.01,
            "sample mean {mean} far from 0.25"
        );
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(sample_exponential(&mut rng, 0.0), f64::INFINITY);
    }

    #[test]
    fn idle_ticks_are_skipped_only_for_periodic_scrubs() {
        let periodic = Some((0.25, ScrubTiming::Periodic));
        // The same additions as stepping tick by tick.
        let mut t = 0.1;
        while t < 1.3 {
            t += 0.25;
        }
        assert_eq!(skip_idle_ticks(0.1, periodic, 1.3), t);
        // A tick at `until` is left to the event loop.
        assert_eq!(skip_idle_ticks(0.5, periodic, 0.75), 0.75);
        assert_eq!(skip_idle_ticks(0.5, periodic, 0.5), 0.5);
        let exponential = Some((0.25, ScrubTiming::Exponential));
        assert_eq!(skip_idle_ticks(0.1, exponential, 1.3), 0.1);
        assert_eq!(skip_idle_ticks(f64::INFINITY, None, 1.3), f64::INFINITY);
    }

    #[test]
    fn samples_are_positive() {
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..1000 {
            let s = sample_exponential(&mut rng, 100.0);
            assert!(s > 0.0 && s.is_finite());
        }
    }
}
