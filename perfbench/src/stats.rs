//! Deterministic hashing, seeded randomness and order statistics.

use rsmem_stress::rng::SplitMix64;

/// Incremental FNV-1a (64-bit). Hashes results into fingerprints that
/// are stable across platforms, thread counts and runs.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the exact bit pattern of `v`.
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Folds a count.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The stress harness's SplitMix64 with numbered streams and the
/// continuous draws the workloads need. Every workload input is drawn
/// from one of these, seeded from `--seed`, so a seed names an input set
/// exactly.
#[derive(Debug, Clone)]
pub struct Rng(SplitMix64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`; distinct streams
    /// of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(SplitMix64::new(
            seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
        ));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.uniform(lo.ln(), hi.ln()).exp()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0.below_usize(n)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        self.0.shuffle(items);
    }
}

/// A uniform random sample of at most [`Reservoir::CAPACITY`] items from
/// a stream (Vitter's algorithm R). Keeps the benchmark's own memory
/// constant however many operations a run completes, so peak memory
/// measures the program rather than the sample buffers.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    items: Vec<T>,
    seen: u64,
    rng: Rng,
}

impl<T> Reservoir<T> {
    /// Items kept; quantiles of this many samples are exact to well
    /// under a percent.
    pub const CAPACITY: usize = 1 << 14;

    /// An empty reservoir whose replacement choices are drawn from
    /// `stream` of a fixed seed.
    pub fn new(stream: u64) -> Self {
        Reservoir {
            items: Vec::new(),
            seen: 0,
            rng: Rng::new(0x5EED_5A3D, stream),
        }
    }

    /// Offers one item.
    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < Self::CAPACITY {
            self.items.push(item);
        } else {
            let slot = self.rng.next_u64() % self.seen;
            if let Some(kept) = self.items.get_mut(slot as usize) {
                *kept = item;
            }
        }
    }

    /// Items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

/// The `q`-quantile of a sample, interpolating linearly between order
/// statistics; `0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartiles.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(iqr(&xs), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
        let mut rng = Rng::new(9, 0);
        for _ in 0..1000 {
            let x = rng.log_uniform(1e-5, 3e-5);
            assert!((1e-5..3e-5).contains(&x));
        }
    }

    #[test]
    fn reservoir_is_bounded_and_uniform() {
        let mut r = Reservoir::new(0);
        let n = 10 * Reservoir::<f64>::CAPACITY as u64;
        for i in 0..n {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), n);
        assert_eq!(r.items().len(), Reservoir::<f64>::CAPACITY);
        // A uniform sample of 0..n has its median near n/2.
        let m = median(r.items()) / n as f64;
        assert!((0.48..0.52).contains(&m), "{m}");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
