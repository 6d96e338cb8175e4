//! Seeded input generators. Every key and request stream the benchmark
//! sends is a pure function of the `--seed` argument, so one seed always
//! produces the same inputs and the program under test sees only them.

use fol_vm::Word;

/// SplitMix64: a tiny, well-mixed, seedable 64-bit generator.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// A generator whose stream is determined by `seed` alone.
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// A derived, independent stream for one purpose (`tag`) of one seed, so
/// adding a consumer never shifts another consumer's inputs.
pub fn stream(seed: u64, tag: u64) -> SplitMix {
    let mut mix = SplitMix::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    SplitMix::new(mix.next_u64())
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank drawn from `rng`.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `n` uniform non-negative 40-bit keys: fresh (distinct) with
/// overwhelming probability, spread evenly over every bucket count.
pub fn uniform_keys(rng: &mut SplitMix, n: usize) -> Vec<Word> {
    (0..n).map(|_| (rng.next_u64() >> 24) as Word).collect()
}

/// `n` keys drawn Zipf(`s`) from a fixed population of `distinct` keys.
/// Rank `r` maps to a seeded random key value, so the popular keys land
/// in unrelated buckets.
pub fn zipf_keys(rng: &mut SplitMix, n: usize, distinct: usize, s: f64) -> Vec<Word> {
    let population = uniform_keys(rng, distinct);
    let zipf = Zipf::new(distinct, s);
    (0..n).map(|_| population[zipf.sample(rng)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(4096, 1.1);
        let mut rng = SplitMix::new(7);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count();
        let tail = draws.iter().filter(|&&r| r == 4095).count();
        assert!(top > 1000, "rank 0 drawn {top} times");
        assert!(tail < 20, "rank 4095 drawn {tail} times");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix::new(3);
        assert!((0..10_000).all(|_| rng.below(10) < 10));
    }
}
