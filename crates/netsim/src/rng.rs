//! Small deterministic PRNGs for jitter and synthetic workloads.
//!
//! The simulation must be bit-reproducible across runs and platforms, so we
//! ship our own fixed-algorithm generators rather than relying on `rand`'s
//! unspecified default: [`SplitMix64`] (seeding / cheap streams),
//! [`Xoshiro256`] (xoshiro256**, the general-purpose workhorse) and
//! [`keyed_unit`] (a draw that is a pure function of what it decides).

/// SplitMix64: a tiny 64-bit generator, primarily used to expand a single
/// `u64` seed into the state of larger generators.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A uniform float in [0, 1) that is a pure function of `words`: each
/// word is folded into one [`SplitMix64`] step.  A draw keyed by the
/// identity of what it decides needs no stream, so it does not depend on
/// how many draws came before it.  For one word `k` it is the first
/// output of `SplitMix64::new(k)`.
pub fn keyed_unit(words: &[u64]) -> f64 {
    unit(words.iter().fold(0, |h, &w| SplitMix64::new(h ^ w).next_u64()))
}

/// The top 53 bits of `bits` as a uniform double in [0, 1).
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256** — fast, high-quality, deterministic.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Create from a seed, expanding it via SplitMix64 (the reference
    /// seeding procedure recommended by the xoshiro authors).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid; SplitMix64 cannot produce four zero
        // outputs in a row for any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Xoshiro256 { s }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// Uniform integer in [0, bound). Panics if bound is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method: unbiased.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in [lo, hi).
    pub fn next_f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::new(42);
        let mut b = Xoshiro256::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn a_keyed_draw_depends_on_its_key_alone() {
        let draw = |seq: u64| keyed_unit(&[7, 0, 1, seq, 0]);
        assert_eq!(draw(3), draw(3), "the same key, the same draw");
        assert_ne!(draw(3), draw(4));
        assert_ne!(keyed_unit(&[7, 0, 1, 3, 0]), keyed_unit(&[7, 0, 1, 3, 1]), "each attempt draws afresh");
        assert_eq!(keyed_unit(&[42]), unit(SplitMix64::new(42).next_u64()), "one word is one SplitMix64 output");
        let n = 20_000;
        let below = (0..n).filter(|&seq| keyed_unit(&[1, 2, 3, seq]) < 0.2).count();
        assert!((below as f64 / n as f64 - 0.2).abs() < 0.01, "uniform: {below} of {n} below 0.2");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Xoshiro256::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely to be identity");
    }
}
