//! A small, deterministic, dependency-free pseudo-random number generator.
//!
//! The workspace previously depended on the external `rand` crate for suite
//! generation and randomized tests, which made `cargo build` fail in
//! hermetic/offline environments where the registry is unreachable. This
//! crate replaces it with the standard combination of:
//!
//! * **SplitMix64** — seed expansion (one `u64` seed → a full 256-bit
//!   state, guaranteed non-zero), and
//! * **xoshiro256\*\*** — the main generator (Blackman & Vigna), which
//!   passes BigCrush and is the same algorithm family `rand`'s `SmallRng`
//!   uses.
//!
//! Everything is deterministic in the seed and stable across platforms and
//! compiler versions: the generated experiment suites are part of the
//! reproduction's fixtures, so the byte-for-byte stream matters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The workspace-standard deterministic generator (xoshiro256\*\*, seeded
/// via SplitMix64). The name mirrors `rand::rngs::StdRng` so call sites
/// read the same.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

/// One step of the SplitMix64 sequence; also usable standalone for cheap
/// stateless hashing of seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StdRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion, so
    /// nearby seeds still produce uncorrelated streams).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64-bit output (xoshiro256\*\* scrambler).
    #[inline]
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

    /// A uniformly random value of a primitive type ([`Sample`]).
    #[inline]
    pub fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniformly random value in `range` ([`SampleRange`] covers the
    /// integer and float `Range`/`RangeInclusive` types the workspace
    /// uses).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A uniform `f64` in `[0, 1)` (53 random mantissa bits).
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An unbiased integer in `[0, bound)` via Lemire's multiply-shift
    /// rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Rejection zone keeps the multiply-shift exactly uniform.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Runs `n` deterministic randomized test cases: each case gets its own
/// generator derived from `seed` and the case index, so a failure report
/// of "case i" is reproducible in isolation. The replacement for the
/// external `proptest` dependency in this workspace's property tests.
pub fn cases(n: u64, seed: u64, mut f: impl FnMut(u64, &mut StdRng)) {
    for i in 0..n {
        let mut state = seed;
        let base = splitmix64(&mut state) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(base);
        f(i, &mut rng);
    }
}

/// One to three random edits of `input`, for deterministic fuzz loops over
/// parsers: a flipped byte, a deleted span, or an inserted digit run, sign,
/// out-of-range number, whitespace, multi-byte character or invalid UTF-8.
pub fn mutate(input: &[u8], rng: &mut StdRng) -> Vec<u8> {
    const INSERTS: [&[u8]; 12] = [
        b"-",
        b"+",
        b"18446744073709551616",
        b"4294967297",
        b"1e999",
        b"-1e-999",
        b" ",
        b"\n",
        "é".as_bytes(),
        b"\xff",
        b"\xc3",
        b"\xe2\x82",
    ];
    let mut out = input.to_vec();
    for _ in 0..rng.random_range(1..=3usize) {
        let at = rng.random_range(0..=out.len());
        match rng.below(4) {
            0 if at < out.len() => out[at] ^= rng.random_range(1..=255u32) as u8,
            1 if at < out.len() => {
                let end = (at + rng.random_range(1..=8usize)).min(out.len());
                out.drain(at..end);
            }
            2 => {
                let digits = rng.random_range(1..=24usize);
                let run: Vec<u8> = (0..digits).map(|_| b'0' + rng.below(10) as u8).collect();
                out.splice(at..at, run);
            }
            _ => {
                let insert = INSERTS[rng.below(INSERTS.len() as u64) as usize];
                out.splice(at..at, insert.iter().copied());
            }
        }
    }
    out
}

/// Types [`StdRng::random`] can produce.
pub trait Sample {
    /// Draws one uniform value.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Sample for u64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample(rng: &mut StdRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for bool {
    #[inline]
    fn sample(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Sample for f64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> f64 {
        rng.unit_f64()
    }
}

/// Range types [`StdRng::random_range`] accepts.
pub trait SampleRange {
    /// The element type the range yields.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as u64) - (start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + rng.below(span + 1) as $t
            }
        }
    )*};
}

int_range!(u32, u64, usize);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl SampleRange for std::ops::RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range");
        start + rng.unit_f64() * (end - start)
    }
}

impl SampleRange for std::ops::Range<i32> {
    type Output = i32;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> i32 {
        assert!(self.start < self.end, "empty range");
        let span = (self.end as i64 - self.start as i64) as u64;
        (self.start as i64 + rng.below(span) as i64) as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn xoshiro_reference_vector() {
        // xoshiro256** from the canonical all-state-words-known start.
        // Seeded state via SplitMix64(0): the first four outputs of
        // SplitMix64 from state 0 are fixed constants; spot-check the
        // pipeline end-to-end against values computed by the reference C
        // implementations.
        let mut sm = 0u64;
        assert_eq!(splitmix64(&mut sm), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut sm), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let a = rng.random_range(3usize..17);
            assert!((3..17).contains(&a));
            let b = rng.random_range(5u32..=5);
            assert_eq!(b, 5);
            let c = rng.random_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&c));
            let d = rng.random_range(-10i32..-3);
            assert!((-10..-3).contains(&d));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn random_primitives() {
        let mut rng = StdRng::seed_from_u64(13);
        let _: u64 = rng.random();
        let _: u32 = rng.random();
        let _: bool = rng.random();
        let f: f64 = rng.random();
        assert!((0.0..1.0).contains(&f));
    }
}
