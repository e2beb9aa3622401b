//! Offline stand-in for the `rand` crate.
//!
//! The build container has no crates.io access, so this shim provides
//! the exact API surface the workspace uses — `StdRng::seed_from_u64`,
//! `Rng::gen`, `Rng::gen_range`, `Rng::gen_bool` — backed by
//! xoshiro256++ (Blackman–Vigna) seeded through SplitMix64. Streams are
//! deterministic per seed, which is the only property the workspace
//! relies on (bit-reproducible Monte Carlo given a seed); the values
//! differ from upstream `rand`'s ChaCha-based `StdRng`.

/// RNG construction from seeds.
pub trait SeedableRng: Sized {
    /// Construct from a 64-bit seed (expanded via SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 step; used to expand seeds and decorrelate streams.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sampling interface (subset of `rand::Rng`).
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Sample a value of `T` from its standard distribution
    /// (`f64` ⇒ uniform in `[0, 1)`).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample uniformly from a range (`a..b` for floats and integers).
    ///
    /// The element type is a separate generic parameter (as in upstream
    /// `rand`) so it can be inferred from how the result is used.
    #[inline]
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        f64::sample(self) < p
    }
}

/// Types samplable from the standard distribution.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with [`Rng::gen_range`], yielding elements of `T`.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for std::ops::Range<f64> {
    #[inline]
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u = f64::sample(rng);
        self.start + (self.end - self.start) * u
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                // Modulo bias is < span/2^64 — negligible for the spans
                // this workspace draws (tens to thousands).
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64 + 1;
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, i32, i64);

/// Namespaced RNG types, mirroring `rand::rngs`.
pub mod rngs {
    use super::{splitmix64, Rng, SeedableRng};

    /// The workspace's standard RNG: xoshiro256++.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // All-zero state is invalid for xoshiro; splitmix64 never
            // produces four zeros from any seed, but guard anyway.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn f64_draw_is_the_high_53_bits_times_two_to_the_minus_53() {
        // stochdag-core's Monte-Carlo kernel tests success on the
        // integer `next_u64() >> 11` against `⌈p·2⁵³⌉`, which equals
        // `gen::<f64>() < p` only if the float is exactly that integer
        // scaled by 2⁻⁵³.
        let mut floats = StdRng::seed_from_u64(11);
        let mut raw = floats.clone();
        for _ in 0..10_000 {
            let u: f64 = floats.gen();
            let m = raw.next_u64() >> 11;
            assert_eq!(u.to_bits(), (m as f64 * 2f64.powi(-53)).to_bits());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..10);
            assert!((3..10).contains(&x));
            let y = rng.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&y));
            let z = rng.gen_range(2usize..=4);
            assert!((2..=4).contains(&z));
        }
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }
}
