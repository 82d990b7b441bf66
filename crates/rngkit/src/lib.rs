//! In-tree deterministic randomness.
//!
//! The workspace builds hermetically — no crates.io — so the external
//! `rand` crate is replaced by this minimal, auditable PRNG kit. It
//! provides exactly the API slice the repository uses:
//!
//! - [`StdRng`]: a splitmix64-seeded **xoshiro256++** generator
//!   (Blackman & Vigna), constructed via
//!   [`SeedableRng::seed_from_u64`];
//! - the [`Rng`] trait with `gen`, `gen_range`, `gen_bool`,
//!   `fill_bytes`;
//! - [`seq::SliceRandom`] with `choose`, `choose_weighted`, `shuffle`.
//!
//! Every generator here is deterministic given its seed; nothing reads
//! OS entropy. That is a feature: all tables and figures of the paper
//! reproduction regenerate bit-identically (see EXPERIMENTS.md), and the
//! audit surface is ~300 lines of plain Rust.

pub mod rngs;
pub mod seq;

pub use rngs::StdRng;

/// Splitmix64 step — used to expand a 64-bit seed into xoshiro state.
/// (Vigna's recommended seeding procedure.)
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a (64-bit) offset basis: the hash of the empty input.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a (64-bit) over `bytes` — the workspace's one checksum and
/// name-hash definition (segment spills, the disguise journal, PIR
/// record tags, SMC transcripts, fault-plan sites, property-test seeds).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash `h` over more `bytes`, so a checksum over
/// several fields needs no concatenated buffer:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(&[a, b].concat())`.
#[inline]
pub fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Construction of a generator from a 64-bit seed.
///
/// Mirrors the `rand::SeedableRng::seed_from_u64` entry point so that
/// swapping the external crate for this one is a one-line import change.
pub trait SeedableRng: Sized {
    /// Builds a deterministic generator from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a generator's raw 64-bit
/// output (the `rand` `Standard` distribution, specialised to what the
/// workspace needs).
pub trait Sample: Sized {
    /// Draws one uniform value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_sample_uint {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            #[inline]
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_sample_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            #[inline]
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_sample_int!(i8, i16, i32, i64, isize);

impl Sample for u128 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Sample for i128 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        u128::sample(rng) as i128
    }
}

impl Sample for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range. Panics on empty ranges.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as $u).wrapping_sub(lo as $u).wrapping_add(1);
                if span == 0 {
                    // Full domain.
                    return <$t as Sample>::sample(rng);
                }
                lo.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}
impl_range_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
                i8 => u64, i16 => u64, i32 => u64, i64 => u64, isize => u64);

impl SampleRange<u128> for core::ops::Range<u128> {
    #[inline]
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> u128 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + uniform_below_u128(rng, self.end - self.start)
    }
}

impl SampleRange<i128> for core::ops::Range<i128> {
    #[inline]
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> i128 {
        assert!(self.start < self.end, "gen_range: empty range");
        let span = (self.end as u128).wrapping_sub(self.start as u128);
        self.start
            .wrapping_add(uniform_below_u128(rng, span) as i128)
    }
}

impl SampleRange<u128> for core::ops::RangeInclusive<u128> {
    #[inline]
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> u128 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            return u128::sample(rng);
        }
        lo.wrapping_add(uniform_below_u128(rng, span))
    }
}

impl SampleRange<i128> for core::ops::RangeInclusive<i128> {
    #[inline]
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> i128 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
        if span == 0 {
            return i128::sample(rng);
        }
        lo.wrapping_add(uniform_below_u128(rng, span) as i128)
    }
}

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// Unbiased uniform draw from `[0, span)` (`span == 0` means the full
/// 64-bit domain) via bitmask rejection.
#[inline]
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    let mask = u64::MAX >> (span - 1).leading_zeros();
    loop {
        let v = rng.next_u64() & mask;
        if v < span {
            return v;
        }
    }
}

#[inline]
fn uniform_below_u128<R: Rng + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return u128::sample(rng) & (span - 1);
    }
    let mask = u128::MAX >> (span - 1).leading_zeros();
    loop {
        let v = u128::sample(rng) & mask;
        if v < span {
            return v;
        }
    }
}

/// The generator interface (the `rand::Rng` slice the workspace uses).
pub trait Rng {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// One uniform value of type `T` (`f64` is uniform in `[0, 1)`).
    #[inline]
    fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// One uniform value from `range` (half-open or inclusive).
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0,1]");
        self.gen::<f64>() < p
    }

    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = StdRng::seed_from_u64(43).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // xoshiro256++ with state {1,2,3,4}: first outputs from the
        // reference C implementation (Blackman & Vigna).
        let mut r = StdRng::from_state([1, 2, 3, 4]);
        assert_eq!(r.next_u64(), 41943041);
        assert_eq!(r.next_u64(), 58720359);
        assert_eq!(r.next_u64(), 3588806011781223);
    }

    #[test]
    fn fnv1a_reference_vectors_and_extension() {
        // Published FNV-1a 64-bit test vectors (Fowler/Noll/Vo).
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn unit_f64_is_in_range_and_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..10_000).map(|_| r.gen::<f64>()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..2000 {
            let v = r.gen_range(10..20u64);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&w));
            let x = r.gen_range(0..3usize);
            assert!(x < 3);
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut r = StdRng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn full_domain_inclusive_range_works() {
        let mut r = StdRng::seed_from_u64(13);
        // Must not hang or panic on the degenerate full-span case.
        let _ = r.gen_range(0..=u64::MAX);
        let _ = r.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut r = StdRng::seed_from_u64(17);
        let hits = (0..20_000).filter(|_| r.gen_bool(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn fill_bytes_fills_everything() {
        let mut r = StdRng::seed_from_u64(19);
        let mut buf = [0u8; 37];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn u128_sampling_uses_both_halves() {
        let mut r = StdRng::seed_from_u64(23);
        let v: u128 = r.gen();
        assert!(
            v >> 64 != 0 || {
                let w: u128 = r.gen();
                w >> 64 != 0
            }
        );
    }
}
