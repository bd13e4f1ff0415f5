#![warn(missing_docs)]

//! Deterministic, dependency-free randomness and a tiny property-test
//! harness.
//!
//! The workspace builds and tests fully offline; external registries are
//! unreachable in the environments this repository targets. This crate
//! replaces the `rand` and `proptest` dev-dependencies with:
//!
//! * [`Rng`] — an xorshift128+ generator (seeded through splitmix64) with
//!   bias-free integer ranges, bools, picks and shuffles. Identical output
//!   on every platform and every run for a given seed.
//! * [`check`] — a fixed-case property runner: `cases` deterministic seeds
//!   are derived from the property name, and a failing case re-raises the
//!   original panic payload prefixed with the case index and seed so the
//!   failure reproduces with a one-line unit test.
//!
//! ```
//! use pao_ptest::{check, Rng};
//!
//! check("addition_commutes", 64, |rng: &mut Rng| {
//!     let a = rng.gen_range(-1000i64..1000);
//!     let b = rng.gen_range(-1000i64..1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

/// Splitmix64 step — used for seeding and seed derivation.
#[must_use]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xorshift128+ pseudo-random generator.
///
/// Not cryptographic; statistical quality is ample for test-case and
/// workload generation. The stream is fixed forever for a given seed —
/// generated benchmarks are reproducible across machines and releases.
#[derive(Debug, Clone)]
pub struct Rng {
    s0: u64,
    s1: u64,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let s0 = splitmix64(&mut sm);
        let mut s1 = splitmix64(&mut sm);
        if s0 == 0 && s1 == 0 {
            s1 = 1; // xorshift state must not be all-zero
        }
        Rng { s0, s1 }
    }

    /// The next raw 64-bit value.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// Uniform value in `[0, span)` for `span >= 1`, bias-free via
    /// rejection sampling. `span == 2^64` is represented as `0`.
    fn below(&mut self, span: u128) -> u64 {
        debug_assert!(span > 0 && span <= (1u128 << 64));
        if span == 1u128 << 64 {
            return self.next_u64();
        }
        let span64 = span as u64;
        // Largest multiple of `span` that fits in u64, as an exclusive cap.
        let limit = u64::MAX - (u64::MAX % span64 + 1) % span64;
        loop {
            let x = self.next_u64();
            if x <= limit {
                return x % span64;
            }
        }
    }

    /// Uniform integer in `range` (half-open `a..b` or inclusive `a..=b`),
    /// for the integer types implementing [`SampleRange`].
    ///
    /// # Panics
    ///
    /// Panics on an empty range, like `rand`.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Out {
        let (lo, hi) = range.bounds();
        assert!(lo <= hi, "gen_range called with an empty range");
        let span = (hi - lo + 1) as u128;
        // `below(span) < span = hi - lo + 1`, so `lo + below(span) <= hi`
        // always fits; degrade to `hi` rather than panic regardless.
        lo.checked_add(i128::from(self.below(span)))
            .map_or_else(|| R::cast(hi), R::cast)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // 53-bit fraction comparison keeps this exact and portable.
        let threshold = (p * (1u64 << 53) as f64) as u64;
        (self.next_u64() >> 11) < threshold
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics when the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.gen_range(0..items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

/// Integer ranges accepted by [`Rng::gen_range`].
pub trait SampleRange {
    /// The produced integer type.
    type Out;
    /// Inclusive `(low, high)` bounds of the range.
    fn bounds(&self) -> (i128, i128);
    /// Narrows a sampled value back to the output type.
    fn cast(v: i128) -> Self::Out;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Out = $t;
            #[allow(clippy::cast_lossless, clippy::cast_possible_wrap)]
            fn bounds(&self) -> (i128, i128) {
                (self.start as i128, self.end as i128 - 1)
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn cast(v: i128) -> $t { v as $t }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Out = $t;
            #[allow(clippy::cast_lossless, clippy::cast_possible_wrap)]
            fn bounds(&self) -> (i128, i128) {
                (*self.start() as i128, *self.end() as i128)
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn cast(v: i128) -> $t { v as $t }
        }
    )*};
}

impl_sample_range!(i32, i64, u8, u32, u64, usize);

/// FNV-1a hash of a name — stable seed derivation for [`check`].
#[must_use]
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The deterministic seed of case `i` of property `name` (exposed so a
/// failing case can be replayed in isolation: `Rng::new(case_seed(..))`).
#[must_use]
pub fn case_seed(name: &str, case: u32) -> u64 {
    let mut sm = fnv1a(name) ^ (u64::from(case) << 32 | u64::from(case));
    splitmix64(&mut sm)
}

/// Runs `prop` against `cases` deterministic random cases.
///
/// On a failing case the original panic payload is re-raised (assert
/// messages survive) after printing the property name, case index and seed
/// to stderr.
///
/// # Panics
///
/// Re-raises the first failing case's panic.
pub fn check<F>(name: &str, cases: u32, mut prop: F)
where
    F: FnMut(&mut Rng),
{
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut rng = Rng::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!("property `{name}` failed at case {case}/{cases} (seed {seed:#018x})");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(-17i64..23);
            assert!((-17..23).contains(&v));
            let u = rng.gen_range(0usize..=4);
            assert!(u <= 4);
            let w = rng.gen_range(5u32..6);
            assert_eq!(w, 5);
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = Rng::new(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn full_u64_range_works() {
        let mut rng = Rng::new(3);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..64 {
            distinct.insert(rng.gen_range(0u64..=u64::MAX));
        }
        assert!(distinct.len() > 60);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = Rng::new(0).gen_range(5i64..5);
    }

    #[test]
    fn bool_probabilities_are_sane() {
        let mut rng = Rng::new(4);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn check_runs_all_cases() {
        let mut ran = 0;
        check("counter", 17, |_| ran += 1);
        assert_eq!(ran, 17);
    }

    #[test]
    #[should_panic(expected = "boom 4")]
    fn check_preserves_panic_payload() {
        let mut n = 0;
        check("fails_eventually", 10, |_| {
            n += 1;
            assert!(n < 4, "boom {n}");
        });
    }

    #[test]
    fn case_seeds_differ_across_names_and_cases() {
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
    }
}
