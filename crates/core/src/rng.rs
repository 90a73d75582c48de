//! Deterministic PRNGs: a sequential SplitMix64 for property tests and
//! benches, and a splittable counter-based generator for the sampling
//! confidence solver.
//!
//! The build environment has no access to a crates registry, so `proptest`
//! and `rand` are unavailable; these seeded generators give the test suite
//! reproducible randomized inputs with zero dependencies. Failures print the
//! case seed so a failing input can be replayed exactly.

/// The SplitMix64 increment (the golden-ratio constant).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output permutation: a bijective avalanche over one 64-bit
/// word. Shared by the sequential [`Rng`] and the counter-based
/// [`CounterRng`].
#[inline]
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step as a pure function: hash a 64-bit word into a
/// well-distributed 64-bit value. Used to fold identifiers into stream keys
/// for [`CounterRng`] (`h = mix64(h ^ word)` is an adequate, fully
/// deterministic content hash).
#[inline]
pub fn mix64(z: u64) -> u64 {
    avalanche(z.wrapping_add(GOLDEN))
}

/// SplitMix64: a small, fast, well-distributed 64-bit PRNG.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        avalanche(self.state)
    }

    /// Uniform value in `0..n` (n must be positive). Modulo bias is
    /// negligible for the small ranges used in tests.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `(0, 1]` (never zero, so it can be used as a weight).
    pub fn unit_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() <= p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// A splittable, counter-based deterministic generator: every draw is a pure
/// function of `(seed, stream, draw index)`.
///
/// Unlike the sequential [`Rng`], no state is threaded between independent
/// pieces of work, or even between draws: each logical stream (in the
/// confidence solver, one stream per connected descriptor group, keyed on
/// the group's *content*) is read by position, so the values it produces do
/// not depend on how many other streams exist, in what order they are read,
/// or which thread reads them. That is what makes morsel-parallel sampling
/// byte-identical for every thread count — the same property the rest of
/// the executor guarantees (see [`crate::parallel`]).
///
/// Construction hashes `(seed, stream)` into a key; draw `i` is the
/// SplitMix64 output for state `key + (i+1)·golden`, i.e. each stream is an
/// ordinary SplitMix64 sequence starting at a decorrelated seed.
#[derive(Clone, Copy, Debug)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// The stream identified by `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        CounterRng {
            key: mix64(seed ^ mix64(stream)),
        }
    }

    /// Draw `index` of this stream.
    pub fn nth(&self, index: u64) -> u64 {
        avalanche(
            self.key
                .wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN)),
        )
    }

    /// Draw `index` of this stream as a uniform float in `(0, 1]` (never
    /// zero; same mapping as [`Rng::unit_f64`]). The sampling confidence
    /// solver picks a Karp–Luby lane's descriptor this way.
    pub fn unit_at(&self, index: u64) -> f64 {
        ((self.nth(index) >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Sixty-four independent Bernoulli(`p`) draws, one per bit, read from
    /// `*pos` on (which is advanced past the words used).
    ///
    /// Lane `ℓ`'s uniform is the binary fraction whose `i`-th digit is bit
    /// `ℓ` of the `i`-th word read, and the lane is set iff that fraction is
    /// below `p` — which is decided at the first digit where the two differ,
    /// so the digits of `p` are compared most significant first against
    /// successive words until no lane is still tied: one word for `p = ½`,
    /// about seven (`log₂ 64 + 1.3`) in general, never more than 64. `p` is
    /// taken as `⌊p · 2⁶⁴⌋ / 2⁶⁴` — exact for `p ≥ 2⁻¹¹`, short by less than
    /// `2⁻⁶⁴` below — and a lane is set with exactly that probability.
    /// `p ≤ 0` (and NaN) gives no lane and `p ≥ 1` every lane, without
    /// reading the stream.
    pub fn bernoulli64(&self, pos: &mut u64, p: f64) -> u64 {
        if p >= 1.0 {
            return u64::MAX;
        }
        if p.is_nan() || p <= 0.0 {
            return 0;
        }
        let mut digits = (p * 18_446_744_073_709_551_616.0) as u64;
        let (mut set, mut tied) = (0, u64::MAX);
        while tied != 0 && digits != 0 {
            let word = self.nth(*pos);
            *pos += 1;
            if digits >> 63 == 1 {
                // `p` has a 1 here: lanes that drew 0 are below it.
                set |= tied & !word;
                tied &= word;
            } else {
                // `p` has a 0 here: lanes that drew 1 are above it.
                tied &= !word;
            }
            digits <<= 1;
        }
        // Lanes still tied when `p` runs out of digits equal it: not below.
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            let v = a.range(3, 7);
            assert!((3..=7).contains(&v));
            let f = a.unit_f64();
            assert!(f > 0.0 && f <= 1.0);
        }
    }

    #[test]
    fn rng_stream_is_pinned() {
        // The sequential stream is load-bearing: generated test inputs and
        // bench workloads (and with them the committed bench baseline)
        // depend on it byte-for-byte.
        let mut r = Rng::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn counter_rng_is_a_pure_function_of_indices() {
        let r = CounterRng::new(7, 99);
        // A stream is the SplitMix64 sequence from its key, in any access
        // order.
        let mut seq = Rng::new(r.key);
        let forward: Vec<u64> = (0..10).map(|_| seq.next_u64()).collect();
        let backward: Vec<u64> = (0..10).rev().map(|i| r.nth(i)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
        assert_eq!(r.nth(3), CounterRng::new(7, 99).nth(3));
        // Streams and seeds decorrelate.
        assert_ne!(
            CounterRng::new(7, 99).nth(0),
            CounterRng::new(7, 100).nth(0)
        );
        assert_ne!(CounterRng::new(7, 99).nth(0), CounterRng::new(8, 99).nth(0));
    }

    #[test]
    fn bernoulli64_lanes_are_fair_independent_and_frugal() {
        let r = CounterRng::new(11, 5);
        const WORDS: u64 = 1 << 16; // 4.2 million lanes per p
        let tiny = 0.5f64.powi(20);
        for p in [0.5, 0.25, 1.0 / 3.0, 0.1, 1.0 - tiny, tiny] {
            let (mut pos, mut set, mut agree) = (0, 0u64, 0u64);
            for _ in 0..WORDS {
                let w = r.bernoulli64(&mut pos, p);
                set += u64::from(w.count_ones());
                // Lanes ℓ and ℓ + 1 agree: 63 pairs a word.
                agree += u64::from((!(w ^ (w >> 1)) << 1).count_ones());
            }
            let lanes = (64 * WORDS) as f64;
            let sigma = (p * (1.0 - p) / lanes).sqrt();
            let freq = set as f64 / lanes;
            assert!((freq - p).abs() <= 5.0 * sigma, "p = {p}: {freq}");
            // Independent lanes agree with probability q = p² + (1 − p)²;
            // neighbouring pairs share a lane, hence the covariance term.
            let pairs = (63 * WORDS) as f64;
            let q = p * p + (1.0 - p) * (1.0 - p);
            let cov = p.powi(3) + (1.0 - p).powi(3) - q * q;
            let sigma = ((q * (1.0 - q) + 2.0 * cov) / pairs).sqrt();
            let freq = agree as f64 / pairs;
            assert!((freq - q).abs() <= 5.0 * sigma, "p = {p}: agree {freq}");
            // One word decides p = ½; otherwise the tie halves per word.
            let words = pos as f64 / WORDS as f64;
            if p == 0.5 {
                assert_eq!(pos, WORDS);
            } else {
                assert!((2.0..9.0).contains(&words), "p = {p}: {words} words");
            }
        }
        // The ends read nothing.
        let mut pos = 7;
        assert_eq!(r.bernoulli64(&mut pos, 0.0), 0);
        assert_eq!(r.bernoulli64(&mut pos, -1.0), 0);
        assert_eq!(r.bernoulli64(&mut pos, f64::NAN), 0);
        assert_eq!(r.bernoulli64(&mut pos, 1.0), u64::MAX);
        assert_eq!(r.bernoulli64(&mut pos, 1.5), u64::MAX);
        assert_eq!(pos, 7);
    }

    #[test]
    fn counter_rng_unit_in_range() {
        let r = CounterRng::new(1, 2);
        for i in 0..1000 {
            let f = r.unit_at(i);
            assert!(f > 0.0 && f <= 1.0);
        }
    }
}
