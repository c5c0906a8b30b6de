//! Named deterministic RNG streams.
//!
//! Every stochastic path in a scenario (weather noise, wind, arrivals, job
//! sizes, user types, …) draws from its own stream derived from one root
//! seed. Streams are independent of *draw order* across subsystems, which is
//! what makes policy comparisons *paired*: two policies simulated from the
//! same root seed see byte-identical weather and workload traces.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// SplitMix64 step — a tiny, high-quality 64-bit mixer used to derive
/// per-stream seeds. (Same constants as the reference implementation.)
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string (stable across platforms and compiles).
/// Used for stream-name seeding here and for content fingerprints (e.g.
/// world-input keys in `greener-core`'s campaign layer) elsewhere.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

/// Streaming [`fnv1a`]: bytes fed in any chunking digest exactly as
/// `fnv1a` over their concatenation. It implements [`fmt::Write`], so a
/// formatted report can be digested as it is written, never materialized
/// as one `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    hash: u64,
}

impl Fnv1a {
    /// A hasher over the empty string (the FNV-1a offset basis).
    pub const fn new() -> Fnv1a {
        Fnv1a {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Fold `bytes` into the digest.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// A hub deriving independent, reproducible RNG streams from one root seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngHub {
    root: u64,
}

impl RngHub {
    /// Create a hub from a root seed.
    pub fn new(root: u64) -> RngHub {
        RngHub { root }
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Seed for the named stream (stable across runs and platforms).
    pub fn seed_for(&self, name: &str) -> u64 {
        splitmix64(self.root ^ fnv1a(name.as_bytes()))
    }

    /// Seed for the named stream with an index (e.g. per user, per month).
    pub fn seed_for_indexed(&self, name: &str, index: u64) -> u64 {
        splitmix64(self.seed_for(name) ^ splitmix64(index.wrapping_add(1)))
    }

    /// A fresh RNG for the named stream.
    pub fn stream(&self, name: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed_for(name))
    }

    /// A fresh RNG for the named stream with an index.
    pub fn stream_indexed(&self, name: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed_for_indexed(name, index))
    }

    /// A derived hub (e.g. per Monte-Carlo replication).
    pub fn child(&self, index: u64) -> RngHub {
        RngHub {
            root: splitmix64(self.root ^ splitmix64(index.wrapping_add(0xA5A5))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic() {
        let hub = RngHub::new(42);
        let a: Vec<u64> = hub
            .stream("weather")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u64> = hub
            .stream("weather")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_are_independent_by_name() {
        let hub = RngHub::new(42);
        let a: u64 = hub.stream("weather").gen();
        let b: u64 = hub.stream("arrivals").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_differ() {
        let hub = RngHub::new(7);
        let s0 = hub.seed_for_indexed("user", 0);
        let s1 = hub.seed_for_indexed("user", 1);
        assert_ne!(s0, s1);
        // And the plain stream differs from index 0.
        assert_ne!(hub.seed_for("user"), s0);
    }

    #[test]
    fn different_roots_differ() {
        assert_ne!(RngHub::new(1).seed_for("x"), RngHub::new(2).seed_for("x"));
    }

    #[test]
    fn children_are_distinct() {
        let hub = RngHub::new(9);
        assert_ne!(hub.child(0).root(), hub.child(1).root());
        assert_ne!(hub.child(0).root(), hub.root());
        // Child derivation is itself deterministic.
        assert_eq!(hub.child(3).root(), hub.child(3).root());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        /// First draws of a stream — enough to distinguish streams, since
        /// equal seeds are the only way StdRng prefixes collide.
        fn prefix(mut rng: rand::rngs::StdRng) -> [u64; 4] {
            std::array::from_fn(|_| rng.gen())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Shard streams are pairwise independent of each other *and*
            /// of the unsharded stream of the same name: no seed (hence no
            /// draw-prefix) collision between `stream(name)` and any
            /// `stream_indexed(name, i)`, or between two shard indices.
            /// This is what makes sharded world generation safe: a shard
            /// can never silently replay the unsharded stream a sequential
            /// code path also consumes.
            #[test]
            fn shard_streams_independent_of_unsharded(
                root in 0u64..u64::MAX,
                i in 0u64..10_000,
                j in 0u64..10_000,
            ) {
                let hub = RngHub::new(root);
                let name = "shard.prop";
                prop_assert_ne!(hub.seed_for(name), hub.seed_for_indexed(name, i));
                // Derivation is deterministic…
                prop_assert_eq!(
                    hub.seed_for_indexed(name, i),
                    hub.seed_for_indexed(name, i),
                );
                // …and distinct across shard indices.
                if i != j {
                    prop_assert_ne!(
                        prefix(hub.stream_indexed(name, i)),
                        prefix(hub.stream_indexed(name, j)),
                    );
                }
                prop_assert_ne!(
                    prefix(hub.stream(name)),
                    prefix(hub.stream_indexed(name, i)),
                );
            }
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors: stream seeding depends on
        // these exact values.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_fnv1a_is_chunking_invariant() {
        use std::fmt::Write;
        let text = "route 3 17 2 5400 8 7ff8000000000000\nfleet \u{e9}\n";
        for split in 0..=text.len() {
            if !text.is_char_boundary(split) {
                continue;
            }
            let mut h = Fnv1a::new();
            h.write_str(&text[..split]).unwrap();
            h.write_bytes(&text.as_bytes()[split..]);
            assert_eq!(h.finish(), fnv1a(text.as_bytes()), "split at {split}");
        }
        let mut h = Fnv1a::default();
        write!(h, "{} {:016x}", 42, 1.5f64.to_bits()).unwrap();
        assert_eq!(h.finish(), fnv1a(b"42 3ff8000000000000"));
    }

    #[test]
    fn splitmix_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = splitmix64(0x1234_5678);
        let b = splitmix64(0x1234_5679);
        let flipped = (a ^ b).count_ones();
        assert!(flipped > 16, "weak diffusion: {flipped} bits flipped");
    }
}
