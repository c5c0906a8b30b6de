//! Structured in-run parallelism for world generation.
//!
//! The sweep layer ([`crate::sweep`]) fans out *across* runs; this module
//! is the second level of the two-level threading model: fork/join *inside*
//! one run, across phases that draw from independent named RNG streams
//! (see [`crate::rng::RngHub`]). There is one schedule: every result must
//! be bit-identical at any worker count, and `RAYON_NUM_THREADS=1` is its
//! sequential form, which golden tests and CI pin.
//!
//! Thread count follows rayon's global-pool rules (`RAYON_NUM_THREADS`
//! override, else `available_parallelism()`); with one worker both helpers
//! degrade to plain sequential calls on the calling thread.

/// Fork/join two closures. With a single worker they run sequentially on
/// the calling thread, `a` first. The results are identical at every
/// worker count **iff** the closures share no mutable state, which is the
/// caller's contract: each side must draw only from its own named RNG
/// streams.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    crate::arenas::cap_per_core();
    rayon::join(a, b)
}

/// Fork/join three closures (two nested [`join`]s: `a ∥ (b ∥ c)`).
pub fn join3<A, B, C, RA, RB, RC>(a: A, b: B, c: C) -> (RA, RB, RC)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    C: FnOnce() -> RC + Send,
    RA: Send,
    RB: Send,
    RC: Send,
{
    let (ra, (rb, rc)) = join(a, || join(b, c));
    (ra, rb, rc)
}

/// Map `f` over shard indices `0..shards` across the worker pool,
/// returning results in index order. The output is identical at every
/// worker count as long as `f(i)` depends only on `i`.
pub fn sharded_map<R, F>(shards: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    use rayon::prelude::*;
    crate::arenas::cap_per_core();
    (0..shards).into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngHub;
    use rand::rngs::StdRng;
    use rand::Rng;

    #[test]
    fn join_matches_sequential() {
        assert_eq!(join(|| 1 + 1, || 2 + 2), (2, 4));
    }

    #[test]
    fn join3_returns_all_three() {
        let (a, b, c) = join3(|| "a", || "b", || "c");
        assert_eq!((a, b, c), ("a", "b", "c"));
    }

    #[test]
    fn sharded_map_preserves_index_order() {
        let par = sharded_map(64, |i| i * i);
        let seq: Vec<usize> = (0..64).map(|i| i * i).collect();
        assert_eq!(par, seq);
        assert_eq!(par[7], 49);
    }

    #[test]
    fn sharded_map_empty() {
        let out: Vec<u32> = sharded_map(0, |_| unreachable!("no shards"));
        assert!(out.is_empty());
    }

    /// The generators' sharding convention — each shard deriving its own
    /// `hub.stream_indexed(name, i)` inside `sharded_map` — is
    /// schedule-independent.
    #[test]
    fn sharded_rng_streams_are_schedule_independent() {
        let hub = RngHub::new(123);
        let draw = |i: usize| -> [u64; 4] {
            let mut rng: StdRng = hub.stream_indexed("shard-test", i as u64);
            std::array::from_fn(|_| rng.gen())
        };
        let par = sharded_map(16, draw);
        let seq: Vec<[u64; 4]> = (0..16).map(draw).collect();
        assert_eq!(par, seq);
        // Shards draw from distinct streams.
        assert_ne!(par[0], par[1]);
    }
}
