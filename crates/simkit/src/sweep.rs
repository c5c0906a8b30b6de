//! Deterministic parallel parameter sweeps.
//!
//! Per the hpc-parallel guides, sweeps fan out over Rayon's global pool with
//! `par_iter`, while preserving *input order* of results (so downstream
//! tables are stable regardless of thread scheduling). Each cell receives a
//! deterministic [`RngHub`] derived from the sweep's root seed and the cell
//! index, so a sweep is reproducible at any thread count.
//!
//! # The two-level threading model
//!
//! This module is the **outer** level: fan-out *across* runs (sweep cells,
//! Monte-Carlo replications, stress suites). The **inner** level is
//! [`crate::par`]: fork/join *inside* one run across world-generation
//! phases that draw from independent named RNG streams. The levels compose
//! freely because both are structured (scoped fork/join, no detached
//! tasks) and both are deterministic at any thread count:
//!
//! * results depend only on `(params, root_seed)` — never on scheduling —
//!   so `RAYON_NUM_THREADS=1` reproduces a parallel run bit-for-bit;
//! * an outer sweep that already saturates the machine still nests inner
//!   forks safely: scoped threads don't wait on a shared pool, so nesting
//!   can never deadlock. It *can* oversubscribe — with a pool size of
//!   `P = rayon::current_num_threads()`, the outer sweep runs at most `P`
//!   cells at once and each cell's inner `par::sharded_map`/`join` calls
//!   spawn up to `P` short-lived workers each, so the transient thread
//!   count is O(P²) regardless of cell count. The OS timeshares them; to
//!   bound the total, cap the pool via `RAYON_NUM_THREADS`;
//! * batch entry points (`greener-core`'s ablations / stress suites) go
//!   through [`run_seeded`], making the outer level's seeding explicit
//!   even for cells that derive their workload from the scenario's own
//!   seed (paired comparisons pass the *same* scenario seed to every cell
//!   and ignore the per-cell hub; independent-replication designs use it).
//!
//! # The campaign layer above the sweep
//!
//! `greener-core`'s `campaign` module sits on top of this module as the
//! *experiment-batch* level: a declarative manifest (base scenario + named
//! axes × values + seed ranges) expands through [`gridn_indices`] into an
//! ordered plan of cells with stable ids, the plan is partitioned into
//! contiguous shards, each shard runs independently (fanning out across
//! threads via [`run`], each cell replaying through the aggregates-only
//! observation fast path, with worlds reused across cells whose
//! world-inputs fingerprints match), and the per-shard serialized
//! aggregate artifacts are merged back in cell-id order. The merge rule is
//! a standing invariant: the merged report is **bit-identical for every
//! shard count and every `RAYON_NUM_THREADS`**, because each cell's result
//! is a pure function of its scenario, shards partition the plan, and the
//! merge orders by cell id — never by completion order. The campaign axis
//! in `greener-core::equivalence` pins sharded/merged execution against
//! straight per-cell runs.
//!
//! # The fleet layer between the levels
//!
//! `greener-core`'s fleet layer (multi-site runs behind a routing tier)
//! slots *between* the two levels without adding a third threading
//! regime. A fleet run is one sweep cell from the outer level's point of
//! view; inside it, the inner level's primitives are reused twice —
//! fleet world generation forks the shared trace against a
//! [`crate::par::sharded_map`] over per-site environments (each site's
//! weather/grid generators draw from that site's own named streams), and
//! after a **sequential** routing pass splits the trace, per-site replays
//! fan out through `sharded_map` again, one independent single-site
//! engine per slot. The determinism contract is unchanged: routing is a
//! pure sequential function of `(fleet, world)`, replays share nothing
//! mutable, and results land in site-index order — so fleet reports are
//! bit-identical at any thread count, pinned the same way campaign
//! merges are.

use crate::rng::RngHub;
use rayon::prelude::*;

/// Run `f` over every parameter in parallel, preserving input order.
pub fn run<P, R, F>(params: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    params.par_iter().map(f).collect()
}

/// Run `f` over every parameter with a per-cell deterministic RNG hub.
pub fn run_seeded<P, R, F>(params: &[P], root_seed: u64, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P, RngHub) -> R + Sync,
{
    let root = RngHub::new(root_seed);
    params
        .par_iter()
        .enumerate()
        .map(|(i, p)| f(i, p, root.child(i as u64)))
        .collect()
}

/// Monte-Carlo replication: run `f` for `n` replications, each with an
/// independent hub, and collect the per-replication results in order.
pub fn replicate<R, F>(n: usize, root_seed: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, RngHub) -> R + Sync,
{
    let root = RngHub::new(root_seed);
    (0..n)
        .into_par_iter()
        .map(|i| f(i, root.child(i as u64)))
        .collect()
}

/// Row-major index tuples for an N-dimensional grid with axis lengths
/// `dims` — the single source of cartesian-product order in this
/// workspace: the **first** axis is outermost (slowest), the **last** is
/// innermost (fastest), exactly like nested `for` loops in declaration
/// order. [`gridn`] is defined over it, `greener-core`'s campaign and
/// fleet plan expanders walk it to assign stable cell indices, and the
/// historical `grid2`/`grid3` tuple wrappers survive only as test-side
/// shims cross-checking the same walk.
///
/// `dims` containing a zero yields an empty product; an empty `dims`
/// yields the one empty tuple (the nullary product).
pub fn gridn_indices(dims: &[usize]) -> Vec<Vec<usize>> {
    if dims.is_empty() {
        return vec![Vec::new()];
    }
    let total: usize = dims.iter().product();
    if total == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(total);
    let mut idx = vec![0usize; dims.len()];
    loop {
        out.push(idx.clone());
        // Odometer increment, last axis fastest.
        let mut k = dims.len() - 1;
        loop {
            idx[k] += 1;
            if idx[k] < dims[k] {
                break;
            }
            idx[k] = 0;
            if k == 0 {
                return out;
            }
            k -= 1;
        }
    }
}

/// Cartesian product of N homogeneous axes, row-major (first axis
/// outermost). This is the N-ary generalization manifest-driven sweeps
/// expand through; use it (or [`gridn_indices`] for heterogeneous axes)
/// in every call site — the fixed-arity `grid2`/`grid3` wrappers are
/// test-only shims now.
pub fn gridn<T: Clone>(axes: &[Vec<T>]) -> Vec<Vec<T>> {
    let dims: Vec<usize> = axes.iter().map(Vec::len).collect();
    gridn_indices(&dims)
        .into_iter()
        .map(|ix| {
            ix.iter()
                .zip(axes)
                .map(|(&i, axis)| axis[i].clone())
                .collect()
        })
        .collect()
}

/// Inclusive linearly spaced axis with `n ≥ 2` points.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-only shim of the retired two-axis tuple product: every
    /// in-tree call site migrated onto [`gridn`]/[`gridn_indices`]; this
    /// survives purely to cross-check the index walk against the
    /// historical fixed-arity definition.
    fn grid2<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
        gridn_indices(&[a.len(), b.len()])
            .into_iter()
            .map(|ix| (a[ix[0]].clone(), b[ix[1]].clone()))
            .collect()
    }

    /// Test-only shim of the retired three-axis tuple product (see
    /// [`grid2`]).
    fn grid3<A: Clone, B: Clone, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
        gridn_indices(&[a.len(), b.len(), c.len()])
            .into_iter()
            .map(|ix| (a[ix[0]].clone(), b[ix[1]].clone(), c[ix[2]].clone()))
            .collect()
    }

    #[test]
    fn run_preserves_order() {
        let params: Vec<u64> = (0..64).collect();
        let out = run(&params, |&p| p * 2);
        assert_eq!(out, params.iter().map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn seeded_cells_are_reproducible_and_distinct() {
        use rand::Rng;
        let params = vec![(), (), (), ()];
        let a = run_seeded(&params, 99, |_, _, hub| hub.stream("x").gen::<u64>());
        let b = run_seeded(&params, 99, |_, _, hub| hub.stream("x").gen::<u64>());
        assert_eq!(a, b);
        // Cells differ from one another.
        assert!(a.windows(2).all(|w| w[0] != w[1]));
        // Different root seed changes everything.
        let c = run_seeded(&params, 100, |_, _, hub| hub.stream("x").gen::<u64>());
        assert_ne!(a, c);
    }

    #[test]
    fn replicate_is_order_stable() {
        let a = replicate(16, 7, |i, hub| (i, hub.root()));
        for (i, (idx, _)) in a.iter().enumerate() {
            assert_eq!(i, *idx);
        }
        let b = replicate(16, 7, |i, hub| (i, hub.root()));
        assert_eq!(a, b);
    }

    #[test]
    fn grids_are_row_major() {
        let g = grid2(&[1, 2], &["a", "b", "c"]);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], (1, "a"));
        assert_eq!(g[2], (1, "c"));
        assert_eq!(g[3], (2, "a"));
        let g3 = grid3(&[1], &[2, 3], &[4, 5]);
        assert_eq!(g3, vec![(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)]);
    }

    #[test]
    fn gridn_indices_degenerate_cases() {
        // Nullary product: one empty tuple.
        assert_eq!(gridn_indices(&[]), vec![Vec::<usize>::new()]);
        // Any zero-length axis empties the product.
        assert!(gridn_indices(&[2, 0, 3]).is_empty());
        // One axis: the identity walk.
        assert_eq!(gridn_indices(&[3]), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn gridn_matches_nested_loops() {
        let axes = vec![vec!["a", "b"], vec!["x", "y", "z"]];
        let got = gridn(&axes);
        let mut want = Vec::new();
        for p in &axes[0] {
            for q in &axes[1] {
                want.push(vec![*p, *q]);
            }
        }
        assert_eq!(got, want);
        // grid2/grid3 are defined over the same index walk.
        let g2 = grid2(&axes[0], &axes[1]);
        for (t, v) in g2.iter().zip(&got) {
            assert_eq!(vec![t.0, t.1], *v);
        }
    }

    #[test]
    fn linspace_endpoints() {
        let xs = linspace(100.0, 250.0, 4);
        assert_eq!(xs.len(), 4);
        assert!((xs[0] - 100.0).abs() < 1e-12);
        assert!((xs[3] - 250.0).abs() < 1e-12);
        assert!((xs[1] - 150.0).abs() < 1e-12);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// `gridn_indices` is the row-major (lexicographic) walk of the
            /// index space: its length is the product of the axis lengths
            /// and the tuple at flat position `i` is the mixed-radix
            /// decomposition of `i` (last axis fastest).
            #[test]
            fn gridn_indices_is_row_major(dims in proptest::collection::vec(1usize..5, 1..5)) {
                let grid = gridn_indices(&dims);
                let total: usize = dims.iter().product();
                prop_assert_eq!(grid.len(), total);
                for (flat, tuple) in grid.iter().enumerate() {
                    prop_assert_eq!(tuple.len(), dims.len());
                    // Mixed-radix decomposition of the flat index.
                    let mut rem = flat;
                    for (k, &d) in dims.iter().enumerate().rev() {
                        prop_assert_eq!(tuple[k], rem % d);
                        rem /= d;
                    }
                    prop_assert_eq!(rem, 0);
                }
            }

            /// `gridn` agrees with chaining the fixed-arity products.
            #[test]
            fn gridn_agrees_with_grid3(
                a in proptest::collection::vec(0u8..100, 1..4),
                b in proptest::collection::vec(0u8..100, 1..4),
                c in proptest::collection::vec(0u8..100, 1..4),
            ) {
                let axes = vec![a.clone(), b.clone(), c.clone()];
                let n = gridn(&axes);
                let fixed = grid3(&a, &b, &c);
                prop_assert_eq!(n.len(), fixed.len());
                for (v, (x, y, z)) in n.iter().zip(fixed) {
                    prop_assert_eq!(v.as_slice(), &[x, y, z]);
                }
            }
        }
    }
}
