//! The host-speed probe: fixed work that calls none of the repository's
//! code, timed before every untraced pass. On a shared host the speed of
//! the machine drifts by a fifth or more from one minute to the next, and
//! a pass's wall time drifts with it; the same pass measured in probe
//! times does not (README.md, "Host-speed probe").

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

use crate::workload::SHARDS;

/// Table sizes, in `u64` entries, of the memory-bound (4 MiB) and the
/// cache-resident (32 KiB) phases.
const MEMORY_SLOTS: usize = 1 << 19;
const CACHE_SLOTS: usize = 1 << 12;
/// Keys the heap holds before each push also pops the smallest.
const HEAP_KEYS: usize = 4096;
/// Steps of each table-and-heap phase and of the compute phase.
const HEAP_STEPS: u64 = 400_000;
const COMPUTE_STEPS: u64 = 4_000_000;

/// Wall time of one probe: [`SHARDS`] threads, as many as a pass runs at
/// once, each doing the same fixed work.
pub fn probe() -> f64 {
    let started = Instant::now();
    thread::scope(|scope| {
        for salt in 0..SHARDS as u64 {
            scope.spawn(move || black_box(work(black_box(salt))));
        }
    });
    started.elapsed().as_secs_f64()
}

/// A slowdown of the host does not hit every kind of work alike, so the
/// probe mixes three: table-and-heap work over a table larger than a
/// core's caches, the same over one that fits in them, and a dependent
/// chain of integer and floating-point arithmetic.
fn work(salt: u64) -> u64 {
    table_and_heap(salt, MEMORY_SLOTS) ^ table_and_heap(salt, CACHE_SLOTS) ^ arithmetic(salt)
}

/// Random updates of a fresh table of `slots` entries (a power of two)
/// and a bounded min-heap of keys. The table is allocated on every call:
/// a table kept for the whole run sits on the same physical pages
/// throughout, and on this kind of host whole runs then probe a third
/// slower or faster than others.
fn table_and_heap(salt: u64, slots: usize) -> u64 {
    let mut x = xorshift_seed(salt);
    let mut table = vec![0u64; slots];
    let mut heap = BinaryHeap::with_capacity(2 * HEAP_KEYS);
    let mut acc = 0u64;
    for i in 0..HEAP_STEPS {
        x = xorshift(x);
        let slot = (x as usize) & (slots - 1);
        table[slot] = table[slot].wrapping_add(i);
        heap.push(Reverse(x >> 20));
        if heap.len() > HEAP_KEYS {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
    }
    acc ^ table[(acc as usize) & (slots - 1)]
}

fn arithmetic(salt: u64) -> u64 {
    let mut x = xorshift_seed(salt);
    let mut f = 1.0f64;
    for _ in 0..COMPUTE_STEPS {
        x = xorshift(x);
        f = f * 0.999_999 + (x >> 40) as f64 * 1e-9;
        if x & 7 == 0 {
            f += 1.0;
        }
    }
    x ^ f.to_bits()
}

fn xorshift_seed(salt: u64) -> u64 {
    0x9E37_79B9_7F4A_7C15 ^ salt
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}
