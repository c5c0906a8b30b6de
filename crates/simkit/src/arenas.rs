//! One malloc arena per core for the fork/join workers.
//!
//! Both threading levels ([`crate::sweep`], [`crate::par`]) run on
//! short-lived scoped threads. glibc's malloc hands a thread that
//! allocates while every arena is held a fresh arena, up to eight per
//! core, and an arena keeps its freed memory resident up to its trim
//! threshold, which grows to twice the largest buffer handed back to the
//! OS (a replay's per-job arrays are over a megabyte). So a process kept
//! as many arenas as its workers ever overlapped, each holding a few MB,
//! and its peak RSS followed how the bursts happened to overlap: on a
//! 2-core host, 40 passes of a 12-cell `small_2y` campaign ended between
//! 40 and 45 MB of peak RSS over a 17 MB live peak. Capped at one arena
//! per core, the same passes end at 24–26 MB run after run.

use std::sync::Once;

/// Cap malloc's arena count at the core count, once per process, before
/// the first fan-out spawns workers (arenas that already exist stay).
/// A no-op off glibc.
pub(crate) fn cap_per_core() {
    static CAP: Once = Once::new();
    CAP.call_once(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        set_arena_max(cores);
    });
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn set_arena_max(arenas: usize) {
    use std::ffi::c_int;
    /// glibc's `M_ARENA_MAX` parameter number (`<malloc.h>`).
    const M_ARENA_MAX: c_int = -8;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    let arenas = c_int::try_from(arenas).unwrap_or(c_int::MAX);
    // SAFETY: `mallopt` takes two integers and only updates malloc's own
    // tunables under malloc's lock; it touches no Rust-owned memory.
    unsafe {
        mallopt(M_ARENA_MAX, arenas);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn set_arena_max(_arenas: usize) {}
