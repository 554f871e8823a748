//! Scoped-thread fan-out helpers for server-side precomputation.
//!
//! Border-pair precomputation, ArcFlag construction, Landmark distance
//! vectors and HiTi level building all share one shape: thousands of
//! independent single-source searches whose results merge into one
//! aggregate. This module provides the shared machinery:
//!
//! * [`num_threads`] — worker count (`SPAIR_THREADS` overrides the
//!   detected parallelism, which matters for benchmarking and CI);
//! * [`map_reduce_chunked`] — deterministic chunked map-reduce over a
//!   work list: items are split into index-ordered chunks, workers claim
//!   chunks dynamically (work stealing via an atomic cursor), and the
//!   per-chunk partials merge **in chunk order** at an eagerly advanced
//!   merge frontier, so the result is independent of thread scheduling
//!   even for non-commutative merges and at most the in-flight chunks'
//!   partials are alive at once;
//! * [`join`] — two-way fork-join for naturally paired work (e.g. the
//!   forward and reverse Dijkstra of one landmark).
//!
//! Per-worker state (a `DijkstraWorkspace` plus DP buffers) is supplied
//! by the `make_scratch` closure of [`map_reduce_chunked`]: each worker
//! builds its scratch once and reuses it across every chunk it claims,
//! so the per-source loops allocate nothing — the per-thread workspace
//! pool of the precompute pipeline.
//!
//! Everything is plain `std::thread::scope` — the build environment is
//! offline, so this stands in for a rayon pool with the same fan-out /
//! deterministic-reduce discipline (and no extra dependency).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads parallel passes use: the `SPAIR_THREADS`
/// environment variable if set to a positive integer, otherwise the
/// detected available parallelism (1 if detection fails).
pub fn num_threads() -> usize {
    resolve_threads(None)
}

/// Resolves a worker count under the precedence rule shared by every
/// bench binary (through [`crate::certify::Cli`]): an explicit
/// `--threads` flag wins over `SPAIR_THREADS`, which wins over the
/// detected available parallelism. A flag value of 0 counts as "not
/// given" — binaries reject it at parse time.
pub fn resolve_threads(flag: Option<usize>) -> usize {
    resolve_threads_from(
        flag,
        std::env::var("SPAIR_THREADS").ok().as_deref(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    )
}

/// Pure core of [`resolve_threads`], separated so the precedence rule is
/// unit-testable without touching the process environment: a positive
/// `flag` beats a positive-integer `env` string, which beats `detected`
/// (clamped to at least 1). Non-numeric or non-positive `env` values are
/// ignored.
pub fn resolve_threads_from(flag: Option<usize>, env: Option<&str>, detected: usize) -> usize {
    if let Some(n) = flag {
        if n >= 1 {
            return n;
        }
    }
    if let Some(s) = env {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    detected.max(1)
}

/// Runs two closures concurrently and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("parallel::join worker panicked");
        (ra, rb)
    })
}

/// Chunk-ordered merge frontier shared by the workers.
struct MergeFrontier<P> {
    next: usize,
    acc: Option<P>,
}

/// Deterministic chunked map-reduce over `items`.
///
/// The item list is split into at most `threads * chunks_per_thread`
/// contiguous chunks. Each worker owns one `scratch` (built once per
/// worker by `make_scratch`) and repeatedly claims the next unprocessed
/// chunk, folding its items into a fresh partial from `make_partial` via
/// `fold_chunk(scratch, partial, chunk_items, base_index)`.
///
/// Completed partials merge **in chunk order**: after finishing a chunk
/// a worker advances the shared merge frontier over every consecutively
/// completed chunk, so (a) the output never depends on thread
/// scheduling, even for non-commutative merges, and (b) at any moment
/// only the out-of-order-completed partials — bounded by the chunks in
/// flight, ≈ `threads` — are alive, not one per chunk.
///
/// Returns `None` for an empty item list. With `threads <= 1`
/// everything runs inline on the caller's thread (no spawn overhead),
/// which is also the reference order the chunk-ordered merge reproduces.
pub fn map_reduce_chunked<T, S, P>(
    items: &[T],
    threads: usize,
    chunks_per_thread: usize,
    make_scratch: impl Fn() -> S + Sync,
    make_partial: impl Fn() -> P + Sync,
    fold_chunk: impl Fn(&mut S, &mut P, &[T], usize) + Sync,
    merge: impl Fn(&mut P, P) + Sync,
) -> Option<P>
where
    T: Sync,
    P: Send,
{
    if items.is_empty() {
        return None;
    }
    let threads = threads.max(1);
    if threads == 1 {
        let mut scratch = make_scratch();
        let mut partial = make_partial();
        fold_chunk(&mut scratch, &mut partial, items, 0);
        return Some(partial);
    }

    let chunk_count = (threads * chunks_per_thread.max(1)).min(items.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<P>>> = (0..chunk_count).map(|_| Mutex::new(None)).collect();
    let frontier = Mutex::new(MergeFrontier { next: 0, acc: None });

    // Chunk c covers [bounds(c), bounds(c + 1)): even split with the
    // remainder spread over the leading chunks.
    let bounds = |c: usize| -> usize {
        let n = items.len();
        (n * c) / chunk_count
    };

    std::thread::scope(|s| {
        for _ in 0..threads.min(chunk_count) {
            s.spawn(|| {
                let mut scratch = make_scratch();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= chunk_count {
                        break;
                    }
                    let (lo, hi) = (bounds(c), bounds(c + 1));
                    let mut partial = make_partial();
                    fold_chunk(&mut scratch, &mut partial, &items[lo..hi], lo);
                    *slots[c].lock().expect("partial slot poisoned") = Some(partial);
                    // Advance the merge frontier over every consecutive
                    // completed chunk. Each store is followed by a drain
                    // attempt, so the frontier always reaches chunk_count
                    // once all workers are done.
                    let mut f = frontier.lock().expect("merge frontier poisoned");
                    while f.next < chunk_count {
                        let Some(p) = slots[f.next].lock().expect("partial slot poisoned").take()
                        else {
                            break;
                        };
                        match &mut f.acc {
                            None => f.acc = Some(p),
                            Some(acc) => merge(acc, p),
                        }
                        f.next += 1;
                    }
                }
            });
        }
    });

    let f = frontier.into_inner().expect("merge frontier poisoned");
    assert_eq!(f.next, chunk_count, "merge frontier did not drain");
    f.acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn map_reduce_empty_is_none() {
        let out = map_reduce_chunked(
            &[] as &[u32],
            4,
            4,
            || (),
            Vec::<u32>::new,
            |_, p, items, _| p.extend_from_slice(items),
            |a, b| a.extend(b),
        );
        assert!(out.is_none());
    }

    #[test]
    fn map_reduce_preserves_item_order() {
        let items: Vec<u32> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = map_reduce_chunked(
                &items,
                threads,
                4,
                || (),
                Vec::<u32>::new,
                |_, p, chunk, base| {
                    assert_eq!(chunk[0] as usize, base);
                    p.extend_from_slice(chunk);
                },
                |a, b| a.extend(b),
            )
            .unwrap();
            assert_eq!(out, items, "threads={threads}");
        }
    }

    #[test]
    fn map_reduce_base_index_matches_slices() {
        let items: Vec<usize> = (0..97).collect();
        let out = map_reduce_chunked(
            &items,
            5,
            3,
            || (),
            || 0usize,
            |_, p, chunk, base| {
                for (i, &v) in chunk.iter().enumerate() {
                    assert_eq!(v, base + i);
                }
                *p += chunk.len();
            },
            |a, b| *a += b,
        )
        .unwrap();
        assert_eq!(out, items.len());
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // Each worker builds exactly one scratch regardless of how many
        // chunks it claims.
        let items: Vec<u32> = (0..256).collect();
        let scratches = AtomicUsize::new(0);
        let out = map_reduce_chunked(
            &items,
            3,
            8,
            || scratches.fetch_add(1, Ordering::Relaxed),
            || 0usize,
            |_, p, chunk, _| *p += chunk.len(),
            |a, b| *a += b,
        )
        .unwrap();
        assert_eq!(out, items.len());
        assert!(scratches.load(Ordering::Relaxed) <= 3);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn thread_precedence_flag_beats_env_beats_detected() {
        assert_eq!(resolve_threads_from(Some(3), Some("8"), 16), 3);
        assert_eq!(resolve_threads_from(None, Some("8"), 16), 8);
        assert_eq!(resolve_threads_from(None, None, 16), 16);
    }

    #[test]
    fn thread_precedence_ignores_invalid_values() {
        // A zero flag counts as "not given" (binaries reject it earlier).
        assert_eq!(resolve_threads_from(Some(0), Some("8"), 16), 8);
        // Garbage / non-positive env values fall through to detection.
        assert_eq!(resolve_threads_from(None, Some("zero"), 4), 4);
        assert_eq!(resolve_threads_from(None, Some("0"), 4), 4);
        assert_eq!(resolve_threads_from(None, Some(" 2 "), 4), 2);
        // Detection failure clamps to one worker.
        assert_eq!(resolve_threads_from(None, None, 0), 1);
    }
}
