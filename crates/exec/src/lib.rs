#![forbid(unsafe_code)]
//! Shared parallel-execution core for the Corleone pipeline.
//!
//! Every hot loop in the workspace — pair vectorization, blocking-rule
//! application over the Cartesian product, per-tree forest training,
//! batched prediction, entropy scans, probe scoring — funnels through the
//! primitives here instead of hand-rolled `crossbeam::scope` blocks:
//!
//! * [`par_map`] — chunked data-parallel map with work stealing;
//! * [`par_for_each`] — the side-effect variant;
//! * [`par_split_at_mut`] — in-place fill of a buffer, one disjoint
//!   `&mut` part per task, cut at caller-given split points;
//! * [`par_map_seeded`] — deterministic randomized map: per-item RNG
//!   seeds are drawn *serially* from the parent generator, so results are
//!   byte-identical at any thread count.
//!
//! # Scheduling model
//!
//! Work is split into chunks of a size chosen from the input length and
//! thread count (several chunks per thread, so an expensive straggler
//! chunk does not serialize the tail). Worker threads claim chunks from a
//! shared atomic counter — classic self-scheduling, which steals work
//! naturally: fast threads simply claim more chunks. Outputs land in
//! per-chunk slots keyed by chunk index, so the result order never
//! depends on which thread ran what.
//!
//! # Thread count
//!
//! The caller passes an explicit [`Threads`] budget (sessions own one;
//! see `corleone::RunSession::threads`). `Threads::auto()` resolves to
//! [`std::thread::available_parallelism`]. A budget of 1 runs inline on
//! the caller's thread with zero spawning overhead, which also makes
//! single-threaded runs trivially deterministic.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An explicit parallelism budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(NonZeroUsize);

impl Threads {
    /// Use exactly `n` worker threads (clamped up to 1).
    pub fn new(n: usize) -> Self {
        Threads(NonZeroUsize::new(n.max(1)).expect("max(1) is nonzero"))
    }

    /// Use the machine's available parallelism.
    pub fn auto() -> Self {
        Threads(
            std::thread::available_parallelism()
                .unwrap_or(NonZeroUsize::new(1).expect("1 is nonzero")),
        )
    }

    /// The resolved thread count.
    pub fn get(&self) -> usize {
        self.0.get()
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::auto()
    }
}

impl From<usize> for Threads {
    fn from(n: usize) -> Self {
        Threads::new(n)
    }
}

/// Chunk size giving each thread several chunks to claim, bounded below
/// so tiny items are not swamped by scheduling overhead.
fn chunk_size(len: usize, threads: usize) -> usize {
    const CHUNKS_PER_THREAD: usize = 8;
    let target = len / (threads * CHUNKS_PER_THREAD).max(1);
    target.clamp(1, len.max(1))
}

/// Map `f` over `items` in parallel, preserving input order.
///
/// Falls back to a plain serial loop when the budget is one thread or the
/// input is small enough that spawning would dominate.
pub fn par_map<T, U, F>(threads: Threads, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    indexed_par_map(threads, items.len(), |i| f(&items[i]))
}

/// Apply `f` to every item in parallel; order of side effects is
/// unspecified (use only with independent effects).
pub fn par_for_each<T, F>(threads: Threads, items: &[T], f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    indexed_par_map(threads, items.len(), |i| f(&items[i]));
}

/// Map over `0..len` by index in parallel, preserving index order.
///
/// The most general form: callers that need the index, or that index into
/// several slices at once, use this directly.
pub fn indexed_par_map<U, F>(threads: Threads, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let n_threads = threads.get().min(len.max(1));
    if n_threads <= 1 || len < 2 {
        return (0..len).map(f).collect();
    }

    let chunk = chunk_size(len, n_threads);
    let n_chunks = len.div_ceil(chunk);
    let next_chunk = AtomicUsize::new(0);
    // One slot per chunk; each chunk is claimed by exactly one thread, so
    // slot writes never race. Collected in chunk order afterwards.
    let slots: Vec<std::sync::Mutex<Vec<U>>> =
        (0..n_chunks).map(|_| std::sync::Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| loop {
                let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let start = c * chunk;
                let end = (start + chunk).min(len);
                let out: Vec<U> = (start..end).map(&f).collect();
                *slots[c].lock().unwrap_or_else(|e| e.into_inner()) = out;
            });
        }
    });

    let mut result = Vec::with_capacity(len);
    for slot in slots {
        result.extend(slot.into_inner().unwrap_or_else(|e| e.into_inner()));
    }
    result
}

/// Fill `data` in place, in parallel, cut at the caller's split points:
/// `ends` holds the end offset of each part, non-decreasing, the last one
/// `data.len()` (no parts for empty `data`). `f(p, part)` receives part
/// `p`, `data[ends[p-1]..ends[p]]` (from 0 for `p = 0`), as a disjoint
/// `&mut` slice. Every element is handed to exactly one call.
///
/// The partition is the caller's, never the thread count's, so a
/// deterministic `f` fills `data` identically at every budget. Workers
/// claim parts from a shared counter, as in [`indexed_par_map`].
///
/// # Panics
/// Panics if `ends` is decreasing anywhere or does not end at
/// `data.len()`.
pub fn par_split_at_mut<T, F>(threads: Threads, data: &mut [T], ends: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(ends.last().copied().unwrap_or(0), data.len(), "split points must cover data");
    let mut parts = Vec::with_capacity(ends.len());
    let mut rest = data;
    let mut start = 0;
    for &end in ends {
        assert!(end >= start, "split points must be non-decreasing");
        let (part, tail) = rest.split_at_mut(end - start);
        parts.push(part);
        rest = tail;
        start = end;
    }
    let n_threads = threads.get().min(parts.len());
    if n_threads <= 1 {
        for (p, part) in parts.into_iter().enumerate() {
            f(p, part);
        }
        return;
    }

    // One slot per part; the claim counter hands each index to exactly
    // one thread, which takes the part out of its slot.
    let n_parts = parts.len();
    let slots: Vec<std::sync::Mutex<Option<&mut [T]>>> =
        parts.into_iter().map(|part| std::sync::Mutex::new(Some(part))).collect();
    let next_part = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| loop {
                let p = next_part.fetch_add(1, Ordering::Relaxed);
                if p >= n_parts {
                    break;
                }
                let part = slots[p].lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some(part) = part {
                    f(p, part);
                }
            });
        }
    });
}

/// Deterministic randomized parallel map.
///
/// Draws one `u64` seed per item *serially* from `rng`, then maps in
/// parallel handing `f` a fresh `StdRng` per item. Because the seed
/// stream depends only on the parent generator — never on scheduling —
/// the output is identical at every thread count, including 1.
pub fn par_map_seeded<T, U, F>(threads: Threads, items: &[T], rng: &mut StdRng, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T, &mut StdRng) -> U + Sync,
{
    let seeds: Vec<u64> = (0..items.len()).map(|_| rng.gen()).collect();
    indexed_par_map(threads, items.len(), |i| {
        let mut item_rng = StdRng::seed_from_u64(seeds[i]);
        f(&items[i], &mut item_rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1, 2, 8] {
            let out = par_map(Threads::new(threads), &items, |&x| x * 3 + 1);
            assert_eq!(out.len(), items.len());
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 3 + 1));
        }
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        for len in [0usize, 1, 2, 3] {
            let items: Vec<usize> = (0..len).collect();
            let out = par_map(Threads::new(4), &items, |&x| x + 1);
            assert_eq!(out, (1..=len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_for_each_visits_every_item_once() {
        use std::sync::atomic::AtomicU64;
        let items: Vec<usize> = (0..5_000).collect();
        let sum = AtomicU64::new(0);
        par_for_each(Threads::new(8), &items, |&x| {
            sum.fetch_add(x as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 5_000 * 4_999 / 2);
    }

    #[test]
    fn par_split_at_mut_writes_every_index_exactly_once() {
        // Uneven parts, empty parts, one part, and no parts at all.
        let cases: [&[usize]; 5] =
            [&[], &[1], &[3, 3, 64, 65, 1000], &[500, 1000], &[0, 1000, 1000]];
        for ends in cases {
            let len = ends.last().copied().unwrap_or(0);
            for threads in [1, 2, 8] {
                let mut data = vec![0u32; len];
                par_split_at_mut(Threads::new(threads), &mut data, ends, |p, part| {
                    let start = if p == 0 { 0 } else { ends[p - 1] };
                    assert_eq!(part.len(), ends[p] - start, "part {p} of {ends:?}");
                    for (j, x) in part.iter_mut().enumerate() {
                        *x += (start + j) as u32 + 1;
                    }
                });
                let want: Vec<u32> = (1..=len as u32).collect();
                assert_eq!(data, want, "ends {ends:?}, {threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cover data")]
    fn par_split_at_mut_rejects_split_points_short_of_the_data() {
        par_split_at_mut(Threads::new(1), &mut [0u8; 4], &[2], |_, _| {});
    }

    #[test]
    fn seeded_map_is_thread_count_invariant() {
        let items: Vec<u32> = (0..500).collect();
        let runs: Vec<Vec<u64>> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                let mut rng = StdRng::seed_from_u64(42);
                par_map_seeded(Threads::new(t), &items, &mut rng, |&x, r| {
                    x as u64 ^ r.gen::<u64>()
                })
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn seeded_map_advances_parent_rng_identically() {
        // The parent generator must end in the same state regardless of
        // thread count, so downstream draws stay aligned.
        let items = [0u8; 64];
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        par_map_seeded(Threads::new(1), &items, &mut a, |_, r| r.gen::<u64>());
        par_map_seeded(Threads::new(8), &items, &mut b, |_, r| r.gen::<u64>());
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn threads_auto_is_at_least_one() {
        assert!(Threads::auto().get() >= 1);
        assert_eq!(Threads::new(0).get(), 1);
    }
}
