//! Data parallelism on `std::thread::scope`: the workspace's one `par`
//! module.
//!
//! Two primitives cover every parallel loop in the repository (the paper's
//! one-time pre-processing of §IV-B/§IV-C and the ray-cast rows):
//!
//! - [`map_ranges`] / [`map`] — split `0..n` into one contiguous range per
//!   worker and return the results in input order. Each worker emits one
//!   buffer for its whole range, so a build allocates a few large vectors
//!   instead of one small one per item.
//! - [`for_each`] — workers drain one shared iterator, so uneven items
//!   (image rows, `chunks_mut` slabs) balance themselves.
//!
//! The worker count is `available_parallelism()`, worked out once per
//! process (the query reads cgroup files, tens of microseconds a time) and
//! never configured; with one worker, or one item, the call is a plain loop
//! on the caller's thread. Output never depends on the worker count as long
//! as the closure's result for an index does not depend on which range the
//! index fell in. A panic in a worker resurfaces in the caller with its
//! original payload.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, ScopedJoinHandle};

fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

fn join<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|payload| resume_unwind(payload))
}

/// Partition `0..n` into contiguous non-empty ranges, one per worker, apply
/// `f` to each range in parallel and return the results in range order
/// (empty when `n == 0`).
pub fn map_ranges<T: Send>(n: usize, f: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
    map_ranges_with(workers(), n, f)
}

pub(crate) fn map_ranges_with<T: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let parts = threads.min(n);
    let part = |k: usize| k * n / parts..(k + 1) * n / parts;
    match parts {
        0 => Vec::new(),
        1 => vec![f(0..n)],
        _ => thread::scope(|s| {
            let f = &f;
            let spawned: Vec<_> = (1..parts).map(|k| s.spawn(move || f(part(k)))).collect();
            let mut out = Vec::with_capacity(parts);
            out.push(f(part(0)));
            out.extend(spawned.into_iter().map(join));
            out
        }),
    }
}

/// `(0..n).map(f).collect()`, computed over [`map_ranges`].
pub fn map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    map_with(workers(), n, f)
}

pub(crate) fn map_with<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut parts =
        map_ranges_with(threads, n, |range| range.map(&f).collect::<Vec<T>>()).into_iter();
    let mut out = parts.next().unwrap_or_default();
    out.reserve_exact(n - out.len());
    parts.for_each(|part| out.extend(part));
    out
}

/// Apply `f` to every item of `iter`, the workers pulling items from it one
/// at a time. Items are *started* in iterator order; nothing is returned,
/// so `f` writes through the item (a `&mut` row, a `chunks_mut` slab).
pub fn for_each<I>(iter: I, f: impl Fn(I::Item) + Sync)
where
    I: Iterator + Send,
    I::Item: Send,
{
    for_each_with(workers(), iter, f)
}

pub(crate) fn for_each_with<I>(threads: usize, iter: I, f: impl Fn(I::Item) + Sync)
where
    I: Iterator + Send,
    I::Item: Send,
{
    let threads = iter.size_hint().1.map_or(threads, |items| threads.min(items));
    if threads <= 1 {
        return iter.for_each(f);
    }
    let queue = Mutex::new(iter);
    // The lock is released before `f` runs, so only a panicking `next()`
    // could poison it — and the iterator is still safe to poll after that.
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let drain = || {
        while let Some(item) = next() {
            f(item);
        }
    };
    thread::scope(|s| {
        let spawned: Vec<_> = (1..threads).map(|_| s.spawn(drain)).collect();
        drain();
        spawned.into_iter().for_each(join);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const THREADS: [usize; 4] = [1, 2, 3, 8];
    const SIZES: [usize; 6] = [0, 1, 2, 7, 64, 1001];

    #[test]
    fn map_ranges_partitions_in_order_without_empty_ranges() {
        for threads in THREADS {
            for n in SIZES {
                let ranges = map_ranges_with(threads, n, |r| r);
                assert_eq!(ranges.len(), threads.min(n), "threads {threads} n {n}");
                let mut next = 0;
                for r in ranges {
                    assert_eq!(r.start, next);
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn map_matches_the_sequential_loop_for_every_worker_count() {
        let f = |i: usize| (i as f64 * 0.37).sin().to_bits() ^ i as u64;
        for n in SIZES {
            let want: Vec<u64> = (0..n).map(f).collect();
            for threads in THREADS {
                assert_eq!(map_with(threads, n, f), want, "threads {threads} n {n}");
            }
        }
    }

    #[test]
    fn for_each_over_chunks_mut_matches_the_sequential_loop() {
        let fill = |(i, chunk): (usize, &mut [u32])| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 1000 + j) as u32;
            }
        };
        for n in SIZES {
            let mut want = vec![0u32; n];
            want.chunks_mut(7).enumerate().for_each(fill);
            for threads in THREADS {
                let mut got = vec![0u32; n];
                for_each_with(threads, got.chunks_mut(7).enumerate(), fill);
                assert_eq!(got, want, "threads {threads} n {n}");
            }
        }
    }

    #[test]
    fn for_each_visits_every_item_once_without_a_size_hint() {
        for threads in THREADS {
            let seen: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            // `from_fn` reports no upper bound, so nothing caps the workers.
            let mut i = 0;
            let unsized_iter = std::iter::from_fn(|| {
                i += 1;
                (i <= 100).then_some(i - 1)
            });
            for_each_with(threads, unsized_iter, |k| {
                seen[k].fetch_add(1, Ordering::Relaxed);
            });
            assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1), "threads {threads}");
        }
    }

    #[test]
    fn worker_panics_surface_in_the_caller_with_their_message() {
        for threads in [2, 3, 8] {
            // Index 63 lands in the last range: a spawned worker, not the caller.
            let err = catch_unwind(|| {
                map_with(threads, 64, |i| assert!(i != 63, "bad item {i}"));
            })
            .expect_err("map must propagate the panic");
            assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("bad item 63"));

            let err = catch_unwind(|| {
                for_each_with(threads, 0..64, |i| assert!(i != 40, "bad row {i}"));
            })
            .expect_err("for_each must propagate the panic");
            assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("bad row 40"));
        }
    }

    #[test]
    fn public_entry_points_use_the_machine_and_agree_with_one_worker() {
        assert!(workers() >= 1);
        assert_eq!(map(100, |i| i * i), map_with(1, 100, |i| i * i));
        let total = AtomicUsize::new(0);
        for_each(1..=100usize, |i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5050);
    }
}
