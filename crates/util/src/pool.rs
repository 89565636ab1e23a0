//! Scoped fan-out: a fixed number of threads, results in input order.
//!
//! MonSTer fans work out in two hot places: the Redfish client (1868 BMC
//! requests per sweep) and the TSDB's batched read path (one plan per
//! dashboard request, cut into runs of whole queries). Both are built on
//! [`scope_parts`]: part 0 runs on the calling thread, the rest on scoped
//! threads that borrow the caller's data and are joined before the call
//! returns, so no state outlives it.
//!
//! Deliberately simple — no work stealing, no resident workers — because
//! the workloads are embarrassingly parallel and determinism matters for
//! the reproduction harness.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

thread_local! {
    static SPAWNED: Cell<u64> = const { Cell::new(0) };
}

/// Threads the *calling* thread has spawned through this module since it
/// started. Per-thread so a test can bound the spawns of the call it makes
/// (`after - before`) while sibling tests fan out beside it.
// kept: the spawn count the read-path and codec tests bound
pub fn spawned_by_this_thread() -> u64 {
    SPAWNED.with(Cell::get)
}

/// `std::thread::available_parallelism()`, asked once: the call reads the
/// affinity mask and cgroup files every time, which a per-query caller
/// cannot afford.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `f(0)` … `f(parts - 1)` concurrently and return the results in part
/// order: part 0 on the calling thread, the others on `parts - 1` scoped
/// threads. `parts <= 1` spawns nothing. A panicking part propagates.
pub fn scope_parts<R, F>(parts: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if parts <= 1 {
        return (0..parts).map(f).collect();
    }
    SPAWNED.with(|c| c.set(c.get() + (parts - 1) as u64));
    thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (1..parts).map(|p| s.spawn(move || f(p))).collect();
        let mut out = Vec::with_capacity(parts);
        out.push(f(0));
        for h in handles {
            out.push(h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        out
    })
}

/// A fixed number of workers mapping a function over a slice.
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// Create a pool descriptor with `workers` threads (the calling thread
    /// is one of them; the rest are spawned per
    /// [`scope_map`](Self::scope_map) call).
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        ThreadPool { workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `f` to every item of `items` using the pool, returning results
    /// in input order. Items are distributed dynamically (workers claim the
    /// next index from a shared cursor), so long-running items do not
    /// convoy short ones.
    pub fn scope_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // Relaxed: the cursor hands out indices and publishes nothing else;
        // results reach the caller through the joins in `scope_parts`.
        let next = AtomicUsize::new(0);
        let claimed = scope_parts(self.workers.min(items.len()), |_| {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break done };
                done.push((i, f(item)));
            }
        });
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in claimed.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots.into_iter().map(|s| s.expect("every index is claimed exactly once")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<i32> = (0..100).collect();
        let out = pool.scope_map(&items, |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = ThreadPool::new(4);
        let out: Vec<i32> = pool.scope_map(&[] as &[i32], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_still_completes() {
        let pool = ThreadPool::new(1);
        let before = spawned_by_this_thread();
        let out = pool.scope_map(&["a", "bb", "ccc"], |s| s.len());
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(spawned_by_this_thread(), before, "one worker is the caller itself");
    }

    #[test]
    fn actually_uses_multiple_threads() {
        // A barrier only all eight workers together can pass: each worker
        // claims one of the first eight items and waits there.
        let pool = ThreadPool::new(8);
        let barrier = std::sync::Barrier::new(8);
        let before = spawned_by_this_thread();
        let items: Vec<usize> = (0..64).collect();
        let out = pool.scope_map(&items, |&i| {
            if i < 8 {
                barrier.wait();
            }
            i
        });
        assert_eq!(out, items);
        assert_eq!(spawned_by_this_thread() - before, 7, "the caller is the eighth worker");
    }

    #[test]
    fn parts_run_in_order_slots_and_propagate_panics() {
        assert_eq!(scope_parts(3, |p| p * 10), vec![0, 10, 20]);
        assert!(scope_parts(0, |p| p).is_empty());
        let caught = std::panic::catch_unwind(|| {
            scope_parts(2, |p| assert!(p == 0, "part one fails"));
        });
        assert!(caught.is_err());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        ThreadPool::new(0);
    }
}
