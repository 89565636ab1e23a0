//! The workspace's one counting `#[global_allocator]`.
//!
//! A test binary that links this crate (a `[dev-dependencies]` entry and a
//! `use`) allocates through [`CountingAlloc`], which forwards every call to
//! [`System`] and tallies it into whichever windows are open:
//!
//! * [`counted`] — what **the calling thread** asks for while a closure
//!   runs. Sibling tests allocate beside the window without showing up in
//!   it, so nothing serializes; use it wherever the code under test stays
//!   on the thread that calls it.
//! * [`all_threads`] — a guard over the one process-wide window, for code
//!   that fans out. A test holds the guard from its first line (its lock
//!   is in here, so tests of one binary that take it run one at a time)
//!   and counts with [`AllThreads::counted`].
//!
//! Windows do not nest.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// What a window saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub blocks: usize,
    /// Bytes those calls asked for.
    pub bytes: usize,
    /// The largest single request.
    pub largest: usize,
    /// Most bytes live at once, over what was live when the window opened
    /// (what it frees of earlier allocations counts against it).
    pub peak_live: isize,
    /// Bytes live when the window closed, over the same base.
    pub live: isize,
}

/// One window's tallies. Atomics throughout, so the per-thread windows and
/// the process-wide one are the same code; every access is `Relaxed` — a
/// tally publishes nothing but itself.
struct Window {
    open: AtomicBool,
    blocks: AtomicUsize,
    bytes: AtomicUsize,
    largest: AtomicUsize,
    live: AtomicIsize,
    peak_live: AtomicIsize,
}

impl Window {
    const fn new() -> Window {
        Window {
            open: AtomicBool::new(false),
            blocks: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            largest: AtomicUsize::new(0),
            live: AtomicIsize::new(0),
            peak_live: AtomicIsize::new(0),
        }
    }

    /// A request for `size` bytes that changes what is live by `delta`.
    fn asked(&self, size: usize, delta: isize) {
        if self.open.load(Relaxed) {
            self.blocks.fetch_add(1, Relaxed);
            self.bytes.fetch_add(size, Relaxed);
            self.largest.fetch_max(size, Relaxed);
            let live = self.live.fetch_add(delta, Relaxed) + delta;
            self.peak_live.fetch_max(live, Relaxed);
        }
    }

    fn freed(&self, size: usize) {
        if self.open.load(Relaxed) {
            self.live.fetch_sub(size as isize, Relaxed);
        }
    }

    fn counted<T>(&self, f: impl FnOnce() -> T) -> (T, Counts) {
        self.blocks.store(0, Relaxed);
        self.bytes.store(0, Relaxed);
        self.largest.store(0, Relaxed);
        self.live.store(0, Relaxed);
        self.peak_live.store(0, Relaxed);
        self.open.store(true, Relaxed);
        let out = f();
        self.open.store(false, Relaxed);
        let counts = Counts {
            blocks: self.blocks.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            largest: self.largest.load(Relaxed),
            peak_live: self.peak_live.load(Relaxed),
            live: self.live.load(Relaxed),
        };
        (out, counts)
    }
}

thread_local! {
    static THIS_THREAD: Window = const { Window::new() };
}
static EVERY_THREAD: Window = Window::new();
static EVERY_THREAD_LOCK: Mutex<()> = Mutex::new(());

/// `f` against both windows. `try_with`: the allocator also runs while a
/// thread's locals go away.
fn tally(f: impl Fn(&Window)) {
    let _ = THIS_THREAD.try_with(&f);
    f(&EVERY_THREAD);
}

/// The allocator this crate installs.
pub struct CountingAlloc;

// SAFETY: every call is forwarded to `System` unchanged. The tallies are
// atomics in a const-initialized thread-local without a destructor and in a
// static: touching them allocates nothing and is valid whenever the
// allocator can be called.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(|w| w.asked(layout.size(), layout.size() as isize));
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(|w| w.asked(layout.size(), layout.size() as isize));
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(|w| w.freed(layout.size()));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(|w| w.asked(new_size, new_size as isize - layout.size() as isize));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f`, counting what the calling thread asks of the allocator.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    THIS_THREAD.with(|w| w.counted(f))
}

/// The process-wide window, held: see [`all_threads`].
pub struct AllThreads {
    _lock: MutexGuard<'static, ()>,
}

/// Wait for the process-wide window. Hold the guard for the whole test:
/// until it drops, no other holder's fan-out lands in a window of this one.
pub fn all_threads() -> AllThreads {
    // A holder that panicked failed its own test; the lock guards no data.
    AllThreads { _lock: EVERY_THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner()) }
}

impl AllThreads {
    /// Run `f`, counting what every thread asks of the allocator.
    pub fn counted<T>(&self, f: impl FnOnce() -> T) -> (T, Counts) {
        EVERY_THREAD.counted(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_sees_its_own_thread_and_the_wide_one_every_thread() {
        let wide = all_threads();
        let spawn_and_allocate = || {
            let here = std::hint::black_box(vec![0u8; 1000]);
            let there = std::thread::spawn(|| std::hint::black_box(vec![0u8; 5000]).len());
            there.join().unwrap() + here.len()
        };
        let (len, this) = counted(spawn_and_allocate);
        let (_, every) = wide.counted(spawn_and_allocate);
        assert_eq!(len, 6000);
        assert!(this.largest == 1000 && this.bytes < 5000, "{this:?}");
        assert!(every.largest == 5000 && every.bytes >= 6000, "{every:?}");
        assert!(every.blocks > 2 && every.peak_live >= 5000, "{every:?}");

        // Freed inside the window: live returns to where it started.
        let (_, grown) = counted(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(512))));
        assert_eq!((grown.blocks, grown.bytes, grown.peak_live, grown.live), (1, 4096, 4096, 0));
        // Freed what was allocated before it: live goes below.
        let early = vec![1u8; 300];
        assert_eq!(counted(|| drop(early)).1.live, -300);
    }
}
