//! Thread-scoped counting allocator.
//!
//! Promoted out of `tests/alloc_budget.rs` so both the allocation
//! budget test and the profiler's per-scope allocation attribution use
//! one implementation. [`CountingAlloc`] defers every memory operation
//! to [`System`] and, when the current thread has called [`arm`],
//! bumps thread-local event/byte counters around allocation entry
//! points (alloc/realloc/alloc_zeroed; frees are not counted — the
//! budget and the attribution both care about allocation *pressure*).
//!
//! The counters are thread-scoped on purpose: only the thread under
//! measurement bumps them, so a test-harness or runtime thread waking
//! up mid-window cannot register as a false positive. Binaries opt in
//! with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: bm_prof::alloc::CountingAlloc = bm_prof::alloc::CountingAlloc;
//! ```
//!
//! and then `bm_prof::alloc::arm()` on the measuring thread, before
//! the profiled run starts: the profiler reads the armed flag once, at
//! `run_begin`. Without the global-allocator registration every counter
//! stays zero and the profiler simply reports no allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Armed only on the measuring thread. `const` init keeps first
    /// access allocation-free, so reading it inside the allocator is
    /// safe.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocation events (alloc/realloc/alloc_zeroed) on this thread.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those events on this thread.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Whether the current thread is the one under measurement. `try_with`
/// because the allocator can be called during thread teardown, after
/// the TLS slot is gone.
fn counting_here() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// Starts counting this thread's allocation events.
pub fn arm() {
    COUNTING.with(|c| c.set(true));
}

/// Stops counting this thread's allocation events (counters keep their
/// values).
pub fn disarm() {
    COUNTING.with(|c| c.set(false));
}

/// Whether [`arm`] was called on this thread.
pub fn is_armed() -> bool {
    counting_here()
}

/// Allocation events counted on this thread so far.
pub fn events() -> u64 {
    EVENTS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes requested by counted allocation events on this thread so far.
pub fn bytes() -> u64 {
    BYTES.try_with(Cell::get).unwrap_or(0)
}

fn note(size: usize) {
    let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

/// Counting wrapper over the system allocator; see the module docs.
pub struct CountingAlloc;

// SAFETY: defers all memory operations to `System`; only adds
// thread-local counter bumps around them, which never allocate
// (const-initialized `Cell`s) and never touch the returned pointers.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            note(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            note(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            note(layout.size());
        }
        System.alloc_zeroed(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: this test crate does not register CountingAlloc as the
    // global allocator, so only the arming/readers are exercised here;
    // the end-to-end counting path is covered by tests/alloc_budget.rs
    // at the workspace root, which does register it.
    #[test]
    fn arming_is_thread_scoped() {
        assert!(!is_armed());
        arm();
        assert!(is_armed());
        let other = std::thread::spawn(is_armed).join().unwrap();
        assert!(!other, "arming must not leak to other threads");
        disarm();
        assert!(!is_armed());
    }

    #[test]
    fn counters_read_zero_without_registration() {
        assert_eq!(events(), 0);
        assert_eq!(bytes(), 0);
    }
}
