//! The counting global allocator shared by the allocation gates.
//!
//! A gate includes this file as a module,
//! `#[path = "<relative path>/tests/support/counting_alloc.rs"] mod counting_alloc;`,
//! which installs [`CountingAlloc`] as the test binary's global
//! allocator. Allocations are counted per thread in a `const`-initialised
//! thread-local, so tests running in parallel never see each other's
//! allocations: a gate does its measured work on the test thread and
//! compares [`allocations`] before and after.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting every `alloc` and `realloc`.
pub struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations and reallocations made so far by the current thread.
pub fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
