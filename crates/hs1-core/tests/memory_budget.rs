//! A replica's heap is its window, not its history. Four HotStuff-1
//! engines run 10,000 views on the shared minimal router (`common`), and a
//! counting global allocator measures what each engine holds at the end:
//! all of its heap, and the part of it in allocations of 4 KiB or more,
//! which is where a window-sized table or deque lives. Dropping an engine
//! frees exactly what it owns, because the router hands every replica a
//! decoded copy of each message and so no body is shared between engines.
//!
//! This file holds one test on purpose: the allocator counts the whole
//! process, and a second test running beside it would count too.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use common::Router;
use hs1_types::View;

/// Live bytes, and live bytes in allocations of at least [`LARGE`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static LIVE_LARGE: AtomicUsize = AtomicUsize::new(0);
const LARGE: usize = 4096;

struct Counting;

fn count(size: usize, add: bool) {
    let op =
        |c: &AtomicUsize| if add { c.fetch_add(size, Relaxed) } else { c.fetch_sub(size, Relaxed) };
    op(&LIVE);
    if size >= LARGE {
        op(&LIVE_LARGE);
    }
}

// SAFETY: every call goes to `System` with the caller's own arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size(), true);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        count(layout.size(), false);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            count(layout.size(), false);
            count(new_size, true);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Views the run must reach: about five windows of commits.
const VIEWS: u64 = 10_000;

/// Bounds on one engine's live heap after the run, all of it and the
/// part in large allocations. The first is 1.25 times the 706 KiB
/// measured with the bodies below the committed head held as their bytes
/// (959 KiB when each was a decoded block), so decoded bodies back in the
/// window break it. The second was set at 1.25 times 153 KiB and now holds
/// 186 KiB: the committed window's ids (132 KiB) and the 24 B slots of its
/// bodies. A hash index over the window is 132 KiB or more, so re-adding
/// one breaks it. Engines that held three hashed copies of the window
/// measured 1,622 KiB and 816 KiB.
const ENGINE_BUDGET: usize = 903_000;
const ENGINE_LARGE_BUDGET: usize = 196_000;

#[test]
fn four_engines_hold_their_window_and_not_their_history() {
    let mut engines = common::engines();
    Router::new().run(&mut engines, View(VIEWS), common::step);
    let committed = engines[0].committed_len();
    assert!(committed > 9 * VIEWS as usize / 10, "{committed} blocks committed in {VIEWS} views");

    for (i, e) in engines.into_iter().enumerate() {
        let (live, large) = (LIVE.load(Relaxed), LIVE_LARGE.load(Relaxed));
        drop(e);
        let own = live - LIVE.load(Relaxed);
        let own_large = large - LIVE_LARGE.load(Relaxed);
        println!(
            "engine {i}: {:.1} KiB live, {:.1} KiB of it in allocations of {LARGE} B or more",
            own as f64 / 1024.0,
            own_large as f64 / 1024.0,
        );
        assert!(own < ENGINE_BUDGET, "engine {i} holds {own} B (budget {ENGINE_BUDGET} B)");
        assert!(
            own_large < ENGINE_LARGE_BUDGET,
            "engine {i} holds {own_large} B in large allocations (budget {ENGINE_LARGE_BUDGET} B)"
        );
    }
}
