//! An engine step allocates only what it keeps. Four HotStuff-1 engines
//! run on the shared minimal router (`common`), stepping into one reused
//! action buffer as the runtimes do, and a counting global allocator
//! counts the allocations made inside `on_message` and `on_timer`, and
//! their bytes, over 4,000 views after a warm-up.
//!
//! A view keeps three allocations across the four engines: the leader's
//! block, its batch, and the signature list of the certificate its tally
//! forms. Everything else a step touches is kept from step to step: the
//! action buffer, the commit walk's path, the leader's tally, the ledger's
//! write set. A certificate clone that copies its signatures, a fresh
//! action buffer, a per-step seen-list or a per-view table shows up as
//! more. Measured before those were kept: 44 allocations and 4.0 KB a
//! view with the action buffer reused, 53 and 15.6 KB with a fresh one a
//! step (one allocation fewer in a release build, where a debug
//! assertion's verification does not run).
//!
//! This file holds one test on purpose: the allocator counts the whole
//! process, and a second test running beside it would count too.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

use common::Router;
use hs1_types::{CommittedLog, View};

/// Counting is on only while an engine steps.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn count(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size, Relaxed);
    }
}

// SAFETY: every call goes to `System` with the caller's own arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Views run before counting starts: the tables a replica keeps reach
/// their working size. That includes the committed window, whose body
/// pages are allocated as it first fills and reused once a prune frees
/// them, so the warm-up runs until the window has filled and been pruned.
const WARMUP: u64 = CommittedLog::WINDOW as u64 + CommittedLog::PRUNE_EVERY;
/// Views counted.
const VIEWS: u64 = 4_000;

/// At most this many allocations per view across the four engines: the
/// three a view keeps, and half of one more. A body below the committed
/// head that takes a buffer of its own shows as more: 3.77 a view when
/// each took a freed buffer only if it fitted.
const ALLOCS_PER_VIEW: f64 = 3.5;
/// Bytes allocated per view across the four engines: 1.25 times the 409 B
/// measured with the router's mixed reads and writes. The same stream
/// read 599 B when each body below the committed head took a freed buffer
/// only if it fitted, and allocated one of its own size otherwise.
const BYTES_PER_VIEW: f64 = 511.0;

#[test]
fn a_step_allocates_only_what_it_keeps() {
    let mut engines = common::engines();
    let mut net = Router::new();
    net.run(&mut engines, View(WARMUP), common::step);
    let committed = engines[0].committed_len();
    net.run(&mut engines, View(WARMUP + VIEWS), |e, what, now, out| {
        COUNTING.store(true, Relaxed);
        common::step(e, what, now, out);
        COUNTING.store(false, Relaxed);
    });
    let committed = engines[0].committed_len() - committed;
    assert!(committed > 9 * VIEWS as usize / 10, "{committed} blocks committed in {VIEWS} views");

    let allocs = ALLOCS.load(Relaxed) as f64 / VIEWS as f64;
    let bytes = BYTES.load(Relaxed) as f64 / VIEWS as f64;
    println!("a view's steps across four engines: {allocs:.2} allocations, {bytes:.0} B");
    assert!(
        allocs <= ALLOCS_PER_VIEW,
        "{allocs:.2} allocations a view (at most {ALLOCS_PER_VIEW})"
    );
    assert!(bytes <= BYTES_PER_VIEW, "{bytes:.0} B a view (at most {BYTES_PER_VIEW})");
}
