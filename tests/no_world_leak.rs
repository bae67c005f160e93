//! No simulated world outlives its run.
//!
//! Every scenario builds a world — servers, vaults, network, replicators,
//! membership — inside `SimRuntime::run_root`, and every daemon unwinds on
//! shutdown, so once `observe` returns nothing of that world may still be
//! reachable. A hook that owns, directly or through a chain of `Arc`s, the
//! object it is registered on breaks that: the world becomes a reference
//! cycle and every run leaks it whole. The model checker re-executes a
//! world per schedule, so such a leak grows with the number of schedules
//! explored.
//!
//! The guard is a counting global allocator. After one warm-up pass (which
//! pays for lazily initialised statics), five more passes over the three
//! model-checker scenarios must leave live heap where it was, give or take
//! a few allocator-internal crumbs.
//!
//! This binary holds a single test so no other test's allocations run
//! concurrently with the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use semplar_repro::mc::{FederationScenario, LeaseScenario, PromotionScenario};

/// `System`, plus a running count of live heap bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Growth allowed over five passes: far below one leaked world (megabytes)
/// and above any fixed-size bookkeeping the runtime keeps between runs.
const SLACK: isize = 64 << 10;

fn one_pass(seed: u64) {
    FederationScenario::quick(seed)
        .observe(None)
        .expect("federation scenario");
    LeaseScenario::quick(seed)
        .observe(None)
        .expect("lease scenario");
    PromotionScenario::quick(seed)
        .observe(None)
        .expect("promotion scenario");
}

#[test]
fn replicated_worlds_are_freed_when_their_run_ends() {
    one_pass(1);
    let before = LIVE.load(Ordering::SeqCst);
    for seed in 2..7 {
        one_pass(seed);
    }
    let grown = LIVE.load(Ordering::SeqCst) - before;
    assert!(
        grown < SLACK,
        "live heap grew by {grown} bytes over five scenario passes (limit {SLACK}): \
         a simulated world outlived its run"
    );
}
