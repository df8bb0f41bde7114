//! Heap balance of the lock-free sets and the resizing map: after two
//! threads churn a structure with inserts and removes on overlapping keys,
//! the structure is dropped and the reclaimer drained, every allocation
//! the run made must be freed again. A drop-counted payload cannot see a
//! leak of the structure's own bookkeeping (a descriptor, a tower, a
//! retired table, a bucket's spill); a counting global allocator can.
//!
//! The allowance is a small constant that does not grow with the number of
//! operations: thread-local and queue capacity that the first use of a
//! backend leaves behind. A structure that leaks one allocation per delete
//! misses it by thousands.
//!
//! This binary has its own allocator, so every test takes the [`serial`]
//! lock: a sibling's allocations would read as this test's leak.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;

use cds_atomic::raw::{AtomicIsize, Ordering};
use cds_atomic::stress::SplitMix64;
use cds_core::{ConcurrentMap, ConcurrentSet};
use cds_list::HarrisMichaelList;
use cds_map::{ResizingMap, SplitOrderedHashMap};
use cds_reclaim::{Ebr, Hazard, Reclaimer};
use cds_skiplist::LockFreeSkipList;
use cds_tree::LockFreeBst;
use common::serial;

/// `System`, counting live allocations.
struct Counting;

/// Allocations made minus allocations freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: forwards to `System` unchanged; the counter is a side effect that
// allocates nothing. The provided `alloc_zeroed` and `realloc` go through
// these two, so they count too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

/// Operations per thread in the measured run.
const OPS: usize = 20_000;
/// Operations per thread in the warm-up run.
const WARM_UP_OPS: usize = 500;
/// Both threads draw from the same keys, so their inserts and removes meet.
const KEYS: u64 = 128;
/// Net allocations a balanced run may leave behind.
const SLACK: isize = 64;

/// One insert (`true`) or remove of `key`.
type Apply<S> = fn(&S, bool, u64);

fn set_op<S: ConcurrentSet<u64>>(s: &S, insert: bool, key: u64) {
    if insert {
        s.insert(key);
    } else {
        s.remove(&key);
    }
}

fn map_op<M: ConcurrentMap<u64, u64>>(m: &M, insert: bool, key: u64) {
    if insert {
        m.insert(key, key);
    } else {
        m.remove(&key);
    }
}

/// Two threads × `ops` inserts and removes on one fresh structure, which
/// is dropped once both have been joined (`join`, not a scope end, so
/// their thread-locals have handed over what they held).
fn churn<S: Send + Sync + 'static>(make: fn() -> S, apply: Apply<S>, ops: usize) {
    let set = Arc::new(make());
    let workers: Vec<_> = (0..2u64)
        .map(|t| {
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0x4ea9 + t);
                for _ in 0..ops {
                    let r = rng.next_u64();
                    // The key from the low bits, the operation from the top
                    // one: tied to the same bit, a thread's inserts and
                    // removes would land on disjoint keys and never meet.
                    apply(&set, r >> 63 == 0, r % KEYS);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    drop(set);
}

/// Collects until `done` or a budget of rounds runs out: the epoch needs a
/// few advances before it frees anything.
fn drain<R: Reclaimer>(done: impl Fn() -> bool) {
    for _ in 0..1000 {
        R::collect();
        if done() {
            return;
        }
        std::thread::yield_now();
    }
}

fn assert_balanced<S: Send + Sync + 'static, R: Reclaimer>(
    name: &str,
    make: fn() -> S,
    apply: Apply<S>,
) {
    // First use of the backend on this thread and on fresh workers:
    // registrations, hazard slots, queue capacity.
    churn(make, apply, WARM_UP_OPS);
    for _ in 0..16 {
        R::collect();
    }

    let before = live();
    churn(make, apply, OPS);
    drain::<R>(|| live() - before <= SLACK);
    let net = live() - before;
    assert!(
        net <= SLACK,
        "{name} on {}: {net} allocations outlive 2 x {OPS} ops, the \
         structure and the drain (allowance {SLACK})",
        R::NAME
    );
}

fn both_backends<S: Send + Sync + 'static, T: Send + Sync + 'static>(
    name: &str,
    ebr: fn() -> S,
    ebr_op: Apply<S>,
    hazard: fn() -> T,
    hazard_op: Apply<T>,
) {
    let _g = serial();
    assert_balanced::<S, Ebr>(name, ebr, ebr_op);
    assert_balanced::<T, Hazard>(name, hazard, hazard_op);
}

#[test]
fn harris_michael_list_frees_what_it_allocates() {
    both_backends(
        "HarrisMichaelList",
        HarrisMichaelList::<u64, Ebr>::with_reclaimer,
        set_op,
        HarrisMichaelList::<u64, Hazard>::with_reclaimer,
        set_op,
    );
}

#[test]
fn split_ordered_map_frees_what_it_allocates() {
    both_backends(
        "SplitOrderedHashMap",
        SplitOrderedHashMap::<u64, u64, _, Ebr>::with_reclaimer,
        map_op,
        SplitOrderedHashMap::<u64, u64, _, Hazard>::with_reclaimer,
        map_op,
    );
}

#[test]
fn lock_free_skiplist_frees_what_it_allocates() {
    both_backends(
        "LockFreeSkipList",
        LockFreeSkipList::<u64, Ebr>::with_reclaimer,
        set_op,
        LockFreeSkipList::<u64, Hazard>::with_reclaimer,
        set_op,
    );
}

#[test]
fn lock_free_bst_frees_what_it_allocates() {
    both_backends(
        "LockFreeBst",
        LockFreeBst::<u64, Ebr>::with_reclaimer,
        set_op,
        LockFreeBst::<u64, Hazard>::with_reclaimer,
        set_op,
    );
}

/// Keys one `ResizingMap` operation covers: 128 × 16 keys over 16 shards
/// that start at one bucket each make dozens of doublings, so a leak per
/// doubling (a table not retired) clears the allowance too.
const MAP_BLOCK: u64 = 16;

fn map_block_op<M: ConcurrentMap<u64, u64>>(m: &M, insert: bool, key: u64) {
    for k in key * MAP_BLOCK..(key + 1) * MAP_BLOCK {
        map_op(m, insert, k);
    }
}

#[test]
fn resizing_map_frees_what_it_allocates() {
    // Retired tables, and chains spilled past their inline slots.
    both_backends(
        "ResizingMap",
        || ResizingMap::<u64, u64, _, Ebr>::with_config(16, 1),
        map_block_op,
        || ResizingMap::<u64, u64, _, Hazard>::with_config(16, 1),
        map_block_op,
    );
}
