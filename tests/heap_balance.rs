//! Heap balance of every set and map: after two threads churn a
//! structure with inserts and removes on overlapping keys, the structure
//! is dropped and the reclaimers drained, every allocation the run made
//! must be freed again. A drop-counted payload cannot see a leak of the
//! structure's own bookkeeping (a descriptor, a tower, a retired table, a
//! bucket's spill); a counting global allocator can.
//!
//! The suites iterate the set and map rosters with the `freeing`
//! selector: every implementation under every backend that frees, one
//! test per set family (each named for its lock-free member) and one for
//! the maps. `Leak`
//! frees nothing it retires, by design, so its rows are left out. The
//! resizing map also runs in a geometry that forces dozens of doublings,
//! so that a table leaked per doubling shows.
//!
//! The allowance is a small constant that does not grow with the number of
//! operations: thread-local and queue capacity that the first use of a
//! backend leaves behind. A structure that leaks one allocation per delete
//! misses it by thousands.
//!
//! The same allocator counts allocations, so it also checks that
//! `Executor::spawn` of a small closure allocates nothing.
//!
//! This binary has its own allocator, so every test takes the [`serial`]
//! lock: a sibling's allocations would read as this test's leak.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::type_name;
use std::sync::Arc;

use cds_atomic::raw::{AtomicIsize, AtomicUsize, Ordering};
use cds_atomic::stress::SplitMix64;
use cds_core::{ConcurrentMap, ConcurrentSet};
use cds_exec::Executor;
use cds_map::ResizingMap;
use cds_reclaim::Reclaimer;
use common::{quiesce_reclaimers, serial};

/// `System`, counting live allocations and allocations made.
struct Counting;

/// Allocations made minus allocations freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Allocations made, process-wide.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to `System` unchanged; the counter is a side effect that
// allocates nothing. The provided `alloc_zeroed` and `realloc` go through
// these two, so they count too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(1, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
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

fn allocs() -> usize {
    ALLOCS.load(Ordering::SeqCst)
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
/// is dropped once both have been joined (`join`, not the end of the
/// scope, so their thread-locals have handed over what they held).
fn churn<S: Sync>(make: &impl Fn() -> S, apply: Apply<S>, ops: usize) {
    let set = make();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let set = &set;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0x4ea9 + t);
                    for _ in 0..ops {
                        let r = rng.next_u64();
                        // The key from the low bits, the operation from the
                        // top one: tied to the same bit, a thread's inserts
                        // and removes would land on disjoint keys and never
                        // meet.
                        apply(set, r >> 63 == 0, r % KEYS);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    });
    drop(set);
}

fn assert_balanced<S: Sync>(name: &str, make: impl Fn() -> S, apply: Apply<S>) {
    // First use of the backend on this thread and on fresh workers:
    // registrations, hazard slots, queue capacity.
    churn(&make, apply, WARM_UP_OPS);
    quiesce_reclaimers();

    let before = live();
    churn(&make, apply, OPS);
    // The epoch needs a few advances before it frees anything.
    for _ in 0..1000 {
        quiesce_reclaimers();
        if live() - before <= SLACK {
            break;
        }
        std::thread::yield_now();
    }
    let net = live() - before;
    assert!(
        net <= SLACK,
        "{name}: {net} allocations outlive 2 x {OPS} ops, the structure \
         and the drain (allowance {SLACK})"
    );
}

fn set_balanced<S: ConcurrentSet<u64>>(_seed: u64, make: impl Fn() -> S) {
    assert_balanced(type_name::<S>(), make, set_op);
}

fn map_balanced<M: ConcurrentMap<u64, u64>>(_seed: u64, make: impl Fn() -> M) {
    assert_balanced(type_name::<M>(), make, map_op);
}

/// The list family, and the hashed set whose buckets are Harris–Michael
/// lists.
#[test]
fn harris_michael_list_frees_what_it_allocates() {
    let _g = serial();
    sets!(lists, freeing: u64, set_balanced);
    sets!(hashed, freeing: u64, set_balanced);
}

/// The skiplist family.
#[test]
fn lock_free_skiplist_frees_what_it_allocates() {
    let _g = serial();
    sets!(skiplists, freeing: u64, set_balanced);
}

/// The tree family.
#[test]
fn lock_free_bst_frees_what_it_allocates() {
    let _g = serial();
    sets!(trees, freeing: u64, set_balanced);
}

#[test]
fn maps_free_what_they_allocate() {
    let _g = serial();
    maps!(freeing: u64, u64, map_balanced);
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

/// Retired tables, and chains spilled past their inline slots.
fn growing_map_balanced<R: Reclaimer>(_seed: u64) {
    assert_balanced(
        &format!("ResizingMap::with_config(16, 1) on {}", R::NAME),
        || ResizingMap::<u64, u64, _, R>::with_config(16, 1),
        map_block_op,
    );
}

#[test]
fn resizing_map_frees_what_it_allocates() {
    let _g = serial();
    // One workload on every backend: the seed is unused.
    backends!(freeing: growing_map_balanced, 0);
}

/// Closures spawned in the measured run of the spawn test.
const SPAWNS: usize = 10_000;
/// Spawns between two `quiesce` calls: below the injector's 256 slots, so
/// no spawn overflows into the `MsQueue`, whose nodes are allocations.
const SPAWN_BATCH: usize = 125;

/// The shape of the request/reply pipeline's task: an `Arc` and 16 bytes.
fn spawn_batches(pool: &Executor, hits: &Arc<AtomicUsize>, spawns: usize) {
    for batch in 0..spawns / SPAWN_BATCH {
        for i in 0..SPAWN_BATCH {
            let hits = Arc::clone(hits);
            let request = [batch as u64, i as u64];
            pool.spawn(move || {
                std::hint::black_box(request);
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
    }
}

#[test]
fn spawning_a_small_closure_allocates_nothing() {
    let _g = serial();
    let pool = Executor::new(2);
    let hits = Arc::new(AtomicUsize::new(0));
    // First use of the workers: thread-locals, reclaimer registrations,
    // deque buffers.
    spawn_batches(&pool, &hits, 4 * SPAWN_BATCH);

    let before = allocs();
    spawn_batches(&pool, &hits, SPAWNS);
    let made = allocs() - before;
    assert_eq!(hits.load(Ordering::SeqCst), 4 * SPAWN_BATCH + SPAWNS);
    assert!(
        made < SPAWNS / 100,
        "{made} allocations for {SPAWNS} spawns of an `Arc` and 16 bytes: \
         a task that small must live inline in the queue slot"
    );
}
