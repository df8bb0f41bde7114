//! End-to-end reclamation stress: drop-accounting payloads prove that no
//! element is leaked or double-freed anywhere in the family, even under
//! concurrent churn that exercises the epoch collector and hazard-pointer
//! domains hard.
//!
//! Every payload counts its creation and its drop in a shared ledger;
//! after a structure dies (and the reclaimers are drained) the two counts
//! must agree — each payload dropped exactly once. The suites iterate the
//! rosters with the `freeing` selector, so every stack, queue and set runs
//! under every backend that frees (`Leak`'s rows are left out: it frees
//! nothing it retires, by design). The resizing map keeps its own case,
//! in a geometry that doubles many times under the churn.
//!
//! The reclaimers are process-wide: while a sibling test's threads are
//! pinned the shared epoch cannot advance, and its deferred drops would
//! read as leaks here. Every test therefore takes the [`serial`] lock.

mod common;

use cds_atomic::stress::SplitMix64;
use cds_atomic::{AtomicUsize, Ordering};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use cds_core::{ConcurrentMap, ConcurrentQueue, ConcurrentSet, ConcurrentStack};
use cds_map::ResizingMap;
use cds_reclaim::Reclaimer;
use common::{quiesce_reclaimers, serial};

/// Payloads made and payloads dropped, shared by every payload of one
/// run.
#[derive(Debug, Default)]
struct Ledger {
    created: AtomicUsize,
    dropped: AtomicUsize,
}

impl Ledger {
    /// Panics unless every payload made has dropped exactly once.
    fn assert_balanced(&self, what: &str) {
        let created = self.created.load(Ordering::SeqCst);
        let dropped = self.dropped.load(Ordering::SeqCst);
        assert_eq!(dropped, created, "leak or double free in {what}");
    }
}

/// A payload that counts its creations (clones included: a structure
/// that routes on key clones makes some) and its drops, so that after a
/// structure dies the two counts must agree.
#[derive(Debug)]
struct Tracked {
    id: u64,
    ledger: Arc<Ledger>,
}

impl Tracked {
    fn new(id: u64, ledger: &Arc<Ledger>) -> Self {
        ledger.created.fetch_add(1, Ordering::SeqCst);
        Tracked {
            id,
            ledger: Arc::clone(ledger),
        }
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked::new(self.id, &self.ledger)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.ledger.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

impl PartialEq for Tracked {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Tracked {}
impl PartialOrd for Tracked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tracked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}
impl Hash for Tracked {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

/// Four threads push payloads and pop after about every other push;
/// the rest die with the stack.
fn stack_churn<S: ConcurrentStack<Tracked>>(_seed: u64, make: impl Fn() -> S) {
    churn(make, 2_000, |s, rng, ledger| {
        let x = rng.next_u64();
        s.push(Tracked::new(x, ledger));
        if x.is_multiple_of(2) {
            drop(s.pop());
        }
    });
}

/// Four threads enqueue payloads and dequeue after all but about one
/// enqueue in sixteen; the rest die with the queue. About 500 stay, well
/// inside the bounded ring's 1024 slots: a thread waiting on a full ring
/// never dequeues, so with every thread waiting the run would hang.
fn queue_churn<Q: ConcurrentQueue<Tracked>>(_seed: u64, make: impl Fn() -> Q) {
    churn(make, 2_000, |q, rng, ledger| {
        let x = rng.next_u64();
        q.enqueue(Tracked::new(x, ledger));
        if !x.is_multiple_of(16) {
            drop(q.dequeue());
        }
    });
}

/// Four threads insert and remove payloads on 64 keys; rejected
/// duplicates and remove probes drop at once, the rest with the set.
fn set_churn<S: ConcurrentSet<Tracked>>(_seed: u64, make: impl Fn() -> S) {
    churn(make, 600, |s, rng, ledger| {
        let x = rng.next_u64();
        let payload = Tracked::new(x % 64, ledger);
        if x.is_multiple_of(3) {
            s.remove(&payload);
        } else {
            s.insert(payload);
        }
    });
}

/// Four threads each make `per_thread` calls of `step` on one fresh
/// structure, with a thread-seeded draw and the run's ledger; then the
/// structure dies, the reclaimers drain, and the ledger must balance.
fn churn<C: Sync>(
    make: impl Fn() -> C,
    per_thread: u64,
    step: impl Fn(&C, &mut SplitMix64, &Arc<Ledger>) + Sync,
) {
    const THREADS: u64 = 4;
    let ledger = Arc::new(Ledger::default());
    {
        let c = make();
        // Joined handles, not the end of a scope: the epoch hand-over in
        // a thread's exit must have run before the audit.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (c, ledger, step) = (&c, &ledger, &step);
                    scope.spawn(move || {
                        let mut rng = SplitMix64::new(t);
                        for _ in 0..per_thread {
                            step(c, &mut rng, ledger);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        // Remaining elements die with the structure.
    }
    quiesce_reclaimers();
    ledger.assert_balanced(std::any::type_name::<C>());
}

/// Four threads insert, remove and read `Tracked` values in a map that
/// starts at one bucket, so it doubles many times under them; the main
/// thread then fills it to more than two entries per bucket and drops it.
/// Each payload is created by an insert or returned by a `get`, and must
/// drop exactly once: rejected by a duplicate insert, removed, or with
/// the map.
fn map_churn<R: Reclaimer>(_seed: u64) {
    let ledger = Arc::new(Ledger::default());
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 3_000;
    const KEYS: u64 = 2_048;
    {
        let m: Arc<ResizingMap<u64, Tracked, _, R>> = Arc::new(ResizingMap::with_config(1, 1));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = Arc::clone(&m);
                let ledger = Arc::clone(&ledger);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(t);
                    for _ in 0..PER_THREAD {
                        let x = rng.next_u64();
                        // The key from high bits, the operation from low
                        // ones, so that every key meets every operation.
                        let k = (x >> 32) % KEYS;
                        match x % 6 {
                            0 => {
                                m.remove(&k);
                            }
                            1 => {
                                m.get(&k);
                            }
                            _ => {
                                m.insert(k, Tracked::new(k, &ledger));
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(m.doublings() >= 8, "{} doublings", m.doublings());
        // Past two entries per bucket on average, some bucket has spilled
        // (a `(u64, Tracked)` entry is 24 bytes, two to a cache line).
        let mut k = KEYS;
        while m.len() <= 2 * m.capacity() {
            assert!(m.insert(k, Tracked::new(k, &ledger)));
            k += 1;
        }
    }
    quiesce_reclaimers();
    ledger.assert_balanced(&format!("ResizingMap on {}", R::NAME));
}

#[test]
fn resizing_map_accounts_for_every_payload() {
    let _g = serial();
    // One workload on every backend: the seed is unused.
    backends!(freeing: map_churn, 0);
}

#[test]
fn stacks_account_for_every_payload() {
    let _g = serial();
    stacks!(freeing: Tracked, stack_churn);
}

#[test]
fn queues_account_for_every_payload() {
    let _g = serial();
    queues!(freeing: Tracked, queue_churn);
}

#[test]
fn list_sets_account_for_every_payload() {
    let _g = serial();
    sets!(lists, freeing: Tracked, set_churn);
}

#[test]
fn ordered_sets_account_for_every_payload() {
    let _g = serial();
    sets!(skiplists, freeing: Tracked, set_churn);
    sets!(trees, freeing: Tracked, set_churn);
}

#[test]
fn hash_sets_account_for_every_payload() {
    let _g = serial();
    sets!(hashed, freeing: Tracked, set_churn);
}

#[test]
fn epoch_collector_eventually_reclaims_churn() {
    let _g = serial();
    // Hammer one epoch-managed structure and verify the default collector's
    // backlog does not grow without bound.
    let ledger = Arc::new(Ledger::default());
    let s = cds_stack::TreiberStack::new();
    for i in 0..50_000u64 {
        s.push(Tracked::new(i, &ledger));
        drop(s.pop());
    }
    drop(s);
    quiesce_reclaimers();
    let freed = ledger.dropped.load(Ordering::SeqCst);
    assert!(
        freed >= 49_000,
        "collector is hoarding: only {freed}/50000 payloads freed"
    );
}
