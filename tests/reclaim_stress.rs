//! End-to-end reclamation stress: drop-accounting payloads prove that no
//! element is leaked or double-freed anywhere in the family, even under
//! concurrent churn that exercises the epoch collector and hazard-pointer
//! domains hard.
//!
//! Every payload counts its creation and its drop in a shared ledger;
//! after a structure dies (and, for epoch-managed structures, after the
//! default collector quiesces) the two counts must agree — each payload
//! dropped exactly once.
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
use common::serial;

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

/// Drains every process-wide reclamation backend — the default epoch
/// collector, the hazard domain, and the debug quarantine — so deferred
/// destructors run before we audit the drop counter.
fn quiesce_reclaimers() {
    for _ in 0..8 {
        let guard = cds_reclaim::epoch::pin();
        guard.flush();
    }
    cds_reclaim::Hazard::collect();
    cds_reclaim::DebugReclaim::collect();
}

fn stack_churn<S: ConcurrentStack<Tracked> + Default + 'static>() {
    let ledger = Arc::new(Ledger::default());
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2_000;
    {
        let s = Arc::new(S::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = Arc::clone(&s);
                let ledger = Arc::clone(&ledger);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        s.push(Tracked::new(t * PER_THREAD + i, &ledger));
                        if i % 2 == 0 {
                            drop(s.pop());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Remaining elements die with the structure.
    }
    quiesce_reclaimers();
    ledger.assert_balanced(S::NAME);
}

fn queue_churn<Q: ConcurrentQueue<Tracked> + Default + 'static>() {
    let ledger = Arc::new(Ledger::default());
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2_000;
    {
        let q = Arc::new(Q::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = Arc::clone(&q);
                let ledger = Arc::clone(&ledger);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        q.enqueue(Tracked::new(t * PER_THREAD + i, &ledger));
                        if i % 2 == 0 {
                            drop(q.dequeue());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
    quiesce_reclaimers();
    ledger.assert_balanced(Q::NAME);
}

/// Four threads insert and remove payloads on 64 keys; rejected
/// duplicates and remove probes drop at once, the rest with the set.
fn set_churn<S: ConcurrentSet<Tracked>>(_seed: u64, make: impl Fn() -> S) {
    let ledger = Arc::new(Ledger::default());
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 600;
    {
        let s = make();
        // Joined handles, not the end of a scope: the epoch hand-over in
        // a thread's exit must have run before the audit.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (s, ledger) = (&s, &ledger);
                    scope.spawn(move || {
                        let mut rng = SplitMix64::new(t);
                        for _ in 0..PER_THREAD {
                            let x = rng.next_u64();
                            let payload = Tracked::new(x % 64, ledger);
                            if x.is_multiple_of(3) {
                                s.remove(&payload);
                            } else {
                                s.insert(payload);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }
    quiesce_reclaimers();
    ledger.assert_balanced(std::any::type_name::<S>());
}

/// Four threads insert, remove and read `Tracked` values in a map that
/// starts at one bucket, so it doubles many times under them; the main
/// thread then fills it to more than two entries per bucket and drops it.
/// Each payload is created by an insert or returned by a `get`, and must
/// drop exactly once: rejected by a duplicate insert, removed, or with
/// the map.
fn map_churn<R: Reclaimer>() {
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
    map_churn::<cds_reclaim::Ebr>();
    map_churn::<cds_reclaim::Hazard>();
}

#[test]
fn stacks_account_for_every_payload() {
    let _g = serial();
    stack_churn::<cds_stack::CoarseStack<Tracked>>();
    stack_churn::<cds_stack::TreiberStack<Tracked>>();
    stack_churn::<cds_stack::TreiberStack<Tracked, cds_reclaim::Hazard>>();
    stack_churn::<cds_stack::TreiberStack<Tracked, cds_reclaim::DebugReclaim>>();
    stack_churn::<cds_stack::EliminationBackoffStack<Tracked>>();
    stack_churn::<cds_stack::FcStack<Tracked>>();
}

#[test]
fn queues_account_for_every_payload() {
    let _g = serial();
    queue_churn::<cds_queue::CoarseQueue<Tracked>>();
    queue_churn::<cds_queue::TwoLockQueue<Tracked>>();
    queue_churn::<cds_queue::MsQueue<Tracked>>();
    queue_churn::<cds_queue::FcQueue<Tracked>>();
}

#[test]
fn list_sets_account_for_every_payload() {
    let _g = serial();
    sets!(lists: Tracked, set_churn);
}

#[test]
fn ordered_sets_account_for_every_payload() {
    let _g = serial();
    sets!(skiplists: Tracked, set_churn);
    sets!(trees: Tracked, set_churn);
}

#[test]
fn hash_sets_account_for_every_payload() {
    let _g = serial();
    sets!(hashed: Tracked, set_churn);
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
