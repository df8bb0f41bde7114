//! End-to-end reclamation stress: drop-accounting payloads prove that no
//! element is leaked or double-freed anywhere in the family, even under
//! concurrent churn that exercises the epoch collector and hazard-pointer
//! domains hard.
//!
//! Every payload increments a shared counter in `Drop`; after a structure
//! dies (and, for epoch-managed structures, after the default collector
//! quiesces) the counter must equal the number of payloads created —
//! exactly once each.
//!
//! The reclaimers are process-wide: while a sibling test's threads are
//! pinned the shared epoch cannot advance, and its deferred drops would
//! read as leaks here. Every test therefore takes the [`serial`] lock.

mod common;

use cds_atomic::stress::SplitMix64;
use cds_atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cds_core::{ConcurrentMap, ConcurrentQueue, ConcurrentSet, ConcurrentStack};
use cds_map::ResizingMap;
use cds_reclaim::Reclaimer;
use common::serial;

/// A payload that counts its drops. Panics (via the test harness) if the
/// total ever exceeds the created count — a double free turns into a
/// visible assertion rather than silent corruption.
#[derive(Debug)]
struct Tracked {
    id: u64,
    drops: Arc<AtomicUsize>,
}

impl Tracked {
    fn new(id: u64, drops: &Arc<AtomicUsize>) -> Self {
        Tracked {
            id,
            drops: Arc::clone(drops),
        }
    }
}

/// A clone is a new payload: `map_churn` counts the ones `get` returns.
impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked::new(self.id, &self.drops)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
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
    let drops = Arc::new(AtomicUsize::new(0));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2_000;
    {
        let s = Arc::new(S::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = Arc::clone(&s);
                let drops = Arc::clone(&drops);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        s.push(Tracked::new(t * PER_THREAD + i, &drops));
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
    assert_eq!(
        drops.load(Ordering::SeqCst) as u64,
        THREADS * PER_THREAD,
        "leak or double free in {}",
        S::NAME
    );
}

fn queue_churn<Q: ConcurrentQueue<Tracked> + Default + 'static>() {
    let drops = Arc::new(AtomicUsize::new(0));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2_000;
    {
        let q = Arc::new(Q::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = Arc::clone(&q);
                let drops = Arc::clone(&drops);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        q.enqueue(Tracked::new(t * PER_THREAD + i, &drops));
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
    assert_eq!(
        drops.load(Ordering::SeqCst) as u64,
        THREADS * PER_THREAD,
        "leak or double free in {}",
        Q::NAME
    );
}

fn set_churn<S: ConcurrentSet<Tracked> + Default + 'static>() {
    let drops = Arc::new(AtomicUsize::new(0));
    let created = Arc::new(AtomicUsize::new(0));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 600;
    {
        let s = Arc::new(S::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = Arc::clone(&s);
                let drops = Arc::clone(&drops);
                let created = Arc::clone(&created);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(t);
                    for _ in 0..PER_THREAD {
                        let x = rng.next_u64();
                        let k = x % 64;
                        created.fetch_add(1, Ordering::SeqCst);
                        let payload = Tracked::new(k, &drops);
                        if x.is_multiple_of(3) {
                            // Remove takes a reference; the probe payload
                            // drops here either way.
                            s.remove(&payload);
                        } else {
                            // Insert consumes; rejected duplicates drop.
                            s.insert(payload);
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
    assert_eq!(
        drops.load(Ordering::SeqCst),
        created.load(Ordering::SeqCst),
        "leak or double free in {}",
        S::NAME
    );
}

/// Four threads insert, remove and read `Tracked` values in a map that
/// starts at one bucket, so it doubles many times under them; the main
/// thread then fills it to more than two entries per bucket and drops it.
/// Each payload is created by an insert or returned by a `get`, and must
/// drop exactly once: rejected by a duplicate insert, removed, or with
/// the map.
fn map_churn<R: Reclaimer>() {
    let drops = Arc::new(AtomicUsize::new(0));
    let created = Arc::new(AtomicUsize::new(0));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 3_000;
    const KEYS: u64 = 2_048;
    {
        let m: Arc<ResizingMap<u64, Tracked, _, R>> = Arc::new(ResizingMap::with_config(1, 1));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = Arc::clone(&m);
                let drops = Arc::clone(&drops);
                let created = Arc::clone(&created);
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
                                let got = m.get(&k);
                                created.fetch_add(got.is_some() as usize, Ordering::SeqCst);
                            }
                            _ => {
                                created.fetch_add(1, Ordering::SeqCst);
                                m.insert(k, Tracked::new(k, &drops));
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
            created.fetch_add(1, Ordering::SeqCst);
            assert!(m.insert(k, Tracked::new(k, &drops)));
            k += 1;
        }
    }
    quiesce_reclaimers();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        created.load(Ordering::SeqCst),
        "leak or double free in ResizingMap on {}",
        R::NAME
    );
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
    set_churn::<cds_list::CoarseList<Tracked>>();
    set_churn::<cds_list::FineList<Tracked>>();
    set_churn::<cds_list::OptimisticList<Tracked>>();
    set_churn::<cds_list::LazyList<Tracked>>();
    set_churn::<cds_list::HarrisMichaelList<Tracked>>();
}

#[test]
fn ordered_sets_account_for_every_payload() {
    let _g = serial();
    set_churn::<cds_skiplist::CoarseSkipList<Tracked>>();
    set_churn::<cds_skiplist::LazySkipList<Tracked>>();
    set_churn::<cds_skiplist::LockFreeSkipList<Tracked>>();
    set_churn::<cds_tree::CoarseBst<Tracked>>();
}

#[test]
fn epoch_collector_eventually_reclaims_churn() {
    let _g = serial();
    // Hammer one epoch-managed structure and verify the default collector's
    // backlog does not grow without bound.
    let drops = Arc::new(AtomicUsize::new(0));
    let s = cds_stack::TreiberStack::new();
    for i in 0..50_000u64 {
        s.push(Tracked::new(i, &drops));
        drop(s.pop());
    }
    drop(s);
    quiesce_reclaimers();
    let freed = drops.load(Ordering::SeqCst);
    assert!(
        freed >= 49_000,
        "collector is hoarding: only {freed}/50000 payloads freed"
    );
}
