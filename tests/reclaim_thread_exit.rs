//! Thread exit under both reclaimers (ROADMAP item 1, second phase):
//! whatever a thread still holds when it ends — a half-full epoch bag, a
//! hazard retire list, cached hazard slots, a guard whose handle is already
//! gone — must be freed exactly once by a thread that survives it.
//!
//! Every payload counts its drops. Workers are joined through their
//! `JoinHandle` (not merely a `thread::scope` end), because only that waits
//! for the thread-local destructors that do the handing over. Tests on the
//! process-wide backends take the [`serial`] lock: a sibling's pin or hazard
//! would legitimately hold a node back and read as a leak here.

mod common;

use cds_atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use cds_reclaim::epoch::{Atomic, Collector, Owned, Shared};
use cds_reclaim::hazard::{Domain, SCAN_THRESHOLD};
use cds_reclaim::{Ebr, Hazard, ReclaimGuard, Reclaimer};
use common::serial;

struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Fewer than `LOCAL_BAG_CAP` / `SCAN_THRESHOLD`, so nothing is flushed or
/// scanned before the thread ends.
const LEFTOVERS: usize = SCAN_THRESHOLD / 2;

fn counter() -> Arc<AtomicUsize> {
    Arc::new(AtomicUsize::new(0))
}

fn dropped(drops: &AtomicUsize) -> usize {
    drops.load(Ordering::SeqCst)
}

/// Allocates a node nobody else can reach and retires it under `guard`.
fn retire_fresh<G: ReclaimGuard>(guard: &G, drops: &Arc<AtomicUsize>) {
    let node = Owned::new(Counted(Arc::clone(drops))).into_shared(guard);
    // SAFETY: never published; retired exactly once.
    unsafe { guard.retire(node) };
}

/// Collects until `drops` reaches `want` or the budget runs out: the default
/// collector needs a few advances, and the harness's own threads may pin.
fn collect_until<R: Reclaimer>(drops: &AtomicUsize, want: usize) {
    for _ in 0..1000 {
        R::collect();
        if dropped(drops) >= want {
            break;
        }
        std::thread::yield_now();
    }
}

#[test]
fn thread_exit_with_nonempty_ebr_bag() {
    let collector = Collector::new();
    let drops = counter();
    let worker = {
        let (collector, drops) = (collector.clone(), Arc::clone(&drops));
        std::thread::spawn(move || {
            let handle = collector.register();
            let guard = handle.pin();
            for _ in 0..LEFTOVERS {
                retire_fresh(&guard, &drops);
            }
            assert_eq!(collector.garbage_len(), LEFTOVERS, "bag not counted");
        })
    };
    worker.join().unwrap();
    assert_eq!(dropped(&drops), 0, "freed with nobody collecting");
    assert_eq!(collector.garbage_len(), LEFTOVERS, "bag not handed over");
    for _ in 0..4 {
        collector.collect();
    }
    assert_eq!(dropped(&drops), LEFTOVERS);
    assert_eq!(collector.garbage_len(), 0);
    drop(collector);
    assert_eq!(dropped(&drops), LEFTOVERS, "double free at collector drop");
}

#[test]
fn thread_exit_with_ebr_guard_outliving_its_handle() {
    let collector = Collector::new();
    let drops = counter();
    let (pinned_tx, pinned_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let worker = {
        let (collector, drops) = (collector.clone(), Arc::clone(&drops));
        std::thread::spawn(move || {
            let handle = collector.register();
            let guard = handle.pin();
            let defer_some = || {
                for _ in 0..LEFTOVERS / 2 {
                    retire_fresh(&guard, &drops);
                }
            };
            defer_some();
            drop(handle);
            // The participant must still be registered and pinned.
            defer_some();
            guard.flush();
            pinned_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            drop(guard);
        })
    };
    pinned_rx.recv().unwrap();
    let before = collector.epoch();
    for _ in 0..8 {
        collector.collect();
    }
    assert!(
        collector.epoch().wrapping_sub(before) <= 1,
        "epoch ran past a guard whose handle was dropped"
    );
    assert_eq!(dropped(&drops), 0, "freed under a live guard");
    release_tx.send(()).unwrap();
    worker.join().unwrap();
    for _ in 0..4 {
        collector.collect();
    }
    assert_eq!(dropped(&drops), 2 * (LEFTOVERS / 2));
    drop(collector);
    assert_eq!(dropped(&drops), 2 * (LEFTOVERS / 2), "double free");
}

/// The guard is the last thing standing: handle and every `Collector` are
/// gone, so dropping it releases the record, the collector state and the
/// garbage in one go — after `unpin`, not underneath it.
#[test]
fn last_ebr_guard_takes_the_collector_down_with_it() {
    let drops = counter();
    let collector = Collector::new();
    let handle = collector.register();
    let guard = handle.pin();
    let nested = handle.pin();
    for _ in 0..3 {
        retire_fresh(&guard, &drops);
    }
    drop(handle);
    drop(collector);
    drop(guard);
    assert_eq!(dropped(&drops), 0, "torn down under the nested guard");
    drop(nested);
    assert_eq!(dropped(&drops), 3);
}

#[test]
fn thread_exit_with_default_collector_bag() {
    let _g = serial();
    let drops = counter();
    let worker = {
        let drops = Arc::clone(&drops);
        std::thread::spawn(move || {
            let guard = Ebr::enter();
            for _ in 0..LEFTOVERS {
                retire_fresh(&guard, &drops);
            }
        })
    };
    worker.join().unwrap();
    collect_until::<Ebr>(&drops, LEFTOVERS);
    assert_eq!(dropped(&drops), LEFTOVERS);
}

#[test]
fn thread_exit_with_hazard_retirees_and_acquired_slots() {
    let _g = serial();
    let drops = counter();
    let worker = {
        let drops = Arc::clone(&drops);
        std::thread::spawn(move || {
            let anchor: Atomic<u64> = Atomic::new(7);
            {
                let guard = Hazard::enter();
                // Two slots acquired; they stay with the thread (cached)
                // after the guard and are released only by its exit.
                let p = guard.protect(0, &anchor, Ordering::Acquire);
                guard.protect_ptr(1, p);
                for _ in 0..LEFTOVERS {
                    retire_fresh(&guard, &drops);
                }
            }
            assert!(Hazard::retired_backlog() >= LEFTOVERS, "list not counted");
            // SAFETY: never shared.
            unsafe { drop(anchor.into_owned()) };
        })
    };
    worker.join().unwrap();
    assert_eq!(dropped(&drops), 0, "freed with nobody scanning");
    assert!(
        Hazard::retired_backlog() >= LEFTOVERS,
        "list not handed over"
    );
    Hazard::collect();
    assert_eq!(dropped(&drops), LEFTOVERS);
    assert_eq!(Hazard::retired_backlog(), 0);
    Hazard::collect();
    assert_eq!(dropped(&drops), LEFTOVERS, "double free");
}

/// A survivor's hazard outranks the retiring thread's exit: the node stays
/// (with a collector that has no list of its own to keep it on) until the
/// hazard clears, then goes exactly once.
#[test]
fn thread_exit_leaves_protected_node_to_the_protector() {
    let _g = serial();
    let drops = counter();
    let shared: Arc<Atomic<Counted>> = Arc::new(Atomic::new(Counted(Arc::clone(&drops))));

    let reader = Hazard::enter();
    let protected = reader.protect(0, &shared, Ordering::Acquire);
    let worker = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let guard = Hazard::enter();
            let old = shared.swap(Shared::null(), Ordering::AcqRel, &guard);
            // SAFETY: unlinked by the swap; retired exactly once.
            unsafe { guard.retire(old) };
        })
    };
    worker.join().unwrap();
    for _ in 0..3 {
        Hazard::collect();
    }
    assert_eq!(dropped(&drops), 0, "freed under a survivor's hazard");
    assert_eq!(Hazard::retired_backlog(), 1);
    // SAFETY: protected since before the unlink.
    let _still_readable = unsafe { protected.deref() };

    drop(reader);
    Hazard::collect();
    assert_eq!(dropped(&drops), 1);
    assert_eq!(Hazard::retired_backlog(), 0);
    Hazard::collect();
    assert_eq!(dropped(&drops), 1, "double free");
}

#[test]
fn thread_exit_hands_domain_retirees_to_the_next_scan() {
    let domain = Arc::new(Domain::new());
    let drops = counter();
    let retire_some = |n: usize| {
        let (domain, drops) = (Arc::clone(&domain), Arc::clone(&drops));
        move || {
            for _ in 0..n {
                let node = Box::into_raw(Box::new(Counted(Arc::clone(&drops))));
                // SAFETY: never published; retired exactly once.
                unsafe { domain.retire(node) };
            }
        }
    };
    std::thread::spawn(retire_some(LEFTOVERS)).join().unwrap();
    std::thread::spawn(retire_some(LEFTOVERS)).join().unwrap();
    assert_eq!(dropped(&drops), 0);
    assert_eq!(domain.retired_len(), 2 * LEFTOVERS);

    // This thread's own retire crosses the threshold with theirs on board.
    retire_some(1)();
    assert_eq!(domain.retired_len(), 2 * LEFTOVERS + 1);
    assert_eq!(domain.scan(), 2 * LEFTOVERS + 1);
    assert_eq!(dropped(&drops), 2 * LEFTOVERS + 1);
    assert_eq!(domain.retired_len(), 0);

    // Leftovers nobody scanned go with the domain, once.
    std::thread::spawn(retire_some(LEFTOVERS)).join().unwrap();
    retire_some(2)();
    drop(Arc::try_unwrap(domain).expect("workers are gone"));
    assert_eq!(dropped(&drops), 3 * LEFTOVERS + 3);
}

/// Observability satellite: one retire shows in the backlog before any
/// flush or scan, and is gone after `collect()`.
#[test]
fn backlog_counts_unflushed_retirees() {
    let _g = serial();
    fn one<R: Reclaimer>() {
        let drops = counter();
        for _ in 0..1000 {
            R::collect();
            if R::retired_backlog() == 0 {
                break;
            }
        }
        assert_eq!(R::retired_backlog(), 0, "{}: dirty start", R::NAME);
        {
            let guard = R::enter();
            retire_fresh(&guard, &drops);
            assert_eq!(R::retired_backlog(), 1, "{}: bag not counted", R::NAME);
        }
        collect_until::<R>(&drops, 1);
        assert_eq!(dropped(&drops), 1, "{}", R::NAME);
        assert_eq!(R::retired_backlog(), 0, "{}", R::NAME);
    }
    one::<Ebr>();
    one::<Hazard>();
}
