//! Property-based tests of the reclamation substrates themselves.
//!
//! These drive `cds-reclaim` through randomized single-threaded schedules
//! (seeded by `cds_lincheck::prop`) where the expected reclamation
//! behaviour can be computed exactly: protected nodes must survive scans,
//! unprotected retirees must be freed, and epoch pins must hold back
//! collection until released.

use cds_atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use cds_lincheck::prop::{forall_vec, Config, Prng};
use cds_reclaim::epoch::{Collector, Owned};
use cds_reclaim::hazard::{Domain, HazardPointer, SCAN_THRESHOLD};

#[derive(Debug)]
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Any interleaving of protect / retire / scan on one slot: the node
/// currently protected is never freed; everything retired while
/// unprotected is freed by the next scan.
#[test]
fn hazard_protection_is_respected() {
    let gen = |rng: &mut Prng| rng.below(3) as u8;
    forall_vec(&Config::new(48, 60), gen, |script: &[u8]| {
        let domain = Domain::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let mut created = 0usize;
        let mut retired_unprotected = 0usize;

        let slot: AtomicPtr<Counted> =
            AtomicPtr::new(Box::into_raw(Box::new(Counted(Arc::clone(&drops)))));
        created += 1;
        let mut hp = HazardPointer::new(&domain);
        let mut protecting = false;

        for step in script {
            match step {
                0 => {
                    // Protect whatever is in the slot.
                    hp.protect(&slot);
                    protecting = true;
                }
                1 => {
                    // Swap in a fresh node and retire the old one. The old
                    // node may be protected: it must then survive scans
                    // until the hazard moves.
                    let fresh = Box::into_raw(Box::new(Counted(Arc::clone(&drops))));
                    created += 1;
                    let old = slot.swap(fresh, Ordering::AcqRel);
                    // SAFETY: `old` is unlinked and retired exactly once.
                    unsafe { domain.retire(old) };
                    if !protecting {
                        retired_unprotected += 1;
                    }
                    // After the swap the protection (if any) covers a node
                    // that is now retired; the *new* slot value is
                    // unprotected but also not retired.
                }
                _ => {
                    domain.scan();
                    // Everything retired while unprotected must be gone by
                    // now; the protected node (if retired) must not be.
                    assert!(
                        drops.load(Ordering::SeqCst) >= retired_unprotected,
                        "scan failed to free unprotected retirees"
                    );
                }
            }
        }

        // Cleanup: free the final slot value; drop protection; drain.
        let last = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: unlinked; never retired (only swapped-out nodes were).
        unsafe { drop(Box::from_raw(last)) };
        drop(hp);
        drop(domain);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            created,
            "domain drop must reclaim everything exactly once"
        );
    });
}

/// Epoch collector: a pinned guard holds back reclamation of items
/// deferred after it pinned; unpinning and collecting frees them all.
/// Exhaustive over batch sizes rather than sampled.
#[test]
fn epoch_pins_hold_back_collection() {
    for batch in 1usize..40 {
        let collector = Collector::new();
        let h1 = collector.register();
        let h2 = collector.register();
        let drops = Arc::new(AtomicUsize::new(0));

        let blocker = h2.pin();
        {
            let guard = h1.pin();
            for _ in 0..batch {
                let node = Owned::new(Counted(Arc::clone(&drops))).into_shared(&guard);
                // SAFETY: node is unreachable (never published anywhere).
                unsafe { guard.defer_destroy(node) };
            }
            guard.flush();
        }
        for _ in 0..8 {
            collector.collect();
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "items freed while a guard from before the defer was still pinned"
        );

        drop(blocker);
        for _ in 0..4 {
            collector.collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), batch);
    }
}

/// Michael's bound, per retiring thread: the nodes a thread has retired
/// and not yet freed never exceed the number of published hazard slots
/// plus the scan batch threshold. We retire a randomized stream of nodes
/// while hazards come and go on live decoys, and check the bound after
/// every step — on one thread, where the domain's backlog is that thread's
/// list, and on two threads retiring side by side, where it is the sum of
/// both lists and the bound doubles.
#[test]
fn retired_backlog_is_bounded_by_hazards_plus_batch() {
    const HAZARDS_PER_THREAD: usize = 3;

    /// Runs `script` on the calling thread; `bound` is checked against the
    /// whole domain's backlog after every step.
    fn run_script(domain: &Domain, script: &[u8], bound: usize) {
        let drops = Arc::new(AtomicUsize::new(0));
        // A small fixed population of hazard slots, each either parked on
        // a live decoy node or empty.
        let decoys: Vec<AtomicPtr<Counted>> = (0..HAZARDS_PER_THREAD)
            .map(|_| AtomicPtr::new(Box::into_raw(Box::new(Counted(Arc::clone(&drops))))))
            .collect();
        let mut hazards: Vec<HazardPointer<'_>> = (0..decoys.len())
            .map(|_| HazardPointer::new(domain))
            .collect();

        for (i, step) in script.iter().enumerate() {
            let slot = i % hazards.len();
            match step {
                0 => {
                    hazards[slot].protect(&decoys[slot]);
                }
                1 => {
                    hazards[slot].reset();
                }
                _ => {
                    // Retire an unpublished throwaway node.
                    let node = Box::into_raw(Box::new(Counted(Arc::clone(&drops))));
                    // SAFETY: never published; retired exactly once.
                    unsafe { domain.retire(node) };
                }
            }
            let backlog = domain.retired_len();
            assert!(
                backlog <= bound,
                "backlog {backlog} exceeds threads x (H + batch) = {bound}"
            );
        }

        // Cleanup: decoys were never retired; free them directly.
        hazards.clear();
        for d in &decoys {
            let p = d.swap(std::ptr::null_mut(), Ordering::AcqRel);
            // SAFETY: owned by this test, never retired.
            unsafe { drop(Box::from_raw(p)) };
        }
    }

    let gen = |rng: &mut Prng| rng.below(4) as u8;
    forall_vec(&Config::new(32, 400), gen, |script: &[u8]| {
        run_script(&Domain::new(), script, HAZARDS_PER_THREAD + SCAN_THRESHOLD);
    });

    // Two retiring threads: every hazard of the domain can pin a node on
    // either list, so each list is bounded by all of them plus the batch.
    forall_vec(&Config::new(8, 400), gen, |script: &[u8]| {
        let domain = Domain::new();
        let bound = 2 * (2 * HAZARDS_PER_THREAD + SCAN_THRESHOLD);
        std::thread::scope(|s| {
            let reversed: Vec<u8> = script.iter().rev().copied().collect();
            let domain = &domain;
            s.spawn(move || run_script(domain, &reversed, bound));
            run_script(domain, script, bound);
        });
    });
}

/// A node with a matching published hazard survives arbitrary decoy churn
/// and explicit scans; the moment the hazard resets, one scan frees it.
#[test]
fn matching_hazard_blocks_reclamation() {
    let domain = Domain::new();
    let protected_drops = Arc::new(AtomicUsize::new(0));
    let slot: AtomicPtr<Counted> = AtomicPtr::new(Box::into_raw(Box::new(Counted(Arc::clone(
        &protected_drops,
    )))));

    let mut hp = HazardPointer::new(&domain);
    let p = hp.protect(&slot);
    // Unlink and retire while the hazard still covers it.
    slot.store(std::ptr::null_mut(), Ordering::Release);
    // SAFETY: unlinked, retired exactly once, hazard published.
    unsafe { domain.retire(p) };

    // Decoy churn: enough unprotected retirees to trip many scan cycles.
    let decoy_drops = Arc::new(AtomicUsize::new(0));
    for _ in 0..(SCAN_THRESHOLD * 4) {
        let node = Box::into_raw(Box::new(Counted(Arc::clone(&decoy_drops))));
        // SAFETY: never published; retired exactly once.
        unsafe { domain.retire(node) };
    }
    domain.scan();
    assert_eq!(
        protected_drops.load(Ordering::SeqCst),
        0,
        "protected node reclaimed while its hazard was published"
    );
    assert_eq!(
        decoy_drops.load(Ordering::SeqCst),
        SCAN_THRESHOLD * 4,
        "unprotected decoys must all be reclaimed by an explicit scan"
    );

    hp.reset();
    domain.scan();
    assert_eq!(
        protected_drops.load(Ordering::SeqCst),
        1,
        "node must be reclaimed once its hazard resets"
    );
}

/// Era (blanket) protection: an era entered *before* a batch of retires
/// holds every one of them back, regardless of address; dropping the era
/// releases them all on the next scan.
#[test]
fn era_blocks_nodes_retired_after_entry() {
    let domain = Domain::new();
    let drops = Arc::new(AtomicUsize::new(0));

    let era = domain.enter_era();
    const BATCH: usize = 24;
    for _ in 0..BATCH {
        let node = Box::into_raw(Box::new(Counted(Arc::clone(&drops))));
        // SAFETY: never published; retired exactly once.
        unsafe { domain.retire(node) };
    }
    domain.scan();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        0,
        "era entered before the retires must hold back every node"
    );

    drop(era);
    domain.scan();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        BATCH,
        "dropping the era must release the whole batch"
    );
}
