//! The Harris–Michael lock-free sorted-list protocol (Harris 2001, with
//! Michael's 2002 helping `find`), written once over any node type:
//! [`HarrisMichaelList`](crate::HarrisMichaelList) runs it on keys, the
//! split-ordered hash map of `cds-map` on bit-reversed hashes.
//!
//! A node's logical-deletion [`MARK`] is the low tag bit of its *own*
//! `next` pointer, so marking and pointing are one atomic word and a
//! delete and a competing insert after the same node cannot both
//! succeed. Deletion is two steps: CAS the victim's `next` from untagged
//! to tagged (the linearization point), then CAS the predecessor's
//! pointer past the victim — and *any* [`find`] that meets a marked node
//! performs that unlink on the deleter's behalf (helping), which is what
//! makes the list lock-free.
//!
//! Order is whatever the caller's `cmp` closure says: it is handed a
//! live node and answers where that node stands relative to the target
//! — `Less` to walk past it, `Equal` for a match, `Greater` to stop in
//! front of it. The chain must be sorted under it.
//!
//! # Safety contract
//!
//! [`find`], [`insert`] and [`remove`] dereference nodes they reach from
//! `head`, and retire the ones they unlink through `guard`. Every call
//! on one chain must therefore pass a guard of the **same** reclamation
//! backend, and a **blanket** one
//! ([`cds_reclaim::Reclaimer::enter_blanket`]): traversals restart
//! through chains of marked nodes whose predecessors are not frozen, so
//! epoch pins and hazard eras cover such walks while a fixed set of
//! per-location hazards cannot. Nodes enter the chain only through
//! [`insert`] (or while the chain is not yet shared) and leave it only
//! through these functions.

use cds_atomic::Ordering;
use std::cmp::Ordering as CmpOrdering;

use cds_atomic::stress;
use cds_reclaim::epoch::{Atomic, Guard, Owned, Shared};
use cds_reclaim::ReclaimGuard;
use cds_sync::Backoff;

/// Tag bit marking a node as logically deleted.
pub const MARK: usize = 1;

/// A list node: anything with a tagged `next` link.
pub trait Node: Sized {
    /// The link to the successor; its low tag bit is this node's [`MARK`].
    fn next(&self) -> &Atomic<Self>;
}

/// Where a [`find`] stopped: whether `curr` matched, the link that
/// points at `curr`, and `curr` itself (untagged; null at the end).
pub type Position<'g, N> = (bool, &'g Atomic<N>, Shared<'g, N>);

/// Michael's `find`: walks from `head` to the first unmarked node that
/// `cmp` does not answer `Less` for, unlinking (and retiring) every
/// marked node it passes.
///
/// # Safety
///
/// The module-level contract.
#[inline]
pub unsafe fn find<'g, N: Node, G: ReclaimGuard>(
    head: &'g Atomic<N>,
    cmp: impl Fn(&N) -> CmpOrdering,
    guard: &'g G,
) -> Position<'g, N> {
    'retry: loop {
        stress::yield_point();
        let mut prev = head;
        let mut curr = prev.load(Ordering::Acquire, guard);
        loop {
            stress::yield_point();
            // SAFETY: reached from `head` under the caller's blanket
            // guard, so not freed before the guard ends.
            let Some(curr_ref) = (unsafe { curr.as_ref() }) else {
                return (false, prev, curr);
            };
            let next = curr_ref.next().load(Ordering::Acquire, guard);
            if next.tag() == MARK {
                // `curr` is logically deleted: help unlink it.
                if unlink(prev, curr, next, guard) {
                    curr = next.with_tag(0);
                } else {
                    // Someone changed `prev` under us; start over.
                    continue 'retry;
                }
            } else {
                match cmp(curr_ref) {
                    CmpOrdering::Less => {
                        prev = curr_ref.next();
                        curr = next;
                    }
                    CmpOrdering::Equal => return (true, prev, curr),
                    CmpOrdering::Greater => return (false, prev, curr),
                }
            }
        }
    }
}

/// One `AcqRel` CAS on a link.
#[inline]
fn cas<N, G>(link: &Atomic<N>, current: Shared<'_, N>, new: Shared<'_, N>, guard: &G) -> bool {
    link.compare_exchange(current, new, Ordering::AcqRel, Ordering::Relaxed, guard)
        .is_ok()
}

/// Physical delete: swings `prev` from the marked `curr` to its
/// successor and, if that CAS lands, retires `curr` (which must be a
/// marked node of a chain under the module-level contract).
#[inline]
fn unlink<N, G: ReclaimGuard>(
    prev: &Atomic<N>,
    curr: Shared<'_, N>,
    next: Shared<'_, N>,
    guard: &G,
) -> bool {
    let unlinked = cas(prev, curr.with_tag(0), next.with_tag(0), guard);
    if unlinked {
        // SAFETY: this CAS unlinked it, exactly once; readers may linger.
        unsafe { guard.retire(curr) };
    }
    unlinked
}

/// Links `node` where `cmp(existing, &node)` places it. `Ok(linked)` on
/// success; if some live node answers `Equal`, the staged node is
/// dropped (it was never published) and that node comes back as `Err`.
///
/// # Safety
///
/// The module-level contract.
#[inline]
pub unsafe fn insert<'g, N: Node, G: ReclaimGuard>(
    head: &'g Atomic<N>,
    mut node: Owned<N>,
    cmp: impl Fn(&N, &N) -> CmpOrdering,
    guard: &'g G,
) -> Result<Shared<'g, N>, Shared<'g, N>> {
    let backoff = Backoff::new();
    loop {
        stress::yield_point();
        // SAFETY: the caller's contract is `find`'s.
        let (found, prev, curr) = unsafe { find(head, |existing| cmp(existing, &node), guard) };
        if found {
            return Err(curr);
        }
        node.next().store(curr, Ordering::Relaxed);
        let staged = node.into_shared(guard);
        if cas(prev, curr, staged, guard) {
            return Ok(staged);
        }
        // SAFETY: publish failed, the node is still ours.
        node = unsafe { staged.into_owned() };
        backoff.spin();
    }
}

/// Removes the node `cmp` answers `Equal` for; `false` if there is none.
/// Linearizes at the mark; the unlink is best-effort (a later [`find`]
/// helps).
///
/// # Safety
///
/// The module-level contract.
#[inline]
pub unsafe fn remove<N: Node, G: ReclaimGuard>(
    head: &Atomic<N>,
    cmp: impl Fn(&N) -> CmpOrdering,
    guard: &G,
) -> bool {
    let backoff = Backoff::new();
    loop {
        stress::yield_point();
        // SAFETY: the caller's contract is `find`'s.
        let (found, prev, curr) = unsafe { find(head, &cmp, guard) };
        if !found {
            return false;
        }
        // SAFETY: `find` returned it unmarked and protected.
        let curr_ref = unsafe { curr.deref() };
        let next = curr_ref.next().load(Ordering::Acquire, guard);
        // Step 1: logical delete (the linearization point) — unless
        // someone else is deleting it right now.
        if next.tag() == MARK || !cas(curr_ref.next(), next, next.with_tag(MARK), guard) {
            backoff.spin();
            continue;
        }
        // Step 2: physical unlink; if `prev` moved, a helping pass will
        // (or did) unlink and retire it.
        if !unlink(prev, curr, next, guard) {
            // SAFETY: as above.
            let _ = unsafe { find(head, &cmp, guard) };
        }
        return true;
    }
}

/// Frees every node still reachable from `head`, marked or not.
/// Already-retired nodes are unreachable from `head` and are freed by
/// the reclamation backend, not here.
///
/// # Safety
///
/// The caller must have unique access to the whole chain (it is inside
/// the owning structure's `Drop`).
pub unsafe fn drop_chain<N: Node>(head: &Atomic<N>) {
    // SAFETY: unique access; the unprotected guard is a pure load witness
    // on every backend.
    let guard = unsafe { Guard::unprotected() };
    let mut curr = head.load(Ordering::Relaxed, &guard);
    while !curr.is_null() {
        // SAFETY: unique ownership of the chain.
        let node = unsafe { curr.with_tag(0).into_owned() }.into_box();
        curr = node.next().load(Ordering::Relaxed, &guard).with_tag(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicUsize;
    use cds_reclaim::{Ebr, Reclaimer};
    use std::sync::Arc;

    /// A node ordered by `rank` alone but identified by `(rank, id)`, as
    /// the split-ordered map's nodes are by `(so_key, key)`; counts its
    /// own drops.
    struct Ranked {
        rank: u64,
        id: char,
        drops: Arc<AtomicUsize>,
        next: Atomic<Ranked>,
    }

    impl Node for Ranked {
        fn next(&self) -> &Atomic<Self> {
            &self.next
        }
    }

    impl Drop for Ranked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Equal rank but another id answers `Less`: walk through the run.
    fn position(node: &Ranked, rank: u64, id: char) -> CmpOrdering {
        match node.rank.cmp(&rank) {
            CmpOrdering::Equal if node.id != id => CmpOrdering::Less,
            order => order,
        }
    }

    struct Chain {
        head: Atomic<Ranked>,
        drops: Arc<AtomicUsize>,
    }

    impl Chain {
        fn new() -> Self {
            Chain {
                head: Atomic::null(),
                drops: Arc::new(AtomicUsize::new(0)),
            }
        }

        /// Address of the linked (`Ok`) or already-present (`Err`) node.
        fn insert(&self, rank: u64, id: char) -> Result<usize, usize> {
            let guard = Ebr::enter_blanket();
            let node = Owned::new(Ranked {
                rank,
                id,
                drops: Arc::clone(&self.drops),
                next: Atomic::null(),
            });
            let by_rank_and_id = |c: &Ranked, n: &Ranked| position(c, n.rank, n.id);
            // SAFETY: every call on this chain passes an `Ebr` blanket guard.
            unsafe { insert(&self.head, node, by_rank_and_id, &guard) }
                .map(|linked| linked.as_raw() as usize)
                .map_err(|existing| existing.as_raw() as usize)
        }

        fn contains(&self, rank: u64, id: char) -> bool {
            let guard = Ebr::enter_blanket();
            // SAFETY: as in `insert`.
            unsafe { find(&self.head, |c| position(c, rank, id), &guard) }.0
        }

        fn remove(&self, rank: u64, id: char) -> bool {
            let guard = Ebr::enter_blanket();
            // SAFETY: as in `insert`.
            unsafe { remove(&self.head, |c| position(c, rank, id), &guard) }
        }
    }

    impl Drop for Chain {
        fn drop(&mut self) {
            // SAFETY: `&mut self` is unique access to the chain.
            unsafe { drop_chain(&self.head) }
        }
    }

    #[test]
    fn a_search_walks_through_the_whole_equal_rank_run() {
        let chain = Chain::new();
        for (rank, id) in [(5, 'a'), (7, 'x'), (5, 'b'), (3, 'w'), (5, 'c')] {
            assert!(chain.insert(rank, id).is_ok(), "({rank}, {id})");
        }
        // Every member of the rank-5 run is reachable past the others…
        assert!(chain.contains(5, 'a') && chain.contains(5, 'b') && chain.contains(5, 'c'));
        // …a stranger to the run is not found, at either end of it…
        assert!(!chain.contains(5, 'z') && !chain.contains(4, 'a') && !chain.contains(6, 'a'));
        // …and removing the middle of the run leaves the rest linked.
        assert!(chain.remove(5, 'b'));
        assert!(!chain.remove(5, 'b'));
        assert!(chain.contains(5, 'a') && !chain.contains(5, 'b') && chain.contains(5, 'c'));
        // The freed identity can be taken again, behind the survivors.
        assert!(chain.insert(5, 'b').is_ok());
        assert!(chain.contains(7, 'x') && chain.contains(3, 'w'));
    }

    #[test]
    fn a_duplicate_insert_returns_the_existing_node_and_drops_the_staged_one() {
        let chain = Chain::new();
        let first = chain.insert(1, 'a').expect("empty chain");
        assert_eq!(chain.drops.load(Ordering::Relaxed), 0);
        assert_eq!(chain.insert(1, 'a'), Err(first));
        assert_eq!(chain.drops.load(Ordering::Relaxed), 1, "staged node");
        let drops = Arc::clone(&chain.drops);
        drop(chain);
        assert_eq!(drops.load(Ordering::Relaxed), 2, "plus the linked one");
    }
}
