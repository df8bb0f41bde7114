use cds_atomic::{AtomicUsize, Ordering};
use std::alloc::{self, Layout};
use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::ptr;

use cds_core::{Bound, ConcurrentSet};
use cds_reclaim::epoch::{Atomic, Guard, Shared};
use cds_reclaim::{Ebr, ReclaimGuard, Reclaimer};
use cds_sync::Backoff;

use crate::level::random_level;
use crate::HEIGHT;

/// Per-level logical-deletion mark (tag bit of that level's `next`).
const MARK: usize = 1;

/// A node is one allocation: this header, followed by `height` forward
/// pointers (its *tower*, see [`Node::alloc`]). The tag bit of level `l`'s
/// pointer marks the node as deleted *at that level*.
///
/// `tower` is a zero-length marker for where the pointers start. They are
/// reached with [`Node::next`] from the raw node pointer, never through a
/// `&Node`, whose provenance covers the header only.
#[repr(C)]
struct Node<T> {
    key: Bound<T>,
    height: usize,
    /// Parties still to finish with the node before it may be retired: its
    /// inserter, until the tower is linked, and the remover that wins its
    /// level-0 mark. See [`LockFreeSkipList::release`].
    pending: AtomicUsize,
    tower: [Atomic<Node<T>>; 0],
}

impl<T> Node<T> {
    /// The layout of a node with `height` levels: the header, then the
    /// tower.
    fn layout(height: usize) -> Layout {
        let tower = Layout::array::<Atomic<Self>>(height).expect("tower size overflows");
        Layout::new::<Self>()
            .extend(tower)
            .expect("node size overflows")
            .0
    }

    /// Allocates a node holding `key` with `height` null forward pointers.
    fn alloc(key: Bound<T>, height: usize) -> *mut Self {
        debug_assert!((1..=HEIGHT).contains(&height));
        let layout = Self::layout(height);
        // SAFETY: the layout has a non-zero size (the header holds
        // `height`).
        let node = unsafe { alloc::alloc(layout) }.cast::<Self>();
        if node.is_null() {
            alloc::handle_alloc_error(layout);
        }
        // SAFETY: a fresh allocation with room for the header and `height`
        // pointers; every field is written before anyone reads it.
        unsafe {
            ptr::addr_of_mut!((*node).key).write(key);
            ptr::addr_of_mut!((*node).height).write(height);
            ptr::addr_of_mut!((*node).pending).write(AtomicUsize::new(2));
            let tower = ptr::addr_of_mut!((*node).tower).cast::<Atomic<Self>>();
            for l in 0..height {
                tower.add(l).write(Atomic::null());
            }
        }
        node
    }

    /// Drops the key in place and frees the node, with the layout
    /// recomputed from its height: the destructor a retired node is handed
    /// to the reclaimer with.
    ///
    /// # Safety
    ///
    /// `node` came from [`Node::alloc`] (as `*mut Node<T>`) and is
    /// referenced by nobody any more.
    unsafe fn dealloc(node: *mut u8) {
        let n = node.cast::<Self>();
        // SAFETY: per the contract; the forward pointers need no drop.
        unsafe {
            let layout = Self::layout((*n).height);
            ptr::drop_in_place(ptr::addr_of_mut!((*n).key));
            alloc::dealloc(node, layout);
        }
    }

    /// Makes a node reachable as a `Shared`. Under weak-memory exploration
    /// this declares the whole allocation a published region, as
    /// `Owned::into_shared` does for a boxed node.
    fn share<'g>(node: *mut Self, height: usize) -> Shared<'g, Self> {
        #[cfg(feature = "stress")]
        cds_atomic::stress::publish_region(node as usize, Self::layout(height).size());
        #[cfg(not(feature = "stress"))]
        let _ = height;
        Shared::from_raw(node)
    }

    /// Level `l`'s forward pointer, indexed from the raw node pointer.
    ///
    /// # Safety
    ///
    /// `node` is non-null and stays allocated for `'g` (it is protected by
    /// the guard `'g` borrows, or owned by the caller), and `l` is below
    /// its height.
    unsafe fn next<'g>(node: Shared<'g, Self>, l: usize) -> &'g Atomic<Self> {
        let node = node.as_raw();
        // SAFETY: per the contract, `node` is live and its tower has more
        // than `l` pointers, all initialized by `alloc`.
        unsafe {
            debug_assert!(l < (*node).height);
            &*ptr::addr_of!((*node).tower).cast::<Atomic<Self>>().add(l)
        }
    }
}

/// The **lock-free skiplist** (Fraser 2004, as presented by Herlihy &
/// Shavit ch. 14).
///
/// CAS-only: the deletion mark lives in the tag bit of each level's `next`
/// pointer, and every traversal *helps* by physically unlinking marked
/// nodes it passes. The bottom level is authoritative — a node is in the
/// set iff it is linked and unmarked at level 0; upper levels are mere
/// shortcuts, linked best-effort after the bottom-level CAS.
///
/// ## Reclamation
///
/// The skiplist is generic over its reclamation backend `R`
/// ([`cds_reclaim::Reclaimer`], default [`Ebr`]) and uses the **blanket**
/// protection mode ([`Reclaimer::enter_blanket`]) — the per-level restart
/// loops traverse marked towers no fixed hazard set can cover.
///
/// A node may be retired only once operations that begin afterwards cannot
/// reach it, and being unlinked at level 0 is not that. A `find` that met
/// the node unmarked at an upper level steps down without snipping it and
/// may snip it at level 0 once a remover has marked it, leaving it linked
/// above; and an insert still linking its tower can link a level after the
/// remover's `find` went past it. So each node has two parties (`pending`):
/// its inserter, until the tower is linked, and the remover whose CAS marks
/// it at level 0. The last of the two to finish runs a `find` for the key,
/// which begins after every link and every mark and so unlinks the node
/// from every level, and then retires it (`release`). The node is not a
/// `Box`, so it goes through [`ReclaimGuard::retire_raw`] with its own
/// destructor.
///
/// ## Memory layout
///
/// A node is **one allocation**: a `#[repr(C)]` header (the key, the tower
/// height and `pending`) followed inline by `height` tagged forward
/// pointers, the layout crossbeam-skiplist uses. A search hop therefore
/// misses the cache once per node rather than once for the node and again
/// for a separately allocated tower, and an insert allocates once. The head
/// is a node of the same kind with `HEIGHT` levels.
///
/// Also provides [`remove_min`](LockFreeSkipList::remove_min): the
/// Lotan–Shavit priority-queue operation used by `cds-prio`.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_skiplist::LockFreeSkipList;
///
/// let s = LockFreeSkipList::new();
/// s.insert(2);
/// s.insert(9);
/// assert_eq!(s.remove_min(), Some(2));
/// ```
pub struct LockFreeSkipList<T, R: Reclaimer = Ebr> {
    /// The `NegInf` sentinel; never replaced or retired.
    head: *mut Node<T>,
    _reclaimer: std::marker::PhantomData<R>,
}

// SAFETY: reclaimer-managed nodes; all mutation is CAS-based.
unsafe impl<T: Send + Sync, R: Reclaimer> Send for LockFreeSkipList<T, R> {}
unsafe impl<T: Send + Sync, R: Reclaimer> Sync for LockFreeSkipList<T, R> {}

type FindResult<'g, T> = (
    bool,
    [Shared<'g, Node<T>>; HEIGHT],
    [Shared<'g, Node<T>>; HEIGHT],
);

impl<T, R: Reclaimer> LockFreeSkipList<T, R> {
    /// The head sentinel, as a pointer valid for the guard's lifetime.
    fn head<'g, G>(&self, _guard: &'g G) -> Shared<'g, Node<T>> {
        Shared::from_raw(self.head)
    }
}

impl<T: Ord> LockFreeSkipList<T> {
    /// Creates an empty set on the default ([`Ebr`]) backend.
    pub fn new() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Ord, R: Reclaimer> LockFreeSkipList<T, R> {
    /// Creates an empty set on the reclamation backend `R`.
    pub fn with_reclaimer() -> Self {
        LockFreeSkipList {
            head: Node::alloc(Bound::NegInf, HEIGHT),
            _reclaimer: std::marker::PhantomData,
        }
    }

    /// Ends one party's hold on `node` (see `Node::pending`). The last of
    /// the two unlinks it from every level with a `find` that begins after
    /// both are done, then retires it (the type-level docs say why it is
    /// not the level-0 snip that retires).
    ///
    /// # Safety
    ///
    /// `node` is protected by `guard` and holds `key`; the caller is its
    /// inserter with the tower linked, or the remover whose CAS marked it
    /// at level 0, and calls once.
    unsafe fn release<G: ReclaimGuard>(&self, node: Shared<'_, Node<T>>, key: &T, guard: &G) {
        // AcqRel: the last party's `find` sees the other's links and marks.
        // SAFETY: per the contract.
        if unsafe { node.deref() }
            .pending
            .fetch_sub(1, Ordering::AcqRel)
            == 1
        {
            let _ = self.find(key, guard);
            // SAFETY: the node is marked at every level, its tower will
            // never be linked again, and the `find` unlinked it wherever it
            // was linked: unreachable to operations that begin now. It came
            // from `Node::alloc`.
            unsafe { guard.retire_raw(node.as_raw().cast(), Node::<T>::dealloc) };
        }
    }

    /// Fraser's `find`: descends the tower recording predecessors and
    /// successors per level, snipping every marked node encountered.
    fn find<'g, G: ReclaimGuard>(&self, key: &T, guard: &'g G) -> FindResult<'g, T> {
        'retry: loop {
            cds_core::stress::yield_point();
            let mut preds = [Shared::null(); HEIGHT];
            let mut succs = [Shared::null(); HEIGHT];
            let mut pred = self.head(guard);
            for l in (0..HEIGHT).rev() {
                // SAFETY (all `Node::next` calls below): pinned; `pred` is
                // the head or an unmarked node we traversed to at a level
                // `>= l`, and `curr` is linked at level `l`, so both towers
                // reach level `l`.
                let mut curr = unsafe { Node::next(pred, l) }
                    .load(Ordering::Acquire, guard)
                    .with_tag(0);
                loop {
                    cds_core::stress::yield_point();
                    let curr_ref = match unsafe { curr.as_ref() } {
                        None => break, // level exhausted
                        Some(c) => c,
                    };
                    // Observation point of the retire-contract unit test.
                    #[cfg(test)]
                    tests::reached(curr.as_raw() as usize);
                    let next = unsafe { Node::next(curr, l) }.load(Ordering::Acquire, guard);
                    if next.tag() == MARK {
                        // curr is deleted at this level: snip it.
                        let snipped = unsafe { Node::next(pred, l) }
                            .compare_exchange(
                                curr.with_tag(0),
                                next.with_tag(0),
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                                guard,
                            )
                            .is_ok();
                        cds_obs::cas_outcome(snipped);
                        if snipped {
                            curr = next.with_tag(0);
                        } else {
                            cds_obs::count(cds_obs::Event::SkiplistRetry);
                            continue 'retry;
                        }
                    } else if curr_ref.key.cmp_key(key) == CmpOrdering::Less {
                        pred = curr;
                        curr = next.with_tag(0);
                    } else {
                        break;
                    }
                }
                preds[l] = pred;
                succs[l] = curr;
            }
            let found = match unsafe { succs[0].as_ref() } {
                Some(c) => c.key.cmp_key(key) == CmpOrdering::Equal,
                None => false,
            };
            return (found, preds, succs);
        }
    }

    /// Removes and returns the smallest key (Lotan & Shavit, 2000).
    ///
    /// Walks the bottom level, claiming the first unmarked node by marking
    /// its tower (top-down, bottom last — the bottom CAS is the
    /// linearization point), then releases it as its remover.
    pub fn remove_min(&self) -> Option<T>
    where
        T: Clone,
    {
        let guard = R::enter_blanket();
        // SAFETY (all `Node::next` calls below): pinned; the head and every
        // node linked at level 0 reach level 0.
        let mut curr = unsafe { Node::next(self.head(&guard), 0) }
            .load(Ordering::Acquire, &guard)
            .with_tag(0);
        loop {
            cds_core::stress::yield_point();
            let curr_ref = unsafe { curr.as_ref() }?;
            // SAFETY: pinned; `curr` was linked at level 0.
            unsafe { Self::mark_upper_levels(curr, &guard) };
            // Claim the bottom level.
            let bottom = unsafe { Node::next(curr, 0) };
            let next = bottom.load(Ordering::Acquire, &guard);
            if next.tag() == MARK {
                // Someone else claimed it; move on.
                curr = next.with_tag(0);
                continue;
            }
            let claimed = bottom
                .compare_exchange(
                    next,
                    next.with_tag(MARK),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                    &guard,
                )
                .is_ok();
            cds_obs::cas_outcome(claimed);
            if claimed {
                let key = curr_ref
                    .key
                    .finite()
                    .expect("non-sentinel node has a finite key");
                // SAFETY: pinned; our CAS marked it at level 0.
                unsafe { self.release(curr, key, &guard) };
                return Some(key.clone());
            }
            // Bottom CAS failed: either claimed or a node was inserted
            // right after curr; re-examine curr.
            cds_obs::count(cds_obs::Event::SkiplistRetry);
        }
    }

    /// Marks the levels above 0 of `node`'s tower, top-down; a level another
    /// remover marked first is left as it is.
    ///
    /// # Safety
    ///
    /// `node` is protected by `guard` and is not the head.
    unsafe fn mark_upper_levels<G: ReclaimGuard>(node: Shared<'_, Node<T>>, guard: &G) {
        // SAFETY: per the contract.
        let height = unsafe { node.deref() }.height;
        for l in (1..height).rev() {
            // SAFETY: `l` is within the tower.
            let level = unsafe { Node::next(node, l) };
            loop {
                cds_core::stress::yield_point();
                let next = level.load(Ordering::Acquire, guard);
                if next.tag() == MARK {
                    break;
                }
                let marked = level
                    .compare_exchange(
                        next,
                        next.with_tag(MARK),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                        guard,
                    )
                    .is_ok();
                cds_obs::cas_outcome(marked);
                if marked {
                    break;
                }
                cds_obs::count(cds_obs::Event::SkiplistRetry);
            }
        }
    }

    /// The nodes linked at level 0, in key order, each with whether it is
    /// marked (logically deleted).
    fn bottom<'g, G>(&self, guard: &'g G) -> impl Iterator<Item = (&'g Node<T>, bool)> + 'g
    where
        T: 'g,
    {
        // SAFETY (both `Node::next` calls): pinned; the head and every node
        // linked at level 0 reach level 0.
        let mut curr = unsafe { Node::next(self.head(guard), 0) }
            .load(Ordering::Acquire, guard)
            .with_tag(0);
        std::iter::from_fn(move || {
            // SAFETY: pinned.
            let c = unsafe { curr.as_ref() }?;
            let next = unsafe { Node::next(curr, 0) }.load(Ordering::Acquire, guard);
            curr = next.with_tag(0);
            Some((c, next.tag() == MARK))
        })
    }

    /// An ascending snapshot of the set's keys.
    ///
    /// The snapshot is *quiescently consistent*: it reflects some state
    /// consistent with the operations that completed before the call and
    /// may miss or include elements whose insertion/removal overlaps it.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        let guard = R::enter_blanket();
        self.bottom(&guard)
            .filter(|&(_, marked)| !marked)
            .filter_map(|(c, _)| c.key.finite().cloned())
            .collect()
    }

    /// A clone of the smallest key without removing it.
    pub fn min(&self) -> Option<T>
    where
        T: Clone,
    {
        let guard = R::enter_blanket();
        let (c, _) = self.bottom(&guard).find(|&(_, marked)| !marked)?;
        c.key.finite().cloned()
    }
}

impl<T: Ord, R: Reclaimer> Default for LockFreeSkipList<T, R> {
    fn default() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Ord + Send + Sync, R: Reclaimer> ConcurrentSet<T> for LockFreeSkipList<T, R> {
    const NAME: &'static str = "lock-free";

    fn insert(&self, value: T) -> bool {
        let guard = R::enter_blanket();
        let backoff = Backoff::new();
        let height = random_level() + 1;
        let node = Node::alloc(Bound::Finite(value), height);
        // SAFETY: the key is never written again and lives as long as the
        // node, which is ours until published and then protected by the
        // guard; it is not used after the duplicate path frees the node.
        let key = unsafe { &*node }
            .key
            .finite()
            .expect("finite by construction");
        // Link at level 0 first (the linearization point).
        let node_shared = loop {
            cds_core::stress::yield_point();
            let (found, preds, succs) = self.find(key, &guard);
            if found {
                // SAFETY: never published.
                unsafe { Node::<T>::dealloc(node.cast()) };
                return false;
            }
            for (l, &succ) in succs.iter().enumerate().take(height) {
                // SAFETY: our own node; `l < height`.
                unsafe { Node::next(Shared::from_raw(node), l) }.store(succ, Ordering::Relaxed);
            }
            let staged = Node::share(node, height);
            // SAFETY: pinned; `preds[0]` reaches level 0.
            match unsafe { Node::next(preds[0], 0) }.compare_exchange(
                succs[0],
                staged,
                Ordering::AcqRel,
                Ordering::Relaxed,
                &guard,
            ) {
                Ok(_) => {
                    cds_obs::cas_outcome(true);
                    break staged;
                }
                Err(_) => {
                    cds_obs::cas_outcome(false);
                    cds_obs::count(cds_obs::Event::SkiplistRetry);
                    backoff.spin();
                }
            }
        };

        // Best-effort linking of the upper levels.
        let (_, mut preds, mut succs) = self.find(key, &guard);
        'levels: for l in 1..height {
            // SAFETY: pinned (the node is published now); `l < height`.
            let level = unsafe { Node::next(node_shared, l) };
            loop {
                cds_core::stress::yield_point();
                let cur_next = level.load(Ordering::Acquire, &guard);
                if cur_next.tag() == MARK {
                    // Concurrently deleted; `release` below settles who
                    // cleans up.
                    break 'levels;
                }
                let succ = succs[l];
                if succ != cur_next {
                    // Refresh our forward pointer before exposing the level.
                    let refreshed = level
                        .compare_exchange(
                            cur_next,
                            succ,
                            Ordering::AcqRel,
                            Ordering::Relaxed,
                            &guard,
                        )
                        .is_ok();
                    cds_obs::cas_outcome(refreshed);
                    if !refreshed {
                        cds_obs::count(cds_obs::Event::SkiplistRetry);
                        continue; // re-examine (possibly marked now)
                    }
                }
                if succ.as_raw() == node_shared.as_raw() {
                    // find() already sees us at this level (a helper linked
                    // it); nothing to do.
                    break;
                }
                // SAFETY: pinned; `preds[l]` reaches level `l`.
                let linked = unsafe { Node::next(preds[l], l) }
                    .compare_exchange(
                        succ,
                        node_shared,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                        &guard,
                    )
                    .is_ok();
                cds_obs::cas_outcome(linked);
                if linked {
                    break; // level linked
                }
                cds_obs::count(cds_obs::Event::SkiplistRetry);
                // Stale view: recompute and retry this level.
                let (found, p, s) = self.find(key, &guard);
                if !found {
                    // The node has been removed already.
                    break 'levels;
                }
                preds = p;
                succs = s;
            }
        }
        // SAFETY: pinned; the tower is linked as far as it will be.
        unsafe { self.release(node_shared, key, &guard) };
        true
    }

    fn remove(&self, value: &T) -> bool {
        let guard = R::enter_blanket();
        let (found, _preds, succs) = self.find(value, &guard);
        if !found {
            return false;
        }
        let victim = succs[0];
        // SAFETY: pinned; found unmarked at level 0.
        unsafe { Self::mark_upper_levels(victim, &guard) };
        // Bottom level decides the winner.
        // SAFETY: pinned; every node reaches level 0.
        let bottom = unsafe { Node::next(victim, 0) };
        let backoff = Backoff::new();
        loop {
            cds_core::stress::yield_point();
            let next = bottom.load(Ordering::Acquire, &guard);
            if next.tag() == MARK {
                return false; // another remover won
            }
            let won = bottom
                .compare_exchange(
                    next,
                    next.with_tag(MARK),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                    &guard,
                )
                .is_ok();
            cds_obs::cas_outcome(won);
            if won {
                // SAFETY: pinned; our CAS marked it at level 0.
                unsafe { self.release(victim, value, &guard) };
                return true;
            }
            cds_obs::count(cds_obs::Event::SkiplistRetry);
            backoff.spin();
        }
    }

    fn contains(&self, value: &T) -> bool {
        // Read-only descent: skip marked nodes without snipping.
        let guard = R::enter_blanket();
        let mut pred = self.head(&guard);
        for l in (0..HEIGHT).rev() {
            // SAFETY (both `Node::next` calls): pinned; `pred` and `curr`
            // reach level `l`, as in `find`.
            let mut curr = unsafe { Node::next(pred, l) }
                .load(Ordering::Acquire, &guard)
                .with_tag(0);
            loop {
                cds_core::stress::yield_point();
                let curr_ref = match unsafe { curr.as_ref() } {
                    None => break,
                    Some(c) => c,
                };
                let next = unsafe { Node::next(curr, l) }.load(Ordering::Acquire, &guard);
                if next.tag() == MARK {
                    curr = next.with_tag(0);
                    continue;
                }
                match curr_ref.key.cmp_key(value) {
                    CmpOrdering::Less => {
                        pred = curr;
                        curr = next.with_tag(0);
                    }
                    CmpOrdering::Equal => return true,
                    CmpOrdering::Greater => break,
                }
            }
        }
        false
    }

    fn len(&self) -> usize {
        let guard = R::enter_blanket();
        self.bottom(&guard).filter(|&(_, marked)| !marked).count()
    }
}

impl<T, R: Reclaimer> Drop for LockFreeSkipList<T, R> {
    fn drop(&mut self) {
        // SAFETY: unique access; the bottom level reaches every node that
        // was not retired (a removed node is unlinked from every level by
        // whichever of its two parties retires it, and both have finished).
        // The unprotected guard is a pure load witness on every backend;
        // retired nodes are freed by the backend, not here.
        let guard = unsafe { Guard::unprotected() };
        let mut cur = self.head(&guard);
        while !cur.is_null() {
            // SAFETY: unique ownership of every node on the chain, each
            // from `Node::alloc`; the successor is read before the free.
            unsafe {
                let next = Node::next(cur, 0).load(Ordering::Relaxed, &guard);
                Node::<T>::dealloc(cur.as_raw().cast());
                cur = next.with_tag(0);
            }
        }
    }
}

impl<T, R: Reclaimer> fmt::Debug for LockFreeSkipList<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockFreeSkipList")
            .field("reclaimer", &R::NAME)
            .finish_non_exhaustive()
    }
}

impl<T: Ord + Send + Sync> FromIterator<T> for LockFreeSkipList<T> {
    /// Collects into a set (duplicates are dropped).
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let set = LockFreeSkipList::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

impl<T: Ord + Send + Sync, R: Reclaimer> Extend<T> for LockFreeSkipList<T, R> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentSet;
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    fn layout_holds_header_and_tower<T>() {
        let header = std::mem::size_of::<Node<T>>();
        let tower_at = std::mem::offset_of!(Node<T>, tower);
        let ptr = std::mem::size_of::<Atomic<Node<T>>>();
        for h in 1..=HEIGHT {
            let layout = Node::<T>::layout(h);
            assert!(layout.size() >= header + h * ptr, "height {h}");
            assert!(layout.size() >= tower_at + h * ptr, "height {h}");
            assert!(
                layout.align() > MARK,
                "height {h}: no room for the mark bit"
            );
            assert_eq!(layout.align() % std::mem::align_of::<Node<T>>(), 0);
        }
    }

    #[test]
    fn node_layout_holds_header_and_tower_at_every_height() {
        layout_holds_header_and_tower::<u8>();
        layout_holds_header_and_tower::<u64>();
        layout_holds_header_and_tower::<u128>();
        layout_holds_header_and_tower::<[u8; 3]>();
        layout_holds_header_and_tower::<String>();
    }

    /// Ordered by `.0`; counts its drops.
    struct Counted(u64, Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }

    impl Eq for Counted {}

    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> CmpOrdering {
            self.0.cmp(&other.0)
        }
    }

    #[test]
    fn duplicate_insert_frees_its_node_and_key_once() {
        // Many keys, so the staged duplicates come in many tower heights.
        const KEYS: u64 = 256;
        let drops = Arc::new(AtomicUsize::new(0));
        let dropped = || drops.load(Ordering::SeqCst);
        let s = LockFreeSkipList::new();
        for k in 0..KEYS {
            assert!(s.insert(Counted(k, Arc::clone(&drops))));
        }
        assert_eq!(dropped(), 0);
        for k in 0..KEYS {
            assert!(!s.insert(Counted(k, Arc::clone(&drops))));
            assert_eq!(dropped() as u64, k + 1, "the duplicate's key, once");
        }
        drop(s);
        assert_eq!(dropped() as u64, 2 * KEYS, "then every key in the set");
    }

    /// A backend that frees nothing and stamps every guard entry and every
    /// retire on one clock, so a test can ask what the retire contract
    /// forbids: did an operation reach a node retired before it began?
    struct Stamped;

    #[derive(Debug)]
    struct StampedGuard;

    static CLOCK: AtomicUsize = AtomicUsize::new(1);
    /// Retired node address -> retire stamp.
    static RETIRED: Mutex<Option<HashMap<usize, usize>>> = Mutex::new(None);
    /// Reaches of a node retired before the reaching operation began.
    static LATE_REACHES: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        /// Entry stamp of this thread's live `Stamped` guard (0: none).
        static ENTERED: Cell<usize> = const { Cell::new(0) };
    }

    impl Reclaimer for Stamped {
        type Guard = StampedGuard;
        const NAME: &'static str = "stamped";

        fn enter() -> StampedGuard {
            ENTERED.with(|e| e.set(CLOCK.fetch_add(1, Ordering::SeqCst)));
            StampedGuard
        }

        fn enter_blanket() -> StampedGuard {
            Self::enter()
        }

        fn collect() {}
    }

    impl Drop for StampedGuard {
        fn drop(&mut self) {
            ENTERED.with(|e| e.set(0));
        }
    }

    impl ReclaimGuard for StampedGuard {
        fn protect<'g, U>(&'g self, _: usize, src: &Atomic<U>, ord: Ordering) -> Shared<'g, U> {
            src.load(ord, self)
        }

        fn protect_ptr<'g, U>(&'g self, _: usize, ptr: Shared<'_, U>) -> Shared<'g, U> {
            Shared::from_raw(ptr.as_raw()).with_tag(ptr.tag())
        }

        unsafe fn retire_raw(&self, ptr: *mut u8, _dtor: unsafe fn(*mut u8)) {
            let stamp = CLOCK.fetch_add(1, Ordering::SeqCst);
            let mut retired = RETIRED.lock().unwrap();
            let prev = retired
                .get_or_insert_with(HashMap::new)
                .insert(ptr as usize, stamp);
            assert!(prev.is_none(), "double retire");
        }
    }

    /// Called by `find` on every node it reaches.
    pub(super) fn reached(node: usize) {
        let entered = ENTERED.with(Cell::get);
        if entered == 0 {
            return; // not under a `Stamped` guard
        }
        let retired = RETIRED.lock().unwrap();
        if let Some(&stamp) = retired.as_ref().and_then(|r| r.get(&node)) {
            if stamp < entered {
                LATE_REACHES.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Inserts, removes and `remove_min`s that race on three keys: removes
    /// overtake the inserts still linking their towers, and finds that
    /// passed a level before a node was marked there snip it at level 0.
    /// Neither may let an operation that begins after a retire reach the
    /// retired node, every removed node is retired once, and none stays
    /// linked at any level.
    #[test]
    fn retired_nodes_are_unreachable_to_later_operations() {
        let s = Arc::new(LockFreeSkipList::<u64, Stamped>::with_reclaimer());
        let workers: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut x = 0x9e37_79b9 * (t + 1);
                    let mut removed = 0;
                    for _ in 0..20_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        removed += usize::from(match x >> 62 {
                            0 | 1 => {
                                s.insert(x % 3);
                                false
                            }
                            2 => s.remove(&(x % 3)),
                            _ => s.remove_min().is_some(),
                        });
                    }
                    removed
                })
            })
            .collect();
        let removed: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(
            LATE_REACHES.load(Ordering::SeqCst),
            0,
            "reached after retire"
        );
        let retired = RETIRED.lock().unwrap().take().unwrap_or_default();
        assert_eq!(retired.len(), removed, "retired != removed");
        let guard = Stamped::enter();
        for l in 0..HEIGHT {
            // SAFETY: nothing is freed; every linked node reaches level `l`.
            let mut c = unsafe { Node::next(s.head(&guard), l) }.load(Ordering::Acquire, &guard);
            while !c.is_null() {
                let node = c.with_tag(0);
                assert!(
                    !retired.contains_key(&(node.as_raw() as usize)),
                    "linked at level {l}"
                );
                c = unsafe { Node::next(node, l) }.load(Ordering::Acquire, &guard);
            }
        }
        for &node in retired.keys() {
            // SAFETY: retired once, linked nowhere (checked above), and the
            // backend frees nothing itself.
            unsafe { Node::<u64>::dealloc(node as *mut u8) };
        }
    }

    #[test]
    fn remove_min_drains_in_order() {
        let s = LockFreeSkipList::new();
        for k in [5, 1, 9, 3, 7] {
            s.insert(k);
        }
        assert_eq!(s.min(), Some(1));
        let mut out = Vec::new();
        while let Some(k) = s.remove_min() {
            out.push(k);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
        assert!(s.is_empty());
    }

    #[test]
    fn to_vec_is_sorted_and_complete() {
        let s = LockFreeSkipList::new();
        for k in [9, 2, 7, 4, 1] {
            s.insert(k);
        }
        s.remove(&7);
        assert_eq!(s.to_vec(), vec![1, 2, 4, 9]);
    }

    #[test]
    fn set_and_remove_min_on_every_backend() {
        fn run<R: Reclaimer>() {
            let s: LockFreeSkipList<i64, R> = LockFreeSkipList::with_reclaimer();
            for k in 0..128 {
                assert!(s.insert(k), "{} backend", R::NAME);
            }
            for k in (0..128).step_by(2) {
                assert!(s.remove(&k), "{} backend", R::NAME);
            }
            assert_eq!(s.remove_min(), Some(1), "{} backend", R::NAME);
            for k in 0..128 {
                assert_eq!(s.contains(&k), k % 2 == 1 && k != 1, "{} backend", R::NAME);
            }
            R::collect();
        }
        run::<Ebr>();
        run::<cds_reclaim::Hazard>();
        run::<cds_reclaim::Leak>();
        run::<cds_reclaim::DebugReclaim>();
    }

    #[test]
    fn concurrent_remove_min_yields_distinct_keys() {
        let s = Arc::new(LockFreeSkipList::new());
        const N: i64 = 2_000;
        for k in 0..N {
            s.insert(k);
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(k) = s.remove_min() {
                        got.push(k);
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let want: Vec<i64> = (0..N).collect();
        assert_eq!(all, want, "keys lost or duplicated by remove_min");
    }

    #[test]
    fn insert_remove_churn_single_key_range() {
        let s = Arc::new(LockFreeSkipList::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..400i64 {
                        let k = (t as i64 * 7 + i) % 16;
                        s.insert(k);
                        s.remove(&k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n = s.len();
        let found = (0..16i64).filter(|k| s.contains(k)).count();
        assert_eq!(n, found);
    }
}
