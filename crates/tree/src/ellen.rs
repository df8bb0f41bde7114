use cds_atomic::Ordering;
use std::cmp::Ordering as CmpOrdering;
use std::fmt;

use cds_core::ConcurrentSet;
use cds_reclaim::epoch::{Atomic, Guard, Owned, Shared};
use cds_reclaim::{Ebr, ReclaimGuard, Reclaimer};
use cds_sync::Backoff;

use crate::TreeKey;

// Update-word states, stored in the tag bits of the `Info` pointer.
const CLEAN: usize = 0;
const IFLAG: usize = 1;
const DFLAG: usize = 2;
const MARK: usize = 3;

struct Internal<T> {
    /// `(Info pointer, state tag)`: the node's coordination word.
    update: Atomic<Info<T>>,
    left: Atomic<Node<T>>,
    right: Atomic<Node<T>>,
}

struct Node<T> {
    key: TreeKey<T>,
    /// `Some` for internal routing nodes, `None` for leaves.
    inner: Option<Internal<T>>,
}

/// Operation descriptor published in an update word so other threads can
/// **help** complete the operation.
enum Info<T> {
    /// A pending leaf replacement at `p`.
    Insert {
        p: *mut Node<T>,
        new_internal: *mut Node<T>,
        l: *mut Node<T>,
    },
    /// A pending splice of `p` (and its leaf child `l`) out of `gp`.
    Delete {
        gp: *mut Node<T>,
        p: *mut Node<T>,
        l: *mut Node<T>,
        /// The exact update word observed at `p` when the delete was
        /// flagged; marking `p` CASes from this value.
        pupdate_ptr: *mut Info<T>,
        pupdate_tag: usize,
    },
}

/// The non-blocking external BST of Ellen, Fatourou, Ruppert & van Breugel
/// (PODC 2010) — the first practical lock-free binary search tree.
///
/// Keys live at leaves; internal nodes route. Every internal node carries
/// an **update word**: an `Info`-descriptor pointer whose tag bits encode
/// a state (`Clean`, `IFlag` — insert pending, `DFlag` — delete pending at
/// the grandparent, `Mark` — node condemned). An operation first CASes the
/// word from `Clean` to a flagged state (publishing its descriptor), then
/// performs the child swaps; any thread that encounters a flagged word
/// *helps* the pending operation to completion before retrying its own —
/// which is exactly what makes the tree lock-free: a stalled thread can
/// never block others.
///
/// * **insert** flags the parent (`IFlag`), replaces the leaf with a new
///   routing node over a *copy* of the old leaf and the new one, then
///   unflags. (As in the paper, the old leaf is not reused: a child pointer
///   must never return to a value it held before, or a late helper's child
///   CAS would succeed a second time.)
/// * **remove** flags the grandparent (`DFlag`), *marks* the parent
///   (`Mark`, permanent), splices the parent out (the grandparent adopts
///   the sibling), then unflags. If marking fails, the delete backs off,
///   unflagging the grandparent.
///
/// Spliced nodes and superseded descriptors go to the reclamation
/// backend `R` ([`cds_reclaim::Reclaimer`], default [`Ebr`]). A
/// descriptor left in the `Clean` state sits in exactly one update word
/// until a successful CAS displaces it: a flag CAS (`IFlag` by insert,
/// `DFlag` by remove) or a delete's *mark* CAS. The thread whose CAS
/// displaced it retires it, so every descriptor is retired exactly once
/// and none outlives the tree's last operation on it. The tree
/// uses the **blanket** protection mode ([`Reclaimer::enter_blanket`]):
/// child pointers carry no mark bits to validate against, and helpers
/// dereference raw descriptor-held pointers even after the operation they
/// help has completed — per-pointer hazards are insufficient by design
/// (Brown 2015 discusses why such helping-based trees defeat plain
/// hazard pointers), but any backend honoring the
/// retired-means-unreachable-to-new-operations contract (epochs, eras)
/// works unchanged. `T: Clone` because routing nodes need their own copy
/// of a key.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_tree::LockFreeBst;
///
/// let t = LockFreeBst::new();
/// assert!(t.insert(7));
/// assert!(t.contains(&7));
/// assert!(t.remove(&7));
/// ```
pub struct LockFreeBst<T, R: Reclaimer = Ebr> {
    /// Root routing node (`Inf2`); never replaced or removed.
    root: Atomic<Node<T>>,
    _reclaimer: std::marker::PhantomData<R>,
}

// SAFETY: reclaimer-managed nodes and descriptors; all mutation is
// CAS-based.
unsafe impl<T: Send + Sync, R: Reclaimer> Send for LockFreeBst<T, R> {}
unsafe impl<T: Send + Sync, R: Reclaimer> Sync for LockFreeBst<T, R> {}

struct SearchResult<'g, T> {
    gp: Shared<'g, Node<T>>,
    p: Shared<'g, Node<T>>,
    l: Shared<'g, Node<T>>,
    gpupdate: Shared<'g, Info<T>>,
    pupdate: Shared<'g, Info<T>>,
}

impl<T: Ord + Clone> LockFreeBst<T> {
    /// Creates an empty set on the default ([`Ebr`]) backend.
    pub fn new() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Ord + Clone, R: Reclaimer> LockFreeBst<T, R> {
    /// Creates an empty set on the reclamation backend `R`.
    pub fn with_reclaimer() -> Self {
        let left = Owned::new(Node {
            key: TreeKey::Inf1,
            inner: None,
        });
        let right = Owned::new(Node {
            key: TreeKey::Inf2,
            inner: None,
        });
        LockFreeBst {
            root: Atomic::new(Node {
                key: TreeKey::Inf2,
                inner: Some(Internal {
                    update: Atomic::null(),
                    left: Atomic::from(left),
                    right: Atomic::from(right),
                }),
            }),
            _reclaimer: std::marker::PhantomData,
        }
    }

    fn internal_of(node: &Node<T>) -> &Internal<T> {
        node.inner.as_ref().expect("expected an internal node")
    }

    /// Descends from the root to a leaf, recording the last two internal
    /// nodes and their update words.
    fn search<'g, G: ReclaimGuard>(&self, key: &T, guard: &'g G) -> SearchResult<'g, T> {
        let mut gp = Shared::null();
        let mut gpupdate = Shared::null();
        let mut p = Shared::null();
        let mut pupdate = Shared::null();
        let mut l = self.root.load(Ordering::Acquire, guard);
        loop {
            cds_atomic::stress::yield_point();
            // SAFETY: pinned; nodes are epoch-managed.
            let l_ref = unsafe { l.deref() };
            let Some(int) = &l_ref.inner else { break };
            gp = p;
            gpupdate = pupdate;
            p = l;
            pupdate = int.update.load(Ordering::Acquire, guard);
            l = if l_ref.key.cmp_key(key) == CmpOrdering::Greater {
                int.left.load(Ordering::Acquire, guard)
            } else {
                int.right.load(Ordering::Acquire, guard)
            };
        }
        SearchResult {
            gp,
            p,
            l,
            gpupdate,
            pupdate,
        }
    }

    /// Swings the appropriate child of `parent` from `old` to `new`.
    ///
    /// The side is determined by `old`'s (immutable) key, so helpers always
    /// target the same slot; exactly one CAS per transition succeeds.
    fn cas_child<G: ReclaimGuard>(
        parent: *mut Node<T>,
        old: Shared<'_, Node<T>>,
        new: Shared<'_, Node<T>>,
        guard: &G,
    ) -> bool {
        // SAFETY: `parent` is flagged by the operation this call helps, so
        // it cannot be freed; pinned.
        let parent_ref = unsafe { &*parent };
        let int = Self::internal_of(parent_ref);
        // SAFETY: `old` is alive (it is being replaced under a flag).
        let side = if unsafe { old.deref() }.key < parent_ref.key {
            &int.left
        } else {
            &int.right
        };
        side.compare_exchange(old, new, Ordering::AcqRel, Ordering::Relaxed, guard)
            .is_ok()
    }

    /// Helps whatever operation the update word `word` describes.
    fn help<G: ReclaimGuard>(&self, word: Shared<'_, Info<T>>, guard: &G) {
        match word.tag() {
            IFLAG => self.help_insert(word.with_tag(0), guard),
            MARK => self.help_marked(word.with_tag(0), guard),
            DFLAG => {
                let _ = self.help_delete(word.with_tag(0), guard);
            }
            _ => {}
        }
    }

    /// Completes a flagged insert: swing the child, then unflag.
    fn help_insert<G: ReclaimGuard>(&self, op: Shared<'_, Info<T>>, guard: &G) {
        // SAFETY: `op` was published in an update word; descriptors are
        // epoch-managed.
        let Info::Insert { p, new_internal, l } = (unsafe { op.deref() }) else {
            unreachable!("IFlag word must hold an Insert descriptor");
        };
        // `new_internal` carries a *copy* of the old leaf, so `l` leaves the
        // tree for good here and `p`'s child can never be `l` again: a
        // helper that arrives after the insert (and any later splice under
        // `p`) finds its CAS failing instead of re-linking `new_internal`.
        let swung = Self::cas_child(
            *p,
            Shared::from_raw(*l),
            Shared::from_raw(*new_internal),
            guard,
        );
        // Unflag (idempotent: only the exact IFlag word matches).
        // SAFETY: `p` is flagged by `op`, hence alive.
        let p_int = Self::internal_of(unsafe { &**p });
        let _ = p_int.update.compare_exchange(
            op.with_tag(IFLAG),
            op.with_tag(CLEAN),
            Ordering::AcqRel,
            Ordering::Relaxed,
            guard,
        );
        if swung {
            // SAFETY: we performed the swap, so `l` is unreachable from the
            // root and we defer it exactly once — and only now that the
            // word is unflagged: until then a thread pinned *after* the
            // swap could still pick `op` up and dereference `op.l`.
            unsafe { guard.retire(Shared::from_raw(*l)) };
        }
    }

    /// Tries to complete a flagged delete: mark the parent, then splice.
    /// Returns `false` if the mark failed and the delete was aborted.
    fn help_delete<G: ReclaimGuard>(&self, op: Shared<'_, Info<T>>, guard: &G) -> bool {
        // SAFETY: as in `help_insert`.
        let Info::Delete {
            gp,
            p,
            pupdate_ptr,
            pupdate_tag,
            ..
        } = (unsafe { op.deref() })
        else {
            unreachable!("DFlag word must hold a Delete descriptor");
        };
        let expected = Shared::from_raw(*pupdate_ptr).with_tag(*pupdate_tag);
        let mark_word = op.with_tag(MARK);
        // SAFETY: `p` cannot be freed while `gp` is DFlagged by `op` (its
        // own deletion would require marking it, which needs a Clean word).
        let p_int = Self::internal_of(unsafe { &**p });
        match p_int.update.compare_exchange(
            expected,
            mark_word,
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        ) {
            Ok(_) => {
                // SAFETY: our mark CAS displaced the Clean descriptor; no
                // other CAS can (the Mark word is permanent).
                unsafe { Self::retire_displaced(expected, guard) };
                self.help_marked(op, guard);
                true
            }
            Err(actual) => {
                if actual == mark_word {
                    // Another helper already marked it for this very op.
                    self.help_marked(op, guard);
                    true
                } else {
                    // Something else is pending at p: help it, then abort
                    // this delete by unflagging gp.
                    self.help(actual, guard);
                    // SAFETY: gp is alive (flagged by op until unflagged).
                    let gp_int = Self::internal_of(unsafe { &**gp });
                    let _ = gp_int.update.compare_exchange(
                        op.with_tag(DFLAG),
                        op.with_tag(CLEAN),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                        guard,
                    );
                    false
                }
            }
        }
    }

    /// Completes a delete whose parent is marked: splice and unflag.
    fn help_marked<G: ReclaimGuard>(&self, op: Shared<'_, Info<T>>, guard: &G) {
        // SAFETY: as in `help_insert`.
        let Info::Delete { gp, p, l, .. } = (unsafe { op.deref() }) else {
            unreachable!("Mark word must hold a Delete descriptor");
        };
        // The sibling of `l` under `p` survives; `p` and `l` are spliced out.
        // SAFETY: `p` is marked: its children can no longer change.
        let p_int = Self::internal_of(unsafe { &**p });
        let left = p_int.left.load(Ordering::Acquire, guard);
        let sibling = if left.as_raw() == *l {
            p_int.right.load(Ordering::Acquire, guard)
        } else {
            left
        };
        let spliced = Self::cas_child(*gp, Shared::from_raw(*p), sibling, guard);
        // Unflag gp.
        // SAFETY: gp alive while DFlagged.
        let gp_int = Self::internal_of(unsafe { &**gp });
        let _ = gp_int.update.compare_exchange(
            op.with_tag(DFLAG),
            op.with_tag(CLEAN),
            Ordering::AcqRel,
            Ordering::Relaxed,
            guard,
        );
        if spliced {
            // SAFETY: we performed the splice, so `p` and `l` are
            // unreachable from the root and we defer them exactly once —
            // and only now that gp is unflagged: until then a thread pinned
            // *after* the splice could still pick `op` up from gp's word
            // and dereference `op.p`.
            unsafe {
                guard.retire(Shared::from_raw(*p));
                guard.retire(Shared::from_raw(*l));
            }
        }
    }

    /// Retires the descriptor a successful flag or mark CAS displaced (the
    /// previous operation's Clean-state descriptor), if any.
    ///
    /// # Safety
    ///
    /// `old` must have just been displaced from an update word by a CAS
    /// performed by the caller, with `old.tag() == CLEAN`.
    unsafe fn retire_displaced<G: ReclaimGuard>(old: Shared<'_, Info<T>>, guard: &G) {
        if !old.is_null() {
            debug_assert_eq!(old.tag(), CLEAN);
            // SAFETY: a Clean descriptor sits in exactly one update word
            // (committed Delete descriptors also sit in the Mark word of
            // their spliced — hence unreachable — parent, but that word is
            // never displaced), and it leaves that word only by a flag CAS
            // (`insert`, `remove`) or a mark CAS (`help_delete`). Exactly
            // one such CAS succeeds, its thread retires the descriptor, and
            // no new operation can find it afterwards. A late helper may
            // still compare against its address (`pupdate_ptr`), but only
            // as the expected value of a CAS on a word that is Mark for
            // good, so a reused address can never match.
            unsafe { guard.retire(old.with_tag(0)) };
        }
    }
}

impl<T: Ord + Clone, R: Reclaimer> Default for LockFreeBst<T, R> {
    fn default() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Ord + Clone + Send + Sync, R: Reclaimer> ConcurrentSet<T> for LockFreeBst<T, R> {
    const NAME: &'static str = "ellen";

    fn insert(&self, value: T) -> bool {
        let guard = R::enter_blanket();
        let backoff = Backoff::new();
        let mut value_slot = Some(value);
        loop {
            cds_atomic::stress::yield_point();
            let key = value_slot.as_ref().expect("present until success");
            let s = self.search(key, &guard);
            // SAFETY: pinned.
            let l_ref = unsafe { s.l.deref() };
            if l_ref.key.cmp_key(key) == CmpOrdering::Equal {
                return false;
            }
            if s.pupdate.tag() != CLEAN {
                self.help(s.pupdate, &guard);
                continue;
            }

            // Build the replacement subtree: a routing node over a copy of
            // the old leaf and the new leaf (see `help_insert` for why the
            // old leaf itself must not be reused).
            let new_key = TreeKey::Finite(value_slot.take().expect("still present"));
            let new_leaf = Owned::new(Node {
                key: new_key,
                inner: None,
            })
            .into_shared(&guard);
            let sibling = Owned::new(Node {
                key: l_ref.key.clone(),
                inner: None,
            })
            .into_shared(&guard);
            // SAFETY: new_leaf is ours; l_ref is pinned.
            let (lc, rc, route) = if unsafe { new_leaf.deref() }.key < l_ref.key {
                (new_leaf, sibling, l_ref.key.clone())
            } else {
                (sibling, new_leaf, unsafe { new_leaf.deref() }.key.clone())
            };
            let new_internal = Owned::new(Node {
                key: route,
                inner: Some(Internal {
                    update: Atomic::null(),
                    left: Atomic::null(),
                    right: Atomic::null(),
                }),
            })
            .into_shared(&guard);
            {
                // SAFETY: unpublished.
                let int = Self::internal_of(unsafe { new_internal.deref() });
                int.left.store(lc, Ordering::Relaxed);
                int.right.store(rc, Ordering::Relaxed);
            }
            let op = Owned::new(Info::Insert {
                p: s.p.as_raw(),
                new_internal: new_internal.as_raw(),
                l: s.l.as_raw(),
            })
            .into_shared(&guard);

            // SAFETY: pinned; p cannot be freed while we hold a path to it
            // (it was reachable and can only be retired after a splice that
            // our flag CAS below would then fail against).
            let p_int = Self::internal_of(unsafe { s.p.deref() });
            match p_int.update.compare_exchange(
                s.pupdate,
                op.with_tag(IFLAG),
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(_) => {
                    // SAFETY: we displaced the previous Clean descriptor.
                    unsafe { Self::retire_displaced(s.pupdate, &guard) };
                    self.help_insert(op, &guard);
                    return true;
                }
                Err(actual) => {
                    // Reclaim the unpublished allocations and recover the key.
                    // SAFETY: none of these were published.
                    unsafe {
                        drop(op.into_owned());
                        drop(new_internal.into_owned());
                        drop(sibling.into_owned());
                        let leaf = new_leaf.into_owned().into_box();
                        match leaf.key {
                            TreeKey::Finite(v) => value_slot = Some(v),
                            _ => unreachable!("new leaf key is finite"),
                        }
                    }
                    self.help(actual, &guard);
                    backoff.spin();
                }
            }
        }
    }

    fn remove(&self, value: &T) -> bool {
        let guard = R::enter_blanket();
        let backoff = Backoff::new();
        loop {
            cds_atomic::stress::yield_point();
            let s = self.search(value, &guard);
            // SAFETY: pinned.
            if unsafe { s.l.deref() }.key.cmp_key(value) != CmpOrdering::Equal {
                return false;
            }
            // A finite leaf is at depth ≥ 2: gp exists.
            debug_assert!(!s.gp.is_null());
            if s.gpupdate.tag() != CLEAN {
                self.help(s.gpupdate, &guard);
                continue;
            }
            if s.pupdate.tag() != CLEAN {
                self.help(s.pupdate, &guard);
                continue;
            }
            let op = Owned::new(Info::Delete {
                gp: s.gp.as_raw(),
                p: s.p.as_raw(),
                l: s.l.as_raw(),
                pupdate_ptr: s.pupdate.as_raw(),
                pupdate_tag: s.pupdate.tag(),
            })
            .into_shared(&guard);
            // SAFETY: pinned.
            let gp_int = Self::internal_of(unsafe { s.gp.deref() });
            match gp_int.update.compare_exchange(
                s.gpupdate,
                op.with_tag(DFLAG),
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(_) => {
                    // SAFETY: we displaced the previous Clean descriptor.
                    unsafe { Self::retire_displaced(s.gpupdate, &guard) };
                    if self.help_delete(op, &guard) {
                        return true;
                    }
                    // Aborted (mark failed): `op` stays reachable from
                    // gp.update in the Clean state and will be retired by
                    // the next successful flag or mark there. Retry.
                    backoff.spin();
                }
                Err(actual) => {
                    // SAFETY: unpublished.
                    unsafe { drop(op.into_owned()) };
                    self.help(actual, &guard);
                    backoff.spin();
                }
            }
        }
    }

    fn contains(&self, value: &T) -> bool {
        let guard = R::enter_blanket();
        let s = self.search(value, &guard);
        // SAFETY: pinned.
        unsafe { s.l.deref() }.key.cmp_key(value) == CmpOrdering::Equal
    }

    fn len(&self) -> usize {
        let guard = R::enter_blanket();
        let mut n = 0;
        let mut stack = vec![self.root.load(Ordering::Acquire, &guard)];
        while let Some(node) = stack.pop() {
            // SAFETY: pinned.
            let node_ref = unsafe { node.deref() };
            match &node_ref.inner {
                None => n += usize::from(node_ref.key.is_finite()),
                Some(int) => {
                    stack.push(int.left.load(Ordering::Acquire, &guard));
                    stack.push(int.right.load(Ordering::Acquire, &guard));
                }
            }
        }
        n
    }
}

impl<T, R: Reclaimer> Drop for LockFreeBst<T, R> {
    fn drop(&mut self) {
        // SAFETY: unique access; the unprotected guard is a pure load
        // witness on every backend. Spliced-out nodes and displaced
        // descriptors were retired through `R` and are freed by the
        // backend, not here.
        let guard = unsafe { Guard::unprotected() };
        let mut stack = vec![self.root.load(Ordering::Relaxed, &guard)];
        while let Some(node) = stack.pop() {
            if node.is_null() {
                continue;
            }
            // SAFETY: unique ownership of every reachable node; each Clean
            // descriptor is reachable from exactly one reachable node (see
            // `retire_displaced`).
            unsafe {
                let boxed = node.into_owned().into_box();
                if let Some(int) = &boxed.inner {
                    let info = int.update.load(Ordering::Relaxed, &guard);
                    if !info.is_null() {
                        drop(info.with_tag(0).into_owned());
                    }
                    stack.push(int.left.load(Ordering::Relaxed, &guard));
                    stack.push(int.right.load(Ordering::Relaxed, &guard));
                }
            }
        }
    }
}

impl<T, R: Reclaimer> fmt::Debug for LockFreeBst<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockFreeBst")
            .field("reclaimer", &R::NAME)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentSet;
    use std::sync::Arc;

    #[test]
    fn sentinels_are_invisible() {
        let t: LockFreeBst<i64> = LockFreeBst::new();
        assert_eq!(t.len(), 0);
        assert!(!t.contains(&1));
        assert!(!t.remove(&1));
    }

    #[test]
    fn insert_then_delete_every_order() {
        let t = LockFreeBst::new();
        for k in [4, 2, 6, 1, 3, 5, 7] {
            assert!(t.insert(k));
        }
        assert_eq!(t.len(), 7);
        // Delete in an order that exercises root-adjacent and deep splices.
        for k in [4, 1, 7, 3, 5, 2, 6] {
            assert!(t.remove(&k), "remove {k}");
            assert!(!t.contains(&k));
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn set_semantics_on_every_backend() {
        fn run<R: Reclaimer>() {
            let t: LockFreeBst<i64, R> = LockFreeBst::with_reclaimer();
            for k in 0..64 {
                assert!(t.insert(k), "{} backend", R::NAME);
            }
            for k in (0..64).step_by(2) {
                assert!(t.remove(&k), "{} backend", R::NAME);
            }
            for k in 0..64 {
                assert_eq!(t.contains(&k), k % 2 == 1, "{} backend", R::NAME);
            }
            assert_eq!(t.len(), 32);
            R::collect();
        }
        run::<Ebr>();
        run::<cds_reclaim::Hazard>();
        run::<cds_reclaim::Leak>();
        run::<cds_reclaim::DebugReclaim>();
    }

    #[test]
    fn contended_same_leaf_races() {
        for _ in 0..10 {
            let t = Arc::new(LockFreeBst::new());
            let inserters: Vec<_> = (0..4)
                .map(|_| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || t.insert(99))
                })
                .collect();
            let wins = inserters
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&b| b)
                .count();
            assert_eq!(wins, 1);
            let removers: Vec<_> = (0..4)
                .map(|_| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || t.remove(&99))
                })
                .collect();
            let removed = removers
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&b| b)
                .count();
            assert_eq!(removed, 1);
            assert_eq!(t.len(), 0);
        }
    }

    #[test]
    fn helping_under_churn_keeps_tree_consistent() {
        let t = Arc::new(LockFreeBst::new());
        let handles: Vec<_> = (0..4)
            .map(|id| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for round in 0..300i64 {
                        let k = (id * 37 + round) % 24;
                        t.insert(k);
                        t.remove(&k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n = t.len();
        let found = (0..24i64).filter(|k| t.contains(k)).count();
        assert_eq!(n, found);
    }
}
