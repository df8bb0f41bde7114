use cds_atomic::Ordering;
use std::cmp::Ordering as CmpOrdering;
use std::fmt;

use cds_core::ConcurrentSet;
use cds_reclaim::epoch::{self, Atomic, Guard, Owned, Shared};
use cds_sync::Mutex;

use crate::Bound;

struct Node<T> {
    key: Bound<T>,
    next: Atomic<Node<T>>,
    lock: Mutex<()>,
}

/// A sorted list with **optimistic** synchronization.
///
/// Rung three of the list ladder: traverse with *no* locks at all, lock
/// only the two nodes an operation affects, then **validate** that the
/// lock-free traversal is still meaningful — the predecessor must still be
/// reachable from the head and must still point at the current node. If
/// validation fails, retry from scratch.
///
/// Validation re-traverses the list (O(n)), so the scheme wins exactly when
/// conflicts are rare and traversal is the dominant cost — the situation
/// read-heavy workloads in experiment E4 create.
///
/// Unlike the original presentation (which assumes a garbage collector so
/// that a removed node a traverser is standing on stays allocated), this
/// implementation pins the epoch ([`cds_reclaim::epoch`]) during traversal
/// and defers node destruction.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_list::OptimisticList;
///
/// let s = OptimisticList::new();
/// s.insert("k");
/// assert!(s.remove(&"k"));
/// ```
pub struct OptimisticList<T> {
    head: Atomic<Node<T>>,
}

// SAFETY: node lifetime is governed by the epoch collector; mutation is
// lock-protected.
unsafe impl<T: Send + Sync> Send for OptimisticList<T> {}
unsafe impl<T: Send + Sync> Sync for OptimisticList<T> {}

impl<T: Ord> OptimisticList<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        let tail = Atomic::new(Node {
            key: Bound::PosInf,
            next: Atomic::null(),
            lock: Mutex::new(()),
        });
        // SAFETY: not shared yet.
        let guard = unsafe { Guard::unprotected() };
        let tail_shared = tail.load(Ordering::Relaxed, &guard);
        let head = Owned::new(Node {
            key: Bound::NegInf,
            next: Atomic::null(),
            lock: Mutex::new(()),
        });
        head.next.store(tail_shared, Ordering::Relaxed);
        OptimisticList { head: head.into() }
    }

    /// Unlocked traversal; returns `(pred, curr)` with
    /// `pred.key < key <= curr.key`.
    fn search<'g>(&self, key: &T, guard: &'g Guard) -> (Shared<'g, Node<T>>, Shared<'g, Node<T>>) {
        let mut pred = self.head.load(Ordering::Acquire, guard);
        // SAFETY: pinned; nodes are deferred, never freed under us.
        let mut curr = unsafe { pred.deref() }.next.load(Ordering::Acquire, guard);
        loop {
            let curr_ref = unsafe { curr.deref() };
            if curr_ref.key.cmp_key(key) != CmpOrdering::Less {
                return (pred, curr);
            }
            pred = curr;
            curr = curr_ref.next.load(Ordering::Acquire, guard);
        }
    }

    /// Re-traverses from the head to check that `pred` is still reachable
    /// and still points at `curr`. Caller must hold both node locks.
    fn validate(
        &self,
        pred: Shared<'_, Node<T>>,
        curr: Shared<'_, Node<T>>,
        guard: &Guard,
    ) -> bool {
        let mut node = self.head.load(Ordering::Acquire, guard);
        loop {
            // SAFETY: pinned.
            let node_ref = unsafe { node.deref() };
            if node == pred {
                return node_ref.next.load(Ordering::Acquire, guard) == curr;
            }
            // SAFETY: pred is alive (we hold its lock), so reading its key
            // for the bound check is fine.
            if node_ref.key > unsafe { pred.deref() }.key {
                return false; // walked past where pred should be
            }
            node = node_ref.next.load(Ordering::Acquire, guard);
        }
    }
}

impl<T: Ord> Default for OptimisticList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Send + Sync> ConcurrentSet<T> for OptimisticList<T> {
    const NAME: &'static str = "optimistic";

    fn insert(&self, value: T) -> bool {
        let guard = epoch::pin();
        loop {
            let (pred, curr) = self.search(&value, &guard);
            // SAFETY: pinned.
            let pred_ref = unsafe { pred.deref() };
            let curr_ref = unsafe { curr.deref() };
            let _pl = pred_ref.lock.lock();
            let _cl = curr_ref.lock.lock();
            if !self.validate(pred, curr, &guard) {
                continue;
            }
            if curr_ref.key.cmp_key(&value) == CmpOrdering::Equal {
                return false;
            }
            let node = Owned::new(Node {
                key: Bound::Finite(value),
                next: Atomic::null(),
                lock: Mutex::new(()),
            });
            node.next.store(curr, Ordering::Relaxed);
            pred_ref
                .next
                .store(node.into_shared(&guard), Ordering::Release);
            return true;
        }
    }

    fn remove(&self, value: &T) -> bool {
        let guard = epoch::pin();
        loop {
            let (pred, curr) = self.search(value, &guard);
            // SAFETY: pinned.
            let pred_ref = unsafe { pred.deref() };
            let curr_ref = unsafe { curr.deref() };
            let _pl = pred_ref.lock.lock();
            let _cl = curr_ref.lock.lock();
            if !self.validate(pred, curr, &guard) {
                continue;
            }
            if curr_ref.key.cmp_key(value) != CmpOrdering::Equal {
                return false;
            }
            let next = curr_ref.next.load(Ordering::Acquire, &guard);
            pred_ref.next.store(next, Ordering::Release);
            // SAFETY: curr is unlinked; traversers standing on it are
            // pinned, so defer.
            unsafe { guard.defer_destroy(curr) };
            return true;
        }
    }

    fn contains(&self, value: &T) -> bool {
        // The optimistic algorithm's contains also locks and validates —
        // without a marked bit, an unvalidated hit could be a node that was
        // removed mid-traversal (the wait-free read is the lazy list's
        // improvement).
        let guard = epoch::pin();
        loop {
            let (pred, curr) = self.search(value, &guard);
            // SAFETY: pinned.
            let pred_ref = unsafe { pred.deref() };
            let curr_ref = unsafe { curr.deref() };
            let _pl = pred_ref.lock.lock();
            let _cl = curr_ref.lock.lock();
            if !self.validate(pred, curr, &guard) {
                continue;
            }
            return curr_ref.key.cmp_key(value) == CmpOrdering::Equal;
        }
    }

    fn len(&self) -> usize {
        let guard = epoch::pin();
        let mut n = 0;
        let mut node = self.head.load(Ordering::Acquire, &guard);
        loop {
            // SAFETY: pinned.
            let node_ref = unsafe { node.deref() };
            if matches!(node_ref.key, Bound::PosInf) {
                return n;
            }
            if matches!(node_ref.key, Bound::Finite(_)) {
                n += 1;
            }
            node = node_ref.next.load(Ordering::Acquire, &guard);
        }
    }
}

impl<T> Drop for OptimisticList<T> {
    fn drop(&mut self) {
        // SAFETY: unique access.
        let guard = unsafe { Guard::unprotected() };
        let mut cur = self.head.load(Ordering::Relaxed, &guard);
        while !cur.is_null() {
            // SAFETY: unique ownership of the chain.
            unsafe {
                let boxed = cur.into_owned().into_box();
                cur = boxed.next.load(Ordering::Relaxed, &guard);
            }
        }
    }
}

impl<T> fmt::Debug for OptimisticList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptimisticList").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentSet;
    use std::sync::Arc;

    #[test]
    fn basic_set_operations() {
        let s = OptimisticList::new();
        assert!(s.insert(2));
        assert!(s.insert(1));
        assert!(!s.insert(2));
        assert!(s.contains(&1));
        assert!(s.remove(&2));
        assert!(!s.contains(&2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn contended_remove_insert_cycles() {
        let s = Arc::new(OptimisticList::new());
        for i in 0..16 {
            s.insert(i);
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for round in 0..200 {
                        let k = t * 4 + round % 4;
                        s.remove(&k);
                        s.insert(k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All keys cycled back in.
        assert_eq!(s.len(), 16);
    }
}
