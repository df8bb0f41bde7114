use cds_atomic::{AtomicBool, Ordering};
use std::cmp::Ordering as CmpOrdering;
use std::fmt;

use cds_core::ConcurrentSet;
use cds_reclaim::epoch::{self, Atomic, Guard, Owned, Shared};
use cds_sync::Mutex;

use crate::Bound;

struct Node<T> {
    key: Bound<T>,
    next: Atomic<Node<T>>,
    /// Logical-deletion mark: set (under the node's lock) before the node
    /// is unlinked. The mark is what makes O(1) validation and wait-free
    /// `contains` sound.
    marked: AtomicBool,
    lock: Mutex<()>,
}

/// The **lazy list** (Heller, Herlihy, Luchangco, Moir, Scherer & Shavit,
/// 2005).
///
/// Rung four of the list ladder, and the algorithmic heart of the lazy
/// skip list. Two ideas on top of [`OptimisticList`](crate::OptimisticList):
///
/// 1. **Logical deletion**: removal first sets a `marked` bit (the
///    linearization point) and only then unlinks. A node's membership is
///    now a *local* property — `unmarked(curr)` — rather than a global
///    reachability property.
/// 2. Consequently **validation is O(1)** (`!pred.marked && !curr.marked
///    && pred.next == curr`) and **`contains` is wait-free**: one
///    traversal, no locks, no retries — just check the mark at the end.
///
/// Since read-heavy workloads are dominated by `contains`, this is usually
/// the best *lock-based* list in experiment E4, often competitive with the
/// lock-free one.
///
/// Removed nodes are deferred to the epoch collector: a wait-free reader
/// may still be standing on them.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_list::LazyList;
///
/// let s = LazyList::new();
/// s.insert(7);
/// assert!(s.contains(&7)); // wait-free
/// ```
pub struct LazyList<T> {
    head: Atomic<Node<T>>,
}

// SAFETY: node lifetime is epoch-governed; mutation is lock-protected;
// reads are mark-validated.
unsafe impl<T: Send + Sync> Send for LazyList<T> {}
unsafe impl<T: Send + Sync> Sync for LazyList<T> {}

impl<T: Ord> LazyList<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        let tail = Owned::new(Node {
            key: Bound::PosInf,
            next: Atomic::null(),
            marked: AtomicBool::new(false),
            lock: Mutex::new(()),
        });
        let head = Owned::new(Node {
            key: Bound::NegInf,
            next: Atomic::null(),
            marked: AtomicBool::new(false),
            lock: Mutex::new(()),
        });
        // SAFETY: not shared yet.
        let guard = unsafe { Guard::unprotected() };
        head.next.store(tail.into_shared(&guard), Ordering::Relaxed);
        LazyList { head: head.into() }
    }

    fn search<'g>(&self, key: &T, guard: &'g Guard) -> (Shared<'g, Node<T>>, Shared<'g, Node<T>>) {
        let mut pred = self.head.load(Ordering::Acquire, guard);
        // SAFETY: pinned throughout.
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

    /// O(1) validation under both locks: neither node is logically deleted
    /// and they are still adjacent.
    fn validate(pred: &Node<T>, curr_shared: Shared<'_, Node<T>>, guard: &Guard) -> bool {
        // SAFETY: caller pins.
        let curr = unsafe { curr_shared.deref() };
        !pred.marked.load(Ordering::Acquire)
            && !curr.marked.load(Ordering::Acquire)
            && pred.next.load(Ordering::Acquire, guard) == curr_shared
    }
}

impl<T: Ord> Default for LazyList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Send + Sync> ConcurrentSet<T> for LazyList<T> {
    const NAME: &'static str = "lazy";

    fn insert(&self, value: T) -> bool {
        let guard = epoch::pin();
        loop {
            let (pred, curr) = self.search(&value, &guard);
            // SAFETY: pinned.
            let pred_ref = unsafe { pred.deref() };
            let curr_ref = unsafe { curr.deref() };
            let _pl = pred_ref.lock.lock();
            let _cl = curr_ref.lock.lock();
            if !Self::validate(pred_ref, curr, &guard) {
                continue;
            }
            if curr_ref.key.cmp_key(&value) == CmpOrdering::Equal {
                return false;
            }
            let node = Owned::new(Node {
                key: Bound::Finite(value),
                next: Atomic::null(),
                marked: AtomicBool::new(false),
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
            if !Self::validate(pred_ref, curr, &guard) {
                continue;
            }
            if curr_ref.key.cmp_key(value) != CmpOrdering::Equal {
                return false;
            }
            // Logical deletion is the linearization point…
            curr_ref.marked.store(true, Ordering::Release);
            // …physical unlinking is mere cleanup.
            let next = curr_ref.next.load(Ordering::Acquire, &guard);
            pred_ref.next.store(next, Ordering::Release);
            // SAFETY: unlinked; wait-free readers may still stand on it.
            unsafe { guard.defer_destroy(curr) };
            return true;
        }
    }

    fn contains(&self, value: &T) -> bool {
        // Wait-free: a single traversal, no locks, no retries.
        let guard = epoch::pin();
        let mut curr = self.head.load(Ordering::Acquire, &guard);
        loop {
            // SAFETY: pinned.
            let curr_ref = unsafe { curr.deref() };
            match curr_ref.key.cmp_key(value) {
                CmpOrdering::Less => {
                    curr = curr_ref.next.load(Ordering::Acquire, &guard);
                }
                CmpOrdering::Equal => {
                    return !curr_ref.marked.load(Ordering::Acquire);
                }
                CmpOrdering::Greater => return false,
            }
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
            if matches!(node_ref.key, Bound::Finite(_)) && !node_ref.marked.load(Ordering::Acquire)
            {
                n += 1;
            }
            node = node_ref.next.load(Ordering::Acquire, &guard);
        }
    }
}

impl<T> Drop for LazyList<T> {
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

impl<T> fmt::Debug for LazyList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyList").finish_non_exhaustive()
    }
}

impl<T: Ord + Send + Sync> FromIterator<T> for LazyList<T> {
    /// Collects into a set (duplicates are dropped).
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let set = LazyList::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

impl<T: Ord + Send + Sync> Extend<T> for LazyList<T> {
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
    use std::sync::Arc;

    #[test]
    fn readers_during_heavy_churn() {
        let s = Arc::new(LazyList::new());
        for i in 0..32 {
            s.insert(i);
        }
        let churn: Vec<_> = (0..2)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for round in 0..500 {
                        let k = t * 16 + round % 16;
                        s.remove(&k);
                        s.insert(k);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for round in 0..2000 {
                        // Keys ≥ 32 were never inserted: must never appear.
                        assert!(!s.contains(&(32 + round % 8)));
                    }
                })
            })
            .collect();
        for h in churn.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 32);
    }
}
