use std::cmp::Ordering;
use std::fmt;
use std::ptr;

use cds_core::ConcurrentSet;
use cds_sync::{Mutex, MutexGuard};

use crate::Bound;

struct Node<T> {
    key: Bound<T>,
    /// The lock protects this `next` pointer; hand-over-hand traversal
    /// means a thread always holds the lock of the edge it is crossing.
    next: Mutex<*mut Node<T>>,
}

/// A sorted list with **hand-over-hand** (lock-coupling) locking.
///
/// Rung two of the list ladder: each node carries its own lock and a
/// traversal holds at most two locks at a time — the current node's and its
/// predecessor's — acquiring the next before releasing the previous.
/// Threads operating on disjoint parts of the list proceed in parallel, and
/// because an unlinking thread holds both the predecessor's and victim's
/// locks, no other thread can be at (or reach) the victim, so nodes are
/// freed immediately — no deferred reclamation needed.
///
/// The cost: every traversal step takes a lock, so a single long traversal
/// serializes behind every earlier one (locks are acquired in list order,
/// which also rules out deadlock).
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_list::FineList;
///
/// let s = FineList::new();
/// s.insert(1);
/// assert!(s.contains(&1));
/// ```
pub struct FineList<T> {
    head: *mut Node<T>,
}

// SAFETY: all node access is mediated by the per-node locks; keys cross
// threads by value.
unsafe impl<T: Send> Send for FineList<T> {}
unsafe impl<T: Send> Sync for FineList<T> {}

impl<T: Ord> FineList<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        let tail = Box::into_raw(Box::new(Node {
            key: Bound::PosInf,
            next: Mutex::new(ptr::null_mut()),
        }));
        let head = Box::into_raw(Box::new(Node {
            key: Bound::NegInf,
            next: Mutex::new(tail),
        }));
        FineList { head }
    }

    /// Lock-coupled search: returns the guard of the predecessor's `next`
    /// (still held) and the current node, which is the first with
    /// `key >= target`. The tail sentinel guarantees termination.
    fn find(&self, key: &T) -> (MutexGuard<'_, *mut Node<T>>, *mut Node<T>) {
        // SAFETY: head is never freed while the list lives.
        let mut pred_guard = unsafe { &(*self.head).next }.lock();
        loop {
            let curr = *pred_guard;
            // SAFETY: `curr` is reachable through a held lock; unlinkers
            // need that same lock, so it is alive.
            let curr_node = unsafe { &*curr };
            if curr_node.key.cmp_key(key) != Ordering::Less {
                return (pred_guard, curr);
            }
            let next_guard = curr_node.next.lock();
            // Coupling: acquire the next edge before releasing the previous.
            pred_guard = next_guard;
        }
    }
}

impl<T: Ord> Default for FineList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Send> ConcurrentSet<T> for FineList<T> {
    const NAME: &'static str = "fine";

    fn insert(&self, value: T) -> bool {
        let (mut pred_guard, curr) = self.find(&value);
        // SAFETY: as in `find`.
        if unsafe { &*curr }.key.cmp_key(&value) == Ordering::Equal {
            return false;
        }
        let node = Box::into_raw(Box::new(Node {
            key: Bound::Finite(value),
            next: Mutex::new(curr),
        }));
        *pred_guard = node;
        true
    }

    fn remove(&self, value: &T) -> bool {
        let (mut pred_guard, curr) = self.find(value);
        // SAFETY: as in `find`.
        let curr_node = unsafe { &*curr };
        if curr_node.key.cmp_key(value) != Ordering::Equal {
            return false;
        }
        let curr_guard = curr_node.next.lock();
        let next = *curr_guard;
        *pred_guard = next;
        drop(curr_guard);
        drop(pred_guard);
        // SAFETY: we held both the predecessor's and the victim's locks, so
        // no thread is at the victim or can reach it: immediate free is
        // safe (see type-level docs).
        unsafe { drop(Box::from_raw(curr)) };
        true
    }

    fn contains(&self, value: &T) -> bool {
        let (_pred_guard, curr) = self.find(value);
        // SAFETY: as in `find`.
        unsafe { &*curr }.key.cmp_key(value) == Ordering::Equal
    }

    fn len(&self) -> usize {
        let mut n = 0;
        // SAFETY: lock-coupled walk as in `find`.
        let mut pred_guard = unsafe { &(*self.head).next }.lock();
        loop {
            let curr = *pred_guard;
            let curr_node = unsafe { &*curr };
            if matches!(curr_node.key, Bound::PosInf) {
                return n;
            }
            n += 1;
            pred_guard = curr_node.next.lock();
        }
    }
}

impl<T> Drop for FineList<T> {
    fn drop(&mut self) {
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: unique access.
            let node = unsafe { Box::from_raw(cur) };
            cur = *node.next.lock();
        }
    }
}

impl<T> fmt::Debug for FineList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FineList").finish_non_exhaustive()
    }
}
