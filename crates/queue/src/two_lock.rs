use cds_atomic::{AtomicPtr, Ordering};
use std::fmt;
use std::ptr;

use cds_core::ConcurrentQueue;
use cds_sync::Mutex;

struct Node<T> {
    /// `None` only for the sentinel.
    value: Option<T>,
    /// Atomic because when the queue is empty the enqueuer (under the tail
    /// lock) writes the sentinel's `next` while a dequeuer (under the head
    /// lock) reads it — the algorithm's one deliberate cross-lock access.
    next: AtomicPtr<Node<T>>,
}

/// Michael & Scott's **two-lock** queue (PODC '96).
///
/// A singly-linked list with a permanent sentinel at the head. Enqueue
/// touches only the tail pointer, dequeue only the head pointer, so each
/// gets its own lock and one producer can run concurrently with one
/// consumer. The sentinel guarantees head and tail never point at the same
/// *mutable* node, which is what makes the two critical sections
/// independent.
///
/// The classic halfway point between [`CoarseQueue`](crate::CoarseQueue)
/// and the lock-free [`MsQueue`](crate::MsQueue) in experiment E3.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentQueue;
/// use cds_queue::TwoLockQueue;
///
/// let q = TwoLockQueue::new();
/// q.enqueue("x");
/// assert_eq!(q.dequeue(), Some("x"));
/// ```
pub struct TwoLockQueue<T> {
    head: Mutex<*mut Node<T>>,
    tail: Mutex<*mut Node<T>>,
}

// SAFETY: nodes are only touched under the appropriate lock; values move
// across threads by `T: Send`.
unsafe impl<T: Send> Send for TwoLockQueue<T> {}
unsafe impl<T: Send> Sync for TwoLockQueue<T> {}

impl<T> TwoLockQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let sentinel = Box::into_raw(Box::new(Node {
            value: None,
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        TwoLockQueue {
            head: Mutex::new(sentinel),
            tail: Mutex::new(sentinel),
        }
    }
}

impl<T> Default for TwoLockQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentQueue<T> for TwoLockQueue<T> {
    const NAME: &'static str = "two-lock";

    fn enqueue(&self, value: T) {
        let node = Box::into_raw(Box::new(Node {
            value: Some(value),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        let mut tail = self.tail.lock();
        // SAFETY: `*tail` is the last node, owned by the queue; only the
        // tail-lock holder writes its `next`. Release publishes the node's
        // initialization to the dequeuer's Acquire load.
        unsafe { (**tail).next.store(node, Ordering::Release) };
        *tail = node;
    }

    fn dequeue(&self) -> Option<T> {
        let mut head = self.head.lock();
        let sentinel = *head;
        // SAFETY: the sentinel is owned by the queue and freed only by the
        // head-lock holder (us). Acquire pairs with the enqueuer's Release
        // store so the new node's fields are visible.
        let next = unsafe { (*sentinel).next.load(Ordering::Acquire) };
        if next.is_null() {
            return None;
        }
        // SAFETY: `next` is fully initialized (its fields were written
        // before it was linked under the tail lock, and linking stores are
        // ordered by the mutex release).
        let value = unsafe { (*next).value.take() };
        *head = next; // `next` becomes the new sentinel
        drop(head);
        // SAFETY: the old sentinel is unlinked and only we reference it.
        unsafe { drop(Box::from_raw(sentinel)) };
        debug_assert!(value.is_some(), "non-sentinel node without a value");
        value
    }

    fn is_empty(&self) -> bool {
        let head = self.head.lock();
        // SAFETY: as in `dequeue`.
        unsafe { (**head).next.load(Ordering::Acquire).is_null() }
    }
}

impl<T> Drop for TwoLockQueue<T> {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: unique access; all nodes belong to the queue.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

impl<T> fmt::Debug for TwoLockQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TwoLockQueue").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn drop_frees_unconsumed_values() {
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q = TwoLockQueue::new();
            for _ in 0..6 {
                q.enqueue(D(Arc::clone(&drops)));
            }
            drop(q.dequeue());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 6);
    }
}
