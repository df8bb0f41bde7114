use std::fmt;

use cds_core::{ConcurrentPriorityQueue, ConcurrentSet};
use cds_skiplist::LockFreeSkipList;

/// The Lotan–Shavit skiplist priority queue (IPDPS 2000).
///
/// A thin facade over [`LockFreeSkipList`]: the list is kept sorted by the
/// skiplist invariants, so `insert` is a skiplist insert and
/// [`remove_min`](ConcurrentPriorityQueue::remove_min) claims the first
/// unmarked bottom-level node with a CAS
/// ([`LockFreeSkipList::remove_min`]). Under contention, competing
/// `remove_min` callers that lose the claim race simply advance to the next
/// node, so the "hot head" spreads out along the list instead of
/// serializing.
///
/// See the crate docs for the quiescent-consistency caveat on
/// `remove_min`.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentPriorityQueue;
/// use cds_prio::SkipListPriorityQueue;
///
/// let pq = SkipListPriorityQueue::new();
/// pq.insert(2);
/// pq.insert(1);
/// assert_eq!(pq.remove_min(), Some(1));
/// ```
pub struct SkipListPriorityQueue<T> {
    list: LockFreeSkipList<T>,
}

impl<T: Ord> SkipListPriorityQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SkipListPriorityQueue {
            list: LockFreeSkipList::new(),
        }
    }
}

impl<T: Ord> Default for SkipListPriorityQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Clone + Send + Sync> ConcurrentPriorityQueue<T> for SkipListPriorityQueue<T> {
    const NAME: &'static str = "skiplist";

    fn insert(&self, value: T) -> bool {
        ConcurrentSet::insert(&self.list, value)
    }

    fn remove_min(&self) -> Option<T> {
        self.list.remove_min()
    }

    fn peek_min(&self) -> Option<T> {
        self.list.min()
    }

    fn len(&self) -> usize {
        ConcurrentSet::len(&self.list)
    }
}

impl<T> fmt::Debug for SkipListPriorityQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipListPriorityQueue")
            .finish_non_exhaustive()
    }
}
