//! Concurrent priority queues.
//!
//! Two implementations of [`cds_core::ConcurrentPriorityQueue`]:
//!
//! * [`CoarseBinaryHeap`] — a binary min-heap behind one mutex: the E8
//!   baseline. Heaps resist fine-graining because every `remove_min`
//!   touches the root.
//! * [`SkipListPriorityQueue`] — the Lotan–Shavit construction (IPDPS
//!   2000): a lock-free skiplist is already sorted, so `remove_min` is
//!   "claim the first unmarked bottom-level node with a CAS". Concurrent
//!   `remove_min`s contend only briefly on the current minimum and then
//!   spread out along the list.
//!
//! # A note on linearizability
//!
//! The Lotan–Shavit queue is **quiescently consistent** rather than
//! linearizable for `remove_min`: two overlapping `remove_min` calls can
//! return keys out of order with respect to a concurrent `insert` of a
//! smaller key. This is the documented, published trade-off (making it
//! linearizable requires timestamping); the test suite therefore checks
//! the quiescent properties — no loss, no duplication, sorted drains when
//! sequential.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentPriorityQueue;
//! use cds_prio::SkipListPriorityQueue;
//!
//! let pq = SkipListPriorityQueue::new();
//! pq.insert(30u64);
//! pq.insert(10);
//! pq.insert(20);
//! assert_eq!(pq.remove_min(), Some(10));
//! assert_eq!(pq.peek_min(), Some(20));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coarse;
mod skiplist_pq;

pub use coarse::CoarseBinaryHeap;
pub use skiplist_pq::SkipListPriorityQueue;
