//! Concurrent skiplists.
//!
//! Skiplists (Pugh, 1990) are the concurrency workhorse among ordered
//! structures: unlike balanced trees they need **no rebalancing**, so an
//! update touches only the nodes adjacent to the affected tower — which is
//! why `java.util.concurrent` ships a skiplist map rather than a concurrent
//! red-black tree. Three implementations of [`cds_core::ConcurrentSet`]:
//!
//! * [`CoarseSkipList`] — a textbook sequential skiplist behind one mutex
//!   (the E6 baseline; also the reference model for the randomized tests).
//! * [`LazySkipList`] — the lazy lock-based skiplist of Herlihy, Lev,
//!   Luchangco & Shavit: per-node locks, `marked`/`fully_linked` flags,
//!   wait-free `contains`.
//! * [`LockFreeSkipList`] — the CAS-only skiplist (Fraser's algorithm as
//!   presented by Herlihy & Shavit ch. 14): the deletion mark lives in the
//!   tag bit of each level's `next` pointer, and traversals help unlink.
//!   Also provides [`LockFreeSkipList::remove_min`], the building block of
//!   the Lotan–Shavit priority queue in `cds-prio`.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentSet;
//! use cds_skiplist::LockFreeSkipList;
//!
//! let s = LockFreeSkipList::new();
//! s.insert(3);
//! s.insert(1);
//! assert!(s.contains(&1));
//! assert_eq!(s.remove_min(), Some(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coarse;
mod lazy;
mod level;
mod lock_free;
mod seq;

pub use coarse::CoarseSkipList;
pub use lazy::LazySkipList;
pub use lock_free::LockFreeSkipList;
pub use seq::SeqSkipList;

/// Maximum tower height used by every skiplist in this crate.
///
/// With the geometric level distribution (p = 1/2), 24 levels comfortably
/// cover sets of up to ~16M elements.
pub const HEIGHT: usize = 24;
