//! List-based concurrent sets: the canonical synchronization ladder.
//!
//! A sorted singly-linked list implementing a set is the textbook vehicle
//! for teaching fine-grained synchronization (Herlihy & Shavit ch. 9), and
//! each rung of the ladder is implemented here behind
//! [`cds_core::ConcurrentSet`]:
//!
//! 1. [`CoarseList`] — one lock around the whole list.
//! 2. [`FineList`] — **hand-over-hand** (lock-coupling) locking: a
//!    traversal holds at most two node locks, so disjoint sections of the
//!    list are accessed in parallel.
//! 3. [`OptimisticList`] — traverse *without* locks, lock the two affected
//!    nodes, then **validate** by re-traversing; wins when traversals
//!    dominate and conflicts are rare.
//! 4. [`LazyList`] (Heller et al., 2005) — adds a *marked* bit so
//!    validation is O(1) and `contains` is wait-free; removal marks
//!    (logical delete) before unlinking (physical delete).
//! 5. [`HarrisMichaelList`] (Harris 2001; Michael 2002) — fully lock-free:
//!    the mark lives in the low bit of the `next` pointer
//!    ([`cds_reclaim::epoch`] tagged pointers), and traversals help unlink
//!    marked nodes with CAS. The protocol itself is the node-generic
//!    [`hm`] module, which `cds-map`'s split-ordered table also runs.
//!
//! All five have O(n) operations — the point is not asymptotics but the
//! synchronization structure; experiment E4 sweeps them across read ratios.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentSet;
//! use cds_list::LazyList;
//!
//! let set = LazyList::new();
//! assert!(set.insert(3));
//! assert!(!set.insert(3));
//! assert!(set.contains(&3));
//! assert!(set.remove(&3));
//! assert!(set.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coarse;
mod fine;
mod harris_michael;
pub mod hm;
mod lazy;
mod optimistic;

pub(crate) use cds_core::Bound;
pub use coarse::CoarseList;
pub use fine::FineList;
pub use harris_michael::HarrisMichaelList;
pub use lazy::LazyList;
pub use optimistic::OptimisticList;
