//! Safe memory reclamation for lock-free data structures.
//!
//! Lock-free algorithms unlink nodes while other threads may still be
//! traversing them. In a garbage-collected language the collector keeps such
//! nodes alive; in Rust the library must provide the equivalent guarantee.
//! This crate implements, from scratch, the two standard schemes:
//!
//! * [`epoch`] — **epoch-based reclamation** (EBR). Threads *pin* the
//!   current epoch before touching shared nodes and defer destruction of
//!   unlinked nodes; a node is freed only after every pinned thread has
//!   moved past the epoch in which it was unlinked. Per-operation cost is a
//!   couple of unsynchronized loads plus one fence — the cheapest known
//!   scheme for read-heavy structures — at the price of unbounded garbage
//!   if a thread stalls while pinned.
//!
//! * [`hazard`] — **hazard pointers** (Michael). Each thread publishes the
//!   specific pointers it is about to dereference; retired nodes are freed
//!   only when no published hazard matches them. Bounded garbage even under
//!   thread stalls, at the price of a store + fence per protected pointer.
//!
//! The trade-off between the two is measured head-to-head by experiment
//! E10 of the benchmark suite
//! (`cargo run -p cds-bench --release --bin experiments -- E10`).
//!
//! # The backend-generic interface
//!
//! Structures do not pick a scheme; they are generic over the
//! [`Reclaimer`] trait (default [`Ebr`]), so one implementation compiles
//! against four backends:
//!
//! * [`Ebr`] — epoch pins from the process-wide default collector.
//! * [`Hazard`] — hazard pointers (per-pointer publish-validate) plus
//!   hazard *eras* for traversal structures, on a process-wide [`hazard::Domain`].
//! * [`Leak`] — `retire` leaks; the reclamation-cost floor for E10.
//! * [`DebugReclaim`] — a checker that quarantines retired nodes and
//!   panics with thread ids on use-after-retire or double retire.
//!
//! # Example
//!
//! ```
//! use cds_reclaim::epoch::{self, Atomic, Owned};
//! use cds_atomic::Ordering;
//!
//! let slot: Atomic<i32> = Atomic::new(1);
//! let guard = epoch::pin();
//! let old = slot.swap(Owned::new(2).into_shared(&guard), Ordering::AcqRel, &guard);
//! // `old` may still be read by concurrent threads: defer its destruction.
//! unsafe {
//!     assert_eq!(*old.deref(), 1);
//!     guard.defer_destroy(old);
//! }
//! drop(guard);
//! # unsafe { drop(slot.into_owned()); }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod epoch;
pub mod hazard;
mod reclaimer;

pub use reclaimer::{
    DebugGuard, DebugReclaim, Ebr, Hazard, HazardGuard, Leak, LeakGuard, ReclaimGuard, Reclaimer,
};
