//! Concurrent stacks.
//!
//! Five implementations of [`cds_core::ConcurrentStack`] spanning the
//! design space the literature covers:
//!
//! * [`CoarseStack`] — a `Vec` behind a mutex; the migration-friendly
//!   baseline every other implementation is measured against.
//! * [`TreiberStack`] — the classic lock-free stack (Treiber, 1986): a
//!   single CAS on the head pointer per operation, generic over the
//!   reclamation backend (`TreiberStack<T, R: cds_reclaim::Reclaimer>`,
//!   default epoch-based). Instantiate with [`cds_reclaim::Hazard`],
//!   [`cds_reclaim::Leak`], or [`cds_reclaim::DebugReclaim`] to compare
//!   reclamation schemes (experiment E10) or to check retire discipline.
//! * [`FcStack`] — a flat-combining stack (Hendler et al., 2010): one
//!   combiner thread services everyone's published operations per lock
//!   acquisition.
//! * [`EliminationBackoffStack`] — Hendler, Shavit & Yerushalmi's
//!   elimination-backoff stack: contending pushes and pops *cancel each
//!   other out* in a side-channel [`EliminationArray`] instead of fighting
//!   over the head pointer, turning the stack's sequential bottleneck into
//!   parallel exchanges under high contention.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentStack;
//! use cds_stack::TreiberStack;
//! use std::sync::Arc;
//!
//! let stack = Arc::new(TreiberStack::new());
//! let s2 = Arc::clone(&stack);
//! let t = std::thread::spawn(move || s2.push(1));
//! t.join().unwrap();
//! assert_eq!(stack.pop(), Some(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coarse;
mod elimination;
mod fc;
mod treiber;

pub use coarse::CoarseStack;
pub use elimination::{EliminationArray, EliminationBackoffStack};
pub use fc::FcStack;
pub use treiber::TreiberStack;
