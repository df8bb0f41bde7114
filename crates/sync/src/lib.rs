//! Synchronization primitives for the `cds` concurrent data structure family.
//!
//! This crate implements the classical mutual-exclusion spectrum covered by
//! the concurrent-data-structures literature:
//!
//! * [`TasLock`] — test-and-set spin lock (the simplest possible lock);
//! * [`TtasLock`] — test-and-test-and-set with exponential [`Backoff`],
//!   the standard fix for TAS cache-line ping-pong;
//! * [`TicketLock`] — FIFO-fair lock built from two counters;
//! * [`ClhLock`] — queue lock spinning on the *predecessor's* node
//!   (Craig, Landin & Hagersten), local spinning on cache-coherent machines;
//! * [`McsLock`] — queue lock spinning on the thread's *own* node
//!   (Mellor-Crummey & Scott), local spinning even without cache coherence;
//! * [`RwSpinLock`] — a reader-writer spin lock;
//! * [`SeqLock`] — sequence lock for small `Copy` data, allowing wait-free
//!   optimistic reads.
//!
//! All mutual-exclusion locks implement the [`RawLock`] trait so that client
//! code (and the benchmark harness) can be generic over the locking
//! discipline, and the [`Lock`] wrapper turns any [`RawLock`] into a
//! data-carrying, RAII-guarded mutex.
//!
//! The crate also provides the low-level utilities the rest of the family
//! relies on: [`Backoff`] (spin→yield escalation for contended CAS loops),
//! [`CachePadded`] (false-sharing avoidance), and [`Parker`] — the
//! eventcount block/wake protocol shared by the executor and the
//! channels (prepare / re-check / commit, provably lost-wakeup-free;
//! see its module docs for the pairing argument).
//!
//! # Spin-loop audit invariant
//!
//! Every spin loop in this crate reaches a stress yield point on **every
//! iteration** — either through [`Backoff::spin`]/[`Backoff::snooze`]
//! (both open with a `cds_atomic::stress` yield point) or, for the
//! deliberately naive [`TasLock`], a direct call. Bounded bare
//! `spin_loop` bursts (e.g. the ticket lock's proportional pause) are
//! permitted only when the same iteration ends in a yield point. A spin
//! loop violating this is a scheduling blind spot: under the stress
//! scheduler the spinner never pauses, so the worker it waits for is
//! never granted a step and the round is aborted as stalled (the PR-1
//! lazy-skiplist class of stall).
//!
//! # Example
//!
//! ```
//! use cds_sync::{Lock, McsLock};
//! use std::sync::Arc;
//!
//! let counter = Arc::new(Lock::<McsLock, u64>::new(0));
//! let handles: Vec<_> = (0..4)
//!     .map(|_| {
//!         let counter = Arc::clone(&counter);
//!         std::thread::spawn(move || {
//!             for _ in 0..1000 {
//!                 *counter.lock() += 1;
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(*counter.lock(), 4000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backoff;
mod barrier;
mod cache_padded;
mod clh;
mod flat;
mod lock;
mod mcs;
mod parker;
mod raw;
mod rwlock;
mod seqlock;
mod tas;
mod ticket;
mod ttas;

pub use backoff::Backoff;
pub use barrier::SenseBarrier;
pub use cache_padded::CachePadded;
pub use clh::ClhLock;
pub use flat::{FcStructure, FlatCombining};
pub use lock::{Lock, LockGuard};
pub use mcs::McsLock;
pub use parker::{Parked, Parker};
pub use raw::RawLock;
pub use rwlock::{RwReadGuard, RwSpinLock, RwWriteGuard};
pub use seqlock::SeqLock;
pub use tas::TasLock;
pub use ticket::TicketLock;
pub use ttas::TtasLock;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TasLock>();
        assert_send_sync::<TtasLock>();
        assert_send_sync::<TicketLock>();
        assert_send_sync::<ClhLock>();
        assert_send_sync::<McsLock>();
        assert_send_sync::<RwSpinLock>();
        assert_send_sync::<SeqLock<u64>>();
        assert_send_sync::<Lock<TasLock, Vec<u8>>>();
        assert_send_sync::<CachePadded<u64>>();
        assert_send_sync::<Parker>();
    }
}
