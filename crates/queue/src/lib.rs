//! Concurrent queues and work-stealing deques.
//!
//! Implementations of [`cds_core::ConcurrentQueue`] covering the classical
//! design space, plus the two specialized producers/consumers structures
//! the literature treats alongside queues:
//!
//! * [`CoarseQueue`] — `VecDeque` behind one mutex; the baseline.
//! * [`TwoLockQueue`] — Michael & Scott's two-lock queue: separate head and
//!   tail locks let one enqueuer and one dequeuer run in parallel.
//! * [`FcQueue`] — a flat-combining queue (Hendler et al., 2010).
//! * [`MsQueue`] — Michael & Scott's lock-free queue (PODC '96), the
//!   algorithm inside `java.util.concurrent.ConcurrentLinkedQueue`, with
//!   epoch-based reclamation.
//! * [`BoundedQueue`] — a fixed-capacity MPMC array queue using per-slot
//!   sequence numbers (Vyukov's design); no allocation after construction.
//! * [`SpscRingBuffer`] — Lamport's single-producer single-consumer ring:
//!   wait-free, synchronization by two indices only.
//! * [`ChaseLevDeque`] — the Chase–Lev work-stealing deque: the owner
//!   pushes and pops at the bottom without synchronization in the common
//!   case; thieves steal from the top with a CAS.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentQueue;
//! use cds_queue::MsQueue;
//!
//! let q = MsQueue::new();
//! q.enqueue("job");
//! assert_eq!(q.dequeue(), Some("job"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bounded;
mod chase_lev;
mod coarse;
mod fc;
mod ms;
mod spsc;
mod two_lock;

pub use bounded::BoundedQueue;
pub use chase_lev::{ChaseLevDeque, Steal, Stealer, Worker, MAX_BATCH};
pub use coarse::CoarseQueue;
pub use fc::FcQueue;
pub use ms::MsQueue;
pub use spsc::{spsc_ring_buffer, SpscConsumer, SpscProducer, SpscRingBuffer};
pub use two_lock::TwoLockQueue;
