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

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentQueue;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn fifo_when_sequential<Q: ConcurrentQueue<u32>>(q: Q) {
        assert!(q.is_empty());
        assert_eq!(q.dequeue(), None);
        for i in 0..100 {
            q.enqueue(i);
        }
        assert!(!q.is_empty());
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert!(q.is_empty());
    }

    fn no_loss_no_duplication<Q: ConcurrentQueue<u64> + 'static>(q: Q) {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 2_000;
        let q = Arc::new(q);
        let producers: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        q.enqueue(t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..THREADS)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..PER_THREAD / 2 {
                        if let Some(v) = q.dequeue() {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut seen: HashSet<u64> = HashSet::new();
        for c in consumers {
            for v in c.join().unwrap() {
                assert!(seen.insert(v), "duplicate dequeue of {v}");
            }
        }
        while let Some(v) = q.dequeue() {
            assert!(seen.insert(v), "duplicate dequeue of {v}");
        }
        assert_eq!(seen.len() as u64, THREADS * PER_THREAD, "lost elements");
    }

    fn per_producer_order_is_preserved<Q: ConcurrentQueue<u64> + 'static>(q: Q) {
        // FIFO per producer: a consumer must see each producer's elements in
        // increasing order.
        const THREADS: u64 = 2;
        const PER_THREAD: u64 = 3_000;
        let q = Arc::new(q);
        let producers: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        q.enqueue(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut last = vec![-1i64; THREADS as usize];
        while let Some(v) = q.dequeue() {
            let t = (v / 1_000_000) as usize;
            let i = (v % 1_000_000) as i64;
            assert!(i > last[t], "per-producer order violated");
            last[t] = i;
        }
    }

    #[test]
    fn all_implementations_are_fifo() {
        fifo_when_sequential(CoarseQueue::new());
        fifo_when_sequential(TwoLockQueue::new());
        fifo_when_sequential(MsQueue::new());
        fifo_when_sequential(BoundedQueue::with_capacity(128));
        fifo_when_sequential(FcQueue::new());
    }

    #[test]
    fn no_element_lost_or_duplicated_under_contention() {
        no_loss_no_duplication(CoarseQueue::new());
        no_loss_no_duplication(TwoLockQueue::new());
        no_loss_no_duplication(MsQueue::new());
        // Capacity must cover all in-flight elements: consumers stop after a
        // fixed pop budget, so a smaller queue would leave producers spinning
        // on a full queue forever.
        no_loss_no_duplication(BoundedQueue::with_capacity(16_384));
        no_loss_no_duplication(FcQueue::new());
    }

    #[test]
    fn per_producer_fifo_order() {
        per_producer_order_is_preserved(CoarseQueue::new());
        per_producer_order_is_preserved(TwoLockQueue::new());
        per_producer_order_is_preserved(MsQueue::new());
        per_producer_order_is_preserved(BoundedQueue::with_capacity(8192));
    }
}
