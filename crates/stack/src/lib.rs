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

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentStack;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn lifo_when_sequential<S: ConcurrentStack<u32> + Default>() {
        let s = S::default();
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
        for i in 0..100 {
            s.push(i);
        }
        assert!(!s.is_empty());
        for i in (0..100).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert!(s.is_empty());
    }

    fn no_loss_no_duplication<S: ConcurrentStack<u64> + Default + 'static>() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 2_000;
        let s = Arc::new(S::default());
        let producers: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        s.push(t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..THREADS)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..PER_THREAD / 2 {
                        if let Some(v) = s.pop() {
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
                assert!(seen.insert(v), "duplicate pop of {v}");
            }
        }
        while let Some(v) = s.pop() {
            assert!(seen.insert(v), "duplicate pop of {v}");
        }
        assert_eq!(seen.len() as u64, THREADS * PER_THREAD, "lost elements");
    }

    #[test]
    fn all_implementations_are_lifo() {
        lifo_when_sequential::<CoarseStack<u32>>();
        lifo_when_sequential::<TreiberStack<u32>>();
        lifo_when_sequential::<TreiberStack<u32, cds_reclaim::Hazard>>();
        lifo_when_sequential::<TreiberStack<u32, cds_reclaim::Leak>>();
        lifo_when_sequential::<TreiberStack<u32, cds_reclaim::DebugReclaim>>();
        lifo_when_sequential::<EliminationBackoffStack<u32>>();
        lifo_when_sequential::<FcStack<u32>>();
    }

    #[test]
    fn no_element_lost_or_duplicated_under_contention() {
        no_loss_no_duplication::<CoarseStack<u64>>();
        no_loss_no_duplication::<TreiberStack<u64>>();
        no_loss_no_duplication::<TreiberStack<u64, cds_reclaim::Hazard>>();
        no_loss_no_duplication::<TreiberStack<u64, cds_reclaim::DebugReclaim>>();
        no_loss_no_duplication::<EliminationBackoffStack<u64>>();
        no_loss_no_duplication::<FcStack<u64>>();
    }
}
