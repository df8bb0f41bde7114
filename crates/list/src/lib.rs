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

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::stress::SplitMix64;
    use cds_core::ConcurrentSet;
    use std::sync::Arc;

    fn set_semantics<S: ConcurrentSet<i32> + Default>() {
        let s = S::default();
        assert!(s.is_empty());
        assert!(!s.contains(&1));
        assert!(!s.remove(&1));
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(s.insert(9));
        assert!(!s.insert(5), "duplicate insert must fail");
        assert_eq!(s.len(), 3);
        assert!(s.contains(&1) && s.contains(&5) && s.contains(&9));
        assert!(!s.contains(&2));
        assert!(s.remove(&5));
        assert!(!s.remove(&5), "double remove must fail");
        assert!(!s.contains(&5));
        assert_eq!(s.len(), 2);
    }

    fn concurrent_disjoint_inserts<S: ConcurrentSet<u64> + Default + 'static>() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 150;
        let s = Arc::new(S::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        assert!(s.insert(t * PER_THREAD + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len() as u64, THREADS * PER_THREAD);
        for v in 0..THREADS * PER_THREAD {
            assert!(s.contains(&v), "missing {v}");
        }
    }

    fn one_winner<S: ConcurrentSet<u64> + Default + 'static>() {
        for _ in 0..8 {
            let s = Arc::new(S::default());
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || s.insert(42))
                })
                .collect();
            let wins = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&w| w)
                .count();
            assert_eq!(wins, 1, "exactly one insert(42) must win");
            let removers: Vec<_> = (0..4)
                .map(|_| {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || s.remove(&42))
                })
                .collect();
            let removed = removers
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&w| w)
                .count();
            assert_eq!(removed, 1, "exactly one remove(42) must win");
        }
    }

    fn mixed_stress<S: ConcurrentSet<u64> + Default + 'static>() {
        let s = Arc::new(S::default());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(t);
                    for _ in 0..500 {
                        let x = rng.next_u64();
                        let k = x % 64;
                        match x % 3 {
                            0 => {
                                s.insert(k);
                            }
                            1 => {
                                s.remove(&k);
                            }
                            _ => {
                                s.contains(&k);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Post-condition: the set must be internally consistent — every
        // claimed member is found, length matches a full scan.
        let n = s.len();
        let found = (0..64).filter(|k| s.contains(k)).count();
        assert_eq!(n, found);
    }

    #[test]
    fn all_lists_have_set_semantics() {
        set_semantics::<CoarseList<i32>>();
        set_semantics::<FineList<i32>>();
        set_semantics::<OptimisticList<i32>>();
        set_semantics::<LazyList<i32>>();
        set_semantics::<HarrisMichaelList<i32>>();
    }

    #[test]
    fn disjoint_inserts_all_land() {
        concurrent_disjoint_inserts::<CoarseList<u64>>();
        concurrent_disjoint_inserts::<FineList<u64>>();
        concurrent_disjoint_inserts::<OptimisticList<u64>>();
        concurrent_disjoint_inserts::<LazyList<u64>>();
        concurrent_disjoint_inserts::<HarrisMichaelList<u64>>();
    }

    #[test]
    fn same_key_races_have_one_winner() {
        one_winner::<CoarseList<u64>>();
        one_winner::<FineList<u64>>();
        one_winner::<OptimisticList<u64>>();
        one_winner::<LazyList<u64>>();
        one_winner::<HarrisMichaelList<u64>>();
    }

    #[test]
    fn mixed_workload_stays_consistent() {
        mixed_stress::<CoarseList<u64>>();
        mixed_stress::<FineList<u64>>();
        mixed_stress::<OptimisticList<u64>>();
        mixed_stress::<LazyList<u64>>();
        mixed_stress::<HarrisMichaelList<u64>>();
    }
}
