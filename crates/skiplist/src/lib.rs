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

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::stress::SplitMix64;
    use cds_core::ConcurrentSet;
    use std::sync::Arc;

    fn set_semantics<S: ConcurrentSet<i64> + Default>() {
        let s = S::default();
        assert!(s.is_empty());
        assert!(!s.remove(&3));
        assert!(s.insert(3));
        assert!(s.insert(-7));
        assert!(s.insert(100));
        assert!(!s.insert(3));
        assert_eq!(s.len(), 3);
        assert!(s.contains(&-7));
        assert!(!s.contains(&4));
        assert!(s.remove(&3));
        assert!(!s.remove(&3));
        assert_eq!(s.len(), 2);
    }

    fn large_ordered_workout<S: ConcurrentSet<i64> + Default>() {
        let s = S::default();
        // Insert in shuffled order so towers get exercised.
        let mut keys: Vec<i64> = (0..2_000).collect();
        let mut rng = SplitMix64::new(0x9e3779b97f4a7c15);
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &k in &keys {
            assert!(s.insert(k));
        }
        assert_eq!(s.len(), 2_000);
        for k in 0..2_000 {
            assert!(s.contains(&k));
        }
        for k in (0..2_000).step_by(2) {
            assert!(s.remove(&k));
        }
        assert_eq!(s.len(), 1_000);
        for k in 0..2_000 {
            assert_eq!(s.contains(&k), k % 2 == 1);
        }
    }

    fn concurrent_mixed<S: ConcurrentSet<i64> + Default + 'static>() {
        let s = Arc::new(S::default());
        for k in 0..64 {
            s.insert(k);
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(t);
                    for _ in 0..500 {
                        let x = rng.next_u64();
                        let k = (x % 128) as i64;
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
        let n = s.len();
        let found = (0..128).filter(|k| s.contains(k)).count();
        assert_eq!(n, found, "len disagrees with membership scan");
    }

    #[test]
    fn all_skiplists_have_set_semantics() {
        set_semantics::<CoarseSkipList<i64>>();
        set_semantics::<LazySkipList<i64>>();
        set_semantics::<LockFreeSkipList<i64>>();
    }

    #[test]
    fn all_skiplists_survive_large_workouts() {
        large_ordered_workout::<CoarseSkipList<i64>>();
        large_ordered_workout::<LazySkipList<i64>>();
        large_ordered_workout::<LockFreeSkipList<i64>>();
    }

    #[test]
    fn all_skiplists_survive_concurrent_mixes() {
        concurrent_mixed::<CoarseSkipList<i64>>();
        concurrent_mixed::<LazySkipList<i64>>();
        concurrent_mixed::<LockFreeSkipList<i64>>();
    }
}
