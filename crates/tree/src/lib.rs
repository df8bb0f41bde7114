//! Concurrent binary search trees.
//!
//! Three implementations of [`cds_core::ConcurrentSet`]:
//!
//! * [`CoarseBst`] — a plain internal BST behind one mutex (E7 baseline).
//! * [`FineBst`] — an **external** BST (keys at the leaves, internal nodes
//!   route) with hand-over-hand locking: a traversal holds at most the
//!   locks of the current node and its parent, so operations in disjoint
//!   subtrees run in parallel, and a delete — which splices out a leaf and
//!   its parent — holds exactly the grandparent and parent locks it needs.
//! * [`LockFreeBst`] — the non-blocking external BST of **Ellen, Fatourou,
//!   Ruppert & van Breugel (PODC 2010)**, the first practical lock-free
//!   BST. Every internal node carries an *update* word combining a state
//!   (`Clean`/`IFlag`/`DFlag`/`Mark` — the tag bits of an epoch pointer)
//!   with a pointer to an *operation descriptor*; threads that encounter a
//!   pending operation **help** complete it, which is what makes the tree
//!   lock-free.
//!
//! External trees are the representation of choice for concurrent BSTs
//! because updates touch a constant number of nodes near a leaf and never
//! rotate. No rebalancing is attempted (as in the published algorithm);
//! expected depth is logarithmic for random keys.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentSet;
//! use cds_tree::LockFreeBst;
//!
//! let t = LockFreeBst::new();
//! t.insert(4);
//! t.insert(2);
//! assert!(t.contains(&2));
//! assert!(t.remove(&4));
//! assert_eq!(t.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coarse;
mod ellen;
mod fine;
mod key;

pub use coarse::CoarseBst;
pub use ellen::LockFreeBst;
pub use fine::FineBst;

pub(crate) use key::TreeKey;

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::stress::SplitMix64;
    use cds_core::ConcurrentSet;
    use std::sync::Arc;

    fn set_semantics<S: ConcurrentSet<i64> + Default>() {
        let s = S::default();
        assert!(s.is_empty());
        assert!(!s.remove(&1));
        assert!(s.insert(4));
        assert!(s.insert(2));
        assert!(s.insert(6));
        assert!(s.insert(1));
        assert!(s.insert(3));
        assert!(!s.insert(4));
        assert_eq!(s.len(), 5);
        for k in [1, 2, 3, 4, 6] {
            assert!(s.contains(&k), "missing {k}");
        }
        assert!(!s.contains(&5));
        // Remove interior, leaf, and root-ish keys.
        assert!(s.remove(&2));
        assert!(s.remove(&4));
        assert!(s.remove(&1));
        assert!(!s.remove(&2));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&3) && s.contains(&6));
    }

    fn shuffled_workout<S: ConcurrentSet<i64> + Default>() {
        let s = S::default();
        let mut keys: Vec<i64> = (0..2_000).collect();
        let mut rng = SplitMix64::new(0xdeadbeef);
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &k in &keys {
            assert!(s.insert(k));
        }
        assert_eq!(s.len(), 2_000);
        for &k in &keys {
            assert!(s.contains(&k));
        }
        for &k in keys.iter().filter(|k| *k % 3 == 0) {
            assert!(s.remove(&k));
        }
        for k in 0..2_000 {
            assert_eq!(s.contains(&k), k % 3 != 0);
        }
    }

    fn concurrent_mixed<S: ConcurrentSet<i64> + Default + 'static>() {
        let s = Arc::new(S::default());
        for k in (0..128).step_by(2) {
            s.insert(k);
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(t);
                    for _ in 0..400 {
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
    fn all_trees_have_set_semantics() {
        set_semantics::<CoarseBst<i64>>();
        set_semantics::<FineBst<i64>>();
        set_semantics::<LockFreeBst<i64>>();
    }

    #[test]
    fn all_trees_survive_shuffled_workouts() {
        shuffled_workout::<CoarseBst<i64>>();
        shuffled_workout::<FineBst<i64>>();
        shuffled_workout::<LockFreeBst<i64>>();
    }

    #[test]
    fn all_trees_survive_concurrent_mixes() {
        concurrent_mixed::<CoarseBst<i64>>();
        concurrent_mixed::<FineBst<i64>>();
        concurrent_mixed::<LockFreeBst<i64>>();
    }
}
