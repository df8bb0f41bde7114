//! Concurrent hash maps.
//!
//! Five implementations of [`cds_core::ConcurrentMap`] spanning the
//! classical design space:
//!
//! * [`CoarseMap`] — `std::collections::HashMap` behind one mutex; the
//!   baseline of experiment E5.
//! * [`StripedHashMap`] — **lock striping** (Herlihy & Shavit ch. 13): a
//!   fixed array of locks guards a growable bucket table, so operations on
//!   different stripes proceed in parallel; a resize briefly acquires every
//!   stripe. Because the table length is always a multiple of the lock
//!   count, keys in one bucket always map to the same stripe.
//! * [`BucketedHashSet`] — Michael's lock-free hash set (PPoPP 2002): a
//!   *fixed* array of Harris–Michael lists; fully lock-free but cannot
//!   grow.
//! * [`SplitOrderedHashMap`] — Shalev & Shavit's **split-ordered list**
//!   (JACM 2006): the only known way to make a lock-free hash table *grow*
//!   without ever moving an item. All items live in one lock-free sorted
//!   list ordered by bit-reversed hash; the "table" is just an array of
//!   shortcut pointers to *dummy* nodes, and doubling the table splits each
//!   bucket logically — recursively — by inserting one new dummy per new
//!   bucket.
//! * [`ResizingMap`] — a production-style **sharded map with cooperative
//!   incremental migration**: per-shard bucket tables double when a shard
//!   exceeds its load factor, and every thread that touches a resizing
//!   shard helps move a few buckets — no stop-the-world pause, with old
//!   bucket arrays retired through the [`cds_reclaim::Reclaimer`] trait.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentMap;
//! use cds_map::StripedHashMap;
//!
//! let m = StripedHashMap::new();
//! assert!(m.insert(1, "one"));
//! assert_eq!(m.get(&1), Some("one"));
//! assert!(m.remove(&1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bucketed;
mod coarse;
mod resizing;
mod split_ordered;
mod striped;

pub use bucketed::BucketedHashSet;
pub use coarse::CoarseMap;
pub use resizing::ResizingMap;
pub use split_ordered::SplitOrderedHashMap;
pub use striped::StripedHashMap;

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentMap;
    use std::sync::Arc;

    fn map_semantics<M: ConcurrentMap<u64, String> + Default>() {
        let m = M::default();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
        assert!(!m.remove(&1));
        assert!(m.insert(1, "one".into()));
        assert!(!m.insert(1, "uno".into()), "insert-if-absent must reject");
        assert_eq!(m.get(&1).as_deref(), Some("one"));
        assert!(m.contains_key(&1));
        assert_eq!(m.len(), 1);
        assert!(m.remove(&1));
        assert!(!m.contains_key(&1));
        assert!(m.is_empty());
    }

    fn grows_past_initial_capacity<M: ConcurrentMap<u64, u64> + Default>() {
        let m = M::default();
        for i in 0..10_000 {
            assert!(m.insert(i, i * 2));
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000 {
            assert_eq!(m.get(&i), Some(i * 2), "lost key {i} after growth");
        }
    }

    fn concurrent_disjoint_inserts<M: ConcurrentMap<u64, u64> + Default + 'static>() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 2_000;
        let m = Arc::new(M::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let k = t * PER_THREAD + i;
                        assert!(m.insert(k, k + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len() as u64, THREADS * PER_THREAD);
        for k in 0..THREADS * PER_THREAD {
            assert_eq!(m.get(&k), Some(k + 1), "missing {k}");
        }
    }

    fn one_insert_winner<M: ConcurrentMap<u64, u64> + Default + 'static>() {
        for round in 0..10 {
            let m = Arc::new(M::default());
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let m = Arc::clone(&m);
                    std::thread::spawn(move || m.insert(round, t))
                })
                .collect();
            let wins = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&w| w)
                .count();
            assert_eq!(wins, 1);
            assert_eq!(m.len(), 1);
        }
    }

    #[test]
    fn all_maps_have_dictionary_semantics() {
        map_semantics::<CoarseMap<u64, String>>();
        map_semantics::<StripedHashMap<u64, String>>();
        map_semantics::<SplitOrderedHashMap<u64, String>>();
        map_semantics::<ResizingMap<u64, String>>();
    }

    #[test]
    fn all_maps_grow() {
        grows_past_initial_capacity::<CoarseMap<u64, u64>>();
        grows_past_initial_capacity::<StripedHashMap<u64, u64>>();
        grows_past_initial_capacity::<SplitOrderedHashMap<u64, u64>>();
        grows_past_initial_capacity::<ResizingMap<u64, u64>>();
    }

    #[test]
    fn disjoint_inserts_all_land() {
        concurrent_disjoint_inserts::<CoarseMap<u64, u64>>();
        concurrent_disjoint_inserts::<StripedHashMap<u64, u64>>();
        concurrent_disjoint_inserts::<SplitOrderedHashMap<u64, u64>>();
        concurrent_disjoint_inserts::<ResizingMap<u64, u64>>();
    }

    #[test]
    fn same_key_insert_races_have_one_winner() {
        one_insert_winner::<CoarseMap<u64, u64>>();
        one_insert_winner::<StripedHashMap<u64, u64>>();
        one_insert_winner::<SplitOrderedHashMap<u64, u64>>();
        one_insert_winner::<ResizingMap<u64, u64>>();
    }
}
