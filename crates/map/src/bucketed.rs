use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};

use cds_core::ConcurrentSet;
use cds_list::HarrisMichaelList;
use cds_reclaim::{Ebr, Reclaimer};

/// Michael's lock-free hash set (PPoPP 2002): a **fixed** array of
/// lock-free ordered lists.
///
/// The original paper's construction: hash the key, walk the bucket's
/// [Harris–Michael list](cds_list::HarrisMichaelList). With the bucket
/// count fixed, every operation is lock-free and extremely simple — the
/// price is that load factor grows with the element count, degrading to
/// O(n/buckets) chains. Shalev & Shavit's
/// [`SplitOrderedHashMap`](crate::SplitOrderedHashMap) exists precisely to
/// remove this limitation; keeping both makes the trade-off measurable.
///
/// Implements [`ConcurrentSet`] (the paper's interface is a set; pair it
/// with values by storing `(K, V)` tuples ordered by key if needed).
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_map::BucketedHashSet;
///
/// let s = BucketedHashSet::new();
/// assert!(s.insert(42));
/// assert!(s.contains(&42));
/// assert!(s.remove(&42));
/// ```
pub struct BucketedHashSet<T, S = RandomState> {
    buckets: Box<[HarrisMichaelList<T>]>,
    hasher: S,
}

const DEFAULT_BUCKETS: usize = 256;

impl<T: Ord + Hash> BucketedHashSet<T, RandomState> {
    /// Creates a set with the default bucket count (256).
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates a set with `buckets` fixed buckets (rounded up to a power
    /// of two).
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn with_buckets(buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        BucketedHashSet {
            buckets: (0..buckets.next_power_of_two())
                .map(|_| HarrisMichaelList::new())
                .collect(),
            hasher: RandomState::new(),
        }
    }
}

impl<T: Ord + Hash> Default for BucketedHashSet<T, RandomState> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Hash, S: BuildHasher> BucketedHashSet<T, S> {
    fn bucket(&self, value: &T) -> &HarrisMichaelList<T> {
        &self.buckets[(self.hasher.hash_one(value) as usize) & (self.buckets.len() - 1)]
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

impl<T, S> ConcurrentSet<T> for BucketedHashSet<T, S>
where
    T: Ord + Hash + Send + Sync,
    S: BuildHasher + Send + Sync,
{
    const NAME: &'static str = "bucketed";

    fn insert(&self, value: T) -> bool {
        self.bucket(&value).insert(value)
    }

    fn remove(&self, value: &T) -> bool {
        self.bucket(value).remove(value)
    }

    fn contains(&self, value: &T) -> bool {
        self.bucket(value).contains(value)
    }

    fn len(&self) -> usize {
        // One pin for the whole sum: each list's own pin nests inside it.
        let _guard = Ebr::enter_blanket();
        self.buckets.iter().map(|b| b.len()).sum()
    }
}

impl<T, S> fmt::Debug for BucketedHashSet<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BucketedHashSet")
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_semantics() {
        let s = BucketedHashSet::with_buckets(4);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(&1));
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        assert!(s.is_empty());
    }

    #[test]
    fn spreads_across_buckets() {
        let s = BucketedHashSet::with_buckets(8);
        for i in 0..1_000u64 {
            assert!(s.insert(i));
        }
        assert_eq!(s.len(), 1_000);
        for i in 0..1_000u64 {
            assert!(s.contains(&i));
        }
    }

    #[test]
    fn concurrent_inserts_disjoint() {
        let s = Arc::new(BucketedHashSet::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        assert!(s.insert(t * 1_000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 4_000);
    }
}
