use cds_atomic::{AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};

use cds_core::ConcurrentMap;
use cds_sync::Mutex;

/// A hash map with **lock striping** and an all-stripe resize
/// (Herlihy & Shavit ch. 13).
///
/// A fixed array of `L` locks guards a growable table of buckets. An
/// operation locks stripe `hash % L` and then works on bucket
/// `hash % table.len()`; since the table length is always a multiple of
/// `L`, every key of a bucket maps to the same stripe, so one stripe lock
/// suffices. A resize acquires *all* stripes in index order (deadlock-free)
/// and doubles the table; the number of locks never changes, so contention
/// eventually grows with core count — the measured middle ground of
/// experiment E5.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentMap;
/// use cds_map::StripedHashMap;
///
/// let m = StripedHashMap::new();
/// for i in 0..100 {
///     m.insert(i, i * i);
/// }
/// assert_eq!(m.get(&12), Some(144));
/// ```
pub struct StripedHashMap<K, V, S = RandomState> {
    locks: Box<[Mutex<()>]>,
    /// Replaced only while *all* stripes are held; read under any one
    /// stripe.
    #[allow(clippy::type_complexity)]
    table: UnsafeCell<Vec<UnsafeCell<Vec<(K, V)>>>>,
    size: AtomicUsize,
    hasher: S,
}

// SAFETY: every bucket is guarded by exactly one stripe lock (table.len()
// is a multiple of locks.len()); the table vector itself is only replaced
// under all locks.
unsafe impl<K: Send, V: Send, S: Send> Send for StripedHashMap<K, V, S> {}
unsafe impl<K: Send, V: Send, S: Sync> Sync for StripedHashMap<K, V, S> {}

const STRIPES: usize = 16;
const INITIAL_BUCKETS: usize = 16;
const MAX_LOAD_FACTOR: usize = 4;

impl<K: Hash + Eq, V> StripedHashMap<K, V, RandomState> {
    /// Creates an empty map with the default hasher.
    pub fn new() -> Self {
        Self::with_hasher(RandomState::new())
    }
}

impl<K: Hash + Eq, V> Default for StripedHashMap<K, V, RandomState> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V> StripedHashMap<K, V, RandomState> {
    /// Creates an empty map with explicit geometry: `stripes` locks over
    /// `buckets` initial buckets (both rounded up to powers of two, and
    /// `buckets` to at least `stripes` so the table length stays a
    /// multiple of the lock count across doublings).
    ///
    /// Tiny geometries let bounded stress windows reach the all-stripe
    /// resize path: with one stripe and one bucket, the fifth insert
    /// already doubles the table.
    pub fn with_config(stripes: usize, buckets: usize) -> Self {
        let stripes = stripes.next_power_of_two().max(1);
        let buckets = buckets.next_power_of_two().max(stripes);
        StripedHashMap {
            locks: (0..stripes).map(|_| Mutex::new(())).collect(),
            table: UnsafeCell::new((0..buckets).map(|_| UnsafeCell::new(Vec::new())).collect()),
            size: AtomicUsize::new(0),
            hasher: RandomState::new(),
        }
    }
}

impl<K: Hash + Eq, V, S: BuildHasher> StripedHashMap<K, V, S> {
    /// Creates an empty map with a caller-supplied hasher.
    pub fn with_hasher(hasher: S) -> Self {
        StripedHashMap {
            locks: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            table: UnsafeCell::new(
                (0..INITIAL_BUCKETS)
                    .map(|_| UnsafeCell::new(Vec::new()))
                    .collect(),
            ),
            size: AtomicUsize::new(0),
            hasher,
        }
    }

    fn hash(&self, key: &K) -> usize {
        self.hasher.hash_one(key) as usize
    }

    /// Runs `f` on the key's bucket while holding its stripe lock.
    fn with_bucket<R>(&self, hash: usize, f: impl FnOnce(&mut Vec<(K, V)>) -> R) -> R {
        let _guard = self.locks[hash % self.locks.len()].lock();
        // SAFETY: the table pointer is stable while we hold a stripe (a
        // resize needs every stripe), and the chosen bucket is guarded by
        // exactly this stripe.
        let table = unsafe { &*self.table.get() };
        let bucket = unsafe { &mut *table[hash % table.len()].get() };
        f(bucket)
    }

    /// Doubles the table if it still has `old_len` buckets.
    fn resize(&self, old_len: usize) {
        cds_atomic::stress::yield_point();
        // Acquire every stripe in index order (deadlock-free).
        let _guards: Vec<_> = self.locks.iter().map(|l| l.lock()).collect();
        // SAFETY: all stripes held — exclusive access to the table.
        let table = unsafe { &mut *self.table.get() };
        if table.len() != old_len {
            return; // someone else resized first
        }
        let new_len = old_len * 2;
        let new_table: Vec<UnsafeCell<Vec<(K, V)>>> =
            (0..new_len).map(|_| UnsafeCell::new(Vec::new())).collect();
        for bucket in table.drain(..) {
            cds_atomic::stress::yield_point();
            for (k, v) in bucket.into_inner() {
                let idx = self.hash(&k) % new_len;
                // SAFETY: new_table is local to this call.
                unsafe { &mut *new_table[idx].get() }.push((k, v));
            }
        }
        *table = new_table;
    }

    /// Current bucket count (diagnostics; racy outside locks).
    pub fn bucket_count(&self) -> usize {
        let _guard = self.locks[0].lock();
        // SAFETY: a stripe is held.
        unsafe { &*self.table.get() }.len()
    }
}

impl<K, V, S> ConcurrentMap<K, V> for StripedHashMap<K, V, S>
where
    K: Hash + Eq + Send,
    V: Clone + Send,
    S: BuildHasher + Send + Sync,
{
    const NAME: &'static str = "striped";

    fn insert(&self, key: K, value: V) -> bool {
        let hash = self.hash(&key);
        let (inserted, needs_resize) = self.with_bucket(hash, |bucket| {
            if bucket.iter().any(|(k, _)| *k == key) {
                (false, None)
            } else {
                bucket.push((key, value));
                let size = self.size.fetch_add(1, Ordering::Relaxed) + 1;
                // SAFETY: stripe held (we are inside with_bucket's closure,
                // called under the lock).
                let table_len = unsafe { &*self.table.get() }.len();
                let resize = if size > table_len * MAX_LOAD_FACTOR {
                    Some(table_len)
                } else {
                    None
                };
                (true, resize)
            }
        });
        if let Some(old_len) = needs_resize {
            self.resize(old_len);
        }
        inserted
    }

    fn remove(&self, key: &K) -> bool {
        let hash = self.hash(key);
        self.with_bucket(hash, |bucket| {
            if let Some(pos) = bucket.iter().position(|(k, _)| k == key) {
                bucket.swap_remove(pos);
                self.size.fetch_sub(1, Ordering::Relaxed);
                true
            } else {
                false
            }
        })
    }

    fn get(&self, key: &K) -> Option<V> {
        let hash = self.hash(key);
        self.with_bucket(hash, |bucket| {
            bucket
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        })
    }

    fn len(&self) -> usize {
        self.size.load(Ordering::Relaxed)
    }
}

impl<K, V, S> fmt::Debug for StripedHashMap<K, V, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StripedHashMap")
            .field("len", &self.size.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<K, V> FromIterator<(K, V)> for StripedHashMap<K, V, RandomState>
where
    K: Hash + Eq + Send,
    V: Clone + Send,
{
    /// Collects key/value pairs; on duplicate keys the **first** wins
    /// (insert-if-absent semantics).
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let map = StripedHashMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentMap;
    use std::sync::Arc;

    #[test]
    fn resize_preserves_entries() {
        let m: StripedHashMap<u64, u64> = StripedHashMap::new();
        let before = m.bucket_count();
        for i in 0..1_000 {
            assert!(m.insert(i, i));
        }
        assert!(m.bucket_count() > before, "table never grew");
        for i in 0..1_000 {
            assert_eq!(m.get(&i), Some(i));
        }
    }

    #[test]
    fn concurrent_resize_and_reads() {
        let m: Arc<StripedHashMap<u64, u64>> = Arc::new(StripedHashMap::new());
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        m.insert(t * 10_000 + i, i);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let _ = m.get(&i);
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 4_000);
    }

    #[test]
    fn swap_remove_does_not_lose_entries() {
        let m: StripedHashMap<u64, u64> = StripedHashMap::new();
        for i in 0..64 {
            m.insert(i, i);
        }
        // Remove every other key; the rest must remain reachable.
        for i in (0..64).step_by(2) {
            assert!(m.remove(&i));
        }
        for i in (1..64).step_by(2) {
            assert_eq!(m.get(&i), Some(i));
        }
        assert_eq!(m.len(), 32);
    }
}
