use cds_atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};

use cds_core::ConcurrentMap;
use cds_list::hm;
use cds_reclaim::epoch::{Atomic, Guard, Owned, Shared};
use cds_reclaim::{Ebr, ReclaimGuard, Reclaimer};

/// The bucket directory is a fixed array of lazily-allocated segments, so
/// growing the table never relocates existing bucket pointers.
const SEGMENT_BITS: usize = 10;
const SEGMENT_SIZE: usize = 1 << SEGMENT_BITS;
const MAX_SEGMENTS: usize = 1 << 10; // up to 2^20 buckets
const MAX_LOAD_FACTOR: usize = 4;

/// Regular nodes carry a key/value pair; dummy nodes (one per bucket) have
/// `kv == None`.
struct Node<K, V> {
    /// Split-order key: bit-reversed hash, odd for regular nodes, even for
    /// dummies — see [`regular_key`]/[`dummy_key`].
    so_key: u64,
    kv: Option<(K, V)>,
    next: Atomic<Node<K, V>>,
}

impl<K, V> hm::Node for Node<K, V> {
    fn next(&self) -> &Atomic<Self> {
        &self.next
    }
}

impl<K: Eq, V> Node<K, V> {
    /// `None` for a bucket's dummy.
    fn key(&self) -> Option<&K> {
        self.kv.as_ref().map(|(k, _)| k)
    }

    /// The `hm` comparator: where this node stands relative to the node
    /// `(so_key, key)`. A node with the same `so_key` but a different key
    /// (a hash collision) or of the other kind answers `Less`, so a
    /// search walks through the whole equal-`so_key` run before giving up.
    fn position(&self, so_key: u64, key: Option<&K>) -> CmpOrdering {
        match self.so_key.cmp(&so_key) {
            CmpOrdering::Equal if self.key() != key => CmpOrdering::Less,
            order => order,
        }
    }
}

/// Bit-reverse a hash and set the dropped top bit so regular keys are odd.
fn regular_key(hash: u64) -> u64 {
    (hash | 0x8000_0000_0000_0000).reverse_bits()
}

/// Bit-reverse a bucket index; dummy keys are even (top bit not set).
fn dummy_key(bucket: u64) -> u64 {
    bucket.reverse_bits()
}

/// Shalev & Shavit's **split-ordered list** hash map (JACM 2006) — a
/// lock-free hash table that grows without moving a single item.
///
/// The construction inverts the usual design: instead of a table of
/// independent chains, *all* items live in **one** lock-free sorted list
/// (the Harris–Michael protocol of [`cds_list::hm`], run here with a
/// comparator for hash-ordered, possibly-colliding keys). The list is
/// ordered by **bit-reversed hash**: in this order, the items of bucket
/// `b` under a table of size `2^k` form one contiguous run, and doubling
/// the table merely *splits* each run in two. The "table" is a directory
/// of shortcut pointers to per-bucket **dummy nodes**; a new bucket is
/// initialized lazily by inserting its dummy after its *parent* bucket
/// (the index with the top bit cleared), recursively.
///
/// All operations are lock-free; `len` is O(1) (a shared counter,
/// quiescently consistent, never above the true size by more than the
/// removes in flight or below it by more than the inserts in flight).
/// The map is generic over its reclamation backend `R`
/// ([`cds_reclaim::Reclaimer`], default [`Ebr`]) and uses the **blanket**
/// protection mode ([`Reclaimer::enter_blanket`]) that `hm` requires.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentMap;
/// use cds_map::SplitOrderedHashMap;
///
/// let m = SplitOrderedHashMap::new();
/// for i in 0..1000u64 {
///     m.insert(i, i + 1);
/// }
/// assert_eq!(m.get(&500), Some(501));
/// assert_eq!(m.len(), 1000);
/// ```
pub struct SplitOrderedHashMap<K, V, S = RandomState, R: Reclaimer = Ebr> {
    /// Directory of segments of bucket pointers; segment allocated on first
    /// touch.
    segments: Box<[Atomic<Segment<K, V>>]>,
    /// Current number of logical buckets (a power of two).
    bucket_count: AtomicUsize,
    /// Inserts counted minus removes counted. An insert counts *after*
    /// it links, so a remove of the fresh node can count first and take
    /// this transiently below zero — hence signed, and clamped by `len`.
    size: AtomicIsize,
    hasher: S,
    _reclaimer: std::marker::PhantomData<R>,
}

struct Segment<K, V> {
    buckets: Box<[Atomic<Node<K, V>>]>,
}

// SAFETY: nodes are reclaimer-managed; keys/values cross threads by value
// and by `&` (get clones), hence Send + Sync on both.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Send, R: Reclaimer> Send
    for SplitOrderedHashMap<K, V, S, R>
{
}
unsafe impl<K: Send + Sync, V: Send + Sync, S: Sync, R: Reclaimer> Sync
    for SplitOrderedHashMap<K, V, S, R>
{
}

impl<K: Hash + Eq, V> SplitOrderedHashMap<K, V, RandomState> {
    /// Creates an empty map with the default hasher on the default
    /// ([`Ebr`]) backend.
    pub fn new() -> Self {
        Self::with_hasher(RandomState::new())
    }
}

impl<K: Hash + Eq, V, R: Reclaimer> SplitOrderedHashMap<K, V, RandomState, R> {
    /// Creates an empty map with the default hasher on the reclamation
    /// backend `R`.
    pub fn with_reclaimer() -> Self {
        Self::with_hasher(RandomState::new())
    }
}

impl<K: Hash + Eq, V> Default for SplitOrderedHashMap<K, V, RandomState> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V, S: BuildHasher, R: Reclaimer> SplitOrderedHashMap<K, V, S, R> {
    /// Creates an empty map with a caller-supplied hasher.
    pub fn with_hasher(hasher: S) -> Self {
        let map = SplitOrderedHashMap {
            segments: (0..MAX_SEGMENTS).map(|_| Atomic::null()).collect(),
            bucket_count: AtomicUsize::new(2),
            size: AtomicIsize::new(0),
            hasher,
            _reclaimer: std::marker::PhantomData,
        };
        // Eagerly initialize bucket 0 with the list head dummy.
        // SAFETY: not shared yet.
        let guard = unsafe { Guard::unprotected() };
        let head = Owned::new(Node {
            so_key: dummy_key(0),
            kv: None,
            next: Atomic::null(),
        })
        .into_shared(&guard);
        map.bucket_slot(0, &guard).store(head, Ordering::Relaxed);
        map
    }

    fn hash(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Returns the directory slot for `bucket`, allocating its segment if
    /// needed.
    fn bucket_slot<'g, G: ReclaimGuard>(
        &'g self,
        bucket: usize,
        guard: &'g G,
    ) -> &'g Atomic<Node<K, V>> {
        let seg_idx = bucket >> SEGMENT_BITS;
        let seg = self.segments[seg_idx].load(Ordering::Acquire, guard);
        let seg = if seg.is_null() {
            let fresh = Owned::new(Segment {
                buckets: (0..SEGMENT_SIZE).map(|_| Atomic::null()).collect(),
            })
            .into_shared(guard);
            match self.segments[seg_idx].compare_exchange(
                Shared::null(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(_) => fresh,
                Err(actual) => {
                    // SAFETY: our segment lost the race and was never shared.
                    unsafe { drop(fresh.into_owned()) };
                    actual
                }
            }
        } else {
            seg
        };
        // SAFETY: segments are never freed while the map lives.
        &unsafe { seg.deref() }.buckets[bucket & (SEGMENT_SIZE - 1)]
    }

    /// Ensures `bucket` has its dummy node, inserting it (and its
    /// ancestors') lazily. Returns the bucket's dummy node.
    fn initialize_bucket<'g, G: ReclaimGuard>(
        &'g self,
        bucket: usize,
        guard: &'g G,
    ) -> Shared<'g, Node<K, V>> {
        let slot = self.bucket_slot(bucket, guard);
        let existing = slot.load(Ordering::Acquire, guard);
        if !existing.is_null() {
            return existing;
        }
        // Parent: clear the highest set bit (bucket 0 is pre-initialized).
        debug_assert!(bucket != 0, "bucket 0 must be pre-initialized");
        let parent = bucket & !(1 << (usize::BITS - 1 - bucket.leading_zeros()));
        let parent_dummy = self.initialize_bucket(parent, guard);

        // Insert this bucket's dummy into the list, starting at the parent;
        // if another thread got there first, ours dies unpublished.
        let key = dummy_key(bucket as u64);
        let dummy = Owned::new(Node {
            so_key: key,
            kv: None,
            next: Atomic::null(),
        });
        // SAFETY: `R`'s blanket guard, as on every call on this chain;
        // dummies are never removed, so the parent is alive.
        let (Ok(dummy_shared) | Err(dummy_shared)) = unsafe {
            let start = &parent_dummy.deref().next;
            hm::insert(start, dummy, |c, _| c.position(key, None), guard)
        };
        // Publish the shortcut (racers may publish the same node — benign).
        let _ = slot.compare_exchange(
            Shared::null(),
            dummy_shared,
            Ordering::AcqRel,
            Ordering::Relaxed,
            guard,
        );
        slot.load(Ordering::Acquire, guard)
    }

    /// The link out of the dummy node that starts `hash`'s bucket run —
    /// the `hm` chain head for every operation on a key with that hash.
    fn run_of<'g, G: ReclaimGuard>(&'g self, hash: u64, guard: &'g G) -> &'g Atomic<Node<K, V>> {
        let bucket = (hash as usize) & (self.bucket_count.load(Ordering::Acquire) - 1);
        // SAFETY: dummies are never removed, so the bucket's is alive.
        &unsafe { self.initialize_bucket(bucket, guard).deref() }.next
    }

    /// Current number of logical buckets (diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.bucket_count.load(Ordering::Relaxed)
    }
}

impl<K, V, S, R> ConcurrentMap<K, V> for SplitOrderedHashMap<K, V, S, R>
where
    K: Hash + Eq + Send + Sync,
    V: Clone + Send + Sync,
    S: BuildHasher + Send + Sync,
    R: Reclaimer,
{
    const NAME: &'static str = "split-ordered";

    fn insert(&self, key: K, value: V) -> bool {
        let guard = R::enter_blanket();
        let hash = self.hash(&key);
        let node = Owned::new(Node {
            so_key: regular_key(hash),
            kv: Some((key, value)),
            next: Atomic::null(),
        });
        let by_key = |c: &Node<K, V>, n: &Node<K, V>| c.position(n.so_key, n.key());
        // SAFETY: every call on this chain passes `R`'s blanket guard.
        if unsafe { hm::insert(self.run_of(hash, &guard), node, by_key, &guard) }.is_err() {
            return false;
        }
        // The node is live but not yet counted: a remove of it may count
        // first (see `size`).
        cds_core::stress::yield_point();
        let size = self.size.fetch_add(1, Ordering::Relaxed) + 1;
        // Grow: double the bucket count when the load factor is exceeded.
        let buckets = self.bucket_count.load(Ordering::Relaxed);
        if size > (buckets * MAX_LOAD_FACTOR) as isize && buckets < MAX_SEGMENTS * SEGMENT_SIZE {
            let _ = self.bucket_count.compare_exchange(
                buckets,
                buckets * 2,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
        true
    }

    fn remove(&self, key: &K) -> bool {
        let guard = R::enter_blanket();
        let hash = self.hash(key);
        let so_key = regular_key(hash);
        let by_key = |c: &Node<K, V>| c.position(so_key, Some(key));
        // SAFETY: every call on this chain passes `R`'s blanket guard.
        let removed = unsafe { hm::remove(self.run_of(hash, &guard), by_key, &guard) };
        if removed {
            self.size.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    fn get(&self, key: &K) -> Option<V> {
        let guard = R::enter_blanket();
        let hash = self.hash(key);
        let so_key = regular_key(hash);
        let by_key = |c: &Node<K, V>| c.position(so_key, Some(key));
        // SAFETY: every call on this chain passes `R`'s blanket guard.
        let (found, _, curr) = unsafe { hm::find(self.run_of(hash, &guard), by_key, &guard) };
        if !found {
            return None;
        }
        // SAFETY: protected by the guard; a match on `Some(key)` is a
        // regular node.
        let (_, value) = unsafe { curr.deref() }.kv.as_ref().expect("regular node");
        Some(value.clone())
    }

    fn len(&self) -> usize {
        self.size.load(Ordering::Relaxed).max(0) as usize
    }
}

impl<K, V, S, R: Reclaimer> Drop for SplitOrderedHashMap<K, V, S, R> {
    fn drop(&mut self) {
        // SAFETY: unique access; the unprotected guard is a pure load
        // witness on every backend. Already-retired nodes are unreachable
        // from the list head and are freed by the backend, not here.
        let guard = unsafe { Guard::unprotected() };
        // Free the whole list from the head dummy (bucket 0 of segment 0).
        let seg0 = self.segments[0].load(Ordering::Relaxed, &guard);
        if !seg0.is_null() {
            // SAFETY: unique ownership of the segment and of the chain.
            unsafe { hm::drop_chain(&seg0.deref().buckets[0]) };
        }
        // Free the segments.
        for slot in self.segments.iter() {
            let seg = slot.load(Ordering::Relaxed, &guard);
            if !seg.is_null() {
                // SAFETY: unique ownership.
                unsafe { drop(seg.into_owned()) };
            }
        }
    }
}

impl<K, V, S, R: Reclaimer> fmt::Debug for SplitOrderedHashMap<K, V, S, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SplitOrderedHashMap")
            .field("len", &self.size.load(Ordering::Relaxed).max(0))
            .field("buckets", &self.bucket_count.load(Ordering::Relaxed))
            .field("reclaimer", &R::NAME)
            .finish()
    }
}

impl<K, V> FromIterator<(K, V)> for SplitOrderedHashMap<K, V, RandomState>
where
    K: Hash + Eq + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Collects key/value pairs; on duplicate keys the **first** wins
    /// (insert-if-absent semantics).
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let map = SplitOrderedHashMap::new();
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
    use std::hash::Hasher;
    use std::sync::Arc;

    #[test]
    fn split_order_keys_have_expected_parity() {
        assert_eq!(regular_key(0) & 1, 1, "regular keys must be odd");
        assert_eq!(dummy_key(5) & 1, 0, "dummy keys must be even");
        // Split-ordering: bucket b's dummy precedes all keys hashing to b.
        assert!(dummy_key(0) < regular_key(0));
        assert!(dummy_key(1) < regular_key(1));
    }

    #[test]
    fn bucket_count_doubles_under_load() {
        let m: SplitOrderedHashMap<u64, u64> = SplitOrderedHashMap::new();
        let before = m.bucket_count();
        for i in 0..10_000 {
            m.insert(i, i);
        }
        assert!(m.bucket_count() > before);
        for i in 0..10_000 {
            assert_eq!(m.get(&i), Some(i));
        }
    }

    #[test]
    fn collision_chains_work() {
        // A constant-hash hasher forces every key into one so_key run.
        #[derive(Default, Clone)]
        struct ConstHash;
        impl Hasher for ConstHasher {
            fn finish(&self) -> u64 {
                42
            }
            fn write(&mut self, _bytes: &[u8]) {}
        }
        #[derive(Default)]
        struct ConstHasher;
        impl BuildHasher for ConstHash {
            type Hasher = ConstHasher;
            fn build_hasher(&self) -> ConstHasher {
                ConstHasher
            }
        }
        let m: SplitOrderedHashMap<u64, u64, ConstHash> =
            SplitOrderedHashMap::with_hasher(ConstHash);
        for i in 0..50 {
            assert!(m.insert(i, i * 10));
        }
        for i in 0..50 {
            assert_eq!(m.get(&i), Some(i * 10));
        }
        assert!(m.remove(&25));
        assert_eq!(m.get(&25), None);
        assert_eq!(m.len(), 49);
    }

    #[test]
    fn map_semantics_on_every_backend() {
        fn run<R: Reclaimer>() {
            let m: SplitOrderedHashMap<u64, u64, RandomState, R> =
                SplitOrderedHashMap::with_reclaimer();
            for i in 0..512 {
                assert!(m.insert(i, i * 2), "{} backend", R::NAME);
            }
            for i in (0..512).step_by(2) {
                assert!(m.remove(&i), "{} backend", R::NAME);
            }
            for i in 0..512 {
                let expect = if i % 2 == 1 { Some(i * 2) } else { None };
                assert_eq!(m.get(&i), expect, "{} backend", R::NAME);
            }
            assert_eq!(m.len(), 256);
            R::collect();
        }
        run::<Ebr>();
        run::<cds_reclaim::Hazard>();
        run::<cds_reclaim::Leak>();
        run::<cds_reclaim::DebugReclaim>();
    }

    #[test]
    fn concurrent_growth_is_consistent() {
        let m: Arc<SplitOrderedHashMap<u64, u64>> = Arc::new(SplitOrderedHashMap::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..2_500u64 {
                        assert!(m.insert(t * 10_000 + i, i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 10_000);
        for t in 0..4u64 {
            for i in 0..2_500u64 {
                assert_eq!(m.get(&(t * 10_000 + i)), Some(i));
            }
        }
    }
}
