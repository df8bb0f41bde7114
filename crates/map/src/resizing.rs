use cds_atomic::{AtomicUsize, Ordering};
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};

use cds_core::stress::{armed, Fault};
use cds_core::ConcurrentMap;
use cds_reclaim::epoch::{Atomic, Guard, Owned, Shared};
use cds_reclaim::{Ebr, ReclaimGuard, Reclaimer};
use cds_sync::Backoff;
use parking_lot::Mutex;

/// Default shard count (power of two).
const SHARDS: usize = 8;
/// Default buckets per shard at construction (power of two).
const INITIAL_BUCKETS: usize = 8;
/// A shard resizes when `entries > MAX_LOAD_FACTOR * buckets` — the same
/// threshold the fixed-capacity [`StripedHashMap`](crate::StripedHashMap)
/// uses, so E11 compares like against like.
const MAX_LOAD_FACTOR: usize = 4;
/// How many extra buckets an operation that observes an in-flight
/// migration claims and moves on behalf of the resize, beyond the one
/// bucket its own key needs. Small so no single operation stalls; nonzero
/// so the migration finishes even if the triggering thread dies.
const HELP_BATCH: usize = 2;

/// One bucket: a small open-addressing-free chain of entries plus the
/// migration flag that makes bucket moves idempotent.
struct Bucket<K, V> {
    entries: Vec<(K, V)>,
    /// Set (under this bucket's lock) once the entries have been moved to
    /// the successor table. Every operation re-checks this after locking
    /// any bucket and restarts if set — that re-check is the linchpin of
    /// the migration protocol (see the type-level docs).
    migrated: bool,
}

impl<K, V> Bucket<K, V> {
    fn new() -> Self {
        Bucket {
            entries: Vec::new(),
            migrated: false,
        }
    }
}

/// One generation of a shard's bucket array. Tables form a chain through
/// `next`; at most two links are ever live per shard (see
/// [`ResizingMap`] docs for why the chain cannot grow past the successor
/// before the predecessor is fully migrated).
struct Table<K, V> {
    buckets: Box<[Mutex<Bucket<K, V>>]>,
    /// Successor table (twice the buckets), installed by whichever thread
    /// first observes the shard over its load factor. Null while no
    /// resize is in flight.
    next: Atomic<Table<K, V>>,
    /// Next bucket index for cooperative helpers to claim. May overshoot
    /// `buckets.len()`; claims past the end are no-ops.
    claim: AtomicUsize,
    /// Buckets whose `migrated` flag has transitioned; the thread that
    /// moves the *last* bucket promotes `next` and retires this table.
    done: AtomicUsize,
}

impl<K, V> Table<K, V> {
    fn new(buckets: usize) -> Self {
        Table {
            buckets: (0..buckets).map(|_| Mutex::new(Bucket::new())).collect(),
            next: Atomic::null(),
            claim: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
        }
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }
}

struct Shard<K, V> {
    current: Atomic<Table<K, V>>,
    /// Entries in this shard (updated under bucket locks). Drives the
    /// load-factor trigger; `shard_lens` exposes it for balance tests.
    size: AtomicUsize,
}

/// A sharded hash map that grows by **cooperative incremental migration**:
/// no operation ever stops the world, and any thread that touches a shard
/// mid-resize helps finish the resize.
///
/// # Structure
///
/// Keys hash to one of `shards` independent shards (high hash bits); each
/// shard owns a power-of-two [`Table`] of mutex-guarded buckets (low hash
/// bits). When an insert observes the shard over [`MAX_LOAD_FACTOR`], it
/// allocates a table of twice as many buckets and CASes it into the
/// current table's `next` pointer. Nothing is copied at that point.
///
/// # Migration protocol
///
/// Buckets migrate **on access**. An operation that finds `next` non-null
/// first moves its own key's source bucket (old bucket `i` splits into new
/// buckets `i` and `i + m`, holding the old-bucket lock for the whole
/// move, then the two new-bucket locks in index order — old-table locks
/// are always taken before new-table locks, so the protocol is
/// deadlock-free), then claims up to [`HELP_BATCH`] more buckets from a
/// shared `claim` counter, then operates on the new table. The move is
/// idempotent: a `migrated` flag, written only under the bucket's lock,
/// makes the first mover win and every later mover a no-op.
///
/// Because **every** operation re-checks `migrated` after locking **any**
/// bucket (and restarts from the shard root if set), an operation that
/// raced the resize and locked a stale bucket can never read or write
/// entries that have already moved — that re-check is what makes lookups
/// and removes linearizable across the resize boundary.
///
/// The thread whose move transitions the *last* unmigrated bucket CASes
/// the shard's `current` pointer to the successor and **retires the old
/// table through the reclamation guard** ([`ReclaimGuard::retire`]): the
/// old array is unreachable to any operation that starts afterwards
/// (operations start from `current`), which is exactly the retire
/// contract, so the map runs unmodified under [`Ebr`], [`Hazard`]
/// (blanket-era mode), [`Leak`], and `DebugReclaim`. A second resize of
/// the same shard cannot begin until the first promotes (the trigger only
/// fires on the table an operation actually inserted into, and operations
/// insert into the successor while a migration is in flight — the
/// successor only becomes triggerable once it is `current`), so entries
/// can never be stranded in a half-dead intermediate table.
///
/// `len` is O(1) and linearizable: a single map-wide counter updated
/// while the mutating operation still holds its bucket lock, so the
/// counter transition happens inside the operation's critical section.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentMap;
/// use cds_map::ResizingMap;
///
/// let m = ResizingMap::new();
/// for i in 0..10_000u64 {
///     m.insert(i, i * 2);
/// }
/// assert_eq!(m.get(&4321), Some(8642));
/// assert_eq!(m.len(), 10_000);
/// assert!(m.doublings() >= 3); // grew without ever pausing
/// ```
pub struct ResizingMap<K, V, S = RandomState, R: Reclaimer = Ebr> {
    shards: Box<[Shard<K, V>]>,
    /// Map-wide entry count, updated under bucket locks (linearizable).
    len: AtomicUsize,
    /// Completed table promotions across all shards (diagnostics / E11).
    doublings: AtomicUsize,
    hasher: S,
    _reclaimer: std::marker::PhantomData<R>,
}

// SAFETY: entries are owned by mutex-guarded buckets; tables are
// reclaimer-managed. K/V cross threads by value and by `&` (get clones).
unsafe impl<K: Send + Sync, V: Send + Sync, S: Send, R: Reclaimer> Send
    for ResizingMap<K, V, S, R>
{
}
unsafe impl<K: Send + Sync, V: Send + Sync, S: Sync, R: Reclaimer> Sync
    for ResizingMap<K, V, S, R>
{
}

impl<K: Hash + Eq, V> ResizingMap<K, V, RandomState> {
    /// Creates an empty map with the default hasher on the default
    /// ([`Ebr`]) backend.
    pub fn new() -> Self {
        Self::with_hasher(RandomState::new())
    }
}

impl<K: Hash + Eq, V> Default for ResizingMap<K, V, RandomState> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V, R: Reclaimer> ResizingMap<K, V, RandomState, R> {
    /// Creates an empty map with the default hasher on the reclamation
    /// backend `R`.
    pub fn with_reclaimer() -> Self {
        Self::with_hasher(RandomState::new())
    }

    /// Creates an empty map with explicit geometry: `shards` shards of
    /// `buckets` buckets each (both rounded up to powers of two).
    ///
    /// Tests use tiny geometries (one shard, one bucket) so a handful of
    /// inserts forces a resize inside a bounded lincheck window.
    pub fn with_config(shards: usize, buckets: usize) -> Self {
        Self::with_config_and_hasher(shards, buckets, RandomState::new())
    }
}

impl<K: Hash + Eq, V, S: BuildHasher, R: Reclaimer> ResizingMap<K, V, S, R> {
    /// Creates an empty map with the given hasher and default geometry.
    pub fn with_hasher(hasher: S) -> Self {
        Self::with_config_and_hasher(SHARDS, INITIAL_BUCKETS, hasher)
    }

    /// [`with_config`](Self::with_config) plus an explicit hasher (a fixed
    /// hasher makes shard-balance properties deterministic).
    pub fn with_config_and_hasher(shards: usize, buckets: usize, hasher: S) -> Self {
        let shards = shards.next_power_of_two().max(1);
        let buckets = buckets.next_power_of_two().max(1);
        ResizingMap {
            shards: (0..shards)
                .map(|_| Shard {
                    current: Atomic::new(Table::new(buckets)),
                    size: AtomicUsize::new(0),
                })
                .collect(),
            len: AtomicUsize::new(0),
            doublings: AtomicUsize::new(0),
            hasher,
            _reclaimer: std::marker::PhantomData,
        }
    }

    fn hash(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Shard index from the high hash bits (bucket indices use the low
    /// bits, so shard and bucket choice stay uncorrelated).
    fn shard(&self, hash: u64) -> &Shard<K, V> {
        let idx = (hash >> 48) as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// Number of table promotions (completed doublings) so far.
    pub fn doublings(&self) -> usize {
        self.doublings.load(Ordering::Relaxed)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard entry counts (quiescently consistent; exact at
    /// quiescence). `len()` equals their sum whenever no operation is in
    /// flight — the shard-balance property tests assert exactly that.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.size.load(Ordering::Relaxed))
            .collect()
    }

    /// Total buckets across all shards' *deepest* tables (the capacity
    /// the map is growing into while a migration is in flight).
    pub fn capacity(&self) -> usize {
        let guard = R::enter_blanket();
        self.shards
            .iter()
            .map(|s| {
                // SAFETY: `current` is never null and the blanket guard
                // keeps both chain links alive.
                let table = unsafe { s.current.load(Ordering::Acquire, &guard).deref() };
                let next = table.next.load(Ordering::Acquire, &guard);
                match unsafe { next.as_ref() } {
                    Some(n) => n.buckets.len(),
                    None => table.buckets.len(),
                }
            })
            .sum()
    }

    /// Moves old bucket `idx` of `old` into `new` (old bucket `i` splits
    /// into new buckets `i` and `i + m`). Idempotent: returns `false`
    /// without effect if the bucket already migrated, `true` if this call
    /// performed the move. The thread that moves the last bucket promotes
    /// `new` to the shard's current table and retires `old` through
    /// `guard`.
    fn migrate_bucket(
        &self,
        shard: &Shard<K, V>,
        old_ptr: Shared<'_, Table<K, V>>,
        new_ptr: Shared<'_, Table<K, V>>,
        idx: usize,
        guard: &R::Guard,
    ) -> bool {
        // SAFETY: both tables are protected by the caller's blanket guard.
        let old = unsafe { old_ptr.deref() };
        let new = unsafe { new_ptr.deref() };
        let m = old.buckets.len();
        debug_assert_eq!(new.buckets.len(), 2 * m);

        cds_core::stress::yield_point();
        let mut src = old.buckets[idx].lock();
        if src.migrated {
            return false;
        }
        cds_core::stress::yield_point();

        // Split the source run by the new table's extra hash bit. Holding
        // the source lock for the whole move means no operation can
        // observe the entries "in neither table": any operation for these
        // keys must pass through this same source bucket first.
        let mut low: Vec<(K, V)> = Vec::new();
        let mut high: Vec<(K, V)> = Vec::new();
        for (k, v) in src.entries.drain(..) {
            let h = self.hash(&k) as usize;
            debug_assert_eq!(h & (m - 1), idx);
            if h & new.mask() == idx {
                low.push((k, v));
            } else {
                high.push((k, v));
            }
        }
        if armed(Fault::MigrationGap) {
            // Planted regression: mark the source
            // migrated and release it before the destinations are filled.
            // A lookup that lands in the gap restarts into the new table
            // and finds the entries in neither place.
            src.migrated = true;
            drop(src);
            cds_core::stress::yield_point();
            {
                let mut dst = new.buckets[idx].lock();
                dst.entries.extend(low);
            }
            cds_core::stress::yield_point();
            {
                let mut dst = new.buckets[idx + m].lock();
                dst.entries.extend(high);
            }
        } else {
            // New-table locks after the old-table lock, in index order.
            {
                let mut dst = new.buckets[idx].lock();
                debug_assert!(!dst.migrated);
                dst.entries.extend(low);
            }
            cds_core::stress::yield_point();
            {
                let mut dst = new.buckets[idx + m].lock();
                debug_assert!(!dst.migrated);
                dst.entries.extend(high);
            }
            src.migrated = true;
            drop(src);
        }
        cds_obs::count(cds_obs::Event::ResizeBucketsMoved);

        // Count the transition exactly once (we own the false→true edge).
        if old.done.fetch_add(1, Ordering::AcqRel) + 1 == m {
            cds_core::stress::yield_point();
            // Every bucket has moved: promote the successor. Operations
            // that start after this CAS can no longer reach `old`, which
            // is precisely the retire contract.
            let promoted = shard
                .current
                .compare_exchange(old_ptr, new_ptr, Ordering::AcqRel, Ordering::Acquire, guard)
                .is_ok();
            cds_obs::cas_outcome(promoted);
            if promoted {
                cds_obs::count(cds_obs::Event::ResizePromoterWins);
                self.doublings.fetch_add(1, Ordering::Relaxed);
                // SAFETY: non-null, allocated via Atomic/Owned, severed
                // from `current` by the CAS above, retired once (only the
                // unique promoter reaches this line).
                unsafe { guard.retire(old_ptr) };
            }
        }
        true
    }

    /// Claims and moves up to [`HELP_BATCH`] buckets of the in-flight
    /// migration, so resizes complete even if the triggering thread stalls
    /// and no single operation bears the whole cost.
    fn help_migrate(
        &self,
        shard: &Shard<K, V>,
        old_ptr: Shared<'_, Table<K, V>>,
        new_ptr: Shared<'_, Table<K, V>>,
        guard: &R::Guard,
    ) {
        // SAFETY: protected by the caller's blanket guard.
        let old = unsafe { old_ptr.deref() };
        let m = old.buckets.len();
        let mut claimed = false;
        let mut moved = 0u64;
        for _ in 0..HELP_BATCH {
            if old.claim.load(Ordering::Relaxed) >= m {
                break;
            }
            let idx = old.claim.fetch_add(1, Ordering::Relaxed);
            if idx >= m {
                break;
            }
            claimed = true;
            if self.migrate_bucket(shard, old_ptr, new_ptr, idx, guard) {
                moved += 1;
            }
        }
        if claimed {
            cds_obs::count(cds_obs::Event::ResizeBatchesHelped);
            cds_obs::add(cds_obs::Event::ResizeBatchOps, moved);
        }
    }

    /// Installs a successor table of twice the buckets if `table` has none
    /// yet. Called only on tables reached as `shard.current` with no
    /// successor, so at most one resize per shard is ever in flight.
    fn install_next<'g>(
        &self,
        table_ptr: Shared<'g, Table<K, V>>,
        guard: &'g R::Guard,
    ) -> Shared<'g, Table<K, V>> {
        // SAFETY: protected by the caller's blanket guard.
        let table = unsafe { table_ptr.deref() };
        let fresh = Owned::new(Table::new(table.buckets.len() * 2)).into_shared(guard);
        cds_core::stress::yield_point();
        match table.next.compare_exchange(
            Shared::null(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        ) {
            Ok(_) => {
                cds_obs::cas_outcome(true);
                fresh
            }
            Err(existing) => {
                cds_obs::cas_outcome(false);
                // Another thread won the install; free our candidate —
                // it was never published.
                // SAFETY: `fresh` lost the CAS and is ours alone.
                drop(unsafe { fresh.into_owned() });
                existing
            }
        }
    }

    /// Runs `f` on the bucket that currently owns `hash`, after helping
    /// any in-flight migration of that bucket's shard. `f` gets the locked
    /// bucket, the shard (for size accounting), and whether the map-wide
    /// trigger may install a resize from this bucket (true only when the
    /// bucket belongs to the shard's root table — see the protocol docs).
    fn with_bucket<T>(
        &self,
        hash: u64,
        mut f: impl FnMut(&mut Bucket<K, V>, &Shard<K, V>) -> (T, bool),
    ) -> T {
        let shard = self.shard(hash);
        let guard = R::enter_blanket();
        let backoff = Backoff::new();
        loop {
            cds_core::stress::yield_point();
            let table_ptr = shard.current.load(Ordering::Acquire, &guard);
            // SAFETY: `current` is never null; the blanket guard keeps the
            // table alive even if it is concurrently promoted away.
            let table = unsafe { table_ptr.deref() };
            let next_ptr = table.next.load(Ordering::Acquire, &guard);

            let (target, target_ptr) = if next_ptr.is_null() {
                (table, table_ptr)
            } else {
                // A migration is in flight: move our own source bucket
                // first (idempotent), help a bounded batch, then operate
                // on the successor.
                let idx = hash as usize & table.mask();
                if self.migrate_bucket(shard, table_ptr, next_ptr, idx, &guard) {
                    // Own-bucket moves count toward batch ops so that
                    // buckets-moved == Σ batch sizes holds exactly.
                    cds_obs::add(cds_obs::Event::ResizeBatchOps, 1);
                }
                self.help_migrate(shard, table_ptr, next_ptr, &guard);
                // SAFETY: protected by the blanket guard.
                (unsafe { next_ptr.deref() }, next_ptr)
            };

            let idx = hash as usize & target.mask();
            let mut bucket = target.buckets[idx].lock();
            cds_core::stress::yield_point();
            if bucket.migrated {
                // We locked a stale generation (its entries already moved
                // on): restart from the shard root.
                drop(bucket);
                backoff.spin();
                continue;
            }
            let (out, wants_resize) = f(&mut bucket, shard);
            drop(bucket);

            // The trigger only fires for the shard's root table (a
            // successor becomes triggerable once promoted): this caps the
            // chain at two tables and rules out stranded entries.
            if wants_resize
                && next_ptr.is_null()
                && target.next.load(Ordering::Acquire, &guard).is_null()
                && shard.size.load(Ordering::Relaxed) > MAX_LOAD_FACTOR * target.buckets.len()
            {
                self.install_next(target_ptr, &guard);
            }
            return out;
        }
    }
}

impl<K, V, S, R> ConcurrentMap<K, V> for ResizingMap<K, V, S, R>
where
    K: Hash + Eq + Send + Sync,
    V: Clone + Send + Sync,
    S: BuildHasher + Send + Sync,
    R: Reclaimer,
{
    const NAME: &'static str = "resizing";

    fn insert(&self, key: K, value: V) -> bool {
        let hash = self.hash(&key);
        let mut slot = Some((key, value));
        self.with_bucket(hash, |bucket, shard| {
            let (key, value) = slot.take().expect("closure runs once per loop pass");
            if bucket.entries.iter().any(|(k, _)| *k == key) {
                slot = Some((key, value));
                (false, false)
            } else {
                bucket.entries.push((key, value));
                // Both counters move inside the bucket's critical section:
                // the map-wide `len` transition is the linearization point.
                shard.size.fetch_add(1, Ordering::Relaxed);
                self.len.fetch_add(1, Ordering::Relaxed);
                (true, true)
            }
        })
    }

    fn remove(&self, key: &K) -> bool {
        let hash = self.hash(key);
        self.with_bucket(hash, |bucket, shard| {
            match bucket.entries.iter().position(|(k, _)| k == key) {
                Some(i) => {
                    bucket.entries.swap_remove(i);
                    shard.size.fetch_sub(1, Ordering::Relaxed);
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    (true, false)
                }
                None => (false, false),
            }
        })
    }

    fn get(&self, key: &K) -> Option<V> {
        let hash = self.hash(key);
        self.with_bucket(hash, |bucket, _| {
            (
                bucket
                    .entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone()),
                false,
            )
        })
    }

    fn contains_key(&self, key: &K) -> bool {
        let hash = self.hash(key);
        self.with_bucket(hash, |bucket, _| {
            (bucket.entries.iter().any(|(k, _)| k == key), false)
        })
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

impl<K, V, S, R> ResizingMap<K, V, S, R>
where
    K: Hash + Eq + Clone,
    S: BuildHasher,
    R: Reclaimer,
{
    /// Collects every key currently in the map. **Quiescent diagnostic**:
    /// exact only while no operation is in flight (property tests call it
    /// after joining all workers to check no key was lost or duplicated
    /// across a resize).
    pub fn snapshot_keys(&self) -> Vec<K> {
        let guard = R::enter_blanket();
        let mut keys = Vec::new();
        for shard in self.shards.iter() {
            // SAFETY: `current` is never null; the guard protects the
            // whole chain.
            let table = unsafe { shard.current.load(Ordering::Acquire, &guard).deref() };
            let next = table.next.load(Ordering::Acquire, &guard);
            for bucket in table.buckets.iter() {
                let b = bucket.lock();
                if !b.migrated {
                    keys.extend(b.entries.iter().map(|(k, _)| k.clone()));
                }
            }
            // SAFETY: guard-protected.
            if let Some(next) = unsafe { next.as_ref() } {
                for bucket in next.buckets.iter() {
                    let b = bucket.lock();
                    keys.extend(b.entries.iter().map(|(k, _)| k.clone()));
                }
            }
        }
        keys
    }
}

impl<K, V, S, R: Reclaimer> Drop for ResizingMap<K, V, S, R> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` gives unique access; the unprotected guard
        // only performs plain loads here.
        let guard = unsafe { Guard::unprotected() };
        for shard in self.shards.iter() {
            let mut ptr = shard.current.load(Ordering::Relaxed, &guard);
            while !ptr.is_null() {
                // SAFETY: unique access; each chain link is freed once.
                let owned = unsafe { ptr.into_owned() };
                ptr = owned.next.load(Ordering::Relaxed, &guard);
                drop(owned);
            }
        }
    }
}

impl<K, V, S, R: Reclaimer> fmt::Debug for ResizingMap<K, V, S, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResizingMap")
            .field("len", &self.len.load(Ordering::Relaxed))
            .field("shards", &self.shards.len())
            .field("doublings", &self.doublings.load(Ordering::Relaxed))
            .field("reclaimer", &R::NAME)
            .finish()
    }
}

impl<K, V> FromIterator<(K, V)> for ResizingMap<K, V, RandomState>
where
    K: Hash + Eq + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Collects key/value pairs; on duplicate keys the **first** wins
    /// (insert-if-absent semantics).
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let map = ResizingMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_reclaim::{DebugReclaim, Hazard, Leak};

    #[test]
    fn grows_through_many_doublings() {
        let m: ResizingMap<u64, u64> = ResizingMap::with_config(1, 1);
        for i in 0..1024 {
            assert!(m.insert(i, i + 1));
        }
        assert_eq!(m.len(), 1024);
        for i in 0..1024 {
            assert_eq!(m.get(&i), Some(i + 1), "key {i} after resize");
        }
        assert!(
            m.doublings() >= 3,
            "expected ≥3 doublings, got {}",
            m.doublings()
        );
    }

    #[test]
    fn remove_across_resize_boundary() {
        let m: ResizingMap<u64, u64> = ResizingMap::with_config(1, 2);
        for i in 0..256 {
            m.insert(i, i);
        }
        for i in (0..256).step_by(2) {
            assert!(m.remove(&i));
            assert!(!m.remove(&i), "double remove of {i}");
        }
        assert_eq!(m.len(), 128);
        for i in 0..256 {
            assert_eq!(m.contains_key(&i), i % 2 == 1);
        }
    }

    #[test]
    fn len_matches_shard_sum_at_quiescence() {
        let m: ResizingMap<u64, u64> = ResizingMap::with_config(4, 2);
        for i in 0..500 {
            m.insert(i, i);
        }
        for i in 0..100 {
            m.remove(&i);
        }
        assert_eq!(m.len(), m.shard_lens().iter().sum::<usize>());
        let mut keys = m.snapshot_keys();
        keys.sort_unstable();
        assert_eq!(keys, (100..500).collect::<Vec<_>>());
    }

    #[test]
    fn runs_under_every_backend() {
        fn one<R: Reclaimer>() {
            let m: ResizingMap<u64, u64, RandomState, R> = ResizingMap::with_reclaimer();
            for i in 0..300 {
                assert!(m.insert(i, i));
            }
            for i in 0..300 {
                assert_eq!(m.get(&i), Some(i), "backend {}", R::NAME);
            }
            R::collect();
        }
        one::<Ebr>();
        one::<Hazard>();
        one::<Leak>();
        one::<DebugReclaim>();
    }

    #[test]
    fn capacity_reflects_deepest_table() {
        let m: ResizingMap<u64, u64> = ResizingMap::with_config(1, 1);
        assert_eq!(m.capacity(), 1);
        for i in 0..64 {
            m.insert(i, i);
        }
        assert!(m.capacity() >= 8);
    }
}
