use cds_atomic::{AtomicUsize, Ordering};
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};
use std::iter::Chain;
use std::mem::{size_of, ManuallyDrop, MaybeUninit};
use std::{ptr, slice};

use cds_atomic::stress::{armed, Fault};
use cds_core::ConcurrentMap;
use cds_reclaim::epoch::{Atomic, Guard, Owned, Shared};
use cds_reclaim::{Ebr, ReclaimGuard, Reclaimer};
use cds_sync::Backoff;
use cds_sync::Mutex;

/// Default shard count (power of two).
const SHARDS: usize = 8;
/// Default buckets per shard at construction (power of two).
const INITIAL_BUCKETS: usize = 8;
/// A shard resizes when `entries > MAX_LOAD_FACTOR * buckets` — the same
/// threshold the fixed-capacity [`StripedHashMap`](crate::StripedHashMap)
/// uses, so E11 compares like against like.
const MAX_LOAD_FACTOR: usize = 4;
/// How many buckets an operation that observes an in-flight migration
/// claims and moves on behalf of the resize. Small so no single operation
/// stalls; nonzero so the migration finishes even if the triggering thread
/// dies.
const HELP_BATCH: usize = 2;

/// Bytes of entries a bucket holds in place: one cache line.
const INLINE_BYTES: usize = 64;

/// The inline slots' storage: one cache line, or one entry where an entry
/// is larger than that. Only ever used through a `*mut (K, V)` cast.
union Slots<K, V> {
    _line: [u64; INLINE_BYTES / 8],
    _one: ManuallyDrop<(K, V)>,
}

/// A bucket's entries, inline slots first.
type Entries<'a, K, V> = Chain<slice::Iter<'a, (K, V)>, slice::Iter<'a, (K, V)>>;

/// One bucket: the first [`INLINE`](Self::INLINE) entries live in the
/// bucket itself, the rest spill to a `Vec`, plus the migration flag that
/// makes bucket moves idempotent.
///
/// `len` counts the initialised inline slots, `0..len`; `spill` holds
/// entries only while every inline slot is full. One byte for `len` keeps
/// it beside `migrated` in one padding word: for `u64 → u64` the bucket
/// is 24 + 8 + 64 bytes, 104 with its mutex. The fields are in the order
/// an operation reads them, after the lock word: the spill header and the
/// flags, then the slots, so a hit in the first slot reads the first 56
/// bytes of the mutex.
#[repr(C)]
struct Bucket<K, V> {
    spill: Vec<(K, V)>,
    len: u8,
    /// Set (under this bucket's lock) once the entries have been moved to
    /// the successor table. Every operation re-checks this after locking
    /// any bucket and moves on if set — that re-check is the linchpin of
    /// the migration protocol (see the type-level docs).
    migrated: bool,
    inline: MaybeUninit<Slots<K, V>>,
}

impl<K, V> Bucket<K, V> {
    /// Entries one cache line holds, clamped to 1..=8: a larger entry
    /// still gets one slot, and a tiny one no more than a short scan.
    const INLINE: usize = {
        let size = size_of::<(K, V)>();
        if size == 0 || size * 8 <= INLINE_BYTES {
            8
        } else if size > INLINE_BYTES {
            1
        } else {
            INLINE_BYTES / size
        }
    };

    fn new() -> Self {
        Bucket {
            spill: Vec::new(),
            len: 0,
            migrated: false,
            inline: MaybeUninit::uninit(),
        }
    }

    fn slots(&mut self) -> *mut (K, V) {
        self.inline.as_mut_ptr().cast()
    }

    fn iter(&self) -> Entries<'_, K, V> {
        // SAFETY: slots `0..len` are initialised, and `Slots` is aligned
        // for `(K, V)` and holds `INLINE >= len` of them.
        let inline = unsafe {
            slice::from_raw_parts(self.inline.as_ptr().cast::<(K, V)>(), self.len as usize)
        };
        inline.iter().chain(&self.spill)
    }

    fn push(&mut self, entry: (K, V)) {
        let n = self.len as usize;
        if n < Self::INLINE {
            // SAFETY: slot `n` is in bounds and uninitialised.
            unsafe { self.slots().add(n).write(entry) };
            self.len += 1;
        } else {
            self.spill.push(entry);
        }
    }

    /// Removes the `i`-th entry of [`iter`](Self::iter), filling its place
    /// with the last entry: the spill's last, if any, moves inline.
    fn swap_remove(&mut self, i: usize) -> (K, V) {
        let n = self.len as usize;
        if i >= n {
            return self.spill.swap_remove(i - n);
        }
        let slots = self.slots();
        // SAFETY: slot `i < len` is initialised. It is refilled, or the
        // last inline entry moves into it and `len` drops, before return.
        unsafe {
            let out = slots.add(i).read();
            match self.spill.pop() {
                Some(last) => slots.add(i).write(last),
                None => {
                    self.len -= 1;
                    ptr::copy(slots.add(n - 1), slots.add(i), 1);
                }
            }
            out
        }
    }

    /// Moves every entry of `other` into this bucket.
    fn append(&mut self, mut other: Self) {
        if self.len == 0 {
            // Empty, as a bucket move's destination is: take `other`
            // whole, spill and all.
            other.migrated = self.migrated;
            *self = other;
            return;
        }
        while let Some(entry) = other.pop() {
            self.push(entry);
        }
    }

    /// Removes the last entry.
    fn pop(&mut self) -> Option<(K, V)> {
        if let Some(entry) = self.spill.pop() {
            return Some(entry);
        }
        let n = self.len.checked_sub(1)?;
        self.len = n;
        // SAFETY: slot `n` was initialised and is now outside `0..len`.
        Some(unsafe { self.slots().add(n as usize).read() })
    }
}

impl<K, V> Drop for Bucket<K, V> {
    fn drop(&mut self) {
        let len = self.len as usize;
        // SAFETY: slots `0..len` are initialised and dropped once here;
        // `spill` drops its own.
        unsafe { ptr::drop_in_place(ptr::slice_from_raw_parts_mut(self.slots(), len)) };
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
/// shard owns a power-of-two `Table` of mutex-guarded buckets (low hash
/// bits). When an insert observes the shard over `MAX_LOAD_FACTOR`, it
/// allocates a table of twice as many buckets and CASes it into the
/// current table's `next` pointer. Nothing is copied at that point.
///
/// # Buckets
///
/// A bucket holds its first entries in place: a cache line of inline
/// slots, a `Vec` spill used only once every slot is full, and a one-byte
/// count of filled slots beside the `migrated` flag. An operation scans
/// the memory its bucket lock sits next to, a bucket's first insert
/// allocates nothing, and a bucket move splits the source into two
/// buckets on the stack instead of two heap `Vec`s. The slot count
/// follows the entry size (64 bytes' worth, clamped to 1..=8): the
/// average chain is 2 to 4 entries at this load factor, so for `u64 →
/// u64` four slots hold most chains, while a fixed count would make large
/// entries bloat every empty bucket and small ones scan past a line. It
/// is not a setting.
///
/// The price is memory in empty buckets. For `u64 → u64` a bucket with
/// its mutex is 104 bytes; a bucket holding a `Vec` was 40 plus a heap
/// buffer once it held anything. A doubling allocates the whole successor
/// up front while the old table is still live, so the peak of a growing
/// map rises a little (DESIGN.md, "Cooperative incremental resize", has
/// the figures).
///
/// # Migration protocol
///
/// Buckets migrate **in index order**, as a batch shared out among the
/// operations that find `next` non-null. Each such operation first claims
/// the next `HELP_BATCH` buckets from the old table's `claim` counter with
/// one `fetch_add` and moves them (old bucket `i` splits into new buckets
/// `i` and `i + m`, holding the old-bucket lock for the whole move, then
/// the two new-bucket locks in index order — old-table locks are always
/// taken before new-table locks, so the protocol is deadlock-free). Then
/// it locks its own key's bucket in the old table: if that bucket has not
/// migrated it works there, and if it has, it releases it and locks the
/// successor's bucket instead. No operation moves its own bucket, so each
/// bucket moves exactly once, by the thread that claimed it, and the
/// `migrated` flag is written only under the bucket's lock.
///
/// Because **every** operation re-checks `migrated` after locking **any**
/// bucket (and restarts from the shard root if a successor's bucket has
/// moved on too), an operation that raced the resize and locked a stale
/// bucket can never read or write entries that have already moved — that
/// re-check is what makes lookups and removes linearizable across the
/// resize boundary. Before promotion, every access to a successor bucket
/// first holds its source bucket's lock and sees `migrated`, which the
/// mover sets only after the entries are in place: so the successor
/// bucket is never read before it is filled, and the source bucket is
/// never written after it is emptied.
///
/// The thread whose move transitions the *last* unmigrated bucket CASes
/// the shard's `current` pointer to the successor and **retires the old
/// table through the reclamation guard** ([`ReclaimGuard::retire`]): the
/// old array is unreachable to any operation that starts afterwards
/// (operations start from `current`), which is exactly the retire
/// contract, so the map runs unmodified under [`Ebr`], [`Hazard`](cds_reclaim::Hazard)
/// (blanket-era mode), [`Leak`](cds_reclaim::Leak), and `DebugReclaim`. A second resize of
/// the same shard cannot begin until the first promotes (the trigger only
/// fires for an insert into a root table that has no successor; the
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
    /// into new buckets `i` and `i + m`). Only the thread that claimed
    /// `idx` from `old.claim` calls this, once. The thread that moves the
    /// last bucket promotes `new` to the shard's current table and retires
    /// `old` through `guard`.
    fn migrate_bucket(
        &self,
        shard: &Shard<K, V>,
        old_ptr: Shared<'_, Table<K, V>>,
        new_ptr: Shared<'_, Table<K, V>>,
        idx: usize,
        guard: &R::Guard,
    ) {
        // SAFETY: both tables are protected by the caller's blanket guard.
        let old = unsafe { old_ptr.deref() };
        let new = unsafe { new_ptr.deref() };
        let m = old.buckets.len();
        debug_assert_eq!(new.buckets.len(), 2 * m);

        cds_atomic::stress::yield_point();
        let mut src = old.buckets[idx].lock();
        debug_assert!(!src.migrated);
        cds_atomic::stress::yield_point();

        // Split the source run by the new table's extra hash bit, into
        // two buckets on this stack. Holding the source lock for the whole
        // move means no operation can observe the entries "in neither
        // table": any operation for these keys must pass through this
        // same source bucket first.
        let mut low = Bucket::new();
        let mut high = Bucket::new();
        while let Some((k, v)) = src.pop() {
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
            // A lookup that lands in the gap follows `next` into the new
            // table and finds the entries in neither place.
            src.migrated = true;
            drop(src);
            cds_atomic::stress::yield_point();
            new.buckets[idx].lock().append(low);
            cds_atomic::stress::yield_point();
            new.buckets[idx + m].lock().append(high);
        } else {
            // New-table locks after the old-table lock, in index order.
            {
                let mut dst = new.buckets[idx].lock();
                debug_assert!(!dst.migrated);
                dst.append(low);
            }
            cds_atomic::stress::yield_point();
            {
                let mut dst = new.buckets[idx + m].lock();
                debug_assert!(!dst.migrated);
                dst.append(high);
            }
            src.migrated = true;
            drop(src);
        }
        cds_obs::count(cds_obs::Event::ResizeBucketsMoved);

        // Count the move exactly once (the claim made this call unique).
        if old.done.fetch_add(1, Ordering::AcqRel) + 1 == m {
            cds_atomic::stress::yield_point();
            // Every bucket has moved: promote the successor. Operations
            // that start after this CAS can no longer reach `old`, which
            // is precisely the retire contract.
            if shard
                .current
                .compare_exchange(old_ptr, new_ptr, Ordering::AcqRel, Ordering::Acquire, guard)
                .is_ok()
            {
                cds_obs::count(cds_obs::Event::ResizePromoterWins);
                self.doublings.fetch_add(1, Ordering::Relaxed);
                // SAFETY: non-null, allocated via Atomic/Owned, severed
                // from `current` by the CAS above, retired once (only the
                // unique promoter reaches this line).
                unsafe { guard.retire(old_ptr) };
            }
        }
    }

    /// Claims the next [`HELP_BATCH`] buckets of the in-flight migration
    /// with one `fetch_add` and moves them. Every move runs through here,
    /// so a table migrates in index order, no single operation bears the
    /// whole cost, and a resize completes even if its trigger stalls.
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
        if old.claim.load(Ordering::Relaxed) >= m {
            return;
        }
        let start = old.claim.fetch_add(HELP_BATCH, Ordering::Relaxed);
        let claimed = start..m.min(start + HELP_BATCH);
        if claimed.is_empty() {
            return;
        }
        cds_obs::count(cds_obs::Event::ResizeBatchesHelped);
        cds_obs::add(cds_obs::Event::ResizeBatchOps, claimed.len() as u64);
        for idx in claimed {
            self.migrate_bucket(shard, old_ptr, new_ptr, idx, guard);
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
        cds_atomic::stress::yield_point();
        match table.next.compare_exchange(
            Shared::null(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        ) {
            Ok(_) => fresh,
            Err(existing) => {
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
            cds_atomic::stress::yield_point();
            let table_ptr = shard.current.load(Ordering::Acquire, &guard);
            // SAFETY: `current` is never null; the blanket guard keeps the
            // table alive even if it is concurrently promoted away.
            let table = unsafe { table_ptr.deref() };
            let next_ptr = table.next.load(Ordering::Acquire, &guard);
            if !next_ptr.is_null() {
                // A migration is in flight: move the next claimed buckets.
                self.help_migrate(shard, table_ptr, next_ptr, &guard);
            }

            let mut target = table;
            let mut bucket = table.buckets[hash as usize & table.mask()].lock();
            cds_atomic::stress::yield_point();
            if bucket.migrated {
                // Our bucket has moved on (so `next` is set): its entries
                // are in the successor's bucket, which we lock only after
                // releasing this one.
                drop(bucket);
                // SAFETY: a migrated bucket's table has a successor, which
                // the blanket guard keeps alive.
                target = unsafe { table.next.load(Ordering::Acquire, &guard).deref() };
                bucket = target.buckets[hash as usize & target.mask()].lock();
                cds_atomic::stress::yield_point();
                if bucket.migrated {
                    // The successor is itself migrating, so it was
                    // promoted: restart from the shard root.
                    drop(bucket);
                    backoff.spin();
                    continue;
                }
            }
            let (out, wants_resize) = f(&mut bucket, shard);
            drop(bucket);

            // The trigger only fires for the shard's root table with no
            // successor (a successor becomes triggerable once promoted):
            // this caps the chain at two tables and rules out stranded
            // entries.
            if wants_resize
                && ptr::eq(target, table)
                && table.next.load(Ordering::Acquire, &guard).is_null()
                && shard.size.load(Ordering::Relaxed) > MAX_LOAD_FACTOR * table.buckets.len()
            {
                self.install_next(table_ptr, &guard);
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
            if bucket.iter().any(|(k, _)| *k == key) {
                slot = Some((key, value));
                (false, false)
            } else {
                bucket.push((key, value));
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
            match bucket.iter().position(|(k, _)| k == key) {
                Some(i) => {
                    bucket.swap_remove(i);
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
            (bucket.iter().any(|(k, _)| k == key), false)
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
                    keys.extend(b.iter().map(|(k, _)| k.clone()));
                }
            }
            // SAFETY: guard-protected.
            if let Some(next) = unsafe { next.as_ref() } {
                for bucket in next.buckets.iter() {
                    let b = bucket.lock();
                    keys.extend(b.iter().map(|(k, _)| k.clone()));
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
    use std::hash::Hasher;

    #[test]
    fn inline_slots_follow_the_entry_size() {
        assert_eq!(Bucket::<u64, u64>::INLINE, 4);
        assert_eq!(Bucket::<u16, u32>::INLINE, 8);
        assert_eq!(Bucket::<u64, String>::INLINE, 2);
        assert_eq!(Bucket::<u64, [u8; 100]>::INLINE, 1);
        assert_eq!(Bucket::<(), ()>::INLINE, 8);
        assert_eq!(size_of::<Bucket<u64, u64>>(), 96);
    }

    #[test]
    fn a_bucket_with_its_lock_is_104_bytes() {
        // One byte of lock word, padded to the bucket's alignment: the
        // same footprint as with `std::sync::Mutex`.
        assert_eq!(size_of::<Mutex<Bucket<u64, u64>>>(), 104);
    }

    /// The lock word comes first, then the spill header, the flags and the
    /// first inline slot, all within the mutex's first 64 bytes.
    #[test]
    fn the_first_inline_slot_ends_within_64_bytes() {
        let mut bucket = Mutex::new(Bucket::<u64, u64>::new());
        let base = &bucket as *const _ as usize;
        let data = bucket.get_mut() as *const _ as usize - base;
        assert_eq!(data, 8, "the bucket does not follow the lock word");
        let end = bucket.get_mut().inline.as_ptr() as usize - base + size_of::<(u64, u64)>();
        assert!(end <= 64, "the first slot ends at byte {end}");
    }

    /// A bucket behaves as one `Vec` of its inline slots then its spill,
    /// with `String` payloads so that a lost or doubled entry is a leak
    /// or a double free.
    #[test]
    fn bucket_matches_a_vec_across_the_spill_boundary() {
        let mut bucket: Bucket<u64, String> = Bucket::new();
        let mut model: Vec<(u64, String)> = Vec::new();
        let entry = |i: u64| (i, format!("v{i}"));
        let check = |bucket: &Bucket<u64, String>, model: &[(u64, String)]| {
            assert!(bucket.iter().eq(model.iter()));
            assert!(
                bucket.spill.is_empty() || bucket.len as usize == Bucket::<u64, String>::INLINE
            );
        };
        for i in 0..7 {
            bucket.push(entry(i));
            model.push(entry(i));
            check(&bucket, &model);
        }
        // Inline slot, spilled slot, the last slot, and an inline slot
        // again once nothing is spilled.
        for i in [0, 4, 4, 1, 2, 0] {
            assert_eq!(bucket.swap_remove(i), model.swap_remove(i));
            check(&bucket, &model);
        }
        for i in 7..12 {
            bucket.push(entry(i));
            model.push(entry(i));
        }
        check(&bucket, &model);
        assert_eq!(bucket.pop(), model.pop());
        let mut other: Bucket<u64, String> = Bucket::new();
        other.push(entry(20));
        bucket.append(other);
        model.push(entry(20));
        let mut got: Vec<_> = bucket.iter().cloned().collect();
        got.sort();
        model.sort();
        assert_eq!(got, model);
        // Dropped here with entries inline and spilled.
    }

    /// Sends every key to one of three buckets, so chains spill.
    #[derive(Clone, Default)]
    struct ThreeBuckets;

    #[derive(Default)]
    struct ByteSum(u64);

    impl Hasher for ByteSum {
        fn write(&mut self, bytes: &[u8]) {
            self.0 += bytes.iter().map(|&b| b as u64).sum::<u64>();
        }
        fn finish(&self) -> u64 {
            self.0 % 3
        }
    }

    impl BuildHasher for ThreeBuckets {
        type Hasher = ByteSum;
        fn build_hasher(&self) -> ByteSum {
            ByteSum::default()
        }
    }

    /// Hashes a `u64` to itself, so a key's bucket is its low bits.
    #[derive(Clone, Default)]
    struct Identity;

    #[derive(Default)]
    struct Id(u64);

    impl Hasher for Id {
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = self.0 << 8 | u64::from(b);
            }
        }
        fn write_u64(&mut self, n: u64) {
            self.0 = n;
        }
        fn finish(&self) -> u64 {
            self.0
        }
    }

    impl BuildHasher for Identity {
        type Hasher = Id;
        fn build_hasher(&self) -> Id {
            Id::default()
        }
    }

    /// The `migrated` flags of a one-shard map's root table, which must
    /// have a successor installed.
    fn migrated_flags(m: &ResizingMap<u64, u64, Identity>) -> Vec<bool> {
        let guard = Ebr::enter_blanket();
        // SAFETY: `current` is never null; the guard keeps it alive.
        let table = unsafe { m.shards[0].current.load(Ordering::Acquire, &guard).deref() };
        assert!(!table.next.load(Ordering::Acquire, &guard).is_null());
        table.buckets.iter().map(|b| b.lock().migrated).collect()
    }

    #[test]
    fn a_table_migrates_in_bucket_order() {
        const BUCKETS: u64 = 16;
        let m = ResizingMap::with_config_and_hasher(1, BUCKETS as usize, Identity);
        // One past the load factor: the last insert installs the successor.
        let keys = BUCKETS * MAX_LOAD_FACTOR as u64 + 1;
        for k in 0..keys {
            assert!(m.insert(k, k));
        }
        assert_eq!(migrated_flags(&m), [false; BUCKETS as usize]);
        // Three lookups of keys in buckets 13..16 move buckets 0..6, and
        // none of their own.
        let k = 3;
        for key in BUCKETS - k..BUCKETS {
            assert_eq!(m.get(&key), Some(key));
        }
        let prefix = |n: u64| (0..BUCKETS).map(|b| b < n).collect::<Vec<_>>();
        assert_eq!(migrated_flags(&m), prefix(2 * k));
        // An insert into bucket 15, which has not moved, lands in the old
        // table while it moves buckets 6 and 7.
        let late = BUCKETS - 1 + BUCKETS * 4;
        assert!(m.insert(late, late));
        assert_eq!(migrated_flags(&m), prefix(2 * k + 2));
        assert_eq!(m.doublings(), 0);
        for key in (0..keys).chain([late]) {
            assert_eq!(m.get(&key), Some(key), "key {key}");
        }
        assert_eq!(m.doublings(), 1, "the lookups finish the migration");
        assert_eq!(m.len() as u64, keys + 1);
    }

    #[test]
    fn spilled_buckets_migrate_and_drop_their_entries() {
        let m: ResizingMap<String, String, ThreeBuckets> =
            ResizingMap::with_config_and_hasher(1, 1, ThreeBuckets);
        for i in 0..200u32 {
            assert!(m.insert(i.to_string(), format!("v{i}")));
        }
        assert!(m.doublings() >= 3, "got {} doublings", m.doublings());
        for i in (0..200u32).step_by(3) {
            assert!(m.remove(&i.to_string()));
        }
        for i in 0..200u32 {
            let want = (i % 3 != 0).then(|| format!("v{i}"));
            assert_eq!(m.get(&i.to_string()), want, "key {i}");
        }
        assert_eq!(m.len(), 133);
        // Dropped here with spilled chains in three buckets.
    }

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
