//! Hazard-pointer memory reclamation (Michael, 2004).
//!
//! Where [`epoch`](crate::epoch) protects *everything* a thread might touch
//! while pinned, hazard pointers protect *specific pointers*: before
//! dereferencing a shared node a thread publishes the node's address in a
//! *hazard slot*; a retiring thread frees a node only after scanning all
//! slots and finding no match. This bounds unreclaimed garbage even if
//! threads stall — the property epoch schemes lack — at the cost of a
//! published store and fence per protected pointer.
//!
//! As in Michael's paper, every thread retires onto a list of its own
//! (one per domain it has retired into) and scans that list when it
//! reaches [`SCAN_THRESHOLD`], so a retire takes no lock and the backlog is
//! at most `H + SCAN_THRESHOLD` nodes per retiring thread, `H` being the
//! number of published hazards. A thread that exits leaves its list to the
//! domain, and the next [`Domain::scan`] by any thread frees what is on it.
//!
//! # Example
//!
//! ```
//! use cds_reclaim::hazard::{Domain, HazardPointer};
//! use cds_atomic::{AtomicPtr, Ordering};
//!
//! let domain = Domain::new();
//! let shared = AtomicPtr::new(Box::into_raw(Box::new(42)));
//!
//! let mut hp = HazardPointer::new(&domain);
//! let p = hp.protect(&shared);
//! // `p` cannot be freed by concurrent retirers while `hp` holds it.
//! assert_eq!(unsafe { *p }, 42);
//! hp.reset();
//!
//! // Retire the node; the domain frees it once no hazard covers it.
//! let raw = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
//! unsafe { domain.retire(raw) };
//! ```

use cds_atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::cell::{RefCell, UnsafeCell};
use std::fmt;
use std::ptr;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::reclaimer::drop_box;

/// How many retired nodes a thread accumulates before it scans.
pub const SCAN_THRESHOLD: usize = 64;

/// One published hazard slot. Lives in the domain's intrusive slot list for
/// the domain's lifetime; slots are recycled, never freed, so scanning
/// threads can traverse the list without further synchronization.
///
/// A slot carries either a protected *address* (classic hazard pointer) or
/// a published *era* (hazard-era-style blanket protection) depending on
/// which handle type owns it; the unused field stays 0.
struct Slot {
    /// The protected address (0 when none).
    hazard: AtomicUsize,
    /// The published era (0 when none). A retired node stamped with era
    /// `e` is unreclaimable while any slot publishes an era `<= e`.
    era: AtomicU64,
    /// Whether some `HazardPointer` or `Era` currently owns this slot.
    active: AtomicBool,
    /// Next slot in the domain's list.
    next: AtomicPtr<Slot>,
}

struct Retired {
    ptr: *mut u8,
    dtor: unsafe fn(*mut u8),
    /// Era-clock value at retirement; era-based guards entered at or
    /// before this value hold the node back.
    stamp: u64,
}

// SAFETY: retirement requires `T: Send` (see `Domain::retire`), so running
// the destructor from whichever thread triggers the scan is sound.
unsafe impl Send for Retired {}

impl Retired {
    /// Runs the node's destructor.
    ///
    /// # Safety
    ///
    /// No thread may hold or be able to obtain a reference to the node.
    unsafe fn free(&self) {
        // SAFETY: `dtor` is the destructor `ptr` was retired with (see
        // `Domain::retire_erased`); the caller rules out remaining
        // references.
        unsafe { (self.dtor)(self.ptr) }
    }
}

/// The nodes one thread has retired into one domain and not yet freed.
///
/// Shared between the domain's registry and the owning thread's
/// [`RETIRE_LISTS`]. While the owner runs, only it touches `nodes`, and only
/// from inside `Domain::retire` / `Domain::scan`; once it has set
/// `abandoned` on its way out it never does again, and the list's contents
/// belong to whichever scan removes the list from the registry.
struct RetireList {
    nodes: UnsafeCell<Vec<Retired>>,
    /// `nodes.len()`, mirrored by the owner for [`Domain::retired_len`].
    len: AtomicUsize,
    /// Set when the owning thread exits.
    abandoned: AtomicBool,
}

// SAFETY: `nodes` has one accessor at a time by the protocol above (owner,
// then the adopting scan under the registry lock, or `Domain::drop` with
// exclusive access to the domain); the other fields are atomics. `Retired`
// is `Send`.
unsafe impl Send for RetireList {}
unsafe impl Sync for RetireList {}

/// The calling thread's retire lists, keyed by [`Domain::id`]. Dropped at
/// thread exit, which is what abandons the lists.
struct ThreadLists(RefCell<Vec<(u64, Arc<RetireList>)>>);

impl Drop for ThreadLists {
    fn drop(&mut self) {
        for (_, list) in self.0.get_mut().iter() {
            // Release: everything this thread pushed is visible to the
            // scan that reads the flag with Acquire and adopts the list.
            // The domain itself may be gone by now, so nothing else is
            // touched here.
            list.abandoned.store(true, Ordering::Release);
        }
    }
}

thread_local! {
    static RETIRE_LISTS: ThreadLists = const { ThreadLists(RefCell::new(Vec::new())) };
}

/// Source of [`Domain::id`].
static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(0);

/// Locks a registry, taking a poisoned one over: each critical section
/// leaves its vector whole, so a panic that unwound through one (an
/// aborted stress window, say) left nothing half done, and passing the
/// poison on would make every later registration, thread exit and
/// collection panic too.
fn lock<T>(registry: &Mutex<T>) -> MutexGuard<'_, T> {
    registry.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reclamation domain: a set of hazard slots plus the retired nodes
/// waiting for them to clear.
///
/// Nodes retired into a domain are freed only when no [`HazardPointer`]
/// belonging to the *same* domain protects them. Use one domain per data
/// structure (or share one across structures whose nodes never alias).
pub struct Domain {
    /// Never reused within the process, so a thread's cached list of a
    /// dropped domain can never be mistaken for one of this domain.
    id: u64,
    head: AtomicPtr<Slot>,
    /// The retire list of every running thread that has retired into this
    /// domain, plus lists abandoned since the last scan. Locked when a
    /// thread first retires here, by scans and by diagnostics — never by a
    /// retire that finds its list.
    lists: Mutex<Vec<Arc<RetireList>>>,
    /// Hand-off target for threads that cannot keep a list of their own:
    /// retirees that survived a scan made by such a thread. Any later scan
    /// takes them over.
    orphans: Mutex<Vec<Retired>>,
    /// Monotonic era clock: bumped on every retirement, snapshotted by
    /// era-based guards. Starts at 1 so era 0 can mean "none published".
    era_clock: AtomicU64,
}

// SAFETY: shared state is atomics, mutex-protected, or `RetireList`s (see
// there).
unsafe impl Send for Domain {}
unsafe impl Sync for Domain {}

impl Domain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        Domain {
            id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
            head: AtomicPtr::new(ptr::null_mut()),
            lists: Mutex::new(Vec::new()),
            orphans: Mutex::new(Vec::new()),
            era_clock: AtomicU64::new(1),
        }
    }

    /// The calling thread's retire list for this domain, registered on
    /// first use if `register`. `None` if there is none and `register` is
    /// off, or if the thread is so far into its exit that its
    /// [`RETIRE_LISTS`] are gone.
    ///
    /// The reference does not hold the thread-local borrowed, so a
    /// destructor that a scan runs may retire (and look its list up) again.
    fn my_list(&self, register: bool) -> Option<&RetireList> {
        RETIRE_LISTS
            .try_with(|mine| {
                let mut mine = mine.0.borrow_mut();
                // SAFETY: the list outlives the caller's borrow of `self`:
                // the thread's `Arc` is pruned only once the registry's is
                // gone, and that one goes only after the thread abandoned
                // the list or with the domain.
                let unbound = |list: &Arc<RetireList>| unsafe { &*Arc::as_ptr(list) };
                if let Some((_, list)) = mine.iter().find(|(id, _)| *id == self.id) {
                    return Some(unbound(list));
                }
                if !register {
                    return None;
                }
                // Lists of domains that have since been dropped.
                mine.retain(|(_, list)| Arc::strong_count(list) > 1);
                let list = Arc::new(RetireList {
                    nodes: UnsafeCell::new(Vec::with_capacity(SCAN_THRESHOLD)),
                    len: AtomicUsize::new(0),
                    abandoned: AtomicBool::new(false),
                });
                lock(&self.lists).push(Arc::clone(&list));
                let found = unbound(&list);
                mine.push((self.id, list));
                Some(found)
            })
            .ok()
            .flatten()
    }

    /// Acquires a free slot, reusing an inactive one if possible.
    fn acquire_slot(&self) -> *const Slot {
        // First pass: try to recycle an inactive slot.
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: slots are never freed while the domain lives.
            let slot = unsafe { &*cur };
            if !slot.active.load(Ordering::Relaxed)
                && slot
                    .active
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return cur;
            }
            cur = slot.next.load(Ordering::Acquire);
        }
        // Second pass: push a fresh slot (Treiber-style).
        let slot = Box::into_raw(Box::new(Slot {
            hazard: AtomicUsize::new(0),
            era: AtomicU64::new(0),
            active: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        loop {
            let head = self.head.load(Ordering::Acquire);
            // SAFETY: `slot` is ours until the CAS publishes it.
            unsafe { (*slot).next.store(head, Ordering::Relaxed) };
            if self
                .head
                .compare_exchange(head, slot, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return slot;
            }
        }
    }

    /// Retires a `Box`-allocated node for eventual destruction.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `Box::into_raw`, must already be unreachable
    /// for threads that have not yet protected it, must not be retired
    /// twice, and must be safe to drop on any thread (morally `T: Send`;
    /// not expressed as a bound because node types routinely contain raw
    /// pointers managed by the same protocol).
    pub unsafe fn retire<T>(&self, ptr: *mut T) {
        // SAFETY: forwarded contract; `drop_box::<T>` undoes `Box::into_raw`.
        unsafe { self.retire_erased(ptr.cast(), drop_box::<T>) };
    }

    /// Everything about [`retire`](Domain::retire) that does not depend on
    /// the node type, so it is compiled once and reached by one call. Also
    /// the retire of an object that is not a `Box`.
    ///
    /// # Safety
    ///
    /// `retire`'s contract, with `dtor(ptr)` as the node's destruction.
    pub(crate) unsafe fn retire_erased(&self, ptr: *mut u8, dtor: unsafe fn(*mut u8)) {
        debug_assert!(!ptr.is_null());
        // Stamp with the pre-bump clock value: any era guard that entered
        // before this retirement observed a clock value <= stamp and so
        // holds the node back; guards entering afterwards read > stamp and
        // (per the retire contract) can no longer reach the node.
        let stamp = self.era_clock.fetch_add(1, Ordering::SeqCst);
        let retired = Retired { ptr, dtor, stamp };
        let Some(list) = self.my_list(true) else {
            // Retired from a thread-local destructor after this thread's
            // lists were torn down.
            lock(&self.orphans).push(retired);
            return;
        };
        // SAFETY: this thread owns the list and holds no other reference
        // into `nodes`.
        let nodes = unsafe { &mut *list.nodes.get() };
        nodes.push(retired);
        let n = nodes.len();
        list.len.store(n, Ordering::Relaxed);
        if cds_obs::enabled() {
            cds_obs::record_max(cds_obs::Event::PeakGarbageHazard, self.retired_len() as u64);
        }
        if n >= SCAN_THRESHOLD {
            self.scan();
        }
    }

    /// Scans hazards and frees every unprotected node among those the
    /// calling thread has retired and those exited threads left behind.
    /// Lists of other running threads are theirs to scan.
    ///
    /// Returns the number of nodes freed.
    pub fn scan(&self) -> usize {
        // Gather the candidates FIRST: every node considered for freeing
        // below was retired (hence unlinked) before this point — by this
        // thread, or by one whose hand-off (the `abandoned` flag, the
        // `orphans` lock) this thread has synchronized with. Only then read
        // the hazard/era slots, so a reader that publish-validated a hazard
        // (or published an era) before any candidate's unlink is guaranteed
        // visible to this scan. Reading the slots first would let a node
        // retired between the slot snapshot and the gathering be freed out
        // from under an established protection.
        let mine = self.my_list(false);
        let mut batch: Vec<Retired> = match mine {
            // SAFETY: this thread owns the list and holds no other
            // reference into `nodes`; taking the vector (rather than
            // borrowing it across the loop below) keeps it that way when a
            // destructor retires into this domain again.
            Some(list) => std::mem::take(unsafe { &mut *list.nodes.get() }),
            None => Vec::new(),
        };
        lock(&self.lists).retain(|list| {
            if !list.abandoned.load(Ordering::Acquire) {
                return true;
            }
            // SAFETY: the owner set `abandoned` as its last access, and
            // the registry lock admits one adopter.
            batch.append(unsafe { &mut *list.nodes.get() });
            false
        });
        batch.append(&mut lock(&self.orphans));
        if batch.is_empty() {
            return 0;
        }

        // The candidates' unlinks happen-before this scan's hazard reads.
        fence(Ordering::SeqCst);

        // Snapshot all active hazards and the minimum published era.
        let mut protected: Vec<usize> = Vec::new();
        let mut min_era = u64::MAX;
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: slots live as long as the domain.
            let slot = unsafe { &*cur };
            let h = slot.hazard.load(Ordering::SeqCst);
            if h != 0 {
                protected.push(h);
            }
            let e = slot.era.load(Ordering::SeqCst);
            if e != 0 {
                min_era = min_era.min(e);
            }
            cur = slot.next.load(Ordering::Acquire);
        }
        protected.sort_unstable();

        // Free the candidates covered by neither an address hazard nor an
        // era; keep the covered ones for a later scan.
        let before = batch.len();
        batch.retain(|r| {
            if min_era <= r.stamp || protected.binary_search(&(r.ptr as usize)).is_ok() {
                return true;
            }
            // SAFETY: `r` was retired before the gathering, so its unlink
            // precedes the slot reads above; no hazard covers `r.ptr` and
            // no era guard predates its retirement, so no established
            // protection reaches it, and retire's contract rules out new
            // ones (the node is unlinked).
            unsafe { r.free() };
            false
        });
        let freed = before - batch.len();
        cds_obs::add(cds_obs::Event::FreedHazard, freed as u64);

        match mine {
            Some(list) => {
                // SAFETY: as above. Whatever the destructors retired in
                // the meantime goes behind the survivors, in the vector
                // that has the capacity.
                let nodes = unsafe { &mut *list.nodes.get() };
                batch.append(nodes);
                *nodes = batch;
                list.len.store(nodes.len(), Ordering::Relaxed);
            }
            None => lock(&self.orphans).append(&mut batch),
        }
        freed
    }

    /// Number of nodes awaiting reclamation, over every thread's list
    /// (diagnostics; the per-thread lengths are relaxed reads of each
    /// owner's mirror, so the sum is approximate while threads retire).
    pub fn retired_len(&self) -> usize {
        let orphaned = lock(&self.orphans).len();
        let lists = lock(&self.lists);
        let listed: usize = lists.iter().map(|l| l.len.load(Ordering::Relaxed)).sum();
        orphaned + listed
    }

    /// Publishes an era-based blanket protection (hazard-era style).
    ///
    /// While the returned [`Era`] is alive, no node retired *at or after*
    /// the era's entry point can be reclaimed by [`scan`](Domain::scan) —
    /// the per-timestamp analogue of an epoch pin, built on the same slot
    /// list as address hazards. Traversal-heavy structures whose algorithms
    /// cannot publish per-pointer hazards (no mark bits on the traversed
    /// fields, helper dereferences after operation completion, …) use this
    /// mode; see the `Reclaimer` docs for the soundness contract.
    pub fn enter_era(&self) -> Era<'_> {
        let slot = self.acquire_slot();
        // Publish-validate, like `HazardPointer::protect`: publish a clock
        // snapshot, fence, and re-read the clock until it matches. On exit
        // with era `e` the clock was still `e` after the publication, so
        // any retirement stamped `>= e` performed its `fetch_add` after
        // the era store — and a scan can only free that node after the
        // retirement lands in the list it steals, hence after the store,
        // so the scan's slot read sees the era and holds the node back.
        // Publishing without the re-read would let a concurrent retirement
        // stamped `e` be freed by a scan that ran before the store landed.
        let mut era = self.era_clock.load(Ordering::SeqCst);
        loop {
            // SAFETY: slots live as long as the domain, which `self`
            // borrows.
            unsafe { (*slot).era.store(era, Ordering::SeqCst) };
            // Publish the era before the owner loads any structure
            // pointers; pairs with the SeqCst fence in `scan`.
            fence(Ordering::SeqCst);
            let now = self.era_clock.load(Ordering::SeqCst);
            if now == era {
                break;
            }
            era = now;
        }
        Era {
            slot,
            _marker: std::marker::PhantomData,
        }
    }

    /// Current era-clock value (diagnostics and tests).
    pub fn era_clock(&self) -> u64 {
        self.era_clock.load(Ordering::SeqCst)
    }
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // No hazard pointers can outlive the domain (they borrow it), so
        // everything retired is reclaimable.
        let mut retired = std::mem::take(
            self.orphans
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for list in self
            .lists
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            // SAFETY: owners touch `nodes` only through a borrow of the
            // domain, and this is the exclusive one.
            retired.append(unsafe { &mut *list.nodes.get() });
        }
        for r in retired {
            // SAFETY: unique access; no protections exist.
            unsafe { r.free() };
        }
        // Free the slot list.
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: unique access; slots were only ever reachable from
            // this domain.
            let slot = unsafe { Box::from_raw(cur) };
            cur = slot.next.load(Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Domain")
            .field("retired", &self.retired_len())
            .finish_non_exhaustive()
    }
}

/// A single hazard slot held by the current thread.
///
/// Protect a pointer before dereferencing it; the protection lasts until
/// [`reset`](HazardPointer::reset), the next `protect`, or drop.
pub struct HazardPointer<'d> {
    domain: &'d Domain,
    slot: *const Slot,
}

impl<'d> HazardPointer<'d> {
    /// Acquires a hazard slot in `domain`.
    pub fn new(domain: &'d Domain) -> Self {
        HazardPointer {
            domain,
            slot: domain.acquire_slot(),
        }
    }

    /// The domain this hazard pointer belongs to.
    pub fn domain(&self) -> &'d Domain {
        self.domain
    }

    fn slot(&self) -> &Slot {
        // SAFETY: slots live as long as the domain, which `'d` outlives.
        unsafe { &*self.slot }
    }

    /// Protects the pointer currently stored in `src` and returns it.
    ///
    /// Loops until the published hazard and the source agree, so on return
    /// the pointee (if non-null) cannot be freed by [`Domain::retire`]
    /// until this hazard is cleared or overwritten.
    pub fn protect<T>(&mut self, src: &AtomicPtr<T>) -> *mut T {
        let mut ptr = src.load(Ordering::Relaxed);
        loop {
            self.slot().hazard.store(ptr as usize, Ordering::Relaxed);
            // Publish the hazard before re-validating: pairs with the
            // SeqCst fence in `scan`.
            fence(Ordering::SeqCst);
            let now = src.load(Ordering::Acquire);
            if now == ptr {
                return ptr;
            }
            ptr = now;
        }
    }

    /// Publishes protection for a known raw pointer.
    ///
    /// The caller is responsible for re-validating that the pointer is
    /// still reachable after this call (the usual hazard-pointer protocol);
    /// prefer [`protect`](HazardPointer::protect) when the source is an
    /// `AtomicPtr`.
    pub fn protect_raw<T>(&mut self, ptr: *mut T) {
        self.slot().hazard.store(ptr as usize, Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// Clears the protection without releasing the slot.
    pub fn reset(&mut self) {
        self.slot().hazard.store(0, Ordering::Release);
    }
}

impl Drop for HazardPointer<'_> {
    fn drop(&mut self) {
        let slot = self.slot();
        slot.hazard.store(0, Ordering::Release);
        slot.active.store(false, Ordering::Release);
    }
}

/// An active era-based blanket protection (see [`Domain::enter_era`]).
///
/// Dropping the handle retracts the era and recycles the slot.
pub struct Era<'d> {
    slot: *const Slot,
    // Ties the borrow to the domain: slots live as long as it does.
    _marker: std::marker::PhantomData<&'d Domain>,
}

impl Era<'_> {
    fn slot(&self) -> &Slot {
        // SAFETY: slots live as long as the domain, which `'d` outlives.
        unsafe { &*self.slot }
    }

    /// The era value this guard published.
    pub fn era(&self) -> u64 {
        self.slot().era.load(Ordering::Relaxed)
    }
}

impl Drop for Era<'_> {
    fn drop(&mut self) {
        let slot = self.slot();
        slot.era.store(0, Ordering::Release);
        slot.active.store(false, Ordering::Release);
    }
}

impl fmt::Debug for Era<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Era").field("era", &self.era()).finish()
    }
}

impl fmt::Debug for HazardPointer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HazardPointer")
            .field(
                "protecting",
                &(self.slot().hazard.load(Ordering::Relaxed) != 0),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicUsize as Counter;
    use std::sync::Arc;

    struct DropCounter(Arc<Counter>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A thread that panics while it holds `lock` leaves it poisoned.
    fn poison<T: Send>(lock: &Mutex<T>) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = lock.lock();
                panic!("poisoning the lock on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(lock.is_poisoned());
    }

    /// A panic that unwinds through a registry lock (an aborted stress
    /// window, say) must not turn every later registration, thread exit
    /// and scan into a panic of its own.
    #[test]
    fn poisoned_registry_locks_are_taken_over() {
        let drops = Arc::new(Counter::new(0));
        let domain = Domain::new();
        poison(&domain.lists);
        poison(&domain.orphans);

        // A thread registers its retire list, retires into it and exits,
        // abandoning the list; a scan adopts and frees it.
        std::thread::scope(|s| {
            let node = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops)))) as usize;
            let domain = &domain;
            // SAFETY: a fresh box, never shared, retired once.
            let retire = move || unsafe { domain.retire(node as *mut DropCounter) };
            s.spawn(retire).join().unwrap();
        });
        assert_eq!(domain.retired_len(), 1);
        assert_eq!(domain.scan(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(domain.retired_len(), 0);
    }

    #[test]
    fn protect_returns_current_value() {
        let domain = Domain::new();
        let boxed = Box::into_raw(Box::new(7));
        let src = AtomicPtr::new(boxed);
        let mut hp = HazardPointer::new(&domain);
        let p = hp.protect(&src);
        assert_eq!(p, boxed);
        assert_eq!(unsafe { *p }, 7);
        drop(hp);
        unsafe { drop(Box::from_raw(boxed)) };
    }

    #[test]
    fn protected_node_survives_scan() {
        let domain = Domain::new();
        let drops = Arc::new(Counter::new(0));
        let raw = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
        let src = AtomicPtr::new(raw);

        let mut hp = HazardPointer::new(&domain);
        let p = hp.protect(&src);
        assert_eq!(p, raw);

        // Unlink and retire while protected.
        src.store(ptr::null_mut(), Ordering::Release);
        unsafe { domain.retire(raw) };
        domain.scan();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under protection");

        hp.reset();
        domain.scan();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unprotected_nodes_are_freed_by_scan() {
        let domain = Domain::new();
        let drops = Arc::new(Counter::new(0));
        for _ in 0..10 {
            let raw = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
            unsafe { domain.retire(raw) };
        }
        domain.scan();
        assert_eq!(drops.load(Ordering::SeqCst), 10);
        assert_eq!(domain.retired_len(), 0);
    }

    #[test]
    fn slots_are_recycled() {
        let domain = Domain::new();
        let s1 = {
            let hp = HazardPointer::new(&domain);
            hp.slot as usize
        };
        // After drop the slot is inactive and must be reused.
        let hp2 = HazardPointer::new(&domain);
        assert_eq!(hp2.slot as usize, s1);
    }

    #[test]
    fn domain_drop_frees_remaining_retirees() {
        let drops = Arc::new(Counter::new(0));
        {
            let domain = Domain::new();
            for _ in 0..5 {
                let raw = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
                unsafe { domain.retire(raw) };
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn concurrent_protect_and_retire_stress() {
        let domain = Arc::new(Domain::new());
        let drops = Arc::new(Counter::new(0));
        let slot: Arc<AtomicPtr<DropCounter>> = Arc::new(AtomicPtr::new(Box::into_raw(Box::new(
            DropCounter(Arc::clone(&drops)),
        ))));
        const SWAPS: usize = 2000;

        let writer = {
            let domain = Arc::clone(&domain);
            let slot = Arc::clone(&slot);
            let drops = Arc::clone(&drops);
            std::thread::spawn(move || {
                for _ in 0..SWAPS {
                    let new = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
                    let old = slot.swap(new, Ordering::AcqRel);
                    unsafe { domain.retire(old) };
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let domain = Arc::clone(&domain);
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || {
                    let mut hp = HazardPointer::new(&domain);
                    for _ in 0..SWAPS {
                        let p = hp.protect(&slot);
                        // Touch the protected memory; UB here would crash
                        // under sanitizers / in practice.
                        assert!(!p.is_null());
                        let _inner = unsafe { &(*p).0 };
                        hp.reset();
                    }
                })
            })
            .collect();

        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        // Free the final node.
        let last = slot.swap(ptr::null_mut(), Ordering::AcqRel);
        unsafe { drop(Box::from_raw(last)) };
        drop(slot);
        // Everything retired plus the final node equals SWAPS + 1 total
        // allocations; after domain drop all must be freed.
        drop(Arc::try_unwrap(domain).unwrap());
        assert_eq!(drops.load(Ordering::SeqCst), SWAPS + 1);
    }
}
