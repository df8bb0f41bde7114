//! The backend-generic reclamation interface: one trait pair that lets a
//! lock-free structure compile against epochs, hazard pointers, a leaking
//! no-op, or a use-after-retire-detecting debug backend.
//!
//! Following Meyer & Wolff ("Decoupling Lock-Free Data Structures from
//! Memory Reclamation", 2018), the structure sees only a *guard* with
//! three capabilities — protect a pointer before dereferencing it, retire
//! an unlinked object, and (implicitly, by its lifetime) scope the
//! protection — while the backend decides what those capabilities cost
//! and what they guarantee. A backend implements one retire,
//! [`retire_raw`](ReclaimGuard::retire_raw) (pointer + destructor, two
//! words); [`retire`](ReclaimGuard::retire) is that call with the one
//! destructor that drops a `Box<T>`:
//!
//! | backend | `enter` | `enter_blanket` | `retire_raw` |
//! |---|---|---|---|
//! | [`Ebr`] | epoch pin | epoch pin | defer `(ptr, dtor)` to collector |
//! | [`Hazard`] | per-pointer hazards | published era | stamped retire + scan |
//! | [`Leak`] | no-op | no-op | leak |
//! | [`DebugReclaim`] | registry stamp | registry stamp | poison + quarantine |
//!
//! What a call costs (single thread, ns; the cost-ladder rows of a traced
//! `direct_transport` run of the gate benchmark, before → after the guards
//! stopped counting references and hazard retire lists became per-thread;
//! routing `retire` through `retire_raw` left the retire rows where they
//! were), how much garbage a backend can hold, and who frees what a thread
//! leaves behind when it exits (DESIGN.md, "Reclamation", has the long
//! form):
//!
//! | backend | pin / enter | protect | retire (with node alloc + free) | unfreed garbage | at thread exit |
//! |---|---|---|---|---|---|
//! | [`Ebr`] | 23.1 → 9.8 | a load | 41.7 → 40.6 | unbounded under a stalled pin; else a local bag is sealed after 64 retires or within 128 pins and freed two epochs later | bag sealed onto the global queue, participant unregistered (by the last guard if one outlives the handle); any `collect()` frees it |
//! | [`Hazard`] | 12.6 → 12.6 | 9.4 → 9.7 | 66.0 → 40.6 | `threads × (H + SCAN_THRESHOLD)`; an idle thread keeps its own list | list flagged abandoned; the next `scan`/`collect()` of any thread adopts and frees it; slots recycled |
//! | [`Leak`] | 0 | a load | 0 | everything | — |
//! | [`DebugReclaim`] | global lock | global lock | global lock | everything retired while any guard is live | quarantine is global |
//!
//! # The two protection modes
//!
//! [`Reclaimer::enter`] returns a guard for the **per-pointer** discipline:
//! the structure promises that every pointer it dereferences went through
//! [`ReclaimGuard::protect`] (publish-validate) or
//! [`ReclaimGuard::protect_ptr`] plus a reachability re-validation. Under
//! [`Hazard`] this is the classic Michael protocol with bounded garbage.
//! The Treiber stack, Michael–Scott queue, and Chase–Lev deque use it.
//!
//! [`Reclaimer::enter_blanket`] returns a guard that protects *everything
//! the operation can reach* for the guard's lifetime. Under [`Hazard`]
//! this publishes an **era** (hazard-era style): a node retired at era `e`
//! is unreclaimable while any guard entered at era `<= e` is live.
//! Traversal structures whose algorithms cannot publish per-pointer
//! hazards use this mode — the Harris–Michael list and split-ordered map
//! (unlink targets are reached through fields that freeze only on the
//! *predecessor*, so a per-location validate cannot cover restarts through
//! marked chains without an algorithm redesign), the lock-free skiplist
//! (same, per level), and the Ellen et al. BST (child pointers carry no
//! mark bits and helpers dereference descriptor-held raw pointers after
//! the operation completes — per-pointer hazards are insufficient by
//! design; see Brown, "Reclaiming memory for lock-free data structures",
//! 2015).
//!
//! # The soundness contract (all backends)
//!
//! `retire`/`retire_raw` may only be called on an object that is
//! **unreachable to operations that begin afterwards**: every path from the
//! structure's roots to it was severed before the call. This is exactly the
//! contract epoch-based reclamation already imposes, which is why one
//! structure implementation can serve every backend. Blanket guards rely
//! on it directly (a guard entered after the retire can never reach the
//! node, so holding back only nodes retired during live guards is
//! enough); per-pointer guards rely on it through the publish-validate
//! step (a validated pointer is currently reachable, hence not retired).
//!
//! # Retire granularity
//!
//! Nothing in the contract says the retired object is a *node*, nor how it
//! was allocated: it is any allocation plus its destructor.
//! [`ReclaimGuard::retire`] covers any `Atomic`/`Owned`-managed allocation
//! behind a thin pointer, so a structure can retire an entire **bucket
//! array** in one call by wrapping it in a table struct (e.g.
//! `struct Table { buckets: Box<[Mutex<Bucket>]>, .. }`): the destructor
//! boxes the table back up and dropping it drops every bucket. This is how
//! `cds_map::ResizingMap` reclaims superseded generations — the thread that
//! completes a migration severs the old table from the shard root and
//! retires it whole, and the usual contract ("unreachable to operations
//! that begin afterwards") carries over unchanged because operations reach
//! buckets only through the root pointer.
//!
//! [`ReclaimGuard::retire_raw`] drops the `Box` assumption: the caller
//! passes the destructor. `cds_skiplist::LockFreeSkipList` allocates each
//! node as one header followed by its tower of forward pointers
//! (`Layout::extend`, a size known only at run time) and retires it with
//! the node's own `dealloc`, which drops the key and frees that layout.

use cds_atomic::{AtomicU64, AtomicUsize, Ordering};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;

use crate::epoch::{self, Atomic, Shared};
use crate::hazard::{Domain, Era, HazardPointer};

/// A reclamation backend, used as a type-level tag on generic structures
/// (`TreiberStack<T, R: Reclaimer>` and friends).
pub trait Reclaimer: Send + Sync + 'static {
    /// The guard handed to one structure operation.
    type Guard: ReclaimGuard;

    /// Short name for benchmarks and test-matrix labels.
    const NAME: &'static str;

    /// Enters a per-pointer protected section: the caller promises every
    /// dereferenced pointer goes through [`ReclaimGuard::protect`] /
    /// [`ReclaimGuard::protect_ptr`] with re-validation.
    fn enter() -> Self::Guard;

    /// Enters a blanket-protected section: everything reachable during
    /// the guard's lifetime stays alive (epoch pin / published era).
    fn enter_blanket() -> Self::Guard;

    /// Best-effort reclamation drain, for tests and benchmarks that want
    /// deterministic accounting; never required for correctness.
    fn collect();

    /// Number of retired-but-unreclaimed nodes the backend currently
    /// holds (diagnostics; 0 where the notion does not apply).
    fn retired_backlog() -> usize {
        0
    }
}

/// One operation's reclamation capability: protect, retire, and (via the
/// guard's lifetime) scope.
pub trait ReclaimGuard: Sized {
    /// Loads the pointer in `src` and protects the pointee until the guard
    /// ends (or the same `slot` is reused).
    ///
    /// Per-pointer backends publish the address in hazard slot `slot` and
    /// re-validate `src` until both agree, so the returned pointer was
    /// reachable *after* the hazard became visible; blanket backends just
    /// load. Distinct concurrently-needed pointers must use distinct
    /// `slot` indices.
    fn protect<'g, T>(&'g self, slot: usize, src: &Atomic<T>, ord: Ordering) -> Shared<'g, T>;

    /// Publishes protection for an already-loaded pointer without
    /// validating any source.
    ///
    /// The caller must re-validate reachability afterwards (e.g. re-read
    /// the originating atomic) before dereferencing — the usual
    /// hazard-pointer protocol for pointers read out of protected nodes.
    fn protect_ptr<'g, T>(&'g self, slot: usize, ptr: Shared<'_, T>) -> Shared<'g, T>;

    /// Hands an unlinked node to the backend for eventual destruction.
    ///
    /// # Safety
    ///
    /// `ptr` must be allocated via [`Owned`](crate::epoch::Owned) /
    /// [`Atomic::new`] and meet [`retire_raw`](ReclaimGuard::retire_raw)'s
    /// contract, dropping the `Box<T>` being its destructor (so morally
    /// `T: Send`; not expressed as a bound because node types routinely
    /// contain raw pointers managed by the same protocol).
    unsafe fn retire<T>(&self, ptr: Shared<'_, T>) {
        // SAFETY: forwarded contract; `drop_box::<T>` undoes `Owned::new`.
        unsafe { self.retire_raw(ptr.as_raw().cast(), drop_box::<T>) }
    }

    /// Hands an unlinked object of any allocation to the backend, together
    /// with the destructor that destroys and frees it.
    ///
    /// # Safety
    ///
    /// `ptr` must be non-null, unreachable to operations that begin after
    /// this call, and retired exactly once. Calling `dtor(ptr)` once, at any
    /// later time and on any thread, once nothing references the object,
    /// must be sound and must be the object's only destruction.
    unsafe fn retire_raw(&self, ptr: *mut u8, dtor: unsafe fn(*mut u8));
}

/// The destructor [`ReclaimGuard::retire`] hands to
/// [`retire_raw`](ReclaimGuard::retire_raw): drops the `Box<T>` behind `p`.
///
/// # Safety
///
/// `p` came from `Box::into_raw::<T>` (which is what `Owned::new` does),
/// and nothing else owns or references the box.
pub(crate) unsafe fn drop_box<T>(p: *mut u8) {
    // SAFETY: per the contract above.
    unsafe { drop(Box::from_raw(p.cast::<T>())) }
}

/// Rebinds a `Shared` to a new guard lifetime (backend-internal).
fn rebind<'g, T>(ptr: Shared<'_, T>) -> Shared<'g, T> {
    Shared::from_raw(ptr.as_raw()).with_tag(ptr.tag())
}

// ---------------------------------------------------------------------------
// EBR backend
// ---------------------------------------------------------------------------

/// Epoch-based reclamation on the process-wide default collector — the
/// default backend for every structure (cheapest reads, unbounded garbage
/// under a stalled pin).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ebr;

impl Reclaimer for Ebr {
    type Guard = epoch::Guard;
    const NAME: &'static str = "ebr";

    fn enter() -> epoch::Guard {
        epoch::pin()
    }

    fn enter_blanket() -> epoch::Guard {
        epoch::pin()
    }

    fn collect() {
        epoch::pin().flush();
    }

    fn retired_backlog() -> usize {
        epoch::default_collector().garbage_len()
    }
}

impl ReclaimGuard for epoch::Guard {
    fn protect<'g, T>(&'g self, _slot: usize, src: &Atomic<T>, ord: Ordering) -> Shared<'g, T> {
        // The pin already protects everything reachable.
        src.load(ord, self)
    }

    fn protect_ptr<'g, T>(&'g self, _slot: usize, ptr: Shared<'_, T>) -> Shared<'g, T> {
        rebind(ptr)
    }

    unsafe fn retire_raw(&self, ptr: *mut u8, dtor: unsafe fn(*mut u8)) {
        cds_obs::count(cds_obs::Event::RetiredEbr);
        debug_assert!(!ptr.is_null(), "retire of null");
        // SAFETY: forwarded contract.
        unsafe { self.defer_raw(ptr, dtor) }
        if cds_obs::enabled() {
            cds_obs::record_max(
                cds_obs::Event::PeakGarbageEbr,
                Ebr::retired_backlog() as u64,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Leak backend
// ---------------------------------------------------------------------------

/// The no-reclamation floor: `retire` leaks. All of the algorithm, none of
/// the reclamation cost — the lower-bound baseline for experiment E10.
#[derive(Debug, Clone, Copy, Default)]
pub struct Leak;

/// Guard of the [`Leak`] backend; protection is vacuous because nothing is
/// ever freed.
#[derive(Debug)]
pub struct LeakGuard(());

impl Reclaimer for Leak {
    type Guard = LeakGuard;
    const NAME: &'static str = "leak";

    fn enter() -> LeakGuard {
        LeakGuard(())
    }

    fn enter_blanket() -> LeakGuard {
        LeakGuard(())
    }

    fn collect() {}
}

impl ReclaimGuard for LeakGuard {
    fn protect<'g, T>(&'g self, _slot: usize, src: &Atomic<T>, ord: Ordering) -> Shared<'g, T> {
        src.load(ord, self)
    }

    fn protect_ptr<'g, T>(&'g self, _slot: usize, ptr: Shared<'_, T>) -> Shared<'g, T> {
        rebind(ptr)
    }

    unsafe fn retire_raw(&self, _ptr: *mut u8, _dtor: unsafe fn(*mut u8)) {
        // Intentionally leaked: retired nodes are never freed, so every
        // stale pointer stays valid forever.
        cds_obs::count(cds_obs::Event::RetiredLeak);
    }
}

// ---------------------------------------------------------------------------
// Hazard backend
// ---------------------------------------------------------------------------

/// Hazard-pointer reclamation on a process-wide [`Domain`]: per-pointer
/// publish-validate protection in [`enter`](Reclaimer::enter) mode,
/// published eras in [`enter_blanket`](Reclaimer::enter_blanket) mode.
/// Bounded garbage under per-pointer mode even when threads stall.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hazard;

impl Hazard {
    /// The process-wide hazard domain backing this reclaimer.
    #[inline]
    pub fn domain() -> &'static Domain {
        static DOMAIN: OnceLock<Domain> = OnceLock::new();
        DOMAIN.get_or_init(Domain::new)
    }
}

enum HazardMode {
    /// Indexed hazard slots, acquired lazily on first use of each index.
    PerPointer(RefCell<Vec<HazardPointer<'static>>>),
    /// One published era covering the whole operation.
    Blanket(#[allow(dead_code)] Era<'static>),
}

thread_local! {
    /// Hazard slots handed back by the last per-pointer guard on this
    /// thread, so successive operations reuse their slots instead of
    /// re-walking the domain's slot list (a CAS per node) and allocating
    /// per guard.
    static SLOT_CACHE: RefCell<Vec<HazardPointer<'static>>> = const { RefCell::new(Vec::new()) };
}

/// Guard of the [`Hazard`] backend.
pub struct HazardGuard {
    mode: HazardMode,
}

impl std::fmt::Debug for HazardGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match &self.mode {
            HazardMode::PerPointer(slots) => format!("per-pointer({})", slots.borrow().len()),
            HazardMode::Blanket(_) => "blanket".to_string(),
        };
        f.debug_struct("HazardGuard").field("mode", &mode).finish()
    }
}

impl Reclaimer for Hazard {
    type Guard = HazardGuard;
    const NAME: &'static str = "hazard";

    fn enter() -> HazardGuard {
        // Reuse this thread's cached slots; a nested guard finds the cache
        // empty (taken by the outer guard) and acquires fresh ones.
        let cached = SLOT_CACHE
            .try_with(|c| std::mem::take(&mut *c.borrow_mut()))
            .unwrap_or_default();
        HazardGuard {
            mode: HazardMode::PerPointer(RefCell::new(cached)),
        }
    }

    fn enter_blanket() -> HazardGuard {
        HazardGuard {
            mode: HazardMode::Blanket(Hazard::domain().enter_era()),
        }
    }

    fn collect() {
        Hazard::domain().scan();
    }

    fn retired_backlog() -> usize {
        Hazard::domain().retired_len()
    }
}

impl Drop for HazardGuard {
    fn drop(&mut self) {
        if let HazardMode::PerPointer(slots) = &mut self.mode {
            let mut slots = std::mem::take(slots.get_mut());
            // Clear the protections now — a stale hazard left published
            // would block reclamation of whatever it last pointed at —
            // but keep the slots acquired for the next guard.
            for hp in &mut slots {
                hp.reset();
            }
            let _ = SLOT_CACHE.try_with(move |c| {
                let mut cache = c.borrow_mut();
                if cache.is_empty() {
                    *cache = slots;
                }
                // Non-empty cache (we were a nested guard): let `slots`
                // drop here, releasing its slots back to the domain.
            });
            // If the TLS is gone (thread exit), the closure never ran and
            // `slots` was dropped with it, releasing the slots.
        }
    }
}

impl ReclaimGuard for HazardGuard {
    fn protect<'g, T>(&'g self, slot: usize, src: &Atomic<T>, ord: Ordering) -> Shared<'g, T> {
        match &self.mode {
            // The era already covers everything this operation can reach.
            HazardMode::Blanket(_) => src.load(ord, self),
            HazardMode::PerPointer(slots) => {
                let mut slots = slots.borrow_mut();
                while slots.len() <= slot {
                    slots.push(HazardPointer::new(Hazard::domain()));
                }
                // Publish-validate over the full tagged word: on return
                // the hazard and the source agree, so the pointee was
                // reachable after the hazard became visible to scans.
                let mut cur = src.load(ord, self);
                loop {
                    slots[slot].protect_raw(cur.as_raw());
                    let now = src.load(ord, self);
                    if now == cur {
                        return now;
                    }
                    cur = now;
                }
            }
        }
    }

    fn protect_ptr<'g, T>(&'g self, slot: usize, ptr: Shared<'_, T>) -> Shared<'g, T> {
        if let HazardMode::PerPointer(slots) = &self.mode {
            let mut slots = slots.borrow_mut();
            while slots.len() <= slot {
                slots.push(HazardPointer::new(Hazard::domain()));
            }
            slots[slot].protect_raw(ptr.as_raw());
        }
        rebind(ptr)
    }

    unsafe fn retire_raw(&self, ptr: *mut u8, dtor: unsafe fn(*mut u8)) {
        cds_obs::count(cds_obs::Event::RetiredHazard);
        // SAFETY: forwarded contract; the domain stamps the node with the
        // current era and scans hazards + eras before freeing.
        unsafe { Hazard::domain().retire_erased(ptr, dtor) }
    }
}

// ---------------------------------------------------------------------------
// Debug backend
// ---------------------------------------------------------------------------

/// A reclamation *checker*: retired nodes are logically poisoned in a
/// global registry and physically quarantined until no guard that could
/// legally reach them is live. Any [`protect`](ReclaimGuard::protect) of a
/// node retired **before** the accessing guard began — a use-after-retire
/// that would be silent UB under a real backend — panics with the retiring
/// and accessing thread ids, as does any double retire. Run structures
/// under this backend inside the deterministic stress scheduler to turn
/// reclamation protocol violations into reproducible test failures.
#[derive(Debug, Clone, Copy, Default)]
pub struct DebugReclaim;

struct DebugRetired {
    addr: usize,
    dtor: unsafe fn(*mut u8),
}

// SAFETY: retirement demands destructibility on any thread (see the
// `ReclaimGuard::retire_raw` contract), so draining the quarantine from
// whichever thread reaches it last is sound.
unsafe impl Send for DebugRetired {}

#[derive(Default)]
struct DebugInner {
    /// Logically poisoned addresses: retire stamp + retiring thread.
    poisoned: HashMap<usize, (u64, ThreadId)>,
    /// Nodes awaiting physical destruction.
    quarantine: Vec<DebugRetired>,
}

struct DebugRegistry {
    /// Total order over guard entries and retirements.
    clock: AtomicU64,
    /// Live guards; the quarantine drains when this reaches zero.
    active: AtomicUsize,
    inner: Mutex<DebugInner>,
}

fn debug_registry() -> &'static DebugRegistry {
    static REGISTRY: OnceLock<DebugRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| DebugRegistry {
        clock: AtomicU64::new(1),
        active: AtomicUsize::new(0),
        inner: Mutex::new(DebugInner::default()),
    })
}

/// Drains the quarantine — frees every quarantined node and clears its
/// poison entry — but only if no guard is live at the decision point.
///
/// The liveness check happens *inside* the inner lock: callers observe
/// `active == 0` outside it, but a guard can enter (and another thread
/// retire a node that guard legally protected, since the retire stamp
/// postdates the guard's entry) between that observation and the lock
/// acquisition; draining then would free a node a live guard still
/// dereferences. Re-reading `active` under the lock closes the window:
/// retire inserts under this same lock, so the quarantine is frozen while
/// we hold it, and any guard entering after the re-read gets an entry
/// stamp larger than every quarantined retirement (its `active` increment
/// — and hence its clock increment — is SeqCst-ordered after our load),
/// so per the retire contract it cannot reach the drained nodes.
fn debug_drain(reg: &'static DebugRegistry) {
    let drained: Vec<DebugRetired> = {
        let mut inner = reg.inner.lock().unwrap();
        if reg.active.load(Ordering::SeqCst) != 0 {
            return;
        }
        let q = std::mem::take(&mut inner.quarantine);
        for r in &q {
            inner.poisoned.remove(&r.addr);
        }
        q
    };
    cds_obs::add(cds_obs::Event::FreedDebug, drained.len() as u64);
    for r in drained {
        // SAFETY: retired exactly once (enforced above) and unreachable
        // to every live and future guard.
        unsafe { (r.dtor)(r.addr as *mut u8) };
    }
}

/// Guard of the [`DebugReclaim`] backend; carries its entry stamp so
/// accesses to earlier-retired nodes can be flagged.
#[derive(Debug)]
pub struct DebugGuard {
    entered: u64,
}

impl DebugGuard {
    /// Panics if `addr` was retired before this guard began.
    fn check(&self, addr: usize) {
        if addr == 0 {
            return;
        }
        let reg = debug_registry();
        let hit = reg.inner.lock().unwrap().poisoned.get(&addr).copied();
        if let Some((stamp, by)) = hit {
            if stamp < self.entered {
                panic!(
                    "use-after-retire: node {addr:#x} was retired by thread {by:?} \
                     (stamp {stamp}) before the accessing guard of thread {:?} began \
                     (stamp {}); a real reclaimer could already have freed it",
                    std::thread::current().id(),
                    self.entered,
                );
            }
        }
    }
}

impl Reclaimer for DebugReclaim {
    type Guard = DebugGuard;
    const NAME: &'static str = "debug";

    fn enter() -> DebugGuard {
        let reg = debug_registry();
        reg.active.fetch_add(1, Ordering::SeqCst);
        DebugGuard {
            entered: reg.clock.fetch_add(1, Ordering::SeqCst),
        }
    }

    fn enter_blanket() -> DebugGuard {
        Self::enter()
    }

    fn collect() {
        // `debug_drain` re-validates that no guard is live under the lock.
        debug_drain(debug_registry());
    }

    fn retired_backlog() -> usize {
        debug_registry().inner.lock().unwrap().quarantine.len()
    }
}

impl Drop for DebugGuard {
    fn drop(&mut self) {
        let reg = debug_registry();
        // The `== 1` result is only a hint that a drain may succeed;
        // `debug_drain` re-validates `active == 0` under the lock.
        if reg.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            debug_drain(reg);
        }
    }
}

impl ReclaimGuard for DebugGuard {
    fn protect<'g, T>(&'g self, _slot: usize, src: &Atomic<T>, ord: Ordering) -> Shared<'g, T> {
        let ptr = src.load(ord, self);
        self.check(ptr.as_raw() as usize);
        ptr
    }

    fn protect_ptr<'g, T>(&'g self, _slot: usize, ptr: Shared<'_, T>) -> Shared<'g, T> {
        self.check(ptr.as_raw() as usize);
        rebind(ptr)
    }

    unsafe fn retire_raw(&self, ptr: *mut u8, dtor: unsafe fn(*mut u8)) {
        let addr = ptr as usize;
        debug_assert_ne!(addr, 0, "retire of null");
        let reg = debug_registry();
        let stamp = reg.clock.fetch_add(1, Ordering::SeqCst);
        let me = std::thread::current().id();
        let mut inner = reg.inner.lock().unwrap();
        if let Some(&(prev_stamp, prev_by)) = inner.poisoned.get(&addr) {
            drop(inner);
            panic!(
                "double retire: node {addr:#x} was first retired by thread \
                 {prev_by:?} (stamp {prev_stamp}) and retired again by thread \
                 {me:?} (stamp {stamp})"
            );
        }
        inner.poisoned.insert(addr, (stamp, me));
        inner.quarantine.push(DebugRetired { addr, dtor });
        cds_obs::count(cds_obs::Event::RetiredDebug);
        if cds_obs::enabled() {
            cds_obs::record_max(
                cds_obs::Event::PeakGarbageDebug,
                inner.quarantine.len() as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicUsize as Counter;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    struct DropCounter(Arc<Counter>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn churn_one_slot<R: Reclaimer>() {
        let drops = Arc::new(Counter::new(0));
        let slot: Atomic<DropCounter> = Atomic::new(DropCounter(Arc::clone(&drops)));
        for _ in 0..200 {
            let guard = R::enter();
            let fresh = crate::epoch::Owned::new(DropCounter(Arc::clone(&drops)));
            let old = slot.swap(fresh.into_shared(&guard), Ordering::AcqRel, &guard);
            // SAFETY: `old` was just unlinked and is retired exactly once.
            unsafe { guard.retire(old) };
        }
        R::collect();
        // SAFETY: unique access to the final value.
        unsafe { drop(slot.into_owned()) };
    }

    #[test]
    fn every_backend_survives_single_threaded_churn() {
        churn_one_slot::<Ebr>();
        churn_one_slot::<Hazard>();
        churn_one_slot::<Leak>();
        churn_one_slot::<DebugReclaim>();
    }

    #[test]
    fn hazard_per_pointer_protect_blocks_reclamation() {
        let drops = Arc::new(Counter::new(0));
        let slot: Atomic<DropCounter> = Atomic::new(DropCounter(Arc::clone(&drops)));

        let reader = Hazard::enter();
        let protected = reader.protect(0, &slot, Ordering::Acquire);
        assert!(!protected.is_null());

        {
            let writer = Hazard::enter();
            let fresh = crate::epoch::Owned::new(DropCounter(Arc::clone(&drops)));
            let old = slot.swap(fresh.into_shared(&writer), Ordering::AcqRel, &writer);
            assert_eq!(old, rebind(protected));
            // SAFETY: unlinked, retired once.
            unsafe { writer.retire(old) };
        }
        for _ in 0..4 {
            Hazard::collect();
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "scan freed a node protected by a published hazard"
        );
        // Reading through the protection must still be valid.
        // SAFETY: protected above.
        let _ = unsafe { protected.deref() };

        drop(reader);
        Hazard::collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // SAFETY: unique access.
        unsafe { drop(slot.into_owned()) };
    }

    #[test]
    fn hazard_blanket_era_blocks_nodes_retired_during_guard() {
        let drops = Arc::new(Counter::new(0));
        let slot: Atomic<DropCounter> = Atomic::new(DropCounter(Arc::clone(&drops)));

        let reader = Hazard::enter_blanket();
        {
            let writer = Hazard::enter_blanket();
            let fresh = crate::epoch::Owned::new(DropCounter(Arc::clone(&drops)));
            let old = slot.swap(fresh.into_shared(&writer), Ordering::AcqRel, &writer);
            // SAFETY: unlinked, retired once.
            unsafe { writer.retire(old) };
        }
        for _ in 0..4 {
            Hazard::collect();
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "scan freed a node retired during a live era guard"
        );
        drop(reader);
        Hazard::collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // SAFETY: unique access.
        unsafe { drop(slot.into_owned()) };
    }

    #[test]
    fn debug_backend_catches_use_after_retire() {
        let stale_guard = DebugReclaim::enter();
        let slot: Atomic<u64> = Atomic::new(7);
        let stale = stale_guard.protect(0, &slot, Ordering::Acquire);
        {
            let retirer = DebugReclaim::enter();
            let old = slot.swap(Shared::null(), Ordering::AcqRel, &retirer);
            // SAFETY: unlinked, retired once.
            unsafe { retirer.retire(old) };
        }
        // A guard that began *after* the retire must not touch the node.
        let late_guard = DebugReclaim::enter();
        let msg = panic_message(|| {
            late_guard.protect_ptr(0, stale);
        });
        assert!(msg.contains("use-after-retire"), "wrong message: {msg}");
        assert!(msg.contains("retired by thread"), "wrong message: {msg}");
        // The guard that predates the retire may still touch it (that is
        // the entire point of deferred reclamation).
        let revisit = stale_guard.protect_ptr(0, stale);
        // SAFETY: quarantined, not freed (stale_guard is still live).
        assert_eq!(unsafe { *revisit.deref() }, 7);
        drop(late_guard);
        drop(stale_guard);
        DebugReclaim::collect();
    }

    #[test]
    fn debug_backend_catches_double_retire() {
        let guard = DebugReclaim::enter();
        let slot: Atomic<u64> = Atomic::new(9);
        let old = slot.swap(Shared::null(), Ordering::AcqRel, &guard);
        // SAFETY: unlinked, first retire.
        unsafe { guard.retire(old) };
        // SAFETY: intentionally violating the contract under the checking
        // backend.
        let msg = panic_message(|| unsafe { guard.retire(old) });
        assert!(msg.contains("double retire"), "wrong message: {msg}");
        drop(guard);
        DebugReclaim::collect();
    }

    /// The payload of the panic `f` must raise.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
        err.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string>".into())
    }

    /// An allocation that is not a `Box` of anything: the size and
    /// alignment of no Rust type the tests use.
    fn raw_layout() -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(40, 32).unwrap()
    }

    fn raw_alloc() -> *mut u8 {
        // SAFETY: non-zero size.
        let p = unsafe { std::alloc::alloc(raw_layout()) };
        assert!(!p.is_null());
        p
    }

    /// Frees a [`raw_alloc`] allocation.
    unsafe fn raw_free(p: *mut u8) {
        // SAFETY: allocated by `raw_alloc`, with this layout.
        unsafe { std::alloc::dealloc(p, raw_layout()) }
    }

    /// Runs of [`counted_raw_free`]; only `retire_raw_runs_its_destructor_once`
    /// retires with it.
    static RAW_FREES: Counter = Counter::new(0);

    unsafe fn counted_raw_free(p: *mut u8) {
        RAW_FREES.fetch_add(1, Ordering::SeqCst);
        // SAFETY: forwarded.
        unsafe { raw_free(p) }
    }

    fn retire_raw_on<R: Reclaimer>(expect_freed: bool) {
        let before = RAW_FREES.load(Ordering::SeqCst);
        let freed = || RAW_FREES.load(Ordering::SeqCst) - before;
        let p = raw_alloc();
        {
            let guard = R::enter_blanket();
            // SAFETY: never published; retired once, with the destructor
            // that matches its allocation.
            unsafe { guard.retire_raw(p, counted_raw_free) };
        }
        if expect_freed {
            // Loops for the same reason as `retire_bucket_array_on`.
            for _ in 0..1000 {
                R::collect();
                if freed() == 1 {
                    break;
                }
                std::thread::yield_now();
            }
            for _ in 0..4 {
                R::collect();
            }
            assert_eq!(freed(), 1, "{}: destructor runs != 1", R::NAME);
        } else {
            R::collect();
            assert_eq!(freed(), 0, "{}: leaked object freed", R::NAME);
            // SAFETY: the backend leaked it, so it is still ours.
            unsafe { raw_free(p) };
        }
    }

    #[test]
    fn retire_raw_runs_its_destructor_once() {
        retire_raw_on::<Ebr>(true);
        retire_raw_on::<Hazard>(true);
        retire_raw_on::<DebugReclaim>(true);
        retire_raw_on::<Leak>(false);
    }

    #[test]
    fn debug_backend_checks_raw_retires() {
        let guard = DebugReclaim::enter();
        let p = raw_alloc();
        // SAFETY: never published; retired once (the second call below is
        // the checked violation).
        unsafe { guard.retire_raw(p, raw_free) };
        // SAFETY: intentionally violating the contract under the checking
        // backend.
        let msg = panic_message(|| unsafe { guard.retire_raw(p, raw_free) });
        assert!(msg.contains("double retire"), "wrong message: {msg}");
        let late_guard = DebugReclaim::enter();
        let msg = panic_message(|| {
            late_guard.protect_ptr(0, Shared::from_raw(p));
        });
        assert!(msg.contains("use-after-retire"), "wrong message: {msg}");
        drop(late_guard);
        drop(guard);
        DebugReclaim::collect();
    }

    /// Array-granularity retire (see the module docs): swap out a table
    /// that owns a whole boxed slice of buckets, retire it with one call,
    /// and every bucket entry must eventually drop — except under `Leak`.
    /// Collection loops because sibling tests in this binary may hold
    /// pins/guards that legitimately defer the drain.
    fn retire_bucket_array_on<R: Reclaimer>(expect_freed: bool) {
        struct Table {
            _buckets: Box<[Vec<DropCounter>]>,
        }
        const BUCKETS: usize = 8;
        const PER_BUCKET: usize = 4;
        const ENTRIES: usize = BUCKETS * PER_BUCKET;

        let drops = Arc::new(Counter::new(0));
        let table = Table {
            _buckets: (0..BUCKETS)
                .map(|_| {
                    (0..PER_BUCKET)
                        .map(|_| DropCounter(Arc::clone(&drops)))
                        .collect()
                })
                .collect(),
        };
        let current: Atomic<Table> = Atomic::new(table);
        {
            let guard = R::enter_blanket();
            let empty = crate::epoch::Owned::new(Table {
                _buckets: Box::new([]),
            });
            let old = current.swap(empty.into_shared(&guard), Ordering::AcqRel, &guard);
            // SAFETY: the swap severed the old table from the root;
            // retired exactly once.
            unsafe { guard.retire(old) };
        }
        if expect_freed {
            for _ in 0..1000 {
                R::collect();
                if drops.load(Ordering::SeqCst) == ENTRIES {
                    break;
                }
                std::thread::yield_now();
            }
            assert_eq!(
                drops.load(Ordering::SeqCst),
                ENTRIES,
                "{}: retired bucket array did not drop all entries",
                R::NAME
            );
        } else {
            R::collect();
            assert_eq!(
                drops.load(Ordering::SeqCst),
                0,
                "{}: leaked table must not drop",
                R::NAME
            );
        }
        // SAFETY: unique access to the live (empty) table.
        unsafe { drop(current.into_owned()) };
    }

    #[test]
    fn retired_bucket_arrays_drop_every_entry() {
        retire_bucket_array_on::<Ebr>(true);
        retire_bucket_array_on::<Hazard>(true);
        retire_bucket_array_on::<DebugReclaim>(true);
        retire_bucket_array_on::<Leak>(false);
    }

    #[test]
    fn leak_backend_never_frees() {
        let drops = Arc::new(Counter::new(0));
        let slot: Atomic<DropCounter> = Atomic::new(DropCounter(Arc::clone(&drops)));
        {
            let guard = Leak::enter();
            let old = slot.swap(Shared::null(), Ordering::AcqRel, &guard);
            // SAFETY: unlinked (and deliberately leaked).
            unsafe { guard.retire(old) };
        }
        Leak::collect();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "Leak backend freed a node");
    }
}
