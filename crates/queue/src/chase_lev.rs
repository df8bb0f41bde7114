use cds_atomic::{fence, AtomicIsize, Ordering};
use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::Arc;

use cds_reclaim::epoch::{Atomic, Guard, Owned};
use cds_reclaim::{Ebr, ReclaimGuard, Reclaimer};

/// Hazard slot protecting the current buffer generation during a steal.
const SLOT_BUFFER: usize = 0;

/// A growable circular buffer of possibly-uninitialized elements.
///
/// Entries are bitwise copies; ownership of an element is determined solely
/// by the `top`/`bottom` indices of the deque, never by the buffer, so the
/// buffer neither drops elements nor is it troubled by stale copies left in
/// abandoned generations.
struct Buffer<T> {
    storage: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> Buffer<T> {
    fn new(capacity: usize) -> Self {
        Buffer {
            storage: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    fn capacity(&self) -> usize {
        self.storage.len()
    }

    /// # Safety
    /// The index must currently be owned by the caller per the deque
    /// protocol.
    unsafe fn write(&self, index: isize, value: T) {
        let slot = &self.storage[(index as usize) & (self.capacity() - 1)];
        // SAFETY: per the caller contract.
        unsafe { (*slot.get()).write(value) };
    }

    /// # Safety
    /// As for `write`; the caller must only treat the result as owned if it
    /// subsequently wins the index race (CAS on `top` / uncontended pop).
    unsafe fn read(&self, index: isize) -> T {
        let slot = &self.storage[(index as usize) & (self.capacity() - 1)];
        // SAFETY: per the caller contract.
        unsafe { (*slot.get()).assume_init_read() }
    }
}

/// The Chase–Lev work-stealing deque (SPAA '05).
///
/// The scheduler-building-block queue: the **owner** thread pushes and pops
/// at the *bottom* with plain loads and stores (one `SeqCst` fence in
/// `pop`), while any number of **thieves** steal from the *top* with a CAS.
/// Owner operations are wait-free except when the deque holds one element;
/// steals are lock-free.
///
/// Construction returns a [`Worker`]/[`Stealer`] pair: the worker is unique
/// and not cloneable (owner operations are unsynchronized against each
/// other); stealers clone freely.
///
/// The deque is generic over its reclamation backend `R`
/// ([`cds_reclaim::Reclaimer`], default [`Ebr`]), which manages buffer
/// generations: a thief may still be reading the old generation while the
/// owner installs a doubled one, so the old buffer is retired, not freed.
/// Only the steal path dereferences a buffer another thread may retire,
/// so it is the only place needing per-pointer protection
/// ([`ReclaimGuard::protect`]); the owner is the sole retirer and can
/// never race itself.
///
/// # Example
///
/// ```
/// use cds_queue::{ChaseLevDeque, Steal};
///
/// let (worker, stealer) = ChaseLevDeque::new();
/// worker.push(1);
/// worker.push(2);
/// assert_eq!(worker.pop(), Some(2));       // owner is LIFO
/// assert_eq!(stealer.steal(), Steal::Success(1)); // thieves are FIFO
/// ```
pub struct ChaseLevDeque<T, R: Reclaimer = Ebr> {
    /// Index one past the youngest element; written only by the owner.
    bottom: AtomicIsize,
    /// Index of the oldest element; CASed by thieves and the owner's
    /// last-element path.
    top: AtomicIsize,
    buffer: Atomic<Buffer<T>>,
    _reclaimer: std::marker::PhantomData<R>,
}

// SAFETY: elements cross threads by move; buffer generations are managed
// by the reclaimer.
unsafe impl<T: Send, R: Reclaimer> Send for ChaseLevDeque<T, R> {}
unsafe impl<T: Send, R: Reclaimer> Sync for ChaseLevDeque<T, R> {}

const INITIAL_CAPACITY: usize = 32;

/// Upper bound on the number of elements one
/// [`Stealer::steal_batch_and_pop`] call transfers.
pub const MAX_BATCH: usize = 32;

impl<T> ChaseLevDeque<T> {
    /// Creates an empty deque on the default ([`Ebr`]) backend, returning
    /// its unique [`Worker`] and a cloneable [`Stealer`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (Worker<T>, Stealer<T>) {
        Self::with_reclaimer()
    }
}

impl<T, R: Reclaimer> ChaseLevDeque<T, R> {
    /// Creates an empty deque on the reclamation backend `R`.
    #[allow(clippy::new_ret_no_self)]
    pub fn with_reclaimer() -> (Worker<T, R>, Stealer<T, R>) {
        let deque = Arc::new(ChaseLevDeque {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            buffer: Atomic::new(Buffer::new(INITIAL_CAPACITY)),
            _reclaimer: std::marker::PhantomData,
        });
        (
            Worker {
                deque: Arc::clone(&deque),
                _not_sync: std::marker::PhantomData,
            },
            Stealer { deque },
        )
    }

    /// Approximate number of elements (racy; diagnostics only).
    fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        b.saturating_sub(t).max(0) as usize
    }
}

impl<T, R: Reclaimer> Drop for ChaseLevDeque<T, R> {
    fn drop(&mut self) {
        // SAFETY: unique access.
        let guard = unsafe { Guard::unprotected() };
        let buf = self.buffer.load(Ordering::Relaxed, &guard);
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        // SAFETY: indices [t, b) hold live elements owned by the deque.
        unsafe {
            let buf_ref = buf.deref();
            for i in t..b {
                drop(buf_ref.read(i));
            }
            drop(buf.into_owned());
        }
    }
}

impl<T, R: Reclaimer> fmt::Debug for ChaseLevDeque<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaseLevDeque")
            .field("len", &self.len())
            .field("reclaimer", &R::NAME)
            .finish()
    }
}

/// The owner handle of a [`ChaseLevDeque`]; not cloneable.
pub struct Worker<T, R: Reclaimer = Ebr> {
    deque: Arc<ChaseLevDeque<T, R>>,
    /// Owner operations are unsynchronized against each other, so the
    /// worker must not be shared (`!Sync`).
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

// SAFETY: the worker may migrate threads between operations; it just cannot
// be used from two threads at once (no Sync).
unsafe impl<T: Send, R: Reclaimer> Send for Worker<T, R> {}

impl<T, R: Reclaimer> Worker<T, R> {
    /// Pushes `value` at the bottom (owner end).
    pub fn push(&self, value: T) {
        let d = &*self.deque;
        cds_atomic::stress::yield_point();
        let b = d.bottom.load(Ordering::Relaxed);
        let t = d.top.load(Ordering::Acquire);
        // Only the owner replaces and retires buffers, so its own loads
        // need no protection; the guard is needed for `retire` below.
        let guard = R::enter();
        let mut buf = d.buffer.load(Ordering::Relaxed, &guard);

        if b - t >= unsafe { buf.deref() }.capacity() as isize {
            // Grow: copy live indices into a doubled buffer, publish it, and
            // defer the old one (thieves may still be reading it).
            let new = Buffer::new(unsafe { buf.deref() }.capacity() * 2);
            for i in t..b {
                // SAFETY: indices [t, b) are live; bitwise copy (ownership
                // stays index-determined).
                unsafe {
                    let v = std::ptr::read(
                        (buf.deref().storage[(i as usize) & (buf.deref().capacity() - 1)]).get(),
                    );
                    *new.storage[(i as usize) & (new.capacity() - 1)].get() = v;
                }
            }
            let new = Owned::new(new).into_shared(&guard);
            let old = buf;
            d.buffer.store(new, Ordering::Release);
            buf = new;
            // SAFETY: the old generation is unreachable for new loads.
            unsafe { guard.retire(old) };
        }

        // SAFETY: slot `b` is owned by the worker.
        unsafe { buf.deref().write(b, value) };
        // Release: the element must be visible before the new bottom.
        fence(Ordering::Release);
        d.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Pops from the bottom (owner end, LIFO). Returns `None` when empty.
    pub fn pop(&self) -> Option<T> {
        let d = &*self.deque;
        let b = d.bottom.load(Ordering::Relaxed) - 1;
        // The owner is the only thread that retires buffers, so its own
        // buffer load cannot race reclamation: a unit witness suffices.
        let guard = ();
        let buf = d.buffer.load(Ordering::Relaxed, &guard);
        d.bottom.store(b, Ordering::Relaxed);
        cds_atomic::stress::yield_point();
        // The fence orders our bottom store against the top load: either a
        // racing thief sees the lowered bottom, or we see its advanced top.
        fence(Ordering::SeqCst);
        let t = d.top.load(Ordering::Relaxed);

        if b < t {
            // Deque was empty; restore bottom.
            d.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }

        // SAFETY: index `b` held a live element when we lowered bottom.
        let value = unsafe { buf.deref().read(b) };
        if b > t {
            // More than one element: no thief can reach index b.
            return Some(value);
        }

        // Exactly one element: race thieves for it via top.
        let won = d
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        d.bottom.store(t + 1, Ordering::Relaxed);
        if won {
            Some(value)
        } else {
            // A thief took it; the bitwise copy we read must not be dropped.
            std::mem::forget(value);
            None
        }
    }

    /// Approximate number of elements (racy; diagnostics only).
    pub fn len(&self) -> usize {
        self.deque.len()
    }

    /// Returns `true` if the deque appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T, R: Reclaimer> fmt::Debug for Worker<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worker").field("len", &self.len()).finish()
    }
}

/// The result of a [`Stealer::steal`] attempt.
///
/// # Termination-detection contract
///
/// `Retry` and `Empty` are **not** interchangeable. `Empty` means the
/// thief observed `top >= bottom` through the fence protocol — at that
/// instant the deque held nothing. `Retry` means the thief *lost a CAS
/// race*: an element existed, someone else (another thief, or the owner
/// popping the last element) took it, and the deque may still be
/// non-empty. A scheduler deciding whether a worker may go idle must
/// therefore treat `Retry` as "work may remain — re-scan", never as
/// emptiness; collapsing the two re-introduces the classic lost-task
/// termination bug. The enum is `#[must_use]` so a dropped result (which
/// silently discards that distinction — and, for `Success`, the element)
/// is a compile-time warning.
#[must_use = "a discarded Steal loses the Retry/Empty distinction (and any stolen element)"]
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty (`top >= bottom`).
    Empty,
    /// Lost a race with another thief or the owner; the deque may still
    /// hold elements — worth retrying before reporting emptiness.
    Retry,
    /// Stole the oldest element.
    Success(T),
}

/// A thief handle of a [`ChaseLevDeque`]; clone one per stealing thread.
pub struct Stealer<T, R: Reclaimer = Ebr> {
    deque: Arc<ChaseLevDeque<T, R>>,
}

impl<T, R: Reclaimer> Clone for Stealer<T, R> {
    fn clone(&self) -> Self {
        Stealer {
            deque: Arc::clone(&self.deque),
        }
    }
}

impl<T, R: Reclaimer> Stealer<T, R> {
    /// Attempts to steal the oldest element (FIFO end).
    pub fn steal(&self) -> Steal<T> {
        let d = &*self.deque;
        cds_atomic::stress::yield_point();
        let t = d.top.load(Ordering::Acquire);
        // Order the top load before the bottom load (pairs with the owner's
        // SeqCst fence in `pop`).
        fence(Ordering::SeqCst);
        let b = d.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let guard = R::enter();
        // Protect-validate: the owner may retire this generation while we
        // read from it. A stale-but-alive generation is fine — growth
        // copies the live range, so index `t` is present in every
        // generation the hazard can pin.
        let buf = guard.protect(SLOT_BUFFER, &d.buffer, Ordering::Acquire);
        // SAFETY: the element at `t` was live when bottom was read; the
        // bitwise copy is only kept if the CAS below confirms ownership.
        let value = unsafe { buf.deref().read(t) };
        if d.top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(value)
        } else {
            std::mem::forget(value);
            Steal::Retry
        }
    }

    /// Steals up to half of the victim's elements (capped at
    /// [`MAX_BATCH`]), pushing all but the first into `dest` (the thief's
    /// own worker) and returning the first.
    ///
    /// # Protocol
    ///
    /// The batch is taken **one element at a time, each with its own CAS
    /// on `top`** — the batch amortizes scheduling bookkeeping, not
    /// synchronization. A single multi-slot CAS (`top: t → t+n`) would be
    /// unsound here: the owner's `pop` takes slot `b-1` *without* a CAS
    /// whenever it observes `b-1 > t` after its fence, so a wide CAS
    /// could succeed while the owner has already taken one of the covered
    /// slots — both threads would own the same element. Per-element CAS
    /// restores the invariant that every transferred slot is won by
    /// exactly one `top` transition.
    ///
    /// Each iteration re-validates `top` (stop if another thief advanced
    /// it), re-runs the fence-ordered emptiness check, and re-protects
    /// the buffer (the owner may have grown and retired the generation
    /// read by the previous iteration).
    ///
    /// # Return value
    ///
    /// Follows the [`Steal`] termination contract: `Empty` only if the
    /// initial fence-ordered check saw `top >= bottom`; `Retry` if the
    /// *first* CAS was lost (nothing transferred); `Success(first)` once
    /// at least one element is won — later lost races simply end the
    /// batch early with whatever was already moved to `dest`.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T, R>) -> Steal<T> {
        let d = &*self.deque;
        cds_atomic::stress::yield_point();
        let mut t = d.top.load(Ordering::Acquire);
        // Order the top load before the bottom load (pairs with the owner's
        // SeqCst fence in `pop`).
        fence(Ordering::SeqCst);
        let b = d.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Take half the observed length, rounded up, capped. The target is
        // fixed from this initial observation; shrinkage is handled by the
        // per-iteration re-checks below.
        let target = (((b - t + 1) / 2) as usize).min(MAX_BATCH);
        let guard = R::enter();
        let mut first: Option<T> = None;
        let mut taken = 0usize;
        while taken < target {
            if taken > 0 {
                cds_atomic::stress::yield_point();
                // Another thief advancing top past our cursor means our
                // next CAS would fail; stop with what we have.
                if d.top.load(Ordering::Acquire) != t {
                    break;
                }
                fence(Ordering::SeqCst);
                if t >= d.bottom.load(Ordering::Acquire) {
                    break;
                }
            }
            // Re-protect every iteration: the owner may retire the
            // generation we pinned last time around. A stale-but-alive
            // generation is fine — growth copies the live range, so index
            // `t` is present in every generation the hazard can pin.
            let buf = guard.protect(SLOT_BUFFER, &d.buffer, Ordering::Acquire);
            // SAFETY: the element at `t` was live when bottom was read;
            // the bitwise copy is only kept if the CAS below wins.
            let value = unsafe { buf.deref().read(t) };
            if d.top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                match first {
                    None => first = Some(value),
                    Some(_) => dest.push(value),
                }
                taken += 1;
                t += 1;
            } else {
                std::mem::forget(value);
                break;
            }
        }
        match first {
            None => Steal::Retry,
            Some(v) => {
                cds_obs::add(cds_obs::Event::DequeStealBatchElems, taken as u64);
                cds_obs::record_max(cds_obs::Event::DequeStealBatchMax, taken as u64);
                Steal::Success(v)
            }
        }
    }

    /// Approximate number of elements (racy; diagnostics only).
    pub fn len(&self) -> usize {
        self.deque.len()
    }

    /// Returns `true` if the deque appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T, R: Reclaimer> fmt::Debug for Stealer<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stealer").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let (w, s) = ChaseLevDeque::new();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let (w, _s) = ChaseLevDeque::new();
        for i in 0..1000 {
            w.push(i);
        }
        for i in (0..1000).rev() {
            assert_eq!(w.pop(), Some(i));
        }
    }

    #[test]
    fn drop_frees_remaining_elements() {
        use cds_atomic::AtomicUsize;
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let (w, _s) = ChaseLevDeque::new();
            for _ in 0..10 {
                w.push(D(Arc::clone(&drops)));
            }
            drop(w.pop());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn push_pop_steal_on_every_backend() {
        fn run<R: Reclaimer>() {
            let (w, s) = ChaseLevDeque::<u64, R>::with_reclaimer();
            // Push past the initial capacity so buffers get retired.
            for i in 0..1000 {
                w.push(i);
            }
            assert_eq!(s.steal(), Steal::Success(0), "{} backend", R::NAME);
            for i in (2..1000).rev() {
                assert_eq!(w.pop(), Some(i), "{} backend", R::NAME);
            }
            assert_eq!(w.pop(), Some(1));
            assert_eq!(w.pop(), None);
            R::collect();
        }
        run::<Ebr>();
        run::<cds_reclaim::Hazard>();
        run::<cds_reclaim::Leak>();
        run::<cds_reclaim::DebugReclaim>();
    }

    #[test]
    fn batch_steal_moves_half_and_pops_oldest() {
        let (victim, s) = ChaseLevDeque::new();
        let (thief, thief_s) = ChaseLevDeque::new();
        for i in 0..10 {
            victim.push(i);
        }
        // 10 elements: target = min(11/2, MAX_BATCH) = 5; the oldest is
        // returned, the next four land in the thief's deque in steal
        // (FIFO) order.
        assert_eq!(s.steal_batch_and_pop(&thief), Steal::Success(0));
        assert_eq!(thief.len(), 4);
        for i in 1..5 {
            assert_eq!(thief_s.steal(), Steal::Success(i));
        }
        // The victim keeps the younger half.
        assert_eq!(victim.len(), 5);
        for i in (5..10).rev() {
            assert_eq!(victim.pop(), Some(i));
        }
    }

    #[test]
    fn batch_steal_empty_and_singleton() {
        let (victim, s) = ChaseLevDeque::new();
        let (thief, _ts) = ChaseLevDeque::<u64>::new();
        assert_eq!(s.steal_batch_and_pop(&thief), Steal::Empty);
        victim.push(7);
        assert_eq!(s.steal_batch_and_pop(&thief), Steal::Success(7));
        assert!(thief.is_empty());
        assert_eq!(victim.pop(), None);
    }

    #[test]
    fn batch_steal_is_capped() {
        let (victim, s) = ChaseLevDeque::new();
        let (thief, _ts) = ChaseLevDeque::new();
        for i in 0..(4 * MAX_BATCH as u64) {
            victim.push(i);
        }
        assert_eq!(s.steal_batch_and_pop(&thief), Steal::Success(0));
        assert_eq!(thief.len(), MAX_BATCH - 1);
        assert_eq!(victim.len(), 3 * MAX_BATCH);
    }

    #[test]
    fn batch_steal_on_every_backend_with_growth() {
        fn run<R: Reclaimer>() {
            let (victim, s) = ChaseLevDeque::<u64, R>::with_reclaimer();
            let (thief, thief_s) = ChaseLevDeque::<u64, R>::with_reclaimer();
            // Push past the initial capacity so batch steals span retired
            // buffer generations.
            const N: u64 = 1000;
            for i in 0..N {
                victim.push(i);
            }
            let mut seen = HashSet::new();
            loop {
                match s.steal_batch_and_pop(&thief) {
                    Steal::Success(v) => {
                        assert!(seen.insert(v), "{}: {v} stolen twice", R::NAME);
                    }
                    Steal::Retry => {}
                    Steal::Empty => break,
                }
            }
            loop {
                match thief_s.steal() {
                    Steal::Success(v) => {
                        assert!(seen.insert(v), "{}: {v} duplicated in dest", R::NAME);
                    }
                    Steal::Retry => {}
                    Steal::Empty => break,
                }
            }
            assert_eq!(seen.len() as u64, N, "{} backend lost elements", R::NAME);
            R::collect();
        }
        run::<Ebr>();
        run::<cds_reclaim::Hazard>();
        run::<cds_reclaim::Leak>();
        run::<cds_reclaim::DebugReclaim>();
    }

    #[test]
    fn concurrent_batch_steals_get_distinct_elements() {
        let (w, s) = ChaseLevDeque::new();
        const N: u64 = 10_000;
        for i in 0..N {
            w.push(i);
        }
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let (mine, my_stealer) = ChaseLevDeque::new();
                    let mut got = Vec::new();
                    loop {
                        match s.steal_batch_and_pop(&mine) {
                            Steal::Success(v) => {
                                got.push(v);
                                while let Some(v) = mine.pop() {
                                    got.push(v);
                                }
                            }
                            Steal::Retry => {}
                            Steal::Empty => {
                                drop(my_stealer);
                                return got;
                            }
                        }
                    }
                })
            })
            .collect();
        let mut mine = Vec::new();
        while let Some(v) = w.pop() {
            mine.push(v);
        }
        let mut seen: HashSet<u64> = mine.into_iter().collect();
        for t in thieves {
            for v in t.join().unwrap() {
                assert!(seen.insert(v), "element {v} taken twice");
            }
        }
        assert_eq!(seen.len() as u64, N, "elements lost");
    }

    #[test]
    fn concurrent_steals_get_distinct_elements() {
        let (w, s) = ChaseLevDeque::new();
        const N: u64 = 10_000;
        for i in 0..N {
            w.push(i);
        }
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match s.steal() {
                            Steal::Success(v) => got.push(v),
                            Steal::Retry => {}
                            Steal::Empty => return got,
                        }
                    }
                })
            })
            .collect();
        let mut mine = Vec::new();
        while let Some(v) = w.pop() {
            mine.push(v);
        }
        let mut seen: HashSet<u64> = mine.into_iter().collect();
        for t in thieves {
            for v in t.join().unwrap() {
                assert!(seen.insert(v), "element {v} taken twice");
            }
        }
        assert_eq!(seen.len() as u64, N, "elements lost");
    }
}
