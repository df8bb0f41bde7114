//! Tagged atomic pointers whose targets are protected by a reclamation
//! guard.
//!
//! The guard parameter on every load-like method is a pure *lifetime
//! witness*: any guard type works (the epoch [`Guard`](super::Guard), a
//! hazard-pointer guard, the debug backend's guard, …), and the returned
//! [`Shared`] borrows it so shared nodes cannot outlive the protection
//! scope. Which guard actually makes the dereference sound is the
//! [`Reclaimer`](crate::Reclaimer) backend's contract.

use cds_atomic::{AtomicUsize, Ordering};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// Returns the bitmask of tag bits available for `T` (its alignment − 1).
#[inline]
fn tag_mask<T>() -> usize {
    std::mem::align_of::<T>() - 1
}

#[inline]
fn compose<T>(raw: *mut T, tag: usize) -> usize {
    let mask = tag_mask::<T>();
    debug_assert_eq!(raw as usize & mask, 0, "pointer is not aligned");
    (raw as usize) | (tag & mask)
}

#[inline]
fn decompose<T>(data: usize) -> (*mut T, usize) {
    let mask = tag_mask::<T>();
    ((data & !mask) as *mut T, data & mask)
}

/// An atomic pointer to a heap-allocated `T`, usable only under an epoch
/// [`Guard`].
///
/// Like `AtomicPtr`, but (a) loads return a [`Shared`] whose lifetime is
/// tied to the guard — the type system thus enforces that shared nodes are
/// only dereferenced while pinned — and (b) the low (alignment) bits of the
/// pointer can carry a **tag**, which lock-free lists and trees use as the
/// logical-deletion mark (design decision #2 in DESIGN.md).
///
/// # Example
///
/// ```
/// use cds_reclaim::epoch::{self, Atomic};
/// use cds_atomic::Ordering;
///
/// let a = Atomic::new(42);
/// let guard = epoch::pin();
/// let p = a.load(Ordering::Acquire, &guard);
/// assert_eq!(unsafe { *p.deref() }, 42);
/// # drop(guard);
/// # unsafe { drop(a.into_owned()); }
/// ```
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: `Atomic<T>` hands out `&T` across threads (via `Shared::deref`)
// and moves `T` between threads on reclamation.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// Creates a null pointer.
    pub fn null() -> Self {
        Atomic {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Allocates `value` on the heap and stores the pointer.
    pub fn new(value: T) -> Self {
        Owned::new(value).into()
    }

    /// Loads the pointer. `_guard` is any reclamation guard, used purely
    /// as a lifetime witness.
    pub fn load<'g, G>(&self, ord: Ordering, _guard: &'g G) -> Shared<'g, T> {
        Shared::from_data(self.data.load(ord))
    }

    /// Stores `new` into the atomic.
    pub fn store(&self, new: Shared<'_, T>, ord: Ordering) {
        self.data.store(new.data, ord);
    }

    /// Stores `new`, returning the previous value.
    pub fn swap<'g, G>(&self, new: Shared<'_, T>, ord: Ordering, _guard: &'g G) -> Shared<'g, T> {
        Shared::from_data(self.data.swap(new.data, ord))
    }

    /// Compare-and-exchanges `current` for `new`.
    ///
    /// On failure returns the actual value observed. Both the pointer and
    /// the tag participate in the comparison. Records the attempt and its
    /// outcome in the `cas_*` telemetry counters, so the structures built
    /// on this pointer never count their own.
    pub fn compare_exchange<'g, G>(
        &self,
        current: Shared<'_, T>,
        new: Shared<'_, T>,
        success: Ordering,
        failure: Ordering,
        _guard: &'g G,
    ) -> Result<Shared<'g, T>, Shared<'g, T>> {
        let result = self
            .data
            .compare_exchange(current.data, new.data, success, failure);
        cds_obs::cas_outcome(result.is_ok());
        result.map(Shared::from_data).map_err(Shared::from_data)
    }

    /// Bitwise-ors the tag bits with `tag`, returning the previous value.
    ///
    /// This is how logical-deletion marks are set atomically without
    /// replacing the pointer.
    pub fn fetch_or<'g, G>(&self, tag: usize, ord: Ordering, _guard: &'g G) -> Shared<'g, T> {
        Shared::from_data(self.data.fetch_or(tag & tag_mask::<T>(), ord))
    }

    /// Takes ownership of the pointee.
    ///
    /// # Safety
    ///
    /// The caller must have unique access to the atomic (e.g. inside
    /// `Drop`), and the pointer must not be null.
    pub unsafe fn into_owned(self) -> Owned<T> {
        let data = self.data.into_inner();
        debug_assert_ne!(data & !tag_mask::<T>(), 0, "into_owned on null");
        Owned {
            data,
            _marker: PhantomData,
        }
    }

    /// Loads the raw pointer value without a guard.
    ///
    /// Only meaningful for null-checks and diagnostics; dereferencing the
    /// result is not possible through the safe API.
    pub fn load_raw(&self, ord: Ordering) -> *mut T {
        decompose::<T>(self.data.load(ord)).0
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> From<Owned<T>> for Atomic<T> {
    fn from(owned: Owned<T>) -> Self {
        let data = owned.data;
        std::mem::forget(owned);
        Atomic {
            data: AtomicUsize::new(data),
            _marker: PhantomData,
        }
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (raw, tag) = decompose::<T>(self.data.load(Ordering::Relaxed));
        f.debug_struct("Atomic")
            .field("raw", &raw)
            .field("tag", &tag)
            .finish()
    }
}

/// An owned, heap-allocated `T` that has not yet been published.
///
/// The single-owner analogue of `Box<T>` in the epoch world: create nodes
/// as `Owned`, initialize them freely (it implements `Deref`/`DerefMut`),
/// then publish with [`into_shared`](Owned::into_shared).
pub struct Owned<T> {
    data: usize,
    _marker: PhantomData<Box<T>>,
}

impl<T> Owned<T> {
    /// Allocates `value` on the heap.
    pub fn new(value: T) -> Self {
        Owned {
            data: compose(Box::into_raw(Box::new(value)), 0),
            _marker: PhantomData,
        }
    }

    /// Returns the tag bits.
    pub fn tag(&self) -> usize {
        decompose::<T>(self.data).1
    }

    /// Returns the same pointer with the tag bits set to `tag`.
    pub fn with_tag(mut self, tag: usize) -> Self {
        let (raw, _) = decompose::<T>(self.data);
        self.data = compose(raw, tag);
        self
    }

    /// Publishes the pointer into the guard-protected world.
    ///
    /// Under weak-memory exploration this declares the pointee a
    /// *published region*: the release operation that makes the pointer
    /// reachable must synchronize with readers before they dereference
    /// it, or the explorer reports a region race (see
    /// `cds_atomic::stress::publish_region`).
    pub fn into_shared<'g, G>(self, _guard: &'g G) -> Shared<'g, T> {
        let data = self.data;
        std::mem::forget(self);
        cds_atomic::stress::publish_region(
            decompose::<T>(data).0 as usize,
            std::mem::size_of::<T>(),
        );
        Shared::from_data(data)
    }

    /// Converts back into a plain `Box`, dropping the tag.
    pub fn into_box(self) -> Box<T> {
        let (raw, _) = decompose::<T>(self.data);
        std::mem::forget(self);
        // SAFETY: `raw` came from `Box::into_raw` and we are the unique owner.
        unsafe { Box::from_raw(raw) }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        let (raw, _) = decompose::<T>(self.data);
        // SAFETY: unique ownership.
        unsafe { drop(Box::from_raw(raw)) }
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        let (raw, _) = decompose::<T>(self.data);
        // SAFETY: unique ownership of a valid allocation.
        unsafe { &*raw }
    }
}

impl<T> DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        let (raw, _) = decompose::<T>(self.data);
        // SAFETY: unique ownership of a valid allocation.
        unsafe { &mut *raw }
    }
}

impl<T: fmt::Debug> fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Owned")
            .field("value", &**self)
            .field("tag", &self.tag())
            .finish()
    }
}

/// A pointer to an epoch-protected object, valid for the guard lifetime
/// `'g`.
///
/// `Shared` is `Copy`; it is the loaned, possibly-tagged view of a node that
/// other threads may concurrently unlink. Dereferencing is `unsafe` because
/// the type system cannot know that the *specific* atomic it was loaded from
/// belongs to the data structure the guard pins for — that invariant is the
/// data structure author's obligation.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    pub(crate) fn from_data(data: usize) -> Self {
        Shared {
            data,
            _marker: PhantomData,
        }
    }

    /// The null pointer.
    pub fn null() -> Self {
        Shared {
            data: 0,
            _marker: PhantomData,
        }
    }

    /// Creates a `Shared` from a raw pointer (tag zero).
    ///
    /// Useful for algorithms that stash raw pointers in operation
    /// descriptors and later need to compare-and-exchange against them.
    /// Creating the `Shared` is safe; dereferencing it is governed by
    /// [`deref`](Shared::deref)'s contract as usual.
    pub fn from_raw(raw: *mut T) -> Shared<'g, T> {
        Shared::from_data(compose(raw, 0))
    }

    /// Returns `true` if the pointer (ignoring tag bits) is null.
    pub fn is_null(&self) -> bool {
        decompose::<T>(self.data).0.is_null()
    }

    /// Returns the raw, untagged pointer.
    pub fn as_raw(&self) -> *mut T {
        decompose::<T>(self.data).0
    }

    /// Returns the tag bits.
    pub fn tag(&self) -> usize {
        decompose::<T>(self.data).1
    }

    /// Returns the same pointer with the tag bits set to `tag`.
    pub fn with_tag(&self, tag: usize) -> Shared<'g, T> {
        let (raw, _) = decompose::<T>(self.data);
        Shared::from_data(compose(raw, tag))
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and must point into a data structure
    /// whose reclamation is governed by the collector this guard is pinned
    /// to, so the pointee cannot be freed before `'g` ends.
    pub unsafe fn deref(&self) -> &'g T {
        let (raw, _) = decompose::<T>(self.data);
        debug_assert!(!raw.is_null(), "deref of null Shared");
        cds_atomic::stress::check_region(raw as usize, std::mem::size_of::<T>());
        // SAFETY: per the caller contract above.
        unsafe { &*raw }
    }

    /// Like [`deref`](Shared::deref), but returns `None` for null.
    ///
    /// # Safety
    ///
    /// Same contract as [`deref`](Shared::deref) for the non-null case.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        let (raw, _) = decompose::<T>(self.data);
        if !raw.is_null() {
            cds_atomic::stress::check_region(raw as usize, std::mem::size_of::<T>());
        }
        // SAFETY: per the caller contract.
        unsafe { raw.as_ref() }
    }

    /// Takes ownership of the pointee.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the object is no longer reachable by any
    /// other thread (e.g. a freshly created node that lost its publishing
    /// CAS) and non-null.
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null(), "into_owned on null Shared");
        Owned {
            data: self.data,
            _marker: PhantomData,
        }
    }
}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl<T> Eq for Shared<'_, T> {}

impl<T> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (raw, tag) = decompose::<T>(self.data);
        f.debug_struct("Shared")
            .field("raw", &raw)
            .field("tag", &tag)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch;
    use cds_obs::{Event, Snapshot};
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that compare-exchange an `Atomic`: the CAS
    /// counters are process-wide, and one test asserts exact deltas.
    fn cas_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn tag_round_trip() {
        let guard = epoch::pin();
        let a = Atomic::new(5u64); // align 8 => 3 tag bits
        let p = a.load(Ordering::Relaxed, &guard);
        assert_eq!(p.tag(), 0);
        let tagged = p.with_tag(3);
        assert_eq!(tagged.tag(), 3);
        assert_eq!(tagged.as_raw(), p.as_raw());
        drop(guard);
        unsafe { drop(a.into_owned()) };
    }

    #[test]
    fn fetch_or_sets_mark() {
        let guard = epoch::pin();
        let a = Atomic::new(1u64);
        let before = a.fetch_or(1, Ordering::AcqRel, &guard);
        assert_eq!(before.tag(), 0);
        assert_eq!(a.load(Ordering::Relaxed, &guard).tag(), 1);
        drop(guard);
        unsafe { drop(a.into_owned()) };
    }

    #[test]
    fn compare_exchange_checks_tag() {
        let _cas = cas_lock();
        let guard = epoch::pin();
        let a = Atomic::new(1u64);
        let p = a.load(Ordering::Relaxed, &guard);
        // Wrong expected tag fails even though the pointer matches.
        assert!(a
            .compare_exchange(
                p.with_tag(1),
                p,
                Ordering::AcqRel,
                Ordering::Relaxed,
                &guard
            )
            .is_err());
        drop(guard);
        unsafe { drop(a.into_owned()) };
    }

    #[test]
    fn compare_exchange_counts_its_own_outcome() {
        let _cas = cas_lock();
        let guard = epoch::pin();
        let a = Atomic::new(1u64);
        let p = a.load(Ordering::Relaxed, &guard);
        let base = Snapshot::take();
        let won = a.compare_exchange(
            p,
            p.with_tag(1),
            Ordering::AcqRel,
            Ordering::Relaxed,
            &guard,
        );
        let lost = a.compare_exchange(p, p, Ordering::AcqRel, Ordering::Relaxed, &guard);
        let d = Snapshot::take().delta(&base);
        assert!(won.is_ok() && lost.is_err());
        let expected = |n| if cds_obs::enabled() { n } else { 0 };
        assert_eq!(d.get(Event::CasAttempt), expected(2));
        assert_eq!(d.get(Event::CasSuccess), expected(1));
        assert_eq!(d.get(Event::CasFailure), expected(1));
        drop(guard);
        unsafe { drop(a.into_owned()) };
    }

    #[test]
    fn owned_deref_and_box_round_trip() {
        let mut o = Owned::new(vec![1, 2]);
        o.push(3);
        assert_eq!(o.len(), 3);
        let b = o.into_box();
        assert_eq!(*b, vec![1, 2, 3]);
    }

    #[test]
    fn null_checks() {
        let a: Atomic<u32> = Atomic::null();
        let guard = epoch::pin();
        assert!(a.load(Ordering::Relaxed, &guard).is_null());
        assert!(Shared::<u32>::null().is_null());
        assert!(unsafe { Shared::<u32>::null().as_ref() }.is_none());
    }
}
