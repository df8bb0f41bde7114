use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::RawLock;

/// A data-carrying mutex generic over the locking discipline.
///
/// `Lock<L, T>` pairs any [`RawLock`] implementation `L` with a value of
/// type `T`, exposing the familiar RAII guard API of [`std::sync::Mutex`]
/// while letting the caller (or benchmark) choose the spin-lock algorithm.
///
/// # Example
///
/// ```
/// use cds_sync::{Lock, TicketLock};
///
/// let shared = Lock::<TicketLock, Vec<u32>>::new(vec![1, 2]);
/// shared.lock().push(3);
/// assert_eq!(&*shared.lock(), &[1, 2, 3]);
/// ```
///
/// The lock word comes first (`repr(C)`), so locking and then reading the
/// first fields of `T` touches one contiguous run of bytes. `ResizingMap`
/// lays out its buckets for that: a hit in the first inline slot reads the
/// first 56 bytes of the lock.
#[derive(Default)]
#[repr(C)]
pub struct Lock<L: RawLock, T> {
    raw: L,
    data: UnsafeCell<T>,
}

// SAFETY: `Lock` provides mutual exclusion for all access to `data`; the
// usual Mutex bounds apply.
unsafe impl<L: RawLock, T: Send> Send for Lock<L, T> {}
unsafe impl<L: RawLock, T: Send> Sync for Lock<L, T> {}

impl<L: RawLock, T> Lock<L, T> {
    /// Creates a new lock protecting `value`.
    pub fn new(value: T) -> Self {
        Lock {
            raw: L::default(),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning until it is available.
    pub fn lock(&self) -> LockGuard<'_, L, T> {
        let token = self.raw.lock();
        LockGuard {
            lock: self,
            token: Some(token),
        }
    }

    /// Attempts to acquire the lock without waiting.
    ///
    /// Returns `None` if the lock is held, or if the underlying raw lock
    /// does not support try-acquisition (see [`RawLock::try_lock`]).
    pub fn try_lock(&self) -> Option<LockGuard<'_, L, T>> {
        self.raw.try_lock().map(|token| LockGuard {
            lock: self,
            token: Some(token),
        })
    }

    /// Returns a mutable reference to the data without locking.
    ///
    /// Safe because the exclusive borrow statically guarantees no other
    /// thread holds the lock.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<L: RawLock, T: fmt::Debug> fmt::Debug for Lock<L, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f
                .debug_struct("Lock")
                .field("algorithm", &L::NAME)
                .field("data", &&*guard)
                .finish(),
            None => f
                .debug_struct("Lock")
                .field("algorithm", &L::NAME)
                .field("data", &format_args!("<locked or try-unsupported>"))
                .finish(),
        }
    }
}

/// RAII guard for [`Lock`]; releases the lock on drop.
pub struct LockGuard<'a, L: RawLock, T> {
    lock: &'a Lock<L, T>,
    token: Option<L::Token>,
}

impl<L: RawLock, T> Deref for LockGuard<'_, L, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard witnesses exclusive ownership of the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<L: RawLock, T> DerefMut for LockGuard<'_, L, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<L: RawLock, T> Drop for LockGuard<'_, L, T> {
    fn drop(&mut self) {
        let token = self.token.take().expect("guard dropped twice");
        self.lock.raw.unlock(token);
    }
}

impl<L: RawLock, T: fmt::Debug> fmt::Debug for LockGuard<'_, L, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("LockGuard").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{ClhLock, Lock, McsLock, Mutex, ParkingLock, TasLock, TicketLock, TtasLock};
    use std::sync::Arc;
    use std::time::Duration;

    fn exercise<L: crate::RawLock + 'static>() {
        let shared = Arc::new(Lock::<L, u64>::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        *shared.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*shared.lock(), 1000);
    }

    #[test]
    fn all_disciplines_provide_mutual_exclusion() {
        exercise::<TasLock>();
        exercise::<TtasLock>();
        exercise::<TicketLock>();
        exercise::<ClhLock>();
        exercise::<McsLock>();
        exercise::<ParkingLock>();
    }

    #[test]
    fn parking_lock_waiters_park_while_the_holder_sleeps() {
        let parks = || cds_obs::Snapshot::take().get(cds_obs::Event::MutexParks);
        let parks_before = parks();
        let shared = Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..4 {
                        let mut guard = shared.lock();
                        let seen = *guard;
                        // A 1 ms hold outlasts any spin: the others park.
                        std::thread::sleep(Duration::from_millis(1));
                        *guard = seen + 1;
                    }
                });
            }
        });
        assert_eq!(shared.into_inner(), 32);
        if cds_obs::enabled() {
            assert!(parks() > parks_before, "no waiter parked");
        }
    }

    #[test]
    fn lock_word_sits_at_offset_zero() {
        use std::mem::offset_of;
        assert_eq!(offset_of!(Mutex<[u64; 12]>, raw), 0);
        assert_eq!(offset_of!(Mutex<[u64; 12]>, data), 8);
        assert_eq!(offset_of!(Lock<TicketLock, [u8; 3]>, raw), 0);
    }

    #[test]
    fn guard_releases_the_lock_during_unwinding() {
        let m = Mutex::new(7);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = m.lock();
                panic!("die holding the lock");
            })
            .join()
            .is_err()
        });
        assert!(died);
        // No poisoning: the next holder takes the data over as it was left.
        assert_eq!(*m.try_lock().expect("unwinding released the lock"), 7);
    }

    #[test]
    fn guard_releases_on_drop() {
        let l = Lock::<TasLock, i32>::new(0);
        {
            let mut g = l.lock();
            *g = 9;
        }
        assert_eq!(*l.try_lock().expect("lock must be free after drop"), 9);
    }

    #[test]
    fn get_mut_and_into_inner() {
        let mut l = Lock::<TtasLock, i32>::new(1);
        *l.get_mut() += 1;
        assert_eq!(l.into_inner(), 2);
    }

    #[test]
    fn debug_is_nonempty() {
        let l = Lock::<TasLock, i32>::new(3);
        assert!(format!("{l:?}").contains("tas"));
    }
}
