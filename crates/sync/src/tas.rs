use cds_atomic::{AtomicBool, Ordering};
use std::fmt;

use crate::RawLock;

/// Test-and-set spin lock.
///
/// The simplest possible lock: a single flag, acquired by atomically
/// swapping `true` in and observing the old value. Every acquisition
/// attempt is a read-modify-write, so under contention each spin invalidates
/// the flag's cache line in every other spinner — the classic scalability
/// failure that [`TtasLock`](crate::TtasLock) fixes. It is included as the
/// baseline in the lock benchmarks (experiment E9) and because for
/// *uncontended* use it is as fast as anything.
///
/// # Example
///
/// ```
/// use cds_sync::{Lock, TasLock};
///
/// let data = Lock::<TasLock, i32>::new(7);
/// *data.lock() += 1;
/// assert_eq!(*data.lock(), 8);
/// ```
#[derive(Default)]
pub struct TasLock {
    locked: AtomicBool,
}

impl TasLock {
    /// Creates a new, unlocked lock.
    pub const fn new() -> Self {
        TasLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Returns `true` if the lock is currently held.
    ///
    /// This is inherently racy and useful only for diagnostics.
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }
}

impl RawLock for TasLock {
    type Token = ();
    const NAME: &'static str = "tas";

    #[inline]
    fn lock(&self) {
        while self.locked.swap(true, Ordering::Acquire) {
            // A bare spin is a scheduling blind spot under the stress
            // scheduler: the paused holder is granted no step while this
            // thread spins without pausing. Keep the naive TAS spin (the
            // point of this lock) but give the scheduler a preemption
            // hook. The next step is another swap attempt on the flag,
            // hence `Write`.
            cds_atomic::stress::yield_point_tagged(cds_atomic::stress::YieldTag::Write(
                self as *const Self as usize,
            ));
            cds_obs::count(cds_obs::Event::TasSpin);
            core::hint::spin_loop();
        }
        cds_obs::count(cds_obs::Event::TasAcquire);
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        if self.locked.swap(true, Ordering::Acquire) {
            None
        } else {
            cds_obs::count(cds_obs::Event::TasAcquire);
            Some(())
        }
    }

    #[inline]
    fn unlock(&self, (): ()) {
        self.locked.store(false, Ordering::Release);
    }
}

impl fmt::Debug for TasLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TasLock")
            .field("locked", &self.is_locked())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_unlock() {
        let l = TasLock::new();
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        l.unlock(());
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_fails_when_held() {
        let l = TasLock::new();
        l.lock();
        assert!(l.try_lock().is_none());
        l.unlock(());
        l.try_lock().expect("lock should be free");
        l.unlock(());
    }
}
