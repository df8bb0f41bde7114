use cds_atomic::{AtomicBool, Ordering};
use std::fmt;

use crate::{Backoff, RawLock};

/// Test-and-test-and-set spin lock with exponential backoff.
///
/// Fixes the two problems of [`TasLock`](crate::TasLock) under contention:
///
/// 1. **Local spinning** — waiters first *read* the flag (a cache hit while
///    the lock is held) and only attempt the expensive atomic swap once the
///    flag is observed clear, so spinning does not generate coherence
///    traffic.
/// 2. **Exponential backoff** — after every failed swap the waiter pauses
///    for an exponentially growing interval ([`Backoff`]), spreading
///    acquisition attempts apart and avoiding the stampede when the lock is
///    released.
///
/// This is the lock the literature recommends when a simple spin lock is
/// needed and fairness is not a requirement.
///
/// # Example
///
/// ```
/// use cds_sync::{Lock, TtasLock};
///
/// let data = Lock::<TtasLock, Vec<i32>>::new(Vec::new());
/// data.lock().push(1);
/// assert_eq!(data.lock().len(), 1);
/// ```
#[derive(Default)]
pub struct TtasLock {
    locked: AtomicBool,
}

impl TtasLock {
    /// Creates a new, unlocked lock.
    pub const fn new() -> Self {
        TtasLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Returns `true` if the lock is currently held (racy; diagnostics only).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }
}

impl RawLock for TtasLock {
    type Token = ();
    const NAME: &'static str = "ttas";

    fn lock(&self) {
        let backoff = Backoff::new();
        let addr = self as *const Self as usize;
        loop {
            // Test: spin on a plain read until the lock looks free. A
            // pure recheck of the flag — `Blocked` lets the systematic
            // explorer park this thread until someone else runs.
            while self.locked.load(Ordering::Relaxed) {
                cds_obs::count(cds_obs::Event::TtasSpin);
                backoff.snooze_tagged(cds_atomic::stress::YieldTag::Blocked(addr));
            }
            // Test-and-set: race for it.
            if !self.locked.swap(true, Ordering::Acquire) {
                cds_obs::count(cds_obs::Event::TtasAcquire);
                return;
            }
            cds_obs::count(cds_obs::Event::TtasSpin);
            backoff.spin_tagged(cds_atomic::stress::YieldTag::Write(addr));
        }
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        if !self.locked.load(Ordering::Relaxed) && !self.locked.swap(true, Ordering::Acquire) {
            cds_obs::count(cds_obs::Event::TtasAcquire);
            Some(())
        } else {
            None
        }
    }

    #[inline]
    fn unlock(&self, (): ()) {
        self.locked.store(false, Ordering::Release);
    }
}

impl fmt::Debug for TtasLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TtasLock")
            .field("locked", &self.is_locked())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_unlock() {
        let l = TtasLock::new();
        l.lock();
        assert!(l.is_locked());
        l.unlock(());
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_semantics() {
        let l = TtasLock::new();
        l.try_lock().unwrap();
        assert!(l.try_lock().is_none());
        l.unlock(());
        assert!(l.try_lock().is_some());
    }
}
