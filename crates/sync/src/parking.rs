use cds_atomic::stress::{self, YieldTag};
use cds_atomic::{AtomicBool, Ordering};
use cds_obs::Event;

use crate::{Lock, LockGuard, Parker, RawLock};

/// Parkers shared by every [`ParkingLock`], a lock picking its slot by
/// address. Locks that share a slot only cost each other spurious
/// wake-ups: a woken waiter re-tries its own lock and parks again.
const PARKERS: usize = 1 << PARKER_BITS;
const PARKER_BITS: u32 = 6;

static TABLE: [Parker; PARKERS] = [const { Parker::new() }; PARKERS];

/// The blocking mutex every lock-based structure in the family locks
/// through: one byte of lock word on the `cds-atomic` facade, so the
/// weak-memory explorer sees the lock's acquire/release edges.
///
/// * **Fast path:** test, then CAS the word from free to held.
/// * **Slow path:** [`Parker::wait_until`] on the lock's slot of a
///   `static` table of parkers, with the same attempt as the re-check:
///   a short spin learned from recent waits, then park rounds (counted
///   as `mutex_parks`).
/// * **Unlock:** a `Release` store of the free word, then the slot's
///   [`Parker::notify`] (a fence and a waiter-count load when nobody is
///   parked).
///
/// Under an active stress scheduler a waiter never parks. It re-tries
/// with a [`YieldTag::Blocked`] yield between attempts, after a
/// [`YieldTag::Write`] yield before the first and one untagged yield
/// once it holds the lock, so the scheduler can grant the holder its
/// steps.
///
/// The lock does not poison: a [`LockGuard`] dropped during unwinding
/// releases it, and the next holder takes over the data as it was left.
///
/// # Example
///
/// ```
/// use cds_sync::Mutex;
///
/// let m = Mutex::new(vec![1]);
/// m.lock().push(2);
/// assert_eq!(m.into_inner(), [1, 2]);
/// ```
#[derive(Debug, Default)]
pub struct ParkingLock {
    locked: AtomicBool,
}

/// A data-carrying [`ParkingLock`]: the family's blocking mutex.
pub type Mutex<T> = Lock<ParkingLock, T>;

/// RAII guard returned by [`Mutex::lock`](Lock::lock).
pub type MutexGuard<'a, T> = LockGuard<'a, ParkingLock, T>;

impl ParkingLock {
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// This lock's slot of [`TABLE`]: the top bits of a Fibonacci hash of
    /// the address, so adjacent one-byte locks land on different slots.
    fn parker(&self) -> &'static Parker {
        let hash = (self.addr() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &TABLE[(hash >> (64 - PARKER_BITS)) as usize]
    }

    fn cas(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn try_acquire(&self) -> bool {
        !self.locked.load(Ordering::Relaxed) && self.cas()
    }
}

impl RawLock for ParkingLock {
    type Token = ();
    const NAME: &'static str = "parking";

    fn lock(&self) {
        // The entry tag: the step up to the next yield is one attempt on
        // this lock word. The post-acquire yield stays untagged because
        // the step after it is the caller's critical section, which may
        // touch anything.
        stress::yield_point_tagged(YieldTag::Write(self.addr()));
        if stress::is_active() {
            // Nothing may block in the kernel under a deterministic
            // schedule: no step is granted while a registered thread
            // sleeps on a lock a paused worker holds. Each attempt is the
            // CAS alone: a failed CAS reads the latest value, where a
            // stale test read would only make the weak-memory explorer
            // branch on a delay.
            while !self.cas() {
                stress::yield_point_tagged(YieldTag::Blocked(self.addr()));
                std::thread::yield_now();
            }
        } else if !self.try_acquire() {
            self.parker()
                .wait_until(None, Event::MutexParks, || self.try_acquire().then_some(()));
        }
        stress::yield_point();
    }

    #[inline]
    fn try_lock(&self) -> Option<()> {
        self.try_acquire().then_some(())
    }

    #[inline]
    fn unlock(&self, (): ()) {
        self.locked.store(false, Ordering::Release);
        self.parker().notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_word_is_one_byte() {
        assert_eq!(std::mem::size_of::<ParkingLock>(), 1);
        assert_eq!(std::mem::size_of::<Mutex<()>>(), 1);
    }

    #[test]
    fn adjacent_locks_spread_over_the_table() {
        let locks: Vec<ParkingLock> = (0..PARKERS).map(|_| ParkingLock::default()).collect();
        let mut slots: Vec<*const Parker> = locks.iter().map(|l| l.parker() as *const _).collect();
        slots.sort_unstable();
        slots.dedup();
        assert!(slots.len() > PARKERS / 2, "{} slots", slots.len());
    }
}
