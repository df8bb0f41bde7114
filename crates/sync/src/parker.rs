//! Eventcount parker: the one audited block/wake protocol shared by the
//! executor (`cds-exec`) and the channels (`cds-chan`).
//!
//! Parking uses an *eventcount* (`epoch` counter + mutex/condvar):
//!
//! 1. **prepare**: the waiter increments the parked-waiter count and
//!    reads the current epoch as its ticket;
//! 2. **re-check**: it re-examines the condition it is about to wait on
//!    *after* the prepare — if the condition already holds it cancels;
//! 3. **commit**: it blocks until the epoch moves past its ticket.
//!
//! A waker makes its state change visible, then (behind a `SeqCst`
//! fence) checks the waiter count and bumps the epoch. The two orders
//! close both races: a wake *after* a waiter's prepare changes the
//! epoch so the commit falls through; a wake *before* the prepare
//! implies the state change was already visible to the waiter's
//! re-check. Under an active stress scheduler the commit spins through
//! yield points instead of blocking in the kernel (the harness
//! determinism rule), so the PCT and exploration schedulers can
//! interleave park/unpark decisions deterministically.

use cds_atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::fmt;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use cds_atomic::stress;
use cds_atomic::stress::YieldTag;

/// Bound on the deterministic yield-spin a [`Parker::park_timeout`]
/// performs in place of a kernel timed wait while a stress schedule is
/// driving. Wall-clock time is meaningless under a deterministic
/// scheduler, so "timeout" becomes "this many scheduling opportunities
/// passed without a wake".
const STRESS_TIMEOUT_YIELDS: u32 = 64;

/// An eventcount: the prepare / re-check / commit parking protocol.
///
/// See the module docs for the lost-wakeup argument. The lincheck suite
/// model-checks this protocol directly (an eventcount spec runs it
/// under both the PCT and the systematic exploration schedulers).
pub struct Parker {
    /// Bumped by every unpark; a parked waiter sleeps only while the
    /// epoch still equals the ticket it drew at prepare time.
    epoch: AtomicU64,
    /// Threads between prepare and wake; lets the wake fast path skip
    /// the mutex when nobody can be parked.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cvar: Condvar,
}

impl Parker {
    /// Creates an eventcount with no waiters and epoch zero.
    pub fn new() -> Self {
        Parker {
            epoch: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cvar: Condvar::new(),
        }
    }

    /// Prepare-park: announce this thread as a waiter, then draw the
    /// epoch ticket. The `SeqCst` ordering pairs with the fence a waker
    /// issues between making its state change visible and reading the
    /// waiter count: either the waker sees our waiter increment (and
    /// bumps the epoch), or we see its change in the caller's re-check.
    pub fn prepare(&self) -> u64 {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        self.epoch.load(Ordering::SeqCst)
    }

    /// Abandon a prepared park (the re-check found the condition
    /// already satisfied).
    pub fn cancel(&self) {
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Commit-park: block until the epoch moves past `ticket`. Under an
    /// active stress scheduler this spins through yield points instead —
    /// nothing may block in the kernel while a deterministic schedule is
    /// running.
    pub fn park(&self, ticket: u64) {
        if stress::is_active() {
            while self.epoch.load(Ordering::SeqCst) == ticket {
                // A pure recheck of the epoch word until an unpark bumps
                // it; lets the systematic explorer park this thread until
                // another thread runs.
                stress::yield_point_tagged(YieldTag::Blocked(self as *const Self as usize));
                std::hint::spin_loop();
            }
        } else {
            let mut guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
            while self.epoch.load(Ordering::SeqCst) == ticket {
                guard = self.cvar.wait(guard).unwrap_or_else(|p| p.into_inner());
            }
            drop(guard);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Commit-park with a deadline: block until the epoch moves past
    /// `ticket` or `timeout` elapses. Returns `true` if woken, `false`
    /// on timeout (the caller must then re-check its condition itself —
    /// a timeout and a wake can race, and the `false` only means the
    /// deadline passed first here).
    ///
    /// Under an active stress scheduler the kernel timed wait is
    /// replaced by a bounded spin through yield points
    /// ([`STRESS_TIMEOUT_YIELDS`] scheduling opportunities), keeping
    /// seeded schedules free of wall-clock dependence.
    pub fn park_timeout(&self, ticket: u64, timeout: Duration) -> bool {
        let woken = if stress::is_active() {
            let mut woken = false;
            for _ in 0..STRESS_TIMEOUT_YIELDS {
                if self.epoch.load(Ordering::SeqCst) != ticket {
                    woken = true;
                    break;
                }
                stress::yield_point_tagged(YieldTag::Blocked(self as *const Self as usize));
                std::hint::spin_loop();
            }
            woken || self.epoch.load(Ordering::SeqCst) != ticket
        } else {
            let deadline = std::time::Instant::now() + timeout;
            let mut guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if self.epoch.load(Ordering::SeqCst) != ticket {
                    break true;
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    break false;
                }
                let (g, _res) = self
                    .cvar
                    .wait_timeout(guard, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                guard = g;
            }
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        woken
    }

    /// Wake every parked thread if any thread might be parked; the
    /// caller must have made its state change visible before calling
    /// (see [`prepare`](Self::prepare) for the pairing).
    pub fn unpark_all(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        self.force_unpark_all();
    }

    /// Wake every parked thread unconditionally (shutdown/close path).
    pub fn force_unpark_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Acquiring the mutex after the bump means the bump cannot land
        // between a committing waiter's epoch check (done under this
        // lock) and its condvar wait — the classic lost-wakeup window.
        drop(self.lock.lock().unwrap_or_else(|p| p.into_inner()));
        self.cvar.notify_all();
    }
}

impl Default for Parker {
    fn default() -> Self {
        Parker::new()
    }
}

impl fmt::Debug for Parker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Parker")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("waiters", &self.waiters.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wake_after_prepare_falls_through() {
        let p = Parker::new();
        let ticket = p.prepare();
        p.force_unpark_all();
        // The epoch moved past our ticket, so the commit returns at once.
        p.park(ticket);
    }

    #[test]
    fn timeout_expires_without_wake() {
        let p = Parker::new();
        let ticket = p.prepare();
        assert!(!p.park_timeout(ticket, Duration::from_millis(10)));
    }

    #[test]
    fn timeout_woken_by_unpark() {
        let p = Arc::new(Parker::new());
        let flag = Arc::new(AtomicBool::new(false));
        let ticket = p.prepare();
        let h = {
            let p = Arc::clone(&p);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                flag.store(true, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                p.unpark_all();
            })
        };
        let woken = p.park_timeout(ticket, Duration::from_secs(30));
        h.join().unwrap();
        assert!(woken || flag.load(Ordering::SeqCst));
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn cross_thread_park_unpark() {
        let p = Arc::new(Parker::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let p = Arc::clone(&p);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || loop {
                let ticket = p.prepare();
                if flag.load(Ordering::SeqCst) {
                    p.cancel();
                    return;
                }
                p.park(ticket);
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        flag.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        p.unpark_all();
        waiter.join().unwrap();
    }
}
