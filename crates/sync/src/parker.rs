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
//! fence) checks the waiter count and, only if it is non-zero, bumps the
//! epoch — the common no-sleeper wake is fence + load, no mutex. The two
//! orders close both races (the Dekker pattern): a wake *after* a
//! waiter's prepare changes the epoch so the commit falls through; a
//! wake *before* the prepare implies the state change was already
//! visible to the waiter's re-check. The bump happens *before* the
//! waker takes the mutex and the sleeper checks the epoch *under* it,
//! so the bump cannot land between that check and the condvar wait.
//! Under an active stress scheduler the commit spins through yield
//! points instead of blocking in the kernel (the harness determinism
//! rule), so the PCT and exploration schedulers can interleave
//! park/unpark decisions deterministically.
//!
//! Callers do not sequence those steps by hand: a waiter calls
//! [`Parker::park_unless`] (one prepare / re-check / cancel-or-commit
//! round) or [`Parker::wait_until`] (attempt, then such rounds until the
//! attempt succeeds or the deadline passes), and a waker calls
//! [`Parker::notify`] (the fence plus the conditional wake). The split
//! [`prepare`](Parker::prepare) / [`cancel`](Parker::cancel) /
//! [`park`](Parker::park) steps stay public for code that measures or
//! model-checks them one at a time.

use cds_atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use cds_obs::Event;
use std::fmt;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use cds_atomic::stress;
use cds_atomic::stress::YieldTag;

/// Bound on the deterministic yield-spin a [`Parker::park_timeout`]
/// performs in place of a kernel timed wait while a stress schedule is
/// driving. Wall-clock time is meaningless under a deterministic
/// scheduler, so "timeout" becomes "this many scheduling opportunities
/// passed without a wake".
const STRESS_TIMEOUT_YIELDS: u32 = 64;

/// How one [`Parker::park_unless`] round ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parked<T> {
    /// The post-prepare re-check produced a value; the park was cancelled.
    Ready(T),
    /// The round committed and a wake moved the epoch past its ticket.
    /// The condition may or may not hold now — re-check it.
    Woken,
    /// The deadline passed, before the commit or during it.
    TimedOut,
}

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
        self.commit(ticket, None);
    }

    /// Commit-park with a deadline: block until the epoch moves past
    /// `ticket` or `timeout` elapses (a `timeout` too large to add to
    /// the clock is no deadline at all). Returns `true` if woken,
    /// `false` on timeout (the caller must then re-check its condition
    /// itself — a timeout and a wake can race, and the `false` only
    /// means the deadline passed first here).
    ///
    /// Under an active stress scheduler the kernel timed wait is
    /// replaced by a bounded spin through yield points
    /// ([`STRESS_TIMEOUT_YIELDS`] scheduling opportunities), keeping
    /// seeded schedules free of wall-clock dependence.
    pub fn park_timeout(&self, ticket: u64, timeout: Duration) -> bool {
        self.commit(ticket, Instant::now().checked_add(timeout))
    }

    /// The commit step behind every park: wait for the epoch to leave
    /// `ticket` (or for `deadline`), then stop counting as a waiter.
    /// Returns whether the epoch moved.
    fn commit(&self, ticket: u64, deadline: Option<Instant>) -> bool {
        let woken = if stress::is_active() {
            let mut yields_left = deadline.map(|_| STRESS_TIMEOUT_YIELDS);
            loop {
                if self.epoch.load(Ordering::SeqCst) != ticket {
                    break true;
                }
                if yields_left == Some(0) {
                    break false;
                }
                yields_left = yields_left.map(|n| n - 1);
                // A pure recheck of the epoch word until an unpark bumps
                // it; lets the systematic explorer park this thread until
                // another thread runs.
                stress::yield_point_tagged(YieldTag::Blocked(self as *const Self as usize));
                std::hint::spin_loop();
            }
        } else {
            let mut guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if self.epoch.load(Ordering::SeqCst) != ticket {
                    break true;
                }
                guard = match deadline {
                    None => self.cvar.wait(guard).unwrap_or_else(|p| p.into_inner()),
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            break false;
                        }
                        self.cvar
                            .wait_timeout(guard, deadline - now)
                            .unwrap_or_else(|p| p.into_inner())
                            .0
                    }
                };
            }
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        woken
    }

    /// One whole waiter round: prepare, run `recheck`, and cancel if it
    /// produced a value or `deadline` (`None`: wait forever) has already
    /// passed; otherwise count `parked_event` and commit.
    ///
    /// `recheck` must re-examine the very condition a waker changes
    /// before it calls [`notify`](Self::notify) — that re-check, made
    /// after the prepare, is what closes the lost-wakeup window.
    #[inline]
    pub fn park_unless<T>(
        &self,
        deadline: Option<Instant>,
        parked_event: Event,
        recheck: impl FnOnce() -> Option<T>,
    ) -> Parked<T> {
        let ticket = self.prepare();
        if let Some(ready) = recheck() {
            self.cancel();
            return Parked::Ready(ready);
        }
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            self.cancel();
            return Parked::TimedOut;
        }
        cds_obs::count(parked_event);
        if self.commit(ticket, deadline) {
            Parked::Woken
        } else {
            Parked::TimedOut
        }
    }

    /// Blocks until `attempt` produces a value (`Some`) or `deadline`
    /// passes (`None`): tries once, then alternates
    /// [`park_unless`](Self::park_unless) rounds — with the attempt as
    /// the re-check — and fresh attempts after each wake.
    #[inline]
    pub fn wait_until<T>(
        &self,
        deadline: Option<Instant>,
        parked_event: Event,
        mut attempt: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        loop {
            if let Some(ready) = attempt() {
                return Some(ready);
            }
            match self.park_unless(deadline, parked_event, &mut attempt) {
                Parked::Ready(ready) => return Some(ready),
                Parked::Woken => {}
                Parked::TimedOut => return None,
            }
        }
    }

    /// The waker's half: call after making the awaited state change
    /// visible. The `SeqCst` fence orders that change before the
    /// waiter-count read inside [`unpark_all`](Self::unpark_all),
    /// pairing with the waiter increment in [`prepare`](Self::prepare).
    #[inline]
    pub fn notify(&self) {
        fence(Ordering::SeqCst);
        self.unpark_all();
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
                p.notify();
            })
        };
        let woken = p.park_timeout(ticket, Duration::from_secs(30));
        h.join().unwrap();
        assert!(woken || flag.load(Ordering::SeqCst));
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn unrepresentable_timeout_means_no_deadline() {
        // `Instant::now() + Duration::MAX` panics; the deadline is
        // computed with `checked_add` and `None` waits for the wake.
        let p = Parker::new();
        let ticket = p.prepare();
        p.force_unpark_all();
        assert!(p.park_timeout(ticket, Duration::MAX));
    }

    #[test]
    fn park_unless_cancels_on_ready_recheck_and_on_passed_deadline() {
        let p = Parker::new();
        let ready = p.park_unless(None, Event::ExecParks, || Some(7));
        assert_eq!(ready, Parked::Ready(7));
        let passed = Some(Instant::now());
        let timed_out = p.park_unless(passed, Event::ExecParks, || None::<()>);
        assert_eq!(timed_out, Parked::TimedOut);
        // Both rounds cancelled: nobody is left counted as a waiter, so
        // the conditional wake has nothing to do and the epoch stays put.
        p.notify();
        assert_eq!(p.prepare(), 0);
        p.cancel();
    }

    #[test]
    fn wait_until_times_out_and_returns_a_late_value() {
        let p = Parker::new();
        let soon = Instant::now().checked_add(Duration::from_millis(5));
        assert_eq!(p.wait_until(soon, Event::ExecParks, || None::<u8>), None);
        let mut calls = 0;
        let got = p.wait_until(None, Event::ExecParks, || {
            calls += 1;
            // Empty on the attempt, ready on the post-prepare re-check.
            (calls == 2).then_some(calls)
        });
        assert_eq!(got, Some(2));
    }

    #[test]
    fn cross_thread_wait_until_and_notify() {
        let p = Arc::new(Parker::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let p = Arc::clone(&p);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                p.wait_until(None, Event::ExecParks, || {
                    flag.load(Ordering::SeqCst).then_some(())
                })
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        flag.store(true, Ordering::SeqCst);
        p.notify();
        assert_eq!(waiter.join().unwrap(), Some(()));
    }
}
