use cds_atomic::{AtomicUsize, Ordering};
use std::fmt;

use crate::{CachePadded, RawLock};

/// FIFO-fair ticket lock.
///
/// Two counters implement a bakery-style discipline: each arriving thread
/// takes the next *ticket* with a fetch-and-add, then spins until the
/// *now-serving* counter reaches its ticket. Release increments
/// now-serving, handing the lock to the next ticket holder.
///
/// Compared to [`TtasLock`](crate::TtasLock), the ticket lock guarantees
/// **first-come-first-served fairness** (no starvation) and release is a
/// plain store, but every waiter spins on the shared now-serving counter, so
/// each release still invalidates every waiter's cache line — the problem
/// queue locks ([`ClhLock`](crate::ClhLock), [`McsLock`](crate::McsLock))
/// solve with local spinning. Waiters back off proportionally to their
/// distance from the head of the queue.
///
/// # Example
///
/// ```
/// use cds_sync::{Lock, TicketLock};
///
/// let slot = Lock::<TicketLock, Option<&str>>::new(None);
/// *slot.lock() = Some("served in order");
/// assert_eq!(*slot.lock(), Some("served in order"));
/// ```
#[derive(Default)]
pub struct TicketLock {
    next_ticket: CachePadded<AtomicUsize>,
    now_serving: CachePadded<AtomicUsize>,
}

impl TicketLock {
    /// Creates a new, unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of acquisitions completed or in progress (diagnostics only).
    pub fn tickets_issued(&self) -> usize {
        self.next_ticket.load(Ordering::Relaxed)
    }
}

impl RawLock for TicketLock {
    type Token = ();
    const NAME: &'static str = "ticket";

    fn lock(&self) {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let backoff = crate::Backoff::new();
        loop {
            let serving = self.now_serving.load(Ordering::Acquire);
            if serving == ticket {
                cds_obs::count(cds_obs::Event::TicketAcquire);
                return;
            }
            cds_obs::count(cds_obs::Event::TicketSpin);
            // Proportional backoff: threads far back in line pause longer,
            // reducing pressure on the now-serving line. The trailing
            // `snooze` escalates to `yield_now` so that a FIFO lock does
            // not livelock on an oversubscribed host: if the thread whose
            // turn it is has been descheduled, pure spinning would burn a
            // whole scheduler quantum per hand-off.
            // The inner pause loop is *bounded* (<= 64 pauses) and is
            // followed by `snooze`, which is a stress yield point — so
            // every iteration of the outer wait loop reaches the
            // scheduler. (Audit invariant for this crate: no spin loop
            // may complete an iteration without passing a yield point.)
            let distance = ticket.wrapping_sub(serving);
            for _ in 0..distance.min(64) {
                core::hint::spin_loop();
            }
            // Pure recheck of now-serving until it reaches our ticket.
            backoff.snooze_tagged(cds_atomic::stress::YieldTag::Blocked(
                self as *const Self as usize,
            ));
        }
    }

    fn try_lock(&self) -> Option<()> {
        let serving = self.now_serving.load(Ordering::Acquire);
        // Claim the next ticket only if it would be served immediately.
        if self
            .next_ticket
            .compare_exchange(serving, serving + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            cds_obs::count(cds_obs::Event::TicketAcquire);
            Some(())
        } else {
            None
        }
    }

    #[inline]
    fn unlock(&self, (): ()) {
        let serving = self.now_serving.load(Ordering::Relaxed);
        self.now_serving.store(serving + 1, Ordering::Release);
    }
}

impl fmt::Debug for TicketLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TicketLock")
            .field("next_ticket", &self.next_ticket.load(Ordering::Relaxed))
            .field("now_serving", &self.now_serving.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unlock() {
        let l = TicketLock::new();
        l.lock();
        l.unlock(());
        l.lock();
        l.unlock(());
        assert_eq!(l.tickets_issued(), 2);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let l = TicketLock::new();
        l.lock();
        assert!(l.try_lock().is_none());
        l.unlock(());
        l.try_lock().unwrap();
        l.unlock(());
    }

    #[test]
    fn fifo_order_is_respected() {
        // Threads record the order in which they enter the critical section;
        // with a ticket lock a thread that acquires its ticket first enters
        // first. We validate mutual exclusion plus exact count.
        let l = Arc::new(TicketLock::new());
        let shared = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        l.lock();
                        let v = shared.load(Ordering::Relaxed);
                        shared.store(v + 1, Ordering::Relaxed);
                        l.unlock(());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.load(Ordering::Relaxed), 2000);
    }
}
