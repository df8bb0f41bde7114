use cds_atomic::{AtomicBool, AtomicPtr, Ordering};
use std::fmt;
use std::ptr;

use crate::{Backoff, RawLock};

struct Node {
    locked: AtomicBool,
}

/// CLH queue lock (Craig; Landin & Hagersten).
///
/// Arriving threads enqueue a node holding a `locked` flag and spin on the
/// flag of their **predecessor's** node. Because each thread spins on a
/// distinct location, a release invalidates exactly one waiter's cache line
/// instead of all of them (contrast [`TicketLock`](crate::TicketLock)), and
/// acquisition order is FIFO.
///
/// # Memory management
///
/// The textbook CLH lock recycles the predecessor's node for the thread's
/// next acquisition. This implementation heap-allocates one node per
/// acquisition and frees the predecessor's node as soon as its release has
/// been observed — at that point the releasing thread has abandoned the
/// node, so exactly one thread (the observer) owns it. The node currently
/// installed in `tail` is freed when the lock itself is dropped.
///
/// [`try_lock`](RawLock::try_lock) always fails: a cheap try-acquire cannot
/// be implemented without risking a read of a node that a successor may
/// concurrently free.
///
/// # Example
///
/// ```
/// use cds_sync::{ClhLock, Lock};
///
/// let total = Lock::<ClhLock, u32>::new(0);
/// *total.lock() += 5;
/// assert_eq!(*total.lock(), 5);
/// ```
pub struct ClhLock {
    tail: AtomicPtr<Node>,
}

/// Token for a held [`ClhLock`]; returned by `lock` and consumed by `unlock`.
pub struct ClhToken {
    node: *mut Node,
}

impl fmt::Debug for ClhToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClhToken").finish_non_exhaustive()
    }
}

impl Default for ClhLock {
    fn default() -> Self {
        // A released sentinel node so the first locker has a predecessor.
        let sentinel = Box::into_raw(Box::new(Node {
            locked: AtomicBool::new(false),
        }));
        ClhLock {
            tail: AtomicPtr::new(sentinel),
        }
    }
}

impl ClhLock {
    /// Creates a new, unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RawLock for ClhLock {
    type Token = ClhToken;
    const NAME: &'static str = "clh";

    fn lock(&self) -> ClhToken {
        let me = Box::into_raw(Box::new(Node {
            locked: AtomicBool::new(true),
        }));
        // AcqRel: publish our node's initialization to our successor and
        // observe the predecessor's initialization.
        let pred = self.tail.swap(me, Ordering::AcqRel);
        let backoff = Backoff::new();
        // SAFETY: `pred` was produced by a previous `swap` (or is the
        // sentinel) and is freed only by the thread that observes its
        // release — which is us, below, after this loop.
        unsafe {
            while (*pred).locked.load(Ordering::Acquire) {
                cds_obs::count(cds_obs::Event::ClhSpin);
                // Pure recheck of the predecessor's release flag.
                backoff.snooze_tagged(cds_atomic::stress::YieldTag::Blocked(
                    self as *const Self as usize,
                ));
            }
            // The predecessor released and will never touch its node again;
            // we are the only thread holding a reference to it.
            drop(Box::from_raw(pred));
        }
        cds_obs::count(cds_obs::Event::ClhAcquire);
        ClhToken { node: me }
    }

    fn try_lock(&self) -> Option<ClhToken> {
        // See type-level docs: cannot be implemented without a use-after-free
        // hazard on the tail node, so the CLH lock never try-acquires.
        None
    }

    fn unlock(&self, token: ClhToken) {
        // SAFETY: `token.node` is the node we installed in `lock`; until this
        // store only we reference it mutably, and after this store we never
        // touch it again (ownership passes to the observer of the release).
        unsafe {
            (*token.node).locked.store(false, Ordering::Release);
        }
    }
}

impl Drop for ClhLock {
    fn drop(&mut self) {
        // At rest exactly one node — the current tail — is still allocated.
        let tail = self.tail.swap(ptr::null_mut(), Ordering::Relaxed);
        if !tail.is_null() {
            // SAFETY: exclusive access (`&mut self`); no thread can hold the
            // lock when it is being dropped.
            unsafe { drop(Box::from_raw(tail)) };
        }
    }
}

// SAFETY: the raw pointers are owned per the protocol documented above;
// all cross-thread hand-offs go through atomics with acquire/release.
unsafe impl Send for ClhLock {}
unsafe impl Sync for ClhLock {}

impl fmt::Debug for ClhLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClhLock").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_repeatedly() {
        let l = ClhLock::new();
        for _ in 0..100 {
            let t = l.lock();
            l.unlock(t);
        }
    }

    #[test]
    fn try_lock_always_fails() {
        let l = ClhLock::new();
        assert!(l.try_lock().is_none());
    }

    #[test]
    fn mutual_exclusion() {
        let l = Arc::new(ClhLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let t = l.lock();
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        l.unlock(t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn drop_while_idle_does_not_leak_or_crash() {
        let l = ClhLock::new();
        let t = l.lock();
        l.unlock(t);
        drop(l);
    }
}
