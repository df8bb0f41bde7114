use cds_atomic::{AtomicBool, AtomicPtr, Ordering};
use std::fmt;
use std::ptr;

use crate::{Backoff, RawLock};

struct Node {
    locked: AtomicBool,
    next: AtomicPtr<Node>,
}

/// MCS queue lock (Mellor-Crummey & Scott).
///
/// Like [`ClhLock`](crate::ClhLock), arriving threads form an explicit
/// queue, but each thread spins on a flag in its **own** node; the releasing
/// thread follows its `next` pointer and clears the successor's flag. This
/// keeps spinning purely local even on machines without coherent caches and
/// is the design used inside most production queued locks (e.g. the Linux
/// kernel's qspinlock).
///
/// Acquisition order is FIFO. [`try_lock`](RawLock::try_lock) succeeds only
/// when the queue is empty, via a single CAS.
///
/// # Memory management
///
/// One node is heap-allocated per acquisition and freed by the releasing
/// thread once the successor (if any) has been signalled; the hand-off
/// protocol guarantees no other thread references the node at that point.
///
/// # Example
///
/// ```
/// use cds_sync::{Lock, McsLock};
///
/// let cell = Lock::<McsLock, String>::new(String::new());
/// cell.lock().push_str("queued");
/// assert_eq!(&*cell.lock(), "queued");
/// ```
pub struct McsLock {
    tail: AtomicPtr<Node>,
}

/// Token for a held [`McsLock`]; returned by `lock` and consumed by `unlock`.
pub struct McsToken {
    node: *mut Node,
}

impl fmt::Debug for McsToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("McsToken").finish_non_exhaustive()
    }
}

impl Default for McsLock {
    fn default() -> Self {
        McsLock {
            tail: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

impl McsLock {
    /// Creates a new, unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    fn new_node() -> *mut Node {
        Box::into_raw(Box::new(Node {
            locked: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

impl RawLock for McsLock {
    type Token = McsToken;
    const NAME: &'static str = "mcs";

    fn lock(&self) -> McsToken {
        let me = Self::new_node();
        // AcqRel: publish our node and observe the predecessor's.
        let pred = self.tail.swap(me, Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: the predecessor node is freed only by its owner in
            // `unlock`, and the owner waits until `next` is non-null before
            // doing so, so it is alive while we store into it.
            unsafe {
                (*pred).next.store(me, Ordering::Release);
                let backoff = Backoff::new();
                while (*me).locked.load(Ordering::Acquire) {
                    cds_obs::count(cds_obs::Event::McsSpin);
                    // Pure recheck of our node's hand-off flag.
                    backoff.snooze_tagged(cds_atomic::stress::YieldTag::Blocked(
                        self as *const Self as usize,
                    ));
                }
            }
        }
        cds_obs::count(cds_obs::Event::McsAcquire);
        McsToken { node: me }
    }

    fn try_lock(&self) -> Option<McsToken> {
        let me = Self::new_node();
        match self
            .tail
            .compare_exchange(ptr::null_mut(), me, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => {
                cds_obs::count(cds_obs::Event::McsAcquire);
                Some(McsToken { node: me })
            }
            Err(_) => {
                // SAFETY: `me` was never published.
                unsafe { drop(Box::from_raw(me)) };
                None
            }
        }
    }

    fn unlock(&self, token: McsToken) {
        let me = token.node;
        // SAFETY: we own `me` until the hand-off below completes; the only
        // foreign write into it is the successor's store to `next`, which
        // happens-before our acquire load observing it non-null.
        unsafe {
            let mut next = (*me).next.load(Ordering::Acquire);
            if next.is_null() {
                // No known successor: if the queue still ends with us, detach.
                if self
                    .tail
                    .compare_exchange(me, ptr::null_mut(), Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    drop(Box::from_raw(me));
                    return;
                }
                // A successor is between its swap and its `next` store.
                // `spin` (not `snooze`): the wait is two instructions
                // long on the successor's side. It still opens with a
                // stress yield point, so this loop — the only spin in an
                // unlock path in this crate — cannot stall a
                // deterministic schedule.
                let backoff = Backoff::new();
                loop {
                    next = (*me).next.load(Ordering::Acquire);
                    if !next.is_null() {
                        break;
                    }
                    // Pure recheck of the successor's `next` link.
                    backoff.spin_tagged(cds_atomic::stress::YieldTag::Blocked(
                        self as *const Self as usize,
                    ));
                }
            }
            (*next).locked.store(false, Ordering::Release);
            // The successor never touches our node after setting `next`.
            drop(Box::from_raw(me));
        }
    }
}

impl Drop for McsLock {
    fn drop(&mut self) {
        // When no thread holds or waits for the lock, `tail` is null and no
        // nodes are outstanding. Holding a token across the lock's drop is a
        // usage error; the token's node is leaked rather than freed unsafely.
        debug_assert!(self.tail.load(Ordering::Relaxed).is_null());
    }
}

// SAFETY: the raw pointers follow the hand-off ownership protocol documented
// above; all cross-thread transfers use acquire/release atomics.
unsafe impl Send for McsLock {}
unsafe impl Sync for McsLock {}

impl fmt::Debug for McsLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("McsLock")
            .field("queued", &!self.tail.load(Ordering::Relaxed).is_null())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_repeatedly() {
        let l = McsLock::new();
        for _ in 0..100 {
            let t = l.lock();
            l.unlock(t);
        }
    }

    #[test]
    fn try_lock_when_free_and_held() {
        let l = McsLock::new();
        let t = l.try_lock().expect("free lock should try-acquire");
        assert!(l.try_lock().is_none());
        l.unlock(t);
        let t2 = l.try_lock().unwrap();
        l.unlock(t2);
    }

    #[test]
    fn mutual_exclusion() {
        let l = Arc::new(McsLock::new());
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
}
