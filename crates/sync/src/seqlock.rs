use cds_atomic::{fence, AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::fmt;

use crate::Backoff;

/// A sequence lock for small `Copy` data.
///
/// A seqlock lets readers proceed **without writing any shared state**:
/// a reader samples a sequence counter, copies the data optimistically,
/// and re-checks the counter; if the counter is unchanged and even, no
/// writer interfered and the copy is consistent. Writers increment the
/// counter to odd before writing and back to even after, and exclude each
/// other with a CAS on the same counter.
///
/// Reads are wait-free in the absence of writers and never cause cache-line
/// invalidations, which is why seqlocks guard frequently-read,
/// rarely-written kernel data (e.g. Linux's `jiffies`).
///
/// `T` must be `Copy`: a torn read is discarded before it is ever
/// interpreted, which is only sound for plain-old-data.
///
/// # Implementation note
///
/// The optimistic read races with writers by design. The implementation
/// copies the payload with volatile reads between acquire fences and
/// discards the copy when the sequence check fails — the standard seqlock
/// construction used by `crossbeam`'s `AtomicCell` fallback and the Linux
/// kernel. (Strictly, the C++11/Rust memory model has no way to express a
/// benign data race; the volatile+fence idiom is the accepted practical
/// encoding.)
///
/// # Example
///
/// ```
/// use cds_sync::SeqLock;
///
/// let config = SeqLock::new((800u32, 600u32));
/// config.write((1024, 768));
/// assert_eq!(config.read(), (1024, 768));
/// ```
pub struct SeqLock<T> {
    seq: AtomicUsize,
    data: UnsafeCell<T>,
}

// SAFETY: readers only ever observe committed values (sequence-validated
// copies); writers are mutually exclusive via the sequence counter.
unsafe impl<T: Copy + Send> Send for SeqLock<T> {}
unsafe impl<T: Copy + Send> Sync for SeqLock<T> {}

impl<T: Copy> SeqLock<T> {
    /// Creates a new seqlock holding `value`.
    pub const fn new(value: T) -> Self {
        SeqLock {
            seq: AtomicUsize::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// Reads the current value.
    ///
    /// Lock-free and write-free: retries only while a writer is mid-update.
    pub fn read(&self) -> T {
        let backoff = Backoff::new();
        loop {
            if let Some(v) = self.try_read() {
                cds_obs::count(cds_obs::Event::SeqlockRead);
                return v;
            }
            cds_obs::count(cds_obs::Event::SeqlockReadRetry);
            // Pure recheck: a retried optimistic read changes nothing.
            backoff.snooze_tagged(cds_atomic::stress::YieldTag::Blocked(
                self as *const Self as usize,
            ));
        }
    }

    /// Attempts a single optimistic read, returning `None` if a concurrent
    /// write interfered.
    pub fn try_read(&self) -> Option<T> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return None; // writer in progress
        }
        // SAFETY: a racing writer may be mutating `data`; the volatile copy
        // is discarded unless the sequence check below proves it was not.
        let value = unsafe { std::ptr::read_volatile(self.data.get()) };
        fence(Ordering::Acquire);
        let s2 = self.seq.load(Ordering::Relaxed);
        if s1 == s2 {
            Some(value)
        } else {
            None
        }
    }

    /// Replaces the stored value.
    ///
    /// Writers exclude each other; concurrent readers retry.
    pub fn write(&self, value: T) {
        self.update(|v| *v = value);
    }

    /// Applies `f` to the stored value under the writer lock.
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let backoff = Backoff::new();
        let s = loop {
            let s = self.seq.load(Ordering::Relaxed);
            if s & 1 == 0
                && self
                    .seq
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break s;
            }
            // Not `Blocked`: `compare_exchange_weak` may fail spuriously,
            // so a retry can succeed with no other thread stepping.
            backoff.snooze_tagged(cds_atomic::stress::YieldTag::Write(
                self as *const Self as usize,
            ));
        };
        cds_obs::count(cds_obs::Event::SeqlockWrite);
        // SAFETY: the odd sequence value excludes other writers; readers
        // validate against it and discard torn reads.
        let result = f(unsafe { &mut *self.data.get() });
        self.seq.store(s.wrapping_add(2), Ordering::Release);
        result
    }

    /// Returns a mutable reference without synchronization.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: Copy + Default> Default for SeqLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for SeqLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqLock")
            .field("data", &self.read())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_write_round_trip() {
        let l = SeqLock::new(1u64);
        assert_eq!(l.read(), 1);
        l.write(2);
        assert_eq!(l.read(), 2);
    }

    #[test]
    fn update_returns_closure_result() {
        let l = SeqLock::new(10i32);
        let old = l.update(|v| {
            let old = *v;
            *v += 5;
            old
        });
        assert_eq!(old, 10);
        assert_eq!(l.read(), 15);
    }

    #[test]
    fn readers_never_see_torn_pairs() {
        // Writers always keep the invariant b == !a; any torn read would
        // violate it.
        let l = Arc::new(SeqLock::new((0u64, !0u64)));
        let writer = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    l.write((i, !i));
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        let (a, b) = l.read();
                        assert_eq!(b, !a, "torn read observed");
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn try_read_fails_during_write() {
        let l = SeqLock::new(0u32);
        l.update(|v| {
            *v = 1;
            // While the writer lock is held the sequence is odd.
            assert!(l.try_read().is_none());
        });
        assert_eq!(l.read(), 1);
    }
}
