use cds_atomic::Ordering;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;

use cds_atomic::stress::{armed, Fault};
use cds_core::ConcurrentQueue;
use cds_reclaim::epoch::{Atomic, Guard, Owned, Shared};
use cds_reclaim::{Ebr, ReclaimGuard, Reclaimer};
use cds_sync::Backoff;

/// The ordering of the enqueue link CAS, the enqueue's publication
/// point: `Release`, unless the planted demotion ([`Fault::RelaxedLink`])
/// is armed.
#[inline]
fn link_ordering() -> Ordering {
    if armed(Fault::RelaxedLink) {
        Ordering::Relaxed
    } else {
        Ordering::Release
    }
}

struct Node<T> {
    /// Uninitialized for the node currently serving as the sentinel (the
    /// initial sentinel was never initialized; a dequeued node's value has
    /// been moved out). Initialized for every node after the sentinel.
    value: MaybeUninit<T>,
    next: Atomic<Node<T>>,
}

/// Hazard slot for the node an operation anchors on (head or tail).
const SLOT_ANCHOR: usize = 0;
/// Hazard slot for the anchor's successor (dequeue only).
const SLOT_NEXT: usize = 1;

/// The Michael–Scott lock-free queue (PODC '96).
///
/// The algorithm behind `java.util.concurrent.ConcurrentLinkedQueue`: a
/// singly-linked list with a sentinel head. Enqueue links at the tail with
/// one CAS (plus a tail-swing CAS that any thread may *help* complete);
/// dequeue advances the head with one CAS. The helping protocol is what
/// makes the queue lock-free: a stalled enqueuer cannot block others,
/// because the next operation finishes its tail swing for it.
///
/// The queue is generic over its reclamation backend `R`
/// ([`cds_reclaim::Reclaimer`], default [`Ebr`]) and follows the
/// **per-pointer** discipline from Michael's hazard-pointer paper (2004):
/// each operation protects the node it anchors on (tail for enqueue, head
/// for dequeue), and dequeue additionally publishes protection for the
/// successor and re-validates that the head has not moved before touching
/// it. Two invariants make the unprotected CASes safe: a retired node's
/// `next` is non-null and never returns to null (so a stale enqueue CAS
/// fails), and retired nodes are never re-linked (so a successful
/// head/tail CAS proves the anchor was still linked).
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentQueue;
/// use cds_queue::MsQueue;
///
/// let q = MsQueue::new();
/// q.enqueue(1);
/// q.enqueue(2);
/// assert_eq!(q.dequeue(), Some(1));
/// ```
pub struct MsQueue<T, R: Reclaimer = Ebr> {
    head: Atomic<Node<T>>,
    tail: Atomic<Node<T>>,
    _reclaimer: PhantomData<R>,
}

// SAFETY: values move across threads (enqueue on one, dequeue on another).
unsafe impl<T: Send, R: Reclaimer> Send for MsQueue<T, R> {}
unsafe impl<T: Send, R: Reclaimer> Sync for MsQueue<T, R> {}

impl<T> MsQueue<T> {
    /// Creates an empty queue on the default ([`Ebr`]) backend.
    pub fn new() -> Self {
        Self::with_reclaimer()
    }
}

impl<T, R: Reclaimer> MsQueue<T, R> {
    /// Creates an empty queue on the reclamation backend `R`.
    pub fn with_reclaimer() -> Self {
        // The permanent sentinel; its value is never initialized.
        let sentinel = Owned::new(Node {
            value: MaybeUninit::uninit(),
            next: Atomic::null(),
        });
        // SAFETY: the queue is not yet shared.
        let guard = unsafe { Guard::unprotected() };
        let sentinel = sentinel.into_shared(&guard);
        let q = MsQueue {
            head: Atomic::null(),
            tail: Atomic::null(),
            _reclaimer: PhantomData,
        };
        q.head.store(sentinel, Ordering::Relaxed);
        q.tail.store(sentinel, Ordering::Relaxed);
        q
    }

    /// Swings the tail from `from` to `to`. Losing is fine: someone else
    /// moved it forward.
    fn swing_tail<G>(&self, from: Shared<'_, Node<T>>, to: Shared<'_, Node<T>>, guard: &G) {
        let _ = self
            .tail
            .compare_exchange(from, to, Ordering::Release, Ordering::Relaxed, guard);
    }

    fn enqueue_internal<G: ReclaimGuard>(&self, value: T, guard: &G) {
        let node = Owned::new(Node {
            value: MaybeUninit::new(value),
            next: Atomic::null(),
        })
        .into_shared(guard);
        let backoff = Backoff::new();
        loop {
            cds_atomic::stress::yield_point();
            // Protect-validate the tail before dereferencing it.
            let tail = guard.protect(SLOT_ANCHOR, &self.tail, Ordering::Acquire);
            // SAFETY: protected above; the tail is never null.
            let t = unsafe { tail.deref() };
            let next = t.next.load(Ordering::Acquire, guard);
            if !next.is_null() {
                // Tail is lagging: help swing it and retry. `next` is not
                // dereferenced, so it needs no protection.
                self.swing_tail(tail, next, guard);
                continue;
            }
            // Even if `t` was dequeued after the protect, its `next` became
            // non-null before retirement and never returns to null, so this
            // CAS can only succeed while `t` is the live tail.
            // Release (unless the planted demotion is armed): this CAS is
            // the publication point of the node and its payload.
            if t.next
                .compare_exchange(
                    Shared::null(),
                    node,
                    link_ordering(),
                    Ordering::Relaxed,
                    guard,
                )
                .is_ok()
            {
                // Linked; swing the tail.
                self.swing_tail(tail, node, guard);
                return;
            }
            backoff.spin();
        }
    }

    fn dequeue_internal<G: ReclaimGuard>(&self, guard: &G) -> Option<T> {
        let backoff = Backoff::new();
        loop {
            cds_atomic::stress::yield_point();
            // Protect-validate the head before dereferencing it.
            let head = guard.protect(SLOT_ANCHOR, &self.head, Ordering::Acquire);
            // SAFETY: protected above; the head is never null.
            let h = unsafe { head.deref() };
            let next = h.next.load(Ordering::Acquire, guard);
            // Publish protection for the successor, then re-validate that
            // the head has not moved: at that instant the successor was
            // still linked (a node is only retired after the head passes
            // it), so the already-published hazard keeps it alive.
            let next = guard.protect_ptr(SLOT_NEXT, next);
            if self.head.load(Ordering::Acquire, guard) != head {
                backoff.spin();
                continue;
            }
            // SAFETY: protected + re-validated above.
            let next_ref = unsafe { next.as_ref() }?;
            // If the tail is still on the sentinel, help it forward so it
            // never lags behind the head.
            let tail = self.tail.load(Ordering::Relaxed, guard);
            if head == tail {
                self.swing_tail(tail, next, guard);
            }
            if self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Relaxed, guard)
                .is_ok()
            {
                // SAFETY: winning the head CAS gives us unique rights to
                // `next`'s value (it becomes the new sentinel); the old
                // sentinel may still be read by peers, so retire it.
                unsafe {
                    let value = next_ref.value.assume_init_read();
                    guard.retire(head);
                    return Some(value);
                }
            }
            backoff.spin();
        }
    }
}

impl<T, R: Reclaimer> Default for MsQueue<T, R> {
    fn default() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Send + 'static, R: Reclaimer> ConcurrentQueue<T> for MsQueue<T, R> {
    const NAME: &'static str = "ms";

    fn enqueue(&self, value: T) {
        let guard = R::enter();
        self.enqueue_internal(value, &guard);
    }

    fn dequeue(&self) -> Option<T> {
        let guard = R::enter();
        self.dequeue_internal(&guard)
    }

    fn is_empty(&self) -> bool {
        let guard = R::enter();
        let head = guard.protect(SLOT_ANCHOR, &self.head, Ordering::Acquire);
        // SAFETY: protected above.
        unsafe { head.deref() }
            .next
            .load(Ordering::Acquire, &guard)
            .is_null()
    }
}

impl<T, R: Reclaimer> Drop for MsQueue<T, R> {
    fn drop(&mut self) {
        // SAFETY: `&mut self`: unique access; the unprotected guard is a
        // pure load witness on every backend. Nodes already retired
        // through `R` are unreachable from `head` and are freed by the
        // backend, not here.
        let guard = unsafe { Guard::unprotected() };
        // The first node is the sentinel: free it without touching its value.
        let mut cur = self.head.load(Ordering::Relaxed, &guard);
        let mut is_sentinel = true;
        while !cur.is_null() {
            // SAFETY: unique ownership of the whole chain.
            unsafe {
                let mut boxed = cur.into_owned().into_box();
                if !is_sentinel {
                    boxed.value.assume_init_drop();
                }
                is_sentinel = false;
                cur = boxed.next.load(Ordering::Relaxed, &guard);
            }
        }
    }
}

impl<T, R: Reclaimer> fmt::Debug for MsQueue<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MsQueue")
            .field("reclaimer", &R::NAME)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> FromIterator<T> for MsQueue<T> {
    /// Collects into a queue preserving iteration order (first in, first
    /// out).
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let queue = MsQueue::new();
        for v in iter {
            queue.enqueue(v);
        }
        queue
    }
}

impl<T: Send + 'static, R: Reclaimer> Extend<T> for MsQueue<T, R> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.enqueue(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicUsize;
    use cds_reclaim::{DebugReclaim, Hazard, Leak};
    use std::sync::Arc;

    #[test]
    fn sequential_fifo() {
        let q = MsQueue::new();
        assert_eq!(q.dequeue(), None);
        for i in 0..32 {
            q.enqueue(i);
        }
        for i in 0..32 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_on_every_backend() {
        fn run<R: Reclaimer>() {
            let q: MsQueue<u64, R> = MsQueue::with_reclaimer();
            for i in 0..100 {
                q.enqueue(i);
            }
            for i in 0..100 {
                assert_eq!(q.dequeue(), Some(i), "{} backend", R::NAME);
            }
            assert_eq!(q.dequeue(), None);
            R::collect();
        }
        run::<Ebr>();
        run::<Hazard>();
        run::<Leak>();
        run::<DebugReclaim>();
    }

    #[test]
    fn values_dropped_exactly_once() {
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q = MsQueue::new();
            for _ in 0..10 {
                q.enqueue(D(Arc::clone(&drops)));
            }
            for _ in 0..4 {
                drop(q.dequeue());
            }
            assert_eq!(drops.load(Ordering::SeqCst), 4);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn mpmc_stress() {
        mpmc_stress_on::<Ebr>();
    }

    #[test]
    fn mpmc_stress_hazard_backend() {
        mpmc_stress_on::<Hazard>();
    }

    fn mpmc_stress_on<R: Reclaimer>() {
        let q: Arc<MsQueue<usize, R>> = Arc::new(MsQueue::with_reclaimer());
        let consumed = Arc::new(AtomicUsize::new(0));
        const N: usize = 1_000;
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..N {
                        q.enqueue(i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || loop {
                    if q.dequeue().is_some() {
                        if consumed.fetch_add(1, Ordering::SeqCst) + 1 == 2 * N {
                            return;
                        }
                    } else if consumed.load(Ordering::SeqCst) == 2 * N {
                        return;
                    } else {
                        // Single core: don't starve the producers.
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::SeqCst), 2 * N);
        assert!(q.is_empty());
    }
}
