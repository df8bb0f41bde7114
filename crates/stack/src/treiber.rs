use cds_atomic::Ordering;
use std::fmt;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ptr;

use cds_core::stress::{armed, Fault};
use cds_core::ConcurrentStack;
use cds_reclaim::epoch::{Atomic, Guard, Owned, Shared};
use cds_reclaim::{Ebr, ReclaimGuard, Reclaimer};
use cds_sync::Backoff;

/// The ordering that publishes a newly linked node: `Release`, unless
/// the planted demotion ([`Fault::RelaxedPublish`]) is armed.
#[inline]
fn publish_ordering() -> Ordering {
    if armed(Fault::RelaxedPublish) {
        Ordering::Relaxed
    } else {
        Ordering::Release
    }
}

struct Node<T> {
    /// Taken out by the winning popper; dropped by `Drop for TreiberStack`
    /// for nodes still linked when the stack dies.
    value: ManuallyDrop<T>,
    next: Atomic<Node<T>>,
}

/// Hazard slot protecting the head node during `pop`.
const SLOT_HEAD: usize = 0;

/// The Treiber lock-free stack (R. K. Treiber, 1986).
///
/// The head pointer is the single point of synchronization: `push` links a
/// new node with one CAS, `pop` unlinks the head with one CAS. Both
/// operations are **lock-free** — some thread always completes in a bounded
/// number of steps — though an individual thread can starve under a
/// perfectly adversarial schedule.
///
/// The stack is generic over its reclamation backend `R`
/// ([`cds_reclaim::Reclaimer`], default [`Ebr`]) because a slow concurrent
/// popper may still be reading unlinked nodes. It follows the
/// **per-pointer** protection discipline: the only shared node an
/// operation dereferences is the head, which `pop` protects with
/// [`ReclaimGuard::protect`] before reading its `next` field (Michael's
/// hazard-pointer protocol; a vacuous load under epochs). `push` never
/// dereferences a shared node, so it needs no protection at all.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentStack;
/// use cds_stack::TreiberStack;
///
/// let s = TreiberStack::new();
/// s.push(10);
/// s.push(20);
/// assert_eq!(s.pop(), Some(20));
/// assert_eq!(s.pop(), Some(10));
/// assert_eq!(s.pop(), None);
/// ```
///
/// Choosing a backend (here hazard pointers, for bounded garbage):
///
/// ```
/// use cds_core::ConcurrentStack;
/// use cds_reclaim::Hazard;
/// use cds_stack::TreiberStack;
///
/// let s: TreiberStack<u64, Hazard> = TreiberStack::with_reclaimer();
/// s.push(1);
/// assert_eq!(s.pop(), Some(1));
/// ```
pub struct TreiberStack<T, R: Reclaimer = Ebr> {
    head: Atomic<Node<T>>,
    _reclaimer: PhantomData<R>,
}

// SAFETY: values of type `T` cross threads (pushed on one, popped on
// another), which is exactly `T: Send`. No `&T` is ever shared.
unsafe impl<T: Send, R: Reclaimer> Send for TreiberStack<T, R> {}
unsafe impl<T: Send, R: Reclaimer> Sync for TreiberStack<T, R> {}

impl<T> TreiberStack<T> {
    /// Creates an empty stack on the default ([`Ebr`]) backend.
    pub fn new() -> Self {
        Self::with_reclaimer()
    }
}

impl<T, R: Reclaimer> TreiberStack<T, R> {
    /// Creates an empty stack on the reclamation backend `R`.
    pub fn with_reclaimer() -> Self {
        TreiberStack {
            head: Atomic::null(),
            _reclaimer: PhantomData,
        }
    }

    fn push_node<G: ReclaimGuard>(&self, node: Shared<'_, Node<T>>, guard: &G) {
        let backoff = Backoff::new();
        loop {
            cds_core::stress::yield_point();
            // No protection: `head` is linked, never dereferenced.
            let head = self.head.load(Ordering::Relaxed, guard);
            // SAFETY: `node` is ours until the CAS below publishes it.
            unsafe { node.deref() }.next.store(head, Ordering::Relaxed);
            // Release: publish the node's initialization with the link
            // (`publish_ordering` is `Release` unless the planted
            // demotion is armed under stress).
            let linked = self
                .head
                .compare_exchange(head, node, publish_ordering(), Ordering::Relaxed, guard)
                .is_ok();
            cds_obs::cas_outcome(linked);
            if linked {
                return;
            }
            cds_obs::count(cds_obs::Event::TreiberRetry);
            backoff.spin();
        }
    }

    /// Attempts a single push CAS; on contention returns the value back.
    /// Used by the elimination-backoff stack to interleave CAS attempts
    /// with elimination rounds.
    pub(crate) fn try_push(&self, value: T) -> Result<(), T> {
        let guard = R::enter();
        let node = Owned::new(Node {
            value: ManuallyDrop::new(value),
            next: Atomic::null(),
        })
        .into_shared(&guard);
        let head = self.head.load(Ordering::Relaxed, &guard);
        // SAFETY: `node` is unpublished.
        unsafe { node.deref() }.next.store(head, Ordering::Relaxed);
        let result =
            self.head
                .compare_exchange(head, node, Ordering::Release, Ordering::Relaxed, &guard);
        cds_obs::cas_outcome(result.is_ok());
        match result {
            Ok(_) => Ok(()),
            Err(_) => {
                // SAFETY: the node was never published; we still own it.
                let mut boxed = unsafe { node.into_owned() }.into_box();
                // SAFETY: the value was never taken.
                Err(unsafe { ManuallyDrop::take(&mut boxed.value) })
            }
        }
    }

    /// Attempts a single pop CAS. `Ok(None)` means the stack was empty;
    /// `Err(())` means the CAS lost a race.
    pub(crate) fn try_pop(&self) -> Result<Option<T>, ()> {
        let guard = R::enter();
        // Protect-validate: on return the hazard covers `head` and the
        // stack still reached it, so the node cannot be freed under us.
        let head = guard.protect(SLOT_HEAD, &self.head, Ordering::Acquire);
        // SAFETY: protected above.
        let node = match unsafe { head.as_ref() } {
            None => return Ok(None),
            Some(n) => n,
        };
        let next = node.next.load(Ordering::Relaxed, &guard);
        let result =
            self.head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Relaxed, &guard);
        cds_obs::cas_outcome(result.is_ok());
        match result {
            Ok(_) => {
                // SAFETY: as in `pop_node`.
                unsafe {
                    let value = ptr::read(&*node.value);
                    guard.retire(head);
                    Ok(Some(value))
                }
            }
            Err(_) => Err(()),
        }
    }

    fn pop_node<G: ReclaimGuard>(&self, guard: &G) -> Option<T> {
        let backoff = Backoff::new();
        loop {
            cds_core::stress::yield_point();
            // Protect-validate the head before dereferencing it. `next` is
            // written once before the node is published and never again,
            // so reading it through the protected node cannot be stale:
            // if the unlink CAS below succeeds, the node was still the
            // head (retired nodes are never re-linked, and the hazard
            // keeps its address from being reused).
            let head = guard.protect(SLOT_HEAD, &self.head, Ordering::Acquire);
            // SAFETY: protected above; it was allocated by `push`.
            let node = unsafe { head.as_ref() }?;
            let next = node.next.load(Ordering::Relaxed, guard);
            let unlinked = self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Relaxed, guard)
                .is_ok();
            cds_obs::cas_outcome(unlinked);
            if unlinked {
                // SAFETY: winning the CAS makes us the unique owner of the
                // value; the node itself may still be read by concurrent
                // poppers, so its destruction goes through the reclaimer.
                unsafe {
                    let value = ptr::read(&*node.value);
                    guard.retire(head);
                    return Some(value);
                }
            }
            cds_obs::count(cds_obs::Event::TreiberRetry);
            backoff.spin();
        }
    }
}

impl<T, R: Reclaimer> Default for TreiberStack<T, R> {
    fn default() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Send + 'static, R: Reclaimer> ConcurrentStack<T> for TreiberStack<T, R> {
    const NAME: &'static str = "treiber";

    fn push(&self, value: T) {
        let guard = R::enter();
        let node = Owned::new(Node {
            value: ManuallyDrop::new(value),
            next: Atomic::null(),
        })
        .into_shared(&guard);
        self.push_node(node, &guard);
    }

    fn pop(&self) -> Option<T> {
        let guard = R::enter();
        self.pop_node(&guard)
    }

    fn is_empty(&self) -> bool {
        // A null check never dereferences, so a unit load witness is
        // enough on every backend.
        self.head.load(Ordering::Acquire, &()).is_null()
    }
}

impl<T, R: Reclaimer> Drop for TreiberStack<T, R> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` — no concurrent access, so no protection is
        // needed on any backend; the unprotected guard is a pure load
        // witness. Nodes already retired through `R` are unreachable from
        // `head` and are freed by the backend, not here.
        let guard = unsafe { Guard::unprotected() };
        let mut cur = self.head.load(Ordering::Relaxed, &guard);
        while !cur.is_null() {
            // SAFETY: unique access; every linked node is alive and owned
            // by the stack, and its value was never taken by a popper.
            unsafe {
                let mut boxed = cur.into_owned().into_box();
                ManuallyDrop::drop(&mut boxed.value);
                cur = boxed.next.load(Ordering::Relaxed, &guard);
            }
        }
    }
}

impl<T, R: Reclaimer> fmt::Debug for TreiberStack<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Walking the list here would require pinning; report presence only.
        f.debug_struct("TreiberStack")
            .field("reclaimer", &R::NAME)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> FromIterator<T> for TreiberStack<T> {
    /// Collects into a stack; the **last** item of the iterator ends up on
    /// top.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let stack = TreiberStack::new();
        for v in iter {
            stack.push(v);
        }
        stack
    }
}

impl<T: Send + 'static, R: Reclaimer> Extend<T> for TreiberStack<T, R> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::{AtomicUsize, Ordering as AOrd};
    use cds_reclaim::{DebugReclaim, Hazard, Leak};
    use std::sync::Arc;

    #[test]
    fn push_pop_round_trip() {
        let s = TreiberStack::new();
        s.push(String::from("x"));
        assert_eq!(s.pop().as_deref(), Some("x"));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn round_trip_on_every_backend() {
        fn run<R: Reclaimer>() {
            let s: TreiberStack<u64, R> = TreiberStack::with_reclaimer();
            for i in 0..100 {
                s.push(i);
            }
            for i in (0..100).rev() {
                assert_eq!(s.pop(), Some(i), "{} backend", R::NAME);
            }
            assert_eq!(s.pop(), None);
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
                self.0.fetch_add(1, AOrd::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let s = TreiberStack::new();
            for _ in 0..10 {
                s.push(D(Arc::clone(&drops)));
            }
            // Pop half; the rest die with the stack.
            for _ in 0..5 {
                drop(s.pop());
            }
            assert_eq!(drops.load(AOrd::SeqCst), 5);
        }
        assert_eq!(drops.load(AOrd::SeqCst), 10, "stack drop leaked values");
    }

    #[test]
    fn concurrent_push_pop_totals() {
        let s = Arc::new(TreiberStack::new());
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for i in 0..1000usize {
                        s.push(i);
                        if let Some(v) = s.pop() {
                            total.fetch_add(v, AOrd::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every push is matched by a pop within the same iteration or left
        // in the stack; drain whatever remains.
        while s.pop().is_some() {}
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_hazard_backend_churn() {
        let s: Arc<TreiberStack<usize, Hazard>> = Arc::new(TreiberStack::with_reclaimer());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500usize {
                        s.push(i);
                        s.pop();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        while s.pop().is_some() {}
        assert!(s.is_empty());
        Hazard::collect();
    }
}
