//! Flat combining (Hendler, Incze, Shavit & Tzafrir, SPAA 2010).
//!
//! Instead of every thread taking a lock for its own operation, threads
//! *publish* their operations in per-thread slots; whichever thread holds
//! the combiner lock services **everyone's** pending operations in one
//! pass. Cache-friendliness does the rest: the sequential structure stays
//! resident in the combiner's cache, and the lock is acquired once per
//! *batch* instead of once per operation — often beating fine-grained
//! locking for inherently sequential structures (stacks, queues).

use cds_atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use crate::{Backoff, CachePadded};

/// A sequential structure that can be driven by a [`FlatCombining`]
/// wrapper.
///
/// The combiner applies operations one at a time while holding the
/// combiner lock, so `apply` needs no internal synchronization.
pub trait FcStructure {
    /// Operation descriptions (inputs).
    type Op;
    /// Operation results.
    type Res;

    /// Applies one operation sequentially.
    fn apply(&mut self, op: Self::Op) -> Self::Res;
}

const EMPTY: u8 = 0;
const PENDING: u8 = 1;
const DONE: u8 = 2;

struct Slot<Op, Res> {
    state: AtomicU8,
    op: UnsafeCell<Option<Op>>,
    /// The op's result, or the payload of its panic, which the
    /// submitting thread re-raises.
    res: UnsafeCell<Option<std::thread::Result<Res>>>,
}

// How many publication slots; threads beyond this share via modulo and a
// per-slot claim flag.
const SLOTS: usize = 64;

/// Returns a small dense id for the calling thread.
fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// A flat-combining wrapper turning any sequential [`FcStructure`] into a
/// linearizable concurrent one.
///
/// # Protocol
///
/// [`apply`](FlatCombining::apply) publishes the operation in the calling
/// thread's slot and then either (a) observes the result appear (a
/// concurrent combiner serviced it), or (b) wins the combiner lock itself
/// and services *every* pending slot — including its own — in one scan.
/// Operations are applied only while holding the combiner lock, so each
/// takes effect atomically: the construction is linearizable whenever the
/// wrapped structure is a correct sequential object.
///
/// An operation that panics does not take the combiner down with it: the
/// combiner catches the panic, hands the payload back through the slot
/// and goes on with the scan, and `apply` re-raises it in the thread that
/// submitted the operation, after releasing its slot.
///
/// # Example
///
/// ```
/// use cds_sync::{FcStructure, FlatCombining};
///
/// struct SeqCounter(i64);
/// impl FcStructure for SeqCounter {
///     type Op = i64;
///     type Res = i64;
///     fn apply(&mut self, delta: i64) -> i64 {
///         self.0 += delta;
///         self.0
///     }
/// }
///
/// let c = FlatCombining::new(SeqCounter(0));
/// assert_eq!(c.apply(5), 5);
/// assert_eq!(c.apply(-2), 3);
/// ```
pub struct FlatCombining<S: FcStructure> {
    data: UnsafeCell<S>,
    combiner: AtomicBool,
    #[allow(clippy::type_complexity)]
    slots: Box<[CachePadded<Slot<S::Op, S::Res>>]>,
    /// Claim flags so threads hashing to the same slot take turns.
    claims: Box<[CachePadded<AtomicBool>]>,
}

// SAFETY: `data` is only touched while holding the combiner flag; slot
// `op`/`res` cells are handed off via the slot state machine (PENDING
// publishes op to the combiner; DONE publishes res back). Op/Res cross
// threads, hence the Send bounds.
unsafe impl<S: FcStructure + Send> Send for FlatCombining<S>
where
    S::Op: Send,
    S::Res: Send,
{
}
unsafe impl<S: FcStructure + Send> Sync for FlatCombining<S>
where
    S::Op: Send,
    S::Res: Send,
{
}

impl<S: FcStructure> FlatCombining<S> {
    /// Wraps `structure` for flat-combined access.
    pub fn new(structure: S) -> Self {
        FlatCombining {
            data: UnsafeCell::new(structure),
            combiner: AtomicBool::new(false),
            slots: (0..SLOTS)
                .map(|_| {
                    CachePadded::new(Slot {
                        state: AtomicU8::new(EMPTY),
                        op: UnsafeCell::new(None),
                        res: UnsafeCell::new(None),
                    })
                })
                .collect(),
            claims: (0..SLOTS)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
        }
    }

    /// Applies `op`, possibly by combining it with other threads' pending
    /// operations. Begins with a scheduling point, so every wrapper op is
    /// preemptible before it claims a slot.
    pub fn apply(&self, op: S::Op) -> S::Res {
        cds_atomic::stress::yield_point();
        let idx = thread_index() % SLOTS;
        // Claim the slot (threads sharing a slot take turns).
        let claim = &self.claims[idx];
        let backoff = Backoff::new();
        while claim
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff.snooze();
        }

        let slot = &self.slots[idx];
        // SAFETY: the claim gives us exclusive publication rights.
        unsafe { *slot.op.get() = Some(op) };
        slot.state.store(PENDING, Ordering::Release);

        let backoff = Backoff::new();
        let result = loop {
            if slot.state.load(Ordering::Acquire) == DONE {
                // SAFETY: DONE hands the res cell back to us.
                let res = unsafe { (*slot.res.get()).take() }.expect("combiner stored a result");
                slot.state.store(EMPTY, Ordering::Release);
                break res;
            }
            if self
                .combiner
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                self.combine();
                self.combiner.store(false, Ordering::Release);
                // Our own slot was serviced during the scan.
                debug_assert_eq!(slot.state.load(Ordering::Acquire), DONE);
            } else {
                backoff.snooze();
            }
        };
        claim.store(false, Ordering::Release);
        result.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Services every pending slot. Caller must hold the combiner flag.
    fn combine(&self) {
        // SAFETY: the combiner flag gives exclusive access to `data`.
        let data = unsafe { &mut *self.data.get() };
        let mut serviced = 0u64;
        for slot in self.slots.iter() {
            if slot.state.load(Ordering::Acquire) == PENDING {
                // SAFETY: PENDING hands the op cell to the combiner.
                let op = unsafe { (*slot.op.get()).take() }.expect("pending slot holds an op");
                let res = panic::catch_unwind(AssertUnwindSafe(|| data.apply(op)));
                // SAFETY: the res cell belongs to the combiner until DONE.
                unsafe { *slot.res.get() = Some(res) };
                slot.state.store(DONE, Ordering::Release);
                serviced += 1;
            }
        }
        cds_obs::count(cds_obs::Event::FcCombineRounds);
        cds_obs::add(cds_obs::Event::FcOpsCombined, serviced);
    }

    /// Runs `f` on the sequential structure under the combiner lock
    /// (for len/debug style read-outs).
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let backoff = Backoff::new();
        while self
            .combiner
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff.snooze();
        }
        // Service pending work first so `f` observes a quiescent state.
        self.combine();
        // SAFETY: combiner flag held.
        let r = f(unsafe { &mut *self.data.get() });
        self.combiner.store(false, Ordering::Release);
        r
    }

    /// Consumes the wrapper, returning the sequential structure.
    pub fn into_inner(self) -> S {
        self.data.into_inner()
    }
}

impl<S: FcStructure> fmt::Debug for FlatCombining<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlatCombining")
            .field("slots", &SLOTS)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct SeqAdder(i64);

    impl FcStructure for SeqAdder {
        type Op = i64;
        type Res = i64;

        fn apply(&mut self, delta: i64) -> i64 {
            assert!(delta >= 0, "negative delta");
            self.0 += delta;
            self.0
        }
    }

    #[test]
    fn sequential_results_are_exact() {
        let fc = FlatCombining::new(SeqAdder(0));
        assert_eq!(fc.apply(1), 1);
        assert_eq!(fc.apply(2), 3);
        assert_eq!(fc.with(|s| s.0), 3);
        assert_eq!(fc.into_inner().0, 3);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let fc = Arc::new(FlatCombining::new(SeqAdder(0)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let fc = Arc::clone(&fc);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        fc.apply(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fc.with(|s| s.0), 8_000);
    }

    #[test]
    fn a_panicking_op_is_raised_in_its_submitter_and_others_complete() {
        let fc = Arc::new(FlatCombining::new(SeqAdder(0)));
        let raised = panic::catch_unwind(AssertUnwindSafe(|| fc.apply(-1)))
            .expect_err("the panic reached its submitter");
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"negative delta"));
        // A combiner flag or slot claim left set would make every later
        // `apply` spin forever: hence the deadline.
        let (done, finished) = std::sync::mpsc::channel();
        for t in 0..4 {
            let (fc, done) = (Arc::clone(&fc), done.clone());
            std::thread::spawn(move || {
                for i in 0..100 {
                    if t == 0 && i == 50 {
                        let raised = panic::catch_unwind(AssertUnwindSafe(|| fc.apply(-1)));
                        assert!(raised.is_err());
                    }
                    fc.apply(1);
                }
                done.send(()).unwrap();
            });
        }
        for _ in 0..4 {
            finished
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("an apply after a panicking op did not complete");
        }
        assert_eq!(fc.with(|s| s.0), 400);
    }

    #[test]
    fn results_return_to_the_right_thread() {
        // Each thread adds its own delta repeatedly; the *sequence* of
        // results it observes must be strictly increasing (its own adds
        // and others' interleave, but all deltas are positive).
        let fc = Arc::new(FlatCombining::new(SeqAdder(0)));
        let handles: Vec<_> = (1..=4)
            .map(|d| {
                let fc = Arc::clone(&fc);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..1_000 {
                        let now = fc.apply(d);
                        assert!(now > last, "non-monotonic result");
                        last = now;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
