use cds_atomic::{AtomicPtr, AtomicU8, Ordering};
use std::cell::UnsafeCell;
use std::fmt;
use std::ptr;

use cds_core::ConcurrentStack;
use cds_sync::CachePadded;

use crate::TreiberStack;

const WAITING: u8 = 0;
const TAKEN: u8 = 1;

/// A pusher's offer parked in an elimination slot.
///
/// Lives on the pusher's stack frame; the protocol guarantees the pusher
/// does not return (deallocating the frame) until any claiming popper has
/// finished with it.
struct Offer<T> {
    value: UnsafeCell<Option<T>>,
    state: AtomicU8,
}

/// An array of single-use exchanger slots where a concurrent push and pop
/// can *eliminate* each other without touching the main structure.
///
/// The observation (Hendler, Shavit & Yerushalmi, 2004): a push immediately
/// followed by a pop leaves a stack unchanged, so a colliding push/pop pair
/// may transfer the value directly and both return — in parallel with any
/// number of other such pairs. The array is the backoff path of
/// [`EliminationBackoffStack`], turning contention into throughput.
///
/// # Protocol (per slot)
///
/// * A **pusher** CASes a pointer to its `Offer` into an empty slot and
///   spins briefly. If a popper marks the offer `TAKEN`, the exchange
///   succeeded. On timeout the pusher CASes the slot back to empty; if
///   *that* fails, a popper has already claimed the offer and the pusher
///   waits for `TAKEN`.
/// * A **popper** loads the slot and CASes it to empty; success means it
///   uniquely claimed the offer: it takes the value and sets `TAKEN`.
///
/// The claim CAS makes take/retract mutually exclusive, so the value moves
/// exactly once.
pub struct EliminationArray<T> {
    slots: Box<[CachePadded<AtomicPtr<Offer<T>>>]>,
}

// SAFETY: values move pusher→popper (requires `T: Send`); slot pointers are
// only dereferenced under the claim protocol described above.
unsafe impl<T: Send> Send for EliminationArray<T> {}
unsafe impl<T: Send> Sync for EliminationArray<T> {}

impl<T> EliminationArray<T> {
    /// Creates an array with `capacity` exchanger slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "elimination array needs at least one slot");
        EliminationArray {
            slots: (0..capacity)
                .map(|_| CachePadded::new(AtomicPtr::new(ptr::null_mut())))
                .collect(),
        }
    }

    fn random_slot(&self) -> &AtomicPtr<Offer<T>> {
        // Cheap thread-local xorshift; quality does not matter, decorrelation
        // across threads does.
        use std::cell::Cell;
        thread_local! {
            static SEED: Cell<u64> = const { Cell::new(0) };
        }
        let r = SEED.with(|seed| {
            let mut s = seed.get();
            if s == 0 {
                // Derive an initial seed from the address of a stack slot.
                s = &s as *const _ as u64 | 1;
            }
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            seed.set(s);
            s
        });
        &self.slots[(r as usize) % self.slots.len()]
    }

    /// Offers `value` to a popper, spinning for `spins` iterations.
    ///
    /// Returns `Ok(())` if a popper took the value, `Err(value)` otherwise.
    pub fn exchange_push(&self, value: T, spins: usize) -> Result<(), T> {
        let offer = Offer {
            value: UnsafeCell::new(Some(value)),
            state: AtomicU8::new(WAITING),
        };
        let offer_ptr = &offer as *const Offer<T> as *mut Offer<T>;
        let slot = self.random_slot();

        if slot
            .compare_exchange(
                ptr::null_mut(),
                offer_ptr,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            // Slot busy (another pusher): collision of the wrong kind.
            return Err(offer.value.into_inner().expect("untouched offer"));
        }

        for _ in 0..spins {
            if offer.state.load(Ordering::Acquire) == TAKEN {
                return Ok(());
            }
            // No-op outside stress builds (the spin budget *is* the
            // elimination window); under the scheduler this lets a popper
            // run mid-window, so elimination stays reachable.
            cds_atomic::stress::yield_point();
            core::hint::spin_loop();
        }

        // Timeout: retract the offer.
        if slot
            .compare_exchange(
                offer_ptr,
                ptr::null_mut(),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            // Nobody claimed it; the value is still ours.
            // SAFETY: retraction succeeded, so no popper can reach the offer.
            return Err(unsafe { &mut *offer.value.get() }
                .take()
                .expect("retracted offer must still hold its value"));
        }

        // A popper claimed the offer between our timeout and the retract
        // CAS; it will set TAKEN after moving the value out. We must not
        // return (deallocating `offer`) until then. This wait is unbounded,
        // so it needs a yield point: under the stress scheduler the claimer
        // may be paused between its claim CAS and its TAKEN store, and is
        // granted no step while a bare spin here keeps this thread running.
        while offer.state.load(Ordering::Acquire) != TAKEN {
            cds_atomic::stress::yield_point();
            core::hint::spin_loop();
        }
        Ok(())
    }

    /// Attempts to take a value from a waiting pusher.
    pub fn exchange_pop(&self) -> Option<T> {
        let slot = self.random_slot();
        let p = slot.load(Ordering::Acquire);
        if p.is_null() {
            return None;
        }
        if slot
            .compare_exchange(p, ptr::null_mut(), Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: the claim CAS succeeded, so the offer behind `p` was
            // installed and its pusher is spinning until we set TAKEN; the
            // allocation is therefore alive and we have exclusive take
            // rights.
            unsafe {
                let value = (*(*p).value.get())
                    .take()
                    .expect("claimed offer must hold a value");
                (*p).state.store(TAKEN, Ordering::Release);
                return Some(value);
            }
        }
        None
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<T> fmt::Debug for EliminationArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EliminationArray")
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// The elimination-backoff stack (Hendler, Shavit & Yerushalmi, 2004).
///
/// A [`TreiberStack`] whose backoff path is an [`EliminationArray`]: when
/// the head CAS fails, instead of idling, a push parks its value in a
/// random exchanger slot and a pop scavenges one. Under high contention the
/// stack's inherent sequential bottleneck (the head pointer) is bypassed by
/// pairs of operations cancelling out in parallel — throughput *increases*
/// with contention instead of collapsing.
///
/// Linearizability: an eliminated push/pop pair is equivalent to the push
/// linearizing immediately before the pop at the moment of exchange.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentStack;
/// use cds_stack::EliminationBackoffStack;
///
/// let s = EliminationBackoffStack::new();
/// s.push('a');
/// assert_eq!(s.pop(), Some('a'));
/// ```
pub struct EliminationBackoffStack<T> {
    stack: TreiberStack<T>,
    elim: EliminationArray<T>,
    /// How long a parked push waits for elimination before retrying.
    elimination_spins: usize,
}

impl<T> EliminationBackoffStack<T> {
    /// Default number of exchanger slots.
    const DEFAULT_SLOTS: usize = 4;
    /// Default spin budget while parked in a slot.
    const DEFAULT_SPINS: usize = 64;

    /// Creates a stack with default elimination parameters.
    pub fn new() -> Self {
        Self::with_params(Self::DEFAULT_SLOTS, Self::DEFAULT_SPINS)
    }

    /// Creates a stack with `slots` exchanger slots and a `spins` spin
    /// budget per elimination round (exposed for the E2 ablation bench).
    pub fn with_params(slots: usize, spins: usize) -> Self {
        EliminationBackoffStack {
            stack: TreiberStack::new(),
            elim: EliminationArray::new(slots),
            elimination_spins: spins,
        }
    }
}

impl<T> Default for EliminationBackoffStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + 'static> ConcurrentStack<T> for EliminationBackoffStack<T> {
    const NAME: &'static str = "elimination";

    fn push(&self, value: T) {
        cds_obs::count(cds_obs::Event::ElimPush);
        let mut value = value;
        loop {
            cds_atomic::stress::yield_point();
            match self.stack.try_push(value) {
                Ok(()) => return,
                Err(v) => value = v,
            }
            // Head contention: try to eliminate against a pop.
            match self.elim.exchange_push(value, self.elimination_spins) {
                Ok(()) => {
                    cds_obs::count(cds_obs::Event::ElimHitPush);
                    return;
                }
                Err(v) => {
                    cds_obs::count(cds_obs::Event::ElimMiss);
                    value = v;
                }
            }
        }
    }

    fn pop(&self) -> Option<T> {
        cds_obs::count(cds_obs::Event::ElimPop);
        loop {
            cds_atomic::stress::yield_point();
            if let Ok(result) = self.stack.try_pop() {
                return result;
            }
            if let Some(v) = self.elim.exchange_pop() {
                cds_obs::count(cds_obs::Event::ElimHitPop);
                return Some(v);
            }
            cds_obs::count(cds_obs::Event::ElimMiss);
        }
    }

    fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }
}

impl<T> fmt::Debug for EliminationBackoffStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EliminationBackoffStack")
            .field("slots", &self.elim.capacity())
            .field("spins", &self.elimination_spins)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn direct_exchange_between_threads() {
        let elim = Arc::new(EliminationArray::<u32>::new(1));
        let pusher = {
            let elim = Arc::clone(&elim);
            std::thread::spawn(move || {
                // Keep offering until a popper takes it.
                let mut v = 7;
                loop {
                    match elim.exchange_push(v, 10_000) {
                        Ok(()) => return,
                        Err(back) => v = back,
                    }
                }
            })
        };
        let popper = {
            let elim = Arc::clone(&elim);
            std::thread::spawn(move || loop {
                if let Some(v) = elim.exchange_pop() {
                    return v;
                }
                std::thread::yield_now();
            })
        };
        pusher.join().unwrap();
        assert_eq!(popper.join().unwrap(), 7);
    }

    #[test]
    fn timed_out_push_returns_value() {
        let elim = EliminationArray::<u32>::new(1);
        // No popper exists; the push must give the value back.
        assert_eq!(elim.exchange_push(3, 10), Err(3));
        // And the slot must be empty again.
        assert_eq!(elim.exchange_pop(), None);
    }

    #[test]
    fn pop_on_empty_slot_is_none() {
        let elim = EliminationArray::<u32>::new(2);
        assert_eq!(elim.exchange_pop(), None);
    }

    #[test]
    fn stack_round_trip() {
        let s = EliminationBackoffStack::new();
        for i in 0..50 {
            s.push(i);
        }
        for i in (0..50).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
    }
}
