use cds_atomic::{AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;

use cds_core::stress::{armed, Fault};
use cds_core::ConcurrentQueue;
use cds_sync::{Backoff, CachePadded};

struct Slot<T> {
    /// Ticket machinery: a slot is writable when `sequence == pos` and
    /// readable when `sequence == pos + 1`.
    sequence: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer multi-consumer array queue (Vyukov's design).
///
/// A power-of-two ring of slots, each carrying a *sequence number* that
/// encodes whose turn the slot is: producers and consumers claim positions
/// with a fetch-style CAS on their own cursor and then synchronize with the
/// slot's sequence, so a producer and a consumer operating on different
/// slots never touch the same cache line. No allocation happens after
/// construction — the reason bounded queues dominate in latency-sensitive
/// systems.
///
/// The [`ConcurrentQueue`] impl spins when the queue is full; use
/// [`try_enqueue`](BoundedQueue::try_enqueue) /
/// [`try_dequeue`](BoundedQueue::try_dequeue) for non-blocking access.
///
/// # Example
///
/// ```
/// use cds_queue::BoundedQueue;
///
/// let q = BoundedQueue::with_capacity(4);
/// assert!(q.try_enqueue(1).is_ok());
/// assert_eq!(q.try_dequeue(), Some(1));
/// assert_eq!(q.try_dequeue(), None);
/// ```
pub struct BoundedQueue<T> {
    buffer: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
}

// SAFETY: slot access is serialized by the sequence-number protocol.
unsafe impl<T: Send> Send for BoundedQueue<T> {}
unsafe impl<T: Send> Sync for BoundedQueue<T> {}

/// Extra yield point inside the claim→publish windows while the planted
/// regression ([`Fault::ClaimWindowYields`]) is armed.
#[inline]
fn claim_window_yield() {
    if armed(Fault::ClaimWindowYields) {
        cds_core::stress::yield_point();
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero. Capacity is rounded up to the next
    /// power of two, and to no less than **2**: with a single slot the
    /// sequence stamp a producer publishes ("value at position `p`",
    /// stamp `p + 1`) coincides with the stamp a consumer frees the slot
    /// with ("ready for position `p + 1`", stamp `p + capacity`), so the
    /// next producer could claim the slot while the consumer is still
    /// reading it and overwrite an undelivered value. Two slots keep the
    /// stamps one lap apart, which is what the protocol's full/empty
    /// discrimination relies on.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_slots(capacity, 2)
    }

    /// Like [`with_capacity`](Self::with_capacity) but *without* the
    /// minimum-capacity clamp: a capacity-1 ring is built as requested,
    /// re-arming the sequence-stamp collision documented there. Exists
    /// solely so the exploration suite can prove the systematic scheduler
    /// finds that historical bug; never use it for real queues.
    #[cfg(feature = "stress")]
    #[doc(hidden)]
    pub fn with_capacity_unchecked(capacity: usize) -> Self {
        Self::with_slots(capacity, 1)
    }

    /// A ring of `capacity` slots, rounded up to a power of two of at
    /// least `min_slots`.
    fn with_slots(capacity: usize, min_slots: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let capacity = capacity.next_power_of_two().max(min_slots);
        let buffer: Box<[Slot<T>]> = (0..capacity)
            .map(|i| Slot {
                sequence: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        BoundedQueue {
            buffer,
            mask: capacity - 1,
            enqueue_pos: CachePadded::new(AtomicUsize::new(0)),
            dequeue_pos: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Maximum number of elements.
    pub fn capacity(&self) -> usize {
        self.buffer.len()
    }

    /// Approximate number of stored elements (racy; diagnostics only).
    ///
    /// The two cursors are read with independent `Relaxed` loads, so the
    /// raw difference is *not* a consistent snapshot: a reader can observe
    /// a fresh `enqueue_pos` next to a stale `dequeue_pos` (nothing orders
    /// the two loads against the slot hand-off) and the difference can
    /// then exceed the ring size.
    /// The result is therefore clamped to
    /// `0 ..= `[`capacity()`](Self::capacity); within that band it is
    /// best-effort only — both ends are reachable while operations are in
    /// flight, so neither `len` nor [`is_empty`](Self::is_empty) may be
    /// used for synchronization decisions.
    pub fn len(&self) -> usize {
        let enq = self.enqueue_pos.load(Ordering::Relaxed);
        let deq = self.dequeue_pos.load(Ordering::Relaxed);
        enq.saturating_sub(deq).min(self.capacity())
    }

    /// Whether the queue appears empty (racy; diagnostics only — see
    /// [`len`](Self::len) for why the answer may be stale).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue; returns the value back if the queue is full.
    ///
    /// "Full" is a *corroborated* verdict: the slot's stamp lagging a lap
    /// is not enough (that read can be stale, or the consumer freeing it
    /// can be mid-flight), so the verdict is confirmed against the
    /// consumer cursor with `SeqCst` before `Err` is returned. If the
    /// stamp lags but the cursors show a consumer mid-consumption, the
    /// call briefly waits for that consumer's stamp (it has at most two
    /// instructions left) instead of reporting a spurious full.
    pub fn try_enqueue(&self, value: T) -> Result<(), T> {
        let backoff = Backoff::new();
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            cds_core::stress::yield_point();
            let slot = &self.buffer[pos & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            match seq as isize - pos as isize {
                0 => {
                    // Our turn: claim the position. SeqCst so the claim
                    // participates in the single total order that the
                    // empty/full corroboration loads read from.
                    match self.enqueue_pos.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            claim_window_yield();
                            // SAFETY: the claim gives exclusive write access
                            // to this slot until we bump its sequence.
                            unsafe { (*slot.value.get()).write(value) };
                            slot.sequence.store(pos + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(actual) => {
                            pos = actual;
                            backoff.spin();
                        }
                    }
                }
                d if d < 0 => {
                    // The stamp is a lap behind: the slot still holds the
                    // value from position `pos - capacity` in our view.
                    // Declaring the queue full from the stamp alone is not
                    // linearizable — the lagging stamp may simply be a
                    // stale read long after the consumer freed the slot
                    // (the `weak_bounded_queue_window` exploration finds
                    // the dequeue-side twin of that history). Corroborate:
                    // if no consumer has claimed `pos - capacity`, a full
                    // lap of claims is outstanding and `Err` linearizes at
                    // this load.
                    if self.dequeue_pos.load(Ordering::SeqCst) + self.buffer.len() == pos {
                        return Err(value);
                    }
                    // A consumer claimed the slot but has not stamped it
                    // free (or our stamp view is stale): wait for the
                    // stamp. Pure re-check loop, so `Blocked` is sound and
                    // collapses the stutter branching under exploration.
                    // SeqCst for freshness; see the dequeue-side wait.
                    let wait = Backoff::new();
                    while (slot.sequence.load(Ordering::SeqCst) as isize) < pos as isize {
                        wait.snooze_tagged(cds_core::stress::YieldTag::Blocked(
                            &slot.sequence as *const _ as usize,
                        ));
                    }
                }
                _ => pos = self.enqueue_pos.load(Ordering::Relaxed),
            }
        }
    }

    /// Attempts to dequeue; returns `None` if the queue is empty.
    ///
    /// "Empty" is a *corroborated* verdict, symmetric to
    /// [`try_enqueue`](Self::try_enqueue): a lagging slot stamp alone can
    /// be a stale read taken long after the producer published (and
    /// returned), and a `None` built on it is not linearizable — the
    /// `weak_bounded_queue_window` exploration finds exactly that
    /// history: a dequeuer that loses its claim CAS, moves to the next
    /// slot, reads its stamp stale, and reports empty between two
    /// completed enqueues. The verdict is confirmed against the producer
    /// cursor with `SeqCst`; a stamp that lags while the cursors show a
    /// producer mid-publication is waited out instead.
    pub fn try_dequeue(&self) -> Option<T> {
        let backoff = Backoff::new();
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            cds_core::stress::yield_point();
            let slot = &self.buffer[pos & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            match seq as isize - (pos + 1) as isize {
                0 => {
                    // SeqCst: see the enqueue-side claim.
                    match self.dequeue_pos.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            claim_window_yield();
                            // SAFETY: the claim gives exclusive read access;
                            // the producer's Release store made the value
                            // visible.
                            let value = unsafe { (*slot.value.get()).assume_init_read() };
                            // Free the slot for the producer one lap ahead.
                            slot.sequence.store(pos + self.mask + 1, Ordering::Release);
                            return Some(value);
                        }
                        Err(actual) => {
                            pos = actual;
                            backoff.spin();
                        }
                    }
                }
                d if d < 0 => {
                    // Slot not produced in our view. Corroborate before
                    // declaring empty: if no producer has claimed `pos`,
                    // every claim ever made is matched by a consumer claim
                    // below `pos`, so `None` linearizes at this load.
                    if self.enqueue_pos.load(Ordering::SeqCst) == pos {
                        return None;
                    }
                    // A producer claimed `pos` but has not stamped it (or
                    // our stamp view is stale): wait for the stamp rather
                    // than report a spurious empty. Pure re-check loop, so
                    // `Blocked` is sound for the exploration scheduler.
                    // SeqCst (not Acquire) deliberately: the wait only
                    // cares about *freshness*, the synchronizing Acquire
                    // happens at the loop head once the stamp lands — and
                    // under the weak-memory explorer a SeqCst load always
                    // reads the newest stamp, so the wait does not fork a
                    // read-from branch per re-check.
                    let wait = Backoff::new();
                    while (slot.sequence.load(Ordering::SeqCst) as isize) < (pos + 1) as isize {
                        wait.snooze_tagged(cds_core::stress::YieldTag::Blocked(
                            &slot.sequence as *const _ as usize,
                        ));
                    }
                }
                _ => pos = self.dequeue_pos.load(Ordering::Relaxed),
            }
        }
    }
}

impl<T> Default for BoundedQueue<T> {
    /// A queue with a default capacity of 1024 slots.
    fn default() -> Self {
        Self::with_capacity(1024)
    }
}

impl<T: Send> ConcurrentQueue<T> for BoundedQueue<T> {
    const NAME: &'static str = "bounded";

    /// Enqueues, spinning while the queue is full.
    fn enqueue(&self, value: T) {
        let mut value = value;
        let backoff = Backoff::new();
        loop {
            cds_core::stress::yield_point();
            match self.try_enqueue(value) {
                Ok(()) => return,
                Err(v) => value = v,
            }
            backoff.snooze();
        }
    }

    fn dequeue(&self) -> Option<T> {
        self.try_dequeue()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for BoundedQueue<T> {
    fn drop(&mut self) {
        // Drain undequeued values by walking the ring directly: `&mut self`
        // rules out concurrent claims, so a slot holds a value exactly when
        // its sequence says "readable at this position". A `try_dequeue`
        // loop would be equivalent on a well-formed ring but can spin
        // forever on a corrupted one (its `dif > 0` arm waits for another
        // consumer to advance the cursor — at drop time there is none), so
        // the walk is bounded by the capacity instead.
        let enq = *self.enqueue_pos.get_mut();
        let mut pos = *self.dequeue_pos.get_mut();
        for _ in 0..self.buffer.len() {
            if pos == enq {
                break;
            }
            let slot = &mut self.buffer[pos & self.mask];
            if *slot.sequence.get_mut() == pos.wrapping_add(1) {
                // SAFETY: the sequence stamp says a produced, unconsumed
                // value sits in this slot, and `&mut self` makes us its
                // only reader.
                unsafe { slot.value.get_mut().assume_init_drop() };
            }
            pos = pos.wrapping_add(1);
        }
    }
}

impl<T> fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicUsize as Counter;
    use std::sync::Arc;

    #[test]
    fn capacity_rounds_up() {
        let q: BoundedQueue<u8> = BoundedQueue::with_capacity(5);
        assert_eq!(q.capacity(), 8);
    }

    /// Regression: a capacity-1 ring must round up to 2 slots. With one
    /// slot the dequeuer's freeing stamp (`pos + capacity`) equals the
    /// enqueuer's publishing stamp (`pos + 1`), so a producer could claim
    /// the slot mid-read and overwrite an undelivered value — found as a
    /// lost executor task by `tests/exec.rs` driving a "capacity-1"
    /// injector under the PCT scheduler. The storm half of this test
    /// hammers the two-slot ring SPSC and checks conservation.
    #[test]
    fn capacity_one_rounds_up_to_two_and_conserves() {
        let q: BoundedQueue<u64> = BoundedQueue::with_capacity(1);
        assert_eq!(q.capacity(), 2);

        const N: u64 = 20_000;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut i = 0;
                while i < N {
                    if q.try_enqueue(i).is_ok() {
                        i += 1;
                    } else {
                        // Yield on full: on a single-hardware-thread host
                        // the partner needs the CPU to make progress.
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(|| {
                let mut expect = 0;
                while expect < N {
                    if let Some(v) = q.try_dequeue() {
                        assert_eq!(v, expect, "lost or reordered element");
                        expect += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
        assert_eq!(q.try_dequeue(), None);
    }

    #[test]
    fn full_queue_rejects() {
        let q = BoundedQueue::with_capacity(2);
        assert!(q.try_enqueue(1).is_ok());
        assert!(q.try_enqueue(2).is_ok());
        assert_eq!(q.try_enqueue(3), Err(3));
        assert_eq!(q.try_dequeue(), Some(1));
        assert!(q.try_enqueue(3).is_ok());
    }

    #[test]
    fn wraps_around_many_times() {
        let q = BoundedQueue::with_capacity(4);
        for i in 0..100 {
            q.try_enqueue(i).unwrap();
            assert_eq!(q.try_dequeue(), Some(i));
        }
    }

    #[test]
    fn len_is_bounded_during_producer_consumer_storm() {
        // Regression for the unclamped len(): with a tiny ring and four
        // threads churning the cursors, an observer hammering len() used
        // to see enqueue_pos - dequeue_pos exceed capacity() whenever its
        // dequeue-cursor load was stale. The clamp bounds every answer.
        use cds_atomic::AtomicBool;
        let q = Arc::new(BoundedQueue::with_capacity(4));
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let q = Arc::clone(&q);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if i % 2 == 0 {
                            let _ = q.try_enqueue(i);
                        } else {
                            let _ = q.try_dequeue();
                        }
                    }
                })
            })
            .collect();
        for _ in 0..200_000 {
            let len = q.len();
            assert!(
                len <= q.capacity(),
                "len {len} exceeds capacity {}",
                q.capacity()
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn drop_frees_undequeued() {
        struct D(Arc<Counter>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(Counter::new(0));
        {
            let q = BoundedQueue::with_capacity(8);
            for _ in 0..5 {
                q.try_enqueue(D(Arc::clone(&drops))).ok().unwrap();
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }
}
