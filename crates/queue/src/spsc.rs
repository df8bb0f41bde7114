use cds_atomic::{AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::Arc;

use cds_sync::CachePadded;

/// Lamport's single-producer single-consumer ring buffer (1977).
///
/// The oldest wait-free queue: because exactly one thread writes `tail` and
/// exactly one writes `head`, no read-modify-write operations are needed at
/// all — each side publishes its own index with a release store and reads
/// the other's with an acquire load. Both operations complete in a bounded
/// number of steps unconditionally (wait-freedom), something no MPMC queue
/// achieves.
///
/// The single-producer/single-consumer restriction is enforced by the type
/// system: [`spsc_ring_buffer`] returns a non-cloneable
/// [`SpscProducer`]/[`SpscConsumer`] pair, each `Send` but usable by one
/// thread at a time.
///
/// # Example
///
/// ```
/// use cds_queue::spsc_ring_buffer;
///
/// let (producer, consumer) = spsc_ring_buffer::<u32>(8);
/// let t = std::thread::spawn(move || {
///     for i in 0..100 {
///         let mut v = i;
///         while let Err(back) = producer.try_push(v) {
///             v = back;
///         }
///     }
/// });
/// let mut received = 0;
/// while received < 100 {
///     if let Some(v) = consumer.try_pop() {
///         assert_eq!(v, received);
///         received += 1;
///     }
/// }
/// t.join().unwrap();
/// ```
pub struct SpscRingBuffer<T> {
    buffer: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next index the consumer will read. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next index the producer will write. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the producer/consumer split guarantees each slot is accessed by
// one side at a time (ownership alternates via the head/tail protocol).
unsafe impl<T: Send> Send for SpscRingBuffer<T> {}
unsafe impl<T: Send> Sync for SpscRingBuffer<T> {}

impl<T> SpscRingBuffer<T> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let capacity = capacity.next_power_of_two();
        SpscRingBuffer {
            buffer: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: capacity - 1,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Maximum number of buffered elements.
    pub fn capacity(&self) -> usize {
        self.buffer.len()
    }
}

impl<T> Drop for SpscRingBuffer<T> {
    fn drop(&mut self) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for i in head..tail {
            // SAFETY: unique access; indices in [head, tail) hold live values.
            unsafe { (*self.buffer[i & self.mask].get()).assume_init_drop() };
        }
    }
}

impl<T> fmt::Debug for SpscRingBuffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpscRingBuffer")
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// Creates a wait-free SPSC ring with room for `capacity` elements
/// (rounded up to a power of two); see [`SpscRingBuffer`].
pub fn spsc_ring_buffer<T>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    let ring = Arc::new(SpscRingBuffer::new(capacity));
    (
        SpscProducer {
            ring: Arc::clone(&ring),
            cached_head: std::cell::Cell::new(0),
        },
        SpscConsumer {
            ring,
            cached_tail: std::cell::Cell::new(0),
        },
    )
}

/// The producing half of an SPSC ring; see [`SpscRingBuffer`].
pub struct SpscProducer<T> {
    ring: Arc<SpscRingBuffer<T>>,
    /// Consumer index cached to avoid reading the shared `head` on every
    /// push (a standard optimization: refresh only when the ring looks
    /// full).
    cached_head: std::cell::Cell<usize>,
}

// SAFETY: one logical producer; may migrate between threads (Send), never
// shared (no Sync, enforced by !Sync via Cell).
unsafe impl<T: Send> Send for SpscProducer<T> {}

impl<T> SpscProducer<T> {
    /// Attempts to push; returns the value back if the ring is full.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        if tail - self.cached_head.get() == ring.buffer.len() {
            self.cached_head.set(ring.head.load(Ordering::Acquire));
            if tail - self.cached_head.get() == ring.buffer.len() {
                return Err(value);
            }
        }
        // SAFETY: slot `tail` is owned by the producer until the release
        // store below transfers it.
        unsafe { (*ring.buffer[tail & ring.mask].get()).write(value) };
        ring.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Pushes, backing off (and eventually yielding) while the ring is
    /// full.
    pub fn push(&self, value: T) {
        let mut value = value;
        let backoff = cds_sync::Backoff::new();
        loop {
            cds_atomic::stress::yield_point();
            match self.try_push(value) {
                Ok(()) => return,
                Err(v) => value = v,
            }
            backoff.snooze();
        }
    }
}

impl<T> fmt::Debug for SpscProducer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpscProducer").finish_non_exhaustive()
    }
}

/// The consuming half of an SPSC ring; see [`SpscRingBuffer`].
pub struct SpscConsumer<T> {
    ring: Arc<SpscRingBuffer<T>>,
    /// Producer index cached symmetrically to `SpscProducer::cached_head`.
    cached_tail: std::cell::Cell<usize>,
}

// SAFETY: one logical consumer (see SpscProducer).
unsafe impl<T: Send> Send for SpscConsumer<T> {}

impl<T> SpscConsumer<T> {
    /// Attempts to pop; returns `None` if the ring is empty.
    pub fn try_pop(&self) -> Option<T> {
        let ring = &*self.ring;
        let head = self.ring.head.load(Ordering::Relaxed);
        if head == self.cached_tail.get() {
            self.cached_tail.set(ring.tail.load(Ordering::Acquire));
            if head == self.cached_tail.get() {
                return None;
            }
        }
        // SAFETY: slot `head` was published by the producer's release store;
        // we own it until the store below returns it.
        let value = unsafe { (*ring.buffer[head & ring.mask].get()).assume_init_read() };
        ring.head.store(head + 1, Ordering::Release);
        Some(value)
    }
}

impl<T> fmt::Debug for SpscConsumer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpscConsumer").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicUsize as Counter;

    #[test]
    fn fills_and_drains() {
        let (p, c) = spsc_ring_buffer::<u32>(4);
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        assert_eq!(p.try_push(99), Err(99));
        for i in 0..4 {
            assert_eq!(c.try_pop(), Some(i));
        }
        assert_eq!(c.try_pop(), None);
    }

    #[test]
    fn cross_thread_transfer_in_order() {
        let (p, c) = spsc_ring_buffer::<u64>(64);
        const N: u64 = 5_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                p.push(i);
            }
        });
        let consumer = std::thread::spawn(move || {
            let mut expected = 0;
            while expected < N {
                match c.try_pop() {
                    Some(v) => {
                        assert_eq!(v, expected);
                        expected += 1;
                    }
                    // Single core: let the producer run.
                    None => std::thread::yield_now(),
                }
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
    }

    #[test]
    fn drop_frees_buffered_values() {
        struct D(Arc<Counter>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(Counter::new(0));
        {
            let (p, _c) = spsc_ring_buffer(8);
            for _ in 0..3 {
                p.try_push(D(Arc::clone(&drops))).ok().unwrap();
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }
}
