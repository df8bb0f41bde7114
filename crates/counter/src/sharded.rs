use cds_atomic::{AtomicI64, AtomicUsize, Ordering};
use std::fmt;

use cds_core::ConcurrentCounter;
use cds_sync::CachePadded;

/// Returns a small dense id for the calling thread, assigned on first use.
///
/// Used by the striped structures to spread threads across shards without
/// hashing `ThreadId` (whose values are not dense).
pub(crate) fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// A striped counter: per-thread shards summed on read.
///
/// Each thread increments its own cache-line-padded cell, so increments
/// from different threads never contend — write throughput scales linearly
/// with cores (the design of Java's `LongAdder`). The price is paid on
/// reads: [`get`](ConcurrentCounter::get) sums all shards and is only
/// **quiescently consistent** — it returns the exact total whenever no
/// increments are concurrently in flight, but a concurrent read may miss
/// in-flight increments (it never double-counts).
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentCounter;
/// use cds_counter::ShardedCounter;
///
/// let c = ShardedCounter::new();
/// c.add(2);
/// assert_eq!(c.get(), 2);
/// ```
pub struct ShardedCounter {
    shards: Box<[CachePadded<AtomicI64>]>,
}

impl ShardedCounter {
    /// Default number of shards (covers typical core counts).
    const DEFAULT_SHARDS: usize = 32;

    /// Creates a counter with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Creates a counter with `shards` stripes (rounded up to a power of
    /// two).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let shards = shards.next_power_of_two();
        ShardedCounter {
            shards: (0..shards)
                .map(|_| CachePadded::new(AtomicI64::new(0)))
                .collect(),
        }
    }

    fn my_shard(&self) -> &AtomicI64 {
        &self.shards[thread_index() & (self.shards.len() - 1)]
    }
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentCounter for ShardedCounter {
    const NAME: &'static str = "sharded";

    fn add(&self, delta: i64) {
        cds_atomic::stress::yield_point();
        self.my_shard().fetch_add(delta, Ordering::Relaxed);
    }

    fn get(&self) -> i64 {
        self.shards
            .iter()
            .map(|s| {
                cds_atomic::stress::yield_point();
                s.load(Ordering::Acquire)
            })
            .sum()
    }
}

impl fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedCounter")
            .field("shards", &self.shards.len())
            .field("value", &self.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentCounter;

    #[test]
    fn single_thread_is_exact() {
        let c = ShardedCounter::with_shards(4);
        for _ in 0..100 {
            c.increment();
        }
        c.add(-50);
        assert_eq!(c.get(), 50);
    }

    #[test]
    fn thread_indices_are_distinct() {
        let a = thread_index();
        let b = std::thread::spawn(thread_index).join().unwrap();
        assert_ne!(a, b);
        // Stable within a thread.
        assert_eq!(a, thread_index());
    }
}
