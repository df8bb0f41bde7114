//! Common traits for the `cds` concurrent data structure family.
//!
//! Every abstract type in the family — stack, queue, set, map, priority
//! queue, counter — is described by a trait here, and every implementation
//! crate provides several interchangeable implementations of the relevant
//! trait:
//!
//! | Trait | Coarse-grained | Fine-grained | Lock-free |
//! |---|---|---|---|
//! | [`ConcurrentStack`] | `cds-stack::CoarseStack` | `cds-stack::EliminationBackoffStack`, `cds-stack::FcStack` | `cds-stack::TreiberStack` |
//! | [`ConcurrentQueue`] | `cds-queue::CoarseQueue` | `cds-queue::TwoLockQueue`, `cds-queue::FcQueue` | `cds-queue::MsQueue`, `cds-queue::BoundedQueue` |
//! | [`ConcurrentSet`] | `cds-list::CoarseList`, … | `cds-list::FineList`, `cds-list::LazyList`, … | `cds-list::HarrisMichaelList`, `cds-skiplist::LockFreeSkipList`, `cds-tree::LockFreeBst` |
//! | [`ConcurrentMap`] | `cds-map::CoarseMap` | `cds-map::StripedHashMap` | `cds-map::SplitOrderedHashMap` |
//! | [`ConcurrentPriorityQueue`] | `cds-prio::CoarseBinaryHeap` | — | `cds-prio::SkipListPriorityQueue` |
//! | [`ConcurrentCounter`] | `cds-counter::LockCounter` | `cds-counter::ShardedCounter`, `cds-counter::CombiningTreeCounter` | `cds-counter::AtomicCounter` |
//!
//! The traits let the test suite, the linearizability checker, and the
//! benchmark harness be written once and instantiated for every
//! implementation.
//!
//! # Semantics
//!
//! All operations are **linearizable** unless an implementation documents a
//! weaker guarantee (e.g. `ShardedCounter::get` is only quiescently
//! consistent). Sets and maps follow the literature's *dictionary*
//! semantics: `insert` is insert-if-absent and reports whether it inserted;
//! `remove` reports whether the element was present.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentStack;
//!
//! fn drain<T, S: ConcurrentStack<T>>(stack: &S) -> Vec<T> {
//!     std::iter::from_fn(|| stack.pop()).collect()
//! }
//! ```

#![warn(missing_docs)]

mod bound;

/// The stress scheduler (re-export of [`cds_atomic::stress`], where it
/// lives beside the atomics it drives).
pub use cds_atomic::stress;

/// Contention telemetry (re-export of [`cds_obs`]): allocation-free event
/// counters compiled in by the `telemetry` feature, no-ops otherwise.
pub use cds_obs as telemetry;

pub use bound::Bound;

/// A thread-safe last-in-first-out stack.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentStack;
///
/// fn push_two<S: ConcurrentStack<i32>>(s: &S) {
///     s.push(1);
///     s.push(2);
///     assert_eq!(s.pop(), Some(2));
/// }
/// ```
pub trait ConcurrentStack<T>: Send + Sync {
    /// A short implementation name for benchmark reports, e.g. `"treiber"`.
    const NAME: &'static str;

    /// Pushes `value` onto the top of the stack.
    fn push(&self, value: T);

    /// Pops the most recently pushed element, or `None` if the stack is
    /// empty at the linearization point.
    fn pop(&self) -> Option<T>;

    /// Returns `true` if the stack was empty at some point during the call.
    fn is_empty(&self) -> bool;
}

/// A thread-safe first-in-first-out queue.
///
/// Bounded implementations may spin briefly when full; use their inherent
/// `try_` methods for non-blocking access.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentQueue;
///
/// fn transfer<Q: ConcurrentQueue<u32>>(q: &Q) {
///     q.enqueue(1);
///     assert_eq!(q.dequeue(), Some(1));
/// }
/// ```
pub trait ConcurrentQueue<T>: Send + Sync {
    /// A short implementation name for benchmark reports, e.g. `"ms"`.
    const NAME: &'static str;

    /// Appends `value` at the tail.
    fn enqueue(&self, value: T);

    /// Removes the element at the head, or `None` if the queue is empty at
    /// the linearization point.
    fn dequeue(&self) -> Option<T>;

    /// Returns `true` if the queue was empty at some point during the call.
    fn is_empty(&self) -> bool;
}

/// A thread-safe set of ordered keys (a *dictionary* in the classical
/// terminology).
///
/// `insert` is insert-if-absent: concurrent inserts of the same key agree
/// on exactly one winner.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
///
/// fn dedup<S: ConcurrentSet<u64>>(s: &S, xs: &[u64]) -> usize {
///     xs.iter().filter(|&&x| s.insert(x)).count()
/// }
/// ```
pub trait ConcurrentSet<T>: Send + Sync {
    /// A short implementation name for benchmark reports, e.g. `"lazy"`.
    const NAME: &'static str;

    /// Inserts `value` if absent; returns `true` if this call inserted it.
    fn insert(&self, value: T) -> bool;

    /// Removes `value` if present; returns `true` if this call removed it.
    fn remove(&self, value: &T) -> bool;

    /// Returns `true` if `value` was in the set at the linearization point.
    fn contains(&self, value: &T) -> bool;

    /// Number of elements.
    ///
    /// For lock-free implementations this may take linear time and is only
    /// quiescently consistent; it is intended for tests and diagnostics.
    fn len(&self) -> usize;

    /// Returns `true` if the set contains no elements (see [`len`](ConcurrentSet::len)).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A thread-safe key-to-value map with dictionary semantics.
///
/// `V: Clone` because lock-free implementations cannot move a value out of
/// a node that concurrent readers may still be examining; `get` therefore
/// returns a clone.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentMap;
///
/// fn cache_lookup<M: ConcurrentMap<u64, String>>(m: &M, k: u64) -> String {
///     if let Some(v) = m.get(&k) {
///         return v;
///     }
///     let v = format!("value-{k}");
///     m.insert(k, v.clone());
///     v
/// }
/// ```
pub trait ConcurrentMap<K, V: Clone>: Send + Sync {
    /// A short implementation name for benchmark reports, e.g. `"striped"`.
    const NAME: &'static str;

    /// Inserts `(key, value)` if `key` is absent; returns `true` if this
    /// call inserted it (the value is dropped otherwise).
    fn insert(&self, key: K, value: V) -> bool;

    /// Removes `key` if present; returns `true` if this call removed it.
    fn remove(&self, key: &K) -> bool;

    /// Returns a clone of the value for `key`, if present at the
    /// linearization point.
    fn get(&self, key: &K) -> Option<V>;

    /// Returns `true` if `key` was present at the linearization point.
    fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries (may be linear-time; tests/diagnostics only).
    fn len(&self) -> usize;

    /// Returns `true` if the map contains no entries (see [`len`](ConcurrentMap::len)).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A thread-safe priority queue delivering the minimum element first.
///
/// `T: Clone` for the same reason as [`ConcurrentMap`]: lock-free
/// implementations return the minimum by clone, not by move.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentPriorityQueue;
///
/// fn schedule<P: ConcurrentPriorityQueue<u32>>(p: &P) {
///     p.insert(30);
///     p.insert(10);
///     assert_eq!(p.remove_min(), Some(10));
/// }
/// ```
pub trait ConcurrentPriorityQueue<T: Ord + Clone>: Send + Sync {
    /// A short implementation name for benchmark reports, e.g. `"skiplist"`.
    const NAME: &'static str;

    /// Inserts `value`; returns `true` if it was not already present
    /// (set-like priority queues reject duplicates).
    fn insert(&self, value: T) -> bool;

    /// Removes and returns the smallest element, or `None` if empty at the
    /// linearization point.
    fn remove_min(&self) -> Option<T>;

    /// Returns a clone of the smallest element without removing it.
    fn peek_min(&self) -> Option<T>;

    /// Number of elements (may be linear-time; tests/diagnostics only).
    fn len(&self) -> usize;

    /// Returns `true` if empty (see [`len`](ConcurrentPriorityQueue::len)).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A thread-safe counter.
///
/// The simplest shared object, and the classic vehicle for studying
/// contention: a single hot atomic scales poorly, so the literature builds
/// sharded and combining-tree counters that trade read precision or latency
/// for write throughput.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentCounter;
///
/// fn count_events<C: ConcurrentCounter>(c: &C, events: usize) {
///     for _ in 0..events {
///         c.increment();
///     }
///     assert!(c.get() >= events as i64);
/// }
/// ```
pub trait ConcurrentCounter: Send + Sync {
    /// A short implementation name for benchmark reports, e.g. `"sharded"`.
    const NAME: &'static str;

    /// Adds one to the counter.
    fn increment(&self) {
        self.add(1);
    }

    /// Adds `delta` (may be negative).
    fn add(&self, delta: i64);

    /// Reads the current value.
    ///
    /// Implementations document whether the read is linearizable or only
    /// quiescently consistent.
    fn get(&self) -> i64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traits must remain implementable and object-usable via generics;
    /// a toy implementation exercises the default methods.
    struct ToyCounter(cds_atomic::raw::AtomicI64);

    impl ConcurrentCounter for ToyCounter {
        const NAME: &'static str = "toy";

        fn add(&self, delta: i64) {
            self.0.fetch_add(delta, cds_atomic::raw::Ordering::Relaxed);
        }

        fn get(&self) -> i64 {
            self.0.load(cds_atomic::raw::Ordering::Relaxed)
        }
    }

    #[test]
    fn default_increment_adds_one() {
        let c = ToyCounter(cds_atomic::raw::AtomicI64::new(0));
        c.increment();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(ToyCounter::NAME, "toy");
    }
}
