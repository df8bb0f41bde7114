use cds_atomic::{AtomicBool, AtomicI64, Ordering};
use std::fmt;

use cds_core::ConcurrentCounter;
use cds_sync::CachePadded;

use crate::sharded::thread_index;

/// One tree node: a parking area for deltas plus a try-lock electing the
/// thread that carries combined deltas toward the root.
struct Node {
    pending: AtomicI64,
    combining: AtomicBool,
}

/// A software combining-tree counter (Goodman, Vernon & Woest; Herlihy &
/// Shavit ch. 12).
///
/// Threads are assigned to the leaves of a binary tree and climb toward the
/// root to apply their increment. At each node exactly one climber — the
/// *combiner*, elected with a try-lock — proceeds upward, **absorbing** the
/// deltas that other threads parked at the node; losers deposit their delta
/// and return immediately. Under p-thread contention the root sees far
/// fewer than p read-modify-writes, which was the point on the bus-based
/// multiprocessors the technique was invented for.
///
/// This implementation specializes the classical tree to operations that
/// need no return value (`add`), which removes the result-distribution
/// phase: a parked delta is simply carried up by a later combiner or
/// included in a read. The invariant maintained is
/// `true total = root + Σ node.pending`, so:
///
/// * `add` is **linearizable** (the delta is globally visible once parked
///   or applied);
/// * `get` sums the root and every node's parking area and is
///   **quiescently consistent**, exact whenever no `add` is in flight —
///   the same guarantee as [`ShardedCounter`](crate::ShardedCounter).
///
/// On modern cache-coherent hardware the striped counter usually wins;
/// experiment E1 measures precisely this historical trade-off.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentCounter;
/// use cds_counter::CombiningTreeCounter;
///
/// let c = CombiningTreeCounter::new();
/// c.add(3);
/// assert_eq!(c.get(), 3);
/// ```
pub struct CombiningTreeCounter {
    /// Implicit binary tree: node `i`'s parent is `(i - 1) / 2`; the last
    /// `(len + 1) / 2` nodes are leaves.
    nodes: Box<[CachePadded<Node>]>,
    root: CachePadded<AtomicI64>,
    leaves: usize,
}

impl CombiningTreeCounter {
    /// Default number of leaves (threads hash onto them).
    const DEFAULT_LEAVES: usize = 8;

    /// Creates a tree with the default width.
    pub fn new() -> Self {
        Self::with_leaves(Self::DEFAULT_LEAVES)
    }

    /// Creates a tree with `leaves` leaf nodes (rounded up to a power of
    /// two).
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero.
    pub fn with_leaves(leaves: usize) -> Self {
        assert!(leaves > 0, "need at least one leaf");
        let leaves = leaves.next_power_of_two();
        let node_count = 2 * leaves - 1;
        CombiningTreeCounter {
            nodes: (0..node_count)
                .map(|_| {
                    CachePadded::new(Node {
                        pending: AtomicI64::new(0),
                        combining: AtomicBool::new(false),
                    })
                })
                .collect(),
            root: CachePadded::new(AtomicI64::new(0)),
            leaves,
        }
    }

    fn leaf_index(&self) -> usize {
        let first_leaf = self.nodes.len() - self.leaves;
        first_leaf + (thread_index() & (self.leaves - 1))
    }
}

impl Default for CombiningTreeCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentCounter for CombiningTreeCounter {
    const NAME: &'static str = "combining";

    fn add(&self, delta: i64) {
        let mut carry = delta;
        let mut index = self.leaf_index();
        loop {
            cds_atomic::stress::yield_point();
            let node = &self.nodes[index];
            if node
                .combining
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // We are the combiner here: absorb parked deltas and climb.
                carry += node.pending.swap(0, Ordering::AcqRel);
                node.combining.store(false, Ordering::Release);
                if index == 0 {
                    // One full climb committed at the root = one combining
                    // round (the tree analogue of a flat-combining pass).
                    cds_obs::count(cds_obs::Event::FcCombineRounds);
                    self.root.fetch_add(carry, Ordering::AcqRel);
                    return;
                }
                index = (index - 1) / 2;
            } else {
                // A combiner is active at this node: park the delta for it
                // (or for a later climber / reader) and leave. The sum
                // invariant makes the delta immediately visible to `get`.
                node.pending.fetch_add(carry, Ordering::AcqRel);
                return;
            }
        }
    }

    fn get(&self) -> i64 {
        // total = root + Σ pending (see type-level docs).
        let mut total = self.root.load(Ordering::Acquire);
        for node in self.nodes.iter() {
            total += node.pending.load(Ordering::Acquire);
        }
        total
    }
}

impl fmt::Debug for CombiningTreeCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CombiningTreeCounter")
            .field("leaves", &self.leaves)
            .field("value", &self.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentCounter;
    use std::sync::Arc;

    #[test]
    fn sequential_adds_are_exact() {
        let c = CombiningTreeCounter::with_leaves(2);
        for i in 1..=10 {
            c.add(i);
        }
        assert_eq!(c.get(), 55);
    }

    #[test]
    fn parked_deltas_are_visible_to_get() {
        let c = CombiningTreeCounter::with_leaves(1);
        // Manually park a delta by holding the root's combining flag.
        c.nodes[0].combining.store(true, Ordering::SeqCst);
        c.add(5); // must park, not spin
        assert_eq!(c.get(), 5, "parked delta invisible");
        c.nodes[0].combining.store(false, Ordering::SeqCst);
        c.add(1); // climbs, absorbing the parked 5
        assert_eq!(c.get(), 6);
        assert_eq!(c.root.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn quiescent_total_is_exact_under_contention() {
        let c = Arc::new(CombiningTreeCounter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        c.increment();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 16_000);
    }
}
