//! Concurrent hash maps.
//!
//! Five implementations of [`cds_core::ConcurrentMap`] spanning the
//! classical design space:
//!
//! * [`CoarseMap`] — `std::collections::HashMap` behind one mutex; the
//!   baseline of experiment E5.
//! * [`StripedHashMap`] — **lock striping** (Herlihy & Shavit ch. 13): a
//!   fixed array of locks guards a growable bucket table, so operations on
//!   different stripes proceed in parallel; a resize briefly acquires every
//!   stripe. Because the table length is always a multiple of the lock
//!   count, keys in one bucket always map to the same stripe.
//! * [`BucketedHashSet`] — Michael's lock-free hash set (PPoPP 2002): a
//!   *fixed* array of Harris–Michael lists; fully lock-free but cannot
//!   grow.
//! * [`SplitOrderedHashMap`] — Shalev & Shavit's **split-ordered list**
//!   (JACM 2006): the only known way to make a lock-free hash table *grow*
//!   without ever moving an item. All items live in one lock-free sorted
//!   list ordered by bit-reversed hash; the "table" is just an array of
//!   shortcut pointers to *dummy* nodes, and doubling the table splits each
//!   bucket logically — recursively — by inserting one new dummy per new
//!   bucket.
//! * [`ResizingMap`] — a production-style **sharded map with cooperative
//!   incremental migration**: per-shard bucket tables double when a shard
//!   exceeds its load factor, and every thread that touches a resizing
//!   shard helps move a few buckets — no stop-the-world pause, with old
//!   bucket arrays retired through the [`cds_reclaim::Reclaimer`] trait.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentMap;
//! use cds_map::StripedHashMap;
//!
//! let m = StripedHashMap::new();
//! assert!(m.insert(1, "one"));
//! assert_eq!(m.get(&1), Some("one"));
//! assert!(m.remove(&1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bucketed;
mod coarse;
mod resizing;
mod split_ordered;
mod striped;

pub use bucketed::BucketedHashSet;
pub use coarse::CoarseMap;
pub use resizing::ResizingMap;
pub use split_ordered::SplitOrderedHashMap;
pub use striped::StripedHashMap;
