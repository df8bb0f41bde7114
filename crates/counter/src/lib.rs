//! Concurrent counters — the classic vehicle for studying contention.
//!
//! A shared counter is the smallest possible shared object, yet a single
//! hot cache line caps its throughput no matter how many cores increment
//! it. The literature's progression, all implemented here behind
//! [`cds_core::ConcurrentCounter`]:
//!
//! * [`LockCounter`] — a mutex around an integer; the coarse baseline.
//! * [`AtomicCounter`] — `fetch_add` on one atomic; optimal uncontended,
//!   but serializes on the cache line under contention.
//! * [`ShardedCounter`] — per-thread-striped cells summed on read;
//!   linearizable `add`, *quiescently consistent* `get` (the value is exact
//!   whenever no increments are in flight).
//! * [`FcCounter`] — a flat-combining counter (Hendler et al., 2010):
//!   the modern take on combining.
//! * [`CombiningTreeCounter`] — a software combining tree (Goodman et al.;
//!   Herlihy & Shavit ch. 12): concurrent increments climbing the tree
//!   merge into one, so `p` threads issue far fewer than `p` RMWs on the
//!   root. Historically important; usually slower than sharding on modern
//!   cache-coherent hardware — exactly the comparison experiment E1 draws.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentCounter;
//! use cds_counter::ShardedCounter;
//!
//! let c = ShardedCounter::new();
//! c.add(5);
//! c.increment();
//! assert_eq!(c.get(), 6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod atomic;
mod combining;
mod fc;
mod lock;
mod sharded;

pub use atomic::AtomicCounter;
pub use combining::CombiningTreeCounter;
pub use fc::FcCounter;
pub use lock::LockCounter;
pub use sharded::ShardedCounter;
