//! Concurrent binary search trees.
//!
//! Three implementations of [`cds_core::ConcurrentSet`]:
//!
//! * [`CoarseBst`] — a plain internal BST behind one mutex (E7 baseline).
//! * [`FineBst`] — an **external** BST (keys at the leaves, internal nodes
//!   route) with hand-over-hand locking: a traversal holds at most the
//!   locks of the current node and its parent, so operations in disjoint
//!   subtrees run in parallel, and a delete — which splices out a leaf and
//!   its parent — holds exactly the grandparent and parent locks it needs.
//! * [`LockFreeBst`] — the non-blocking external BST of **Ellen, Fatourou,
//!   Ruppert & van Breugel (PODC 2010)**, the first practical lock-free
//!   BST. Every internal node carries an *update* word combining a state
//!   (`Clean`/`IFlag`/`DFlag`/`Mark` — the tag bits of an epoch pointer)
//!   with a pointer to an *operation descriptor*; threads that encounter a
//!   pending operation **help** complete it, which is what makes the tree
//!   lock-free.
//!
//! External trees are the representation of choice for concurrent BSTs
//! because updates touch a constant number of nodes near a leaf and never
//! rotate. No rebalancing is attempted (as in the published algorithm);
//! expected depth is logarithmic for random keys.
//!
//! # Example
//!
//! ```
//! use cds_core::ConcurrentSet;
//! use cds_tree::LockFreeBst;
//!
//! let t = LockFreeBst::new();
//! t.insert(4);
//! t.insert(2);
//! assert!(t.contains(&2));
//! assert!(t.remove(&4));
//! assert_eq!(t.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coarse;
mod ellen;
mod fine;
mod key;

pub use coarse::CoarseBst;
pub use ellen::LockFreeBst;
pub use fine::FineBst;

pub(crate) use key::TreeKey;
