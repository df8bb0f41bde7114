use cds_atomic::Ordering;
use std::cmp::Ordering as CmpOrdering;
use std::fmt;

use crate::hm::{self, MARK};
use cds_core::ConcurrentSet;
use cds_reclaim::epoch::{Atomic, Owned};
use cds_reclaim::{Ebr, Reclaimer};

struct Node<T> {
    key: T,
    next: Atomic<Node<T>>,
}

impl<T> hm::Node for Node<T> {
    fn next(&self) -> &Atomic<Self> {
        &self.next
    }
}

/// The **lock-free** sorted list (Harris 2001, with Michael's 2002
/// hazard-pointer-compatible `find`).
///
/// The top rung of the list ladder: no locks anywhere. The protocol —
/// the logical-deletion mark in the low *tag bit* of the victim's `next`
/// pointer (design decision #2 in DESIGN.md), mark-then-unlink deletion,
/// helping traversals — is [`crate::hm`], run here on nodes ordered by
/// `T: Ord`.
///
/// The list is generic over its reclamation backend `R`
/// ([`cds_reclaim::Reclaimer`], default [`Ebr`]) and uses the **blanket**
/// protection mode ([`Reclaimer::enter_blanket`]) that `hm` requires.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_list::HarrisMichaelList;
///
/// let s = HarrisMichaelList::new();
/// s.insert(1);
/// s.insert(2);
/// assert!(s.remove(&1));
/// assert!(!s.contains(&1));
/// ```
pub struct HarrisMichaelList<T, R: Reclaimer = Ebr> {
    head: Atomic<Node<T>>,
    _reclaimer: std::marker::PhantomData<R>,
}

// SAFETY: keys cross threads by value; nodes are reclaimer-managed.
unsafe impl<T: Send + Sync, R: Reclaimer> Send for HarrisMichaelList<T, R> {}
unsafe impl<T: Send + Sync, R: Reclaimer> Sync for HarrisMichaelList<T, R> {}

impl<T: Ord> HarrisMichaelList<T> {
    /// Creates an empty set on the default ([`Ebr`]) backend.
    pub fn new() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Ord, R: Reclaimer> HarrisMichaelList<T, R> {
    /// Creates an empty set on the reclamation backend `R`.
    pub fn with_reclaimer() -> Self {
        HarrisMichaelList {
            head: Atomic::null(),
            _reclaimer: std::marker::PhantomData,
        }
    }
}

impl<T: Ord, R: Reclaimer> Default for HarrisMichaelList<T, R> {
    fn default() -> Self {
        Self::with_reclaimer()
    }
}

impl<T: Ord + Send + Sync, R: Reclaimer> ConcurrentSet<T> for HarrisMichaelList<T, R> {
    const NAME: &'static str = "harris-michael";

    fn insert(&self, value: T) -> bool {
        let guard = R::enter_blanket();
        let node = Owned::new(Node {
            key: value,
            next: Atomic::null(),
        });
        // SAFETY: every call on this chain passes `R`'s blanket guard.
        unsafe { hm::insert(&self.head, node, |c, n| c.key.cmp(&n.key), &guard) }.is_ok()
    }

    fn remove(&self, value: &T) -> bool {
        let guard = R::enter_blanket();
        // SAFETY: every call on this chain passes `R`'s blanket guard.
        unsafe { hm::remove(&self.head, |c| c.key.cmp(value), &guard) }
    }

    fn contains(&self, value: &T) -> bool {
        // Wait-free traversal: no helping, just skip marked nodes.
        let guard = R::enter_blanket();
        let mut curr = self.head.load(Ordering::Acquire, &guard);
        loop {
            cds_atomic::stress::yield_point();
            let curr_ref = match unsafe { curr.as_ref() } {
                None => return false,
                Some(c) => c,
            };
            let next = curr_ref.next.load(Ordering::Acquire, &guard);
            match curr_ref.key.cmp(value) {
                CmpOrdering::Less => curr = next.with_tag(0),
                CmpOrdering::Equal => return next.tag() != MARK,
                CmpOrdering::Greater => return false,
            }
        }
    }

    fn len(&self) -> usize {
        let guard = R::enter_blanket();
        let mut n = 0;
        let mut curr = self.head.load(Ordering::Acquire, &guard);
        while let Some(curr_ref) = unsafe { curr.as_ref() } {
            let next = curr_ref.next.load(Ordering::Acquire, &guard);
            if next.tag() != MARK {
                n += 1;
            }
            curr = next.with_tag(0);
        }
        n
    }
}

impl<T, R: Reclaimer> Drop for HarrisMichaelList<T, R> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` is unique access to the whole chain.
        unsafe { hm::drop_chain(&self.head) }
    }
}

impl<T, R: Reclaimer> fmt::Debug for HarrisMichaelList<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HarrisMichaelList")
            .field("reclaimer", &R::NAME)
            .finish_non_exhaustive()
    }
}

impl<T: Ord + Send + Sync> FromIterator<T> for HarrisMichaelList<T> {
    /// Collects into a set (duplicates are dropped).
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let set = HarrisMichaelList::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

impl<T: Ord + Send + Sync, R: Reclaimer> Extend<T> for HarrisMichaelList<T, R> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentSet;

    #[test]
    fn set_semantics_on_every_backend() {
        fn run<R: Reclaimer>() {
            let s: HarrisMichaelList<u64, R> = HarrisMichaelList::with_reclaimer();
            for i in 0..64 {
                assert!(s.insert(i), "{} backend", R::NAME);
            }
            for i in (0..64).step_by(2) {
                assert!(s.remove(&i), "{} backend", R::NAME);
            }
            for i in 0..64 {
                assert_eq!(s.contains(&i), i % 2 == 1, "{} backend", R::NAME);
            }
            assert_eq!(s.len(), 32);
            R::collect();
        }
        run::<Ebr>();
        run::<cds_reclaim::Hazard>();
        run::<cds_reclaim::Leak>();
        run::<cds_reclaim::DebugReclaim>();
    }
}
