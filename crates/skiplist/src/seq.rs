use std::fmt;
use std::ptr;

use crate::level::random_level;
use crate::HEIGHT;

struct Node<T> {
    key: T,
    /// Forward pointers; `forwards.len() == top_level + 1`.
    forwards: Vec<*mut Node<T>>,
}

/// A textbook **sequential** skiplist (Pugh, 1990).
///
/// Not thread-safe by itself; it is the engine inside
/// [`CoarseSkipList`](crate::CoarseSkipList), the single-threaded baseline
/// of experiment E6, and the reference model the randomized tests compare
/// the concurrent variants against.
///
/// # Example
///
/// ```
/// use cds_skiplist::SeqSkipList;
///
/// let mut s = SeqSkipList::new();
/// assert!(s.insert(2));
/// assert!(s.insert(1));
/// assert!(!s.insert(2));
/// assert!(s.contains(&1));
/// assert!(s.remove(&2));
/// assert_eq!(s.len(), 1);
/// ```
pub struct SeqSkipList<T> {
    /// Head tower: `head[l]` is the first node at level `l` (or null).
    head: Vec<*mut Node<T>>,
    len: usize,
}

// SAFETY: `&mut self` on every mutator makes this a plain owned structure;
// sending it between threads moves the whole list.
unsafe impl<T: Send> Send for SeqSkipList<T> {}

impl<T: Ord> SeqSkipList<T> {
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        SeqSkipList {
            head: vec![ptr::null_mut(); HEIGHT],
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the list has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// For each level, the last tower *strictly before* `key` (null when
    /// the head tower itself is the predecessor).
    fn predecessors(&self, key: &T) -> [*mut Node<T>; HEIGHT] {
        let mut preds: [*mut Node<T>; HEIGHT] = [ptr::null_mut(); HEIGHT];
        let mut pred: *mut Node<T> = ptr::null_mut();
        for l in (0..HEIGHT).rev() {
            // Continue from where the level above stopped.
            let mut curr = if pred.is_null() {
                self.head[l]
            } else {
                // SAFETY: `pred` is a live node of this list.
                unsafe { (&(*pred).forwards)[l] }
            };
            // SAFETY: all traversed pointers are live nodes of this list.
            unsafe {
                while !curr.is_null() && (*curr).key < *key {
                    pred = curr;
                    curr = (&(*curr).forwards)[l];
                }
            }
            preds[l] = pred;
        }
        preds
    }

    fn forward_of(&self, pred: *mut Node<T>, level: usize) -> *mut Node<T> {
        if pred.is_null() {
            self.head[level]
        } else {
            // SAFETY: live node.
            unsafe { (&(*pred).forwards)[level] }
        }
    }

    fn set_forward(&mut self, pred: *mut Node<T>, level: usize, to: *mut Node<T>) {
        if pred.is_null() {
            self.head[level] = to;
        } else {
            // SAFETY: live node, `&mut self`.
            unsafe { (&mut (*pred).forwards)[level] = to };
        }
    }

    /// Inserts `key`; returns `false` if already present.
    pub fn insert(&mut self, key: T) -> bool {
        let preds = self.predecessors(&key);
        let at = self.forward_of(preds[0], 0);
        // SAFETY: live node.
        if !at.is_null() && unsafe { &(*at).key } == &key {
            return false;
        }
        let top = random_level();
        let node = Box::into_raw(Box::new(Node {
            key,
            forwards: vec![ptr::null_mut(); top + 1],
        }));
        #[allow(clippy::needless_range_loop)] // lockstep over preds/levels
        for l in 0..=top {
            let succ = self.forward_of(preds[l], l);
            // SAFETY: node is fresh and unaliased.
            unsafe { (&mut (*node).forwards)[l] = succ };
            self.set_forward(preds[l], l, node);
        }
        self.len += 1;
        true
    }

    /// Removes `key`; returns `false` if absent.
    pub fn remove(&mut self, key: &T) -> bool {
        let preds = self.predecessors(key);
        let victim = self.forward_of(preds[0], 0);
        // SAFETY: live node.
        if victim.is_null() || unsafe { &(*victim).key } != key {
            return false;
        }
        // SAFETY: victim is live; unlink it at every level it occupies.
        let top = unsafe { (*victim).forwards.len() - 1 };
        #[allow(clippy::needless_range_loop)] // lockstep over preds/levels
        for l in 0..=top {
            if self.forward_of(preds[l], l) == victim {
                let succ = unsafe { (&(*victim).forwards)[l] };
                self.set_forward(preds[l], l, succ);
            }
        }
        // SAFETY: fully unlinked and single-threaded: free now.
        unsafe { drop(Box::from_raw(victim)) };
        self.len -= 1;
        true
    }

    /// Membership test.
    pub fn contains(&self, key: &T) -> bool {
        let preds = self.predecessors(key);
        let at = self.forward_of(preds[0], 0);
        // SAFETY: live node.
        !at.is_null() && unsafe { &(*at).key } == key
    }

    /// Removes and returns the smallest key.
    pub fn pop_min(&mut self) -> Option<T> {
        let first = self.head[0];
        if first.is_null() {
            return None;
        }
        // SAFETY: live node; unlink the head tower at every level.
        unsafe {
            let top = (*first).forwards.len() - 1;
            for l in 0..=top {
                if self.head[l] == first {
                    self.head[l] = (&(*first).forwards)[l];
                }
            }
            self.len -= 1;
            Some(Box::from_raw(first).key)
        }
    }

    /// A reference to the smallest key.
    pub fn min(&self) -> Option<&T> {
        // SAFETY: live node.
        unsafe { self.head[0].as_ref().map(|n| &n.key) }
    }

    /// Iterates keys in ascending order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            curr: self.head[0],
            _list: std::marker::PhantomData,
        }
    }
}

impl<T: Ord> Default for SeqSkipList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for SeqSkipList<T> {
    fn drop(&mut self) {
        let mut curr = self.head[0];
        while !curr.is_null() {
            // SAFETY: unique ownership.
            let node = unsafe { Box::from_raw(curr) };
            curr = node.forwards[0];
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for SeqSkipList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqSkipList")
            .field("len", &self.len)
            .finish()
    }
}

/// Ascending iterator over a [`SeqSkipList`].
pub struct Iter<'a, T> {
    curr: *mut Node<T>,
    _list: std::marker::PhantomData<&'a SeqSkipList<T>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.curr.is_null() {
            return None;
        }
        // SAFETY: the iterator borrows the list, so nodes stay alive.
        unsafe {
            let node = &*self.curr;
            self.curr = node.forwards[0];
            Some(&node.key)
        }
    }
}

impl<T> fmt::Debug for Iter<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Iter").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::stress::SplitMix64;

    #[test]
    fn sorted_iteration() {
        let mut s = SeqSkipList::new();
        for k in [5, 3, 9, 1, 7] {
            s.insert(k);
        }
        let got: Vec<i32> = s.iter().copied().collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn pop_min_drains_in_order() {
        let mut s = SeqSkipList::new();
        for k in [4, 2, 8, 6] {
            s.insert(k);
        }
        assert_eq!(s.min(), Some(&2));
        assert_eq!(s.pop_min(), Some(2));
        assert_eq!(s.pop_min(), Some(4));
        assert_eq!(s.pop_min(), Some(6));
        assert_eq!(s.pop_min(), Some(8));
        assert_eq!(s.pop_min(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn random_ops_match_btreeset() {
        use std::collections::BTreeSet;
        let mut model = BTreeSet::new();
        let mut s = SeqSkipList::new();
        let mut rng = SplitMix64::new(0x5eed);
        for _ in 0..5_000 {
            let k = rng.below(256) as i32;
            match rng.below(3) {
                0 => assert_eq!(s.insert(k), model.insert(k)),
                1 => assert_eq!(s.remove(&k), model.remove(&k)),
                _ => assert_eq!(s.contains(&k), model.contains(&k)),
            }
            assert_eq!(s.len(), model.len());
        }
        let got: Vec<i32> = s.iter().copied().collect();
        let want: Vec<i32> = model.into_iter().collect();
        assert_eq!(got, want);
    }
}
