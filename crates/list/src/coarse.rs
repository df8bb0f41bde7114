use std::fmt;

use cds_core::ConcurrentSet;
use cds_sync::Mutex;

struct Node<T> {
    value: T,
    next: Option<Box<Node<T>>>,
}

/// A sorted singly-linked list behind one mutex.
///
/// The rung-one baseline of the list ladder (experiment E4): correct by
/// construction, zero parallelism. Operations are O(n) like every list in
/// this crate, so comparisons isolate the cost of synchronization.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_list::CoarseList;
///
/// let s = CoarseList::new();
/// s.insert(2);
/// s.insert(1);
/// assert!(s.contains(&1));
/// assert_eq!(s.len(), 2);
/// ```
pub struct CoarseList<T> {
    head: Mutex<Option<Box<Node<T>>>>,
}

impl<T> CoarseList<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        CoarseList {
            head: Mutex::new(None),
        }
    }
}

impl<T> Default for CoarseList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Send> ConcurrentSet<T> for CoarseList<T> {
    const NAME: &'static str = "coarse";

    fn insert(&self, value: T) -> bool {
        let mut head = self.head.lock();
        let mut cursor = &mut *head;
        loop {
            match cursor {
                None => {
                    *cursor = Some(Box::new(Node { value, next: None }));
                    return true;
                }
                Some(node) if node.value == value => return false,
                Some(node) if node.value > value => {
                    let tail = cursor.take();
                    *cursor = Some(Box::new(Node { value, next: tail }));
                    return true;
                }
                Some(node) => cursor = &mut node.next,
            }
        }
    }

    fn remove(&self, value: &T) -> bool {
        let mut head = self.head.lock();
        let mut cursor = &mut *head;
        loop {
            match cursor {
                None => return false,
                Some(node) if node.value == *value => {
                    let unlinked = cursor.take().expect("matched Some");
                    *cursor = unlinked.next;
                    return true;
                }
                Some(node) if node.value > *value => return false,
                Some(node) => cursor = &mut node.next,
            }
        }
    }

    fn contains(&self, value: &T) -> bool {
        let head = self.head.lock();
        let mut cursor = &*head;
        while let Some(node) = cursor {
            if node.value == *value {
                return true;
            }
            if node.value > *value {
                return false;
            }
            cursor = &node.next;
        }
        false
    }

    fn len(&self) -> usize {
        let head = self.head.lock();
        let mut n = 0;
        let mut cursor = &*head;
        while let Some(node) = cursor {
            n += 1;
            cursor = &node.next;
        }
        n
    }
}

impl<T> Drop for CoarseList<T> {
    fn drop(&mut self) {
        // Iterative teardown: the default recursive drop of a long
        // `Option<Box<Node>>` chain would overflow the stack.
        let mut cursor = self.head.get_mut().take();
        while let Some(mut node) = cursor {
            cursor = node.next.take();
        }
    }
}

impl<T> fmt::Debug for CoarseList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoarseList").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentSet;

    #[test]
    fn keeps_sorted_order_invariant() {
        let s = CoarseList::new();
        for v in [5, 1, 9, 3, 7] {
            assert!(s.insert(v));
        }
        // Walk and check sortedness through the public API indirectly:
        // removing in ascending order always succeeds.
        for v in [1, 3, 5, 7, 9] {
            assert!(s.remove(&v));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn long_list_drops_without_stack_overflow() {
        let s = CoarseList::new();
        for i in 0..100_000 {
            s.insert(i);
        }
        drop(s); // must not overflow
    }
}
