use std::cmp::Ordering;
use std::fmt;

use cds_core::ConcurrentSet;
use cds_sync::Mutex;

struct Node<T> {
    key: T,
    left: Option<Box<Node<T>>>,
    right: Option<Box<Node<T>>>,
}

/// An unbalanced internal BST behind one mutex: the baseline of
/// experiment E7.
///
/// Deletion uses the standard successor replacement: a node with two
/// children takes the minimum key of its right subtree, and that successor
/// node (which has no left child) is spliced out.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_tree::CoarseBst;
///
/// let t = CoarseBst::new();
/// t.insert(2);
/// t.insert(1);
/// t.insert(3);
/// assert!(t.remove(&2));
/// assert_eq!(t.len(), 2);
/// ```
pub struct CoarseBst<T> {
    root: Mutex<Option<Box<Node<T>>>>,
}

impl<T: Ord> CoarseBst<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        CoarseBst {
            root: Mutex::new(None),
        }
    }

    /// Removes and returns the minimum key of the subtree in `slot`
    /// (which must be non-empty).
    fn pop_min(slot: &mut Option<Box<Node<T>>>) -> T {
        let node = slot.as_mut().expect("pop_min on empty subtree");
        if node.left.is_some() {
            Self::pop_min(&mut node.left)
        } else {
            let mut boxed = slot.take().expect("just observed Some");
            *slot = boxed.right.take();
            boxed.key
        }
    }

    fn remove_rec(slot: &mut Option<Box<Node<T>>>, key: &T) -> bool {
        let Some(node) = slot else { return false };
        match key.cmp(&node.key) {
            Ordering::Less => Self::remove_rec(&mut node.left, key),
            Ordering::Greater => Self::remove_rec(&mut node.right, key),
            Ordering::Equal => {
                if node.left.is_some() && node.right.is_some() {
                    node.key = Self::pop_min(&mut node.right);
                } else {
                    let mut boxed = slot.take().expect("matched Some");
                    *slot = boxed.left.take().or_else(|| boxed.right.take());
                }
                true
            }
        }
    }
}

impl<T: Ord> Default for CoarseBst<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Send> ConcurrentSet<T> for CoarseBst<T> {
    const NAME: &'static str = "coarse";

    fn insert(&self, value: T) -> bool {
        let mut root = self.root.lock();
        let mut cursor = &mut *root;
        loop {
            match cursor {
                None => {
                    *cursor = Some(Box::new(Node {
                        key: value,
                        left: None,
                        right: None,
                    }));
                    return true;
                }
                Some(node) => match value.cmp(&node.key) {
                    Ordering::Less => cursor = &mut node.left,
                    Ordering::Greater => cursor = &mut node.right,
                    Ordering::Equal => return false,
                },
            }
        }
    }

    fn remove(&self, value: &T) -> bool {
        let mut root = self.root.lock();
        Self::remove_rec(&mut root, value)
    }

    fn contains(&self, value: &T) -> bool {
        let root = self.root.lock();
        let mut cursor = &*root;
        while let Some(node) = cursor {
            match value.cmp(&node.key) {
                Ordering::Less => cursor = &node.left,
                Ordering::Greater => cursor = &node.right,
                Ordering::Equal => return true,
            }
        }
        false
    }

    fn len(&self) -> usize {
        let root = self.root.lock();
        let mut n = 0;
        let mut stack: Vec<&Node<T>> = root.as_deref().into_iter().collect();
        while let Some(node) = stack.pop() {
            n += 1;
            stack.extend(node.left.as_deref());
            stack.extend(node.right.as_deref());
        }
        n
    }
}

impl<T> Drop for CoarseBst<T> {
    fn drop(&mut self) {
        // Iterative teardown to avoid recursion-depth blowups on
        // adversarial (sorted-insert) shapes.
        let mut stack: Vec<Box<Node<T>>> = self.root.get_mut().take().into_iter().collect();
        while let Some(mut node) = stack.pop() {
            stack.extend(node.left.take());
            stack.extend(node.right.take());
        }
    }
}

impl<T> fmt::Debug for CoarseBst<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoarseBst").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentSet;

    #[test]
    fn two_child_deletion_uses_successor() {
        let t = CoarseBst::new();
        for k in [5, 3, 8, 2, 4, 7, 9] {
            t.insert(k);
        }
        assert!(t.remove(&5)); // two children
        assert!(!t.contains(&5));
        for k in [2, 3, 4, 7, 8, 9] {
            assert!(t.contains(&k));
        }
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn sorted_insert_then_drop_does_not_overflow() {
        // A 5 000-deep right spine on a 64 KiB stack: a recursive drop
        // overflows it.
        std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(|| {
                let t = CoarseBst::new();
                for k in 0..5_000 {
                    t.insert(k);
                }
                drop(t);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn remove_every_shape() {
        let t = CoarseBst::new();
        for k in [4, 2, 6, 1, 3, 5, 7] {
            t.insert(k);
        }
        for _ in 0..7 {
            let n = t.len();
            let k = (1..=7).find(|k| t.contains(k)).unwrap();
            assert!(t.remove(&k));
            assert_eq!(t.len(), n - 1);
        }
        assert!(t.is_empty());
    }
}
