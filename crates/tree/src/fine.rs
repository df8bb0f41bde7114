use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::ptr;

use cds_core::ConcurrentSet;
use cds_sync::{Mutex, MutexGuard};

use crate::TreeKey;

/// An internal (routing) node's lockable pair of children.
type Children<T> = Mutex<[*mut Node<T>; 2]>;

struct Node<T> {
    key: TreeKey<T>,
    /// `Some` for internal routing nodes, `None` for leaves.
    children: Option<Children<T>>,
}

const LEFT: usize = 0;
const RIGHT: usize = 1;

/// A fine-grained **external** BST with hand-over-hand locking.
///
/// Keys live at the leaves; internal nodes only route (left subtree `<`
/// key `≤` right subtree). Each internal node's child pair is protected by
/// its own lock, and traversals couple locks parent→child, so operations
/// in disjoint subtrees proceed in parallel.
///
/// Updates are purely local, which is the point of external trees:
///
/// * **insert** replaces a leaf with a routing node over the old leaf and
///   the new one — requires only the parent's lock;
/// * **remove** splices out a leaf *and* its parent (the grandparent
///   adopts the sibling) — requires the grandparent's and parent's locks,
///   exactly the two a hand-over-hand descent already holds.
///
/// As with [`FineList`](../cds_list/struct.FineList.html), holding both
/// locks at removal means no thread is at (or can reach) the spliced
/// nodes, so they are freed immediately — no deferred reclamation.
///
/// `T: Clone` because the routing node created by an insert needs its own
/// copy of the larger key.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_tree::FineBst;
///
/// let t = FineBst::new();
/// t.insert(1);
/// t.insert(2);
/// assert!(t.remove(&1));
/// assert!(t.contains(&2));
/// ```
pub struct FineBst<T> {
    /// Root routing node (`Inf2`); never removed.
    root: *mut Node<T>,
}

// SAFETY: all child-pointer access is lock-mediated; keys move by value.
unsafe impl<T: Send> Send for FineBst<T> {}
unsafe impl<T: Send> Sync for FineBst<T> {}

impl<T: Ord + Clone> FineBst<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        let left = Box::into_raw(Box::new(Node {
            key: TreeKey::Inf1,
            children: None,
        }));
        let right = Box::into_raw(Box::new(Node {
            key: TreeKey::Inf2,
            children: None,
        }));
        let root = Box::into_raw(Box::new(Node {
            key: TreeKey::Inf2,
            children: Some(Mutex::new([left, right])),
        }));
        FineBst { root }
    }

    fn direction(node_key: &TreeKey<T>, key: &T) -> usize {
        // Go left iff key < node.key.
        if node_key.cmp_key(key) == CmpOrdering::Greater {
            LEFT
        } else {
            RIGHT
        }
    }
}

impl<T: Ord + Clone> Default for FineBst<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Clone + Send> ConcurrentSet<T> for FineBst<T> {
    const NAME: &'static str = "fine";

    fn insert(&self, value: T) -> bool {
        // SAFETY: the root is never freed while the tree lives; every node
        // reached below is protected by its parent's held lock.
        let mut p = unsafe { &*self.root };
        let mut p_guard: MutexGuard<'_, [*mut Node<T>; 2]> =
            p.children.as_ref().expect("root is internal").lock();
        loop {
            let dir = Self::direction(&p.key, &value);
            let child_ptr = p_guard[dir];
            // SAFETY: reachable through a held lock; removers need it too.
            let child = unsafe { &*child_ptr };
            match &child.children {
                Some(lock) => {
                    // Couple: lock the child before releasing the parent.
                    let child_guard = lock.lock();
                    p = child;
                    p_guard = child_guard;
                }
                None => {
                    // Leaf reached; p's lock freezes it.
                    if child.key.cmp_key(&value) == CmpOrdering::Equal {
                        return false;
                    }
                    let new_leaf = Box::into_raw(Box::new(Node {
                        key: TreeKey::Finite(value),
                        children: None,
                    }));
                    // Routing key = max of the two keys; smaller goes left.
                    // SAFETY: new_leaf is ours until published.
                    let new_key = unsafe { &*new_leaf }.key.clone().max(child.key.clone());
                    let pair = if unsafe { &*new_leaf }.key < child.key {
                        [new_leaf, child_ptr]
                    } else {
                        [child_ptr, new_leaf]
                    };
                    let new_internal = Box::into_raw(Box::new(Node {
                        key: new_key,
                        children: Some(Mutex::new(pair)),
                    }));
                    p_guard[dir] = new_internal;
                    return true;
                }
            }
        }
    }

    fn remove(&self, value: &T) -> bool {
        // SAFETY: as in `insert`.
        let mut p = unsafe { &*self.root };
        let mut p_ptr = self.root;
        let mut p_guard: MutexGuard<'_, [*mut Node<T>; 2]> =
            p.children.as_ref().expect("root is internal").lock();
        // The grandparent's guard plus which of its slots points at `p`.
        let mut gp_state: Option<(MutexGuard<'_, [*mut Node<T>; 2]>, usize)> = None;
        loop {
            let dir = Self::direction(&p.key, value);
            let child_ptr = p_guard[dir];
            // SAFETY: protected by p's held lock.
            let child = unsafe { &*child_ptr };
            match &child.children {
                Some(lock) => {
                    let child_guard = lock.lock();
                    gp_state = Some((p_guard, dir));
                    p = child;
                    p_ptr = child_ptr;
                    p_guard = child_guard;
                }
                None => {
                    if child.key.cmp_key(value) != CmpOrdering::Equal {
                        return false;
                    }
                    // A finite leaf is at depth ≥ 2, so a grandparent
                    // guard must exist.
                    let (mut gp_guard, gp_dir) =
                        gp_state.expect("finite leaf always has a grandparent");
                    let sibling = p_guard[1 - dir];
                    // Grandparent adopts the sibling; p and the leaf are out.
                    gp_guard[gp_dir] = sibling;
                    drop(p_guard);
                    drop(gp_guard);
                    // SAFETY: we held the grandparent's and p's locks, so
                    // no thread is at p or the leaf, and none can reach
                    // them now: immediate free is safe.
                    unsafe {
                        drop(Box::from_raw(p_ptr));
                        drop(Box::from_raw(child_ptr));
                    }
                    return true;
                }
            }
        }
    }

    fn contains(&self, value: &T) -> bool {
        // SAFETY: as in `insert`.
        let mut p = unsafe { &*self.root };
        let mut p_guard: MutexGuard<'_, [*mut Node<T>; 2]> =
            p.children.as_ref().expect("root is internal").lock();
        loop {
            let dir = Self::direction(&p.key, value);
            let child_ptr = p_guard[dir];
            let child = unsafe { &*child_ptr };
            match &child.children {
                Some(lock) => {
                    let child_guard = lock.lock();
                    p = child;
                    p_guard = child_guard;
                }
                None => return child.key.cmp_key(value) == CmpOrdering::Equal,
            }
        }
    }

    fn len(&self) -> usize {
        // Lock-coupled DFS holding O(depth) locks; acquisition is strictly
        // parent→child everywhere in this type, so no deadlock.
        fn count<T>(node: *mut Node<T>) -> usize {
            // SAFETY: the caller holds the parent's lock (or `node` is the
            // root), so the node is alive.
            let node = unsafe { &*node };
            match &node.children {
                None => usize::from(node.key.is_finite()),
                Some(lock) => {
                    let guard = lock.lock();
                    let [l, r] = *guard;
                    count(l) + count(r)
                }
            }
        }
        count(self.root)
    }
}

impl<T> Drop for FineBst<T> {
    fn drop(&mut self) {
        let mut stack = vec![self.root];
        while let Some(ptr) = stack.pop() {
            if ptr.is_null() {
                continue;
            }
            // SAFETY: unique access; each node is visited once.
            let node = unsafe { Box::from_raw(ptr) };
            if let Some(lock) = node.children {
                let [l, r] = lock.into_inner();
                stack.push(l);
                stack.push(r);
            }
        }
        self.root = ptr::null_mut();
    }
}

impl<T> fmt::Debug for FineBst<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FineBst").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentSet;
    use std::sync::Arc;

    #[test]
    fn sentinels_are_invisible() {
        let t: FineBst<i32> = FineBst::new();
        assert_eq!(t.len(), 0);
        assert!(!t.contains(&5));
        assert!(!t.remove(&5));
    }

    #[test]
    fn disjoint_subtrees_in_parallel() {
        let t = Arc::new(FineBst::new());
        let lo = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for k in 0..300 {
                    assert!(t.insert(k));
                }
            })
        };
        let hi = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for k in 10_000..10_300 {
                    assert!(t.insert(k));
                }
            })
        };
        lo.join().unwrap();
        hi.join().unwrap();
        assert_eq!(t.len(), 600);
    }

    #[test]
    fn remove_reclaims_parent_and_leaf() {
        let t = FineBst::new();
        for k in 0..64 {
            t.insert(k);
        }
        for k in 0..64 {
            assert!(t.remove(&k), "remove {k}");
        }
        assert_eq!(t.len(), 0);
        // Tree stays usable after full drain.
        assert!(t.insert(5));
        assert!(t.contains(&5));
    }
}
