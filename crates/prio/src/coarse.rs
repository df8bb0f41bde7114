use std::collections::BTreeSet;
use std::fmt;

use cds_core::ConcurrentPriorityQueue;
use cds_sync::Mutex;

/// A hand-rolled array binary min-heap.
struct MinHeap<T> {
    items: Vec<T>,
}

impl<T: Ord> MinHeap<T> {
    fn new() -> Self {
        MinHeap { items: Vec::new() }
    }

    fn push(&mut self, value: T) {
        self.items.push(value);
        self.sift_up(self.items.len() - 1);
    }

    fn pop(&mut self) -> Option<T> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let min = self.items.pop();
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        min
    }

    fn peek(&self) -> Option<&T> {
        self.items.first()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[i] < self.items[parent] {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.items.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && self.items[l] < self.items[smallest] {
                smallest = l;
            }
            if r < n && self.items[r] < self.items[smallest] {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.items.swap(i, smallest);
            i = smallest;
        }
    }
}

struct Inner<T> {
    heap: MinHeap<T>,
    /// Membership index giving the dictionary (no-duplicates) semantics.
    members: BTreeSet<T>,
}

/// A binary min-heap behind one mutex: the coarse-grained baseline of
/// experiment E8.
///
/// The heap itself is hand-rolled (sift-up/sift-down); a `BTreeSet` mirror
/// provides the duplicate check the
/// [`ConcurrentPriorityQueue`] dictionary semantics require.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentPriorityQueue;
/// use cds_prio::CoarseBinaryHeap;
///
/// let h = CoarseBinaryHeap::new();
/// h.insert(4);
/// h.insert(2);
/// assert_eq!(h.remove_min(), Some(2));
/// ```
pub struct CoarseBinaryHeap<T> {
    inner: Mutex<Inner<T>>,
}

impl<T: Ord> CoarseBinaryHeap<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CoarseBinaryHeap {
            inner: Mutex::new(Inner {
                heap: MinHeap::new(),
                members: BTreeSet::new(),
            }),
        }
    }
}

impl<T: Ord> Default for CoarseBinaryHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Clone + Send> ConcurrentPriorityQueue<T> for CoarseBinaryHeap<T> {
    const NAME: &'static str = "coarse-heap";

    fn insert(&self, value: T) -> bool {
        let mut inner = self.inner.lock();
        if !inner.members.insert(value.clone()) {
            return false;
        }
        inner.heap.push(value);
        true
    }

    fn remove_min(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        let min = inner.heap.pop()?;
        inner.members.remove(&min);
        Some(min)
    }

    fn peek_min(&self) -> Option<T> {
        self.inner.lock().heap.peek().cloned()
    }

    fn len(&self) -> usize {
        self.inner.lock().members.len()
    }
}

impl<T> fmt::Debug for CoarseBinaryHeap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoarseBinaryHeap").finish_non_exhaustive()
    }
}
