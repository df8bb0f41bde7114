use std::fmt;

use cds_core::ConcurrentSet;
use cds_sync::Mutex;

use crate::SeqSkipList;

/// A sequential skiplist behind one mutex: the coarse baseline of
/// experiment E6.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_skiplist::CoarseSkipList;
///
/// let s = CoarseSkipList::new();
/// s.insert(10);
/// assert!(s.contains(&10));
/// ```
pub struct CoarseSkipList<T> {
    inner: Mutex<SeqSkipList<T>>,
}

impl<T: Ord> CoarseSkipList<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        CoarseSkipList {
            inner: Mutex::new(SeqSkipList::new()),
        }
    }

    /// Removes and returns the smallest key (used by the priority-queue
    /// baseline).
    pub fn pop_min(&self) -> Option<T> {
        self.inner.lock().pop_min()
    }
}

impl<T: Ord> Default for CoarseSkipList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Send> ConcurrentSet<T> for CoarseSkipList<T> {
    const NAME: &'static str = "coarse";

    fn insert(&self, value: T) -> bool {
        self.inner.lock().insert(value)
    }

    fn remove(&self, value: &T) -> bool {
        self.inner.lock().remove(value)
    }

    fn contains(&self, value: &T) -> bool {
        self.inner.lock().contains(value)
    }

    fn len(&self) -> usize {
        self.inner.lock().len()
    }
}

impl<T> fmt::Debug for CoarseSkipList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoarseSkipList").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentSet;

    #[test]
    fn pop_min_via_lock() {
        let s = CoarseSkipList::new();
        s.insert(3);
        s.insert(1);
        assert_eq!(s.pop_min(), Some(1));
        assert_eq!(s.pop_min(), Some(3));
        assert_eq!(s.pop_min(), None);
    }
}
