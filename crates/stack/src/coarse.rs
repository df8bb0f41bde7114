use std::fmt;

use cds_core::ConcurrentStack;
use cds_sync::Mutex;

/// A coarse-grained lock-based stack: a `Vec` behind one mutex.
///
/// This is the structure a sequential program grows into with the least
/// effort, and the baseline the lock-free implementations are measured
/// against (experiment E2). Every operation excludes every other, so
/// throughput is flat or degrading as threads are added.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentStack;
/// use cds_stack::CoarseStack;
///
/// let s = CoarseStack::new();
/// s.push("a");
/// assert_eq!(s.pop(), Some("a"));
/// ```
pub struct CoarseStack<T> {
    items: Mutex<Vec<T>>,
}

impl<T> CoarseStack<T> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        CoarseStack {
            items: Mutex::new(Vec::new()),
        }
    }

    /// Number of elements currently stored.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether the stack is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for CoarseStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentStack<T> for CoarseStack<T> {
    const NAME: &'static str = "coarse";

    fn push(&self, value: T) {
        self.items.lock().push(value);
    }

    fn pop(&self) -> Option<T> {
        self.items.lock().pop()
    }

    fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
}

impl<T> fmt::Debug for CoarseStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoarseStack")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentStack;

    #[test]
    fn len_tracks_operations() {
        let s = CoarseStack::new();
        assert_eq!(s.len(), 0);
        s.push(1);
        s.push(2);
        assert_eq!(s.len(), 2);
        s.pop();
        assert_eq!(s.len(), 1);
    }
}
