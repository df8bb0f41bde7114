use std::fmt;

use cds_core::ConcurrentStack;
use cds_sync::{FcStructure, FlatCombining};

struct SeqStack<T>(Vec<T>);

enum Op<T> {
    Push(T),
    Pop,
}

impl<T> FcStructure for SeqStack<T> {
    type Op = Op<T>;
    type Res = Option<T>;

    fn apply(&mut self, op: Op<T>) -> Option<T> {
        match op {
            Op::Push(v) => {
                self.0.push(v);
                None
            }
            Op::Pop => self.0.pop(),
        }
    }
}

/// A **flat-combining** stack (Hendler et al., SPAA 2010).
///
/// A plain `Vec` driven through [`cds_sync::FlatCombining`]: threads
/// publish their push/pop in per-thread slots and one combiner executes a
/// whole batch under a single lock acquisition. The historically
/// interesting middle point between [`CoarseStack`](crate::CoarseStack)
/// (one lock acquisition *per op*) and the lock-free designs — included in
/// experiment E2.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentStack;
/// use cds_stack::FcStack;
///
/// let s = FcStack::new();
/// s.push(1);
/// assert_eq!(s.pop(), Some(1));
/// ```
pub struct FcStack<T> {
    fc: FlatCombining<SeqStack<T>>,
}

impl<T> FcStack<T> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        FcStack {
            fc: FlatCombining::new(SeqStack(Vec::new())),
        }
    }

    /// Returns `true` if there are no elements (serviced under the
    /// combiner lock).
    pub fn is_empty(&self) -> bool {
        self.fc.with(|s| s.0.is_empty())
    }

    /// Number of elements (serviced under the combiner lock).
    pub fn len(&self) -> usize {
        self.fc.with(|s| s.0.len())
    }
}

impl<T> Default for FcStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentStack<T> for FcStack<T> {
    const NAME: &'static str = "flat-combining";

    fn push(&self, value: T) {
        self.fc.apply(Op::Push(value));
    }

    fn pop(&self) -> Option<T> {
        self.fc.apply(Op::Pop)
    }

    fn is_empty(&self) -> bool {
        self.fc.with(|s| s.0.is_empty())
    }
}

impl<T> fmt::Debug for FcStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FcStack").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn combined_pushes_all_land() {
        let s = Arc::new(FcStack::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        s.push(t * 500 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 2_000);
    }
}
