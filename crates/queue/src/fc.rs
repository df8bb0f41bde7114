use std::collections::VecDeque;
use std::fmt;

use cds_core::ConcurrentQueue;
use cds_sync::{FcStructure, FlatCombining};

struct SeqQueue<T>(VecDeque<T>);

enum Op<T> {
    Enqueue(T),
    Dequeue,
}

impl<T> FcStructure for SeqQueue<T> {
    type Op = Op<T>;
    type Res = Option<T>;

    fn apply(&mut self, op: Op<T>) -> Option<T> {
        match op {
            Op::Enqueue(v) => {
                self.0.push_back(v);
                None
            }
            Op::Dequeue => self.0.pop_front(),
        }
    }
}

/// A **flat-combining** queue (Hendler et al., SPAA 2010).
///
/// A `VecDeque` driven through [`cds_sync::FlatCombining`]: one combiner
/// services a whole batch of published enqueues/dequeues per lock
/// acquisition, amortizing synchronization — the design the original flat
/// combining paper evaluated against the Michael–Scott queue. Included in
/// experiment E3.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentQueue;
/// use cds_queue::FcQueue;
///
/// let q = FcQueue::new();
/// q.enqueue(1);
/// q.enqueue(2);
/// assert_eq!(q.dequeue(), Some(1));
/// ```
pub struct FcQueue<T> {
    fc: FlatCombining<SeqQueue<T>>,
}

impl<T> FcQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        FcQueue {
            fc: FlatCombining::new(SeqQueue(VecDeque::new())),
        }
    }

    /// Returns `true` if there are no elements (serviced under the
    /// combiner lock).
    pub fn is_empty(&self) -> bool {
        self.fc.with(|q| q.0.is_empty())
    }

    /// Number of elements (serviced under the combiner lock).
    pub fn len(&self) -> usize {
        self.fc.with(|q| q.0.len())
    }
}

impl<T> Default for FcQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentQueue<T> for FcQueue<T> {
    const NAME: &'static str = "flat-combining";

    fn enqueue(&self, value: T) {
        self.fc.apply(Op::Enqueue(value));
    }

    fn dequeue(&self) -> Option<T> {
        self.fc.apply(Op::Dequeue)
    }

    fn is_empty(&self) -> bool {
        self.fc.with(|q| q.0.is_empty())
    }
}

impl<T> fmt::Debug for FcQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FcQueue").finish_non_exhaustive()
    }
}
