use cds_atomic::{AtomicI64, Ordering};
use std::fmt;

use cds_core::ConcurrentCounter;

/// A single-atomic counter: one `fetch_add` per increment.
///
/// The fastest possible counter for one thread and the reference point for
/// contention studies: every increment is a read-modify-write on the same
/// cache line, so throughput *per core* falls as cores are added
/// (experiment E1 shows the curve).
///
/// Both `add` and `get` are linearizable.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentCounter;
/// use cds_counter::AtomicCounter;
///
/// let c = AtomicCounter::new();
/// c.add(41);
/// c.increment();
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Default)]
pub struct AtomicCounter {
    value: AtomicI64,
}

impl AtomicCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ConcurrentCounter for AtomicCounter {
    const NAME: &'static str = "atomic";

    fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    fn get(&self) -> i64 {
        self.value.load(Ordering::SeqCst)
    }
}

impl fmt::Debug for AtomicCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicCounter")
            .field("value", &self.get())
            .finish()
    }
}
