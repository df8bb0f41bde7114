use std::fmt;

use cds_core::ConcurrentCounter;
use cds_sync::Mutex;

/// A mutex-protected counter: the coarse-grained baseline of experiment E1.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentCounter;
/// use cds_counter::LockCounter;
///
/// let c = LockCounter::new();
/// c.increment();
/// assert_eq!(c.get(), 1);
/// ```
#[derive(Default)]
pub struct LockCounter {
    value: Mutex<i64>,
}

impl LockCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ConcurrentCounter for LockCounter {
    const NAME: &'static str = "lock";

    fn add(&self, delta: i64) {
        *self.value.lock() += delta;
    }

    fn get(&self) -> i64 {
        *self.value.lock()
    }
}

impl fmt::Debug for LockCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockCounter")
            .field("value", &self.get())
            .finish()
    }
}
