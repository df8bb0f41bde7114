use std::fmt;

use cds_core::ConcurrentCounter;
use cds_sync::{FcStructure, FlatCombining};

struct SeqCounter(i64);

impl FcStructure for SeqCounter {
    type Op = i64;
    type Res = i64;

    fn apply(&mut self, delta: i64) -> i64 {
        self.0 += delta;
        self.0
    }
}

/// A **flat-combining** counter (Hendler et al., SPAA 2010).
///
/// One combiner thread applies everyone's published deltas per lock
/// acquisition. Included in experiment E1 as the modern software-combining
/// alternative to the classical
/// [`CombiningTreeCounter`](crate::CombiningTreeCounter): same idea
/// (combine instead of contend), flat publication array instead of a tree.
///
/// Both `add` and `get` are **linearizable** (every operation executes
/// under the combiner lock).
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentCounter;
/// use cds_counter::FcCounter;
///
/// let c = FcCounter::new();
/// c.add(5);
/// assert_eq!(c.get(), 5);
/// ```
pub struct FcCounter {
    fc: FlatCombining<SeqCounter>,
}

impl FcCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        FcCounter {
            fc: FlatCombining::new(SeqCounter(0)),
        }
    }
}

impl Default for FcCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentCounter for FcCounter {
    const NAME: &'static str = "flat-combining";

    fn add(&self, delta: i64) {
        self.fc.apply(delta);
    }

    fn get(&self) -> i64 {
        self.fc.apply(0)
    }
}

impl fmt::Debug for FcCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FcCounter").finish_non_exhaustive()
    }
}
