use std::fmt;

/// Exponential backoff for contended retry loops.
///
/// Contended compare-and-swap loops (lock acquisition, lock-free push/pop)
/// waste memory bandwidth and prolong contention windows when every thread
/// retries immediately. `Backoff` implements the standard remedy: double the
/// pause between retries, and once spinning stops being productive, yield
/// the processor to the scheduler instead.
///
/// The two entry points express the two situations a retry loop can be in:
///
/// * [`spin`](Backoff::spin) — we *lost a race* (a CAS failed); retrying
///   right away may succeed, so we issue a bounded number of
///   `core::hint::spin_loop` pauses.
/// * [`snooze`](Backoff::snooze) — we are *waiting for another thread* to
///   make progress (e.g. a queue is empty); after a few rounds of spinning
///   this escalates to `thread::yield_now`.
///
/// Under the `stress` feature, every backoff step is also a scheduler
/// yield point (see [`cds_atomic::stress`]), so retry loops that back off —
/// e.g. an operation waiting out a bucket migration in a resizing map —
/// are preemption points the deterministic stress seeds can exploit.
///
/// # Example
///
/// ```
/// use cds_sync::Backoff;
/// use cds_atomic::{AtomicBool, Ordering};
///
/// let flag = AtomicBool::new(false);
/// let backoff = Backoff::new();
/// while flag
///     .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
///     .is_err()
/// {
///     backoff.spin();
/// }
/// ```
pub struct Backoff {
    step: std::cell::Cell<u32>,
}

const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;

impl Backoff {
    /// Creates a fresh backoff state with zero accumulated delay.
    #[inline]
    pub fn new() -> Self {
        Backoff {
            step: std::cell::Cell::new(0),
        }
    }

    /// Resets the accumulated delay to zero.
    ///
    /// Call this after the contended operation finally succeeds if the same
    /// `Backoff` value is reused for a subsequent loop.
    #[inline]
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Backs off after a failed race (e.g. a failed CAS).
    ///
    /// Issues `2^step` processor pause hints, with the exponent saturating
    /// so the pause stays bounded.
    #[inline]
    pub fn spin(&self) {
        self.spin_tagged(cds_atomic::stress::YieldTag::None);
    }

    /// [`spin`](Backoff::spin) with an explicit access tag on the
    /// embedded yield point (see [`cds_atomic::stress::YieldTag`]). A retry
    /// after a lost CAS on location `a` should pass
    /// `YieldTag::Write(a)`.
    #[inline]
    pub fn spin_tagged(&self, tag: cds_atomic::stress::YieldTag) {
        cds_atomic::stress::yield_point_tagged(tag);
        cds_obs::count(cds_obs::Event::BackoffRound);
        let step = self.step.get().min(SPIN_LIMIT);
        for _ in 0..(1u32 << step) {
            core::hint::spin_loop();
        }
        if self.step.get() <= SPIN_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Backs off while waiting for another thread to make progress.
    ///
    /// Spins like [`spin`](Backoff::spin) for the first few rounds, then
    /// escalates to [`std::thread::yield_now`] so the thread being waited
    /// on can be scheduled. Always yields on single-core machines once the
    /// spin budget is exhausted.
    #[inline]
    pub fn snooze(&self) {
        self.snooze_tagged(cds_atomic::stress::YieldTag::None);
    }

    /// [`snooze`](Backoff::snooze) with an explicit access tag on the
    /// embedded yield point. A loop that purely rechecks location `a`
    /// (e.g. waiting for a lock word to clear) should pass
    /// `YieldTag::Blocked(a)`.
    #[inline]
    pub fn snooze_tagged(&self, tag: cds_atomic::stress::YieldTag) {
        cds_atomic::stress::yield_point_tagged(tag);
        cds_obs::count(cds_obs::Event::BackoffRound);
        let step = self.step.get();
        if step <= SPIN_LIMIT {
            for _ in 0..(1u32 << step) {
                core::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if step <= YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    /// Returns `true` once spinning has escalated far enough that the caller
    /// should consider blocking (e.g. parking the thread) instead.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Backoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backoff")
            .field("step", &self.step.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_incomplete() {
        let b = Backoff::new();
        assert!(!b.is_completed());
    }

    #[test]
    fn completes_after_enough_snoozes() {
        let b = Backoff::new();
        for _ in 0..=YIELD_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
    }

    #[test]
    fn reset_clears_progress() {
        let b = Backoff::new();
        for _ in 0..=YIELD_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn spin_saturates() {
        let b = Backoff::new();
        // Must terminate quickly even if called far more than the limit, and
        // `spin` alone never escalates past the spinning phase.
        for _ in 0..1000 {
            b.spin();
        }
        assert!(!b.is_completed());
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", Backoff::new()).is_empty());
    }
}
