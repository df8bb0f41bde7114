//! Fault injection for the lock-based structures.
//!
//! Two fault classes from the Rust-concurrency failure catalogue
//! (Saligrama et al.) are covered:
//!
//! * **Poisoned-lock recovery** — the workspace's `parking_lot` shim
//!   recovers the inner `std` lock when a holder panics, matching real
//!   `parking_lot`'s non-poisoning semantics. [`crash_worker`] drives a
//!   worker that dies mid-operation so tests can assert the structure
//!   stays usable afterwards.
//! * **Contention storms** — [`with_contention_storm`] hammers a
//!   structure from background threads while the caller runs a checked
//!   workload in the foreground.

use cds_atomic::raw::{AtomicBool, Ordering};
use std::fmt::Debug;

/// Configuration for [`with_contention_storm`].
#[derive(Debug, Clone)]
pub struct StormOptions {
    /// Background hammer threads.
    pub threads: usize,
    /// Operations each hammer thread performs.
    pub ops_per_thread: usize,
}

impl Default for StormOptions {
    fn default() -> Self {
        StormOptions {
            threads: 4,
            ops_per_thread: 2_000,
        }
    }
}

/// Runs `main` against `target` while `opts.threads` background threads
/// each apply `hammer(target, thread, i)` `opts.ops_per_thread` times —
/// a contention storm. Returns `main`'s result after the storm subsides.
///
/// Hammer panics are swallowed (a storm thread dying — e.g. a planted
/// panic to poison a lock — must not mask the foreground assertion), but
/// the count of panicked hammers is handed to `main` via
/// [`StormHandle::crashed`] so tests can require or forbid casualties.
pub fn with_contention_storm<T, R>(
    target: &T,
    opts: &StormOptions,
    hammer: impl Fn(&T, usize, usize) + Sync,
    main: impl FnOnce(&T, &StormHandle) -> R,
) -> R
where
    T: Sync,
{
    let handle = StormHandle {
        crashed: cds_atomic::raw::AtomicUsize::new(0),
        done: AtomicBool::new(false),
    };
    std::thread::scope(|s| {
        for t in 0..opts.threads {
            let hammer = &hammer;
            let handle = &handle;
            s.spawn(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for i in 0..opts.ops_per_thread {
                        hammer(target, t, i);
                    }
                }));
                if outcome.is_err() {
                    handle.crashed.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let out = main(target, &handle);
        handle.done.store(true, Ordering::SeqCst);
        out
    })
}

/// Storm bookkeeping visible to the foreground closure.
#[derive(Debug)]
pub struct StormHandle {
    crashed: cds_atomic::raw::AtomicUsize,
    done: AtomicBool,
}

impl StormHandle {
    /// Hammer threads that panicked so far.
    pub fn crashed(&self) -> usize {
        self.crashed.load(Ordering::SeqCst)
    }
}

/// Runs `f` against `target` on a fresh thread and waits for it;
/// returns `true` if the worker panicked.
///
/// The canonical use is planting a panic *inside* a lock-based
/// structure's critical section (or while holding a `parking_lot` shim
/// guard) and then asserting the structure still works — the shim's
/// poisoned-lock recovery is what makes that pass.
pub fn crash_worker<T>(target: &T, f: impl FnOnce(&T) + Send) -> bool
where
    T: Sync,
{
    std::thread::scope(|s| {
        s.spawn(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(target))).is_err())
            .join()
            .expect("crash_worker join")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::raw::AtomicI64;

    #[test]
    fn storm_runs_all_hammers_and_main() {
        let counter = AtomicI64::new(0);
        let opts = StormOptions {
            threads: 3,
            ops_per_thread: 100,
        };
        let seen = with_contention_storm(
            &counter,
            &opts,
            |c, _, _| {
                c.fetch_add(1, Ordering::SeqCst);
            },
            |c, handle| {
                assert_eq!(handle.crashed(), 0);
                c.fetch_add(1, Ordering::SeqCst);
                true
            },
        );
        assert!(seen);
        assert_eq!(counter.load(Ordering::SeqCst), 301);
    }

    #[test]
    fn storm_counts_crashed_hammers() {
        let cell = AtomicI64::new(0);
        let opts = StormOptions {
            threads: 2,
            ops_per_thread: 1,
        };
        with_contention_storm(
            &cell,
            &opts,
            |_, t, _| {
                if t == 0 {
                    panic!("planted hammer crash");
                }
            },
            |_, _| (),
        );
        // After the scope ends every hammer has finished; re-check count.
    }

    #[test]
    fn crash_worker_reports_panic() {
        let x = AtomicI64::new(0);
        assert!(crash_worker(&x, |_| panic!("boom")));
        assert!(!crash_worker(&x, |x| {
            x.store(1, Ordering::SeqCst);
        }));
        assert_eq!(x.load(Ordering::SeqCst), 1);
    }
}
