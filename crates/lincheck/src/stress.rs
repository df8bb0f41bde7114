//! Deterministic stress driver: seeded PCT-style scheduled rounds over a
//! real structure, checked for linearizability, with seed replay.
//!
//! Each round:
//!
//! 1. derives a round seed from the root seed,
//! 2. installs the `cds_atomic::stress` scheduler (live when the `stress`
//!    feature is enabled; inert otherwise — the round still runs, just
//!    without controlled preemption),
//! 3. draws each worker's operations from its per-thread seeded stream
//!    and runs them as one recorded window (the runner the
//!    bounded-exhaustive explorer uses too),
//! 4. checks the recorded window with the memoized Wing–Gong search.
//!
//! On failure the driver shrinks the window with
//! [`shrink_history`](crate::shrink_history) and returns a
//! [`StressFailure`] carrying the *round seed*; [`replay`] re-runs
//! exactly that round. Because every scheduling decision and every
//! generated operation derives from the seed, the failure reproduces
//! deterministically, on any host and under any load.
//!
//! # Example: find and replay a planted bug
//!
//! ```
//! use cds_lincheck::specs::{CounterOp, CounterSpec};
//! use cds_lincheck::stress::{stress, StressOptions};
//! use std::sync::atomic::{AtomicI64, Ordering};
//!
//! // A correct counter: fetch_add is atomic, so every round passes.
//! let opts = StressOptions { rounds: 3, ..StressOptions::default() };
//! let ok = stress(
//!     CounterSpec::default(),
//!     &opts,
//!     || AtomicI64::new(0),
//!     |rng, _thread| {
//!         if rng.below(2) == 0 {
//!             CounterOp::Add(rng.below(5) as i64)
//!         } else {
//!             CounterOp::Get
//!         }
//!     },
//!     |c, op| match op {
//!         CounterOp::Add(d) => {
//!             c.fetch_add(*d, Ordering::SeqCst);
//!             0
//!         }
//!         CounterOp::Get => c.load(Ordering::SeqCst),
//!     },
//! );
//! assert!(ok.is_ok());
//! ```

use std::fmt::Debug;

use cds_atomic::stress as sched;
use cds_atomic::stress::{mix_seed, SplitMix64, StressConfig};

use crate::{check_linearizable, env_seed, run_window, shrink_history, Operation, Spec};

/// Configuration of a stress run (a sequence of scheduled rounds).
#[derive(Debug, Clone)]
pub struct StressOptions {
    /// Worker threads per round.
    pub threads: usize,
    /// Recorded operations per worker (window = `threads * ops_per_thread`
    /// operations, capped at 64 by the checker).
    pub ops_per_thread: usize,
    /// Number of rounds, each with a distinct derived seed.
    pub rounds: usize,
    /// Root seed; override with `CDS_STRESS_SEED` to replay a whole run.
    pub seed: u64,
    /// Scheduler priority-change period (see `cds_atomic::stress`).
    pub change_period: u64,
}

impl Default for StressOptions {
    fn default() -> Self {
        StressOptions {
            threads: 3,
            ops_per_thread: 5,
            rounds: 16,
            seed: env_seed("CDS_STRESS_SEED", 0x5eed),
            change_period: 3,
        }
    }
}

/// A non-linearizable window found by [`stress`], with everything needed
/// to reproduce it.
pub struct StressFailure<S: Spec> {
    /// The *round* seed; pass to [`replay`] to re-run this schedule.
    pub seed: u64,
    /// Which round of the run failed.
    pub round: usize,
    /// The full recorded window.
    pub history: Vec<Operation<S::Op, S::Res>>,
    /// The window minimized by [`shrink_history`](crate::shrink_history).
    pub minimized: Vec<Operation<S::Op, S::Res>>,
}

impl<S: Spec> StressFailure<S> {
    /// This failure as a replayable [`Trace`](crate::trace::Trace)
    /// (format v1: the round seed).
    pub fn trace(&self) -> crate::trace::Trace {
        crate::trace::Trace::V1 { seed: self.seed }
    }
}

impl<S: Spec> Debug for StressFailure<S>
where
    S::Op: Debug,
    S::Res: Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StressFailure")
            .field("seed", &format_args!("{:#x}", self.seed))
            .field("round", &self.round)
            .field("history_len", &self.history.len())
            .field("minimized", &self.minimized)
            .finish()
    }
}

/// Runs `opts.rounds` scheduled rounds of `threads × ops_per_thread`
/// operations against a fresh structure per round, checking each recorded
/// window for linearizability against `spec`.
///
/// * `setup` builds the structure under test (fresh per round);
/// * `gen` draws the next operation for a worker from its seeded stream;
/// * `exec` runs an operation against the structure and returns the
///   result in spec terms.
///
/// On the first non-linearizable window, prints the round seed to stderr
/// (so it survives even if the caller just `unwrap`s) and returns a
/// [`StressFailure`]. Pass that seed to [`replay`] — or set
/// `CDS_STRESS_SEED` and re-run the test — to reproduce the schedule.
pub fn stress<S, T, Setup, Gen, Exec>(
    spec: S,
    opts: &StressOptions,
    setup: Setup,
    gen: Gen,
    exec: Exec,
) -> Result<(), Box<StressFailure<S>>>
where
    S: Spec,
    S::Op: Clone + Send + Sync + Debug,
    S::Res: Clone + PartialEq + Send + Debug,
    T: Sync,
    Setup: Fn() -> T,
    Gen: Fn(&mut SplitMix64, usize) -> S::Op + Sync,
    Exec: Fn(&T, &S::Op) -> S::Res + Sync,
{
    for round in 0..opts.rounds {
        let round_seed = mix_seed(opts.seed, round as u64);
        if let Some(failure) = run_round(&spec, opts, round_seed, &setup, &gen, &exec) {
            eprintln!(
                "stress: non-linearizable window in round {round} \
                 (round seed {round_seed:#x}, root seed {:#x}); \
                 replay with cds_lincheck::stress::replay(.., {round_seed:#x}) \
                 or CDS_STRESS_SEED={:#x}",
                opts.seed, opts.seed,
            );
            return Err(Box::new(StressFailure {
                seed: round_seed,
                round,
                minimized: shrink_history(&spec, &failure),
                history: failure,
            }));
        }
    }
    Ok(())
}

/// Re-runs a single round under `round_seed` (as returned in
/// [`StressFailure::seed`]); returns the failure if it reproduces.
pub fn replay<S, T, Setup, Gen, Exec>(
    spec: S,
    opts: &StressOptions,
    round_seed: u64,
    setup: Setup,
    gen: Gen,
    exec: Exec,
) -> Result<(), Box<StressFailure<S>>>
where
    S: Spec,
    S::Op: Clone + Send + Sync + Debug,
    S::Res: Clone + PartialEq + Send + Debug,
    T: Sync,
    Setup: Fn() -> T,
    Gen: Fn(&mut SplitMix64, usize) -> S::Op + Sync,
    Exec: Fn(&T, &S::Op) -> S::Res + Sync,
{
    match run_round(&spec, opts, round_seed, &setup, &gen, &exec) {
        None => Ok(()),
        Some(history) => Err(Box::new(StressFailure {
            seed: round_seed,
            round: 0,
            minimized: shrink_history(&spec, &history),
            history,
        })),
    }
}

/// Runs one scheduled round; returns the recorded window if it is *not*
/// linearizable. A worker panic is re-raised naming the round seed.
fn run_round<S, T, Setup, Gen, Exec>(
    spec: &S,
    opts: &StressOptions,
    round_seed: u64,
    setup: &Setup,
    gen: &Gen,
    exec: &Exec,
) -> Option<Vec<Operation<S::Op, S::Res>>>
where
    S: Spec,
    S::Op: Clone + Send + Sync,
    S::Res: Clone + PartialEq + Send,
    T: Sync,
    Setup: Fn() -> T,
    Gen: Fn(&mut SplitMix64, usize) -> S::Op + Sync,
    Exec: Fn(&T, &S::Op) -> S::Res + Sync,
{
    let window = opts.threads * opts.ops_per_thread;
    assert!(
        window <= 64,
        "stress window of {window} ops exceeds the checker's 64-op cap"
    );
    assert!(opts.threads <= sched::MAX_THREADS);
    // Per-thread op stream: a pure function of (round seed, thread index),
    // independent of scheduling.
    let ops: Vec<Vec<S::Op>> = (0..opts.threads)
        .map(|t| {
            let mut rng = SplitMix64::new(mix_seed(round_seed, 0x7ead + t as u64));
            (0..opts.ops_per_thread).map(|_| gen(&mut rng, t)).collect()
        })
        .collect();
    let run = sched::install(StressConfig {
        seed: round_seed,
        change_period: opts.change_period,
    });
    let (history, panic_msg) = run_window(&ops, setup, exec);
    drop(run);
    if let Some(message) = panic_msg {
        panic!("stress: worker panicked in round seed {round_seed:#x}: {message}");
    }
    if check_linearizable(spec.clone(), &history) {
        None
    } else {
        Some(history)
    }
}
