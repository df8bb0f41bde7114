//! Bounded-exhaustive exploration driver: every schedule of a fixed
//! operation window, checked for linearizability.
//!
//! Where [`stress`](crate::stress) samples schedules at random (PCT),
//! this module enumerates them *systematically* via
//! `cds_core::stress::explore`: depth-first over scheduling decisions with
//! sleep-set pruning, so a window of `t` threads × `k` fixed operations is
//! either proven linearizable over **all** explored interleavings or
//! yields a concrete counterexample — deterministically, with no seed.
//!
//! The operation window is fixed per thread (`ops[t]` is the exact
//! sequence slot `t` executes), because exhaustiveness is only meaningful
//! when every execution runs the same operations. Failures carry a
//! [`Trace`] (format v2: the explicit step list; format v3 when
//! weak-memory exploration is on, adding each load's read-from choice)
//! and [`replay_schedule`] re-runs one schedule and returns its recorded
//! history — byte-identical to the original, timestamps included, because
//! execution under the explore scheduler is fully serialized.
//!
//! With [`ExploreOptions::weak_memory`] set, the DFS additionally
//! branches on which store each `Relaxed`/`Acquire` load of a
//! [`cds_atomic`]-instrumented location observes (bounded by
//! [`ExploreOptions::weak_window`]), so ordering bugs — a demoted
//! release, a relaxed publish — become enumerable behaviors instead of
//! rare hardware events. Real-time completion edges are inserted at
//! operation boundaries ([`cds_core::stress::op_boundary`]): a store is
//! guaranteed visible to every operation that *begins* after the storing
//! operation *returned*, matching linearizability's real-time order, so
//! only genuinely concurrent operations exhibit weak behavior.
//!
//! Exploration is a correctness tool: executions are serialized one step
//! at a time, so wall-clock numbers from these runs say nothing about
//! throughput (see EXPERIMENTS.md).

use std::fmt::Debug;

use cds_core::stress::explore as exp;
use cds_core::stress::explore::{ExploreBounds, Outcome};

use crate::trace::Trace;
use crate::{check_linearizable, run_window, shrink_history, Operation, Spec};

/// Configuration of a bounded-exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Per-execution scheduling-decision budget; an execution that
    /// exceeds it is declared stuck (livelock/deadlock backstop).
    pub max_steps: u64,
    /// Total executions budget. Exploration stops (with
    /// [`ExploreReport::exhausted`] `false`) when it is hit — a guard
    /// against windows whose schedule space is larger than intended.
    pub max_executions: u64,
    /// What a stuck execution means for the run as a whole.
    pub on_stuck: OnStuck,
    /// Branch on weak-memory read-from choices for instrumented atomics
    /// (see module docs). Failures carry v3 traces. Default `false`.
    pub weak_memory: bool,
    /// With `weak_memory`: how many per-location trailing stores a load
    /// may observe (1 = SC). Default 4.
    pub weak_window: usize,
    /// With `weak_memory`: panic deterministically when a thread
    /// dereferences a published region ([`cds_atomic::stress::publish_region`])
    /// without having synchronized with its release — catches demoted
    /// publication even when the stale read itself happens through a
    /// plain (non-atomic) field. Default `false`.
    pub detect_races: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_steps: 4096,
            max_executions: 1_000_000,
            on_stuck: OnStuck::Fail,
            weak_memory: false,
            weak_window: 4,
            detect_races: false,
        }
    }
}

/// Policy for executions that hit the step budget or wedge with every
/// thread blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnStuck {
    /// Fail the exploration: for windows of non-blocking operations a
    /// stuck execution is itself a bug (livelock or lost wakeup).
    Fail,
    /// Count it and keep exploring: expected when a *planted* bug can
    /// wedge some schedules while the interesting counterexample lives in
    /// others.
    Continue,
}

/// Coverage statistics of a completed exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Complete (non-pruned, non-stuck) executions — the number of
    /// distinct schedules actually checked. This is the count the
    /// `explore-matrix` CI job pins per spec.
    pub schedules: u64,
    /// Executions pruned mid-flight by the sleep set (every enabled
    /// thread provably commutes with an already-explored sibling).
    pub redundant: u64,
    /// Executions aborted by the step budget or a full wedge.
    pub stuck: u64,
    /// Total executions launched (`schedules + redundant + stuck`).
    pub executions: u64,
    /// Whether the DFS ran out of branches (as opposed to hitting
    /// [`ExploreOptions::max_executions`]).
    pub exhausted: bool,
}

/// A failed exploration, carrying a replayable [`Trace`].
pub enum ExploreError<S: Spec> {
    /// A complete execution recorded a non-linearizable window.
    NonLinearizable {
        /// The failing schedule as a v2 (or, weak, v3) trace; feed it to
        /// [`replay_schedule`] to reproduce the identical history.
        trace: Trace,
        /// The full recorded window.
        history: Vec<Operation<S::Op, S::Res>>,
        /// The window minimized by [`shrink_history`].
        minimized: Vec<Operation<S::Op, S::Res>>,
    },
    /// An execution stuck under [`OnStuck::Fail`]; the trace holds the
    /// decisions made before the abort.
    Stuck {
        /// Partial schedule up to the abort.
        trace: Trace,
    },
    /// A worker panicked (assertion failure inside the structure under
    /// test, not a linearizability violation).
    Panicked {
        /// Schedule of the execution that panicked.
        trace: Trace,
        /// The panic payload, stringified.
        message: String,
    },
}

impl<S: Spec> Debug for ExploreError<S>
where
    S::Op: Debug,
    S::Res: Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::NonLinearizable {
                trace,
                history,
                minimized,
            } => f
                .debug_struct("NonLinearizable")
                .field("trace", &format_args!("{trace}"))
                .field("history_len", &history.len())
                .field("minimized", minimized)
                .finish(),
            ExploreError::Stuck { trace } => f
                .debug_struct("Stuck")
                .field("trace", &format_args!("{trace}"))
                .finish(),
            ExploreError::Panicked { trace, message } => f
                .debug_struct("Panicked")
                .field("trace", &format_args!("{trace}"))
                .field("message", message)
                .finish(),
        }
    }
}

/// Why a replayed schedule did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayScheduleError {
    /// The schedule named a thread that was not enabled at that step —
    /// the trace does not match this window.
    Diverged,
    /// The replayed execution hit the step budget.
    Stuck,
    /// A worker panicked; the payload, stringified.
    Panicked(String),
}

impl std::fmt::Display for ReplayScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayScheduleError::Diverged => write!(f, "schedule diverged from this window"),
            ReplayScheduleError::Stuck => write!(f, "replayed execution exceeded the step budget"),
            ReplayScheduleError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for ReplayScheduleError {}

/// Explores every schedule (modulo sleep-set pruning) of the fixed window
/// `ops` against `setup`/`exec`, checking each complete execution's
/// recorded history for linearizability against `spec`.
///
/// * `ops[t]` is the exact operation sequence worker slot `t` runs;
/// * `setup` builds a fresh structure per execution;
/// * `exec` runs one operation against it, in spec terms.
///
/// Returns coverage statistics on success. On the first failing
/// execution, prints the v2 trace to stderr and returns the error. No
/// randomness is involved anywhere: the same window explores the same
/// schedules in the same order on every run.
pub fn explore<S, T, Setup, Exec>(
    spec: S,
    opts: &ExploreOptions,
    ops: &[Vec<S::Op>],
    setup: Setup,
    exec: Exec,
) -> Result<ExploreReport, Box<ExploreError<S>>>
where
    S: Spec,
    S::Op: Clone + Send + Sync + Debug,
    S::Res: Clone + PartialEq + Send + Debug,
    T: Sync,
    Setup: Fn() -> T,
    Exec: Fn(&T, &S::Op) -> S::Res + Sync,
{
    let threads = ops.len();
    let window: usize = ops.iter().map(Vec::len).sum();
    assert!(
        window <= 64,
        "explore window of {window} ops exceeds the checker's 64-op cap"
    );
    let bounds = bounds_of(opts);
    let mut explorer = exp::Explorer::new(threads, bounds);
    loop {
        // `run` owns the installed round; it must outlive the worker scope
        // and is consumed by `finish` to harvest the decisions.
        let run = explorer.begin();
        let (history, panic_msg) = run_window(ops, &setup, &exec);
        let outcome = explorer.finish(run);
        let trace = if opts.weak_memory {
            Trace::V3 {
                threads,
                steps: explorer.last_schedule(),
                reads: explorer.last_reads(),
            }
        } else {
            Trace::V2 {
                threads,
                steps: explorer.last_schedule(),
            }
        };
        if let Some(message) = panic_msg {
            eprintln!("explore: worker panicked ({message}); schedule {trace}");
            return Err(Box::new(ExploreError::Panicked { trace, message }));
        }
        match outcome {
            Outcome::Complete => {
                if !check_linearizable(spec.clone(), &history) {
                    eprintln!("explore: non-linearizable window; replay with `{trace}`");
                    return Err(Box::new(ExploreError::NonLinearizable {
                        trace,
                        minimized: shrink_history(&spec, &history),
                        history,
                    }));
                }
            }
            Outcome::Stuck if opts.on_stuck == OnStuck::Fail => {
                eprintln!("explore: stuck execution; partial schedule `{trace}`");
                return Err(Box::new(ExploreError::Stuck { trace }));
            }
            Outcome::Stuck | Outcome::Redundant => {}
            Outcome::Diverged => panic!(
                "explore: execution diverged from its own plan — the window is \
                 nondeterministic (schedule `{trace}`)"
            ),
        }
        if explorer.executions() >= opts.max_executions {
            return Ok(report(&explorer, false));
        }
        if !explorer.advance() {
            return Ok(report(&explorer, true));
        }
    }
}

fn bounds_of(opts: &ExploreOptions) -> ExploreBounds {
    ExploreBounds {
        max_steps: opts.max_steps,
        weak_memory: opts.weak_memory,
        weak_window: opts.weak_window,
        detect_races: opts.detect_races,
    }
}

fn report(e: &exp::Explorer, exhausted: bool) -> ExploreReport {
    ExploreReport {
        schedules: e.schedules(),
        redundant: e.redundant(),
        stuck: e.stuck(),
        executions: e.executions(),
        exhausted,
    }
}

/// Re-runs one explored schedule against a fresh instance of the window
/// and returns its recorded history.
///
/// Because the explore scheduler serializes execution completely, the
/// returned history is **byte-identical** to the one the original
/// execution recorded — same operations, same results, same logical
/// timestamps — which is what the replay tests assert.
pub fn replay_schedule<T, Op, Res, Setup, Exec>(
    ops: &[Vec<Op>],
    steps: &[usize],
    reads: &[usize],
    opts: &ExploreOptions,
    setup: Setup,
    exec: Exec,
) -> Result<Vec<Operation<Op, Res>>, ReplayScheduleError>
where
    Op: Clone + Send + Sync,
    Res: Clone + Send,
    T: Sync,
    Setup: Fn() -> T,
    Exec: Fn(&T, &Op) -> Res + Sync,
{
    let threads = ops.len();
    let bounds = bounds_of(opts);
    let run = exp::begin_replay(threads, steps, reads, &bounds);
    let (history, panic_msg) = run_window(ops, &setup, &exec);
    let result = exp::finish_replay(run);
    if let Some(msg) = panic_msg {
        return Err(ReplayScheduleError::Panicked(msg));
    }
    match result {
        Ok(_) => Ok(history),
        Err(exp::ReplayError::Diverged) => Err(ReplayScheduleError::Diverged),
        Err(exp::ReplayError::Stuck) => Err(ReplayScheduleError::Stuck),
    }
}

/// Minimizes a window whose exploration fails with a *panic* — e.g. a
/// weak-memory region race from [`ExploreOptions::detect_races`] — by
/// greedy ddmin over the per-thread operation lists: repeatedly drop one
/// operation and keep the smaller window whenever exploration still
/// panics. Linearizability violations shrink through
/// [`shrink_history`](crate::shrink_history) instead; this is for
/// failures that have no history to shrink because a worker died.
///
/// Returns the minimized window together with the trace and message of
/// its panicking execution, or `None` if the original window does not
/// panic at all. Each probe is a full (bounded) exploration of a smaller
/// window, so use this on the small fixed windows it is meant for.
pub fn shrink_panicking_window<T, Op, Res, Setup, Exec>(
    opts: &ExploreOptions,
    ops: &[Vec<Op>],
    setup: Setup,
    exec: Exec,
) -> Option<(Vec<Vec<Op>>, Trace, String)>
where
    Op: Clone + Send + Sync,
    Res: Clone + Send,
    T: Sync,
    Setup: Fn() -> T,
    Exec: Fn(&T, &Op) -> Res + Sync,
{
    let mut cur: Vec<Vec<Op>> = ops.to_vec();
    let (mut trace, mut message) = explore_for_panic(opts, &cur, &setup, &exec)?;
    loop {
        let mut improved = false;
        for t in 0..cur.len() {
            let mut i = 0;
            while i < cur[t].len() {
                let mut cand = cur.clone();
                cand[t].remove(i);
                if let Some((tr, msg)) = explore_for_panic(opts, &cand, &setup, &exec) {
                    cur = cand;
                    trace = tr;
                    message = msg;
                    improved = true;
                } else {
                    i += 1;
                }
            }
        }
        if !improved {
            return Some((cur, trace, message));
        }
    }
}

/// Explores `ops` looking only for a panicking execution; ignores
/// linearizability entirely (no spec required). Stuck executions are
/// skipped. Returns the first panic's trace and message.
fn explore_for_panic<T, Op, Res, Setup, Exec>(
    opts: &ExploreOptions,
    ops: &[Vec<Op>],
    setup: &Setup,
    exec: &Exec,
) -> Option<(Trace, String)>
where
    Op: Clone + Send + Sync,
    Res: Clone + Send,
    T: Sync,
    Setup: Fn() -> T,
    Exec: Fn(&T, &Op) -> Res + Sync,
{
    let threads = ops.len();
    let mut explorer = exp::Explorer::new(threads, bounds_of(opts));
    loop {
        let run = explorer.begin();
        let (_history, panic_msg): (Vec<Operation<Op, Res>>, _) = run_window(ops, setup, exec);
        let _ = explorer.finish(run);
        if let Some(message) = panic_msg {
            let trace = if opts.weak_memory {
                Trace::V3 {
                    threads,
                    steps: explorer.last_schedule(),
                    reads: explorer.last_reads(),
                }
            } else {
                Trace::V2 {
                    threads,
                    steps: explorer.last_schedule(),
                }
            };
            return Some((trace, message));
        }
        if explorer.executions() >= opts.max_executions || !explorer.advance() {
            return None;
        }
    }
}
