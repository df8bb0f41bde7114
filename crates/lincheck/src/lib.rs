//! Executable linearizability checking (Herlihy & Wing, 1990).
//!
//! Linearizability is the correctness criterion for every structure in
//! this family: each operation must appear to take effect atomically at
//! some instant between its invocation and its response. This crate makes
//! the criterion *executable* for the test suite:
//!
//! 1. wrap concurrent calls in a [`Recorder`], which timestamps each
//!    operation's invocation and response with a global atomic clock;
//! 2. describe the abstract type with a sequential [`Spec`] (specs for
//!    stacks, queues, deques, sets, registers and counters ship in
//!    [`specs`]);
//! 3. ask [`check_linearizable`] whether *any* sequential order of the
//!    recorded operations (a) respects the real-time order — an operation
//!    that returned before another was invoked must come first — and
//!    (b) makes the spec reproduce every recorded result.
//!
//! # The memoized Wing–Gong search
//!
//! The search is the Wing–Gong algorithm — depth-first over the orders
//! that respect real time, backtracking when the spec disagrees — with
//! the memoization of Lowe's *just-in-time linearizability* checkers
//! layered on top: every explored configuration is the pair
//! ⟨set of already-linearized operations, abstract state⟩, and two search
//! paths that linearize the same *set* of operations and land the spec in
//! the same *state* have identical futures. Caching those pairs turns the
//! factorial blow-up of the plain search into something bounded by the
//! number of *distinct reachable configurations*, which for realistic
//! histories is tiny: windows of 40–50 operations from 4 threads check
//! in milliseconds (the suite asserts a 40-operation window in under a
//! second as a regression test). The hard cap is 64 operations per
//! window (the linearized set is a `u64` bitmask).
//!
//! Window-size guidance: the memo key contains the abstract state, so
//! the cache is effective exactly when many interleavings collapse to
//! few states (counters, queues, small-key-range sets). Histories of
//! fully-concurrent operations over *distinct* values keep states
//! distinct and can still be exponential; keep such windows ≤ ~24
//! operations.
//!
//! # Beyond checking: stress, faults, shrinking
//!
//! * [`stress`] drives whole structures through seeded, PCT-style
//!   scheduled rounds (`cds_atomic::stress`) and re-prints the seed of any
//!   failing schedule so it can be replayed deterministically.
//! * [`faults`] injects contention storms and worker panics; the
//!   family's `cds_sync::Mutex` does not poison, so lock-based
//!   structures can be tested across them.
//! * [`shrink_history`] minimizes a failing window to a locally minimal
//!   non-linearizable sub-history before it is reported.
//! * [`prop`] is a small seeded property-testing harness (generation +
//!   delta-debugging shrinker) the suite uses instead of `proptest`.
//!
//! # Example
//!
//! ```
//! use cds_lincheck::{check_linearizable, Recorder};
//! use cds_lincheck::specs::{RegisterOp, RegisterSpec};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicI64, Ordering};
//!
//! let reg = Arc::new(AtomicI64::new(0));
//! let recorder = Arc::new(Recorder::new());
//! let handles: Vec<_> = (0..2)
//!     .map(|i| {
//!         let reg = Arc::clone(&reg);
//!         let recorder = Arc::clone(&recorder);
//!         std::thread::spawn(move || {
//!             recorder.record(RegisterOp::Write(i + 1), || {
//!                 reg.store(i + 1, Ordering::SeqCst);
//!                 0
//!             });
//!             recorder.record(RegisterOp::Read, || reg.load(Ordering::SeqCst));
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! let history = Arc::try_unwrap(recorder).unwrap().into_history();
//! assert!(check_linearizable(RegisterSpec::default(), &history));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(feature = "stress")]
pub mod explore;
pub mod faults;
pub mod prop;
pub mod specs;
pub mod stress;
pub mod trace;

use cds_atomic::raw::{AtomicU64, Ordering};
use cds_atomic::stress as sched;
use std::collections::HashSet;
use std::fmt;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A sequential specification of an abstract data type.
///
/// `apply` runs one operation against the abstract state and returns the
/// result the sequential type would produce. The checker clones the state
/// while backtracking and memoizes on `(linearized-set, state)` — hence
/// the `Eq + Hash` bounds — so keep the state small and canonical (two
/// states that are `==` must have identical futures).
pub trait Spec: Clone + Eq + Hash {
    /// Operation descriptions (inputs).
    type Op;
    /// Operation results; compared against the recorded outputs.
    type Res: PartialEq;

    /// Applies `op` to the state, returning the sequential result.
    fn apply(&mut self, op: &Self::Op) -> Self::Res;
}

/// One completed operation in a recorded history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation<Op, Res> {
    /// What was invoked.
    pub op: Op,
    /// What it returned.
    pub result: Res,
    /// Logical invocation time.
    pub call: u64,
    /// Logical response time (`> call`).
    pub ret: u64,
}

/// Timestamps concurrent operations to build a checkable history.
///
/// Thread-safe: share it (e.g. in an `Arc`) among the worker threads and
/// wrap every operation in [`record`](Recorder::record).
pub struct Recorder<Op, Res> {
    clock: AtomicU64,
    ops: Mutex<Vec<Operation<Op, Res>>>,
}

impl<Op, Res> Recorder<Op, Res> {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder {
            clock: AtomicU64::new(0),
            ops: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f`, recording `op` with invocation/response timestamps and
    /// the produced result. Returns the result to the caller.
    pub fn record(&self, op: Op, f: impl FnOnce() -> Res) -> Res
    where
        Res: Clone,
    {
        let call = self.clock.fetch_add(1, Ordering::SeqCst);
        let result = f();
        let ret = self.clock.fetch_add(1, Ordering::SeqCst);
        self.ops.lock().unwrap().push(Operation {
            op,
            result: result.clone(),
            call,
            ret,
        });
        result
    }

    /// Finishes recording, returning the completed history.
    pub fn into_history(self) -> Vec<Operation<Op, Res>> {
        self.ops.into_inner().unwrap()
    }
}

impl<Op, Res> Default for Recorder<Op, Res> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Op, Res> fmt::Debug for Recorder<Op, Res> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("recorded", &self.ops.lock().unwrap().len())
            .finish()
    }
}

/// Runs one scheduled window: worker slot `t` registers with whichever
/// scheduler is installed (PCT round, explore execution, replay — or none,
/// in a build without the `stress` feature), rendezvouses, and executes
/// `ops[t]` in order against a fresh `setup()`, each operation recorded.
/// Returns the recorded history and the first worker panic, stringified.
pub(crate) fn run_window<T, Op, Res, Setup, Exec>(
    ops: &[Vec<Op>],
    setup: &Setup,
    exec: &Exec,
) -> (Vec<Operation<Op, Res>>, Option<String>)
where
    Op: Clone + Send + Sync,
    Res: Clone + Send,
    T: Sync,
    Setup: Fn() -> T,
    Exec: Fn(&T, &Op) -> Res + Sync,
{
    let target = setup();
    let recorder: Recorder<Op, Res> = Recorder::new();
    let panics: Mutex<Vec<String>> = Mutex::new(Vec::new());
    // All workers must be registered before any of them starts operating:
    // the scheduler grants no step until every registered worker has
    // paused, so the barrier only shields the (trivial) pre-window code
    // from spawn-order noise.
    let start = std::sync::Barrier::new(ops.len());
    std::thread::scope(|s| {
        for (t, thread_ops) in ops.iter().enumerate() {
            let target = &target;
            let recorder = &recorder;
            let start = &start;
            let panics = &panics;
            s.spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let _slot = sched::register(t);
                    start.wait();
                    for op in thread_ops {
                        sched::yield_point();
                        recorder.record(op.clone(), || {
                            // Real-time completion edges for weak-memory
                            // exploration: absorb everything that completed
                            // before this operation was invoked, and publish
                            // this operation's effects before its response
                            // is recorded. Both sit *inside* the recorded
                            // span, so the synchronization they add is only
                            // ever a sound under-approximation of the
                            // history's real-time order. No-ops otherwise.
                            sched::op_boundary();
                            let res = exec(target, op);
                            sched::op_boundary();
                            res
                        });
                    }
                }));
                if let Err(payload) = result {
                    // `ExploreAbort` is the scheduler's own control flow
                    // (pruned/stuck executions); everything else is a real
                    // failure of the structure under test.
                    #[cfg(feature = "stress")]
                    if payload.is::<sched::explore::ExploreAbort>() {
                        return;
                    }
                    panics.lock().unwrap().push(panic_message(payload.as_ref()));
                }
            });
        }
    });
    let history = recorder.into_history();
    let panic_msg = panics.into_inner().unwrap().into_iter().next();
    (history, panic_msg)
}

/// A panic payload as text: the `&str` or `String` it carries.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

/// The root seed of a harness: `default`, unless the environment variable
/// `var` overrides it (decimal or `0x` hex; anything else panics).
pub(crate) fn env_seed(var: &str, default: u64) -> u64 {
    match std::env::var(var) {
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            parsed.unwrap_or_else(|_| panic!("unparseable {var}: {s:?}"))
        }
        Err(_) => default,
    }
}

/// Checks whether `history` is linearizable with respect to `spec`.
///
/// Memoized Wing–Gong search (see the [crate docs](crate)); panics on
/// histories over 64 operations.
pub fn check_linearizable<S: Spec>(spec: S, history: &[Operation<S::Op, S::Res>]) -> bool {
    linearization(spec, history).is_some()
}

/// Like [`check_linearizable`], but on success returns a witness: the
/// indices of `history` in one legal linearization order.
///
/// `None` means no legal order exists (the history is not linearizable).
pub fn linearization<S: Spec>(spec: S, history: &[Operation<S::Op, S::Res>]) -> Option<Vec<usize>> {
    let n = history.len();
    assert!(
        n <= 64,
        "history too large for exhaustive checking ({n} ops); record smaller windows"
    );
    if n == 0 {
        return Some(Vec::new());
    }
    // pred_mask[i]: operations that *must* linearize before i because they
    // returned before i was invoked. i is minimal in a partial order state
    // `remaining` iff pred_mask[i] ∩ remaining = ∅.
    let pred_mask: Vec<u64> = (0..n)
        .map(|i| {
            let mut m = 0u64;
            for (j, other) in history.iter().enumerate() {
                if j != i && other.ret < history[i].call {
                    m |= 1 << j;
                }
            }
            m
        })
        .collect();
    let full: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
    let mut seen: HashSet<(u64, S)> = HashSet::new();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    if dfs(&spec, full, history, &pred_mask, &mut seen, &mut order) {
        Some(order)
    } else {
        None
    }
}

fn dfs<S: Spec>(
    spec: &S,
    remaining: u64,
    history: &[Operation<S::Op, S::Res>],
    pred_mask: &[u64],
    seen: &mut HashSet<(u64, S)>,
    order: &mut Vec<usize>,
) -> bool {
    if remaining == 0 {
        return true;
    }
    // Memoization (Lowe): a ⟨remaining-set, state⟩ pair already explored
    // without success cannot succeed now — identical futures.
    if !seen.insert((remaining, spec.clone())) {
        return false;
    }
    let mut bits = remaining;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if pred_mask[i] & remaining != 0 {
            continue; // a predecessor is still pending; i is not minimal
        }
        let mut next = spec.clone();
        if next.apply(&history[i].op) == history[i].result {
            order.push(i);
            if dfs(
                &next,
                remaining & !(1 << i),
                history,
                pred_mask,
                seen,
                order,
            ) {
                return true;
            }
            order.pop();
        }
    }
    false
}

/// Minimizes a non-linearizable history to a *locally minimal* failing
/// sub-history: removing any single remaining operation makes it
/// linearizable.
///
/// Delta debugging through [`prop::shrink_vec`]: operations whose removal
/// keeps the history non-linearizable are dropped, chunks first. The
/// result pins the conflict down to a handful of operations, which is
/// what gets printed alongside the seed when a stress round fails.
/// (Minimal sub-histories can look "impossible" in isolation — e.g. a
/// dequeue of a value whose enqueue was dropped — but they are still
/// faithful counterexamples: a sub-history of a linearizable history over
/// these specs would itself be linearizable.)
///
/// Returns the history unchanged if it is actually linearizable.
pub fn shrink_history<S: Spec>(
    spec: &S,
    history: &[Operation<S::Op, S::Res>],
) -> Vec<Operation<S::Op, S::Res>>
where
    S::Op: Clone,
    S::Res: Clone,
{
    prop::shrink_vec(history, |h| !check_linearizable(spec.clone(), h))
}

#[cfg(test)]
mod tests {
    use super::specs::*;
    use super::*;

    fn op<OpT, ResT>(op: OpT, result: ResT, call: u64, ret: u64) -> Operation<OpT, ResT> {
        Operation {
            op,
            result,
            call,
            ret,
        }
    }

    #[test]
    fn sequential_counter_history_accepts() {
        let h = vec![op(CounterOp::Add(1), 0, 0, 1), op(CounterOp::Get, 1, 2, 3)];
        assert!(check_linearizable(CounterSpec::default(), &h));
    }

    #[test]
    fn wrong_result_rejects() {
        let h = vec![op(CounterOp::Add(1), 0, 0, 1), op(CounterOp::Get, 5, 2, 3)];
        assert!(!check_linearizable(CounterSpec::default(), &h));
    }

    #[test]
    fn real_time_order_is_enforced() {
        // Get returned 0 strictly AFTER Add completed: not linearizable.
        let h = vec![op(CounterOp::Add(1), 0, 0, 1), op(CounterOp::Get, 0, 2, 3)];
        assert!(!check_linearizable(CounterSpec::default(), &h));
        // But a Get overlapping the Add may legally return 0.
        let h = vec![op(CounterOp::Add(1), 0, 0, 3), op(CounterOp::Get, 0, 1, 2)];
        assert!(check_linearizable(CounterSpec::default(), &h));
    }

    #[test]
    fn concurrent_stack_pops_commute() {
        // Two overlapping pushes then two overlapping pops that see them in
        // the opposite order: linearizable (the pushes overlap).
        let h = vec![
            op(StackOp::Push(1), StackRes::Pushed, 0, 3),
            op(StackOp::Push(2), StackRes::Pushed, 1, 2),
            op(StackOp::Pop, StackRes::Popped(Some(1)), 4, 5),
            op(StackOp::Pop, StackRes::Popped(Some(2)), 6, 7),
        ];
        assert!(check_linearizable(StackSpec::default(), &h));
    }

    #[test]
    fn stack_lifo_violation_rejects() {
        // Sequential pushes (non-overlapping) must pop in LIFO order.
        let h = vec![
            op(StackOp::Push(1), StackRes::Pushed, 0, 1),
            op(StackOp::Push(2), StackRes::Pushed, 2, 3),
            op(StackOp::Pop, StackRes::Popped(Some(1)), 4, 5),
            op(StackOp::Pop, StackRes::Popped(Some(2)), 6, 7),
        ];
        assert!(!check_linearizable(StackSpec::default(), &h));
    }

    #[test]
    fn queue_fifo_is_checked() {
        let good = vec![
            op(QueueOp::Enqueue(1), QueueRes::Enqueued, 0, 1),
            op(QueueOp::Enqueue(2), QueueRes::Enqueued, 2, 3),
            op(QueueOp::Dequeue, QueueRes::Dequeued(Some(1)), 4, 5),
        ];
        assert!(check_linearizable(QueueSpec::default(), &good));
        let bad = vec![
            op(QueueOp::Enqueue(1), QueueRes::Enqueued, 0, 1),
            op(QueueOp::Enqueue(2), QueueRes::Enqueued, 2, 3),
            op(QueueOp::Dequeue, QueueRes::Dequeued(Some(2)), 4, 5),
        ];
        assert!(!check_linearizable(QueueSpec::default(), &bad));
    }

    #[test]
    fn set_duplicate_insert_semantics() {
        let h = vec![
            op(SetOp::Insert(7), true, 0, 1),
            op(SetOp::Insert(7), false, 2, 3),
            op(SetOp::Remove(7), true, 4, 5),
            op(SetOp::Contains(7), false, 6, 7),
        ];
        assert!(check_linearizable(SetSpec::default(), &h));
        // Two non-overlapping successful inserts of the same key: illegal.
        let bad = vec![
            op(SetOp::Insert(7), true, 0, 1),
            op(SetOp::Insert(7), true, 2, 3),
        ];
        assert!(!check_linearizable(SetSpec::default(), &bad));
    }

    #[test]
    fn recorder_round_trip() {
        let r: Recorder<CounterOp, i64> = Recorder::new();
        let out = r.record(CounterOp::Add(5), || 0);
        assert_eq!(out, 0);
        r.record(CounterOp::Get, || 5);
        let h = r.into_history();
        assert_eq!(h.len(), 2);
        assert!(h[0].call < h[0].ret);
        assert!(check_linearizable(CounterSpec::default(), &h));
    }

    #[test]
    #[should_panic(expected = "history too large")]
    fn oversized_history_panics() {
        let h: Vec<Operation<CounterOp, i64>> = (0..70)
            .map(|i| op(CounterOp::Get, 0, 2 * i, 2 * i + 1))
            .collect();
        let _ = check_linearizable(CounterSpec::default(), &h);
    }

    #[test]
    fn windows_up_to_64_ops_are_accepted() {
        // The seed checker capped windows at 24 operations; the memoized
        // search takes the full bitmask range. 64 sequential counter ops
        // check instantly.
        let mut h = Vec::new();
        let mut total = 0i64;
        for i in 0..32u64 {
            h.push(op(CounterOp::Add(1), 0, 4 * i, 4 * i + 1));
            total += 1;
            h.push(op(CounterOp::Get, total, 4 * i + 2, 4 * i + 3));
        }
        assert_eq!(h.len(), 64);
        assert!(check_linearizable(CounterSpec::default(), &h));
    }

    #[test]
    fn memoization_handles_wide_concurrency() {
        // 40 fully-overlapping counter increments plus interleaved gets:
        // the plain Wing–Gong search would explore factorially many
        // orders; the memo collapses them by (mask, state).
        let n = 40u64;
        let h: Vec<Operation<CounterOp, i64>> = (0..n)
            .map(|i| op(CounterOp::Add(1), 0, 0, 100 + i))
            .collect();
        let start = std::time::Instant::now();
        assert!(check_linearizable(CounterSpec::default(), &h));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "memoized check took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn linearization_witness_is_legal() {
        let h = vec![
            op(QueueOp::Enqueue(1), QueueRes::Enqueued, 0, 5),
            op(QueueOp::Enqueue(2), QueueRes::Enqueued, 1, 2),
            op(QueueOp::Dequeue, QueueRes::Dequeued(Some(2)), 3, 4),
        ];
        let order = linearization(QueueSpec::default(), &h).expect("linearizable");
        // Replaying the witness order against a fresh spec reproduces
        // every recorded result.
        let mut spec = QueueSpec::default();
        for &i in &order {
            assert_eq!(spec.apply(&h[i].op), h[i].result);
        }
        // And the witness respects real time: op 1 returned before op 2
        // was invoked, so it must come first.
        let p1 = order.iter().position(|&i| i == 1).unwrap();
        let p2 = order.iter().position(|&i| i == 2).unwrap();
        assert!(p1 < p2);
    }

    #[test]
    fn shrinker_finds_minimal_core() {
        // A long linearizable prefix plus one impossible Get: shrinking
        // must cut it down to just the contradiction.
        let mut h: Vec<Operation<CounterOp, i64>> = (0..10)
            .map(|i| op(CounterOp::Add(1), 0, 2 * i, 2 * i + 1))
            .collect();
        h.push(op(CounterOp::Get, -7, 20, 21)); // impossible: counter never negative
        let spec = CounterSpec::default();
        assert!(!check_linearizable(spec.clone(), &h));
        let small = shrink_history(&spec, &h);
        assert!(!check_linearizable(spec.clone(), &small));
        // Locally minimal: removing any one op makes it linearizable.
        for i in 0..small.len() {
            let mut cand = small.clone();
            cand.remove(i);
            assert!(check_linearizable(spec.clone(), &cand));
        }
        assert_eq!(small.len(), 1, "core should be just the impossible Get");
    }

    #[test]
    fn shrinker_returns_linearizable_histories_untouched() {
        let h = vec![op(CounterOp::Add(1), 0, 0, 1), op(CounterOp::Get, 1, 2, 3)];
        assert_eq!(shrink_history(&CounterSpec::default(), &h), h);
    }
}
