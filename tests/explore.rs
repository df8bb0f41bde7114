//! Bounded-exhaustive exploration sweep: every schedule of small fixed
//! windows, enumerated by `cds_lincheck::explore` (DFS over scheduling
//! decisions with sleep-set pruning), checked for linearizability.
//!
//! Two kinds of tests live here:
//!
//! * **Exhaustive windows** over correct structures (Treiber stack,
//!   Michael–Scott queue, Vyukov bounded queue, Chase–Lev deque, the
//!   resizing map across a live migration, the executor's eventcount
//!   protocol, and the blocking channel's send/close and recv/close
//!   interleavings). Each pins its explored-schedule count against
//!   `tests/explore_baseline.txt`: the DFS is fully deterministic, so a
//!   count change means the yield-point surface or the pruning relation
//!   changed. Counts may only change together with a
//!   [`TRACE_FORMAT_VERSION`] bump (which unpins them until the baseline
//!   is re-recorded); a silent drop of more than 10% is treated as lost
//!   coverage and fails CI.
//!
//! * **Planted-regression known-answer tests**: the capacity-1
//!   `BoundedQueue` overwrite, the resizing map's migration-gap race,
//!   and the channel close path that skips its final drain dequeue — the
//!   first two real bugs fixed in earlier revisions, the third the race
//!   the close protocol exists to prevent — are (re-)armed behind
//!   stress-only toggles, and `explore` must find each one
//!   *deterministically* (no seed anywhere), ddmin-shrink the failing
//!   window, and replay its schedule byte-identically.

mod common;

use std::collections::VecDeque;
use std::hash::BuildHasher;

use cds_atomic::stress::{arm, Fault};
use cds_lincheck::explore::{
    explore, replay_schedule, ExploreBounds, ExploreError, ExploreOptions, ExploreReport, OnStuck,
};
use cds_lincheck::specs::{
    ChanOp, ChanRes, ChannelSpec, DequeOp, DequeRes, DequeSpec, EventcountOp, EventcountSpec,
    MapOp, MapRes, MapSpec, QueueOp, QueueRes, QueueSpec, SetOp, SetSpec, StackOp, StackSpec,
};
use cds_lincheck::stress::{stress, StressOptions};
use cds_lincheck::trace::{Trace, TRACE_FORMAT_VERSION};
use cds_lincheck::{check_linearizable, Spec};
use common::{exec_gate, exec_map, exec_queue, exec_set, exec_stack, Gate};

/// The pinned-count table, compiled in so the test cannot silently run
/// against a missing file. Format: `key=value` lines, `#` comments; the
/// `version` key names the [`TRACE_FORMAT_VERSION`] the counts were
/// recorded under.
const BASELINE: &str = include_str!("explore_baseline.txt");

/// Result of looking a window key up in a baseline file.
enum Pin {
    /// The baseline's version matches; the count is pinned to this value.
    Pinned(u64),
    /// The counts are unpinned; the string is the actionable diagnostic
    /// explaining why and how to re-pin them.
    Unpinned(String),
}

/// Parses `content` (the `key=value` baseline format) and looks up `key`.
///
/// Counts only pin when the file's `version` stamp equals the running
/// [`TRACE_FORMAT_VERSION`]: a version bump deliberately unpins every
/// window until the baseline is re-recorded, and the diagnostic names the
/// exact command that does so.
fn lookup(content: &str, key: &str) -> Pin {
    let mut version: Option<u64> = None;
    let mut value: Option<u64> = None;
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (k, v) = line.split_once('=').expect("baseline line is key=value");
        let v: u64 = v.trim().parse().expect("baseline value is an integer");
        if k.trim() == "version" {
            version = Some(v);
        } else if k.trim() == key {
            value = Some(v);
        }
    }
    if version != Some(u64::from(TRACE_FORMAT_VERSION)) {
        return Pin::Unpinned(format!(
            "tests/explore_baseline.txt is stamped version={} but this build's \
             TRACE_FORMAT_VERSION={TRACE_FORMAT_VERSION}; `{key}` (and every other window) is \
             unpinned until the baseline is re-recorded. Run \
             `CDS_EXPLORE_BLESS=1 cargo test --features stress --test explore` to regenerate \
             it deterministically, review the diff, and commit it.",
            version.map_or("<missing>".into(), |v| v.to_string()),
        ));
    }
    Pin::Pinned(value.unwrap_or_else(|| {
        panic!(
            "tests/explore_baseline.txt has no `{key}` entry; run \
             `CDS_EXPLORE_BLESS=1 cargo test --features stress --test explore` to add it"
        )
    }))
}

fn baseline(key: &str) -> Pin {
    lookup(BASELINE, key)
}

/// True when this run should *record* counts instead of asserting them.
fn blessing() -> bool {
    std::env::var_os("CDS_EXPLORE_BLESS").is_some_and(|v| v == "1")
}

/// Rewrites `key=schedules` (and the `version` stamp) into
/// `tests/explore_baseline.txt`, preserving comments and line order;
/// unknown keys are appended. Each window's count is deterministic and
/// each bless touches only its own key, so the regenerated file is
/// identical no matter how the test harness orders or parallelizes the
/// windows.
fn bless(key: &str, schedules: u64) {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/explore_baseline.txt");
    let content = std::fs::read_to_string(path).expect("baseline file readable for blessing");
    let mut out = String::new();
    let mut wrote_key = false;
    for line in content.lines() {
        let trimmed = line.trim();
        let k = trimmed.split_once('=').map(|(k, _)| k.trim());
        if k == Some("version") {
            out.push_str(&format!("version={TRACE_FORMAT_VERSION}\n"));
        } else if k == Some(key) {
            out.push_str(&format!("{key}={schedules}\n"));
            wrote_key = true;
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    if !wrote_key {
        out.push_str(&format!("{key}={schedules}\n"));
    }
    std::fs::write(path, out).expect("baseline file writable for blessing");
    eprintln!("explore_baseline: blessed {key}={schedules} (version {TRACE_FORMAT_VERSION})");
}

/// Asserts an exhaustive window's coverage against the pinned baseline.
fn assert_pinned(key: &str, report: &ExploreReport) {
    assert!(report.exhausted, "`{key}` hit max_executions: {report:?}");
    check_pin(key, report);
}

/// Like [`assert_pinned`] but for a window whose full schedule space
/// exceeds its execution budget (the resizing-map migration: lock-convoy
/// branching puts it in the millions). The DFS is deterministic, so the
/// first `max_executions` executions are a stable prefix and the schedule
/// count over that prefix pins exactly like an exhaustive one. The cap is
/// logged so the bounded coverage is never mistaken for exhaustion.
fn assert_pinned_capped(key: &str, report: &ExploreReport, opts: &ExploreOptions) {
    if report.exhausted {
        // Better pruning (or a smaller window) made the cap non-binding;
        // the pin below still applies, but the window could graduate to
        // `assert_pinned`.
        eprintln!(
            "explore: `{key}` now exhausts below its cap of {} executions",
            opts.max_executions
        );
    } else {
        assert_eq!(
            report.executions, opts.max_executions,
            "`{key}` stopped early without exhausting: {report:?}"
        );
        eprintln!(
            "explore: `{key}` coverage capped at {} executions (schedule space exceeds the budget)",
            opts.max_executions
        );
    }
    check_pin(key, report);
}

fn check_pin(key: &str, report: &ExploreReport) {
    assert!(
        report.schedules >= 2,
        "`{key}` explored too little: {report:?}"
    );
    if blessing() {
        bless(key, report.schedules);
        return;
    }
    match baseline(key) {
        Pin::Pinned(expected) => {
            if report.schedules * 10 < expected * 9 {
                panic!(
                    "`{key}` explored-schedule count dropped >10% ({} -> {}): coverage was \
                     lost. If the yield-point surface or independence relation changed \
                     intentionally, bump TRACE_FORMAT_VERSION and re-record \
                     tests/explore_baseline.txt. {report:?}",
                    expected, report.schedules
                );
            }
            assert_eq!(
                report.schedules, expected,
                "`{key}` explored-schedule count changed (pinned {expected}); update \
                 tests/explore_baseline.txt if the change is intentional. {report:?}"
            );
        }
        Pin::Unpinned(why) => {
            eprintln!(
                "explore_baseline: `{key}` unpinned ({why}); observed schedules={} \
                 redundant={} stuck={} executions={}",
                report.schedules, report.redundant, report.stuck, report.executions
            );
        }
    }
}

#[test]
fn version_mismatched_baseline_gives_actionable_diagnostic() {
    // A stale baseline must not silently pin or silently pass: the lookup
    // reports *why* the counts are unpinned and the exact bless command.
    let stale = format!("version={}\ntreiber_stack=15\n", TRACE_FORMAT_VERSION - 1);
    match lookup(&stale, "treiber_stack") {
        Pin::Unpinned(msg) => {
            assert!(
                msg.contains(&format!("version={}", TRACE_FORMAT_VERSION - 1)),
                "{msg}"
            );
            assert!(
                msg.contains(&format!("TRACE_FORMAT_VERSION={TRACE_FORMAT_VERSION}")),
                "{msg}"
            );
            assert!(msg.contains("CDS_EXPLORE_BLESS=1"), "{msg}");
        }
        Pin::Pinned(v) => panic!("stale baseline pinned a count ({v}) instead of diagnosing"),
    }
    // A baseline with no version stamp at all is equally stale.
    match lookup("treiber_stack=15\n", "treiber_stack") {
        Pin::Unpinned(msg) => assert!(msg.contains("<missing>"), "{msg}"),
        Pin::Pinned(v) => panic!("unversioned baseline pinned a count ({v})"),
    }
    // The checked-in baseline matches the running version.
    match lookup(BASELINE, "treiber_stack") {
        Pin::Pinned(_) => {}
        Pin::Unpinned(why) => panic!("checked-in baseline is stale: {why}"),
    }
}

fn opts() -> ExploreOptions {
    ExploreOptions {
        bounds: ExploreBounds {
            max_steps: 2_000,
            ..ExploreBounds::default()
        },
        max_executions: 200_000,
        on_stuck: OnStuck::Fail,
    }
}

// ---------------------------------------------------------------------
// Exhaustive windows over correct structures.
// ---------------------------------------------------------------------

#[test]
fn explore_treiber_stack_window() {
    let ops = [vec![StackOp::Push(1), StackOp::Pop], vec![StackOp::Push(2)]];
    let report = explore(
        StackSpec::<u64>::default(),
        &opts(),
        &ops,
        cds_stack::TreiberStack::<u64>::new,
        exec_stack,
    )
    .unwrap_or_else(|f| panic!("treiber stack window not linearizable: {f:?}"));
    assert_pinned("treiber_stack", &report);
}

#[test]
fn explore_ms_queue_window() {
    let ops = [vec![QueueOp::Enqueue(1)], vec![QueueOp::Dequeue]];
    let report = explore(
        QueueSpec::<u64>::default(),
        &opts(),
        &ops,
        cds_queue::MsQueue::<u64>::new,
        exec_queue,
    )
    .unwrap_or_else(|f| panic!("ms queue window not linearizable: {f:?}"));
    assert_pinned("ms_queue", &report);
}

// ---------------------------------------------------------------------
// Bounded queue: cap-2 exhaustive window, then the planted cap-1
// overwrite regression. One test so the claim-window toggle can never
// perturb the untoggled window from a concurrently running test.
// ---------------------------------------------------------------------

/// Try-semantics bounded-queue operations: `try_enqueue` can observe a
/// full queue, so the result carries success/failure and the spec models
/// the capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TryQueueOp {
    Enq(u64),
    Deq,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TryQueueRes {
    Enq(bool),
    Deq(Option<u64>),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TryQueueSpec {
    items: VecDeque<u64>,
    cap: usize,
}

impl TryQueueSpec {
    fn with_capacity(cap: usize) -> Self {
        TryQueueSpec {
            items: VecDeque::new(),
            cap,
        }
    }
}

impl Spec for TryQueueSpec {
    type Op = TryQueueOp;
    type Res = TryQueueRes;

    fn apply(&mut self, op: &TryQueueOp) -> TryQueueRes {
        match op {
            TryQueueOp::Enq(v) => {
                if self.items.len() < self.cap {
                    self.items.push_back(*v);
                    TryQueueRes::Enq(true)
                } else {
                    TryQueueRes::Enq(false)
                }
            }
            TryQueueOp::Deq => TryQueueRes::Deq(self.items.pop_front()),
        }
    }
}

fn exec_try_queue(q: &cds_queue::BoundedQueue<u64>, op: &TryQueueOp) -> TryQueueRes {
    match op {
        TryQueueOp::Enq(v) => TryQueueRes::Enq(q.try_enqueue(*v).is_ok()),
        TryQueueOp::Deq => TryQueueRes::Deq(q.try_dequeue()),
    }
}

#[test]
fn explore_bounded_queue_window_and_cap1_regression() {
    // Exhaustive cap-2 window, plant off: two producers' worth of traffic
    // never exceeds capacity, every schedule must linearize.
    let ops = [
        vec![TryQueueOp::Enq(1), TryQueueOp::Enq(2)],
        vec![TryQueueOp::Deq],
    ];
    let report = explore(
        TryQueueSpec::with_capacity(2),
        &opts(),
        &ops,
        || cds_queue::BoundedQueue::<u64>::with_capacity(2),
        exec_try_queue,
    )
    .unwrap_or_else(|f| panic!("bounded queue cap-2 window not linearizable: {f:?}"));
    assert_pinned("bounded_queue_cap2", &report);

    // The planted regression: with a single slot (the armed plant skips
    // the capacity floor) and the claim→publish windows made preemptible,
    // a producer can claim the slot a dequeuer is still reading and
    // overwrite the undelivered value. `explore` must find it with zero
    // randomness.
    let _plant = arm(Fault::ClaimWindowYields);
    let ops = [
        vec![TryQueueOp::Enq(1), TryQueueOp::Enq(2)],
        vec![TryQueueOp::Deq, TryQueueOp::Deq],
    ];
    let spec = TryQueueSpec::with_capacity(1);
    let setup = || cds_queue::BoundedQueue::<u64>::with_capacity(1);
    let result = explore(
        spec.clone(),
        &ExploreOptions {
            on_stuck: OnStuck::Continue,
            ..opts()
        },
        &ops,
        setup,
        exec_try_queue,
    );
    let err = result.expect_err("explore missed the planted capacity-1 overwrite");
    let (trace, history, minimized) = match *err {
        ExploreError::NonLinearizable {
            trace,
            history,
            minimized,
        } => (trace, history, minimized),
        other => panic!("expected NonLinearizable, got {other:?}"),
    };
    // The ddmin shrink produced a smaller, still-failing core.
    assert!(!minimized.is_empty());
    assert!(minimized.len() <= history.len());
    assert!(!check_linearizable(spec.clone(), &minimized));
    // The trace is a v2 (explicit step list) line that round-trips.
    let line = trace.to_string();
    assert!(
        line.starts_with("cds-trace v2 "),
        "unexpected trace: {line}"
    );
    assert_eq!(line.parse::<Trace>().unwrap(), trace);
    // And replaying it reproduces the identical history, byte for byte.
    let steps = match &trace {
        Trace::V2 { steps, .. } => steps.clone(),
        other => panic!("expected a v2 trace, got {other:?}"),
    };
    let replayed = replay_schedule(&ops, &steps, &[], &opts(), setup, exec_try_queue)
        .expect("replay of the failing schedule diverged");
    assert_eq!(replayed, history, "replay was not byte-identical");
}

#[test]
fn explore_two_lock_queue_window() {
    // Lock-based structure: the window explores every interleaving of the
    // head/tail lock acquisitions (`cds_sync::Mutex`, whose acquire
    // attempts are yield points under the scheduler), proving the
    // two-lock protocol linearizable, not just deadlock-free.
    let ops = [
        vec![QueueOp::Enqueue(1), QueueOp::Dequeue],
        vec![QueueOp::Enqueue(2)],
    ];
    let report = explore(
        QueueSpec::<u64>::default(),
        &opts(),
        &ops,
        cds_queue::TwoLockQueue::<u64>::new,
        exec_queue,
    )
    .unwrap_or_else(|f| panic!("two-lock queue window not linearizable: {f:?}"));
    assert_pinned("two_lock_queue", &report);
}

#[test]
fn explore_elimination_stack_window() {
    // One slot forces every elimination attempt to meet in slot 0; with
    // two, `random_slot` draws from each worker's seeded stream, which
    // every execution restarts, so the window stays deterministic. A tiny
    // spin budget keeps either bounded. Both counts are 70 because this
    // SC window never reaches the exchanger: `try_push` and `try_pop`
    // have no yield point between their head load and their CAS, so no
    // CAS fails and nothing falls back to elimination. Covering the
    // exchange protocol needs a window that steps inside the CAS loop.
    let ops = [
        vec![StackOp::Push(1), StackOp::Pop],
        vec![StackOp::Push(2), StackOp::Pop],
    ];
    for (key, slots) in [("elimination_stack", 1), ("elimination_stack_2slots", 2)] {
        let report = explore(
            StackSpec::<u64>::default(),
            &opts(),
            &ops,
            || cds_stack::EliminationBackoffStack::<u64>::with_params(slots, 2),
            exec_stack,
        )
        .unwrap_or_else(|f| panic!("{key} window not linearizable: {f:?}"));
        assert_pinned(key, &report);
    }
}

#[test]
fn explore_skiplist_windows() {
    // Tower heights come from the workers' seeded draw streams, which
    // every execution restarts, so both windows are deterministic. The
    // lazy one runs in full; the lock-free one's full space runs past
    // 200 000 executions, so like the resizing-map window it pins a
    // deterministic DFS prefix.
    let lazy = [
        vec![SetOp::Insert(1), SetOp::Remove(1)],
        vec![SetOp::Contains(1), SetOp::Insert(2)],
    ];
    let report = explore(
        SetSpec::<u64>::default(),
        &opts(),
        &lazy,
        cds_skiplist::LazySkipList::<u64>::new,
        exec_set,
    )
    .unwrap_or_else(|f| panic!("lazy skiplist window not linearizable: {f:?}"));
    assert_pinned("lazy_skiplist", &report);
    let capped = ExploreOptions {
        max_executions: 10_000,
        ..opts()
    };
    let report = explore(
        SetSpec::<u64>::default(),
        &capped,
        &[lazy[0].clone(), vec![SetOp::Contains(1)]],
        cds_skiplist::LockFreeSkipList::<u64>::new,
        exec_set,
    )
    .unwrap_or_else(|f| panic!("lock-free skiplist window not linearizable: {f:?}"));
    assert_pinned_capped("lock_free_skiplist", &report, &capped);
}

#[test]
fn explore_lock_free_bst_window() {
    // Ellen et al. external BST: insert/remove flag-and-help protocol
    // under a window that overlaps an insert-then-remove of a key with a
    // membership query racing both.
    let ops = [
        vec![SetOp::Insert(1), SetOp::Remove(1)],
        vec![SetOp::Contains(1)],
    ];
    let report = explore(
        SetSpec::<u64>::default(),
        &opts(),
        &ops,
        cds_tree::LockFreeBst::<u64>::new,
        exec_set,
    )
    .unwrap_or_else(|f| panic!("lock-free BST window not linearizable: {f:?}"));
    assert_pinned("lock_free_bst", &report);
}

#[test]
fn explore_chase_lev_deque_window() {
    // Only slot 0 touches `worker`, upholding the deque's single-owner
    // contract; the wrapper exists because the explore driver shares one
    // `&target` across all worker threads.
    struct DequeTarget {
        worker: cds_queue::Worker<u64>,
        stealer: cds_queue::Stealer<u64>,
    }
    // SAFETY: `Worker` is !Sync only to enforce single-owner use; the
    // fixed window routes every owner op through slot 0.
    unsafe impl Sync for DequeTarget {}

    let ops = [
        vec![DequeOp::PushBottom(1), DequeOp::PopBottom],
        vec![DequeOp::Steal],
    ];
    let report = explore(
        DequeSpec::<u64>::default(),
        &opts(),
        &ops,
        || {
            let (worker, stealer) = cds_queue::ChaseLevDeque::<u64>::new();
            DequeTarget { worker, stealer }
        },
        |d, op| match op {
            DequeOp::PushBottom(v) => {
                d.worker.push(*v);
                DequeRes::Pushed
            }
            DequeOp::PopBottom => DequeRes::Popped(d.worker.pop()),
            DequeOp::Steal => DequeRes::Stolen(loop {
                match d.stealer.steal() {
                    cds_queue::Steal::Retry => continue,
                    cds_queue::Steal::Empty => break None,
                    cds_queue::Steal::Success(v) => break Some(v),
                }
            }),
        },
    )
    .unwrap_or_else(|f| panic!("chase-lev window not linearizable: {f:?}"));
    assert_pinned("chase_lev", &report);
}

// ---------------------------------------------------------------------
// Weak-memory exploration: the DFS additionally branches on which store
// each Relaxed/Acquire load of an instrumented atomic observes, so
// ordering bugs become enumerable behaviors. One test per structure so
// the demotion toggles can never perturb a concurrently running window.
// All weak windows run on the Leak backend: reclamation machinery is
// orthogonal to the ordering contract under test, and its atomics would
// only inflate the explored surface.
// ---------------------------------------------------------------------

fn weak_opts(detect_races: bool) -> ExploreOptions {
    ExploreOptions {
        bounds: ExploreBounds {
            max_steps: 2_000,
            weak_memory: true,
            detect_races,
        },
        // Weak windows branch on reads as well as schedules; give the
        // planted-bug searches room (correct windows exhaust far below).
        max_executions: 500_000,
        // A stale read can make a retry loop spin past the step budget
        // (C11 imposes no read-freshness fairness); stuck executions are
        // expected noise around a plant, and for clean windows the count
        // pin still covers the complete ones.
        on_stuck: OnStuck::Continue,
    }
}

#[test]
fn weak_treiber_window_and_relaxed_publish_plant() {
    let setup = || cds_stack::TreiberStack::<u64, cds_reclaim::Leak>::with_reclaimer();

    // Correctly annotated (plant off), races on: every reads-from choice
    // of every schedule linearizes and no published region is touched
    // without synchronization. This is the ordering contract of the
    // Release publish CAS, checked exhaustively.
    let ops = [vec![StackOp::Push(1)], vec![StackOp::Pop]];
    let report = explore(
        StackSpec::<u64>::default(),
        &weak_opts(true),
        &ops,
        setup,
        exec_stack,
    )
    .unwrap_or_else(|f| panic!("weak treiber window not linearizable: {f:?}"));
    assert_pinned("treiber_weak", &report);

    // Plant armed: the push's publish CAS is demoted to Relaxed. A popper
    // may now observe the new head without synchronizing with the pusher
    // and read the node's `next` as its stale pre-link value (null),
    // truncating the stack. Races off so the stale-value demo reaches the
    // linearizability checker instead of the region detector.
    let _plant = arm(Fault::RelaxedPublish);
    let ops = [
        vec![StackOp::Push(1), StackOp::Push(2)],
        vec![StackOp::Pop, StackOp::Pop],
    ];
    let result = explore(
        StackSpec::<u64>::default(),
        &weak_opts(false),
        &ops,
        setup,
        exec_stack,
    );
    let err = result.expect_err("weak explore missed the planted relaxed publish");
    let (trace, history, minimized) = match *err {
        ExploreError::NonLinearizable {
            trace,
            history,
            minimized,
        } => (trace, history, minimized),
        other => panic!("expected NonLinearizable, got {other:?}"),
    };
    // Seedless and deterministic; ddmin shrank the history.
    assert!(!minimized.is_empty());
    assert!(minimized.len() <= history.len());
    assert!(!check_linearizable(StackSpec::<u64>::default(), &minimized));
    // The trace is a v3 line (schedule + read-from choices) that
    // round-trips through its string form.
    let line = trace.to_string();
    assert!(
        line.starts_with("cds-trace v3 "),
        "unexpected trace: {line}"
    );
    assert_eq!(line.parse::<Trace>().unwrap(), trace);
    let (steps, reads) = match &trace {
        Trace::V3 { steps, reads, .. } => (steps.clone(), reads.clone()),
        other => panic!("expected a v3 trace, got {other:?}"),
    };
    assert!(
        !reads.is_empty(),
        "the stale-read counterexample must involve a non-latest read-from choice"
    );
    // Replaying schedule + reads reproduces the identical history.
    let replayed = replay_schedule(&ops, &steps, &reads, &weak_opts(false), setup, exec_stack)
        .expect("replay of the failing weak execution diverged");
    assert_eq!(replayed, history, "weak replay was not byte-identical");
}

#[test]
fn weak_ms_queue_window_and_relaxed_link_plant() {
    let setup = || cds_queue::MsQueue::<u64, cds_reclaim::Leak>::with_reclaimer();

    // Correctly annotated (plant off), races on: the Release link CAS
    // publishes the node, so every dequeuer that observes it has a
    // happens-before edge to the payload's initialization.
    let ops = [vec![QueueOp::Enqueue(1)], vec![QueueOp::Dequeue]];
    let report = explore(
        QueueSpec::<u64>::default(),
        &weak_opts(true),
        &ops,
        setup,
        exec_queue,
    )
    .unwrap_or_else(|f| panic!("weak ms queue window not linearizable: {f:?}"));
    assert_pinned("ms_queue_weak", &report);

    // Plant armed: the link CAS is demoted to Relaxed. The dequeuer can
    // then observe the node through `head.next` and dereference a payload
    // it never synchronized with — a stale read through a *plain* field,
    // invisible to the atomics model, which is exactly what the
    // published-region race detector exists to catch.
    let _plant = arm(Fault::RelaxedLink);
    let ops = [vec![QueueOp::Enqueue(1)], vec![QueueOp::Dequeue]];
    let result = explore(
        QueueSpec::<u64>::default(),
        &weak_opts(true),
        &ops,
        setup,
        exec_queue,
    );
    let err = result.expect_err("weak explore missed the planted relaxed link");
    let (trace, message) = match *err {
        ExploreError::Panicked { trace, message } => (trace, message),
        other => panic!("expected the region-race panic, got {other:?}"),
    };
    assert!(
        message.contains("weak-memory race"),
        "unexpected panic message: {message}"
    );
    let line = trace.to_string();
    assert!(
        line.starts_with("cds-trace v3 "),
        "unexpected trace: {line}"
    );
    assert_eq!(line.parse::<Trace>().unwrap(), trace);
    // The panic-class ddmin. Both operations are load-bearing (no
    // enqueue, nothing unsynchronized to read; no dequeue, no deref), so
    // the window is its own minimum, and a copy padded with one more
    // operation per thread shrinks back to it. Each result still carries
    // a replayable trace and the same racy execution.
    let padded = [
        vec![QueueOp::Enqueue(2), QueueOp::Enqueue(1)],
        vec![QueueOp::Dequeue, QueueOp::Dequeue],
    ];
    for window in [&ops[..], &padded[..]] {
        let (min_ops, min_trace, min_message) =
            cds_lincheck::explore::shrink_panicking_window::<_, _, QueueRes<u64>, _, _>(
                &weak_opts(true),
                window,
                setup,
                exec_queue,
            )
            .expect("shrink lost the panicking window");
        assert_eq!(min_ops, ops, "{window:?} did not shrink to the 2-op core");
        assert!(min_message.contains("weak-memory race"));
        // Replaying the failing execution reproduces the identical race,
        // message and all.
        let (steps, reads) = match &min_trace {
            Trace::V3 { steps, reads, .. } => (steps.clone(), reads.clone()),
            other => panic!("expected a v3 trace, got {other:?}"),
        };
        match replay_schedule::<_, _, QueueRes<u64>, _, _>(
            &min_ops,
            &steps,
            &reads,
            &weak_opts(true),
            setup,
            exec_queue,
        ) {
            Err(cds_lincheck::explore::ReplayScheduleError::Panicked(msg)) => {
                assert_eq!(msg, min_message, "replayed race was not byte-identical");
            }
            other => panic!("expected the replay to reproduce the race, got {other:?}"),
        }
    }
}

#[test]
fn weak_two_lock_queue_window() {
    // The lock word is a facade atomic, so the model sees each lock's
    // Acquire CAS and Release unlock, and the cross-lock `next` link the
    // enqueuer stores and the dequeuer loads. Every reads-from choice of
    // every schedule must linearize. The head and tail pointers inside
    // the locks are plain data: the model runs their accesses but does
    // not give them weak values.
    // Every unlock ends in the parker's fence, which is dependent on
    // every step, so the full space runs past 100k schedules: like the
    // resizing-map window, this one pins a deterministic DFS prefix.
    let opts = ExploreOptions {
        max_executions: 10_000,
        ..weak_opts(true)
    };
    let ops = [
        vec![QueueOp::Enqueue(1), QueueOp::Dequeue],
        vec![QueueOp::Enqueue(2)],
    ];
    let report = explore(
        QueueSpec::<u64>::default(),
        &opts,
        &ops,
        cds_queue::TwoLockQueue::<u64>::new,
        exec_queue,
    )
    .unwrap_or_else(|f| panic!("weak two-lock queue window not linearizable: {f:?}"));
    assert_pinned_capped("two_lock_queue_weak", &report, &opts);
}

#[test]
fn weak_bounded_queue_window() {
    // Audit window — and the one that caught a real bug. The Vyukov
    // ring reads its cursors with deliberately Relaxed loads; only the
    // per-slot sequence stamps carry the hand-off. When this window was
    // first run, the empty verdict was taken from the stamp alone
    // (`d < 0 => return None`), and the DFS found in ~20 executions the
    // history [Enq(1)→true | Enq(2)→true | Deq→None | Deq→Some(1)]: a
    // dequeuer loses its claim CAS, moves to the next slot, reads that
    // slot's stamp *stale* (the producer only Release-stored it and
    // nothing synchronized the reader), and reports empty between two
    // completed enqueues — unobservable under SC scheduling, non-
    // linearizable under C11. The fix (SeqCst-corroborated empty/full
    // verdicts, crossbeam-ArrayQueue style) is what this window now
    // checks exhaustively: every residual stale read is either absorbed
    // by the protocol or waited out. The payload cells are plain memory
    // guarded by the stamps, not epoch pointers, so the region detector
    // has nothing to observe here; races stay on for uniformity with
    // the other weak windows.
    // Every op crosses the shared cursors several times, so almost no
    // pair of steps is independent and the full 4-op schedule space runs
    // to millions — like the resizing-map window, this one pins a
    // deterministic DFS *prefix* instead of exhausting. The original
    // counterexample surfaced within the first few dozen executions, so
    // the 50k-execution prefix retains the full regression-catching
    // power while keeping the suite fast.
    let opts = ExploreOptions {
        max_executions: 50_000,
        ..weak_opts(true)
    };
    let ops = [
        vec![TryQueueOp::Enq(1), TryQueueOp::Deq],
        vec![TryQueueOp::Enq(2), TryQueueOp::Deq],
    ];
    let report = explore(
        TryQueueSpec::with_capacity(2),
        &opts,
        &ops,
        || cds_queue::BoundedQueue::<u64>::with_capacity(2),
        exec_try_queue,
    )
    .unwrap_or_else(|f| panic!("weak bounded queue window not linearizable: {f:?}"));
    assert_pinned_capped("bounded_queue_weak", &report, &opts);
}

// ---------------------------------------------------------------------
// Resizing map: exhaustive window across a live migration, then the
// planted migration-gap regression. One test so the gap toggle can never
// perturb the untoggled window from a concurrently running test.
// ---------------------------------------------------------------------

/// Deterministic FNV-1a hasher: `RandomState` is seeded per process, and
/// an exhaustive window must explore the same schedules on every run.
#[derive(Clone, Default)]
struct FixedState;

struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl BuildHasher for FixedState {
    type Hasher = Fnv;
    fn build_hasher(&self) -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

/// One shard, one bucket, five entries: past the load factor, so the
/// successor table is installed and *every* key is still waiting to
/// migrate when the explored window starts.
fn map_mid_migration() -> cds_map::ResizingMap<u64, u64, FixedState> {
    use cds_core::ConcurrentMap;
    let m = cds_map::ResizingMap::with_config_and_hasher(1, 1, FixedState);
    for k in 0..5 {
        assert!(m.insert(k, k * 10));
    }
    assert_eq!(m.doublings(), 0, "setup must leave the migration pending");
    m
}

fn prefilled_spec() -> MapSpec<u64, u64> {
    MapSpec::prefilled((0..5).map(|k| (k, k * 10)))
}

#[test]
fn explore_resizing_map_migration_and_gap_regression() {
    // Exhaustive window, plant off: an insert that performs the pending
    // bucket migration races a lookup of an already-present key. Every
    // schedule must see the key in exactly one table.
    // The migration's lock-convoy branching makes the full space run to
    // millions of schedules, so this window is budget-capped: the pinned
    // count covers the (deterministic) first 20k executions.
    let map_opts = ExploreOptions {
        max_executions: 20_000,
        ..opts()
    };
    let ops = [vec![MapOp::Insert(5, 50)], vec![MapOp::Get(0)]];
    let report = explore(
        prefilled_spec(),
        &map_opts,
        &ops,
        map_mid_migration,
        exec_map,
    )
    .unwrap_or_else(|f| panic!("resizing map migration window not linearizable: {f:?}"));
    assert_pinned_capped("resizing_map_migration", &report, &map_opts);

    // The planted regression: the migrating thread publishes `migrated`
    // and drops the source lock before the entries reach the destination
    // buckets, so a lookup in the gap finds the key in *neither* table.
    let _plant = arm(Fault::MigrationGap);
    let ops = [vec![MapOp::Get(0)], vec![MapOp::Get(0)]];
    let spec = prefilled_spec();
    let result = explore(spec.clone(), &opts(), &ops, map_mid_migration, exec_map);
    let err = result.expect_err("explore missed the planted migration gap");
    let (trace, history, minimized) = match *err {
        ExploreError::NonLinearizable {
            trace,
            history,
            minimized,
        } => (trace, history, minimized),
        other => panic!("expected NonLinearizable, got {other:?}"),
    };
    assert!(!minimized.is_empty());
    assert!(!check_linearizable(spec.clone(), &minimized));
    // The shrunk core is the smoking gun itself: a lookup of a key the
    // map provably holds, returning "absent".
    assert!(minimized
        .iter()
        .all(|o| o.result == MapRes::Got(None) && o.op == MapOp::Get(0)));
    let steps = match &trace {
        Trace::V2 { steps, .. } => steps.clone(),
        other => panic!("expected a v2 trace, got {other:?}"),
    };
    assert_eq!(trace.to_string().parse::<Trace>().unwrap(), trace);
    let replayed = replay_schedule(&ops, &steps, &[], &opts(), map_mid_migration, exec_map)
        .expect("replay of the failing schedule diverged");
    assert_eq!(replayed, history, "replay was not byte-identical");
}

// ---------------------------------------------------------------------
// Split-ordered map: the element counter across insert(k) ‖ remove(k).
// ---------------------------------------------------------------------

/// `insert` links its node and only then counts it, so a `remove` of the
/// fresh node can count first. When the counter was unsigned that took
/// it to `usize::MAX`: `len` reported it, and the insert's own `+ 1`
/// overflowed (a panic in debug builds — the `maps_are_linearizable`
/// flake). The counter is signed and `len` clamps at zero now.
///
/// Two passes over the same window on an empty map. The sequentially
/// consistent one is exhaustive and reaches the link → count window
/// through the `yield_point` placed in it. The weak-memory one makes
/// every atomic access a scheduling point, so it reaches the window with
/// no hand-placed yield at all — it is the pass that fails on the code
/// as it stood before the fix, within its first hundred executions; its
/// full space is ~10⁵ executions, so it is budget-capped like the
/// resizing-map window. Neither count is pinned.
#[test]
fn explore_split_ordered_insert_remove_count_window() {
    type Map = cds_map::SplitOrderedHashMap<u64, u64, FixedState, cds_reclaim::Leak>;
    let setup = || Map::with_hasher(FixedState);
    let ops = [
        vec![MapOp::Insert(1, 10)],
        vec![MapOp::Remove(1), MapOp::Len],
    ];
    let weak_capped = ExploreOptions {
        max_executions: 2_000,
        ..weak_opts(false)
    };
    for (memory, options) in [("sc", opts()), ("weak", weak_capped)] {
        let report = explore(MapSpec::default(), &options, &ops, setup, exec_map)
            .unwrap_or_else(|f| panic!("split-ordered count window ({memory}): {f:?}"));
        assert!(
            report.schedules > 0 && report.stuck == 0,
            "{memory}: {report:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Channels: close/send and close/recv interleavings exhaustively, then
// the planted wake-before-publish close-path regression. The blocking
// `Recv` is safe in these windows because a receive that runs after (or
// concurrently with) `close` is guaranteed to complete: the close path
// force-unparks every waiter and a post-close receive never re-parks.
// ---------------------------------------------------------------------

fn exec_chan(ch: &cds_chan::Channel<u32>, op: &ChanOp) -> ChanRes {
    match op {
        ChanOp::Send(v) => match ch.send(*v) {
            Ok(()) => ChanRes::Sent,
            Err(cds_chan::SendError::Disconnected(_)) => ChanRes::Disconnected,
        },
        ChanOp::TrySend(v) => match ch.try_send(*v) {
            Ok(()) => ChanRes::Sent,
            Err(cds_chan::TrySendError::Full(_)) => ChanRes::Full,
            Err(cds_chan::TrySendError::Disconnected(_)) => ChanRes::Disconnected,
        },
        ChanOp::Recv => match ch.recv() {
            Ok(v) => ChanRes::Received(v),
            Err(cds_chan::RecvError::Closed) => ChanRes::Closed,
        },
        ChanOp::TryRecv => match ch.try_recv() {
            Ok(v) => ChanRes::Received(v),
            Err(cds_chan::TryRecvError::Empty) => ChanRes::Empty,
            Err(cds_chan::TryRecvError::Closed) => ChanRes::Closed,
        },
        ChanOp::Close => ChanRes::CloseDone(ch.close()),
    }
}

/// A send racing a close-then-drain: the send must either land before
/// the close linearizes (and then be drained before any `Closed`
/// answer) or come back `Disconnected` — no schedule may strand an
/// `Ok`-sent message or hand out a phantom one. This is exactly the
/// in-flight window the close protocol's `inflight` counter guards.
#[test]
fn explore_channel_send_close_window() {
    let ops = [vec![ChanOp::Send(1)], vec![ChanOp::Close, ChanOp::TryRecv]];
    let report = explore(
        ChannelSpec::unbounded(),
        &opts(),
        &ops,
        cds_chan::unbounded::<u32>,
        exec_chan,
    )
    .unwrap_or_else(|f| panic!("channel send/close window not linearizable: {f:?}"));
    assert_pinned("chan_send_close", &report);
}

/// A receiver that may genuinely park races a send-then-close: every
/// schedule must wake the receiver (publish-then-wake from the send, or
/// the close's force-unpark) and answer `Received(1)` or `Closed`
/// consistently with where the close linearized — a receiver asleep
/// through the close, or one that answers `Closed` with the message
/// still buffered, shows up here as a stuck or non-linearizable
/// schedule.
#[test]
fn explore_channel_recv_close_window() {
    let ops = [vec![ChanOp::Recv], vec![ChanOp::Send(1), ChanOp::Close]];
    let report = explore(
        ChannelSpec::unbounded(),
        &opts(),
        &ops,
        cds_chan::unbounded::<u32>,
        exec_chan,
    )
    .unwrap_or_else(|f| panic!("channel recv/close window not linearizable: {f:?}"));
    assert_pinned("chan_recv_close", &report);
}

/// The planted close-path regression: a receiver that saw (empty,
/// closed, `inflight == 0`) trusts the close wake and skips the final
/// drain dequeue, so a message published between its first dequeue and
/// the inflight read is stranded — `Recv` answers `Closed` while an
/// `Ok`-sent message sits in the buffer. `explore` must find that
/// deterministically (no seed anywhere), ddmin-shrink the window, and
/// replay its schedule byte-identically.
#[test]
fn explore_channel_planted_close_skips_final_drain() {
    let _plant = arm(Fault::CloseSkipsFinalDrain);
    let ops = [vec![ChanOp::Send(1)], vec![ChanOp::Close, ChanOp::TryRecv]];
    let spec = ChannelSpec::unbounded();
    let result = explore(
        spec.clone(),
        &ExploreOptions {
            on_stuck: OnStuck::Continue,
            ..opts()
        },
        &ops,
        cds_chan::unbounded::<u32>,
        exec_chan,
    );
    let err = result.expect_err("explore missed the planted close-path drain skip");
    let (trace, history, minimized) = match *err {
        ExploreError::NonLinearizable {
            trace,
            history,
            minimized,
        } => (trace, history, minimized),
        other => panic!("expected NonLinearizable, got {other:?}"),
    };
    // The ddmin shrink produced a smaller, still-failing core.
    assert!(!minimized.is_empty());
    assert!(minimized.len() <= history.len());
    assert!(!check_linearizable(spec.clone(), &minimized));
    // The trace is a v2 (explicit step list) line that round-trips.
    let line = trace.to_string();
    assert!(
        line.starts_with("cds-trace v2 "),
        "unexpected trace: {line}"
    );
    assert_eq!(line.parse::<Trace>().unwrap(), trace);
    // And replaying it reproduces the identical history, byte for byte.
    let steps = match &trace {
        Trace::V2 { steps, .. } => steps.clone(),
        other => panic!("expected a v2 trace, got {other:?}"),
    };
    let replayed = replay_schedule(
        &ops,
        &steps,
        &[],
        &opts(),
        cds_chan::unbounded::<u32>,
        exec_chan,
    )
    .expect("replay of the failing schedule diverged");
    assert_eq!(replayed, history, "replay was not byte-identical");
}

// ---------------------------------------------------------------------
// Eventcount (executor parker): the prepare/re-check/commit protocol
// under both systematic exploration and the PCT stress scheduler.
// ---------------------------------------------------------------------

#[test]
fn explore_eventcount_window_and_pct() {
    let ops = [
        vec![EventcountOp::Signal],
        vec![EventcountOp::Await, EventcountOp::Await],
    ];
    let report = explore(
        EventcountSpec::default(),
        &opts(),
        &ops,
        Gate::default,
        exec_gate,
    )
    .unwrap_or_else(|f| panic!("eventcount window not linearizable: {f:?}"));
    assert_pinned("eventcount", &report);

    // The same protocol under the PCT sampler: the coverage the rest of
    // the suite was missing (the parker had no lincheck spec at all).
    stress(
        EventcountSpec::default(),
        &StressOptions {
            seed: 0xec0,
            rounds: 8,
            ..StressOptions::default()
        },
        Gate::default,
        |rng, t| {
            if t == 0 && rng.below(2) == 0 {
                EventcountOp::Signal
            } else {
                EventcountOp::Await
            }
        },
        exec_gate,
    )
    .unwrap_or_else(|f| panic!("eventcount not linearizable under PCT: {f:?}"));
}
