//! Cross-backend lincheck matrix: every lock-free structure instantiated
//! under every reclamation backend — epoch-based ([`cds_reclaim::Ebr`]),
//! hazard pointers ([`cds_reclaim::Hazard`]), the leaking floor
//! ([`cds_reclaim::Leak`]), and the use-after-retire checker
//! ([`cds_reclaim::DebugReclaim`]) — and run through the deterministic
//! scheduled-stress harness with pinned seeds.
//!
//! Two distinct properties ride on one run. Linearizability of each
//! recorded window proves the *algorithm* is backend-independent (the
//! `Reclaimer` abstraction did not change behavior). `DebugReclaim`
//! checks the *retire discipline* at two points only: a second retire of
//! one node, and a `protect`/`protect_ptr` of a node retired before the
//! protecting guard began. Either panics with both thread ids, which the
//! harness reports with the round seed for replay. `HarrisMichaelList`,
//! `SplitOrderedHashMap`, `LockFreeSkipList`, `LockFreeBst` and
//! `ResizingMap` call neither `protect` nor `protect_ptr`, so their
//! `DebugReclaim` cells check for double retire only.
//!
//! These tests build with the `stress` feature live, so every
//! `cds_atomic::stress::yield_point()` in the structures is a real
//! PCT-style preemption point; failures print a round seed that
//! `cds_lincheck::stress::replay` (or `CDS_STRESS_SEED=<seed>`)
//! reproduces deterministically.
//!
//! `DebugReclaim`'s quarantine is process-wide, so its cells take the
//! [`serial`] lock: the bucket-array test's `retired_backlog() == 0` audit
//! would otherwise count a sibling cell's not-yet-collected nodes.

mod common;

use std::collections::hash_map::RandomState;
use std::collections::HashSet;

use cds_core::ConcurrentSet;
use cds_lincheck::specs::{
    ChanOp, ChanRes, ChannelSpec, MapOp, MapSpec, QueueSpec, SetSpec, StackSpec,
};
use cds_lincheck::stress::{stress, StressOptions};
use cds_queue::Steal;
use cds_reclaim::{DebugReclaim, Ebr, Hazard, Leak, Reclaimer};
use common::{exec_map, exec_queue, exec_set, exec_stack, gen_queue, gen_set, gen_stack, serial};

/// Eight rounds from one pinned seed per (structure, backend) cell, so
/// every cell of the matrix replays independently.
fn cell_opts<R: Reclaimer>(base: u64) -> StressOptions {
    let backend_tag = R::NAME
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
    StressOptions {
        rounds: 8,
        ..common::opts(base ^ (backend_tag << 16))
    }
}

fn stress_stack_on<R: Reclaimer>(base: u64) {
    stress(
        StackSpec::<u64>::default(),
        &cell_opts::<R>(base),
        cds_stack::TreiberStack::<u64, R>::with_reclaimer,
        gen_stack,
        exec_stack,
    )
    .unwrap_or_else(|f| panic!("treiber stack under {} not linearizable: {f:?}", R::NAME));
}

fn stress_queue_on<R: Reclaimer>(base: u64) {
    stress(
        QueueSpec::<u64>::default(),
        &cell_opts::<R>(base),
        cds_queue::MsQueue::<u64, R>::with_reclaimer,
        gen_queue,
        exec_queue,
    )
    .unwrap_or_else(|f| panic!("ms queue under {} not linearizable: {f:?}", R::NAME));
}

fn stress_set_on<S, R>(base: u64, setup: fn() -> S, what: &str)
where
    S: ConcurrentSet<u64> + Sync,
    R: Reclaimer,
{
    stress(
        SetSpec::<u64>::default(),
        &cell_opts::<R>(base),
        setup,
        gen_set,
        exec_set,
    )
    .unwrap_or_else(|f| panic!("{what} under {} not linearizable: {f:?}", R::NAME));
}

fn stress_map_on<R: Reclaimer>(base: u64) {
    stress(
        MapSpec::<u64, u64>::default(),
        &cell_opts::<R>(base),
        cds_map::SplitOrderedHashMap::<u64, u64, RandomState, R>::with_reclaimer,
        |rng, _t| {
            let k = rng.below(3);
            match rng.below(3) {
                0 => MapOp::Insert(k, rng.below(100)),
                1 => MapOp::Remove(k),
                _ => MapOp::Get(k),
            }
        },
        // `Len` is not generated: the split-ordered map's len is only
        // quiescently consistent.
        exec_map,
    )
    .unwrap_or_else(|f| {
        panic!(
            "split-ordered map under {} not linearizable: {f:?}",
            R::NAME
        )
    });
}

/// ResizingMap cell: tiny geometry (one shard, one initial bucket) so the
/// cooperative migration protocol — install, helping, promotion, and the
/// **retire of the old bucket array** through `R`'s guard — all run inside
/// every 48-op window, under every backend. The generator exercises the
/// two resize-boundary operations (`contains_key`, `len`) alongside the
/// usual insert/remove/get mix.
fn stress_resizing_map_on<R: Reclaimer>(base: u64) {
    stress(
        MapSpec::<u64, u64>::default(),
        &StressOptions {
            ops_per_thread: 16, // enough inserts per window to force doublings
            ..cell_opts::<R>(base)
        },
        || cds_map::ResizingMap::<u64, u64, RandomState, R>::with_config(1, 1),
        |rng, _t| {
            let k = rng.below(12);
            match rng.below(8) {
                0..=3 => MapOp::Insert(k, rng.below(100)),
                4 => MapOp::Remove(k),
                5 => MapOp::ContainsKey(k),
                6 => MapOp::Len,
                _ => MapOp::Get(k),
            }
        },
        exec_map,
    )
    .unwrap_or_else(|f| panic!("resizing map under {} not linearizable: {f:?}", R::NAME));
}

/// Channel cells: the spec result an operation maps to. Shared by both
/// channel rows.
fn chan_exec<R: Reclaimer>(ch: &cds_chan::Channel<u32, R>, op: &ChanOp) -> ChanRes {
    match op {
        // Unbounded sends never park, so the blocking API is safe in a
        // generated stream there; bounded rows generate `TrySend` only.
        ChanOp::Send(v) => match ch.send(*v) {
            Ok(()) => ChanRes::Sent,
            Err(cds_chan::SendError::Disconnected(_)) => ChanRes::Disconnected,
        },
        ChanOp::TrySend(v) => match ch.try_send(*v) {
            Ok(()) => ChanRes::Sent,
            Err(cds_chan::TrySendError::Full(_)) => ChanRes::Full,
            Err(cds_chan::TrySendError::Disconnected(_)) => ChanRes::Disconnected,
        },
        // Blocking `Recv` can park until close and is never generated in
        // these symmetric streams (a window where every thread draws it
        // would hang); the exploration windows in tests/explore.rs cover
        // it deterministically.
        ChanOp::Recv => unreachable!("blocking recv is not generated in matrix streams"),
        ChanOp::TryRecv => match ch.try_recv() {
            Ok(v) => ChanRes::Received(v),
            Err(cds_chan::TryRecvError::Empty) => ChanRes::Empty,
            Err(cds_chan::TryRecvError::Closed) => ChanRes::Closed,
        },
        ChanOp::Close => ChanRes::CloseDone(ch.close()),
    }
}

/// Bounded-channel cell: a 2-slot ring so `Full` results are real, with
/// close mixed into every stream so windows straddle the two-phase close
/// (disconnected sends racing drain-then-`Closed` receives).
fn stress_chan_bounded_on<R: Reclaimer>(base: u64) {
    stress(
        ChannelSpec::bounded(2),
        &cell_opts::<R>(base),
        || cds_chan::Channel::<u32, R>::bounded_with_reclaimer(2),
        |rng, t| match rng.below(8) {
            0..=2 => ChanOp::TrySend(((t as u32) << 8) | rng.below(16) as u32),
            3..=5 => ChanOp::TryRecv,
            6 => ChanOp::Close,
            _ => ChanOp::TryRecv,
        },
        chan_exec::<R>,
    )
    .unwrap_or_else(|f| panic!("bounded channel under {} not linearizable: {f:?}", R::NAME));
}

/// Unbounded-channel cell: blocking `Send` (which never parks on the
/// Michael–Scott buffer) races `TryRecv` and `Close`, exercising the
/// in-flight send window against the close path under every backend.
fn stress_chan_unbounded_on<R: Reclaimer>(base: u64) {
    stress(
        ChannelSpec::unbounded(),
        &cell_opts::<R>(base),
        cds_chan::Channel::<u32, R>::unbounded_with_reclaimer,
        |rng, t| match rng.below(8) {
            0..=2 => ChanOp::Send(((t as u32) << 8) | rng.below(16) as u32),
            3..=5 => ChanOp::TryRecv,
            6 => ChanOp::Close,
            _ => ChanOp::TryRecv,
        },
        chan_exec::<R>,
    )
    .unwrap_or_else(|f| {
        panic!(
            "unbounded channel under {} not linearizable: {f:?}",
            R::NAME
        )
    });
}

/// The Chase–Lev deque has an owner-only `push`/`pop` API, so it cannot go
/// through the symmetric-workers lincheck harness. Instead: one owner
/// pushes a known value set and pops, stealers race `steal`, and every
/// value must surface exactly once — no loss, no duplication, no invented
/// values — deterministically seeded per backend.
fn chase_lev_on<R: Reclaimer>(base: u64) {
    const STEALERS: u64 = 3;
    const PUSHES: u64 = 2_000;
    let seed = cell_opts::<R>(base).seed;
    let (worker, stealer) = cds_queue::ChaseLevDeque::<u64, R>::with_reclaimer();
    let mut popped: Vec<u64> = Vec::new();
    let mut stolen: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..STEALERS)
            .map(|_t| {
                let stealer = stealer.clone();
                scope.spawn(move || {
                    let mut got = Vec::new();
                    let mut spins = 0u32;
                    loop {
                        match stealer.steal() {
                            Steal::Success(v) => {
                                got.push(v);
                                spins = 0;
                            }
                            Steal::Retry => {}
                            Steal::Empty => {
                                spins += 1;
                                // Owner signals completion via a sentinel
                                // count: quit after sustained emptiness.
                                if spins > 10_000 {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                    got
                })
            })
            .collect();

        let mut rng = cds_atomic::stress::SplitMix64::new(seed);
        for i in 0..PUSHES {
            worker.push(i);
            // Seeded interleaving: sometimes pop from the owner side so
            // both ends of the deque (and the buffer-growth path) churn.
            if rng.below(3) == 0 {
                if let Some(v) = worker.pop() {
                    popped.push(v);
                }
            }
        }
        while let Some(v) = worker.pop() {
            popped.push(v);
        }
        for h in handles {
            stolen.push(h.join().unwrap());
        }
    });

    let mut seen: HashSet<u64> = HashSet::new();
    for v in popped.iter().chain(stolen.iter().flatten()) {
        assert!(*v < PUSHES, "invented value {v} under {}", R::NAME);
        assert!(seen.insert(*v), "duplicate value {v} under {}", R::NAME);
    }
    assert_eq!(seen.len() as u64, PUSHES, "lost values under {}", R::NAME);
}

#[test]
fn treiber_stack_under_every_backend() {
    stress_stack_on::<Ebr>(0x3a7a1c0);
    stress_stack_on::<Hazard>(0x3a7a1c0);
    stress_stack_on::<Leak>(0x3a7a1c0);
    let _g = serial();
    stress_stack_on::<DebugReclaim>(0x3a7a1c0);
}

#[test]
fn ms_queue_under_every_backend() {
    stress_queue_on::<Ebr>(0x3a7a1c1);
    stress_queue_on::<Hazard>(0x3a7a1c1);
    stress_queue_on::<Leak>(0x3a7a1c1);
    let _g = serial();
    stress_queue_on::<DebugReclaim>(0x3a7a1c1);
}

#[test]
fn harris_michael_list_under_every_backend() {
    fn one<R: Reclaimer>() {
        stress_set_on::<_, R>(
            0x3a7a1c2,
            cds_list::HarrisMichaelList::<u64, R>::with_reclaimer,
            "harris-michael list",
        );
    }
    one::<Ebr>();
    one::<Hazard>();
    one::<Leak>();
    let _g = serial();
    one::<DebugReclaim>();
}

#[test]
fn split_ordered_map_under_every_backend() {
    stress_map_on::<Ebr>(0x3a7a1c3);
    stress_map_on::<Hazard>(0x3a7a1c3);
    stress_map_on::<Leak>(0x3a7a1c3);
    let _g = serial();
    stress_map_on::<DebugReclaim>(0x3a7a1c3);
}

#[test]
fn lock_free_skiplist_under_every_backend() {
    fn one<R: Reclaimer>() {
        stress_set_on::<_, R>(
            0x3a7a1c4,
            cds_skiplist::LockFreeSkipList::<u64, R>::with_reclaimer,
            "lock-free skiplist",
        );
    }
    one::<Ebr>();
    one::<Hazard>();
    one::<Leak>();
    let _g = serial();
    one::<DebugReclaim>();
}

#[test]
fn ellen_bst_under_every_backend() {
    fn one<R: Reclaimer>() {
        stress_set_on::<_, R>(
            0x3a7a1c5,
            cds_tree::LockFreeBst::<u64, R>::with_reclaimer,
            "ellen bst",
        );
    }
    one::<Ebr>();
    one::<Hazard>();
    one::<Leak>();
    let _g = serial();
    one::<DebugReclaim>();
}

#[test]
fn chase_lev_deque_under_every_backend() {
    chase_lev_on::<Ebr>(0x3a7a1c6);
    chase_lev_on::<Hazard>(0x3a7a1c6);
    chase_lev_on::<Leak>(0x3a7a1c6);
    let _g = serial();
    chase_lev_on::<DebugReclaim>(0x3a7a1c6);
}

#[test]
fn resizing_map_under_every_backend() {
    stress_resizing_map_on::<Ebr>(0x3a7a1c7);
    stress_resizing_map_on::<Hazard>(0x3a7a1c7);
    stress_resizing_map_on::<Leak>(0x3a7a1c7);
    let _g = serial();
    stress_resizing_map_on::<DebugReclaim>(0x3a7a1c7);
}

#[test]
fn bounded_channel_under_every_backend() {
    stress_chan_bounded_on::<Ebr>(0x3a7a1c8);
    stress_chan_bounded_on::<Hazard>(0x3a7a1c8);
    stress_chan_bounded_on::<Leak>(0x3a7a1c8);
    let _g = serial();
    stress_chan_bounded_on::<DebugReclaim>(0x3a7a1c8);
}

#[test]
fn unbounded_channel_under_every_backend() {
    stress_chan_unbounded_on::<Ebr>(0x3a7a1c9);
    stress_chan_unbounded_on::<Hazard>(0x3a7a1c9);
    stress_chan_unbounded_on::<Leak>(0x3a7a1c9);
    let _g = serial();
    stress_chan_unbounded_on::<DebugReclaim>(0x3a7a1c9);
}

/// Plants the resize bug the retire contract exists to rule out — keeping
/// a raw pointer to a **bucket array** across the promotion that retires
/// it — and proves `DebugReclaim` catches it and the prop harness shrinks
/// the script to its `[Grow, StaleScan]` core with a replayable seed.
///
/// This is the array-granularity analogue of the node-level regression in
/// `tests/schedules.rs`: here the retired object is a whole `Table` (a
/// boxed slice of buckets), exactly what `ResizingMap` hands to
/// `ReclaimGuard::retire` at promotion.
#[test]
fn debug_reclaim_catches_use_after_retire_of_old_bucket_array() {
    use cds_atomic::Ordering;
    use cds_lincheck::prop::{forall_vec, Config, Prng};
    use cds_reclaim::epoch::{Atomic, Owned, Shared};
    use cds_reclaim::{DebugGuard, ReclaimGuard};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let _g = serial();

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Grow,
        StaleScan,
    }

    /// A bucket array like the one `ResizingMap` retires at promotion.
    struct Table {
        buckets: Box<[Vec<(u64, u64)>]>,
    }

    impl Table {
        fn sized(n: usize) -> Table {
            Table {
                buckets: (0..n).map(|_| vec![(7, 7)]).collect(),
            }
        }
    }

    /// The planted bug: `scan_start` is captured at construction and
    /// never re-read, so after one `grow` (which swaps in a doubled table
    /// and retires the old array) the scan walks a retired bucket array
    /// under a guard that began *after* the retire.
    struct BuggyResizer {
        current: Atomic<Table>,
        scan_start: *mut Table,
        /// Entered before every retire so the poison record survives in
        /// quarantine for the checker to trip on (same idiom as the
        /// node-level regression).
        _keepalive: DebugGuard,
    }

    impl BuggyResizer {
        fn new() -> Self {
            let keepalive = DebugReclaim::enter();
            let current = Atomic::new(Table::sized(1));
            let scan_start = current.load_raw(Ordering::Relaxed);
            BuggyResizer {
                current,
                scan_start,
                _keepalive: keepalive,
            }
        }

        fn grow(&self) {
            let guard = DebugReclaim::enter_blanket();
            let old = self.current.load(Ordering::Acquire, &guard);
            // SAFETY: protected by the blanket guard.
            let doubled = Table::sized(unsafe { old.deref() }.buckets.len() * 2);
            let fresh = Owned::new(doubled).into_shared(&guard);
            self.current.store(fresh, Ordering::Release);
            // SAFETY: unlinked by the store above; retired exactly once.
            unsafe { guard.retire(old) };
        }

        fn stale_scan(&self) -> usize {
            let guard = DebugReclaim::enter_blanket();
            // BUG: protects the construction-time array without re-reading
            // `current`. DebugReclaim panics here once `grow` has retired
            // that array before this guard began.
            let p = guard.protect_ptr(0, Shared::from_raw(self.scan_start));
            // SAFETY: only reached while the array was never retired (the
            // checker panics above otherwise).
            unsafe { p.deref() }.buckets.iter().map(Vec::len).sum()
        }
    }

    impl Drop for BuggyResizer {
        fn drop(&mut self) {
            let p = self.current.load_raw(Ordering::Relaxed);
            // SAFETY: the current table was never retired; the test owns
            // the structure exclusively here.
            unsafe { drop(Box::from_raw(p)) };
        }
    }

    let config = Config {
        cases: 64,
        seed: 0xdeb0a44a1, // pinned: the report below must be reproducible
        max_len: 12,
    };
    let gen = |rng: &mut Prng| {
        if rng.below(2) == 0 {
            Op::Grow
        } else {
            Op::StaleScan
        }
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        forall_vec(&config, gen, |script: &[Op]| {
            let r = BuggyResizer::new();
            for op in script {
                match op {
                    Op::Grow => r.grow(),
                    Op::StaleScan => {
                        r.stale_scan();
                    }
                }
            }
        });
    }))
    .expect_err("the planted bucket-array use-after-retire must be caught");

    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("use-after-retire"),
        "wrong failure kind: {msg}"
    );
    assert!(
        msg.contains("minimized to 2 elems"),
        "shrinker did not reach the [Grow, StaleScan] core: {msg}"
    );
    assert!(
        msg.contains("CDS_PROP_SEED"),
        "missing the replay hint: {msg}"
    );

    // Drain the quarantined tables now that every guard is gone so later
    // tests see a clean registry.
    DebugReclaim::collect();
    assert_eq!(DebugReclaim::retired_backlog(), 0);
}
