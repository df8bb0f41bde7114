//! Deterministic scheduled runs of the `cds-exec` work-stealing pool.
//!
//! Built with the root crate's self-dev-dependency (`stress` +
//! `telemetry`), so the pool's yield points are real PCT preemption
//! points and the `cds-obs` counters are live. The recipe for a
//! scheduled pool run (see `Executor`'s type docs):
//!
//! 1. install the scheduler, register the driving thread at an index
//!    `>= threads` (the workers take `0..threads`);
//! 2. construct the pool — its internal start barrier returns only after
//!    every worker has registered;
//! 3. drive the workload and `quiesce`;
//! 4. snapshot telemetry *before* shutdown, drop the driver's slot
//!    *before* `shutdown` (joining blocks in the kernel), then drop the
//!    run.
//!
//! The counters are global and the driver registers a fixed scheduler
//! index, so every test takes the [`serial`] lock (installs must not
//! overlap, and one test's scheduled run must not land inside another's
//! baseline/delta window) and measures through snapshot pairs.

mod common;

use cds_atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cds_core::stress as sched;
use cds_core::stress::StressConfig;
use cds_exec::{ExecConfig, Executor};
use cds_obs::{Event, Snapshot};
use cds_reclaim::{DebugReclaim, Ebr, Hazard, Leak, Reclaimer};
use common::serial;

const THREADS: usize = 3;

/// Runs `body` against a fresh pool under a pinned-seed schedule and
/// returns the telemetry delta of the whole run (construction through
/// quiesce) plus the pool's own `(spawned, executed)` pair at quiesce.
fn run_scheduled<R: Reclaimer>(
    seed: u64,
    injector_capacity: usize,
    body: impl FnOnce(&Executor<R>),
) -> (Snapshot, u64, u64) {
    let run = sched::install(StressConfig {
        seed,
        change_period: 3,
    });
    let slot = sched::register(THREADS);
    let base = Snapshot::take();
    let pool = Executor::<R>::with_config(ExecConfig {
        threads: THREADS,
        seed,
        injector_capacity,
    });
    body(&pool);
    pool.quiesce();
    let delta = Snapshot::take().delta(&base);
    let (spawned, executed) = (pool.spawned(), pool.executed());
    drop(slot);
    pool.shutdown();
    drop(run);
    (delta, spawned, executed)
}

/// Fork/join conservation on every reclamation backend: 4 root tasks
/// each spawn 3 children from inside the pool (exercising the local-deque
/// fast path), and at quiesce every spawn — transitive ones included —
/// has executed exactly once.
#[test]
fn scheduled_fork_join_conserves_on_every_backend() {
    let _guard = serial();

    fn case<R: Reclaimer>(seed: u64) {
        const ROOTS: u64 = 4;
        const CHILDREN: u64 = 3;
        let hits = Arc::new(AtomicU64::new(0));
        let (delta, spawned, executed) = run_scheduled::<R>(seed, 8, |pool| {
            for _ in 0..ROOTS {
                let handle = pool.handle();
                let hits = Arc::clone(&hits);
                pool.spawn(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                    for _ in 0..CHILDREN {
                        let hits = Arc::clone(&hits);
                        handle.spawn(move || {
                            hits.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        let total = ROOTS * (1 + CHILDREN);
        assert_eq!(hits.load(Ordering::SeqCst), total, "{}", R::NAME);
        assert_eq!((spawned, executed), (total, total), "{}", R::NAME);
        if cds_obs::enabled() {
            assert_eq!(delta.get(Event::ExecTasksSpawned), total, "{}", R::NAME);
            assert_eq!(delta.get(Event::ExecTasksExecuted), total, "{}", R::NAME);
        }
    }

    case::<Ebr>(0xe8ec0);
    case::<Hazard>(0xe8ec1);
    case::<Leak>(0xe8ec2);
    case::<DebugReclaim>(0xe8ec3);
}

/// A capacity-1 injector request (rounded up to the 2-slot minimum —
/// this very test caught the capacity-1 ring losing a task mid-read,
/// see `BoundedQueue::with_capacity`) forces the overflow path under
/// schedule: spawns still never block, nothing is lost, and when
/// telemetry is live the overflow counter proves the path actually ran.
#[test]
fn scheduled_tiny_injector_overflows_without_loss() {
    let _guard = serial();

    const TASKS: u64 = 32;
    let hits = Arc::new(AtomicU64::new(0));
    let (delta, spawned, executed) = run_scheduled::<Ebr>(0x0f10, 1, |pool| {
        for _ in 0..TASKS {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(hits.load(Ordering::SeqCst), TASKS);
    assert_eq!((spawned, executed), (TASKS, TASKS));
    if cds_obs::enabled() {
        assert_eq!(delta.get(Event::ExecTasksSpawned), TASKS);
        assert_eq!(delta.get(Event::ExecTasksExecuted), TASKS);
        assert!(
            delta.get(Event::ExecInjectorOverflow) > 0,
            "32 spawns against a 2-slot injector never overflowed"
        );
    }
}

/// Replayability: two runs with the same schedule seed, pool seed, and
/// workload must produce byte-identical executor telemetry — down to the
/// steal hit/miss and park counts, which are pure functions of the
/// schedule. A divergence means some pool decision escaped the seeded
/// scheduler (the E13 experiment and every seeded regression above rely
/// on this property).
#[test]
fn scheduled_same_seed_gives_identical_steal_deltas() {
    let _guard = serial();

    fn workload(pool: &Executor<Ebr>) {
        for i in 0..12u64 {
            let handle = pool.handle();
            pool.spawn(move || {
                if i % 3 == 0 {
                    handle.spawn(move || {
                        std::hint::black_box(i);
                    });
                }
            });
        }
    }

    const SEED: u64 = 0xdece1;
    let (d1, s1, e1) = run_scheduled::<Ebr>(SEED, 4, workload);
    let (d2, s2, e2) = run_scheduled::<Ebr>(SEED, 4, workload);
    assert_eq!((s1, e1), (s2, e2));
    common::assert_same_counts(
        SEED,
        &[
            Event::ExecTasksSpawned,
            Event::ExecTasksExecuted,
            Event::ExecStealHit,
            Event::ExecStealMiss,
            Event::ExecParks,
            Event::ExecInjectorOverflow,
            Event::DequeStealBatchElems,
            Event::DequeStealBatchMax,
        ],
        &d1,
        &d2,
    );
}
