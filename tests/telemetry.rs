//! Metric-conservation tests for the `cds-obs` telemetry layer.
//!
//! The root crate's self-dev-dependency compiles these tests with both
//! `stress` (deterministic PCT scheduling) and `telemetry` (live
//! counters), so the assertions run against real counts; in a build
//! without the feature the same counters compile to no-ops and
//! `cds_obs::enabled()` gates every non-trivial expectation, keeping the
//! suite green in both configurations.
//!
//! The counters are global and monotonic and the test harness runs test
//! functions on parallel threads, so every test takes the [`serial`]
//! lock and measures through baseline/delta snapshot pairs; assertions
//! about absolute totals use the monotonic snapshot directly.

mod common;

use cds_lincheck::specs::{MapOp, MapSpec, StackSpec};
use cds_lincheck::stress::{stress, StressOptions};
use cds_obs::{Event, Snapshot};
use cds_reclaim::{DebugReclaim, Leak, Reclaimer};
use common::{exec_map, exec_stack, gen_stack, serial};

/// Four rounds per churn: conservation must hold for any schedule, so a
/// short run per backend is enough.
fn opts(seed: u64) -> StressOptions {
    StressOptions {
        rounds: 4,
        ..common::opts(seed)
    }
}

/// One scheduled churn of a Treiber stack instantiated against `R`.
fn stack_churn<R: Reclaimer>(seed: u64) {
    stress(
        StackSpec::<u64>::default(),
        &opts(seed),
        cds_stack::TreiberStack::<u64, R>::with_reclaimer,
        gen_stack,
        exec_stack,
    )
    .unwrap_or_else(|f| panic!("treiber/{} not linearizable: {f:?}", R::NAME));
}

/// One scheduled insert-heavy churn of a resizing map born at the
/// smallest geometry (one shard, one bucket), so a handful of distinct
/// inserts forces doublings — and therefore bucket migrations — inside
/// the bounded lincheck window.
fn resize_churn<R: Reclaimer>(seed: u64) {
    let o = StressOptions {
        threads: 3,
        ops_per_thread: 20,
        rounds: 2,
        ..opts(seed)
    };
    stress(
        MapSpec::<u64, u64>::default(),
        &o,
        || cds_map::ResizingMap::<u64, u64, std::hash::RandomState, R>::with_config(1, 1),
        |rng, t| {
            // Mostly-distinct keys: growth needs resident entries, not
            // overwrites of the same few slots.
            let k = (t as u64) << 8 | rng.below(32);
            if rng.below(4) == 0 {
                MapOp::Get(k)
            } else {
                MapOp::Insert(k, rng.below(100))
            }
        },
        exec_map,
    )
    .unwrap_or_else(|f| panic!("resizing/{} not linearizable: {f:?}", R::NAME));
}

/// One scheduled insert/remove churn of a split-ordered map on `R`. Its
/// link, mark and unlink CASes are the shared `cds_list::hm` ones; they,
/// its segment CAS and its bucket-shortcut CAS are all epoch `Atomic`
/// CASes, so all of them are counted.
fn split_ordered_churn<R: Reclaimer>(seed: u64) {
    stress(
        MapSpec::<u64, u64>::default(),
        &opts(seed),
        cds_map::SplitOrderedHashMap::<u64, u64, std::hash::RandomState, R>::with_reclaimer,
        |rng, _t| {
            let k = rng.below(4);
            if rng.below(2) == 0 {
                MapOp::Insert(k, rng.below(100))
            } else {
                MapOp::Remove(k)
            }
        },
        exec_map,
    )
    .unwrap_or_else(|f| panic!("split-ordered/{} not linearizable: {f:?}", R::NAME));
}

/// `cas_success + cas_failure == cas_attempts`, per backend. The
/// invariant holds by construction: every compare-exchange on an epoch
/// `Atomic` records its attempt and outcome together, inside
/// `Atomic::compare_exchange`, and nothing else records either, so a
/// violation means a count was added outside that one seam.
#[test]
fn cas_counts_are_conserved_under_every_backend() {
    fn conserved(seed: u64, churn: fn(u64)) {
        let base = Snapshot::take();
        churn(seed);
        let d = Snapshot::take().delta(&base);
        assert_eq!(
            d.get(Event::CasSuccess) + d.get(Event::CasFailure),
            d.get(Event::CasAttempt),
            "CAS outcome counts not conserved (seed {seed:#x})"
        );
        if cds_obs::enabled() {
            assert!(
                d.get(Event::CasSuccess) > 0,
                "a scheduled churn must commit at least one CAS (seed {seed:#x})"
            );
        }
    }
    fn stack<R: Reclaimer>(seed: u64) {
        conserved(seed, stack_churn::<R>);
    }
    fn split_ordered<R: Reclaimer>(seed: u64) {
        conserved(seed, split_ordered_churn::<R>);
    }
    let _g = serial();
    backends!(stack, 0xca50);
    backends!(split_ordered, 0xca54);
}

/// Every elimination transfers one value from one push to one pop, so at
/// quiescence the hit counters pair exactly and each side's hits are
/// bounded by its operation count.
#[test]
fn elimination_hits_pair_and_are_bounded_by_op_counts() {
    let _g = serial();
    let base = Snapshot::take();
    stress(
        StackSpec::<u64>::default(),
        &opts(0xe71),
        // A small array and generous spin budget make collisions likely
        // under the scheduler, though hits are not guaranteed — only the
        // inequalities below are invariants.
        || cds_stack::EliminationBackoffStack::<u64>::with_params(2, 64),
        gen_stack,
        exec_stack,
    )
    .unwrap_or_else(|f| panic!("elimination stack not linearizable: {f:?}"));
    let d = Snapshot::take().delta(&base);
    assert_eq!(
        d.get(Event::ElimHitPush),
        d.get(Event::ElimHitPop),
        "an elimination must pair exactly one push with one pop"
    );
    assert!(d.get(Event::ElimHitPush) <= d.get(Event::ElimPush));
    assert!(d.get(Event::ElimHitPop) <= d.get(Event::ElimPop));
    if cds_obs::enabled() {
        assert!(
            d.get(Event::ElimPush) > 0 && d.get(Event::ElimPop) > 0,
            "scheduled churn recorded no elimination-stack operations"
        );
    }
}

/// `buckets_moved == Σ batch sizes`: `migrate_bucket` counts each actual
/// move, while `help_migrate` adds each claimed range's size to the
/// batch-ops counter — a cross-call-site check that every claimed bucket
/// moved exactly once, exercised under all four backends.
#[test]
fn buckets_moved_equals_sum_of_batch_sizes_under_every_backend() {
    fn balanced<R: Reclaimer>(seed: u64) {
        let base = Snapshot::take();
        resize_churn::<R>(seed);
        let d = Snapshot::take().delta(&base);
        assert_eq!(
            d.get(Event::ResizeBucketsMoved),
            d.get(Event::ResizeBatchOps),
            "migration batch accounting leaked a bucket (seed {seed:#x})"
        );
        if cds_obs::enabled() {
            assert!(
                d.get(Event::ResizeBucketsMoved) > 0,
                "a (1,1)-geometry map under insert churn must migrate (seed {seed:#x})"
            );
            assert!(
                d.get(Event::ResizePromoterWins) > 0,
                "a completed migration must promote its next table (seed {seed:#x})"
            );
        }
    }
    let _g = serial();
    backends!(balanced, 0xb0c0);
}

/// The reclamation ledger never frees what was not retired: checked on
/// the absolute (monotonic) counters after churning every backend, since
/// a delta window could legitimately free garbage retired before its
/// baseline.
#[test]
fn frees_never_exceed_retires() {
    let _g = serial();
    backends!(stack_churn, 0xf4ee0);
    DebugReclaim::collect();
    let s = Snapshot::take();
    assert!(s.get(Event::FreedEbr) <= s.get(Event::RetiredEbr));
    assert!(s.get(Event::FreedHazard) <= s.get(Event::RetiredHazard));
    assert!(s.get(Event::FreedDebug) <= s.get(Event::RetiredDebug));
    if cds_obs::enabled() {
        for (event, name) in [
            (Event::RetiredEbr, "ebr"),
            (Event::RetiredHazard, "hazard"),
            (Event::RetiredLeak, "leak"),
            (Event::RetiredDebug, "debug"),
        ] {
            assert!(
                s.get(event) > 0,
                "churn through the {name} backend retired nothing"
            );
        }
    }
}

/// Two runs from the same pinned seed must produce identical counter
/// deltas — the schedule, the op streams, and therefore every count are
/// deterministic, for a two-op-deep window and a 24-op one alike, with two
/// unregistered threads keeping the host's cores busy beside the round.
/// The leak backend keeps background reclamation cadence out of the
/// counts.
#[test]
fn same_seed_runs_produce_identical_snapshots() {
    const SEED: u64 = 0xde7e0;
    let _g = serial();
    let stop = cds_atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while !stop.load(cds_atomic::Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        for (threads, ops_per_thread, rounds) in [(2, 4, 2), (3, 8, 8)] {
            let run = || {
                let base = Snapshot::take();
                let o = StressOptions {
                    threads,
                    ops_per_thread,
                    rounds,
                    ..opts(SEED)
                };
                stress(
                    StackSpec::<u64>::default(),
                    &o,
                    cds_stack::TreiberStack::<u64, Leak>::with_reclaimer,
                    gen_stack,
                    exec_stack,
                )
                .unwrap_or_else(|f| panic!("treiber/leak not linearizable: {f:?}"));
                Snapshot::take().delta(&base)
            };
            let first = run();
            let second = run();
            common::assert_same_counts(SEED, &Event::ALL, &first, &second);
            if cds_obs::enabled() {
                assert!(
                    first.iter().any(|(_, v)| v > 0),
                    "deterministic runs recorded nothing at all"
                );
            }
        }
        stop.store(true, cds_atomic::Ordering::Relaxed);
    });
}
