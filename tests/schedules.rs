//! Deterministic scheduled stress runs across every structure family.
//!
//! These tests build with the `stress` feature live (the root crate
//! dev-depends on itself with `features = ["stress"]`), so every
//! `cds_atomic::stress::yield_point()` planted in the structures — and every
//! lock acquisition through `cds_sync::Mutex` — is a real PCT-style
//! preemption point. Each test runs seeded rounds via
//! `cds_lincheck::stress::stress`; a failure prints a round seed that
//! [`cds_lincheck::stress::replay`] reproduces deterministically.

mod common;

use std::time::{Duration, Instant};

use cds_core::{ConcurrentCounter, ConcurrentMap, ConcurrentQueue, ConcurrentSet, ConcurrentStack};
use cds_lincheck::faults::{crash_worker, with_contention_storm, StormOptions};
use cds_lincheck::specs::{
    CounterOp, CounterSpec, MapOp, MapSpec, PqSpec, QueueOp, QueueRes, QueueSpec, SetSpec, StackOp,
    StackRes, StackSpec,
};
use cds_lincheck::stress::stress;
use cds_lincheck::{check_linearizable, Recorder};
use common::{
    exec_counter, exec_map, exec_pq, exec_queue, exec_set, exec_stack, gen_counter, gen_pq,
    gen_queue, gen_set, gen_stack, opts,
};

fn stress_stack<S: ConcurrentStack<u64> + Default + Sync>(seed: u64) {
    stress(
        StackSpec::<u64>::default(),
        &opts(seed),
        S::default,
        gen_stack,
        exec_stack,
    )
    .unwrap_or_else(|f| panic!("{} stack not linearizable: {f:?}", S::NAME));
}

fn stress_queue<Q: ConcurrentQueue<u64> + Default + Sync>(seed: u64) {
    stress(
        QueueSpec::<u64>::default(),
        &opts(seed),
        Q::default,
        gen_queue,
        exec_queue,
    )
    .unwrap_or_else(|f| panic!("{} queue not linearizable: {f:?}", Q::NAME));
}

fn stress_set<S: ConcurrentSet<u64> + Default + Sync>(seed: u64) {
    stress(
        SetSpec::<u64>::default(),
        &opts(seed),
        S::default,
        gen_set,
        exec_set,
    )
    .unwrap_or_else(|f| panic!("{} set not linearizable: {f:?}", S::NAME));
}

#[test]
fn scheduled_stacks_are_linearizable() {
    stress_stack::<cds_stack::CoarseStack<u64>>(0x57ac0);
    stress_stack::<cds_stack::TreiberStack<u64>>(0x57ac1);
    stress_stack::<cds_stack::TreiberStack<u64, cds_reclaim::Hazard>>(0x57ac2);
    stress_stack::<cds_stack::EliminationBackoffStack<u64>>(0x57ac3);
    stress_stack::<cds_stack::FcStack<u64>>(0x57ac4);
}

#[test]
fn scheduled_queues_are_linearizable() {
    stress_queue::<cds_queue::CoarseQueue<u64>>(0x90e0);
    stress_queue::<cds_queue::TwoLockQueue<u64>>(0x90e1);
    stress_queue::<cds_queue::MsQueue<u64>>(0x90e2);
    stress_queue::<cds_queue::BoundedQueue<u64>>(0x90e3);
    stress_queue::<cds_queue::FcQueue<u64>>(0x90e4);
}

#[test]
fn scheduled_lists_are_linearizable() {
    stress_set::<cds_list::CoarseList<u64>>(0x115e0);
    stress_set::<cds_list::FineList<u64>>(0x115e1);
    stress_set::<cds_list::OptimisticList<u64>>(0x115e2);
    stress_set::<cds_list::LazyList<u64>>(0x115e3);
    stress_set::<cds_list::HarrisMichaelList<u64>>(0x115e4);
}

#[test]
fn scheduled_skiplists_and_trees_are_linearizable() {
    stress_set::<cds_skiplist::CoarseSkipList<u64>>(0x5c1f0);
    stress_set::<cds_skiplist::LazySkipList<u64>>(0x5c1f1);
    stress_set::<cds_skiplist::LockFreeSkipList<u64>>(0x5c1f2);
    stress_set::<cds_tree::CoarseBst<u64>>(0x73ee0);
    stress_set::<cds_tree::FineBst<u64>>(0x73ee1);
    stress_set::<cds_tree::LockFreeBst<u64>>(0x73ee2);
}

#[test]
fn scheduled_maps_are_linearizable() {
    fn stress_map<M: ConcurrentMap<u64, u64> + Default + Sync>(seed: u64) {
        stress(
            MapSpec::<u64, u64>::default(),
            &opts(seed),
            M::default,
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
        .unwrap_or_else(|f| panic!("{} map not linearizable: {f:?}", M::NAME));
    }
    stress_map::<cds_map::CoarseMap<u64, u64>>(0x3a70);
    stress_map::<cds_map::StripedHashMap<u64, u64>>(0x3a71);
    stress_map::<cds_map::SplitOrderedHashMap<u64, u64>>(0x3a72);
    stress_set::<cds_map::BucketedHashSet<u64>>(0x3a73);
}

#[test]
fn scheduled_priority_queue_and_counters_are_linearizable() {
    stress(
        PqSpec::<u64>::default(),
        &opts(0x60e0),
        cds_prio::CoarseBinaryHeap::<u64>::default,
        gen_pq,
        exec_pq,
    )
    .unwrap_or_else(|f| panic!("coarse heap not linearizable: {f:?}"));

    fn stress_counter<C: ConcurrentCounter + Default + Sync>(seed: u64) {
        stress(
            CounterSpec::default(),
            &opts(seed),
            C::default,
            gen_counter,
            exec_counter,
        )
        .unwrap_or_else(|f| panic!("{} counter not linearizable: {f:?}", C::NAME));
    }
    stress_counter::<cds_counter::LockCounter>(0xc0e0);
    stress_counter::<cds_counter::AtomicCounter>(0xc0e1);
    stress_counter::<cds_counter::FcCounter>(0xc0e2);
}

/// Lock-primitive-guarded counters run against the same `CounterSpec`: a
/// `SeqLock<i64>` (writers serialize on the sequence word, readers retry
/// optimistically) and an `RwSpinLock<i64>`. A torn, stale, or
/// mid-write read would surface as a non-linearizable `Get`; this is the
/// schedule-level complement of the primitives' own unit tests.
#[test]
fn scheduled_lock_guarded_counters_are_linearizable() {
    stress(
        CounterSpec::default(),
        &opts(0x5e9c0),
        || cds_sync::SeqLock::new(0i64),
        gen_counter,
        |c, op| match op {
            CounterOp::Add(d) => {
                c.update(|v| *v += *d);
                0
            }
            CounterOp::Get => c.read(),
        },
    )
    .unwrap_or_else(|f| panic!("SeqLock-guarded counter not linearizable: {f:?}"));

    stress(
        CounterSpec::default(),
        &opts(0x5e9c1),
        || cds_sync::RwSpinLock::new(0i64),
        gen_counter,
        |c, op| match op {
            CounterOp::Add(d) => {
                *c.write() += *d;
                0
            }
            CounterOp::Get => *c.read(),
        },
    )
    .unwrap_or_else(|f| panic!("RwSpinLock-guarded counter not linearizable: {f:?}"));
}

/// Every mutual-exclusion lock in `cds-sync`, exercised as a
/// `Lock<L, i64>`-guarded counter under seeded PCT schedules. This is the
/// schedule-level spec the spin-loop audit (PR 6) demands for each lock:
/// all five wait loops pass a stress yield point every iteration, so these
/// schedules genuinely preempt threads *inside* the acquisition protocols
/// (mid-queue in CLH/MCS, between ticket grab and serve, between the TTAS
/// read and its CAS) rather than only between operations.
#[test]
fn scheduled_spin_lock_guarded_counters_are_linearizable() {
    fn stress_lock<L: cds_sync::RawLock>(seed: u64) {
        stress(
            CounterSpec::default(),
            &opts(seed),
            cds_sync::Lock::<L, i64>::default,
            gen_counter,
            |c, op| match op {
                CounterOp::Add(d) => {
                    *c.lock() += *d;
                    0
                }
                CounterOp::Get => *c.lock(),
            },
        )
        .unwrap_or_else(|f| panic!("{}-guarded counter not linearizable: {f:?}", L::NAME));
    }
    stress_lock::<cds_sync::TasLock>(0x5e9c2);
    stress_lock::<cds_sync::TtasLock>(0x5e9c3);
    stress_lock::<cds_sync::TicketLock>(0x5e9c4);
    stress_lock::<cds_sync::ClhLock>(0x5e9c5);
    stress_lock::<cds_sync::McsLock>(0x5e9c6);
}

/// The factored [`cds_sync::Parker`] (the eventcount both the executor
/// and the channels park on, moved down from `cds-exec` this PR) against
/// the eventcount spec under PCT schedules: publish-then-`notify` racing
/// `park_unless`. An `Await` whose post-prepare re-check misses the flag
/// *after* a completed `Signal` is a lost wakeup — the exact bug the
/// prepare/re-check/commit discipline exists to rule out.
#[test]
fn scheduled_parker_eventcount_is_linearizable() {
    use cds_lincheck::specs::{EventcountOp, EventcountSpec};

    stress(
        EventcountSpec::default(),
        &opts(0x5e9c7),
        common::Gate::default,
        |rng, t| {
            if t == 0 && rng.below(2) == 0 {
                EventcountOp::Signal
            } else {
                EventcountOp::Await
            }
        },
        common::exec_gate,
    )
    .unwrap_or_else(|f| panic!("cds_sync::Parker eventcount not linearizable: {f:?}"));
}

/// `SenseBarrier` round conservation under seeded schedules: no thread
/// leaves round `r` before all `N` threads have arrived at round `r`, and
/// exactly one thread per round is told it was the leader. A sense-reversal
/// bug (stale count reset, round advanced before the reset is visible, a
/// fast thread lapping a slow one) shows up as an arrival count short of
/// `N` or a round with zero/two leaders.
#[test]
fn scheduled_sense_barrier_conserves_rounds() {
    use cds_atomic::stress as sched;
    use cds_atomic::{AtomicUsize, Ordering};

    const THREADS: usize = 3;
    const ROUNDS: usize = 6;
    let root = opts(0xba113).seed;
    for round in 0..8u64 {
        let run = sched::install(cds_atomic::stress::StressConfig {
            seed: sched::mix_seed(root, round),
            change_period: 3,
        });
        let barrier = cds_sync::SenseBarrier::new(THREADS);
        let arrivals: Vec<AtomicUsize> = (0..ROUNDS).map(|_| AtomicUsize::new(0)).collect();
        let leaders: Vec<AtomicUsize> = (0..ROUNDS).map(|_| AtomicUsize::new(0)).collect();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let barrier = &barrier;
                let arrivals = &arrivals;
                let leaders = &leaders;
                let start = &start;
                s.spawn(move || {
                    let _slot = sched::register(t);
                    start.wait();
                    for r in 0..ROUNDS {
                        arrivals[r].fetch_add(1, Ordering::SeqCst);
                        sched::yield_point();
                        let leader = barrier.wait();
                        if leader {
                            leaders[r].fetch_add(1, Ordering::SeqCst);
                        }
                        // Barrier semantics: every arrival for round `r`
                        // happened-before any thread's release from it.
                        let seen = arrivals[r].load(Ordering::SeqCst);
                        assert_eq!(
                            seen, THREADS,
                            "thread {t} released from round {r} after only {seen} arrivals"
                        );
                    }
                });
            }
        });
        drop(run);
        for (r, l) in leaders.iter().enumerate() {
            assert_eq!(
                l.load(Ordering::SeqCst),
                1,
                "round {r} elected {} leaders",
                l.load(Ordering::SeqCst)
            );
        }
    }
}

/// A capacity-2 `BoundedQueue` checked against a *bounded* sequential
/// queue spec, so every full/empty transition of the tiny ring — the
/// regime where the Vyukov sequence-number protocol does all its work —
/// must linearize, including rejected `try_enqueue`s against a full ring
/// and `try_dequeue`s racing the wrap-around.
#[test]
fn scheduled_tiny_bounded_queue_is_linearizable() {
    use std::collections::VecDeque;

    #[derive(Clone, Debug)]
    enum TryQueueOp {
        TryEnqueue(u64),
        TryDequeue,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum TryQueueRes {
        Enqueued(bool),
        Dequeued(Option<u64>),
    }

    #[derive(Clone, PartialEq, Eq, Hash, Default)]
    struct TryQueueSpec {
        items: VecDeque<u64>,
        capacity: usize,
    }

    impl cds_lincheck::Spec for TryQueueSpec {
        type Op = TryQueueOp;
        type Res = TryQueueRes;

        fn apply(&mut self, op: &TryQueueOp) -> TryQueueRes {
            match op {
                TryQueueOp::TryEnqueue(v) => {
                    if self.items.len() < self.capacity {
                        self.items.push_back(*v);
                        TryQueueRes::Enqueued(true)
                    } else {
                        TryQueueRes::Enqueued(false)
                    }
                }
                TryQueueOp::TryDequeue => TryQueueRes::Dequeued(self.items.pop_front()),
            }
        }
    }

    const CAPACITY: usize = 2;
    stress(
        TryQueueSpec {
            items: VecDeque::new(),
            capacity: CAPACITY,
        },
        &opts(0x90e5),
        || cds_queue::BoundedQueue::<u64>::with_capacity(CAPACITY),
        |rng, t| {
            if rng.below(2) == 0 {
                TryQueueOp::TryEnqueue((t as u64) << 8 | rng.below(16))
            } else {
                TryQueueOp::TryDequeue
            }
        },
        |q, op| match op {
            TryQueueOp::TryEnqueue(v) => TryQueueRes::Enqueued(q.try_enqueue(*v).is_ok()),
            TryQueueOp::TryDequeue => TryQueueRes::Dequeued(q.try_dequeue()),
        },
    )
    .unwrap_or_else(|f| panic!("capacity-2 bounded queue not linearizable: {f:?}"));
}

/// Regression for the Chase–Lev one-element race: the owner's `pop` of the
/// last element and a thief's `steal` both CAS `top`; exactly one may win.
/// Seeded rounds drive the preemption right between the thief's bottom
/// read and its CAS (and between the owner's bottom decrement and *its*
/// CAS), the schedule shapes where a broken fence/CAS pairing would let
/// both sides take the element or lose it entirely.
#[test]
fn scheduled_chase_lev_single_element_is_taken_exactly_once() {
    use cds_atomic::stress as sched;
    use cds_queue::{ChaseLevDeque, Steal};

    let root = opts(0xc4a5e).seed;
    for round in 0..32u64 {
        let run = sched::install(cds_atomic::stress::StressConfig {
            seed: sched::mix_seed(root, round),
            change_period: 2,
        });
        let (worker, stealer) = ChaseLevDeque::<u64>::new();
        let start = std::sync::Barrier::new(2);
        let (popped, stolen) = std::thread::scope(|s| {
            let owner = {
                let start = &start;
                s.spawn(move || {
                    let _slot = sched::register(0);
                    start.wait();
                    worker.push(7);
                    sched::yield_point();
                    worker.pop()
                })
            };
            let thief = {
                let stealer = &stealer;
                let start = &start;
                s.spawn(move || {
                    let _slot = sched::register(1);
                    start.wait();
                    // Bounded retries: `Empty` may be a pre-push snapshot,
                    // so probe a few times; `Retry` means we lost a CAS to
                    // the owner and the next probe will resolve to `Empty`.
                    let mut probes = 0;
                    loop {
                        match stealer.steal() {
                            Steal::Success(v) => break Some(v),
                            Steal::Empty => {
                                probes += 1;
                                if probes > 8 {
                                    break None;
                                }
                                sched::yield_point();
                            }
                            Steal::Retry => sched::yield_point(),
                        }
                    }
                })
            };
            (owner.join().unwrap(), thief.join().unwrap())
        });
        drop(run);
        let takers = usize::from(popped.is_some()) + usize::from(stolen.is_some());
        assert_eq!(
            takers, 1,
            "round {round}: element taken by {takers} sides (popped {popped:?}, stolen {stolen:?})"
        );
        assert_eq!(popped.or(stolen), Some(7));
    }
}

/// Acceptance regression: the memoized checker must decide a 40-operation,
/// 4-thread window over `QueueSpec` in well under a second (the plain
/// Wing–Gong search blows up combinatorially on windows this wide).
#[test]
fn memoized_checker_handles_40_op_queue_window_quickly() {
    let queue = cds_queue::MsQueue::<u64>::default();
    let recorder = Recorder::new();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let queue = &queue;
            let recorder = &recorder;
            s.spawn(move || {
                let mut rng = cds_atomic::stress::SplitMix64::new(0x40_0b5 + t);
                for _ in 0..10 {
                    if rng.below(2) == 0 {
                        let v = t << 8 | rng.below(16);
                        recorder.record(QueueOp::Enqueue(v), || {
                            queue.enqueue(v);
                            QueueRes::Enqueued
                        });
                    } else {
                        recorder.record(QueueOp::Dequeue, || QueueRes::Dequeued(queue.dequeue()));
                    }
                }
            });
        }
    });
    let history = recorder.into_history();
    assert_eq!(history.len(), 40);
    let start = Instant::now();
    assert!(
        check_linearizable(QueueSpec::<u64>::default(), &history),
        "MS queue produced a non-linearizable window: {history:?}"
    );
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "memoized check took {elapsed:?} on a 40-op window"
    );
}

/// A holder that panics: every lock-based structure locks through
/// `cds_sync::Mutex`, which does not poison; the guard releases the lock
/// during unwinding. A worker dying while holding the lock must not wedge
/// or corrupt the structure.
#[test]
fn lock_based_structures_survive_a_crashed_worker() {
    // Direct lock check: panic while holding the guard, then lock again.
    let m = cds_sync::Mutex::new(7);
    assert!(crash_worker(&m, |m| {
        let _guard = m.lock();
        panic!("die holding the lock");
    }));
    assert_eq!(*m.lock(), 7, "unwinding must release the lock");

    // Structure-level check: a storm thread panics mid-run; the coarse
    // (single-mutex) queue keeps serving the survivors and the foreground.
    let q = cds_queue::CoarseQueue::<u64>::default();
    for i in 0..8 {
        q.enqueue(i);
    }
    with_contention_storm(
        &q,
        &StormOptions {
            threads: 4,
            ops_per_thread: 200,
        },
        |q, t, i| {
            q.enqueue((t * 1000 + i) as u64);
            q.dequeue();
            if t == 0 && i == 50 {
                panic!("planted storm casualty");
            }
        },
        |q, _| {
            for i in 0..100u64 {
                q.enqueue(i);
                assert!(q.dequeue().is_some());
            }
        },
    );
    // Quiescent: the queue still functions and reports a sane length.
    q.enqueue(99);
    assert!(q.dequeue().is_some());
}

/// DebugReclaim regression: a toy structure with a *planted* reclamation
/// protocol violation — it caches a raw pointer at construction and later
/// re-protects it without re-validating reachability — must be caught by
/// the debug backend ("use-after-retire", with both thread ids), and the
/// property harness must shrink the offending schedule to its 2-operation
/// core (`[Update, BuggyRead]`) under a pinned seed so the failure replays
/// byte-for-byte.
#[test]
fn debug_reclaim_catches_and_shrinks_injected_use_after_retire() {
    use cds_atomic::Ordering;
    use cds_lincheck::prop::{forall_vec, Config, Prng};
    use cds_reclaim::epoch::{Atomic, Owned, Shared};
    use cds_reclaim::{DebugGuard, DebugReclaim, ReclaimGuard, Reclaimer};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Update(u64),
        BuggyRead,
    }

    /// Single-slot register with the bug: `new` stashes the initial node's
    /// raw address, and `buggy_read` protects that stale address under a
    /// *fresh* guard instead of re-reading the slot. Once an `Update` has
    /// swapped the node out and retired it, the read touches a node a real
    /// reclaimer could already have freed.
    struct BuggySlot {
        slot: Atomic<u64>,
        cached: *mut u64,
        /// Long-lived guard (entered before every retire, so it never
        /// trips the checker itself) standing in for a reader registration
        /// that keeps the registry populated across operations.
        _keepalive: DebugGuard,
    }

    impl BuggySlot {
        fn new() -> Self {
            let keepalive = DebugReclaim::enter();
            let slot = Atomic::new(0u64);
            let cached = slot.load_raw(Ordering::Relaxed);
            BuggySlot {
                slot,
                cached,
                _keepalive: keepalive,
            }
        }

        fn update(&self, v: u64) {
            let guard = DebugReclaim::enter();
            let fresh = Owned::new(v).into_shared(&guard);
            let old = self.slot.swap(fresh, Ordering::AcqRel, &guard);
            // SAFETY: unlinked by the swap; retired exactly once.
            unsafe { guard.retire(old) };
        }

        fn buggy_read(&self) -> u64 {
            let guard = DebugReclaim::enter();
            // BUG: protects the construction-time pointer without
            // re-validating that the slot still holds it. DebugReclaim
            // panics here when the node was retired before `guard` began.
            let p = guard.protect_ptr(0, Shared::from_raw(self.cached));
            // SAFETY: only reached when the node was never retired (the
            // checker panics above otherwise, and `_keepalive` quarantines
            // retired nodes so the poison record is still present).
            unsafe { *p.deref() }
        }
    }

    impl Drop for BuggySlot {
        fn drop(&mut self) {
            let p = self.slot.load_raw(Ordering::Relaxed);
            // SAFETY: the current slot value was never retired; the test
            // owns the structure exclusively here.
            unsafe { drop(Box::from_raw(p)) };
        }
    }

    let config = Config {
        cases: 64,
        seed: 0xdeb065eed, // pinned: the report below must be reproducible
        max_len: 12,
    };
    let gen = |rng: &mut Prng| {
        if rng.below(2) == 0 {
            Op::Update(rng.below(100))
        } else {
            Op::BuggyRead
        }
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        forall_vec(&config, gen, |script: &[Op]| {
            let s = BuggySlot::new();
            for op in script {
                match op {
                    Op::Update(v) => s.update(*v),
                    Op::BuggyRead => {
                        s.buggy_read();
                    }
                }
            }
        });
    }))
    .expect_err("the planted use-after-retire must be caught");

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
        "shrinker did not reach the [Update, BuggyRead] core: {msg}"
    );
    assert!(
        msg.contains("CDS_PROP_SEED"),
        "missing the replay hint: {msg}"
    );

    // The panic unwound with retired nodes still quarantined; drain them
    // now that every guard is gone so later tests see a clean registry.
    DebugReclaim::collect();
    assert_eq!(DebugReclaim::retired_backlog(), 0);
}

/// Contention storm over a lock-free structure: every operation — hammer
/// and foreground alike — is recorded, and the full 64-op window must be
/// linearizable. This also exercises the memoized checker right at its
/// window cap.
#[test]
fn storm_window_is_linearizable() {
    let stack = cds_stack::TreiberStack::<u64>::default();
    let recorder = Recorder::new();
    with_contention_storm(
        &stack,
        &StormOptions {
            threads: 3,
            ops_per_thread: 8,
        },
        |s, t, i| {
            // Hammers use a disjoint value space (high bit set).
            let v = 1 << 63 | (t as u64) << 32 | i as u64;
            if i % 2 == 0 {
                recorder.record(StackOp::Push(v), || {
                    s.push(v);
                    StackRes::Pushed
                });
            } else {
                recorder.record(StackOp::Pop, || StackRes::Popped(s.pop()));
            }
        },
        |s, _| {
            let mut rng = cds_atomic::stress::SplitMix64::new(0x5708);
            for i in 0..40u64 {
                if rng.below(2) == 0 {
                    recorder.record(StackOp::Push(i), || {
                        s.push(i);
                        StackRes::Pushed
                    });
                } else {
                    recorder.record(StackOp::Pop, || StackRes::Popped(s.pop()));
                }
            }
        },
    );
    let history = recorder.into_history();
    assert_eq!(history.len(), 64);
    assert!(
        check_linearizable(StackSpec::<u64>::default(), &history),
        "Treiber stack window under storm not linearizable: {history:?}"
    );
}
