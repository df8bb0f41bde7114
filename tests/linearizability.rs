//! Linearizability checking of the concurrent implementations.
//!
//! Each test runs many small randomized concurrent windows (a few threads,
//! a few operations each) against a real structure, records
//! invocation/response timestamps with `cds_lincheck::Recorder`, and
//! verifies with the Wing–Gong search that some legal sequential order
//! explains the observed results.
//!
//! On a single-core host the interleavings are less adversarial than on a
//! multiprocessor, but preemption still produces genuine overlap, and the
//! checker validates real-time order in every window.

mod common;

use std::fmt::Debug;
use std::sync::Arc;

use cds_atomic::stress::{mix_seed, SplitMix64};
use cds_core::{
    ConcurrentCounter, ConcurrentMap, ConcurrentPriorityQueue, ConcurrentQueue, ConcurrentSet,
    ConcurrentStack,
};
use cds_lincheck::specs::{
    CounterOp, CounterSpec, DequeOp, DequeRes, DequeSpec, PqOp, PqRes, PqSpec, QueueOp, QueueRes,
    QueueSpec, SetOp, SetSpec, StackSpec,
};
use cds_lincheck::{check_linearizable, Recorder, Spec};
use common::{
    exec_counter, exec_pq, exec_queue, exec_set, exec_stack, gen_counter, gen_pq, gen_queue,
    gen_set, gen_stack,
};

const WINDOWS: usize = 30;
const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 4;

/// The native runner: `WINDOWS` windows, each `THREADS` plain threads
/// issuing `OPS_PER_THREAD` operations drawn by `gen` against one fresh
/// `setup()`, every recorded history checked against `spec`.
///
/// The threads never call `stress::register`, so the structures' yield
/// points stay no-ops and no scheduled round another test installs can
/// adopt them; that is why this is not lincheck's own window runner.
fn check_windows<S, T>(
    spec: S,
    setup: impl Fn() -> T,
    gen: impl Fn(&mut SplitMix64, usize) -> S::Op + Sync,
    exec: impl Fn(&T, &S::Op) -> S::Res + Sync,
) where
    S: Spec,
    S::Op: Clone + Debug + Send,
    S::Res: Clone + Debug + Send,
    T: Sync,
{
    for window in 0..WINDOWS {
        let target = setup();
        let recorder = Recorder::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (target, recorder, gen, exec) = (&target, &recorder, &gen, &exec);
                s.spawn(move || {
                    let mut rng = SplitMix64::new(mix_seed(window as u64, t as u64));
                    for _ in 0..OPS_PER_THREAD {
                        let op = gen(&mut rng, t);
                        recorder.record(op.clone(), || exec(target, &op));
                    }
                });
            }
        });
        let history = recorder.into_history();
        assert!(
            check_linearizable(spec.clone(), &history),
            "non-linearizable {} history: {history:?}",
            std::any::type_name::<T>()
        );
    }
}

fn check_stack<S: ConcurrentStack<u64> + Default + Sync>() {
    check_windows(StackSpec::default(), S::default, gen_stack, exec_stack);
}

fn check_queue<Q: ConcurrentQueue<u64> + Default + Sync>() {
    check_windows(QueueSpec::default(), Q::default, gen_queue, exec_queue);
}

fn check_set<S: ConcurrentSet<u64> + Default + Sync>() {
    check_windows(SetSpec::default(), S::default, gen_set, exec_set);
}

/// A map driven through set-like ops (insert/remove/contains_key),
/// checked against the set spec (values are keys).
fn check_map_as_set<M: ConcurrentMap<u64, u64> + Default + Sync>() {
    check_windows(
        SetSpec::default(),
        M::default,
        gen_set,
        |m: &M, op| match op {
            SetOp::Insert(k) => m.insert(*k, *k),
            SetOp::Remove(k) => m.remove(k),
            SetOp::Contains(k) => m.contains_key(k),
        },
    );
}

fn check_pq<P: ConcurrentPriorityQueue<u64> + Default + Sync>() {
    check_windows(PqSpec::default(), P::default, gen_pq, exec_pq);
}

fn check_counter<C: ConcurrentCounter + Default + Sync>() {
    check_windows(
        CounterSpec::default(),
        C::default,
        gen_counter,
        exec_counter,
    );
}

#[test]
fn coarse_priority_queue_is_linearizable() {
    // Only the lock-based heap claims linearizable remove_min; the
    // Lotan–Shavit queue is quiescently consistent by design (see
    // cds-prio docs) and gets the insert-only treatment below.
    check_pq::<cds_prio::CoarseBinaryHeap<u64>>();
}

#[test]
fn skiplist_pq_inserts_are_linearizable_and_drain_is_sorted() {
    // `remove_min` on the Lotan–Shavit queue is quiescently consistent, so
    // a mixed window would legitimately fail the checker. Its *inserts* are
    // linearizable though, and after quiescence the drain must come out in
    // ascending order with nothing lost.
    use cds_prio::SkipListPriorityQueue;
    for window in 0..WINDOWS {
        let pq = Arc::new(SkipListPriorityQueue::<u64>::default());
        let recorder = Arc::new(Recorder::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let pq = Arc::clone(&pq);
                let recorder = Arc::clone(&recorder);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new((window * THREADS + t + 19) as u64);
                    for _ in 0..OPS_PER_THREAD {
                        let k = rng.below(8); // collisions on purpose
                        recorder.record(PqOp::Insert(k), || PqRes::Inserted(pq.insert(k)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let history = Arc::try_unwrap(recorder).ok().unwrap().into_history();
        assert!(
            check_linearizable(PqSpec::default(), &history),
            "non-linearizable skiplist-pq insert history: {history:?}"
        );
        let inserted = history
            .iter()
            .filter(|op| op.result == PqRes::Inserted(true))
            .count();
        let mut drained = Vec::new();
        while let Some(v) = pq.remove_min() {
            drained.push(v);
        }
        assert_eq!(drained.len(), inserted, "elements lost or duplicated");
        assert!(drained.is_sorted(), "drain out of order: {drained:?}");
    }
}

#[test]
fn linearizable_counters_check_out() {
    // Sharded/combining counters have quiescently-consistent `get` and get
    // the weaker treatment in `quiescent_counters_converge` below.
    check_counter::<cds_counter::LockCounter>();
    check_counter::<cds_counter::AtomicCounter>();
    check_counter::<cds_counter::FcCounter>();
}

/// Quiescently consistent counters: a concurrent `get` may miss in-flight
/// increments, so the full counter check would legitimately fail. Instead,
/// record a concurrent add-only window plus one `Get` issued strictly
/// *after* every add has returned; real-time order then forces the checker
/// to demand the exact total.
fn check_quiescent_counter<C: ConcurrentCounter + Default + 'static>() {
    for window in 0..WINDOWS {
        let c = Arc::new(C::default());
        let recorder = Arc::new(Recorder::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let c = Arc::clone(&c);
                let recorder = Arc::clone(&recorder);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new((window * THREADS + t + 17) as u64);
                    for _ in 0..OPS_PER_THREAD {
                        let d = rng.below(5) as i64;
                        recorder.record(CounterOp::Add(d), || {
                            c.add(d);
                            0
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        recorder.record(CounterOp::Get, || c.get());
        let history = Arc::try_unwrap(recorder).ok().unwrap().into_history();
        assert!(
            check_linearizable(CounterSpec::default(), &history),
            "quiescent counter missed adds ({}): {history:?}",
            C::NAME
        );
    }
}

#[test]
fn quiescent_counters_converge() {
    check_quiescent_counter::<cds_counter::ShardedCounter>();
    check_quiescent_counter::<cds_counter::CombiningTreeCounter>();
}

#[test]
fn stacks_are_linearizable() {
    check_stack::<cds_stack::CoarseStack<u64>>();
    check_stack::<cds_stack::TreiberStack<u64>>();
    check_stack::<cds_stack::TreiberStack<u64, cds_reclaim::Hazard>>();
    check_stack::<cds_stack::TreiberStack<u64, cds_reclaim::DebugReclaim>>();
    check_stack::<cds_stack::EliminationBackoffStack<u64>>();
    check_stack::<cds_stack::FcStack<u64>>();
}

#[test]
fn queues_are_linearizable() {
    check_queue::<cds_queue::CoarseQueue<u64>>();
    check_queue::<cds_queue::TwoLockQueue<u64>>();
    check_queue::<cds_queue::MsQueue<u64>>();
    check_queue::<cds_queue::FcQueue<u64>>();
    // Default capacity (1024) far exceeds the window, so enqueue never
    // blocks and FIFO semantics are fully exercised.
    check_queue::<cds_queue::BoundedQueue<u64>>();
}

#[test]
fn spsc_ring_is_linearizable() {
    // One producer, one consumer — the only legal client pattern.
    for window in 0..WINDOWS {
        let (producer, consumer) = cds_queue::spsc_ring_buffer::<u64>(64);
        let recorder = Recorder::new();
        std::thread::scope(|s| {
            let recorder = &recorder;
            s.spawn(move || {
                for i in 0..2 * OPS_PER_THREAD {
                    let v = (window * 100 + i) as u64;
                    recorder.record(QueueOp::Enqueue(v), || {
                        // Capacity exceeds the window: try_push cannot fail.
                        producer.try_push(v).expect("ring unexpectedly full");
                        QueueRes::Enqueued
                    });
                }
            });
            s.spawn(move || {
                for _ in 0..2 * OPS_PER_THREAD {
                    recorder.record(QueueOp::Dequeue, || QueueRes::Dequeued(consumer.try_pop()));
                }
            });
        });
        let history = recorder.into_history();
        assert!(
            check_linearizable(QueueSpec::default(), &history),
            "non-linearizable SPSC history: {history:?}"
        );
    }
}

#[test]
fn chase_lev_deque_is_linearizable() {
    // One owner (pushes and pops the bottom), two thieves stealing the top,
    // checked against the sequential work-stealing deque spec. `Retry` is
    // looped inside the recorded closure: the operation's span covers the
    // retries and its result is the first decisive outcome.
    for window in 0..WINDOWS {
        let (worker, stealer) = cds_queue::ChaseLevDeque::<u64>::new();
        let recorder = Recorder::new();
        std::thread::scope(|s| {
            let recorder = &recorder;
            let stealer2 = stealer.clone();
            s.spawn(move || {
                let mut rng = SplitMix64::new((window + 1) as u64);
                for i in 0..2 * OPS_PER_THREAD {
                    if rng.below(2) == 0 {
                        let v = (window * 100 + i) as u64;
                        recorder.record(DequeOp::PushBottom(v), || {
                            worker.push(v);
                            DequeRes::Pushed
                        });
                    } else {
                        recorder.record(DequeOp::PopBottom, || DequeRes::Popped(worker.pop()));
                    }
                }
            });
            for stealer in [stealer, stealer2] {
                s.spawn(move || {
                    for _ in 0..OPS_PER_THREAD {
                        recorder.record(DequeOp::Steal, || loop {
                            match stealer.steal() {
                                cds_queue::Steal::Success(v) => {
                                    return DequeRes::Stolen(Some(v));
                                }
                                cds_queue::Steal::Empty => return DequeRes::Stolen(None),
                                cds_queue::Steal::Retry => continue,
                            }
                        });
                    }
                });
            }
        });
        let history = recorder.into_history();
        assert!(
            check_linearizable(DequeSpec::default(), &history),
            "non-linearizable Chase-Lev history: {history:?}"
        );
    }
}

#[test]
fn list_sets_are_linearizable() {
    check_set::<cds_list::CoarseList<u64>>();
    check_set::<cds_list::FineList<u64>>();
    check_set::<cds_list::OptimisticList<u64>>();
    check_set::<cds_list::LazyList<u64>>();
    check_set::<cds_list::HarrisMichaelList<u64>>();
}

#[test]
fn skiplist_and_tree_sets_are_linearizable() {
    check_set::<cds_skiplist::CoarseSkipList<u64>>();
    check_set::<cds_skiplist::LazySkipList<u64>>();
    check_set::<cds_skiplist::LockFreeSkipList<u64>>();
    check_set::<cds_tree::CoarseBst<u64>>();
    check_set::<cds_tree::FineBst<u64>>();
    check_set::<cds_tree::LockFreeBst<u64>>();
}

#[test]
fn maps_are_linearizable() {
    check_map_as_set::<cds_map::CoarseMap<u64, u64>>();
    check_map_as_set::<cds_map::StripedHashMap<u64, u64>>();
    check_map_as_set::<cds_map::SplitOrderedHashMap<u64, u64>>();
    check_set::<cds_map::BucketedHashSet<u64>>();
}
