//! Helpers shared by the integration-test binaries (`mod common;`).

// Each binary uses its own subset.
#![allow(dead_code)]

mod rosters;

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use cds_atomic::stress::SplitMix64;
use cds_atomic::{AtomicBool, Ordering};
use cds_core::{
    ConcurrentCounter, ConcurrentMap, ConcurrentPriorityQueue, ConcurrentQueue, ConcurrentSet,
    ConcurrentStack,
};
use cds_lincheck::specs::{
    CounterOp, EventcountOp, EventcountRes, MapOp, MapRes, MapSpec, PqOp, PqRes, QueueOp, QueueRes,
    QueueSpec, SetOp, SetSpec, StackOp, StackRes, StackSpec,
};
use cds_lincheck::stress::{stress, StressOptions};
use cds_obs::{Event, Snapshot};
use cds_reclaim::{DebugReclaim, Ebr, Hazard, Reclaimer};
use cds_sync::{Parked, Parker};

/// Serializes tests of one binary that share process-wide state (the
/// telemetry counters, the scheduler's fixed worker indices, the global
/// reclaimers). The lock is per binary: each compiles its own copy of
/// this module.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drains every process-wide reclamation backend that frees — the
/// default epoch collector, the hazard domain and the debug quarantine —
/// so deferred destructors run before a suite audits drops or the heap.
/// It frees what the calling thread retired and what exited threads
/// left behind.
pub fn quiesce_reclaimers() {
    for _ in 0..8 {
        Ebr::collect();
    }
    Hazard::collect();
    DebugReclaim::collect();
}

/// Determinism check for two runs of one seeded schedule: panics naming
/// the seed and only the `(event, first, second)` rows among `events`
/// that differ, so a failure says which counters escaped the scheduler.
pub fn assert_same_counts(seed: u64, events: &[Event], first: &Snapshot, second: &Snapshot) {
    let rows: Vec<String> = events
        .iter()
        .filter(|&&e| first.get(e) != second.get(e))
        .map(|&e| format!("  {}: {} vs {}", e.name(), first.get(e), second.get(e)))
        .collect();
    assert!(
        rows.is_empty(),
        "same seed {seed:#x}, different telemetry:\n{}",
        rows.join("\n")
    );
}

/// Pinned-seed stress options, unless `CDS_STRESS_SEED` is set — then that
/// root seed wins for every caller (the replay knob: a failure prints the
/// root seed, and re-running the suite with it set reproduces the run; CI
/// also uses it to rotate in fresh schedules).
pub fn opts(seed: u64) -> StressOptions {
    let defaults = StressOptions::default(); // seed from env when set
    StressOptions {
        seed: if std::env::var_os("CDS_STRESS_SEED").is_some() {
            defaults.seed
        } else {
            seed
        },
        ..defaults
    }
}

pub fn gen_stack(rng: &mut SplitMix64, t: usize) -> StackOp<u64> {
    if rng.below(2) == 0 {
        StackOp::Push((t as u64) << 8 | rng.below(16))
    } else {
        StackOp::Pop
    }
}

pub fn gen_queue(rng: &mut SplitMix64, t: usize) -> QueueOp<u64> {
    if rng.below(2) == 0 {
        QueueOp::Enqueue((t as u64) << 8 | rng.below(16))
    } else {
        QueueOp::Dequeue
    }
}

pub fn gen_set(rng: &mut SplitMix64, _t: usize) -> SetOp<u64> {
    let k = rng.below(3); // few keys => real conflicts
    match rng.below(3) {
        0 => SetOp::Insert(k),
        1 => SetOp::Remove(k),
        _ => SetOp::Contains(k),
    }
}

pub fn gen_pq(rng: &mut SplitMix64, _t: usize) -> PqOp<u64> {
    if rng.below(2) == 0 {
        PqOp::Insert(rng.below(8))
    } else {
        PqOp::RemoveMin
    }
}

pub fn gen_counter(rng: &mut SplitMix64, _t: usize) -> CounterOp {
    if rng.below(2) == 0 {
        CounterOp::Add(1 + rng.below(4) as i64)
    } else {
        CounterOp::Get
    }
}

/// Three keys, so inserts, removes and lookups meet. `Len` is not
/// generated: the split-ordered map's len is only quiescently consistent.
pub fn gen_map(rng: &mut SplitMix64, _t: usize) -> MapOp<u64, u64> {
    let k = rng.below(3);
    match rng.below(3) {
        0 => MapOp::Insert(k, rng.below(100)),
        1 => MapOp::Remove(k),
        _ => MapOp::Get(k),
    }
}

/// Insert-heavy map workload over a small key range, including the two
/// operations that only make sense across a resize boundary:
/// `contains_key` (must see through a half-migrated bucket) and `len`
/// (the map-wide counter must be linearizable mid-migration).
pub fn gen_resize_map(rng: &mut SplitMix64, _t: usize) -> MapOp<u64, u64> {
    let k = rng.below(12);
    match rng.below(8) {
        0..=3 => MapOp::Insert(k, rng.below(100)),
        4 => MapOp::Remove(k),
        5 => MapOp::Get(k),
        6 => MapOp::ContainsKey(k),
        _ => MapOp::Len,
    }
}

/// Scheduled rounds of one stack from `seed`, under the [`serial`] lock:
/// a `DebugReclaim` row shares the debug backend's process-wide
/// quarantine with the binary's other tests.
pub fn stress_stack<S: ConcurrentStack<u64>>(seed: u64, make: impl Fn() -> S) {
    let _g = serial();
    stress(
        StackSpec::<u64>::default(),
        &opts(seed),
        make,
        gen_stack,
        exec_stack,
    )
    .unwrap_or_else(|f| panic!("{} stack not linearizable: {f:?}", S::NAME));
}

/// [`stress_stack`] for a queue.
pub fn stress_queue<Q: ConcurrentQueue<u64>>(seed: u64, make: impl Fn() -> Q) {
    let _g = serial();
    stress(
        QueueSpec::<u64>::default(),
        &opts(seed),
        make,
        gen_queue,
        exec_queue,
    )
    .unwrap_or_else(|f| panic!("{} queue not linearizable: {f:?}", Q::NAME));
}

/// [`stress_stack`] for a set.
pub fn stress_set<S: ConcurrentSet<u64>>(seed: u64, make: impl Fn() -> S) {
    let _g = serial();
    stress(
        SetSpec::<u64>::default(),
        &opts(seed),
        make,
        gen_set,
        exec_set,
    )
    .unwrap_or_else(|f| panic!("{} set not linearizable: {f:?}", S::NAME));
}

/// [`stress_stack`] for a map, over the keys of [`gen_map`].
pub fn stress_map<M: ConcurrentMap<u64, u64>>(seed: u64, make: impl Fn() -> M) {
    let _g = serial();
    stress(
        MapSpec::<u64, u64>::default(),
        &opts(seed),
        make,
        gen_map,
        exec_map,
    )
    .unwrap_or_else(|f| panic!("{} map not linearizable: {f:?}", M::NAME));
}

/// Runs one `StackSpec` operation against any `u64` stack.
pub fn exec_stack<S: ConcurrentStack<u64>>(s: &S, op: &StackOp<u64>) -> StackRes<u64> {
    match op {
        StackOp::Push(v) => {
            s.push(*v);
            StackRes::Pushed
        }
        StackOp::Pop => StackRes::Popped(s.pop()),
    }
}

/// Runs one `QueueSpec` operation against any `u64` queue.
pub fn exec_queue<Q: ConcurrentQueue<u64>>(q: &Q, op: &QueueOp<u64>) -> QueueRes<u64> {
    match op {
        QueueOp::Enqueue(v) => {
            q.enqueue(*v);
            QueueRes::Enqueued
        }
        QueueOp::Dequeue => QueueRes::Dequeued(q.dequeue()),
    }
}

/// Runs one `SetSpec` operation against any `u64` set.
pub fn exec_set<S: ConcurrentSet<u64>>(s: &S, op: &SetOp<u64>) -> bool {
    match op {
        SetOp::Insert(k) => s.insert(*k),
        SetOp::Remove(k) => s.remove(k),
        SetOp::Contains(k) => s.contains(k),
    }
}

/// Runs one `PqSpec` operation against any `u64` priority queue.
pub fn exec_pq<P: ConcurrentPriorityQueue<u64>>(p: &P, op: &PqOp<u64>) -> PqRes<u64> {
    match op {
        PqOp::Insert(k) => PqRes::Inserted(p.insert(*k)),
        PqOp::RemoveMin => PqRes::Removed(p.remove_min()),
    }
}

/// Runs one `CounterSpec` operation against any counter.
pub fn exec_counter<C: ConcurrentCounter>(c: &C, op: &CounterOp) -> i64 {
    match op {
        CounterOp::Add(d) => {
            c.add(*d);
            0
        }
        CounterOp::Get => c.get(),
    }
}

/// Runs one `MapSpec` operation against any `u64 → u64` map.
pub fn exec_map<M: ConcurrentMap<u64, u64>>(m: &M, op: &MapOp<u64, u64>) -> MapRes<u64> {
    match op {
        MapOp::Insert(k, v) => MapRes::Changed(m.insert(*k, *v)),
        MapOp::Remove(k) => MapRes::Changed(m.remove(k)),
        MapOp::Get(k) => MapRes::Got(m.get(k)),
        MapOp::ContainsKey(k) => MapRes::Has(m.contains_key(k)),
        MapOp::Len => MapRes::Len(m.len()),
    }
}

/// A gate built the way `cds-exec` workers and `cds-chan` receivers use
/// the [`Parker`]: publish, then `notify`; `park_unless` a re-check finds
/// it. Runs against `cds_lincheck::specs::EventcountSpec`, under which an
/// `Await` that observes no flag *after* a completed `Signal` is a lost
/// wakeup — the bug the prepare / re-check / commit discipline rules out.
#[derive(Default)]
pub struct Gate {
    parker: Parker,
    flag: AtomicBool,
}

pub fn exec_gate(g: &Gate, op: &EventcountOp) -> EventcountRes {
    match op {
        EventcountOp::Signal => {
            g.flag.store(true, Ordering::SeqCst);
            g.parker.notify();
            EventcountRes::Signaled
        }
        EventcountOp::Await => {
            // The deadline is already over, so the round never commits:
            // bounded windows need every operation to return. It reports
            // what the post-prepare re-check observed.
            let overdue = Some(Instant::now());
            let round = g.parker.park_unless(overdue, Event::ExecParks, || {
                // The classic lost-wakeup window: between announcing the
                // intent to sleep and re-checking the condition.
                cds_atomic::stress::yield_point();
                g.flag.load(Ordering::SeqCst).then_some(())
            });
            match round {
                Parked::Ready(()) => EventcountRes::Woken,
                Parked::TimedOut => EventcountRes::WouldBlock,
                Parked::Woken => unreachable!("an overdue deadline never commits"),
            }
        }
    }
}
