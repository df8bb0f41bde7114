//! Helpers shared by the integration-test binaries (`mod common;`).

// Each binary uses its own subset.
#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use cds_atomic::{AtomicBool, Ordering};
use cds_core::stress::SplitMix64;
use cds_core::{ConcurrentMap, ConcurrentQueue, ConcurrentStack};
use cds_lincheck::specs::{
    EventcountOp, EventcountRes, MapOp, MapRes, QueueOp, QueueRes, SetOp, StackOp, StackRes,
};
use cds_lincheck::stress::StressOptions;
use cds_obs::{Event, Snapshot};
use cds_sync::{Parked, Parker};

/// Serializes tests of one binary that share process-wide state (the
/// telemetry counters, the scheduler's fixed worker indices, the global
/// reclaimers). The lock is per binary: each compiles its own copy of
/// this module.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
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
                cds_core::stress::yield_point();
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
