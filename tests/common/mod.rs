//! Helpers shared by the integration-test binaries (`mod common;`).

// Each binary uses its own subset.
#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use cds_atomic::{AtomicBool, Ordering};
use cds_core::ConcurrentMap;
use cds_lincheck::specs::{EventcountOp, EventcountRes, MapOp, MapRes};
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
