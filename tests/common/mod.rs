//! Helpers shared by the integration-test binaries (`mod common;`).

// Each binary uses its own subset.
#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard};

use cds_obs::{Event, Snapshot};

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
