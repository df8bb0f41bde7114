//! The migration-race determinism proof, isolated in its own test binary
//! (the `tests/replay.rs` pattern): schedule-sensitive seed-replay
//! assertions share a process with nothing else, so parallel test
//! threads cannot perturb the deterministic scheduler. The planted bug
//! is the migration protocol of [`cds_map::ResizingMap`] with its
//! hold-the-source-lock rule deleted; the seeded scheduler must *find*
//! the resulting lost-key window, ddmin must shrink it, and the printed
//! round seed must reproduce it on replay.

use cds_atomic::{AtomicBool, Ordering};

use cds_lincheck::specs::{MapOp, MapRes, MapSpec};
use cds_lincheck::stress::{replay, stress, StressOptions};
use cds_sync::Mutex;

/// A deliberately broken miniature of the migration protocol: the
/// migrating thread **releases the source lock while the entries are in
/// neither table** (the real `ResizingMap` holds the source-bucket lock
/// for the whole move — this structure is that rule deleted). A lookup
/// scheduled into the gap misses a key that was inserted and never
/// removed: a non-linearizable history the PCT seed below finds, ddmin
/// shrinks, and the printed round seed replays.
struct RacyMigratingMap {
    old: Mutex<Vec<(u64, u64)>>,
    new: Mutex<Vec<(u64, u64)>>,
    promoted: AtomicBool,
}

impl RacyMigratingMap {
    fn new() -> Self {
        RacyMigratingMap {
            old: Mutex::new(Vec::new()),
            new: Mutex::new(Vec::new()),
            promoted: AtomicBool::new(false),
        }
    }

    fn table(&self) -> &Mutex<Vec<(u64, u64)>> {
        if self.promoted.load(Ordering::Acquire) {
            &self.new
        } else {
            &self.old
        }
    }

    fn insert(&self, k: u64, v: u64) -> bool {
        let inserted = {
            let mut t = self.table().lock();
            cds_atomic::stress::yield_point();
            if t.iter().any(|(ek, _)| *ek == k) {
                false
            } else {
                t.push((k, v));
                true
            }
        };
        if !self.promoted.load(Ordering::Acquire) && self.old.lock().len() > 2 {
            self.racy_migrate();
        }
        inserted
    }

    /// The planted bug: drain the source, drop its lock, and only then
    /// fill the destination. Between the two locks every drained entry is
    /// unreachable.
    fn racy_migrate(&self) {
        let moved: Vec<(u64, u64)> = {
            let mut t = self.old.lock();
            t.drain(..).collect()
        };
        cds_atomic::stress::yield_point(); // the gap a seed can schedule into
        let mut n = self.new.lock();
        n.extend(moved);
        self.promoted.store(true, Ordering::Release);
    }

    fn get(&self, k: u64) -> Option<u64> {
        let t = self.table().lock();
        cds_atomic::stress::yield_point();
        t.iter().find(|(ek, _)| *ek == k).map(|(_, v)| *v)
    }

    fn remove(&self, k: u64) -> bool {
        let mut t = self.table().lock();
        cds_atomic::stress::yield_point();
        match t.iter().position(|(ek, _)| *ek == k) {
            Some(i) => {
                t.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

fn racy_gen(rng: &mut cds_atomic::stress::SplitMix64, _t: usize) -> MapOp<u64, u64> {
    let k = rng.below(4);
    match rng.below(4) {
        0..=1 => MapOp::Insert(k, rng.below(100)),
        2 => MapOp::Get(k),
        _ => MapOp::Remove(k),
    }
}

fn racy_exec(m: &RacyMigratingMap, op: &MapOp<u64, u64>) -> MapRes<u64> {
    match op {
        MapOp::Insert(k, v) => MapRes::Changed(m.insert(*k, *v)),
        MapOp::Remove(k) => MapRes::Changed(m.remove(*k)),
        MapOp::Get(k) => MapRes::Got(m.get(*k)),
        MapOp::ContainsKey(k) => MapRes::Has(m.get(*k).is_some()),
        MapOp::Len => MapRes::Len(0),
    }
}

/// Found during development of the migration protocol; kept as a
/// regression that (a) the harness can see this class of bug at all and
/// (b) the shrunk seed stays a complete reproducer.
#[test]
fn migration_gap_race_is_found_shrunk_and_seed_replays() {
    let options = StressOptions {
        rounds: 64,
        seed: 0x4e512e3,
        ops_per_thread: 8,
        ..StressOptions::default()
    };
    let demotions_before = cds_atomic::stress::demotions();
    let failure = stress(
        MapSpec::<u64, u64>::default(),
        &options,
        RacyMigratingMap::new,
        racy_gen,
        racy_exec,
    )
    .expect_err("the lock-gap migration race must be found");
    assert!(
        cds_atomic::stress::demotions() > demotions_before,
        "no preemptions injected: is the stress feature compiled in?"
    );

    assert!(
        !failure.minimized.is_empty() && failure.minimized.len() <= failure.history.len(),
        "shrinker produced a bogus minimization: {failure:?}"
    );
    assert!(
        !cds_lincheck::check_linearizable(MapSpec::<u64, u64>::default(), &failure.minimized),
        "minimized history must still fail"
    );

    // The printed round seed is a complete reproducer.
    let again = replay(
        MapSpec::<u64, u64>::default(),
        &options,
        failure.seed,
        RacyMigratingMap::new,
        racy_gen,
        racy_exec,
    )
    .expect_err("replaying the failing seed must reproduce the race");
    assert_eq!(again.seed, failure.seed);
}
