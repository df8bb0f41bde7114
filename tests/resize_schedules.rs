//! Scheduled-stress and property coverage for hash-map **resize**: the
//! interleaving surface none of the earlier harness work pointed at.
//!
//! The maps under test get deliberately tiny geometries (one shard, one
//! or two buckets) so the load-factor trigger fires well inside a 64-op
//! lincheck window — every pinned seed below drives inserts, lookups,
//! removes, `contains_key`, and `len` *through* an in-flight cooperative
//! migration ([`cds_map::ResizingMap`]) or an all-stripe table doubling
//! ([`cds_map::StripedHashMap`]). These tests build with the `stress`
//! feature live, so every `yield_point` in the migration loops — and
//! every lock acquisition and `Backoff` step — is a real PCT preemption
//! point; failures print a round seed that `CDS_STRESS_SEED=<seed>` (or
//! [`cds_lincheck::stress::replay`]) reproduces deterministically.
//!
//! Also here: the quiescent no-loss / no-duplication / shard-balance
//! properties. The ddmin-shrunk regression for the migration race the
//! protocol is designed against (releasing the source-bucket lock while
//! entries are "in neither table") lives in its own binary,
//! `tests/resize_replay.rs`, because its seed-replay assertion is
//! schedule-sensitive (the `tests/replay.rs` pattern).

mod common;

use cds_atomic::{AtomicUsize, Ordering};
use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hasher};

use cds_core::ConcurrentMap;
use cds_lincheck::prop::{forall_vec, Config, Prng};
use cds_lincheck::specs::{MapSpec, SetOp, SetSpec};
use cds_lincheck::stress::{stress, StressOptions};
use cds_map::{BucketedHashSet, ResizingMap, StripedHashMap};
use cds_reclaim::{Ebr, Reclaimer};
use common::{exec_map, exec_set, gen_resize_map};

/// Sixteen ops per worker — three workers fill a 48-op window, enough
/// inserts over a one-bucket shard to force at least one doubling per
/// round.
fn window_opts(seed: u64) -> StressOptions {
    StressOptions {
        ops_per_thread: 16,
        rounds: 8,
        ..common::opts(seed)
    }
}

/// Highest doublings count any round's map reached, recorded at teardown —
/// proof the seeds actually interleaved operations with live migrations
/// rather than running before or after them.
static MAX_DOUBLINGS: AtomicUsize = AtomicUsize::new(0);

struct Tracked<R: Reclaimer>(ResizingMap<u64, u64, std::hash::RandomState, R>);

impl<R: Reclaimer> Drop for Tracked<R> {
    fn drop(&mut self) {
        MAX_DOUBLINGS.fetch_max(self.0.doublings(), Ordering::Relaxed);
    }
}

fn stress_resizing_on<R: Reclaimer>(seed: u64) {
    stress(
        MapSpec::<u64, u64>::default(),
        &window_opts(seed),
        || Tracked::<R>(ResizingMap::with_config(1, 1)),
        gen_resize_map,
        |m, op| exec_map(&m.0, op),
    )
    .unwrap_or_else(|f| panic!("resizing map under {} not linearizable: {f:?}", R::NAME));
}

/// The tentpole acceptance test: insert/lookup/remove/`contains_key`/`len`
/// racing in-flight migrations must linearize, and the rounds must have
/// actually resized mid-window.
#[test]
fn scheduled_resizing_map_is_linearizable_across_migration() {
    stress_resizing_on::<Ebr>(0x4e512e0);
    assert!(
        MAX_DOUBLINGS.load(Ordering::Relaxed) >= 1,
        "no round ever resized: the seeds never reached an in-flight migration"
    );
}

/// The lock-based coverage gap: the striped map's all-stripe resize and
/// the bucketed set at bucket-starved capacity, under the scheduled
/// harness with pinned seeds (their default geometries never resize
/// inside a 64-op window).
#[test]
fn scheduled_striped_resize_is_linearizable() {
    stress(
        MapSpec::<u64, u64>::default(),
        &window_opts(0x4e512e1),
        || StripedHashMap::<u64, u64>::with_config(2, 2),
        gen_resize_map,
        exec_map,
    )
    .unwrap_or_else(|f| panic!("striped map across resize not linearizable: {f:?}"));
}

#[test]
fn scheduled_bucket_starved_bucketed_set_is_linearizable() {
    stress(
        SetSpec::<u64>::default(),
        &window_opts(0x4e512e2),
        || BucketedHashSet::<u64>::with_buckets(2),
        |rng, _t| {
            let k = rng.below(12);
            match rng.below(3) {
                0 => SetOp::Insert(k),
                1 => SetOp::Remove(k),
                _ => SetOp::Contains(k),
            }
        },
        exec_set,
    )
    .unwrap_or_else(|f| panic!("bucketed set not linearizable: {f:?}"));
}

// ---------------------------------------------------------------------------
// Quiescent properties: no loss, no duplication, balanced shards
// ---------------------------------------------------------------------------

/// Deterministic hasher (SplitMix64 finalizer) so the shard-balance
/// assertions below are exact replays, not `RandomState` lottery tickets.
#[derive(Clone, Default)]
struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[derive(Clone, Default)]
struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = FixedHasher;
    fn build_hasher(&self) -> FixedHasher {
        FixedHasher::default()
    }
}

/// Property: against a forced multi-doubling resize, the map agrees with
/// a `BTreeMap` model op for op, no key is lost or duplicated in the
/// final physical state, and `len` equals the sum of the shard lens at
/// quiescence. Failures ddmin-shrink to a minimal script and print a
/// `CDS_PROP_SEED` reproducer.
#[test]
fn no_key_lost_or_duplicated_across_forced_resize() {
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u64, u64),
        Remove(u64),
    }
    let config = Config {
        cases: 48,
        seed: 0x4e512e4, // pinned for reproducibility
        max_len: 96,     // enough inserts for two doublings of a 1-bucket shard
    };
    let gen = |rng: &mut Prng| {
        if rng.below(4) == 0 {
            Op::Remove(rng.below(24))
        } else {
            Op::Insert(rng.below(24), rng.below(100))
        }
    };
    forall_vec(&config, gen, |script: &[Op]| {
        let map: ResizingMap<u64, u64, FixedState> =
            ResizingMap::with_config_and_hasher(2, 1, FixedState);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in script {
            match *op {
                Op::Insert(k, v) => {
                    // insert-if-absent on both sides
                    let fresh = !model.contains_key(&k);
                    if fresh {
                        model.insert(k, v);
                    }
                    assert_eq!(map.insert(k, v), fresh, "insert({k}) disagreed with model");
                }
                Op::Remove(k) => {
                    assert_eq!(
                        map.remove(&k),
                        model.remove(&k).is_some(),
                        "remove({k}) disagreed with model"
                    );
                }
            }
        }
        // Quiescent invariants: counters agree and the physical state has
        // exactly the model's keys — none lost, none duplicated.
        assert_eq!(map.len(), model.len(), "len diverged from model");
        assert_eq!(
            map.len(),
            map.shard_lens().iter().sum::<usize>(),
            "len != sum of shard lens at quiescence"
        );
        let mut keys = map.snapshot_keys();
        keys.sort_unstable();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "duplicate key in physical state: {keys:?}"
        );
        assert_eq!(
            keys,
            model.keys().copied().collect::<Vec<_>>(),
            "physical keys diverged from model"
        );
    });
}

/// Property: the fixed hasher spreads sequential keys across shards well
/// enough that no shard holds more than 4× its fair share (and none
/// starves) once the map has grown through several doublings.
#[test]
fn shards_stay_balanced_under_uniform_keys() {
    const N: usize = 4096;
    let map: ResizingMap<u64, u64, FixedState> =
        ResizingMap::with_config_and_hasher(8, 2, FixedState);
    for i in 0..N as u64 {
        assert!(map.insert(i, i));
    }
    assert!(map.doublings() >= 3, "expected ≥3 doublings during fill");
    let lens = map.shard_lens();
    assert_eq!(lens.iter().sum::<usize>(), N);
    let fair = N / lens.len();
    for (i, &len) in lens.iter().enumerate() {
        assert!(
            len <= fair * 4 && len >= fair / 4,
            "shard {i} unbalanced: {len} of fair {fair} (all: {lens:?})"
        );
    }
}

/// The resize cell the CI job gates on: the cooperative migration
/// linearizes under all four reclamation backends, in the one-shard,
/// one-bucket geometry that migrates inside every window, each backend
/// with its own pinned seed.
#[test]
fn scheduled_resizing_map_under_every_backend() {
    backends!(stress_resizing_on, 0x4e512e50);
}
