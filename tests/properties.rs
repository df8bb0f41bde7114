//! Every implementation of an abstract type against one set of checks,
//! run over that type's roster (`tests/common/rosters.rs`).
//!
//! Sequential equivalence, driven by the in-tree seeded harness
//! (`cds_lincheck::prop`): under *any* sequence of operations, every
//! implementation used single-threaded must behave exactly like the
//! obvious `std` model. This catches structural bugs (lost nodes, broken
//! tower/bucket bookkeeping) that fixed unit tests miss. Failures print a
//! root seed and a ddmin-minimized action sequence; replay with
//! `CDS_PROP_SEED=<seed> cargo test <name>`.
//!
//! The battery: each type's concurrent cases (racing and disjoint
//! inserts, mixed churn, large workouts, growth, no loss or duplication,
//! per-producer FIFO, exact totals), one function per type.

mod common;

use std::any::type_name;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use cds_atomic::stress::SplitMix64;
use cds_core::{
    ConcurrentCounter, ConcurrentMap, ConcurrentPriorityQueue, ConcurrentQueue, ConcurrentSet,
    ConcurrentStack,
};
use cds_lincheck::prop::{forall_vec, Config, Prng};

#[derive(Debug, Clone)]
enum SetAction {
    Insert(u16),
    Remove(u16),
    Contains(u16),
}

fn gen_set_action(rng: &mut Prng) -> SetAction {
    let key = rng.below(64) as u16;
    match rng.below(3) {
        0 => SetAction::Insert(key),
        1 => SetAction::Remove(key),
        _ => SetAction::Contains(key),
    }
}

fn run_set_model<S: ConcurrentSet<u16>>(_seed: u64, make: impl Fn() -> S, actions: &[SetAction]) {
    let set = make();
    let mut model = BTreeSet::new();
    for a in actions {
        match a {
            SetAction::Insert(k) => assert_eq!(set.insert(*k), model.insert(*k), "insert {k}"),
            SetAction::Remove(k) => assert_eq!(set.remove(k), model.remove(k), "remove {k}"),
            SetAction::Contains(k) => {
                assert_eq!(set.contains(k), model.contains(k), "contains {k}")
            }
        }
        assert_eq!(set.len(), model.len(), "len after {a:?}");
    }
}

#[test]
fn list_sets_match_btreeset() {
    forall_vec(
        &Config::new(64, 200),
        gen_set_action,
        |actions| sets!(lists: u16, run_set_model, actions),
    );
}

#[test]
fn skiplists_match_btreeset() {
    forall_vec(
        &Config::new(64, 200),
        gen_set_action,
        |actions| sets!(skiplists: u16, run_set_model, actions),
    );
}

#[test]
fn trees_match_btreeset() {
    forall_vec(
        &Config::new(64, 200),
        gen_set_action,
        |actions| sets!(trees: u16, run_set_model, actions),
    );
}

#[test]
fn hash_sets_match_btreeset() {
    forall_vec(
        &Config::new(64, 200),
        gen_set_action,
        |actions| sets!(hashed: u16, run_set_model, actions),
    );
}

/// `Some(v)` for a push or an enqueue of `v`, `None` for a pop or a
/// dequeue.
fn gen_put_or_take(rng: &mut Prng) -> Option<u32> {
    if rng.below(2) == 0 {
        Some(rng.next_u64() as u32)
    } else {
        None
    }
}

#[test]
fn stacks_match_vec() {
    fn check<S: ConcurrentStack<u32>>(_seed: u64, make: impl Fn() -> S, ops: &[Option<u32>]) {
        let s = make();
        let mut model = Vec::new();
        for op in ops {
            match op {
                Some(v) => {
                    s.push(*v);
                    model.push(*v);
                }
                None => assert_eq!(s.pop(), model.pop()),
            }
        }
        assert_eq!(s.is_empty(), model.is_empty());
    }
    forall_vec(&Config::new(64, 200), gen_put_or_take, |ops| {
        stacks!(u32, check, ops)
    });
}

#[test]
fn queues_match_vecdeque() {
    fn check<Q: ConcurrentQueue<u32>>(_seed: u64, make: impl Fn() -> Q, ops: &[Option<u32>]) {
        let q = make();
        let mut model = VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    q.enqueue(*v);
                    model.push_back(*v);
                }
                None => assert_eq!(q.dequeue(), model.pop_front()),
            }
        }
        assert_eq!(q.is_empty(), model.is_empty());
    }
    forall_vec(&Config::new(64, 200), gen_put_or_take, |ops| {
        queues!(u32, check, ops)
    });
}

#[test]
fn maps_match_hashmap() {
    fn check<M: ConcurrentMap<u16, u32>>(_seed: u64, make: impl Fn() -> M, ops: &[(u8, u16, u32)]) {
        let m = make();
        let mut model: HashMap<u16, u32> = HashMap::new();
        for (kind, k, v) in ops {
            match kind {
                0 => {
                    let inserted = if model.contains_key(k) {
                        false
                    } else {
                        model.insert(*k, *v);
                        true
                    };
                    assert_eq!(m.insert(*k, *v), inserted);
                }
                1 => assert_eq!(m.remove(k), model.remove(k).is_some()),
                _ => {
                    assert_eq!(m.get(k), model.get(k).copied());
                    assert_eq!(m.contains_key(k), model.contains_key(k));
                }
            }
        }
        assert_eq!(m.len(), model.len());
        assert_eq!(m.is_empty(), model.is_empty());
    }
    let gen = |rng: &mut Prng| {
        (
            rng.below(3) as u8,
            rng.below(64) as u16,
            rng.next_u64() as u32,
        )
    };
    forall_vec(&Config::new(64, 200), gen, |ops: &[(u8, u16, u32)]| {
        maps!(u16, u32, check, ops);
        check(0, crowded_resizing_map, ops);
    });
}

/// Sends every key to one of three hashes, so `ResizingMap` chains run
/// past their inline slots into the spill, and bucket moves carry spilled
/// chains.
#[derive(Clone, Default)]
struct ThreeHashes;

#[derive(Default)]
struct ThreeHasher(u64);

impl Hasher for ThreeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.wrapping_mul(31).wrapping_add(b as u64);
        }
    }
    fn finish(&self) -> u64 {
        self.0 % 3
    }
}

impl BuildHasher for ThreeHashes {
    type Hasher = ThreeHasher;
    fn build_hasher(&self) -> ThreeHasher {
        ThreeHasher::default()
    }
}

/// A one-shard, one-bucket `ResizingMap` on [`ThreeHashes`]: a second
/// geometry of a roster entry, checked by the map model only.
fn crowded_resizing_map() -> cds_map::ResizingMap<u16, u32, ThreeHashes> {
    cds_map::ResizingMap::with_config_and_hasher(1, 1, ThreeHashes)
}

#[test]
fn priority_queues_match_btreeset() {
    // Some(k) = insert k; None = remove_min.
    fn check<P: ConcurrentPriorityQueue<i64>>(
        _seed: u64,
        make: impl Fn() -> P,
        ops: &[Option<i64>],
    ) {
        let p = make();
        let mut model = BTreeSet::new();
        for op in ops {
            match op {
                Some(k) => assert_eq!(p.insert(*k), model.insert(*k)),
                None => assert_eq!(p.remove_min(), model.pop_first()),
            }
            assert_eq!(p.len(), model.len());
            assert_eq!(p.peek_min(), model.first().copied());
        }
    }
    let gen = |rng: &mut Prng| {
        if rng.below(3) < 2 {
            Some(rng.below(64) as i64)
        } else {
            None
        }
    };
    forall_vec(&Config::new(64, 200), gen, |ops: &[Option<i64>]| {
        priority_queues!(i64, check, ops)
    });
}

#[test]
fn seqlock_reads_equal_last_write() {
    let gen = |rng: &mut Prng| (rng.next_u64(), rng.next_u64());
    forall_vec(&Config::new(64, 50), gen, |writes: &[(u64, u64)]| {
        let lock = cds_sync::SeqLock::new((0u64, 0u64));
        for w in writes {
            lock.write(*w);
            assert_eq!(lock.read(), *w);
        }
        if let Some(last) = writes.last() {
            assert_eq!(lock.read(), *last);
        }
    });
}

// ---- The battery ----------------------------------------------------

const THREADS: u64 = 4;

/// Runs `body(t)` for every `t` in `0..n`, each on its own thread, all
/// released together, and returns the results in `t` order.
fn on_threads<R: Send>(n: u64, body: impl Fn(u64) -> R + Sync) -> Vec<R> {
    let start = Barrier::new(n as usize);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let (body, start) = (&body, &start);
                s.spawn(move || {
                    start.wait();
                    body(t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn wins(outcomes: Vec<bool>) -> usize {
    outcomes.into_iter().filter(|&won| won).count()
}

/// `0..n` in an order drawn from `seed`.
fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    keys
}

/// `THREADS` producers `put` `per_thread` values each, `t << 32 | i` for
/// the `i`-th of producer `t`, while `THREADS` consumers `take` until the
/// producers are done and a take comes back empty. Checks that every
/// value comes out exactly once (counting a final drain) and returns
/// each consumer's takes in the order it made them, the drain last.
fn no_loss_no_duplication<C: Sync>(
    c: &C,
    per_thread: u64,
    put: impl Fn(&C, u64) + Sync,
    take: impl Fn(&C) -> Option<u64> + Sync,
) -> Vec<Vec<u64>> {
    /// Counts a producer out even when its `put` panics, so that the
    /// consumers stop and the panic surfaces.
    struct Done<'a>(&'a AtomicU64);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let producing = AtomicU64::new(THREADS);
    let mut takes = on_threads(2 * THREADS, |t| {
        let mut got = Vec::new();
        if t < THREADS {
            let _done = Done(&producing);
            (0..per_thread).for_each(|i| put(c, t << 32 | i));
        } else {
            loop {
                match take(c) {
                    Some(v) => got.push(v),
                    None if producing.load(Ordering::SeqCst) == 0 => break,
                    None => std::thread::yield_now(),
                }
            }
        }
        got
    });
    takes.push(std::iter::from_fn(|| take(c)).collect());
    let mut all: Vec<u64> = takes.concat();
    all.sort_unstable();
    let want: Vec<u64> = (0..THREADS)
        .flat_map(|t| (0..per_thread).map(move |i| t << 32 | i))
        .collect();
    assert!(
        all == want,
        "{}: values lost or duplicated",
        type_name::<C>()
    );
    takes
}

/// Concurrent pushes and pops lose and duplicate nothing.
fn stack_battery<S: ConcurrentStack<u64>>(_seed: u64, make: impl Fn() -> S) {
    no_loss_no_duplication(&make(), 2_000, S::push, S::pop);
}

/// Concurrent enqueues and dequeues lose and duplicate nothing, and
/// every consumer sees each producer's values in the order they went in.
fn queue_battery<Q: ConcurrentQueue<u64>>(_seed: u64, make: impl Fn() -> Q) {
    for takes in no_loss_no_duplication(&make(), 2_000, Q::enqueue, Q::dequeue) {
        let mut next = [0; THREADS as usize];
        for v in takes {
            let (t, i) = ((v >> 32) as usize, v & 0xffff_ffff);
            assert!(i >= next[t], "{}: producer {t} out of order", Q::NAME);
            next[t] = i + 1;
        }
    }
}

/// Concurrent inserts and `remove_min`s lose and duplicate nothing.
fn priority_queue_battery<P: ConcurrentPriorityQueue<u64>>(_seed: u64, make: impl Fn() -> P) {
    let put = |p: &P, v| assert!(p.insert(v), "{}: distinct insert refused", P::NAME);
    no_loss_no_duplication(&make(), 250, put, P::remove_min);
}

/// Of four racing inserts of one key, then four removes, exactly one
/// wins; a mixed churn leaves `len` equal to a membership scan; and a
/// 2 000-key workout: four threads insert disjoint quarters of the keys
/// in shuffled order and remove a third of them, then the rest is torn
/// down in key order, every key's membership read on the way.
fn set_battery<S: ConcurrentSet<u64>>(_seed: u64, make: impl Fn() -> S) {
    let name = type_name::<S>();

    for _ in 0..8 {
        let s = make();
        assert_eq!(
            wins(on_threads(THREADS, |_| s.insert(42))),
            1,
            "{name}: insert race"
        );
        assert_eq!(
            wins(on_threads(THREADS, |_| s.remove(&42))),
            1,
            "{name}: remove race"
        );
    }

    let s = make();
    for k in (0..128).step_by(2) {
        s.insert(k);
    }
    on_threads(THREADS, |t| {
        let mut rng = SplitMix64::new(t);
        for _ in 0..500 {
            let x = rng.next_u64();
            let k = x % 128;
            match x % 3 {
                0 => s.insert(k),
                1 => s.remove(&k),
                _ => s.contains(&k),
            };
        }
    });
    let found = (0..128).filter(|k| s.contains(k)).count();
    assert_eq!(
        s.len(),
        found,
        "{name}: len disagrees with a membership scan"
    );

    let s = make();
    let keys = shuffled(2_000, 0x9e3779b97f4a7c15);
    let quarters: Vec<&[u64]> = keys.chunks(keys.len() / THREADS as usize).collect();
    on_threads(THREADS, |t| {
        for &k in quarters[t as usize] {
            assert!(s.insert(k), "{name}: disjoint insert of {k} refused");
        }
    });
    assert_eq!(s.len(), 2_000, "{name}: disjoint inserts lost");
    on_threads(THREADS, |t| {
        for &k in quarters[t as usize].iter().filter(|k| *k % 3 == 0) {
            assert!(s.remove(&k), "{name}: disjoint remove of {k} refused");
        }
    });
    assert_eq!(s.len(), 1_333, "{name}: disjoint removes lost");
    for k in 0..2_000 {
        assert_eq!(s.remove(&k), k % 3 != 0, "{name}: membership of {k}");
    }
    assert!(s.is_empty(), "{name}: not empty after the teardown");
}

/// Disjoint concurrent inserts all land with their values; of four
/// racing inserts of one key exactly one wins and its value stays, and
/// of four removes exactly one wins; 10 000 inserts grow an empty map.
fn map_battery<M: ConcurrentMap<u64, u64>>(_seed: u64, make: impl Fn() -> M) {
    let name = type_name::<M>();

    const PER_THREAD: u64 = 2_000;
    let m = make();
    on_threads(THREADS, |t| {
        for k in t * PER_THREAD..(t + 1) * PER_THREAD {
            assert!(m.insert(k, k + 1), "{name}: disjoint insert of {k} refused");
        }
    });
    assert_eq!(m.len() as u64, THREADS * PER_THREAD, "{name}");
    for k in 0..THREADS * PER_THREAD {
        assert_eq!(m.get(&k), Some(k + 1), "{name}: disjoint insert of {k}");
    }

    for round in 0..10 {
        let m = make();
        let won = on_threads(THREADS, |t| m.insert(round, t));
        let winner = won.iter().position(|&w| w).map(|t| t as u64);
        assert_eq!(wins(won), 1, "{name}: insert race");
        assert_eq!(m.get(&round), winner, "{name}: the winner's value");
        assert_eq!(
            wins(on_threads(THREADS, |_| m.remove(&round))),
            1,
            "{name}: remove race"
        );
    }

    let m = make();
    for i in 0..10_000 {
        assert!(m.insert(i, i * 2), "{name}: insert {i}");
    }
    assert_eq!(m.len(), 10_000, "{name}");
    for i in 0..10_000 {
        assert_eq!(m.get(&i), Some(i * 2), "{name}: key {i} lost in growth");
    }
}

/// Four threads each `increment` 5 000 times and `add(-3)` 5 000 times;
/// once they are joined, `get` reads the exact total.
fn counter_battery<C: ConcurrentCounter>(_seed: u64, make: impl Fn() -> C) {
    let c = make();
    on_threads(THREADS, |_| {
        for i in 0..10_000 {
            if i % 2 == 0 {
                c.increment();
            } else {
                c.add(-3);
            }
        }
    });
    assert_eq!(c.get(), -40_000, "{}", C::NAME);
}

#[test]
fn stacks_pass_the_battery() {
    stacks!(u64, stack_battery);
}

#[test]
fn queues_pass_the_battery() {
    queues!(u64, queue_battery);
}

#[test]
fn list_sets_pass_the_battery() {
    sets!(lists: u64, set_battery);
}

#[test]
fn skiplists_pass_the_battery() {
    sets!(skiplists: u64, set_battery);
}

#[test]
fn trees_pass_the_battery() {
    sets!(trees: u64, set_battery);
}

#[test]
fn hash_sets_pass_the_battery() {
    sets!(hashed: u64, set_battery);
}

#[test]
fn maps_pass_the_battery() {
    maps!(u64, u64, map_battery);
}

#[test]
fn priority_queues_pass_the_battery() {
    priority_queues!(u64, priority_queue_battery);
}

#[test]
fn counters_pass_the_battery() {
    counters!(counter_battery);
}
