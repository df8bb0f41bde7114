//! Property-based tests on core invariants, driven by the in-tree seeded
//! harness (`cds_lincheck::prop`).
//!
//! Sequential equivalence: under *any* sequence of operations, every
//! concurrent implementation used single-threaded must behave exactly like
//! the obvious `std` model. This catches structural bugs (lost nodes,
//! broken tower/bucket bookkeeping) that fixed unit tests miss. Failures
//! print a root seed and a ddmin-minimized action sequence; replay with
//! `CDS_PROP_SEED=<seed> cargo test <name>`.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};

use cds_core::{
    ConcurrentMap, ConcurrentPriorityQueue, ConcurrentQueue, ConcurrentSet, ConcurrentStack,
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

fn run_set_model<S: ConcurrentSet<u16> + Default>(actions: &[SetAction]) {
    let set = S::default();
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
    forall_vec(&Config::new(64, 200), gen_set_action, |actions| {
        run_set_model::<cds_list::CoarseList<u16>>(actions);
        run_set_model::<cds_list::FineList<u16>>(actions);
        run_set_model::<cds_list::OptimisticList<u16>>(actions);
        run_set_model::<cds_list::LazyList<u16>>(actions);
        run_set_model::<cds_list::HarrisMichaelList<u16>>(actions);
    });
}

#[test]
fn skiplists_match_btreeset() {
    forall_vec(&Config::new(64, 200), gen_set_action, |actions| {
        run_set_model::<cds_skiplist::CoarseSkipList<u16>>(actions);
        run_set_model::<cds_skiplist::LazySkipList<u16>>(actions);
        run_set_model::<cds_skiplist::LockFreeSkipList<u16>>(actions);
    });
}

#[test]
fn trees_match_btreeset() {
    forall_vec(&Config::new(64, 200), gen_set_action, |actions| {
        run_set_model::<cds_tree::CoarseBst<u16>>(actions);
        run_set_model::<cds_tree::FineBst<u16>>(actions);
        run_set_model::<cds_tree::LockFreeBst<u16>>(actions);
    });
}

#[test]
fn stacks_match_vec() {
    // Some(v) = push v; None = pop (interleaved, unlike fixed phases).
    fn check<S: ConcurrentStack<u32> + Default>(ops: &[Option<u32>]) {
        let s = S::default();
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
    let gen = |rng: &mut Prng| {
        if rng.below(2) == 0 {
            Some(rng.next_u64() as u32)
        } else {
            None
        }
    };
    forall_vec(&Config::new(64, 200), gen, |ops: &[Option<u32>]| {
        check::<cds_stack::CoarseStack<u32>>(ops);
        check::<cds_stack::TreiberStack<u32>>(ops);
        check::<cds_stack::TreiberStack<u32, cds_reclaim::Hazard>>(ops);
        check::<cds_stack::TreiberStack<u32, cds_reclaim::DebugReclaim>>(ops);
        check::<cds_stack::EliminationBackoffStack<u32>>(ops);
        check::<cds_stack::FcStack<u32>>(ops);
    });
}

#[test]
fn queues_match_vecdeque() {
    // Some(v) = enqueue v; None = dequeue.
    fn check<Q: ConcurrentQueue<u32> + Default>(ops: &[Option<u32>]) {
        let q = Q::default();
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
    let gen = |rng: &mut Prng| {
        if rng.below(2) == 0 {
            Some(rng.next_u64() as u32)
        } else {
            None
        }
    };
    forall_vec(&Config::new(64, 200), gen, |ops: &[Option<u32>]| {
        check::<cds_queue::CoarseQueue<u32>>(ops);
        check::<cds_queue::TwoLockQueue<u32>>(ops);
        check::<cds_queue::MsQueue<u32>>(ops);
        check::<cds_queue::BoundedQueue<u32>>(ops);
        check::<cds_queue::FcQueue<u32>>(ops);
    });
}

#[test]
fn maps_match_hashmap() {
    fn check<M: ConcurrentMap<u16, u32> + Default>(ops: &[(u8, u16, u32)]) {
        let m = M::default();
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
                _ => assert_eq!(m.get(k), model.get(k).copied()),
            }
        }
        assert_eq!(m.len(), model.len());
    }
    let gen = |rng: &mut Prng| {
        (
            rng.below(3) as u8,
            rng.below(64) as u16,
            rng.next_u64() as u32,
        )
    };
    forall_vec(&Config::new(64, 200), gen, |ops: &[(u8, u16, u32)]| {
        check::<cds_map::CoarseMap<u16, u32>>(ops);
        check::<cds_map::StripedHashMap<u16, u32>>(ops);
        check::<cds_map::SplitOrderedHashMap<u16, u32>>(ops);
        check::<cds_map::ResizingMap<u16, u32>>(ops);
        check::<CrowdedResizingMap>(ops);
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

/// A one-shard, one-bucket `ResizingMap` on [`ThreeHashes`].
struct CrowdedResizingMap(cds_map::ResizingMap<u16, u32, ThreeHashes>);

impl Default for CrowdedResizingMap {
    fn default() -> Self {
        CrowdedResizingMap(cds_map::ResizingMap::with_config_and_hasher(
            1,
            1,
            ThreeHashes,
        ))
    }
}

impl ConcurrentMap<u16, u32> for CrowdedResizingMap {
    const NAME: &'static str = "resizing (three hashes)";

    fn insert(&self, key: u16, value: u32) -> bool {
        self.0.insert(key, value)
    }
    fn remove(&self, key: &u16) -> bool {
        self.0.remove(key)
    }
    fn get(&self, key: &u16) -> Option<u32> {
        self.0.get(key)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

#[test]
fn priority_queues_match_btreeset() {
    // Some(k) = insert k; None = remove_min.
    fn check<P: ConcurrentPriorityQueue<i64> + Default>(ops: &[Option<i64>]) {
        let p = P::default();
        let mut model = BTreeSet::new();
        for op in ops {
            match op {
                Some(k) => assert_eq!(p.insert(*k), model.insert(*k)),
                None => {
                    let want = model.iter().next().copied();
                    if let Some(w) = want {
                        model.remove(&w);
                    }
                    assert_eq!(p.remove_min(), want);
                }
            }
            assert_eq!(p.len(), model.len());
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
        check::<cds_prio::CoarseBinaryHeap<i64>>(ops);
        check::<cds_prio::SkipListPriorityQueue<i64>>(ops);
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
