//! One roster per abstract type: the implementations a suite iterates.
//!
//! `stacks!(T, run, args..)` calls `run(seed, make, args..)` once per
//! stack, where `make` builds an empty stack of `T`; the other rosters
//! work alike (`maps!` takes a key and a value type, `counters!` none).
//! `seed` pins the entry's scheduled run in `tests/schedules.rs`: an
//! existing pair never changes, and a new entry takes a new seed.
//! `tests/atomics_lint.rs` checks that every `impl Concurrent… for X` in
//! `crates/*/src` is named here, in its trait's roster.
//!
//! A roster splits only where the promise differs, and an arm with no
//! selector runs every entry.

/// Every `ConcurrentStack`.
#[macro_export]
macro_rules! stacks {
    ($t:ty, $run:expr $(, $arg:expr)*) => {{
        $run(0x57ac0, cds_stack::CoarseStack::<$t>::default $(, $arg)*);
        $run(0x57ac1, cds_stack::TreiberStack::<$t>::default $(, $arg)*);
        $run(0x57ac2, cds_stack::TreiberStack::<$t, cds_reclaim::Hazard>::default $(, $arg)*);
        $run(0x57ac3, cds_stack::EliminationBackoffStack::<$t>::default $(, $arg)*);
        $run(0x57ac4, cds_stack::FcStack::<$t>::default $(, $arg)*);
        $run(0x57ac5, cds_stack::TreiberStack::<$t, cds_reclaim::DebugReclaim>::default $(, $arg)*);
        $run(0x57ac6, cds_stack::TreiberStack::<$t, cds_reclaim::Leak>::default $(, $arg)*);
    }};
}

/// Every `ConcurrentQueue`. The bounded ring keeps its default 1024
/// slots: wherever more values are in flight, consumers run beside the
/// producers, so a full ring only makes an enqueue wait.
#[macro_export]
macro_rules! queues {
    ($t:ty, $run:expr $(, $arg:expr)*) => {{
        $run(0x90e0, cds_queue::CoarseQueue::<$t>::default $(, $arg)*);
        $run(0x90e1, cds_queue::TwoLockQueue::<$t>::default $(, $arg)*);
        $run(0x90e2, cds_queue::MsQueue::<$t>::default $(, $arg)*);
        $run(0x90e3, cds_queue::BoundedQueue::<$t>::default $(, $arg)*);
        $run(0x90e4, cds_queue::FcQueue::<$t>::default $(, $arg)*);
    }};
}

/// Every `ConcurrentSet`, by crate: `sets!(lists: T, ..)` runs one
/// crate's sets, so each suite keeps a `#[test]` per family (and the
/// families run in parallel); `sets!(T, ..)` runs them all.
#[macro_export]
macro_rules! sets {
    (lists: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $run(0x115e0, cds_list::CoarseList::<$t>::default $(, $arg)*);
        $run(0x115e1, cds_list::FineList::<$t>::default $(, $arg)*);
        $run(0x115e2, cds_list::OptimisticList::<$t>::default $(, $arg)*);
        $run(0x115e3, cds_list::LazyList::<$t>::default $(, $arg)*);
        $run(0x115e4, cds_list::HarrisMichaelList::<$t>::default $(, $arg)*);
    }};
    (skiplists: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $run(0x5c1f0, cds_skiplist::CoarseSkipList::<$t>::default $(, $arg)*);
        $run(0x5c1f1, cds_skiplist::LazySkipList::<$t>::default $(, $arg)*);
        $run(0x5c1f2, cds_skiplist::LockFreeSkipList::<$t>::default $(, $arg)*);
    }};
    (trees: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $run(0x73ee0, cds_tree::CoarseBst::<$t>::default $(, $arg)*);
        $run(0x73ee1, cds_tree::FineBst::<$t>::default $(, $arg)*);
        $run(0x73ee2, cds_tree::LockFreeBst::<$t>::default $(, $arg)*);
    }};
    (hashed: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $run(0x3a73, cds_map::BucketedHashSet::<$t>::default $(, $arg)*);
    }};
    ($t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::sets!(lists: $t, $run $(, $arg)*);
        $crate::sets!(skiplists: $t, $run $(, $arg)*);
        $crate::sets!(trees: $t, $run $(, $arg)*);
        $crate::sets!(hashed: $t, $run $(, $arg)*);
    }};
}

/// Every `ConcurrentMap`.
#[macro_export]
macro_rules! maps {
    ($k:ty, $v:ty, $run:expr $(, $arg:expr)*) => {{
        $run(0x3a70, cds_map::CoarseMap::<$k, $v>::default $(, $arg)*);
        $run(0x3a71, cds_map::StripedHashMap::<$k, $v>::default $(, $arg)*);
        $run(0x3a72, cds_map::SplitOrderedHashMap::<$k, $v>::default $(, $arg)*);
        $run(0x3a74, cds_map::ResizingMap::<$k, $v>::default $(, $arg)*);
    }};
}

/// Every `ConcurrentPriorityQueue`. Split by promise: the Lotan–Shavit
/// queue's `remove_min` is only quiescently consistent.
#[macro_export]
macro_rules! priority_queues {
    (linearizable: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $run(0x60e0, cds_prio::CoarseBinaryHeap::<$t>::default $(, $arg)*);
    }};
    (quiescent: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $run(0x60e1, cds_prio::SkipListPriorityQueue::<$t>::default $(, $arg)*);
    }};
    ($t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::priority_queues!(linearizable: $t, $run $(, $arg)*);
        $crate::priority_queues!(quiescent: $t, $run $(, $arg)*);
    }};
}

/// Every `ConcurrentCounter`. Split by promise: a sharded or combining
/// counter's `get` may miss in-flight adds (quiescently consistent).
#[macro_export]
macro_rules! counters {
    (linearizable: $run:expr $(, $arg:expr)*) => {{
        $run(0xc0e0, cds_counter::LockCounter::default $(, $arg)*);
        $run(0xc0e1, cds_counter::AtomicCounter::default $(, $arg)*);
        $run(0xc0e2, cds_counter::FcCounter::default $(, $arg)*);
    }};
    (quiescent: $run:expr $(, $arg:expr)*) => {{
        $run(0xc0e3, cds_counter::ShardedCounter::default $(, $arg)*);
        $run(0xc0e4, cds_counter::CombiningTreeCounter::default $(, $arg)*);
    }};
    ($run:expr $(, $arg:expr)*) => {{
        $crate::counters!(linearizable: $run $(, $arg)*);
        $crate::counters!(quiescent: $run $(, $arg)*);
    }};
}
