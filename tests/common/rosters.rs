//! One roster per abstract type: the implementations a suite iterates.
//!
//! `stacks!(T, run, args..)` calls `run(seed, make, args..)` once per
//! stack, where `make` builds an empty stack of `T`; the other rosters
//! work alike (`maps!` takes a key and a value type, `counters!` none).
//! `seed` pins the entry's scheduled run in `tests/schedules.rs`: an
//! existing pair never changes, and a new entry takes a new seed. Each
//! row runs under a watchdog (`common::Watch`): a row still running after
//! 120 s prints its type and seed, then aborts the process.
//! `tests/atomics_lint.rs` checks that every `impl Concurrent… for X` in
//! `crates/*/src` is named here, in its trait's roster, and that a type
//! generic over `R: Reclaimer` is named under all four backends: `Ebr`
//! (the default, so its row names none), `Hazard`, `DebugReclaim` and
//! `Leak`. The backend is one more axis of the roster, and a suite that
//! iterates a roster runs every backend.
//!
//! `DebugReclaim` checks the retire discipline at two points: a second
//! retire of one node, and a `protect`/`protect_ptr` of a node retired
//! before the protecting guard began.
//!
//! The hashed rows (`BucketedHashSet` and every map) key their hasher
//! from OS entropy, so a seed names their schedule within one process
//! but does not replay it in another, until they take a seeded hasher
//! (ROADMAP item 10).
//!
//! A roster splits only where the promise differs, and an arm with no
//! selector runs every entry. One split crosses every roster: `Leak` never
//! frees what it retires, so a suite that audits frees selects `freeing`
//! (`stacks!(freeing: T, ..)`, `sets!(lists, freeing: T, ..)`,
//! `backends!(freeing: f, ..)`), which leaves the `Leak` rows out.

/// A `Leak` row, unless the suite selected `freeing`.
#[macro_export]
macro_rules! leak_row {
    (freeing; $row:expr) => {};
    (; $row:expr) => {
        $row
    };
}

/// One roster row: `run(seed, make, args..)` under the watchdog
/// (`common::Watch`), which names the row and aborts if it hangs.
#[macro_export]
macro_rules! row {
    ($seed:expr, $make:expr, $run:expr $(, $arg:expr)*) => {{
        let _watch = $crate::common::Watch::row($seed, &$make);
        $run($seed, $make $(, $arg)*);
    }};
}

/// Every reclamation backend: `backends!(f, base)` calls `f::<R>(base +
/// i)` for `Ebr`, `Hazard`, `Leak` and `DebugReclaim`, `i` counting from
/// 0 in that order, each under the watchdog. For a case that no roster
/// type covers (a channel, a deque, an executor) or that needs its own
/// geometry.
#[macro_export]
macro_rules! backends {
    (freeing: $($rest:tt)*) => { $crate::backends!(@rows freeing; $($rest)*) };
    (@rows $($mode:ident)?; $f:ident, $base:expr) => {{
        $crate::backends!(@row $f, cds_reclaim::Ebr, $base);
        $crate::backends!(@row $f, cds_reclaim::Hazard, $base + 1);
        $crate::leak_row!($($mode)?; $crate::backends!(@row $f, cds_reclaim::Leak, $base + 2));
        $crate::backends!(@row $f, cds_reclaim::DebugReclaim, $base + 3);
    }};
    (@row $f:ident, $r:ty, $seed:expr) => {{
        let name = format!("{}::<{}>", stringify!($f), std::any::type_name::<$r>());
        let _watch = $crate::common::Watch::named(name, $seed);
        $f::<$r>($seed);
    }};
    ($($rest:tt)*) => { $crate::backends!(@rows ; $($rest)*) };
}

/// Every `ConcurrentStack`.
#[macro_export]
macro_rules! stacks {
    (freeing: $($rest:tt)*) => { $crate::stacks!(@rows freeing; $($rest)*) };
    (@rows $($mode:ident)?; $t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::row!(0x57ac0, cds_stack::CoarseStack::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x57ac1, cds_stack::TreiberStack::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x57ac2, cds_stack::TreiberStack::<$t, cds_reclaim::Hazard>::default, $run $(, $arg)*);
        $crate::row!(0x57ac3, cds_stack::EliminationBackoffStack::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x57ac4, cds_stack::FcStack::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x57ac5, cds_stack::TreiberStack::<$t, cds_reclaim::DebugReclaim>::default, $run $(, $arg)*);
        $crate::leak_row!($($mode)?; $crate::row!(0x57ac6, cds_stack::TreiberStack::<$t, cds_reclaim::Leak>::default, $run $(, $arg)*));
    }};
    ($($rest:tt)*) => { $crate::stacks!(@rows ; $($rest)*) };
}

/// Every `ConcurrentQueue`. The bounded ring keeps its default 1024
/// slots: wherever more values are in flight, consumers run beside the
/// producers, so a full ring only makes an enqueue wait.
#[macro_export]
macro_rules! queues {
    (freeing: $($rest:tt)*) => { $crate::queues!(@rows freeing; $($rest)*) };
    (@rows $($mode:ident)?; $t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::row!(0x90e0, cds_queue::CoarseQueue::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x90e1, cds_queue::TwoLockQueue::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x90e2, cds_queue::MsQueue::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x90e6, cds_queue::MsQueue::<$t, cds_reclaim::Hazard>::default, $run $(, $arg)*);
        $crate::row!(0x90e7, cds_queue::MsQueue::<$t, cds_reclaim::DebugReclaim>::default, $run $(, $arg)*);
        $crate::leak_row!($($mode)?; $crate::row!(0x90e8, cds_queue::MsQueue::<$t, cds_reclaim::Leak>::default, $run $(, $arg)*));
        $crate::row!(0x90e3, cds_queue::BoundedQueue::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x90e4, cds_queue::FcQueue::<$t>::default, $run $(, $arg)*);
    }};
    ($($rest:tt)*) => { $crate::queues!(@rows ; $($rest)*) };
}

/// Every `ConcurrentSet`, by crate: `sets!(lists: T, ..)` runs one
/// crate's sets, so each suite keeps a `#[test]` per family (and the
/// families run in parallel); `sets!(T, ..)` runs them all. The lock-free
/// list, skiplist and tree take a blanket guard and call neither protect,
/// so their `DebugReclaim` rows check for double retire only.
#[macro_export]
macro_rules! sets {
    (lists $(, $mode:ident)?: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::row!(0x115e0, cds_list::CoarseList::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x115e1, cds_list::FineList::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x115e2, cds_list::OptimisticList::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x115e3, cds_list::LazyList::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x115e4, cds_list::HarrisMichaelList::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x115e5, cds_list::HarrisMichaelList::<$t, cds_reclaim::Hazard>::default, $run $(, $arg)*);
        $crate::row!(0x115e6, cds_list::HarrisMichaelList::<$t, cds_reclaim::DebugReclaim>::default, $run $(, $arg)*);
        $crate::leak_row!($($mode)?; $crate::row!(0x115e7, cds_list::HarrisMichaelList::<$t, cds_reclaim::Leak>::default, $run $(, $arg)*));
    }};
    (skiplists $(, $mode:ident)?: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::row!(0x5c1f0, cds_skiplist::CoarseSkipList::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x5c1f1, cds_skiplist::LazySkipList::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x5c1f2, cds_skiplist::LockFreeSkipList::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x5c1f3, cds_skiplist::LockFreeSkipList::<$t, cds_reclaim::Hazard>::default, $run $(, $arg)*);
        $crate::row!(0x5c1f4, cds_skiplist::LockFreeSkipList::<$t, cds_reclaim::DebugReclaim>::default, $run $(, $arg)*);
        $crate::leak_row!($($mode)?; $crate::row!(0x5c1f5, cds_skiplist::LockFreeSkipList::<$t, cds_reclaim::Leak>::default, $run $(, $arg)*));
    }};
    (trees $(, $mode:ident)?: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::row!(0x73ee0, cds_tree::CoarseBst::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x73ee1, cds_tree::FineBst::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x73ee2, cds_tree::LockFreeBst::<$t>::default, $run $(, $arg)*);
        $crate::row!(0x73ee3, cds_tree::LockFreeBst::<$t, cds_reclaim::Hazard>::default, $run $(, $arg)*);
        $crate::row!(0x73ee4, cds_tree::LockFreeBst::<$t, cds_reclaim::DebugReclaim>::default, $run $(, $arg)*);
        $crate::leak_row!($($mode)?; $crate::row!(0x73ee5, cds_tree::LockFreeBst::<$t, cds_reclaim::Leak>::default, $run $(, $arg)*));
    }};
    (hashed $(, $mode:ident)?: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::row!(0x3a73, cds_map::BucketedHashSet::<$t>::default, $run $(, $arg)*);
    }};
    (freeing: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::sets!(lists, freeing: $t, $run $(, $arg)*);
        $crate::sets!(skiplists, freeing: $t, $run $(, $arg)*);
        $crate::sets!(trees, freeing: $t, $run $(, $arg)*);
        $crate::sets!(hashed, freeing: $t, $run $(, $arg)*);
    }};
    ($t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::sets!(lists: $t, $run $(, $arg)*);
        $crate::sets!(skiplists: $t, $run $(, $arg)*);
        $crate::sets!(trees: $t, $run $(, $arg)*);
        $crate::sets!(hashed: $t, $run $(, $arg)*);
    }};
}

/// Every `ConcurrentMap`. The reclaimer-generic maps are built for a
/// backend through `with_reclaimer` (their `Default` is `Ebr`'s). Both
/// take a blanket guard and call neither protect, so their `DebugReclaim`
/// rows check for double retire only.
#[macro_export]
macro_rules! maps {
    (freeing: $($rest:tt)*) => { $crate::maps!(@rows freeing; $($rest)*) };
    (@rows $($mode:ident)?; $k:ty, $v:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::row!(0x3a70, cds_map::CoarseMap::<$k, $v>::default, $run $(, $arg)*);
        $crate::row!(0x3a71, cds_map::StripedHashMap::<$k, $v>::default, $run $(, $arg)*);
        $crate::row!(0x3a72, cds_map::SplitOrderedHashMap::<$k, $v>::default, $run $(, $arg)*);
        $crate::row!(0x3a75, cds_map::SplitOrderedHashMap::<$k, $v, std::collections::hash_map::RandomState, cds_reclaim::Hazard>::with_reclaimer, $run $(, $arg)*);
        $crate::row!(0x3a76, cds_map::SplitOrderedHashMap::<$k, $v, std::collections::hash_map::RandomState, cds_reclaim::DebugReclaim>::with_reclaimer, $run $(, $arg)*);
        $crate::leak_row!($($mode)?; $crate::row!(0x3a77, cds_map::SplitOrderedHashMap::<$k, $v, std::collections::hash_map::RandomState, cds_reclaim::Leak>::with_reclaimer, $run $(, $arg)*));
        $crate::row!(0x3a74, cds_map::ResizingMap::<$k, $v>::default, $run $(, $arg)*);
        $crate::row!(0x3a78, cds_map::ResizingMap::<$k, $v, std::collections::hash_map::RandomState, cds_reclaim::Hazard>::with_reclaimer, $run $(, $arg)*);
        $crate::row!(0x3a79, cds_map::ResizingMap::<$k, $v, std::collections::hash_map::RandomState, cds_reclaim::DebugReclaim>::with_reclaimer, $run $(, $arg)*);
        $crate::leak_row!($($mode)?; $crate::row!(0x3a7a, cds_map::ResizingMap::<$k, $v, std::collections::hash_map::RandomState, cds_reclaim::Leak>::with_reclaimer, $run $(, $arg)*));
    }};
    ($($rest:tt)*) => { $crate::maps!(@rows ; $($rest)*) };
}

/// Every `ConcurrentPriorityQueue`. Split by promise: the Lotan–Shavit
/// queue's `remove_min` is only quiescently consistent.
#[macro_export]
macro_rules! priority_queues {
    (linearizable: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::row!(0x60e0, cds_prio::CoarseBinaryHeap::<$t>::default, $run $(, $arg)*);
    }};
    (quiescent: $t:ty, $run:expr $(, $arg:expr)*) => {{
        $crate::row!(0x60e1, cds_prio::SkipListPriorityQueue::<$t>::default, $run $(, $arg)*);
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
        $crate::row!(0xc0e0, cds_counter::LockCounter::default, $run $(, $arg)*);
        $crate::row!(0xc0e1, cds_counter::AtomicCounter::default, $run $(, $arg)*);
        $crate::row!(0xc0e2, cds_counter::FcCounter::default, $run $(, $arg)*);
    }};
    (quiescent: $run:expr $(, $arg:expr)*) => {{
        $crate::row!(0xc0e3, cds_counter::ShardedCounter::default, $run $(, $arg)*);
        $crate::row!(0xc0e4, cds_counter::CombiningTreeCounter::default, $run $(, $arg)*);
    }};
    ($run:expr $(, $arg:expr)*) => {{
        $crate::counters!(linearizable: $run $(, $arg)*);
        $crate::counters!(quiescent: $run $(, $arg)*);
    }};
}
