//! Sequential specifications for the family's abstract types.

use std::collections::{BTreeSet, VecDeque};

use crate::Spec;

/// Stack operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackOp<T> {
    /// Push a value.
    Push(T),
    /// Pop the top value.
    Pop,
}

/// Stack results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackRes<T> {
    /// A push completed.
    Pushed,
    /// What a pop returned.
    Popped(Option<T>),
}

/// Sequential LIFO stack.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct StackSpec<T> {
    items: Vec<T>,
}

impl<T: Clone + Eq + std::hash::Hash> Spec for StackSpec<T> {
    type Op = StackOp<T>;
    type Res = StackRes<T>;

    fn apply(&mut self, op: &StackOp<T>) -> StackRes<T> {
        match op {
            StackOp::Push(v) => {
                self.items.push(v.clone());
                StackRes::Pushed
            }
            StackOp::Pop => StackRes::Popped(self.items.pop()),
        }
    }
}

/// Queue operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueOp<T> {
    /// Enqueue at the tail.
    Enqueue(T),
    /// Dequeue from the head.
    Dequeue,
}

/// Queue results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueRes<T> {
    /// An enqueue completed.
    Enqueued,
    /// What a dequeue returned.
    Dequeued(Option<T>),
}

/// Sequential FIFO queue.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct QueueSpec<T> {
    items: VecDeque<T>,
}

impl<T: Clone + Eq + std::hash::Hash> Spec for QueueSpec<T> {
    type Op = QueueOp<T>;
    type Res = QueueRes<T>;

    fn apply(&mut self, op: &QueueOp<T>) -> QueueRes<T> {
        match op {
            QueueOp::Enqueue(v) => {
                self.items.push_back(v.clone());
                QueueRes::Enqueued
            }
            QueueOp::Dequeue => QueueRes::Dequeued(self.items.pop_front()),
        }
    }
}

/// Work-stealing deque operations (Chase–Lev): the owner pushes and pops
/// at the bottom; thieves steal from the top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DequeOp<T> {
    /// Owner pushes at the bottom (the LIFO end).
    PushBottom(T),
    /// Owner pops from the bottom.
    PopBottom,
    /// A thief steals from the top (the FIFO end).
    Steal,
}

/// Work-stealing deque results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DequeRes<T> {
    /// A push completed.
    Pushed,
    /// What the owner's pop returned.
    Popped(Option<T>),
    /// What a steal returned (`None` = observed empty).
    Stolen(Option<T>),
}

/// Sequential work-stealing deque: owner end is LIFO, thief end is FIFO.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct DequeSpec<T> {
    items: VecDeque<T>,
}

impl<T: Clone + PartialEq + Eq + std::hash::Hash> Spec for DequeSpec<T> {
    type Op = DequeOp<T>;
    type Res = DequeRes<T>;

    fn apply(&mut self, op: &DequeOp<T>) -> DequeRes<T> {
        match op {
            DequeOp::PushBottom(v) => {
                self.items.push_back(v.clone());
                DequeRes::Pushed
            }
            DequeOp::PopBottom => DequeRes::Popped(self.items.pop_back()),
            DequeOp::Steal => DequeRes::Stolen(self.items.pop_front()),
        }
    }
}

/// Set (dictionary) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetOp<T> {
    /// Insert-if-absent.
    Insert(T),
    /// Remove-if-present.
    Remove(T),
    /// Membership query.
    Contains(T),
}

/// Sequential ordered set with dictionary semantics; results are `bool`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SetSpec<T: Ord> {
    items: BTreeSet<T>,
}

impl<T: Ord + Clone + std::hash::Hash> Spec for SetSpec<T> {
    type Op = SetOp<T>;
    type Res = bool;

    fn apply(&mut self, op: &SetOp<T>) -> bool {
        match op {
            SetOp::Insert(v) => self.items.insert(v.clone()),
            SetOp::Remove(v) => self.items.remove(v),
            SetOp::Contains(v) => self.items.contains(v),
        }
    }
}

/// Map (dictionary) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapOp<K, V> {
    /// Insert-if-absent.
    Insert(K, V),
    /// Remove-if-present.
    Remove(K),
    /// Lookup.
    Get(K),
    /// Membership test.
    ContainsKey(K),
    /// Entry count — included so resize tests can pin down `len`'s
    /// linearization point while buckets are mid-migration. Only generate
    /// it against maps whose `len` *is* linearizable (a single counter
    /// updated inside the operation's critical section); quiescently
    /// consistent counters like the split-ordered map's will legitimately
    /// fail.
    Len,
}

/// Map results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapRes<V> {
    /// Whether an insert or remove took effect.
    Changed(bool),
    /// What a get returned.
    Got(Option<V>),
    /// What a membership test returned.
    Has(bool),
    /// What `len` returned.
    Len(usize),
}

/// Sequential map with insert-if-absent semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct MapSpec<K: Ord, V> {
    items: std::collections::BTreeMap<K, V>,
}

impl<K: Ord, V> MapSpec<K, V> {
    /// A spec whose abstract state starts with `items` already present.
    ///
    /// For windows whose structure is pre-filled during `setup`: the
    /// setup operations are not part of the recorded history, so the
    /// spec's initial state must match the structure's.
    pub fn prefilled(items: impl IntoIterator<Item = (K, V)>) -> Self {
        MapSpec {
            items: items.into_iter().collect(),
        }
    }
}

impl<K: Ord + Clone + std::hash::Hash, V: Clone + Eq + std::hash::Hash> Spec for MapSpec<K, V> {
    type Op = MapOp<K, V>;
    type Res = MapRes<V>;

    fn apply(&mut self, op: &MapOp<K, V>) -> MapRes<V> {
        match op {
            MapOp::Insert(k, v) => {
                if self.items.contains_key(k) {
                    MapRes::Changed(false)
                } else {
                    self.items.insert(k.clone(), v.clone());
                    MapRes::Changed(true)
                }
            }
            MapOp::Remove(k) => MapRes::Changed(self.items.remove(k).is_some()),
            MapOp::Get(k) => MapRes::Got(self.items.get(k).cloned()),
            MapOp::ContainsKey(k) => MapRes::Has(self.items.contains_key(k)),
            MapOp::Len => MapRes::Len(self.items.len()),
        }
    }
}

/// Min-priority-queue operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PqOp<T> {
    /// Insert-if-absent.
    Insert(T),
    /// Remove and return the minimum.
    RemoveMin,
}

/// Priority-queue results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PqRes<T> {
    /// Whether an insert took effect.
    Inserted(bool),
    /// What remove-min returned.
    Removed(Option<T>),
}

/// Sequential min-priority queue (set-like: duplicates rejected).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PqSpec<T: Ord> {
    items: BTreeSet<T>,
}

impl<T: Ord + Clone + std::hash::Hash> Spec for PqSpec<T> {
    type Op = PqOp<T>;
    type Res = PqRes<T>;

    fn apply(&mut self, op: &PqOp<T>) -> PqRes<T> {
        match op {
            PqOp::Insert(v) => PqRes::Inserted(self.items.insert(v.clone())),
            PqOp::RemoveMin => {
                let min = self.items.iter().next().cloned();
                if let Some(m) = &min {
                    self.items.remove(m);
                }
                PqRes::Removed(min)
            }
        }
    }
}

/// Counter operations (results are the counter value for `Get`, `0` for
/// `Add` — a placeholder since `add` returns nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CounterOp {
    /// Add a delta.
    Add(i64),
    /// Read the value.
    Get,
}

/// Sequential counter; results are `i64`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CounterSpec {
    value: i64,
}

impl Spec for CounterSpec {
    type Op = CounterOp;
    type Res = i64;

    fn apply(&mut self, op: &CounterOp) -> i64 {
        match op {
            CounterOp::Add(d) => {
                self.value += d;
                0
            }
            CounterOp::Get => self.value,
        }
    }
}

/// Eventcount (gate) operations, modelling the prepare/re-check/commit
/// protocol of `cds_sync::Parker`: a `Signal` publishes a flag and
/// wakes waiters; an `Await` announces intent to sleep (`prepare`),
/// re-checks the flag, and either commits to having been woken or backs
/// out (`cancel`). `Await` never actually blocks — bounded windows need
/// every operation to return — so its result reports what the re-check
/// observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventcountOp {
    /// Set the flag, then wake all prepared waiters.
    Signal,
    /// Prepare to wait, re-check the flag, back out.
    Await,
}

/// Eventcount results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventcountRes {
    /// A signal completed.
    Signaled,
    /// The re-check observed the flag: this await would have returned
    /// immediately (or been woken) rather than slept.
    Woken,
    /// The re-check observed no flag: this await would have slept. Legal
    /// only while no `Signal` has linearized before it — an `Await` that
    /// returns `WouldBlock` *after* a completed `Signal` is exactly a
    /// lost wakeup.
    WouldBlock,
}

/// Sequential eventcount: one latch-like flag.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct EventcountSpec {
    signaled: bool,
}

impl Spec for EventcountSpec {
    type Op = EventcountOp;
    type Res = EventcountRes;

    fn apply(&mut self, op: &EventcountOp) -> EventcountRes {
        match op {
            EventcountOp::Signal => {
                self.signaled = true;
                EventcountRes::Signaled
            }
            EventcountOp::Await => {
                if self.signaled {
                    EventcountRes::Woken
                } else {
                    EventcountRes::WouldBlock
                }
            }
        }
    }
}

/// Channel operations, modelling `cds_chan`'s MPMC channel: FIFO buffer
/// (optionally capacity-bounded), a sticky closed flag, and two-phase
/// close semantics (send-after-close disconnects, recv-after-close
/// drains residual messages before reporting closed).
///
/// Blocking operations are modelled atomically: a `Send` on a full open
/// channel or a `Recv` on an empty open channel yields
/// [`ChanRes::WouldBlock`] from the spec — a result no *completed*
/// operation ever records — so a history in which such an operation
/// completed anyway (e.g. a receiver that reported `Closed` while an
/// `Ok`-sent message was still in the buffer) admits no linearization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChanOp {
    /// Blocking send of a value.
    Send(u32),
    /// Non-blocking send of a value.
    TrySend(u32),
    /// Blocking receive.
    Recv,
    /// Non-blocking receive.
    TryRecv,
    /// Close the channel (idempotent; result records whether this call
    /// made the transition).
    Close,
}

/// Channel results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChanRes {
    /// A send completed.
    Sent,
    /// A send (of either flavor) observed the channel closed.
    Disconnected,
    /// A `TrySend` observed a full buffer.
    Full,
    /// A receive delivered this value.
    Received(u32),
    /// A `TryRecv` observed an open, empty channel.
    Empty,
    /// A receive observed the channel closed *and* drained.
    Closed,
    /// The operation would have parked at this linearization point;
    /// legal for no completed operation (see the type docs).
    WouldBlock,
    /// A `Close` completed; `true` iff it performed the transition.
    CloseDone(bool),
}

/// Sequential MPMC channel with close semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ChannelSpec {
    buffer: VecDeque<u32>,
    closed: bool,
    capacity: Option<usize>,
}

impl ChannelSpec {
    /// An unbounded channel (sends never block).
    pub fn unbounded() -> Self {
        ChannelSpec::default()
    }

    /// A channel bounded at `capacity` messages. Match this to the
    /// *real* capacity of the structure under test
    /// (`cds_chan::Channel::capacity`), which rounds up to a power of
    /// two of at least 2.
    pub fn bounded(capacity: usize) -> Self {
        ChannelSpec {
            capacity: Some(capacity),
            ..ChannelSpec::default()
        }
    }

    fn full(&self) -> bool {
        self.capacity.is_some_and(|c| self.buffer.len() >= c)
    }
}

impl Spec for ChannelSpec {
    type Op = ChanOp;
    type Res = ChanRes;

    fn apply(&mut self, op: &ChanOp) -> ChanRes {
        match op {
            ChanOp::Send(v) => {
                if self.closed {
                    ChanRes::Disconnected
                } else if self.full() {
                    ChanRes::WouldBlock
                } else {
                    self.buffer.push_back(*v);
                    ChanRes::Sent
                }
            }
            ChanOp::TrySend(v) => {
                if self.closed {
                    ChanRes::Disconnected
                } else if self.full() {
                    ChanRes::Full
                } else {
                    self.buffer.push_back(*v);
                    ChanRes::Sent
                }
            }
            ChanOp::Recv => match self.buffer.pop_front() {
                Some(v) => ChanRes::Received(v),
                None if self.closed => ChanRes::Closed,
                None => ChanRes::WouldBlock,
            },
            ChanOp::TryRecv => match self.buffer.pop_front() {
                Some(v) => ChanRes::Received(v),
                None if self.closed => ChanRes::Closed,
                None => ChanRes::Empty,
            },
            ChanOp::Close => {
                let was = self.closed;
                self.closed = true;
                ChanRes::CloseDone(!was)
            }
        }
    }
}

/// Register operations (results are the read value for `Read`, `0` for
/// `Write`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterOp {
    /// Store a value.
    Write(i64),
    /// Load the value.
    Read,
}

/// Sequential read/write register; results are `i64`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RegisterSpec {
    value: i64,
}

impl Spec for RegisterSpec {
    type Op = RegisterOp;
    type Res = i64;

    fn apply(&mut self, op: &RegisterOp) -> i64 {
        match op {
            RegisterOp::Write(v) => {
                self.value = *v;
                0
            }
            RegisterOp::Read => self.value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Spec;

    #[test]
    fn stack_spec_is_lifo() {
        let mut s = StackSpec::default();
        s.apply(&StackOp::Push(1));
        s.apply(&StackOp::Push(2));
        assert_eq!(s.apply(&StackOp::Pop), StackRes::Popped(Some(2)));
        assert_eq!(s.apply(&StackOp::Pop), StackRes::Popped(Some(1)));
        assert_eq!(s.apply(&StackOp::Pop), StackRes::Popped(None));
    }

    #[test]
    fn map_spec_insert_if_absent() {
        let mut m = MapSpec::default();
        assert_eq!(m.apply(&MapOp::Insert(1, "a")), MapRes::Changed(true));
        assert_eq!(m.apply(&MapOp::Insert(1, "b")), MapRes::Changed(false));
        assert_eq!(m.apply(&MapOp::Get(1)), MapRes::Got(Some("a")));
    }

    #[test]
    fn pq_spec_returns_minimum() {
        let mut p = PqSpec::default();
        p.apply(&PqOp::Insert(5));
        p.apply(&PqOp::Insert(2));
        assert_eq!(p.apply(&PqOp::RemoveMin), PqRes::Removed(Some(2)));
    }

    #[test]
    fn channel_spec_two_phase_close() {
        let mut c = ChannelSpec::unbounded();
        assert_eq!(c.apply(&ChanOp::Send(1)), ChanRes::Sent);
        assert_eq!(c.apply(&ChanOp::Send(2)), ChanRes::Sent);
        assert_eq!(c.apply(&ChanOp::Close), ChanRes::CloseDone(true));
        assert_eq!(c.apply(&ChanOp::Close), ChanRes::CloseDone(false));
        assert_eq!(c.apply(&ChanOp::Send(3)), ChanRes::Disconnected);
        // Residual messages drain before Closed is ever reported.
        assert_eq!(c.apply(&ChanOp::Recv), ChanRes::Received(1));
        assert_eq!(c.apply(&ChanOp::TryRecv), ChanRes::Received(2));
        assert_eq!(c.apply(&ChanOp::Recv), ChanRes::Closed);
        assert_eq!(c.apply(&ChanOp::TryRecv), ChanRes::Closed);
    }

    #[test]
    fn channel_spec_bounded_blocks_and_fills() {
        let mut c = ChannelSpec::bounded(2);
        assert_eq!(c.apply(&ChanOp::TrySend(1)), ChanRes::Sent);
        assert_eq!(c.apply(&ChanOp::Send(2)), ChanRes::Sent);
        assert_eq!(c.apply(&ChanOp::TrySend(3)), ChanRes::Full);
        assert_eq!(c.apply(&ChanOp::Send(3)), ChanRes::WouldBlock);
        assert_eq!(c.apply(&ChanOp::TryRecv), ChanRes::Received(1));
        assert_eq!(c.apply(&ChanOp::Send(3)), ChanRes::Sent);
        // Blocking recv on an open empty channel has no completed result.
        let mut empty = ChannelSpec::bounded(2);
        assert_eq!(empty.apply(&ChanOp::Recv), ChanRes::WouldBlock);
        assert_eq!(empty.apply(&ChanOp::TryRecv), ChanRes::Empty);
    }
}
