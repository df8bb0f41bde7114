//! Blocking MPMC channels composed from the `cds` structure zoo — the
//! coordination layer real services sit on top of, built from parts the
//! repository already audits: [`cds_queue::BoundedQueue`] (Vyukov ring)
//! or [`cds_queue::MsQueue`] (Michael–Scott, generic over the
//! reclamation backend) as the buffer, and the [`cds_sync::Parker`]
//! eventcount the work-stealing executor also parks on for blocking
//! `send`/`recv`.
//!
//! # Close protocol (two-phase)
//!
//! [`Channel::close`] is a `swap` on the closed flag followed by an
//! unconditional wake of every parked sender, receiver, and select
//! waiter. After close:
//!
//! * senders observe `closed` inside their send window and get
//!   [`SendError::Disconnected`] with the message handed back;
//! * receivers **drain** residual messages first and only then see
//!   [`RecvError::Closed`] — close never strands a delivered message.
//!
//! The subtle race is a sender that read `closed == false` and is about
//! to publish while a receiver concurrently finds the buffer empty and
//! the flag set: returning `Closed` there would strand the in-flight
//! message (the send already returned `Ok`). The channel closes the
//! window with an **in-flight window counter**: a sender increments
//! `inflight` (`SeqCst`), *then* checks the flag, publishes, and
//! decrements; a receiver may report `Closed` only after it observes, in
//! order, an empty buffer, the closed flag, `inflight == 0`, and — the
//! step the planted regression removes — **one final dequeue** that is
//! still empty. While `inflight != 0` the receiver *spins* (each
//! sender's window is a handful of instructions with no parking) rather
//! than report `Empty`: a receive that has seen the closed flag must
//! answer `Received` or `Closed`, since `Empty` after `close` has
//! returned admits no linearization. In the `SeqCst` total order,
//! `inflight == 0` means every sender either completed its publish
//! (visible to the final dequeue) or will increment later and then see
//! the flag, so no interleaving lets `Ok`-sent data vanish.
//!
//! # Wait/wake pairing
//!
//! Every blocking path is a [`Parker::wait_until`] or
//! [`Parker::park_unless`] round with the failed operation re-run as the
//! re-check, and every wake path is a [`Parker::notify`] after its state
//! change; the protocol and its lost-wakeup argument are described
//! once, in the module docs of `crates/sync/src/parker.rs`.
//!
//! # Select
//!
//! [`Select`] blocks on a fixed set of channels. Registration is a
//! per-channel waiter list; a sender that publishes a message elects at
//! most one select waiter by CASing its `committed` slot from `OPEN` to
//! the channel's index in that waiter's set and waking exactly the
//! winner (the single-winner commit rule). A woken — or spuriously
//! committed — waiter always re-polls before trusting the commit, so a
//! message stolen by a direct `recv` in the meantime just re-parks the
//! select.
//!
//! # Example
//!
//! ```
//! use std::thread;
//!
//! let ch = cds_chan::bounded::<u32>(4);
//! let tx = ch.clone();
//! let producer = thread::spawn(move || {
//!     for i in 0..100 {
//!         tx.send(i).unwrap();
//!     }
//!     tx.close();
//! });
//! let mut sum = 0u32;
//! while let Ok(v) = ch.recv() {
//!     sum += v;
//! }
//! producer.join().unwrap();
//! assert_eq!(sum, (0..100).sum());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use cds_atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cds_core::stress::{self, armed, Fault};
use cds_core::ConcurrentQueue;
use cds_obs::Event;
use cds_queue::{BoundedQueue, MsQueue};
use cds_reclaim::{Ebr, Reclaimer};
use cds_sync::{Parked, Parker};

/// Error returned by [`Channel::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError<T> {
    /// The channel was closed; the unsent message is handed back.
    Disconnected(T),
}

/// Error returned by [`Channel::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// A bounded channel is at capacity; the message is handed back.
    Full(T),
    /// The channel was closed; the message is handed back.
    Disconnected(T),
}

/// Error returned by [`Channel::send_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The timeout elapsed with the channel still full.
    Timeout(T),
    /// The channel was closed; the message is handed back.
    Disconnected(T),
}

/// Error returned by [`Channel::recv`] and [`Select::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The channel is closed **and** fully drained; no message will ever
    /// arrive again.
    Closed,
}

/// Error returned by [`Channel::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message available right now, but the channel is still open
    /// (or a sender is mid-publish).
    Empty,
    /// The channel is closed and fully drained.
    Closed,
}

/// Error returned by [`Channel::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with no message.
    Timeout,
    /// The channel is closed and fully drained.
    Closed,
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a closed channel")
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on a closed and drained channel")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}
impl std::error::Error for RecvError {}

/// The buffer behind a channel: a Vyukov ring for [`bounded`] channels,
/// a Michael–Scott queue (generic over the reclamation backend) for
/// [`unbounded`] ones.
// The size gap (the ring's cache-padded cursors vs two pointers) is
// irrelevant here: exactly one `Buffer` exists per channel, inside the
// shared `Arc`, and boxing the ring would put an extra indirection on
// the bounded hot path.
#[allow(clippy::large_enum_variant)]
enum Buffer<T: Send + 'static, R: Reclaimer> {
    Bounded(BoundedQueue<T>),
    Unbounded(MsQueue<T, R>),
}

impl<T: Send + 'static, R: Reclaimer> Buffer<T, R> {
    fn try_enqueue(&self, value: T) -> Result<(), T> {
        match self {
            Buffer::Bounded(q) => q.try_enqueue(value),
            Buffer::Unbounded(q) => {
                q.enqueue(value);
                Ok(())
            }
        }
    }

    fn try_dequeue(&self) -> Option<T> {
        match self {
            Buffer::Bounded(q) => q.try_dequeue(),
            Buffer::Unbounded(q) => q.dequeue(),
        }
    }

    fn capacity(&self) -> Option<usize> {
        match self {
            Buffer::Bounded(q) => Some(q.capacity()),
            Buffer::Unbounded(_) => None,
        }
    }

    fn len(&self) -> usize {
        match self {
            Buffer::Bounded(q) => q.len(),
            // The Michael-Scott queue keeps no count; emptiness is all it
            // can answer. Channels report 0/1 as a hint only.
            Buffer::Unbounded(q) => usize::from(!q.is_empty()),
        }
    }
}

/// A registered select waiter: `committed` is [`SELECT_OPEN`] while the
/// waiter is up for election; a publishing sender CASes it to the
/// channel's index in the waiter's set and wakes the parker.
struct SelectWaiter {
    committed: AtomicUsize,
    parker: Parker,
}

const SELECT_OPEN: usize = usize::MAX;

struct Inner<T: Send + 'static, R: Reclaimer> {
    buffer: Buffer<T, R>,
    closed: AtomicBool,
    /// Senders inside their check-flag-then-publish window; the receiver
    /// side of the close protocol (see the crate docs) may only report
    /// `Closed` after observing this at zero.
    inflight: AtomicUsize,
    /// Model counters for conservation checks: every successful send /
    /// receive, independent of the telemetry feature.
    sent: AtomicU64,
    received: AtomicU64,
    /// Eventcount bounded senders park on when the ring is full.
    send_parker: Parker,
    /// Eventcount receivers park on when the buffer is empty.
    recv_parker: Parker,
    /// Fast-path guard for [`Inner::notify_select`]: number of
    /// registered select waiters (tracked outside the mutex so senders
    /// skip it entirely when no select is pending).
    select_count: AtomicUsize,
    /// Registered select waiters, each tagged with this channel's index
    /// in that waiter's channel set.
    select_waiters: Mutex<Vec<(usize, Arc<SelectWaiter>)>>,
}

impl<T: Send + 'static, R: Reclaimer> Inner<T, R> {
    /// One non-blocking send attempt under the in-flight window
    /// protocol; the building block for every send variant.
    fn try_send_inner(&self, value: T) -> Result<(), TrySendError<T>> {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        stress::yield_point();
        if self.closed.load(Ordering::SeqCst) {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(TrySendError::Disconnected(value));
        }
        stress::yield_point();
        match self.buffer.try_enqueue(value) {
            Ok(()) => {
                self.sent.fetch_add(1, Ordering::SeqCst);
                cds_obs::count(Event::ChanSends);
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                stress::yield_point();
                self.recv_parker.notify();
                self.notify_select();
                Ok(())
            }
            Err(value) => {
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                Err(TrySendError::Full(value))
            }
        }
    }

    /// One non-blocking receive attempt, including the closed-path final
    /// drain; the building block for every recv variant (and for
    /// [`Select`]).
    ///
    /// `Empty` is only ever returned while the channel is observably
    /// *open*: once this attempt has seen `closed`, reporting `Empty`
    /// would not be linearizable (a `try_recv` that starts after
    /// `close` returned must answer `Received` or `Closed`). So when
    /// senders are still in flight we spin — their critical section is
    /// a handful of instructions with no parking, so the wait is
    /// bounded — until each has either published its message or
    /// observed the closed flag, and only then run the final drain.
    fn try_recv_inner(&self) -> Result<T, TryRecvError> {
        loop {
            if let Some(v) = self.buffer.try_dequeue() {
                self.on_received();
                return Ok(v);
            }
            stress::yield_point();
            if !self.closed.load(Ordering::SeqCst) {
                return Err(TryRecvError::Empty);
            }
            stress::yield_point();
            if self.inflight.load(Ordering::SeqCst) != 0 {
                // A sender is mid-publish; it will either complete
                // (making its message visible to the retried dequeue)
                // or observe the closed flag and back out. Not over.
                // `Blocked`: re-running this loop before the sender
                // moves is a pure recheck (an empty-buffer dequeue
                // mutates nothing), so the systematic explorer may
                // park us until another thread steps.
                stress::yield_point_tagged(stress::YieldTag::Blocked(
                    &self.inflight as *const AtomicUsize as usize,
                ));
                std::hint::spin_loop();
                continue;
            }
            if armed(Fault::CloseSkipsFinalDrain) {
                // Planted bug: trusting (empty, closed, inflight == 0)
                // without the final dequeue loses a message published
                // between the first dequeue and the inflight read.
                return Err(TryRecvError::Closed);
            }
            stress::yield_point();
            return match self.buffer.try_dequeue() {
                Some(v) => {
                    self.on_received();
                    Ok(v)
                }
                None => Err(TryRecvError::Closed),
            };
        }
    }

    /// Bookkeeping + sender wake after a successful dequeue.
    fn on_received(&self) {
        self.received.fetch_add(1, Ordering::SeqCst);
        cds_obs::count(Event::ChanRecvs);
        stress::yield_point();
        self.send_parker.notify();
    }

    /// Elect and wake at most one registered select waiter (the
    /// single-winner commit rule): first CAS from `OPEN` wins.
    fn notify_select(&self) {
        if self.select_count.load(Ordering::SeqCst) == 0 {
            return;
        }
        let waiters = self
            .select_waiters
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        for (chan_idx, w) in waiters.iter() {
            if w.committed
                .compare_exchange(SELECT_OPEN, *chan_idx, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                cds_obs::count(Event::ChanSelectWins);
                w.parker.force_unpark_all();
                return;
            }
        }
    }

    /// Close-path wake of every registered select waiter, committed or
    /// not — they re-poll and observe the closed flag themselves.
    fn wake_all_select(&self) {
        if self.select_count.load(Ordering::SeqCst) == 0 {
            return;
        }
        let waiters = self
            .select_waiters
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        for (_, w) in waiters.iter() {
            w.parker.force_unpark_all();
        }
    }
}

impl<T: Send + 'static, R: Reclaimer> Drop for Inner<T, R> {
    fn drop(&mut self) {
        // Count residual messages before the underlying queue's own Drop
        // walks them: `sends == recvs + drained_at_drop` is the
        // conservation invariant the telemetry suite checks.
        let mut drained = 0u64;
        while let Some(v) = self.buffer.try_dequeue() {
            drop(v);
            drained += 1;
        }
        if drained > 0 {
            cds_obs::add(Event::ChanDrainedAtDrop, drained);
        }
    }
}

/// An MPMC channel handle; clones share one channel (clone freely for
/// producers and consumers — there is no sender/receiver split, any
/// handle may do either). See the crate docs for the close protocol and
/// the wait/wake pairing.
pub struct Channel<T: Send + 'static, R: Reclaimer = Ebr> {
    inner: Arc<Inner<T, R>>,
}

/// Creates a bounded MPMC channel on the default ([`Ebr`]) backend.
///
/// Capacity is rounded up to a power of two of at least 2 (the
/// [`BoundedQueue`] contract). `send` blocks while the ring is full.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn bounded<T: Send + 'static>(capacity: usize) -> Channel<T, Ebr> {
    Channel::bounded_with_reclaimer(capacity)
}

/// Creates an unbounded MPMC channel on the default ([`Ebr`]) backend;
/// `send` never blocks (only `recv` parks).
pub fn unbounded<T: Send + 'static>() -> Channel<T, Ebr> {
    Channel::unbounded_with_reclaimer()
}

impl<T: Send + 'static, R: Reclaimer> Channel<T, R> {
    fn from_buffer(buffer: Buffer<T, R>) -> Self {
        Channel {
            inner: Arc::new(Inner {
                buffer,
                closed: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
                sent: AtomicU64::new(0),
                received: AtomicU64::new(0),
                send_parker: Parker::new(),
                recv_parker: Parker::new(),
                select_count: AtomicUsize::new(0),
                select_waiters: Mutex::new(Vec::new()),
            }),
        }
    }

    /// [`bounded`], but on the reclamation backend `R` (only the
    /// unbounded buffer allocates reclaimed nodes; the parameter exists
    /// so one application-wide backend choice covers both flavors).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded_with_reclaimer(capacity: usize) -> Self {
        Channel::from_buffer(Buffer::Bounded(BoundedQueue::with_capacity(capacity)))
    }

    /// [`unbounded`], but on the reclamation backend `R`.
    pub fn unbounded_with_reclaimer() -> Self {
        Channel::from_buffer(Buffer::Unbounded(MsQueue::with_reclaimer()))
    }

    /// Sends a message, parking while a bounded channel is full.
    /// Unbounded sends never block. Returns the message if the channel
    /// is (or becomes) closed.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match self.send_until(value, None) {
            Ok(()) => Ok(()),
            Err(TrySendError::Disconnected(v)) => Err(SendError::Disconnected(v)),
            Err(TrySendError::Full(_)) => unreachable!("a send without a deadline cannot time out"),
        }
    }

    /// The one blocking send loop: `Full` means `deadline` passed with
    /// the ring still full.
    fn send_until(&self, value: T, deadline: Option<Instant>) -> Result<(), TrySendError<T>> {
        stress::yield_point();
        // The message rides in and out of every failed attempt.
        let mut unsent = Some(value);
        let done = self
            .inner
            .send_parker
            .wait_until(deadline, Event::ChanParksSend, || {
                let value = unsent.take().expect("a full ring hands the message back");
                match self.inner.try_send_inner(value) {
                    Err(TrySendError::Full(v)) => {
                        unsent = Some(v);
                        None
                    }
                    done => Some(done),
                }
            });
        done.unwrap_or_else(|| {
            Err(TrySendError::Full(
                unsent.expect("a full ring hands the message back"),
            ))
        })
    }

    /// Non-blocking send: fails with [`TrySendError::Full`] instead of
    /// parking.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        stress::yield_point();
        let res = self.inner.try_send_inner(value);
        if res.is_err() {
            cds_obs::count(Event::ChanTrySendFail);
        }
        res
    }

    /// [`send`](Self::send) with a deadline: gives up (returning the
    /// message) once `timeout` elapses with the channel still full. A
    /// `timeout` too large to add to the clock means no deadline.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        self.send_until(value, Instant::now().checked_add(timeout))
            .map_err(|e| match e {
                TrySendError::Full(v) => SendTimeoutError::Timeout(v),
                TrySendError::Disconnected(v) => SendTimeoutError::Disconnected(v),
            })
    }

    /// Receives a message, parking while the channel is open and empty.
    /// Returns [`RecvError::Closed`] only once the channel is closed
    /// **and** drained — residual messages are always delivered first.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|e| match e {
            TryRecvError::Closed => RecvError::Closed,
            TryRecvError::Empty => unreachable!("a recv without a deadline cannot time out"),
        })
    }

    /// The one blocking receive loop: `Empty` means `deadline` passed
    /// with no message.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, TryRecvError> {
        stress::yield_point();
        self.inner
            .recv_parker
            .wait_until(deadline, Event::ChanParksRecv, || {
                match self.inner.try_recv_inner() {
                    Err(TryRecvError::Empty) => None,
                    done => Some(done),
                }
            })
            .unwrap_or(Err(TryRecvError::Empty))
    }

    /// Non-blocking receive: reports [`TryRecvError::Empty`] instead of
    /// parking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        stress::yield_point();
        let res = self.inner.try_recv_inner();
        if matches!(res, Err(TryRecvError::Empty)) {
            cds_obs::count(Event::ChanTryRecvEmpty);
        }
        res
    }

    /// [`recv`](Self::recv) with a deadline: gives up once `timeout`
    /// elapses with no message. A `timeout` too large to add to the
    /// clock means no deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Instant::now().checked_add(timeout))
            .map_err(|e| match e {
                TryRecvError::Empty => RecvTimeoutError::Timeout,
                TryRecvError::Closed => RecvTimeoutError::Closed,
            })
    }

    /// Closes the channel (idempotent; returns whether this call did the
    /// transition) and wakes **every** parked sender, receiver, and
    /// select waiter unconditionally — the force-wake plus each waiter's
    /// own re-check is what makes the "all parked threads woken"
    /// guarantee schedule-independent.
    pub fn close(&self) -> bool {
        stress::yield_point();
        let was = self.inner.closed.swap(true, Ordering::SeqCst);
        stress::yield_point();
        self.inner.send_parker.force_unpark_all();
        self.inner.recv_parker.force_unpark_all();
        self.inner.wake_all_select();
        if !was {
            cds_obs::count(Event::ChanCloses);
        }
        !was
    }

    /// Whether [`close`](Self::close) has happened. A `false` is stale
    /// by the time you act on it; receivers should just call
    /// [`recv`](Self::recv) and match on [`RecvError::Closed`].
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// Buffer capacity: `Some` for bounded channels, `None` for
    /// unbounded ones.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.buffer.capacity()
    }

    /// Racy snapshot of the number of buffered messages (for unbounded
    /// channels just 0 or 1 as an emptiness hint). Diagnostics only.
    pub fn len(&self) -> usize {
        self.inner.buffer.len()
    }

    /// Racy emptiness snapshot; same caveats as [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Model count of successful sends (independent of the telemetry
    /// feature); with [`received`](Self::received) and the
    /// `chan_drained_at_drop` counter this witnesses message
    /// conservation in the property suite.
    pub fn sent(&self) -> u64 {
        self.inner.sent.load(Ordering::SeqCst)
    }

    /// Model count of successful receives; see [`sent`](Self::sent).
    pub fn received(&self) -> u64 {
        self.inner.received.load(Ordering::SeqCst)
    }
}

impl<T: Send + 'static, R: Reclaimer> Clone for Channel<T, R> {
    fn clone(&self) -> Self {
        Channel {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + 'static, R: Reclaimer> fmt::Debug for Channel<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("capacity", &self.capacity())
            .field("closed", &self.is_closed())
            .field("sent", &self.sent())
            .field("received", &self.received())
            .finish()
    }
}

/// Blocking receive over a fixed set of channels (all of one message
/// type and backend). See the crate docs for the single-winner commit
/// rule.
///
/// The waiter registers with every channel on first block and stays
/// registered until dropped, so a `Select` is cheap to call in a loop.
pub struct Select<'a, T: Send + 'static, R: Reclaimer = Ebr> {
    channels: Vec<&'a Channel<T, R>>,
    waiter: Arc<SelectWaiter>,
    registered: bool,
}

impl<'a, T: Send + 'static, R: Reclaimer> Select<'a, T, R> {
    /// A select over `channels` (their order defines the index returned
    /// by [`recv`](Self::recv) and the poll priority).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty.
    pub fn new(channels: &[&'a Channel<T, R>]) -> Self {
        assert!(!channels.is_empty(), "select over no channels");
        Select {
            channels: channels.to_vec(),
            waiter: Arc::new(SelectWaiter {
                committed: AtomicUsize::new(SELECT_OPEN),
                parker: Parker::new(),
            }),
            registered: false,
        }
    }

    /// Non-blocking poll in channel order; `None` if no channel has a
    /// message ready.
    pub fn try_recv(&self) -> Option<(usize, T)> {
        for (i, ch) in self.channels.iter().enumerate() {
            if let Ok(v) = ch.inner.try_recv_inner() {
                return Some((i, v));
            }
        }
        None
    }

    /// Blocks until some channel delivers a message (returning its index
    /// and the message) or **all** channels are closed and drained.
    pub fn recv(&mut self) -> Result<(usize, T), RecvError> {
        stress::yield_point();
        loop {
            if let Some(done) = self.poll() {
                return done;
            }
            self.ensure_registered();
            // Re-open our commit slot, then park unless the post-prepare
            // re-poll finds something — exactly as in `Channel::recv`.
            self.waiter.committed.store(SELECT_OPEN, Ordering::SeqCst);
            let parker = &self.waiter.parker;
            if let Parked::Ready(done) =
                parker.park_unless(None, Event::ChanParksRecv, || self.poll())
            {
                return done;
            }
        }
    }

    /// One pass over the channel set; `None` while some channel is
    /// still open and nothing is ready.
    fn poll(&self) -> Option<Result<(usize, T), RecvError>> {
        let mut all_closed = true;
        for (i, ch) in self.channels.iter().enumerate() {
            match ch.inner.try_recv_inner() {
                Ok(v) => return Some(Ok((i, v))),
                Err(TryRecvError::Closed) => {}
                Err(TryRecvError::Empty) => all_closed = false,
            }
        }
        all_closed.then_some(Err(RecvError::Closed))
    }

    /// First-block registration with every channel. The `SeqCst`
    /// count increment (under the registry lock) pairs with the fence a
    /// sender issues between publishing and reading the count: either
    /// the sender sees us registered, or our next poll sees its message.
    fn ensure_registered(&mut self) {
        if self.registered {
            return;
        }
        for (i, ch) in self.channels.iter().enumerate() {
            let mut waiters = ch
                .inner
                .select_waiters
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            waiters.push((i, Arc::clone(&self.waiter)));
            ch.inner.select_count.fetch_add(1, Ordering::SeqCst);
        }
        fence(Ordering::SeqCst);
        self.registered = true;
    }
}

impl<T: Send + 'static, R: Reclaimer> Drop for Select<'_, T, R> {
    fn drop(&mut self) {
        if !self.registered {
            return;
        }
        for ch in &self.channels {
            let mut waiters = ch
                .inner
                .select_waiters
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            let before = waiters.len();
            waiters.retain(|(_, w)| !Arc::ptr_eq(w, &self.waiter));
            let removed = before - waiters.len();
            if removed > 0 {
                ch.inner.select_count.fetch_sub(removed, Ordering::SeqCst);
            }
        }
    }
}

impl<T: Send + 'static, R: Reclaimer> fmt::Debug for Select<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Select")
            .field("channels", &self.channels.len())
            .field("registered", &self.registered)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bounded_round_trip() {
        let ch = bounded::<u32>(4);
        ch.send(1).unwrap();
        ch.send(2).unwrap();
        assert_eq!(ch.recv(), Ok(1));
        assert_eq!(ch.recv(), Ok(2));
        assert_eq!(ch.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn unbounded_round_trip() {
        let ch = unbounded::<u32>();
        for i in 0..100 {
            ch.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(ch.recv(), Ok(i));
        }
    }

    #[test]
    fn bounded_try_send_full() {
        let ch = bounded::<u32>(2);
        ch.try_send(1).unwrap();
        ch.try_send(2).unwrap();
        assert_eq!(ch.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(ch.recv(), Ok(1));
        ch.try_send(3).unwrap();
    }

    #[test]
    fn close_disconnects_senders_and_drains_receivers() {
        let ch = unbounded::<u32>();
        ch.send(1).unwrap();
        ch.send(2).unwrap();
        assert!(ch.close());
        assert!(!ch.close(), "close is idempotent");
        assert_eq!(ch.send(3), Err(SendError::Disconnected(3)));
        // Receivers drain residual messages before seeing Closed.
        assert_eq!(ch.recv(), Ok(1));
        assert_eq!(ch.recv(), Ok(2));
        assert_eq!(ch.recv(), Err(RecvError::Closed));
        assert_eq!(ch.try_recv(), Err(TryRecvError::Closed));
    }

    #[test]
    fn close_wakes_parked_receiver() {
        let ch = bounded::<u32>(2);
        let rx = ch.clone();
        let h = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(10));
        ch.close();
        assert_eq!(h.join().unwrap(), Err(RecvError::Closed));
    }

    #[test]
    fn close_wakes_parked_sender() {
        let ch = bounded::<u32>(2);
        ch.send(1).unwrap();
        ch.send(2).unwrap();
        let tx = ch.clone();
        let h = thread::spawn(move || tx.send(3));
        thread::sleep(Duration::from_millis(10));
        ch.close();
        assert_eq!(h.join().unwrap(), Err(SendError::Disconnected(3)));
    }

    #[test]
    fn blocking_send_waits_for_space() {
        let ch = bounded::<u32>(2);
        ch.send(1).unwrap();
        ch.send(2).unwrap();
        let tx = ch.clone();
        let h = thread::spawn(move || tx.send(3));
        thread::sleep(Duration::from_millis(10));
        assert_eq!(ch.recv(), Ok(1));
        h.join().unwrap().unwrap();
        assert_eq!(ch.recv(), Ok(2));
        assert_eq!(ch.recv(), Ok(3));
    }

    #[test]
    fn timeouts_expire() {
        let ch = bounded::<u32>(2);
        assert_eq!(
            ch.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        ch.send(1).unwrap();
        ch.send(2).unwrap();
        assert_eq!(
            ch.send_timeout(3, Duration::from_millis(5)),
            Err(SendTimeoutError::Timeout(3))
        );
        assert_eq!(ch.recv_timeout(Duration::from_millis(5)), Ok(1));
    }

    #[test]
    fn unrepresentable_timeout_means_no_deadline() {
        // `Instant::now() + Duration::MAX` panics; with `checked_add` an
        // unrepresentable deadline is simply no deadline.
        let ch = bounded::<u32>(2);
        ch.send_timeout(1, Duration::MAX).unwrap();
        assert_eq!(ch.recv_timeout(Duration::MAX), Ok(1));
    }

    #[test]
    fn mpmc_conservation() {
        let ch = bounded::<u64>(8);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = ch.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = ch.clone();
                thread::spawn(move || {
                    let mut got = 0u64;
                    while rx.recv().is_ok() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        ch.close();
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 400);
        assert_eq!(ch.sent(), 400);
        assert_eq!(ch.received(), 400);
    }

    #[test]
    fn drop_drains_residual() {
        let ch = unbounded::<Box<u32>>();
        ch.send(Box::new(1)).unwrap();
        ch.send(Box::new(2)).unwrap();
        assert_eq!(ch.sent(), 2);
        drop(ch); // Inner::drop drains; leak checkers (and miri-style
                  // Drop walks in the queues) see no residue.
    }

    #[test]
    fn select_polls_in_order() {
        let a = unbounded::<u32>();
        let b = unbounded::<u32>();
        b.send(7).unwrap();
        let mut sel = Select::new(&[&a, &b]);
        assert_eq!(sel.recv(), Ok((1, 7)));
        a.send(3).unwrap();
        assert_eq!(sel.try_recv(), Some((0, 3)));
        assert_eq!(sel.try_recv(), None);
    }

    #[test]
    fn select_wakes_on_send() {
        let a = bounded::<u32>(2);
        let b = bounded::<u32>(2);
        let parks = || cds_obs::Snapshot::take().get(Event::ChanParksRecv);
        let parks_before = parks();
        let tx = b.clone();
        let h = thread::spawn(move || {
            if cds_obs::enabled() {
                // The park count is the signal that the select committed.
                let patience = Instant::now() + Duration::from_secs(5);
                while parks() == parks_before && Instant::now() < patience {
                    thread::yield_now();
                }
            } else {
                thread::sleep(Duration::from_millis(10));
            }
            tx.send(42).unwrap();
        });
        let mut sel = Select::new(&[&a, &b]);
        assert_eq!(sel.recv(), Ok((1, 42)));
        h.join().unwrap();
        if cds_obs::enabled() {
            // A select park is a receiver park like any other.
            assert!(parks() > parks_before, "select park was not counted");
        }
    }

    #[test]
    fn select_all_closed() {
        let a = unbounded::<u32>();
        let b = unbounded::<u32>();
        a.send(5).unwrap();
        a.close();
        b.close();
        let mut sel = Select::new(&[&a, &b]);
        // Residual drains through select too, then Closed.
        assert_eq!(sel.recv(), Ok((0, 5)));
        assert_eq!(sel.recv(), Err(RecvError::Closed));
    }

    #[test]
    fn select_close_wakes_parked_waiter() {
        let a = bounded::<u32>(2);
        let b = bounded::<u32>(2);
        let ca = a.clone();
        let cb = b.clone();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            ca.close();
            cb.close();
        });
        let mut sel = Select::new(&[&a, &b]);
        assert_eq!(sel.recv(), Err(RecvError::Closed));
        h.join().unwrap();
    }
}
