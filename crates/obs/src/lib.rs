//! Allocation-free contention telemetry for the `cds` family.
//!
//! Synch-style built-in contention accounting (Kallimanis 2021): every
//! structure crate records *why* it is slow — CAS failures, lock spins,
//! elimination hits, combining batch sizes, reclamation garbage depth —
//! through this crate's event counters, and the bench pipeline merges
//! them into per-sample telemetry records.
//!
//! # Design
//!
//! * **Thread-local sharding.** Each thread claims one cache-padded shard
//!   from a fixed static table on first use (a bitmap CAS; no allocation)
//!   and releases it on thread exit. Threads beyond the table size share
//!   an overflow shard — atomic adds keep sums exact either way. Counter
//!   values are never zeroed on release, so a shard handed to a new
//!   thread keeps accumulating and totals stay monotonic.
//! * **Feature-gated to nothing.** Without the `telemetry` feature every
//!   recording function is an empty `#[inline(always)]` body and
//!   [`Snapshot::take`] returns zeros: instrumented call sites compile
//!   away entirely. Call sites whose *argument* is expensive to compute
//!   (e.g. a backlog length behind a mutex) should guard with
//!   [`enabled`], which is a `const fn` the optimizer folds.
//! * **Snapshot merge.** [`Snapshot::take`] folds all shards: [`Kind::Sum`]
//!   events add across shards, [`Kind::Max`] events (high-water marks)
//!   take the maximum. [`Snapshot::delta`] subtracts a baseline for sum
//!   events so a measurement window can be carved out of the cumulative
//!   totals; max events pass through (a high-water mark has no
//!   meaningful difference — use [`reset`] between windows when an
//!   absolute per-window peak is needed).
//!
//! # Example
//!
//! ```
//! use cds_obs::{Event, Snapshot};
//!
//! let base = Snapshot::take();
//! cds_obs::count(Event::CasAttempt);
//! cds_obs::count(Event::CasSuccess);
//! let delta = Snapshot::take().delta(&base);
//! if cds_obs::enabled() {
//!     assert_eq!(delta.get(Event::CasAttempt), 1);
//! }
//! ```

use std::fmt;

/// How an event merges across shards (and across a [`Snapshot::delta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic totals: summed across shards, subtracted by `delta`.
    Sum,
    /// High-water marks: max across shards, passed through by `delta`.
    Max,
}

macro_rules! events {
    ($($variant:ident => $name:literal, $kind:ident;)*) => {
        /// One countable occurrence class on a hot path.
        ///
        /// The discriminant indexes the per-shard counter array; the
        /// string name is the stable key used in bench JSON and test
        /// output.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Event {
            $($variant,)*
        }

        impl Event {
            /// Number of distinct events (the counter-array length).
            pub const COUNT: usize = [$(Event::$variant,)*].len();

            /// Every event, in discriminant order.
            pub const ALL: [Event; Event::COUNT] = [$(Event::$variant,)*];

            /// Stable snake_case name (bench JSON / test output key).
            pub const fn name(self) -> &'static str {
                match self {
                    $(Event::$variant => $name,)*
                }
            }

            /// How this event merges across shards.
            pub const fn kind(self) -> Kind {
                match self {
                    $(Event::$variant => Kind::$kind,)*
                }
            }
        }
    };
}

events! {
    // --- cds-sync: lock acquisitions and spin iterations per lock type.
    TasAcquire => "tas_acquire", Sum;
    TasSpin => "tas_spin", Sum;
    TtasAcquire => "ttas_acquire", Sum;
    TtasSpin => "ttas_spin", Sum;
    TicketAcquire => "ticket_acquire", Sum;
    TicketSpin => "ticket_spin", Sum;
    McsAcquire => "mcs_acquire", Sum;
    McsSpin => "mcs_spin", Sum;
    ClhAcquire => "clh_acquire", Sum;
    ClhSpin => "clh_spin", Sum;
    RwReadAcquire => "rw_read_acquire", Sum;
    RwWriteAcquire => "rw_write_acquire", Sum;
    RwSpin => "rw_spin", Sum;
    SeqlockRead => "seqlock_read", Sum;
    SeqlockReadRetry => "seqlock_read_retry", Sum;
    SeqlockWrite => "seqlock_write", Sum;
    // One `Backoff::spin`/`snooze` round anywhere in the family.
    BackoffRound => "backoff_round", Sum;
    // One `Parker::wait_until` met by its spin before the first park: a
    // wait that cost its waker no futex wake (committed parks are the
    // `exec_parks` / `chan_parks_*` counts).
    ParkerSpinWins => "parker_spin_wins", Sum;
    // One committed park of a `ParkingLock` waiter (`cds_sync::Mutex`).
    MutexParks => "mutex_parks", Sum;

    // --- Lock-free structures: unified CAS accounting. Every
    // compare-exchange on a `cds_reclaim::epoch` `Atomic` records exactly
    // one attempt and exactly one outcome, inside
    // `Atomic::compare_exchange`, so
    // `cas_success + cas_failure == cas_attempt` always holds. Structures
    // count no retry events of their own: a lost CAS shows here.
    CasAttempt => "cas_attempt", Sum;
    CasSuccess => "cas_success", Sum;
    CasFailure => "cas_failure", Sum;

    // --- Elimination-backoff stack.
    ElimPush => "elim_push", Sum;
    ElimPop => "elim_pop", Sum;
    ElimHitPush => "elim_hit_push", Sum;
    ElimHitPop => "elim_hit_pop", Sum;
    ElimMiss => "elim_miss", Sum;

    // --- Flat combining: combining passes and ops serviced per pass
    // (`fc_ops_combined / fc_combine_rounds` = mean batch size).
    FcCombineRounds => "fc_combine_rounds", Sum;
    FcOpsCombined => "fc_ops_combined", Sum;

    // --- cds-map resizing: cooperative incremental migration. A "batch"
    // is one helping pass's claimed range; its size is recorded at the
    // claim while each actually-performed move is recorded inside the
    // move itself, so `resize_buckets_moved == resize_batch_ops`
    // cross-checks the two.
    ResizeBatchesHelped => "resize_batches_helped", Sum;
    ResizeBatchOps => "resize_batch_ops", Sum;
    ResizeBucketsMoved => "resize_buckets_moved", Sum;
    ResizePromoterWins => "resize_promoter_wins", Sum;

    // --- cds-reclaim: retired / freed / peak garbage per backend.
    RetiredEbr => "retired_ebr", Sum;
    RetiredHazard => "retired_hazard", Sum;
    RetiredLeak => "retired_leak", Sum;
    RetiredDebug => "retired_debug", Sum;
    FreedEbr => "freed_ebr", Sum;
    FreedHazard => "freed_hazard", Sum;
    FreedDebug => "freed_debug", Sum;
    PeakGarbageEbr => "peak_garbage_ebr", Max;
    PeakGarbageHazard => "peak_garbage_hazard", Max;
    PeakGarbageDebug => "peak_garbage_debug", Max;

    // --- cds-queue: Chase-Lev batch steals. `elems` sums every element
    // moved by a successful `steal_batch_and_pop` (including the popped
    // one); `max` tracks the largest single batch.
    DequeStealBatchElems => "deque_steal_batch_elems", Sum;
    DequeStealBatchMax => "deque_steal_batch_max", Max;

    // --- cds-exec: work-stealing executor. Conservation invariant: at
    // quiesce, `exec_tasks_spawned == exec_tasks_executed` (each task is
    // counted once at submission and once when its closure returns).
    // `steal_hit` counts steals that delivered a task to a worker,
    // `steal_miss` counts probe rounds that came back empty-handed;
    // `parks` counts committed parks (a worker actually went to sleep
    // after the prepare/re-check/commit protocol), and
    // `injector_overflow` counts spawns that fell past the bounded
    // injector into the unbounded overflow queue.
    ExecTasksSpawned => "exec_tasks_spawned", Sum;
    ExecTasksExecuted => "exec_tasks_executed", Sum;
    ExecStealHit => "exec_steal_hit", Sum;
    ExecStealMiss => "exec_steal_miss", Sum;
    ExecParks => "exec_parks", Sum;
    ExecInjectorOverflow => "exec_injector_overflow", Sum;

    // --- cds-chan: blocking MPMC channels. Conservation invariant: once
    // a channel is dropped, `chan_sends == chan_recvs +
    // chan_drained_at_drop` (every successfully sent message is counted
    // once at publication and once when it leaves the channel — through
    // a receiver or through the drop drain). `try_send_fail` /
    // `try_recv_empty` count non-blocking misses (full or
    // closed / empty); `parks_send` and `parks_recv` count committed
    // parks on the respective eventcounts; `closes` counts close() calls
    // that actually transitioned the channel (the swap winner);
    // `select_wins` counts committed select wake-ups (a sender CASed a
    // waiter's slot from OPEN to its receiver index).
    ChanSends => "chan_sends", Sum;
    ChanRecvs => "chan_recvs", Sum;
    ChanDrainedAtDrop => "chan_drained_at_drop", Sum;
    ChanTrySendFail => "chan_try_send_fail", Sum;
    ChanTryRecvEmpty => "chan_try_recv_empty", Sum;
    ChanParksSend => "chan_parks_send", Sum;
    ChanParksRecv => "chan_parks_recv", Sum;
    ChanCloses => "chan_closes", Sum;
    ChanSelectWins => "chan_select_wins", Sum;
}

/// Whether the `telemetry` feature is compiled in.
///
/// `const`, so `if cds_obs::enabled() { ... }` guards fold away in the
/// default build — use one around any recording call whose argument is
/// expensive to compute.
pub const fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

/// Adds `n` to `event`'s counter on the calling thread's shard.
#[inline(always)]
pub fn add(event: Event, n: u64) {
    #[cfg(feature = "telemetry")]
    imp::add(event, n);
    #[cfg(not(feature = "telemetry"))]
    let _ = (event, n);
}

/// Counts one occurrence of `event`.
#[inline(always)]
pub fn count(event: Event) {
    add(event, 1);
}

/// Records one compare-exchange: an attempt plus its outcome.
#[inline(always)]
pub fn cas_outcome(ok: bool) {
    count(Event::CasAttempt);
    count(if ok {
        Event::CasSuccess
    } else {
        Event::CasFailure
    });
}

/// Raises `event`'s high-water mark to at least `value`
/// (for [`Kind::Max`] events).
#[inline(always)]
pub fn record_max(event: Event, value: u64) {
    #[cfg(feature = "telemetry")]
    imp::record_max(event, value);
    #[cfg(not(feature = "telemetry"))]
    let _ = (event, value);
}

/// Resets every counter on every shard to zero.
///
/// Only meaningful while no other thread is recording (tests serialize
/// through the stress scheduler before calling this); a concurrent
/// recorder may land an increment on either side of the sweep.
pub fn reset() {
    #[cfg(feature = "telemetry")]
    imp::reset();
}

/// A merged view of every shard at one moment.
#[derive(Clone, PartialEq, Eq)]
pub struct Snapshot {
    counts: [u64; Event::COUNT],
}

impl Snapshot {
    /// Merges all shards: sums for [`Kind::Sum`] events, max for
    /// [`Kind::Max`] events. All zeros when telemetry is compiled out.
    pub fn take() -> Snapshot {
        #[cfg(feature = "telemetry")]
        {
            imp::take()
        }
        #[cfg(not(feature = "telemetry"))]
        {
            Snapshot {
                counts: [0; Event::COUNT],
            }
        }
    }

    /// The merged value of `event`.
    pub fn get(&self, event: Event) -> u64 {
        self.counts[event as usize]
    }

    /// The window between `base` and `self`: sum events subtract
    /// (saturating, in case `base` was taken after a [`reset`]); max
    /// events pass through unchanged.
    pub fn delta(&self, base: &Snapshot) -> Snapshot {
        let mut counts = [0; Event::COUNT];
        for (i, event) in Event::ALL.iter().enumerate() {
            counts[i] = match event.kind() {
                Kind::Sum => self.counts[i].saturating_sub(base.counts[i]),
                Kind::Max => self.counts[i],
            };
        }
        Snapshot { counts }
    }

    /// Iterates `(event, value)` pairs in discriminant order.
    pub fn iter(&self) -> impl Iterator<Item = (Event, u64)> + '_ {
        Event::ALL.iter().map(move |&e| (e, self.get(e)))
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Snapshot");
        for (event, value) in self.iter() {
            if value != 0 {
                s.field(event.name(), &value);
            }
        }
        s.finish()
    }
}

#[cfg(feature = "telemetry")]
mod imp {
    use super::{Event, Kind, Snapshot};
    use cds_atomic::raw::{AtomicU64, Ordering};

    /// Dedicated shards; threads beyond this share the overflow shard.
    const MAX_SHARDS: usize = 128;
    const OVERFLOW: usize = MAX_SHARDS;

    /// One thread's counters, padded out to its own cache lines so two
    /// threads' hot increments never false-share.
    #[repr(align(128))]
    struct Shard {
        counts: [AtomicU64; Event::COUNT],
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY_SHARD: Shard = Shard {
        counts: [ZERO; Event::COUNT],
    };
    static SHARDS: [Shard; MAX_SHARDS + 1] = [EMPTY_SHARD; MAX_SHARDS + 1];

    /// Occupancy bitmap over the dedicated shards.
    static OCCUPIED: [AtomicU64; MAX_SHARDS / 64] = [ZERO; MAX_SHARDS / 64];

    fn claim_slot() -> usize {
        for (w, word) in OCCUPIED.iter().enumerate() {
            loop {
                let bits = word.load(Ordering::Relaxed);
                let free = !bits;
                if free == 0 {
                    break;
                }
                let bit = free.trailing_zeros() as usize;
                if word
                    .compare_exchange(bits, bits | 1 << bit, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return w * 64 + bit;
                }
            }
        }
        OVERFLOW
    }

    struct Slot(usize);

    impl Drop for Slot {
        fn drop(&mut self) {
            // Release the bitmap bit; the counters keep their values so
            // snapshots stay monotonic across thread churn.
            if self.0 != OVERFLOW {
                OCCUPIED[self.0 / 64].fetch_and(!(1 << (self.0 % 64)), Ordering::Relaxed);
            }
        }
    }

    thread_local! {
        static SLOT: Slot = Slot(claim_slot());
    }

    #[inline]
    fn shard() -> &'static Shard {
        // During thread teardown (a structure dropped from another TLS
        // destructor) the slot may already be gone; fall back to the
        // shared overflow shard rather than losing the event.
        let idx = SLOT.try_with(|s| s.0).unwrap_or(OVERFLOW);
        &SHARDS[idx]
    }

    #[inline]
    pub(super) fn add(event: Event, n: u64) {
        shard().counts[event as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(super) fn record_max(event: Event, value: u64) {
        shard().counts[event as usize].fetch_max(value, Ordering::Relaxed);
    }

    pub(super) fn reset() {
        for shard in SHARDS.iter() {
            for counter in shard.counts.iter() {
                counter.store(0, Ordering::Relaxed);
            }
        }
    }

    pub(super) fn take() -> Snapshot {
        let mut counts = [0u64; Event::COUNT];
        for shard in SHARDS.iter() {
            for (i, counter) in shard.counts.iter().enumerate() {
                let v = counter.load(Ordering::Relaxed);
                match Event::ALL[i].kind() {
                    Kind::Sum => counts[i] += v,
                    Kind::Max => counts[i] = counts[i].max(v),
                }
            }
        }
        Snapshot { counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The shards are process-wide and the harness runs these tests on
    /// parallel threads: a test that asserts an exact delta holds this
    /// lock so no sibling counts into its window.
    fn exact_deltas() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn names_are_unique_and_match_count() {
        let mut names: Vec<&str> = Event::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), Event::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Event::COUNT, "duplicate event name");
    }

    #[test]
    fn counts_merge_into_snapshots() {
        let _exact = exact_deltas();
        let base = Snapshot::take();
        count(Event::CasAttempt);
        add(Event::FcOpsCombined, 5);
        let delta = Snapshot::take().delta(&base);
        if enabled() {
            assert_eq!(delta.get(Event::CasAttempt), 1);
            assert_eq!(delta.get(Event::FcOpsCombined), 5);
        } else {
            assert_eq!(delta.get(Event::CasAttempt), 0);
        }
    }

    #[test]
    fn cas_outcome_preserves_conservation() {
        let _exact = exact_deltas();
        let base = Snapshot::take();
        cas_outcome(true);
        cas_outcome(false);
        cas_outcome(true);
        let d = Snapshot::take().delta(&base);
        assert_eq!(
            d.get(Event::CasSuccess) + d.get(Event::CasFailure),
            d.get(Event::CasAttempt)
        );
        if enabled() {
            assert_eq!(d.get(Event::CasAttempt), 3);
        }
    }

    #[test]
    fn max_events_merge_by_maximum() {
        record_max(Event::PeakGarbageEbr, 7);
        record_max(Event::PeakGarbageEbr, 3);
        let snap = Snapshot::take();
        if enabled() {
            assert!(snap.get(Event::PeakGarbageEbr) >= 7);
        }
    }

    #[test]
    fn cross_thread_sums_are_exact() {
        let _exact = exact_deltas();
        let base = Snapshot::take();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        count(Event::BackoffRound);
                    }
                });
            }
        });
        let d = Snapshot::take().delta(&base);
        if enabled() {
            assert_eq!(d.get(Event::BackoffRound), 4000);
        }
    }
}
