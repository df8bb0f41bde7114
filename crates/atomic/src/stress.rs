//! The stress scheduler: PCT sampling, systematic exploration, and the
//! weak-memory machine, in the crate whose atomics they drive.
//!
//! The scheduler sits at the bottom of the crate DAG (it needs only `std`
//! and [`crate::raw`]), so every layer above calls it directly: the
//! facade's atomics, `cds-sync`'s `Backoff`/`Parker`/spin locks, the
//! `parking_lot` shim, and the structure crates (through the
//! `cds_core::stress` re-export).
//!
//! The structure crates are instrumented with [`yield_point`] calls at
//! their interesting interleaving points — lock acquisitions (via the
//! `parking_lot` shim), CAS retry loops, and publication points. In a
//! normal build the call compiles to an empty inline function and costs
//! nothing. With the `stress` feature enabled *and* a scheduler installed,
//! every registered worker *pauses* at each yield point and one engine
//! (in [`explore`]) grants exactly one paused worker its next step once
//! every registered worker has paused: at most one registered thread runs
//! between yield points, on any number of cores and under any host load.
//! Which paused worker steps next is the only thing the two schedulers
//! differ in. [`install`] selects a randomized priority-based chooser in
//! the style of PCT (Burckhardt et al., *A Randomized Scheduler with
//! Probabilistic Guarantees of Finding Bugs*, ASPLOS 2010):
//!
//! * every worker slot gets a priority derived deterministically from the
//!   run seed and its worker index;
//! * the highest-priority paused worker is granted the next step (a
//!   worker that paused with [`YieldTag::Blocked`] sits out until some
//!   other thread has stepped);
//! * at seeded priority-change points the worker just granted is demoted
//!   below every other thread, forcing a context switch at its next
//!   yield point.
//!
//! Because priorities and change points are all derived from one
//! [`SplitMix64`] stream seeded by [`StressConfig::seed`], re-running a
//! round with the same seed replays the same schedule decisions, every
//! time. The one thing a registered thread must not do is block in the
//! kernel on something only a paused worker can release: no step can be
//! granted while it sleeps, so the engine aborts the round with a panic
//! naming the slot (it never lets a waiter run unscheduled).
//!
//! Threads that never call [`register`] (the test runner, unrelated
//! concurrent tests) pass through yield points untouched even while a
//! scheduler is active.
//!
//! Each yield point may carry a [`YieldTag`] describing the shared
//! location the *next* step will touch. The PCT chooser only looks at
//! [`YieldTag::Blocked`]; the systematic explorer ([`explore`]) derives
//! its independence relation from the tags. Inside a weak-memory explore
//! window the facade
//! additionally makes every atomic access a tagged yield point of its
//! own and lets the weak-memory machine choose what each load observes;
//! outside such a window a stress-build atomic is the plain `std` op.

use std::cell::Cell;
use std::fmt;
// The scheduler's own state must stay invisible to the instrumented
// atomics it drives, hence `raw`.
use crate::raw::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

#[cfg(feature = "stress")]
pub mod explore;
#[cfg(feature = "stress")]
mod weak;

#[cfg(feature = "stress")]
pub use explore::{check_region, publish_region};

/// Access tag carried by a yield point, describing what the step after
/// the yield is about to do to shared state.
///
/// The address in the payload is an opaque identity (typically the
/// address of the lock or structure cell involved). Two steps are
/// *independent* — safe to commute during systematic exploration — iff
/// both are tagged, their addresses differ, or neither writes. Untagged
/// points ([`YieldTag::None`]) are dependent on everything, which is
/// always sound — tags only ever *add* pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldTag {
    /// Unknown effect: conservatively dependent on every other step.
    None,
    /// The step reads the tagged location but does not modify it.
    Read(usize),
    /// The step may modify the tagged location (stores, CAS attempts,
    /// lock acquisitions).
    Write(usize),
    /// The step is a *pure recheck* of the tagged location: if no other
    /// thread has run since this thread last paused, re-running the
    /// step changes nothing and lands back at the same yield point
    /// (e.g. spinning on a held lock). The explorer may deprioritize
    /// such steps until another thread makes progress. Treated as a
    /// read of the location for independence purposes.
    Blocked(usize),
}

/// Maximum worker threads a stress round may register.
pub const MAX_THREADS: usize = 64;

/// SplitMix64: the deterministic seed stream behind every stress
/// scheduling decision (Steele et al., OOPSLA 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next uniform 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Mixes a seed with a stream index into an independent-looking value;
/// used to derive per-thread priorities and per-round seeds.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xa0761d6478bd642f)).next_u64()
}

/// Configuration of one stress-scheduled round.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Root seed; priorities and change points all derive from it.
    pub seed: u64,
    /// Average number of granted steps between priority-change points
    /// (the PCT depth knob). `0` disables preemption injection.
    pub change_period: u64,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            seed: 0,
            change_period: 3,
        }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static DEMOTIONS: AtomicU64 = AtomicU64::new(0);
static RUN_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static CUR_SLOT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide scheduler slot, held for one PCT or explore round.
/// [`ACTIVE`] is only ever true while some thread holds it. Taking it puts
/// the calling thread's armed [`Fault`]s in force for the round; releasing
/// it clears them.
pub(crate) struct RoundLock {
    _exclusive: MutexGuard<'static, ()>,
}

pub(crate) fn lock_round() -> RoundLock {
    let exclusive = RUN_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    #[cfg(feature = "stress")]
    FAULTS.store(ARMED_HERE.with(Cell::get), Ordering::Release);
    RoundLock {
        _exclusive: exclusive,
    }
}

impl Drop for RoundLock {
    fn drop(&mut self) {
        #[cfg(feature = "stress")]
        FAULTS.store(0, Ordering::Release);
    }
}

/// An installed stress scheduler; uninstalls on drop.
///
/// Holding this guard serializes stress rounds process-wide (the
/// scheduler state is global), so concurrently running stress tests take
/// turns instead of corrupting each other's schedules.
pub struct StressRun {
    #[cfg(feature = "stress")]
    _round: explore::ExploreRun,
    #[cfg(not(feature = "stress"))]
    _round: RoundLock,
}

impl fmt::Debug for StressRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StressRun").finish_non_exhaustive()
    }
}

/// Installs a PCT scheduler for one round. Worker threads must then
/// [`register`] with distinct indices; the round ends when the returned
/// guard drops. Without the `stress` feature only the process-wide round
/// lock is taken and yield points stay inert.
pub fn install(cfg: StressConfig) -> StressRun {
    #[cfg(feature = "stress")]
    let round = explore::install_pct(&cfg);
    #[cfg(not(feature = "stress"))]
    let round = {
        let _ = cfg;
        lock_round()
    };
    StressRun { _round: round }
}

/// A worker thread's registration with the active scheduler; deregisters
/// (letting the next paused worker step) on drop.
pub struct ThreadSlot {
    slot: Option<usize>,
}

impl fmt::Debug for ThreadSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadSlot")
            .field("slot", &self.slot)
            .finish()
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        #[cfg(feature = "stress")]
        if let Some(slot) = self.slot {
            CUR_SLOT.with(|c| c.set(None));
            explore::deregister(slot);
        }
    }
}

/// Registers the calling thread as worker `index` (0-based, < [`MAX_THREADS`]).
///
/// The worker's priority is a pure function of the run seed and `index`,
/// so schedules do not depend on the order in which the OS happens to
/// start the workers. A no-op returning an inert guard when no scheduler
/// is installed.
pub fn register(index: usize) -> ThreadSlot {
    assert!(index < MAX_THREADS, "worker index {index} out of range");
    #[cfg(feature = "stress")]
    if explore::register(index) {
        CUR_SLOT.with(|c| c.set(Some(index)));
        return ThreadSlot { slot: Some(index) };
    }
    ThreadSlot { slot: None }
}

/// A scheduling point; what the structure crates are instrumented with.
///
/// Without the `stress` feature this is an empty `#[inline]` function.
/// With it, registered workers cooperate under the installed scheduler as
/// described in the [module docs](self); unregistered threads and rounds
/// with no scheduler pass straight through.
#[inline]
pub fn yield_point() {
    yield_point_tagged(YieldTag::None);
}

/// [`yield_point`] carrying an access tag describing what the next step
/// touches (see [`YieldTag`]).
///
/// The PCT chooser only honours [`YieldTag::Blocked`]; the systematic
/// [`explore`] scheduler derives its independence relation from the tags.
/// Untagged points are conservatively dependent on everything, so tagging
/// is an optimization, never a correctness requirement for instrumented
/// code.
#[inline]
pub fn yield_point_tagged(tag: YieldTag) {
    #[cfg(feature = "stress")]
    if ACTIVE.load(Ordering::Acquire) {
        if let Some(slot) = current_slot() {
            explore::on_yield(slot, tag);
        }
    }
    #[cfg(not(feature = "stress"))]
    let _ = tag;
}

/// The slot the calling thread registered with, if any.
#[cfg_attr(not(feature = "stress"), allow(dead_code))]
pub(crate) fn current_slot() -> Option<usize> {
    CUR_SLOT.with(|c| c.get())
}

/// Operation-boundary marker for weak-memory exploration.
///
/// Harnesses that drive per-thread operation sequences (the lincheck
/// window runner) call this on the worker thread before each operation
/// and once after its last, giving the weak-memory model the real-time
/// completion edges linearizability is defined against: weak behaviors
/// stay confined to operations that actually overlap. A no-op in every
/// other configuration (default builds, PCT rounds, non-weak explore
/// windows), so callers need not gate it.
#[inline]
pub fn op_boundary() {
    #[cfg(feature = "stress")]
    explore::op_boundary();
}

/// Whether a stress scheduler is installed and driving yield points.
/// Code that would block in the kernel (`Parker`, the `parking_lot`
/// shim) asks this and spins through yield points instead — nothing may
/// sleep while a deterministic schedule is running. Constant `false`
/// without the `stress` feature, where yield points are inert.
#[inline]
pub fn is_active() -> bool {
    cfg!(feature = "stress") && ACTIVE.load(Ordering::Acquire)
}

/// Total priority-change (preemption) events injected since process start.
///
/// Diagnostics: a stress test can assert this moved to prove the `stress`
/// feature (and thus live scheduling) is compiled in.
pub fn demotions() -> u64 {
    DEMOTIONS.load(Ordering::Relaxed)
}

/// The planted bugs: known-answer targets that prove the harness would
/// catch a real regression of the same shape. Each names one `if armed(..)`
/// branch at the planted site; `tests/explore.rs` arms them one at a time
/// and requires the bug to be found seedlessly, shrunk, and replayed
/// byte-identically. Unarmed (always, in a build without `stress`) the
/// structures are the correct ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `TreiberStack::push` publishes its node with a `Relaxed` head CAS
    /// instead of `Release`. A popper can then observe the new head
    /// without synchronizing with the pusher, read the node's `next`
    /// field as its stale pre-link value (null), and truncate the stack —
    /// the canonical "relaxed publish" mistake.
    RelaxedPublish,
    /// `MsQueue::enqueue` links its node with a `Relaxed` CAS instead of
    /// `Release`. A dequeuer that reaches the node may dereference a
    /// payload whose initialization it has no happens-before edge to. The
    /// stale read goes through a *plain* field (`value`), invisible to
    /// the atomics model — what the published-region race detector exists
    /// to catch.
    RelaxedLink,
    /// The claim→publish windows of `BoundedQueue::try_enqueue` /
    /// `try_dequeue` contain an extra yield point, so a schedule can
    /// preempt a thread *between* claiming a position and touching the
    /// slot's value. Combined with `BoundedQueue::with_capacity_unchecked`
    /// this re-arms the capacity-1 overwrite fixed in an earlier
    /// revision. (Always-on, the extra yields would perturb every pinned
    /// schedule.)
    ClaimWindowYields,
    /// `ResizingMap::migrate_bucket` publishes the source bucket's
    /// `migrated` flag and releases its lock *before* the drained entries
    /// reach the destination buckets, with a yield point in the gap.
    /// During that gap the moved entries exist in **neither** table, so a
    /// concurrent lookup observes an inserted key as missing — the
    /// migration-gap race fixed in an earlier revision.
    MigrationGap,
    /// A `Channel` receiver that saw (empty, closed, `inflight == 0`)
    /// trusts the close wake and skips the final drain dequeue — the
    /// wake-before-publish race the close protocol exists to prevent.
    CloseSkipsFinalDrain,
}

/// The [`Fault`]s in force for the scheduler round in progress: the mask
/// the installing thread had armed, published by [`lock_round`] and
/// cleared when the [`RoundLock`] drops. `raw`, so reading it is never a
/// modelled location or a yield point.
#[cfg(feature = "stress")]
static FAULTS: crate::raw::AtomicU8 = crate::raw::AtomicU8::new(0);

#[cfg(feature = "stress")]
thread_local! {
    /// The faults the calling thread holds a [`FaultGuard`] for.
    static ARMED_HERE: Cell<u8> = const { Cell::new(0) };
}

/// Whether `fault` is in force. Constant `false` without the `stress`
/// feature, so the planted branch compiles away.
#[cfg(feature = "stress")]
#[inline]
pub fn armed(fault: Fault) -> bool {
    FAULTS.load(Ordering::Relaxed) & (1 << fault as u8) != 0
}

/// Whether `fault` is in force: never, without the `stress` feature.
#[cfg(not(feature = "stress"))]
#[inline(always)]
pub const fn armed(_fault: Fault) -> bool {
    false
}

/// Arms `fault` for the scheduler rounds (PCT or explore, including
/// replays) the calling thread installs until the returned guard drops.
/// Rounds are process-exclusive, so the plant is in force for the arming
/// test's own windows and for nobody else's, however many tests the
/// harness runs in parallel; and the guard disarms on unwind, so a
/// failing test cannot leak its plant into the next one.
///
/// Call it on the thread that installs the round, before [`install`] /
/// `Explorer::begin` / `begin_replay`: the mask is read once, at install.
/// A fault armed on any other thread, or after install, is not in force.
///
/// # Panics
///
/// Panics if the calling thread already has `fault` armed.
#[cfg(feature = "stress")]
pub fn arm(fault: Fault) -> FaultGuard {
    let bit = 1 << fault as u8;
    ARMED_HERE.with(|a| {
        assert!(a.get() & bit == 0, "{fault:?} is already armed");
        a.set(a.get() | bit);
    });
    FaultGuard(fault, std::marker::PhantomData)
}

/// An armed [`Fault`]; disarms on drop. Bound to the arming thread.
#[cfg(feature = "stress")]
#[derive(Debug)]
#[must_use = "the fault is disarmed as soon as the guard drops"]
pub struct FaultGuard(Fault, std::marker::PhantomData<*const ()>);

#[cfg(feature = "stress")]
impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED_HERE.with(|a| a.set(a.get() & !(1 << self.0 as u8)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn yield_point_is_inert_without_scheduler() {
        // `ACTIVE` is only true while the round lock is held, so holding it
        // keeps a sibling test's `install` out for the assertion.
        let _quiet = lock_round();
        // Must not block or panic from an unregistered thread.
        yield_point();
        assert!(!is_active());
    }

    #[test]
    fn install_register_uninstall_round_trip() {
        let run = install(StressConfig {
            seed: 42,
            ..StressConfig::default()
        });
        assert_eq!(is_active(), cfg!(feature = "stress"));
        let worker = std::thread::spawn(|| {
            let _slot = register(0);
            for _ in 0..32 {
                yield_point();
            }
        });
        worker.join().unwrap();
        drop(run);
        // A sibling test may install the moment the run drops; retake the
        // round lock so what is observed is this run's uninstall.
        let _quiet = lock_round();
        assert!(!is_active());
    }

    #[cfg(feature = "stress")]
    #[test]
    fn armed_faults_are_in_force_only_for_the_arming_threads_rounds() {
        let plant = arm(Fault::MigrationGap);
        {
            let _run = install(StressConfig::default());
            assert!(armed(Fault::MigrationGap));
            assert!(!armed(Fault::RelaxedLink));
        }
        std::thread::spawn(|| {
            let _run = install(StressConfig::default());
            assert!(!armed(Fault::MigrationGap));
        })
        .join()
        .unwrap();
        drop(plant);
        let _run = install(StressConfig::default());
        assert!(!armed(Fault::MigrationGap));
    }

    /// Two workers, demoted at every step: both finish, and a step never
    /// overlaps another — a worker is granted its step only once every
    /// registered worker has paused.
    #[cfg(feature = "stress")]
    #[test]
    fn two_workers_progress_one_step_at_a_time() {
        use crate::raw::AtomicUsize;
        use std::sync::Arc;
        let run = install(StressConfig {
            seed: 7,
            change_period: 1,
        });
        let hits = Arc::new(AtomicUsize::new(0));
        let stepping = Arc::new(AtomicUsize::new(0));
        let overlaps = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let hits = Arc::clone(&hits);
                let stepping = Arc::clone(&stepping);
                let overlaps = Arc::clone(&overlaps);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let _slot = register(i);
                    start.wait();
                    for _ in 0..2000 {
                        yield_point();
                        if stepping.fetch_add(1, Ordering::SeqCst) != 0 {
                            overlaps.fetch_add(1, Ordering::Relaxed);
                        }
                        for _ in 0..64 {
                            std::hint::spin_loop();
                        }
                        hits.fetch_add(1, Ordering::Relaxed);
                        stepping.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(run);
        assert_eq!(hits.load(Ordering::Relaxed), 4000);
        assert_eq!(overlaps.load(Ordering::Relaxed), 0, "two steps overlapped");
    }

    /// Determinism rule 2 broken on purpose: worker 1 sleeps in the kernel
    /// on a `std` mutex that worker 0 holds while paused. No step can be
    /// granted, so the engine must abort the round naming the sleeper —
    /// not hang, and not let either worker run unscheduled.
    #[cfg(feature = "stress")]
    #[test]
    fn kernel_block_on_a_paused_worker_aborts_the_round_loudly() {
        use std::sync::{Arc, Barrier, Mutex};
        let run = install(StressConfig::default());
        let lock = Arc::new(Mutex::new(()));
        let held = Arc::new(Barrier::new(2));
        let holder = {
            let (lock, held) = (Arc::clone(&lock), Arc::clone(&held));
            std::thread::spawn(move || {
                let _slot = register(0);
                let _guard = lock.lock().unwrap();
                held.wait();
                yield_point(); // pauses holding the mutex
            })
        };
        let sleeper = {
            let (lock, held) = (Arc::clone(&lock), Arc::clone(&held));
            std::thread::spawn(move || {
                let _slot = register(1);
                held.wait();
                // Returns (poisoned) only once the abort unwinds the holder.
                let _guard = lock.lock();
                yield_point();
            })
        };
        let stalled = holder
            .join()
            .expect_err("the paused holder must detect the stall");
        let message = stalled
            .downcast_ref::<String>()
            .expect("the stall is reported as a formatted panic");
        assert!(
            message.contains("[1]") && message.contains("rule 2"),
            "stall report must name the sleeping slot and the rule: {message}"
        );
        let unwound = sleeper
            .join()
            .expect_err("the sleeper must not run on unscheduled");
        assert!(unwound.is::<explore::ExploreAbort>());
        drop(run);
    }
}
