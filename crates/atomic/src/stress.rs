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
//! the yield points become preemption points under a randomized
//! priority-based scheduler in the style of PCT (Burckhardt et al., *A
//! Randomized Scheduler with Probabilistic Guarantees of Finding Bugs*,
//! ASPLOS 2010):
//!
//! * every registered worker thread gets a priority derived
//!   deterministically from the run seed and its worker index;
//! * only the highest-priority runnable thread (the *token holder*) makes
//!   progress past yield points; the others spin;
//! * at seeded priority-change points the token holder is demoted below
//!   every other thread, forcing a context switch exactly there;
//! * a demoted thread still owes the step it was granted, so the new
//!   token holder waits until that step has ended (the thread reached its
//!   next yield point or deregistered) before taking its own: at most one
//!   registered thread runs between yield points, on any number of cores.
//!
//! Because priorities, change points, and forced-backoff injections are
//! all derived from one [`SplitMix64`] stream seeded by
//! [`StressConfig::seed`], re-running a round with the same seed replays
//! the same schedule decisions. Replay is *best effort*: if the token
//! holder blocks in the kernel (e.g. on a contended lock) or the host
//! keeps it off the CPU long enough, waiting threads fall through after a
//! bounded number of yields rather than deadlock, which can perturb the
//! schedule. In practice the failing schedules the suite finds reproduce
//! from their printed seed.
//!
//! Threads that never call [`register`] (the test runner, unrelated
//! concurrent tests) pass through yield points untouched even while a
//! scheduler is active.
//!
//! Each yield point may carry a [`YieldTag`] describing the shared
//! location the *next* step will touch. The PCT scheduler ignores tags;
//! the systematic explorer ([`explore`]) derives its independence
//! relation from them. Inside a weak-memory explore window the facade
//! additionally makes every atomic access a tagged yield point of its
//! own and lets the weak-memory machine choose what each load observes;
//! outside such a window a stress-build atomic is the plain `std` op.

use std::cell::Cell;
use std::fmt;
// The scheduler's own state must stay invisible to the instrumented
// atomics it drives, hence `raw`.
use crate::raw::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// How many `yield_now` spins a non-token thread performs before falling
/// through a yield point anyway (deadlock avoidance when the token holder
/// is blocked in the kernel; a holder the host keeps off the CPU this long
/// trips it too).
#[cfg_attr(not(feature = "stress"), allow(dead_code))]
const FAIRNESS_BOUND: u32 = 1 << 14;

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
    /// Root seed; priorities, change points, and backoff all derive from it.
    pub seed: u64,
    /// Average number of token-holder steps between priority-change
    /// points (the PCT depth knob). `0` disables preemption injection.
    pub change_period: u64,
    /// Forced-backoff injection: on average one in `backoff_denom`
    /// token-holder steps spins [`backoff_spins`](Self::backoff_spins)
    /// times before proceeding. `0` disables injection.
    pub backoff_denom: u64,
    /// Spin count per injected backoff.
    pub backoff_spins: u32,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            seed: 0,
            change_period: 3,
            backoff_denom: 0,
            backoff_spins: 0,
        }
    }
}

// Most fields only feed `yield_point_slow`, which is compiled under the
// `stress` feature; the struct itself stays so install/register keep one
// shape either way.
#[cfg_attr(not(feature = "stress"), allow(dead_code))]
struct SchedState {
    rng: SplitMix64,
    seed: u64,
    priorities: [u64; MAX_THREADS],
    registered: [bool; MAX_THREADS],
    token: Option<usize>,
    steps: u64,
    next_change: u64,
    change_period: u64,
    next_demotion: u64,
    backoff_denom: u64,
    backoff_spins: u32,
}

impl SchedState {
    fn recompute_token(&mut self) {
        self.token = (0..MAX_THREADS)
            .filter(|&i| self.registered[i])
            .max_by_key(|&i| self.priorities[i]);
        // Mirror into the lock-free cache that waiters spin on.
        TOKEN.store(self.token.unwrap_or(NO_SLOT), Ordering::Release);
    }
}

/// "No slot" value of [`TOKEN`] and [`IN_FLIGHT`].
const NO_SLOT: usize = usize::MAX;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static DEMOTIONS: AtomicU64 = AtomicU64::new(0);
/// Cache of `SchedState::token`: non-token threads wait on this atomic
/// instead of hammering the state mutex, which would otherwise serialize
/// the token holder against every spinner.
static TOKEN: AtomicUsize = AtomicUsize::new(NO_SLOT);
/// The slot whose granted step is still executing. The token holder
/// claims it when it passes a yield point and gives it up on reaching the
/// next one (or deregistering). A demotion moves [`TOKEN`] at once, but
/// the new holder cannot claim until the demoted thread's step has ended,
/// so which of the two steps runs first is the seed's decision, not the
/// host's.
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(NO_SLOT);
static STATE: Mutex<Option<SchedState>> = Mutex::new(None);
static RUN_LOCK: Mutex<()> = Mutex::new(());
/// Times a waiter gave up on [`FAIRNESS_BOUND`] and ran unscheduled. While
/// this stands still the seed alone decided the round's schedule.
#[cfg(feature = "stress")]
static FAIRNESS_ESCAPES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CUR_SLOT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Ends the step `slot` was granted at its previous yield point, if it
/// is still in flight: called on arriving at the next yield point and on
/// deregistering.
fn end_step(slot: usize) {
    let _ = IN_FLIGHT.compare_exchange(slot, NO_SLOT, Ordering::Release, Ordering::Relaxed);
}

fn state_lock() -> MutexGuard<'static, Option<SchedState>> {
    STATE.lock().unwrap_or_else(|poison| poison.into_inner())
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
    _exclusive: RoundLock,
}

impl fmt::Debug for StressRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StressRun").finish_non_exhaustive()
    }
}

impl Drop for StressRun {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::Release);
        *state_lock() = None;
        TOKEN.store(NO_SLOT, Ordering::Release);
        IN_FLIGHT.store(NO_SLOT, Ordering::Release);
    }
}

/// Installs a scheduler for one round. Worker threads must then
/// [`register`] with distinct indices; the round ends when the returned
/// guard drops.
pub fn install(cfg: StressConfig) -> StressRun {
    let exclusive = lock_round();
    let change_period = cfg.change_period;
    *state_lock() = Some(SchedState {
        rng: SplitMix64::new(mix_seed(cfg.seed, 0x5ced)),
        seed: cfg.seed,
        priorities: [0; MAX_THREADS],
        registered: [false; MAX_THREADS],
        token: None,
        steps: 0,
        next_change: change_period.max(1),
        change_period,
        // Demotions count down from well below every initial priority
        // (initial priorities have the top bit set), so each demoted
        // thread lands below all others — the PCT discipline.
        next_demotion: 1 << 32,
        backoff_denom: cfg.backoff_denom,
        backoff_spins: cfg.backoff_spins,
    });
    TOKEN.store(NO_SLOT, Ordering::Release);
    ACTIVE.store(true, Ordering::Release);
    StressRun {
        _exclusive: exclusive,
    }
}

/// A worker thread's registration with the active scheduler; deregisters
/// (and hands the token onward) on drop.
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
        let Some(slot) = self.slot else { return };
        CUR_SLOT.with(|c| c.set(None));
        #[cfg(feature = "stress")]
        if explore::deregister(slot) {
            return;
        }
        if let Some(st) = state_lock().as_mut() {
            st.registered[slot] = false;
            st.recompute_token();
        }
        end_step(slot);
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
    let mut guard = state_lock();
    let Some(st) = guard.as_mut() else {
        return ThreadSlot { slot: None };
    };
    assert!(
        !st.registered[index],
        "worker index {index} registered twice"
    );
    st.registered[index] = true;
    // Top bit set keeps every initial priority above the demotion range.
    st.priorities[index] = mix_seed(st.seed, index as u64 + 1) | (1 << 63);
    st.recompute_token();
    drop(guard);
    CUR_SLOT.with(|c| c.set(Some(index)));
    ThreadSlot { slot: Some(index) }
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
/// The PCT scheduler ignores tags; the systematic [`explore`] scheduler
/// derives its independence relation from them. Untagged points are
/// conservatively dependent on everything, so tagging is an optimization,
/// never a correctness requirement for instrumented code.
#[inline]
pub fn yield_point_tagged(tag: YieldTag) {
    #[cfg(feature = "stress")]
    yield_point_slow(tag);
    #[cfg(not(feature = "stress"))]
    let _ = tag;
}

#[cfg(feature = "stress")]
fn yield_point_slow(tag: YieldTag) {
    if !ACTIVE.load(Ordering::Acquire) {
        return;
    }
    let Some(slot) = CUR_SLOT.with(|c| c.get()) else {
        return;
    };
    if explore::mode_active() {
        explore::on_yield(slot, tag);
        return;
    }
    end_step(slot);
    let mut spins: u32 = 0;
    loop {
        // Lock-free wait: only the (apparent) token holder touches the
        // state mutex, so spinners never serialize against its updates.
        let tok = TOKEN.load(Ordering::Acquire);
        if (tok != slot && tok != NO_SLOT) || IN_FLIGHT.load(Ordering::Acquire) != NO_SLOT {
            spins += 1;
            if spins > FAIRNESS_BOUND {
                // The token holder (or the thread finishing its step) is
                // off the CPU: blocked in the kernel, e.g. on a lock we
                // hold, or merely descheduled by the host for this long.
                // Fall through rather than deadlock; from here on the
                // round's schedule is no longer the seed's alone.
                FAIRNESS_ESCAPES.fetch_add(1, Ordering::Relaxed);
                return;
            }
            std::thread::yield_now();
            continue;
        }
        let mut backoff = 0u32;
        {
            let mut guard = state_lock();
            let Some(st) = guard.as_mut() else { return };
            if !st.registered[slot] {
                return;
            }
            match st.token {
                Some(token) if token == slot => {
                    // Only the token holder claims, and it does so under
                    // the state lock, so the word can only have been
                    // cleared since the check above, never re-claimed.
                    if IN_FLIGHT
                        .compare_exchange(NO_SLOT, slot, Ordering::AcqRel, Ordering::Relaxed)
                        .is_err()
                    {
                        drop(guard);
                        continue;
                    }
                    st.steps += 1;
                    if st.backoff_denom > 0 && st.rng.below(st.backoff_denom) == 0 {
                        backoff = st.backoff_spins;
                    }
                    if st.change_period > 0 && st.steps >= st.next_change {
                        st.next_change = st.steps + 1 + st.rng.below(st.change_period.max(1));
                        st.next_demotion -= 1;
                        st.priorities[slot] = st.next_demotion;
                        st.recompute_token();
                        DEMOTIONS.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Some(_) => {
                    // Raced with a token change; resume waiting.
                    drop(guard);
                    continue;
                }
                None => {}
            }
        }
        for _ in 0..backoff {
            std::hint::spin_loop();
        }
        return;
    }
}

/// The slot the calling thread registered with, if any.
#[cfg_attr(not(feature = "stress"), allow(dead_code))]
pub(crate) fn current_slot() -> Option<usize> {
    CUR_SLOT.with(|c| c.get())
}

/// Operation-boundary marker for weak-memory exploration.
///
/// Harnesses that drive per-thread operation sequences (the lincheck
/// explore driver) call this on the worker thread before each operation
/// and once after its last, giving the weak-memory model the real-time
/// completion edges linearizability is defined against: weak behaviors
/// stay confined to operations that actually overlap. A no-op in every
/// other configuration (default builds, PCT rounds, non-weak explore
/// windows), so callers need not gate it.
#[inline]
pub fn op_boundary() {
    #[cfg(feature = "stress")]
    if explore::mode_active() {
        if let Some(slot) = current_slot() {
            explore::op_boundary(slot);
        }
    }
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
    /// overlaps another — the demoted thread's granted step ends before
    /// the new token holder's begins. A waiter that fell through the
    /// fairness bound (the host descheduled the step owner for that long)
    /// ran unscheduled, so such a round proves nothing about overlap.
    #[cfg(feature = "stress")]
    #[test]
    fn two_workers_progress_one_step_at_a_time() {
        use std::sync::Arc;
        let run = install(StressConfig {
            seed: 7,
            change_period: 1,
            ..StressConfig::default()
        });
        // Only this round's waiters can bump it while `run` holds the lock.
        let escapes_before = FAIRNESS_ESCAPES.load(Ordering::Relaxed);
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
        let escapes = FAIRNESS_ESCAPES.load(Ordering::Relaxed) - escapes_before;
        drop(run);
        assert_eq!(hits.load(Ordering::Relaxed), 4000);
        if escapes == 0 {
            assert_eq!(overlaps.load(Ordering::Relaxed), 0, "two steps overlapped");
        } else {
            eprintln!("{escapes} fairness fall-through(s): overlap check skipped");
        }
    }
}
