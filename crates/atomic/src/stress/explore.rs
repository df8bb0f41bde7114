//! The step-granting engine under every stress round, and the
//! bounded-exhaustive systematic exploration ("model-checking mode")
//! built on it.
//!
//! The engine serializes the worker threads so that exactly one runs
//! between consecutive yield points; a `Chooser` decides which. Where
//! the PCT chooser ([module docs](super)) *samples* schedules from a
//! seeded distribution, the explorer *enumerates* them: it records every
//! scheduling decision and drives a depth-first search over all such
//! decision sequences. For the small operation
//! windows lincheck specs use (2–3 threads × 3–5 ops), the search
//! typically finishes in well under a second and the verdict is a proof
//! over *all* inequivalent interleavings at yield-point granularity — not
//! a lucky sample.
//!
//! # Pruning: sleep sets over tagged independence
//!
//! Exhaustive enumeration is exponential in schedule length, so the
//! explorer prunes with *sleep sets* (Godefroid), the classic
//! partial-order-reduction device: after fully exploring child `t` of a
//! node, `t` is put to sleep for the node's remaining children and stays
//! asleep down a branch until a step *dependent* on `t` executes. A branch
//! whose every enabled thread is asleep is redundant — some already
//! explored branch reaches the same state — and is abandoned early.
//!
//! The independence relation comes from the [`YieldTag`]s instrumented
//! code attaches to its yield points: two steps commute iff both are
//! tagged, with different addresses or neither writing. Untagged steps
//! ([`YieldTag::None`]) are conservatively dependent on everything, so a
//! structure with no tags at all degrades to plain exhaustive DFS —
//! pruning is an optimization, never a soundness assumption. This is
//! deliberately simpler than vector-clock DPOR (Flanagan & Godefroid):
//! sleep sets alone never skip a Mazurkiewicz trace, they only avoid
//! *some* equivalent reorderings, which is the right trade for windows
//! this small.
//!
//! Checking one representative schedule per trace is sound for
//! linearizability because the histories the harness checks are built
//! from invocation/response events that always follow untagged (hence
//! never-commuted) driver yields: equivalent schedules produce histories
//! with identical precedence constraints.
//!
//! # Blocked threads and livelock bounds
//!
//! A thread pausing with [`YieldTag::Blocked`] declares its next step a
//! pure recheck: re-running it before any other thread moves would change
//! nothing and land back at the same yield point. The explorer therefore
//! *disables* such a thread until any other thread completes a step —
//! sound, because the skipped stutter steps do not alter shared state and
//! schedules containing them are equivalent to ones without. Two bounds
//! make every search terminate even on livelocking or deadlocking
//! targets: a per-execution step budget ([`ExploreBounds::max_steps`])
//! and a cap on consecutive forced wakes of all-blocked thread sets; both
//! abort the execution as [`Outcome::Stuck`].
//!
//! # Mechanics
//!
//! [`Explorer::begin`] installs a round (one at a time process-wide, like
//! a PCT [`install`](super::install)). Worker threads pause at every yield
//! point; when all are paused or finished, the deepest paused thread
//! permitted by the current DFS *plan* is granted one step. Aborts
//! (redundant branch, budget exhausted) unwind the workers with a
//! dedicated panic payload ([`ExploreAbort`]) that the harness catches
//! and a process-wide panic hook mutes. [`Explorer::finish`] harvests the
//! decision log, grows the DFS tree, and [`Explorer::advance`] moves to
//! the next unexplored branch. The decision sequence of a failing
//! execution — just the chosen thread per step — is a *schedule* that
//! [`begin_replay`] re-executes verbatim, which is what the lincheck
//! trace format v2 stores.

use crate::raw::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

use super::weak::WeakState;
use super::{
    lock_round, mix_seed, RoundLock, SplitMix64, StressConfig, YieldTag, ACTIVE, DEMOTIONS,
    MAX_THREADS,
};

/// `GRANT` value meaning "no thread may step".
const IDLE: usize = usize::MAX;
/// `GRANT` value meaning "execution aborted; unwind at the next yield".
const ABORTED: usize = usize::MAX - 1;
/// Consecutive forced wakes of an all-blocked thread set before the
/// execution is declared stuck (each requires a full quiescent spin of
/// pure rechecks, so genuine progress resets the counter quickly).
const FORCED_WAKE_BOUND: u32 = 128;
/// How long a paused worker waits, with no step granted to anyone, before
/// it declares the round stalled: some registered thread is blocked in the
/// kernel on something only a paused worker can release, so no step can
/// ever be granted again (see [`StallWatch::stalled`]).
const STALL_LIMIT: Duration = Duration::from_secs(5);

/// Search bounds for one exploration.
#[derive(Debug, Clone)]
pub struct ExploreBounds {
    /// Maximum scheduling decisions per execution before it is declared
    /// [`Outcome::Stuck`] (livelock/deadlock backstop). A window of `t`
    /// threads × `k` ops needs roughly `t·k` times the per-op yield
    /// count, so the default is generous for lincheck-sized windows.
    pub max_steps: u64,
    /// Enables the weak-memory execution layer: every instrumented
    /// atomic operation becomes a tagged step, and loads branch over
    /// the C11-permitted read-from candidates (see
    /// [`super::weak`](super::weak) module docs). Only meaningful for
    /// targets whose synchronization goes entirely through
    /// `cds-atomic`; lock-based structures synchronize through the
    /// `parking_lot` shim, which the model cannot see.
    pub weak_memory: bool,
    /// With `weak_memory`: a load may read one of at most this many of
    /// the newest stores to its location (the staleness search bound).
    pub weak_window: usize,
    /// With `weak_memory`: loom-style publication/race checking of
    /// non-atomic node payloads (`cds-reclaim` calls [`publish_region`]
    /// and [`check_region`]). A detected race panics the worker
    /// deterministically instead of producing a linearizability verdict.
    pub detect_races: bool,
}

impl Default for ExploreBounds {
    fn default() -> Self {
        ExploreBounds {
            max_steps: 4096,
            weak_memory: false,
            weak_window: 4,
            detect_races: false,
        }
    }
}

/// One recorded scheduling decision of an execution.
#[derive(Debug, Clone, Copy)]
struct Decision {
    /// Thread granted the step.
    chosen: usize,
    /// Mask of threads that could have been chosen (paused, not
    /// disabled-blocked).
    enabled: u64,
    /// Sleep set inherited at this decision point.
    sleep: u64,
}

/// One forced step of a DFS plan (the path from the root to the branch
/// being explored).
#[derive(Debug, Clone, Copy)]
struct PlanStep {
    chosen: usize,
    /// Siblings already fully explored at this node; they join the sleep
    /// set for this branch per the sleep-set discipline.
    extra_sleep: u64,
}

/// One entry of an execution's interleaved decision log: scheduling
/// choices and (in weak-memory mode) read-from choices, in program
/// order. The DFS tree is grown from this log, so value branching
/// nests correctly inside schedule branching.
#[derive(Debug, Clone, Copy)]
enum LogEntry {
    Thread(Decision),
    /// A load with more than one read-from candidate chose
    /// `chosen` (offset into the candidate suffix; `count - 1` is the
    /// latest store). Single-candidate loads are not logged.
    Read {
        chosen: usize,
    },
}

/// Why an execution stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortKind {
    /// Every enabled thread was asleep: an equivalent branch was already
    /// explored.
    Redundant,
    /// Step budget or forced-wake bound exhausted.
    Stuck,
    /// A forced plan step named a thread that is not enabled — the
    /// target behaved differently than when the plan was recorded.
    Diverged,
}

/// Result of one explored execution, as classified by
/// [`Explorer::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The execution ran to completion; its history is meaningful and
    /// counts as one explored schedule.
    Complete,
    /// Pruned by the sleep-set discipline; equivalent to an already
    /// explored schedule. The (partial) history must be discarded.
    Redundant,
    /// Aborted by the step budget or the forced-wake bound — the target
    /// livelocked or deadlocked under this schedule.
    Stuck,
    /// A replayed plan diverged from the recorded behaviour; the target
    /// is nondeterministic beyond schedule choice (or the trace is stale).
    Diverged,
}

/// Panic payload used to unwind worker threads out of an aborted
/// execution. The harness catches it with `catch_unwind`; the panic hook
/// installed by [`Explorer::begin`] keeps it off stderr.
#[derive(Debug)]
pub struct ExploreAbort;

fn abort_panic() -> ! {
    std::panic::panic_any(ExploreAbort);
}

/// Slot currently granted a step, or [`IDLE`] / [`ABORTED`]. Paused
/// workers spin on this instead of the state mutex.
static GRANT: AtomicUsize = AtomicUsize::new(IDLE);
static EXP: Mutex<Option<ExpState>> = Mutex::new(None);
static HOOK: Once = Once::new();

fn exp_lock() -> MutexGuard<'static, Option<ExpState>> {
    EXP.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Installs a forwarding panic hook that mutes [`ExploreAbort`] unwinds
/// (they are control flow, not failures) and defers everything else to
/// the previously installed hook.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ExploreAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The worker slots in `mask`, ascending.
fn slots(mask: u64) -> impl Iterator<Item = usize> {
    (0..MAX_THREADS).filter(move |&i| mask & (1u64 << i) != 0)
}

/// The scheduling policy: which enabled paused worker is granted the next
/// step once the forced `plan` prefix is used up. Everything else — the
/// pause/grant handshake, `Blocked` disabling, aborts — is the one engine
/// below, whichever chooser drives it.
enum Chooser {
    /// Systematic search: the lowest-numbered enabled worker that is not
    /// asleep; a node with every enabled worker asleep is redundant.
    Dfs,
    /// Replay of a recorded schedule: past the plan, the lowest-numbered
    /// enabled worker, never pruning.
    Replay,
    /// Seeded sampling for an *open-world* round: the thread count is not
    /// known at install, slots come and go mid-round, and what a blocked
    /// worker waits for may be an unregistered thread.
    Pct(Box<Pct>),
}

/// PCT priorities and change points, all drawn from the round seed.
struct Pct {
    /// Initial priorities have the top bit set; demotions count down from
    /// `next_demotion`, well below them, so each demoted worker lands
    /// below all others — the PCT discipline.
    priorities: [u64; MAX_THREADS],
    next_demotion: u64,
    rng: SplitMix64,
    steps: u64,
    next_change: u64,
    change_period: u64,
}

impl Pct {
    fn new(cfg: &StressConfig) -> Self {
        let mut priorities = [0; MAX_THREADS];
        for (index, priority) in priorities.iter_mut().enumerate() {
            *priority = mix_seed(cfg.seed, index as u64 + 1) | (1 << 63);
        }
        Pct {
            priorities,
            next_demotion: 1 << 32,
            rng: SplitMix64::new(mix_seed(cfg.seed, 0x5ced)),
            steps: 0,
            next_change: cfg.change_period.max(1),
            change_period: cfg.change_period,
        }
    }

    /// The highest-priority enabled worker; at a change point it is
    /// demoted, so its *next* step waits for everyone else.
    fn pick(&mut self, enabled: u64) -> usize {
        let chosen = slots(enabled)
            .max_by_key(|&i| self.priorities[i])
            .expect("dispatch with no enabled worker");
        self.steps += 1;
        if self.change_period > 0 && self.steps >= self.next_change {
            self.next_change = self.steps + 1 + self.rng.below(self.change_period);
            self.next_demotion -= 1;
            self.priorities[chosen] = self.next_demotion;
            DEMOTIONS.fetch_add(1, Ordering::Relaxed);
        }
        chosen
    }
}

/// Live state of one scheduled execution.
struct ExpState {
    threads: usize,
    plan: Vec<PlanStep>,
    /// Forced read-from choices, consumed in order by loads with more
    /// than one candidate. Deterministic execution keeps the two plan
    /// queues aligned without recording their interleaving.
    plan_reads: Vec<usize>,
    rcursor: usize,
    chooser: Chooser,
    max_steps: u64,
    /// Bitmasks over worker slots. `finished` marks deregistered slots (a
    /// slot that registers again is live again); `paused` only ever holds
    /// live ones.
    registered: u64,
    paused: u64,
    finished: u64,
    /// Blocked threads that have not seen another thread step since
    /// pausing; at most the most recent pauser, by construction.
    disabled: u64,
    running: Option<usize>,
    tags: [YieldTag; MAX_THREADS],
    sleep: u64,
    decisions: Vec<Decision>,
    /// Interleaved log of thread and read-from decisions (see
    /// [`LogEntry`]); `decisions` is its thread-only projection, kept
    /// separately because the thread-plan cursor indexes it.
    log: Vec<LogEntry>,
    /// Weak-memory machine, present iff
    /// [`ExploreBounds::weak_memory`].
    weak: Option<WeakState>,
    steps: u64,
    forced_wakes: u32,
    abort: Option<AbortKind>,
}

/// Two steps commute iff both are tagged and they cannot conflict:
/// different locations, or the same location with neither writing.
/// [`YieldTag::Blocked`] counts as a read of its location.
fn independent(a: YieldTag, b: YieldTag) -> bool {
    fn access(t: YieldTag) -> Option<(usize, bool)> {
        match t {
            YieldTag::None => None,
            YieldTag::Read(a) | YieldTag::Blocked(a) => Some((a, false)),
            YieldTag::Write(a) => Some((a, true)),
        }
    }
    match (access(a), access(b)) {
        (Some((aa, aw)), Some((ba, bw))) => aa != ba || (!aw && !bw),
        _ => false,
    }
}

impl ExpState {
    fn new(
        threads: usize,
        plan: Vec<PlanStep>,
        plan_reads: Vec<usize>,
        chooser: Chooser,
        bounds: &ExploreBounds,
    ) -> Self {
        ExpState {
            threads,
            plan,
            plan_reads,
            rcursor: 0,
            chooser,
            max_steps: bounds.max_steps,
            registered: 0,
            paused: 0,
            finished: 0,
            disabled: 0,
            running: None,
            tags: [YieldTag::None; MAX_THREADS],
            sleep: 0,
            decisions: Vec::new(),
            log: Vec::new(),
            weak: bounds
                .weak_memory
                .then(|| WeakState::new(threads, bounds.weak_window, bounds.detect_races)),
            steps: 0,
            forced_wakes: 0,
            abort: None,
        }
    }

    fn full_mask(&self) -> u64 {
        if self.threads == 64 {
            u64::MAX
        } else {
            (1u64 << self.threads) - 1
        }
    }

    fn trigger_abort(&mut self, kind: AbortKind) {
        self.abort = Some(kind);
        GRANT.store(ABORTED, Ordering::Release);
    }

    /// A PCT round (see [`Chooser::Pct`]).
    fn pct(cfg: &StressConfig) -> Self {
        let unbounded = ExploreBounds {
            max_steps: u64::MAX,
            ..ExploreBounds::default()
        };
        let chooser = Chooser::Pct(Box::new(Pct::new(cfg)));
        ExpState::new(MAX_THREADS, Vec::new(), Vec::new(), chooser, &unbounded)
    }

    fn open_world(&self) -> bool {
        matches!(self.chooser, Chooser::Pct(_))
    }

    /// Grants one thread a step if the execution is quiescent: every
    /// live worker paused, none running — and, in a closed world, every
    /// expected worker registered. Called after every pause and finish.
    fn maybe_dispatch(&mut self) {
        if self.abort.is_some() || self.running.is_some() {
            return;
        }
        if !self.open_world() && self.registered != self.full_mask() {
            return;
        }
        let live = self.registered & !self.finished;
        if live == 0 || self.paused != live {
            return;
        }
        let mut enabled = self.paused & !self.disabled;
        if enabled == 0 {
            // Everyone left is blocked with nothing moved since: force a
            // recheck round. In a closed world that is bounded, so a real
            // deadlock still terminates; in an open one an unregistered
            // thread may yet release them, so they are simply re-woken.
            if !self.open_world() {
                self.forced_wakes += 1;
                if self.forced_wakes > FORCED_WAKE_BOUND {
                    return self.trigger_abort(AbortKind::Stuck);
                }
            }
            self.disabled = 0;
            enabled = self.paused;
        }
        let idx = self.decisions.len();
        let (chosen, extra_sleep) = if idx < self.plan.len() {
            let p = self.plan[idx];
            if enabled & (1u64 << p.chosen) == 0 {
                return self.trigger_abort(AbortKind::Diverged);
            }
            (p.chosen, p.extra_sleep)
        } else {
            let cands = enabled & !self.sleep;
            match &mut self.chooser {
                Chooser::Pct(pct) => (pct.pick(enabled), 0),
                Chooser::Dfs if cands == 0 => return self.trigger_abort(AbortKind::Redundant),
                Chooser::Replay if cands == 0 => (enabled.trailing_zeros() as usize, 0),
                Chooser::Dfs | Chooser::Replay => (cands.trailing_zeros() as usize, 0),
            }
        };
        let decision = Decision {
            chosen,
            enabled,
            sleep: self.sleep,
        };
        // An open-world round has no bounded length and nobody harvests it.
        if !self.open_world() {
            self.decisions.push(decision);
            self.log.push(LogEntry::Thread(decision));
        }
        // Sleep-set propagation: already-explored siblings (and inherited
        // sleepers) stay asleep down this branch only while independent
        // of the step just granted.
        let inherited = (self.sleep | extra_sleep) & self.paused & !(1u64 << chosen);
        let mut new_sleep = 0u64;
        let mut bits = inherited;
        while bits != 0 {
            let u = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if independent(self.tags[u], self.tags[chosen]) {
                new_sleep |= 1u64 << u;
            }
        }
        self.sleep = new_sleep;
        self.steps += 1;
        if self.steps > self.max_steps {
            return self.trigger_abort(AbortKind::Stuck);
        }
        self.paused &= !(1u64 << chosen);
        self.running = Some(chosen);
        GRANT.store(chosen, Ordering::Release);
    }

    /// Resolves one read-from choice: consumes the read plan, else
    /// defaults to the latest store (so the first execution of every
    /// branch behaves sequentially consistently) and logs the branch
    /// point for the DFS. `None` means the plan diverged and the abort
    /// was triggered.
    fn choose_read(&mut self, count: usize) -> Option<usize> {
        if count <= 1 {
            return Some(0);
        }
        let chosen = if self.rcursor < self.plan_reads.len() {
            let c = self.plan_reads[self.rcursor];
            self.rcursor += 1;
            if c >= count {
                self.trigger_abort(AbortKind::Diverged);
                return None;
            }
            c
        } else {
            count - 1
        };
        self.log.push(LogEntry::Read { chosen });
        Some(chosen)
    }

    /// Weak-memory load: computes the candidate set, branches, and
    /// returns the observed value. `None` means the execution aborted.
    fn weak_load(
        &mut self,
        slot: usize,
        addr: usize,
        order: Ordering,
        current: u64,
    ) -> Option<u64> {
        let count = self.weak().load_candidates(slot, addr, order, current);
        let chosen = self.choose_read(count)?;
        Some(self.weak().load_commit(slot, addr, order, count, chosen))
    }

    /// The weak machine of a weak window (callers come through
    /// [`with_weak`], which checks there is one).
    fn weak(&mut self) -> &mut WeakState {
        self.weak.as_mut().expect("weak machine missing")
    }
}

/// Registers `index` with the installed round; `false` when there is none
/// (the caller's guard is then inert).
pub(super) fn register(index: usize) -> bool {
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else {
        return false;
    };
    assert!(
        index < st.threads,
        "worker index {index} out of range for a round of {} threads",
        st.threads
    );
    let bit = 1u64 << index;
    assert!(
        st.registered & !st.finished & bit == 0,
        "worker index {index} registered twice"
    );
    st.registered |= bit;
    st.finished &= !bit;
    true
}

/// Removes a finished worker from the round. Must never panic: it runs
/// from `Drop` during abort unwinds.
pub(super) fn deregister(slot: usize) {
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else { return };
    let bit = 1u64 << slot;
    if st.registered & !st.finished & bit == 0 {
        return;
    }
    if st.running == Some(slot) {
        st.running = None;
        st.steps += 1;
        if GRANT.load(Ordering::Acquire) == slot {
            GRANT.store(IDLE, Ordering::Release);
        }
    }
    st.paused &= !bit;
    st.finished |= bit;
    st.sleep &= !bit;
    st.disabled = 0;
    st.forced_wakes = 0;
    st.maybe_dispatch();
}

/// The yield point of a registered worker: pause, hand the scheduler the
/// access tag for the next step, and wait to be granted that step. Panics
/// with [`ExploreAbort`] when the execution is aborted.
pub(super) fn on_yield(slot: usize, tag: YieldTag) {
    let mut watch = {
        let mut guard = exp_lock();
        let Some(st) = guard.as_mut() else { return };
        if st.abort.is_some() {
            drop(guard);
            abort_panic();
        }
        let bit = 1u64 << slot;
        if st.registered & bit == 0 || st.finished & bit != 0 {
            return;
        }
        if st.running == Some(slot) {
            st.running = None;
            if GRANT.load(Ordering::Acquire) == slot {
                GRANT.store(IDLE, Ordering::Release);
            }
        }
        st.paused |= bit;
        st.tags[slot] = tag;
        // This thread just completed a step (or arrived), so every other
        // blocked thread's "nothing has moved" premise is void; its own
        // sticks only if this pause itself declares a pure recheck.
        if matches!(tag, YieldTag::Blocked(_)) {
            st.disabled = bit;
        } else {
            st.disabled = 0;
            st.forced_wakes = 0;
        }
        st.maybe_dispatch();
        if st.abort.is_some() {
            drop(guard);
            abort_panic();
        }
        StallWatch {
            deadline: Instant::now() + STALL_LIMIT,
            steps: st.steps,
        }
    };
    loop {
        match GRANT.load(Ordering::Acquire) {
            g if g == slot => return,
            ABORTED => abort_panic(),
            _ if watch.stalled() => return,
            _ => std::thread::yield_now(),
        }
    }
}

/// A paused worker's view of whether the round still makes progress.
struct StallWatch {
    deadline: Instant,
    /// `ExpState::steps` when the deadline was last set.
    steps: u64,
}

impl StallWatch {
    /// Called while waiting for a grant. If a whole [`STALL_LIMIT`] went
    /// by with no step granted to anyone, some registered thread that is
    /// not paused keeps the round from quiescing — which a runnable thread
    /// does for microseconds, so it is asleep in the kernel (or spinning
    /// with no yield point) on something only a paused worker can release.
    /// Aborts the round and panics naming it. Returns `true` only when the
    /// round is gone (the installer dropped it with workers still paused):
    /// the caller then runs on as an unscheduled thread.
    fn stalled(&mut self) -> bool {
        if Instant::now() < self.deadline {
            return false;
        }
        let mut guard = exp_lock();
        let Some(st) = guard.as_mut() else {
            return true;
        };
        if st.abort.is_some() || self.steps != st.steps {
            self.steps = st.steps;
            self.deadline = Instant::now() + STALL_LIMIT;
            return false;
        }
        let holders: Vec<usize> = slots(st.registered & !st.finished & !st.paused).collect();
        st.trigger_abort(AbortKind::Stuck);
        drop(guard);
        panic!(
            "stress round stalled: no step was granted for {STALL_LIMIT:?} while slot(s) \
             {holders:?} held the step without reaching a yield point. A registered thread \
             must never block in the kernel (or spin without a yield point) on something \
             only a paused worker can release (DESIGN.md, determinism rule 2)."
        );
    }
}

/// True only while an installed explore round carries a weak-memory
/// machine. Keeps instrumented atomics plain `std` ops (no extra yields,
/// no value rewrites) for PCT rounds and for non-weak explore windows, so
/// their schedules and baseline counts are untouched by the facade.
static WEAK_ON: AtomicBool = AtomicBool::new(false);

// The facade's entry points. Inside a weak window every instrumented
// atomic operation calls `weak_pre` *before* the real operation — the
// tagged yield point, which may park the thread while the explorer
// schedules someone else — and one of the value functions *after* it,
// while the thread still holds the scheduler's grant. The real `std`
// atomic always executes, so real memory holds the latest value in
// modification order; only what a load *returns* is virtualized.

/// The facade's gate: whether the calling thread is a registered worker
/// of an active weak window. `false` for every other thread and mode —
/// the driver doing setup/teardown runs at real-memory semantics, which
/// is correct: real memory always holds the latest value.
#[inline]
pub(crate) fn weak_active() -> bool {
    WEAK_ON.load(Ordering::Acquire) && super::current_slot().is_some()
}

/// Yield point before an instrumented access; `addr` is 0 for fences.
pub(crate) fn weak_pre(addr: usize, is_write: bool) {
    let Some(slot) = super::current_slot() else {
        return;
    };
    let tag = if addr == 0 {
        // Fences have no location; conservatively dependent on all.
        YieldTag::None
    } else if is_write {
        YieldTag::Write(addr)
    } else {
        YieldTag::Read(addr)
    };
    on_yield(slot, tag);
}

/// Runs `f` on the explore state and the calling worker's slot, if that
/// worker is still live in a weak window.
fn with_weak<R>(f: impl FnOnce(&mut ExpState, usize) -> R) -> Option<R> {
    let slot = super::current_slot()?;
    let mut guard = exp_lock();
    let st = guard.as_mut()?;
    let bit = 1u64 << slot;
    if st.weak.is_none() || st.registered & bit == 0 || st.finished & bit != 0 {
        return None;
    }
    Some(f(st, slot))
}

/// A load observed `current` (the latest value); returns the value the
/// caller must observe instead, which may be any C11-permitted stale
/// write.
pub(crate) fn weak_load(addr: usize, order: Ordering, current: u64) -> u64 {
    match with_weak(|st, slot| st.weak_load(slot, addr, order, current)) {
        None => current,
        Some(Some(v)) => v,
        // The read plan diverged; the state lock is released by now.
        Some(None) => abort_panic(),
    }
}

/// A plain store replaced `prev` with `new`.
pub(crate) fn weak_store(addr: usize, order: Ordering, prev: u64, new: u64) {
    with_weak(|st, slot| st.weak().store(slot, addr, order, prev, new));
}

/// A read-modify-write observed `prev`; `new` is `Some` for the written
/// value, or `None` for a failed compare-exchange (which C11 treats as a
/// load of the latest value with the failure ordering).
pub(crate) fn weak_rmw(addr: usize, order: Ordering, prev: u64, new: Option<u64>) {
    with_weak(|st, slot| st.weak().rmw(slot, addr, order, prev, new));
}

/// A fence with the given ordering (called after the real fence).
pub(crate) fn weak_fence(order: Ordering) {
    with_weak(|st, slot| st.weak().fence(slot, order));
}

/// Reports that the heap region `[base, base + len)` was made reachable
/// from shared memory (e.g. a node linked into a structure). No-op
/// outside weak windows.
pub fn publish_region(base: usize, len: usize) {
    if !WEAK_ON.load(Ordering::Acquire) {
        return;
    }
    let slot = super::current_slot();
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else { return };
    let writer =
        slot.filter(|&s| st.registered & (1u64 << s) != 0 && st.finished & (1u64 << s) == 0);
    if let Some(w) = st.weak.as_mut() {
        w.publish(writer, base, len);
    }
}

/// Checks that the current thread is synchronized with the publication
/// of `[addr, addr + len)` before a non-atomic access. No-op outside weak
/// windows; panics deterministically on a detected race inside one with
/// race detection enabled.
pub fn check_region(addr: usize, len: usize) {
    if !WEAK_ON.load(Ordering::Acquire) {
        return;
    }
    if let Some(Err(race)) = with_weak(|st, slot| st.weak().check(slot, addr, len)) {
        // Deterministic message (no raw addresses, which ASLR would
        // perturb): replays of the same trace panic byte-identically.
        panic!(
            "weak-memory race: thread {} dereferenced a region published by thread {} \
             (event {}) without synchronizing with its release",
            race.accessor, race.writer, race.stamp
        );
    }
}

/// Real-time completion edge for weak windows: the harness calls this
/// (via [`super::op_boundary`]) on the worker thread between its
/// consecutive operations. No-op outside weak windows.
pub(super) fn op_boundary() {
    if !WEAK_ON.load(Ordering::Acquire) {
        return;
    }
    let Some(slot) = super::current_slot() else {
        return;
    };
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else { return };
    let bit = 1u64 << slot;
    if st.registered & bit == 0 {
        return;
    }
    if let Some(w) = st.weak.as_mut() {
        w.op_boundary(slot);
    }
}

/// An installed round; uninstalls on drop. Returned by
/// [`Explorer::begin`] / [`begin_replay`] and consumed by
/// [`Explorer::finish`] / [`finish_replay`] after the workers joined; a
/// PCT round's lives inside [`StressRun`](super::StressRun).
pub struct ExploreRun {
    _exclusive: RoundLock,
}

impl std::fmt::Debug for ExploreRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploreRun").finish_non_exhaustive()
    }
}

impl Drop for ExploreRun {
    fn drop(&mut self) {
        WEAK_ON.store(false, Ordering::Release);
        ACTIVE.store(false, Ordering::Release);
        *exp_lock() = None;
        GRANT.store(IDLE, Ordering::Release);
    }
}

fn install_run(state: ExpState) -> ExploreRun {
    install_quiet_hook();
    let exclusive = lock_round();
    WEAK_ON.store(state.weak.is_some(), Ordering::Release);
    *exp_lock() = Some(state);
    GRANT.store(IDLE, Ordering::Release);
    ACTIVE.store(true, Ordering::Release);
    ExploreRun {
        _exclusive: exclusive,
    }
}

/// Installs a PCT round: the engine above with the seeded priority
/// chooser. Nothing is harvested from it; dropping the run ends it.
pub(super) fn install_pct(cfg: &StressConfig) -> ExploreRun {
    install_run(ExpState::pct(cfg))
}

fn harvest(run: ExploreRun) -> ExpState {
    let state = exp_lock().take().expect("explore state missing at finish");
    drop(run);
    state
}

/// A node of the DFS tree, one per decision along the current path:
/// either a scheduling choice or (weak mode) a read-from choice.
#[derive(Debug, Clone, Copy)]
enum Node {
    Thread {
        /// Threads choosable at this node when it was first reached.
        enabled: u64,
        /// Sleep set inherited at this node.
        sleep: u64,
        /// Child currently (or last) being explored.
        chosen: usize,
        /// Children explored so far, including `chosen`.
        done: u64,
    },
    Read {
        /// Current read-from choice. Children are explored from the
        /// latest store (`count - 1`, the SC-like default the first
        /// execution took) down to the stalest (`0`), so the choice
        /// doubles as the remaining-work counter.
        chosen: usize,
    },
}

/// Depth-first enumerator of thread schedules with sleep-set pruning.
///
/// Drive it in a loop: [`begin`](Explorer::begin), run the worker window
/// to completion, [`finish`](Explorer::finish), inspect the outcome, and
/// [`advance`](Explorer::advance) until it returns `false` (search space
/// exhausted). See `cds_lincheck::explore` for the packaged harness.
pub struct Explorer {
    threads: usize,
    bounds: ExploreBounds,
    stack: Vec<Node>,
    plan: Vec<PlanStep>,
    plan_reads: Vec<usize>,
    /// Interleaved decision log of the most recent execution.
    last: Vec<LogEntry>,
    /// Total planned decisions (thread + read) of the current branch.
    plan_len: usize,
    schedules: u64,
    redundant: u64,
    stuck: u64,
    executions: u64,
    exhausted: bool,
}

impl std::fmt::Debug for Explorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explorer")
            .field("threads", &self.threads)
            .field("depth", &self.stack.len())
            .field("schedules", &self.schedules)
            .field("redundant", &self.redundant)
            .field("stuck", &self.stuck)
            .field("executions", &self.executions)
            .field("exhausted", &self.exhausted)
            .finish()
    }
}

impl Explorer {
    /// Creates an explorer for windows of `threads` worker threads
    /// (registered as slots `0..threads`).
    pub fn new(threads: usize, bounds: ExploreBounds) -> Self {
        assert!(
            (1..=MAX_THREADS).contains(&threads),
            "explore thread count {threads} out of range"
        );
        Explorer {
            threads,
            bounds,
            stack: Vec::new(),
            plan: Vec::new(),
            plan_reads: Vec::new(),
            last: Vec::new(),
            plan_len: 0,
            schedules: 0,
            redundant: 0,
            stuck: 0,
            executions: 0,
            exhausted: false,
        }
    }

    /// Installs the explore scheduler for the next execution of the
    /// window. Workers must [`register`](super::register) slots
    /// `0..threads` and hit yield points as usual.
    pub fn begin(&mut self) -> ExploreRun {
        assert!(!self.exhausted, "explorer already exhausted");
        self.plan_len = self.plan.len() + self.plan_reads.len();
        install_run(ExpState::new(
            self.threads,
            self.plan.clone(),
            self.plan_reads.clone(),
            Chooser::Dfs,
            &self.bounds,
        ))
    }

    /// Harvests the execution started by the matching
    /// [`begin`](Explorer::begin) (after all workers joined), growing the
    /// DFS tree with the fresh decisions.
    pub fn finish(&mut self, run: ExploreRun) -> Outcome {
        let st = harvest(run);
        self.executions += 1;
        for e in &st.log[self.plan_len.min(st.log.len())..] {
            self.stack.push(match *e {
                LogEntry::Thread(d) => Node::Thread {
                    enabled: d.enabled,
                    sleep: d.sleep,
                    chosen: d.chosen,
                    done: 1u64 << d.chosen,
                },
                LogEntry::Read { chosen } => Node::Read { chosen },
            });
        }
        self.last = st.log;
        match st.abort {
            None => {
                self.schedules += 1;
                Outcome::Complete
            }
            Some(AbortKind::Redundant) => {
                self.redundant += 1;
                Outcome::Redundant
            }
            Some(AbortKind::Stuck) => {
                self.stuck += 1;
                Outcome::Stuck
            }
            Some(AbortKind::Diverged) => Outcome::Diverged,
        }
    }

    /// Backtracks to the deepest node with an unexplored, non-slept
    /// child and re-plans. Returns `false` when the whole bounded space
    /// has been covered.
    pub fn advance(&mut self) -> bool {
        while let Some(top) = self.stack.last_mut() {
            match top {
                Node::Thread {
                    enabled,
                    sleep,
                    chosen,
                    done,
                } => {
                    let cands = *enabled & !*sleep & !*done;
                    if cands != 0 {
                        let c = cands.trailing_zeros() as usize;
                        *done |= 1u64 << c;
                        *chosen = c;
                        self.replan();
                        return true;
                    }
                }
                Node::Read { chosen } => {
                    // First execution chose the latest store
                    // (`count - 1`); walk down toward the stalest.
                    if *chosen > 0 {
                        *chosen -= 1;
                        self.replan();
                        return true;
                    }
                }
            }
            self.stack.pop();
        }
        self.exhausted = true;
        false
    }

    /// Rebuilds the two plan queues from the DFS stack.
    fn replan(&mut self) {
        self.plan.clear();
        self.plan_reads.clear();
        for n in &self.stack {
            match *n {
                Node::Thread { chosen, done, .. } => self.plan.push(PlanStep {
                    chosen,
                    extra_sleep: done & !(1u64 << chosen),
                }),
                Node::Read { chosen } => self.plan_reads.push(chosen),
            }
        }
    }

    /// Thread choices of the most recent execution, in order — the
    /// schedule a trace stores and [`begin_replay`] re-executes.
    pub fn last_schedule(&self) -> Vec<usize> {
        self.last
            .iter()
            .filter_map(|e| match e {
                LogEntry::Thread(d) => Some(d.chosen),
                LogEntry::Read { .. } => None,
            })
            .collect()
    }

    /// Read-from choices of the most recent execution, in order — what
    /// trace format v3 stores alongside the schedule (one entry per
    /// load that had more than one candidate).
    pub fn last_reads(&self) -> Vec<usize> {
        self.last
            .iter()
            .filter_map(|e| match e {
                LogEntry::Read { chosen } => Some(*chosen),
                LogEntry::Thread(_) => None,
            })
            .collect()
    }

    /// Completed (non-redundant, non-stuck) schedules explored so far.
    pub fn schedules(&self) -> u64 {
        self.schedules
    }

    /// Branches pruned by the sleep-set discipline.
    pub fn redundant(&self) -> u64 {
        self.redundant
    }

    /// Executions aborted by the step or forced-wake bounds.
    pub fn stuck(&self) -> u64 {
        self.stuck
    }

    /// Total executions attempted (complete + redundant + stuck).
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Whether the bounded search space has been fully covered.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }
}

/// Installs the explore scheduler in replay mode: the recorded
/// `schedule` (thread choice per step) and `reads` (read-from choice
/// per multi-candidate load; empty outside weak mode) are forced
/// verbatim, with no pruning. Use with the same worker window that
/// produced them.
pub fn begin_replay(
    threads: usize,
    schedule: &[usize],
    reads: &[usize],
    bounds: &ExploreBounds,
) -> ExploreRun {
    assert!(
        (1..=MAX_THREADS).contains(&threads),
        "explore thread count {threads} out of range"
    );
    let plan = schedule
        .iter()
        .map(|&chosen| {
            assert!(chosen < threads, "schedule step names thread {chosen}");
            PlanStep {
                chosen,
                extra_sleep: 0,
            }
        })
        .collect();
    install_run(ExpState::new(
        threads,
        plan,
        reads.to_vec(),
        Chooser::Replay,
        bounds,
    ))
}

/// Harvests a replay started by [`begin_replay`]. `Ok` carries the
/// executed schedule (equal to the recorded one, possibly extended where
/// the window kept running past it); `Err` reports an abort.
pub fn finish_replay(run: ExploreRun) -> Result<Vec<usize>, ReplayError> {
    let st = harvest(run);
    let schedule = st.decisions.iter().map(|d| d.chosen).collect();
    match st.abort {
        None => Ok(schedule),
        Some(AbortKind::Diverged) => Err(ReplayError::Diverged),
        Some(_) => Err(ReplayError::Stuck),
    }
}

/// Failure replaying a recorded schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The schedule named a thread that was not enabled at that step —
    /// the trace does not match this window (stale or corrupted).
    Diverged,
    /// The replay hit the step or forced-wake bound.
    Stuck,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Diverged => write!(f, "schedule diverged from recorded behaviour"),
            ReplayError::Stuck => write!(f, "replay exceeded exploration bounds"),
        }
    }
}

impl std::error::Error for ReplayError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one execution of a window where every worker executes `f`.
    fn run_window(explorer: &mut Explorer, f: impl Fn(usize) + Sync) -> Outcome {
        let run = explorer.begin();
        let start = std::sync::Barrier::new(explorer.threads);
        std::thread::scope(|s| {
            for t in 0..explorer.threads {
                let f = &f;
                let start = &start;
                s.spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _slot = crate::stress::register(t);
                        start.wait();
                        f(t);
                    }));
                    if let Err(payload) = result {
                        if payload.downcast_ref::<ExploreAbort>().is_none() {
                            std::panic::resume_unwind(payload);
                        }
                    }
                });
            }
        });
        explorer.finish(run)
    }

    #[test]
    fn two_thread_two_step_window_is_exhaustive() {
        // Two threads × two untagged (hence pairwise dependent) steps:
        // exactly C(4, 2) = 6 interleavings, none prunable.
        let mut ex = Explorer::new(2, ExploreBounds::default());
        loop {
            let out = run_window(&mut ex, |_| {
                crate::stress::yield_point();
                crate::stress::yield_point();
            });
            assert_eq!(out, Outcome::Complete);
            if !ex.advance() {
                break;
            }
        }
        assert!(ex.exhausted());
        assert_eq!(ex.schedules(), 6);
        assert_eq!(ex.redundant(), 0);
    }

    #[test]
    fn independent_steps_are_pruned() {
        // One tagged write to a distinct location per thread: the two
        // interleavings are equivalent, so sleep sets prune one of them.
        let mut ex = Explorer::new(2, ExploreBounds::default());
        loop {
            let out = run_window(&mut ex, |t| {
                crate::stress::yield_point_tagged(YieldTag::Write(0x1000 + t));
            });
            assert_ne!(out, Outcome::Stuck);
            if !ex.advance() {
                break;
            }
        }
        assert!(ex.exhausted());
        assert_eq!(ex.schedules(), 1);
        assert_eq!(ex.redundant(), 1);
    }

    #[test]
    fn conflicting_steps_are_not_pruned() {
        // Same location, both writing: both orders must be kept.
        let mut ex = Explorer::new(2, ExploreBounds::default());
        loop {
            let out = run_window(&mut ex, |_| {
                crate::stress::yield_point_tagged(YieldTag::Write(0x2000));
            });
            assert_eq!(out, Outcome::Complete);
            if !ex.advance() {
                break;
            }
        }
        assert!(ex.exhausted());
        assert_eq!(ex.schedules(), 2);
        assert_eq!(ex.redundant(), 0);
    }

    #[test]
    fn blocked_livelock_is_detected_as_stuck() {
        let mut ex = Explorer::new(
            1,
            ExploreBounds {
                max_steps: 64,
                ..ExploreBounds::default()
            },
        );
        let out = run_window(&mut ex, |_| loop {
            crate::stress::yield_point_tagged(YieldTag::Blocked(0xdead));
        });
        assert_eq!(out, Outcome::Stuck);
        assert_eq!(ex.stuck(), 1);
    }

    #[test]
    fn replay_forces_recorded_schedule() {
        use std::sync::Mutex;
        let order = Mutex::new(Vec::new());
        let body = |t: usize| {
            for _ in 0..3 {
                crate::stress::yield_point();
                order.lock().unwrap().push(t);
            }
        };

        let mut ex = Explorer::new(2, ExploreBounds::default());
        // Walk a few branches in so the schedule is not the trivial one.
        for _ in 0..3 {
            assert_eq!(run_window(&mut ex, body), Outcome::Complete);
            assert!(ex.advance());
        }
        order.lock().unwrap().clear();
        assert_eq!(run_window(&mut ex, body), Outcome::Complete);
        let schedule = ex.last_schedule();
        let recorded = std::mem::take(&mut *order.lock().unwrap());

        let run = begin_replay(2, &schedule, &[], &ExploreBounds::default());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2 {
                let body = &body;
                let start = &start;
                s.spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _slot = crate::stress::register(t);
                        start.wait();
                        body(t);
                    }));
                    if let Err(payload) = result {
                        if payload.downcast_ref::<ExploreAbort>().is_none() {
                            std::panic::resume_unwind(payload);
                        }
                    }
                });
            }
        });
        let replayed = finish_replay(run).expect("replay should complete");
        assert_eq!(replayed, schedule);
        assert_eq!(*order.lock().unwrap(), recorded);
    }

    /// A PCT round is open-world. Two workers wait, as pure rechecks, for
    /// stores only an *unregistered* thread makes — first as a pair, for
    /// more steps than a closed-world execution's whole budget, then one
    /// alone, re-woken more often than the forced-wake bound allows a
    /// closed world — and a worker leaves the round and comes back.
    #[test]
    fn pct_round_waits_on_unregistered_threads_and_lets_slots_return() {
        let bounds = ExploreBounds::default();
        let run = install_pct(&StressConfig {
            seed: 11,
            change_period: 3,
        });
        let rechecks = AtomicUsize::new(0);
        let (first, second) = (AtomicBool::new(false), AtomicBool::new(false));
        let wait_for = |flag: &AtomicBool| {
            while !flag.load(Ordering::Acquire) {
                rechecks.fetch_add(1, Ordering::Relaxed);
                crate::stress::yield_point_tagged(YieldTag::Blocked(flag as *const _ as usize));
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let slot = crate::stress::register(0);
                wait_for(&first);
                wait_for(&second);
                drop(slot);
                let _slot = crate::stress::register(0);
                for _ in 0..8 {
                    crate::stress::yield_point();
                }
            });
            s.spawn(|| {
                let _slot = crate::stress::register(1);
                wait_for(&first);
            });
            s.spawn(|| {
                let seen = |n: usize| {
                    while rechecks.load(Ordering::Relaxed) < n {
                        std::thread::yield_now();
                    }
                };
                let pair = 2 * bounds.max_steps as usize;
                seen(pair);
                first.store(true, Ordering::Release);
                seen(pair + 4 * FORCED_WAKE_BOUND as usize);
                second.store(true, Ordering::Release);
            });
        });
        drop(run);
    }
}
