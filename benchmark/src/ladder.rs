//! The cost ladder (ROADMAP E15): what one call costs at each layer,
//! from a raw `std` atomic up to an executor round trip. Single-thread
//! nanoseconds per call unless a row says otherwise; measured once per
//! traced `direct_transport` run.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
use std::time::{Duration, Instant};

use cds_atomic::AtomicU64 as FacadeAtomicU64;
use cds_core::{ConcurrentQueue, ConcurrentStack};
use cds_exec::Executor;
use cds_queue::{BoundedQueue, ChaseLevDeque, MsQueue};
use cds_reclaim::epoch::{Atomic, Owned};
use cds_reclaim::{Ebr, Hazard, Leak, ReclaimGuard, Reclaimer};
use cds_stack::TreiberStack;
use cds_sync::{Backoff, Parker};

use crate::direct::{stack_cell, SliceContext};
use crate::metrics::Values;
use crate::stats::median;
use crate::sys::Clock;

const SAMPLES: usize = 7;
const SAMPLE_TIME: Duration = Duration::from_millis(8);

fn time_calls(calls: u64, f: &mut impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed()
}

/// Median nanoseconds per call of `f` over [`SAMPLES`] samples of at
/// least [`SAMPLE_TIME`] each.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 256;
    while time_calls(calls, &mut f) < SAMPLE_TIME {
        calls *= 2;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| time_calls(calls, &mut f).as_nanos() as f64 / calls as f64)
        .collect();
    median(&samples)
}

/// Retires per pin in the retire rows.
const RETIRES_PER_GUARD: u64 = 64;

/// Allocate-and-retire under one guard of backend `R`, per retire. The
/// allocation and the amortized free are part of the cost, as they are
/// for a structure's `pop`.
fn retire_ns<R: Reclaimer>() -> f64 {
    ns_per_call(|| {
        let guard = R::enter();
        for i in 0..RETIRES_PER_GUARD {
            let node = Owned::new(i).into_shared(&guard);
            // SAFETY: `node` was just allocated through `Owned`, was
            // never published, and is retired exactly once.
            unsafe { guard.retire(node) };
        }
    }) / RETIRES_PER_GUARD as f64
}

/// Two threads hand a turn back and forth `rounds` times through
/// `pass`/`wait`; returns microseconds per one-way hand-off.
fn ping_pong_us(
    rounds: u64,
    wait: impl Fn(usize, u64) + Sync,
    pass: impl Fn(usize, u64) + Sync,
) -> f64 {
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for round in 0..rounds {
                wait(1, round);
                pass(1, round);
            }
        });
        let start = Instant::now();
        for round in 0..rounds {
            pass(0, round);
            wait(0, round);
        }
        start.elapsed().as_secs_f64() * 1e6 / (2 * rounds) as f64
    })
}

const HANDOFF_ROUNDS: u64 = 2000;

/// `Parker` hand-off: the waiter always parks (prepare, re-check, park)
/// and the passer publishes its turn, then unparks.
fn parker_handoff_us() -> f64 {
    // turn = 2 * round + 1 once thread 0 has passed, + 2 once thread 1 has.
    let turn = StdAtomicU64::new(0);
    let parkers = [Parker::new(), Parker::new()];
    let wait = |me: usize, round: u64| {
        let wanted = 2 * round + if me == 1 { 1 } else { 2 };
        while turn.load(Ordering::SeqCst) < wanted {
            let ticket = parkers[me].prepare();
            if turn.load(Ordering::SeqCst) >= wanted {
                parkers[me].cancel();
                break;
            }
            parkers[me].park(ticket);
        }
    };
    let pass = |me: usize, _round: u64| {
        turn.fetch_add(1, Ordering::SeqCst);
        // The waker's half of the eventcount pairing (see `Parker::prepare`).
        std::sync::atomic::fence(Ordering::SeqCst);
        parkers[1 - me].unpark_all();
    };
    ping_pong_us(HANDOFF_ROUNDS, wait, pass)
}

/// Channel hand-off: a one-message ping-pong over two bounded channels.
fn chan_handoff_us() -> f64 {
    let lanes = [cds_chan::bounded::<u64>(1), cds_chan::bounded::<u64>(1)];
    let wait = |me: usize, round: u64| {
        assert_eq!(
            lanes[me].recv(),
            Ok(round),
            "ping-pong message out of order"
        );
    };
    let pass = |me: usize, round: u64| {
        lanes[1 - me].send(round).expect("ping-pong lane closed");
    };
    ping_pong_us(HANDOFF_ROUNDS, wait, pass)
}

const SPAWN_SAMPLES: usize = 300;
/// Long enough for the lone worker to run out of spins and park.
const IDLE_GAP: Duration = Duration::from_micros(300);

/// `spawn` to task start on an idle (parked) one-worker pool, median.
fn spawn_run_us() -> f64 {
    let pool = Executor::new(1);
    let clock = Clock::start();
    let started = std::sync::Arc::new(StdAtomicU64::new(0));
    let samples: Vec<f64> = (0..SPAWN_SAMPLES)
        .map(|_| {
            std::thread::sleep(IDLE_GAP);
            started.store(0, Ordering::SeqCst);
            let flag = std::sync::Arc::clone(&started);
            let t0 = clock.now_ns();
            pool.spawn(move || flag.store(clock.now_ns().max(1), Ordering::SeqCst));
            let mut at = started.load(Ordering::SeqCst);
            while at == 0 {
                std::hint::spin_loop();
                at = started.load(Ordering::SeqCst);
            }
            at.saturating_sub(t0) as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Steps of one fresh `Backoff` that still spin (2^0..2^6 pause hints)
/// before it starts yielding the thread.
const SPIN_STEPS: u64 = 7;

/// Every ladder row, by metric name.
pub fn measure(threads: usize) -> Values {
    let mut rows = Values::new();

    let std_word = StdAtomicU64::new(0);
    let facade_word = FacadeAtomicU64::new(0);
    rows.insert(
        "atomic.std_rmw_ns",
        ns_per_call(|| {
            black_box(std_word.fetch_add(1, Ordering::SeqCst));
        }),
    );
    rows.insert(
        "atomic.facade_rmw_ns",
        ns_per_call(|| {
            black_box(facade_word.fetch_add(1, Ordering::SeqCst));
        }),
    );
    rows.insert(
        "atomic.std_cas_ns",
        ns_per_call(|| {
            let seen = std_word.load(Ordering::Relaxed);
            let _ = black_box(std_word.compare_exchange(
                seen,
                seen + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ));
        }),
    );
    rows.insert(
        "atomic.facade_cas_ns",
        ns_per_call(|| {
            let seen = facade_word.load(Ordering::Relaxed);
            let _ = black_box(facade_word.compare_exchange(
                seen,
                seen + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ));
        }),
    );

    rows.insert(
        "sync.backoff_snooze_ns",
        ns_per_call(|| {
            let backoff = Backoff::new();
            for _ in 0..SPIN_STEPS {
                backoff.snooze();
            }
        }) / SPIN_STEPS as f64,
    );
    rows.insert("sync.parker_handoff_us", parker_handoff_us());

    rows.insert(
        "reclaim.ebr_pin_ns",
        ns_per_call(|| drop(black_box(Ebr::enter()))),
    );
    rows.insert("reclaim.ebr_retire_ns", retire_ns::<Ebr>());
    rows.insert(
        "reclaim.hazard_enter_ns",
        ns_per_call(|| drop(black_box(Hazard::enter()))),
    );
    {
        let source = Atomic::new(7u64);
        let guard = Hazard::enter();
        rows.insert(
            "reclaim.hazard_protect_ns",
            ns_per_call(|| {
                black_box(guard.protect(0, &source, Ordering::Acquire));
            }),
        );
        drop(guard);
        // SAFETY: `source` never left this block and no guard protects
        // its pointee any more.
        drop(unsafe { source.into_owned() });
    }
    rows.insert("reclaim.hazard_retire_ns", retire_ns::<Hazard>());
    // The reclamation-free floor under `stack.treiber_ebr_mops`. It
    // leaks every popped node, so it runs briefly and only here.
    let floor = stack_cell::<TreiberStack<u64, Leak>>(
        "reclaim.leak_floor_treiber",
        0,
        &SliceContext {
            seed: 0,
            threads,
            slice: Duration::from_millis(250),
        },
    );
    rows.insert("reclaim.leak_floor_treiber_mops", floor.ops_per_s / 1e6);

    let stack = TreiberStack::<u64>::new();
    rows.insert(
        "stack.treiber_pair_ns",
        ns_per_call(|| {
            stack.push(1);
            black_box(stack.pop());
        }),
    );
    let queue = MsQueue::<u64>::new();
    rows.insert(
        "queue.ms_pair_ns",
        ns_per_call(|| {
            queue.enqueue(1);
            black_box(queue.dequeue());
        }),
    );
    let ring = BoundedQueue::<u64>::with_capacity(1024);
    rows.insert(
        "queue.bounded_pair_ns",
        ns_per_call(|| {
            let _ = ring.try_enqueue(1);
            black_box(ring.try_dequeue());
        }),
    );
    let (worker, _stealer) = ChaseLevDeque::<u64>::new();
    rows.insert(
        "queue.chaselev_pair_ns",
        ns_per_call(|| {
            worker.push(1);
            black_box(worker.pop());
        }),
    );
    let bounded = cds_chan::bounded::<u64>(16);
    rows.insert(
        "chan.bounded_pair_ns",
        ns_per_call(|| {
            let _ = bounded.send(1);
            let _ = black_box(bounded.recv());
        }),
    );
    let unbounded = cds_chan::unbounded::<u64>();
    rows.insert(
        "chan.unbounded_pair_ns",
        ns_per_call(|| {
            let _ = unbounded.send(1);
            let _ = black_box(unbounded.recv());
        }),
    );
    rows.insert("chan.handoff_us", chan_handoff_us());
    rows.insert("exec.spawn_run_us", spawn_run_us());
    rows
}
