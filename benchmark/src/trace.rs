//! Request spans of the traced `rr_*` run: a preallocated table the
//! client and the workers stamp, and the arithmetic that turns one
//! request's stamps into per-layer intervals.
//!
//! All stamps are taken in this crate, around calls into the public
//! functions of `cds-exec`, `cds-chan` and `cds-map`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::sys::Clock;

/// Stamp columns of a request's row, in nanoseconds on the table clock.
pub const T0_BEFORE_SPAWN: usize = 0;
pub const T1_AFTER_SPAWN: usize = 1;
pub const T2_TASK_START: usize = 2;
pub const T3_MAP_DONE: usize = 3;
pub const T4_SEND_RETURNED: usize = 4;
pub const T5_RECV_RETURNED: usize = 5;
/// When the client entered the `recv` call that returned this reply.
pub const TR_RECV_ENTERED: usize = 6;
/// When the worker that ran this task finished its previous one.
pub const TP_WORKER_PREV_END: usize = 7;

/// One request's stamps; a cache line, so requests served at the same
/// time do not share one.
#[repr(align(64))]
struct Row([AtomicU64; 8]);

/// Rows for every request of a traced segment. The cells are relaxed
/// atomics only because two threads write different columns of a row;
/// each row is read after the reply that completes it was received.
pub struct TraceTable {
    clock: Clock,
    rows: Box<[Row]>,
}

impl TraceTable {
    /// Allocates and touches `capacity` rows, so the traced segment
    /// itself takes no page faults on them.
    pub fn new(capacity: usize, clock: Clock) -> Self {
        let rows: Box<[Row]> = (0..capacity)
            .map(|_| Row(std::array::from_fn(|_| AtomicU64::new(0))))
            .collect();
        TraceTable { clock, rows }
    }

    pub fn capacity(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    #[inline]
    pub fn stamp(&self, row: u32, column: usize, at: u64) {
        self.rows[row as usize].0[column].store(at, Relaxed);
    }

    pub fn stamps(&self, row: u32) -> [u64; 8] {
        std::array::from_fn(|c| self.rows[row as usize].0[c].load(Relaxed))
    }
}

impl std::fmt::Debug for TraceTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceTable")
            .field("rows", &self.rows.len())
            .finish()
    }
}

/// Duration of `span` minus the part of it that `children` cover
/// (children may overlap each other and stick out of the span).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    if end <= start {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    (end - start) - covered
}

/// One request's round trip split along its path: five consecutive
/// intervals that sum to `t5 - t0`, and the self time of the two
/// waiting intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Intervals {
    /// `t0..t1`: the client inside `Executor::spawn`.
    pub spawn_call: u64,
    /// `t1..t2`: spawned, not yet running.
    pub queue_wait: u64,
    /// `t2..t3`: the task's map operations.
    pub task_busy: u64,
    /// `t3..t4`: the worker inside `Channel::send`.
    pub send_call: u64,
    /// `t4..t5`: sent, not yet returned by the client's `recv`.
    pub reply_wait: u64,
    /// `queue_wait` minus the part the worker spent finishing earlier
    /// tasks: what the executor itself added (hand-off, wake-up).
    pub dispatch_self: u64,
    /// `reply_wait` minus the part the client spent on earlier replies:
    /// what the channel itself added.
    pub delivery_self: u64,
    /// How far stamps had to be moved to make them non-decreasing (the
    /// stamps come from two threads, so `t2 < t1` or `t5 < t4` can occur).
    pub clamped: u64,
}

impl Intervals {
    pub fn round_trip(&self) -> u64 {
        self.spawn_call + self.queue_wait + self.task_busy + self.send_call + self.reply_wait
    }

    /// Self time the request's path spent in each of exec, map and chan.
    pub fn self_times(&self) -> [u64; 3] {
        [
            self.spawn_call + self.dispatch_self,
            self.task_busy,
            self.send_call + self.delivery_self,
        ]
    }
}

/// Splits one row of stamps (see the column constants) into intervals.
pub fn intervals(stamps: &[u64; 8]) -> Intervals {
    let (t0, t5) = (
        stamps[T0_BEFORE_SPAWN],
        stamps[T5_RECV_RETURNED].max(stamps[T0_BEFORE_SPAWN]),
    );
    // Boundaries b0..b5: the stamps forced into order inside [t0, t5],
    // so the five intervals are non-negative and sum to t5 - t0.
    let mut bounds = [t0; 6];
    let mut clamped = 0;
    for i in 1..5 {
        bounds[i] = stamps[i].clamp(bounds[i - 1], t5);
        clamped += bounds[i].abs_diff(stamps[i]);
    }
    bounds[5] = t5;
    let queue = (bounds[1], bounds[2]);
    let reply = (bounds[4], bounds[5]);
    Intervals {
        spawn_call: bounds[1] - bounds[0],
        queue_wait: queue.1 - queue.0,
        task_busy: bounds[3] - bounds[2],
        send_call: bounds[4] - bounds[3],
        reply_wait: reply.1 - reply.0,
        dispatch_self: self_time(queue, &[(0, stamps[TP_WORKER_PREV_END])]),
        delivery_self: self_time(reply, &[(0, stamps[TR_RECV_ENTERED])]),
        clamped,
    }
}
