//! Benchmark harness for the `cds` family.
//!
//! This crate regenerates the evaluation tables of DESIGN.md (experiments
//! E1–E12) and emits the machine-readable `BENCH_experiments.json`
//! measurement file: workload generators, a thread-sweep driver with
//! per-thread latency histograms, warmup with steady-state detection, and
//! the per-family run helpers the
//! [`experiments`](../src/bin/experiments.rs) binary drives:
//!
//! ```text
//! cargo run -p cds-bench --release --bin experiments -- all --quick --json BENCH_experiments.json
//! ```
//!
//! Methodology (standard for the literature): prefill the structure with
//! `min(prefill, key_range)` distinct keys, run warmup iterations until the
//! throughput's coefficient of variation over the last few iterations drops
//! below a threshold (steady state), then run a fixed operation count per
//! thread of a randomized operation mix drawn from a per-thread xorshift64*
//! stream. Threads synchronize on a barrier so ramp-up is excluded, and the
//! workload span is `max(end) − min(start)` across workers. Throughput is
//! million operations per second; latency percentiles come from per-thread
//! log-bucketed histograms ([`LatencyHistogram`]) recorded for one op in
//! [`LATENCY_SAMPLE_EVERY`] and merged after the run.

#![warn(missing_docs)]

use std::sync::{Arc, Barrier};
use std::time::Instant;

use cds_core::{
    ConcurrentCounter, ConcurrentMap, ConcurrentPriorityQueue, ConcurrentQueue, ConcurrentSet,
    ConcurrentStack,
};

mod hist;
pub mod json;
pub mod report;

pub use hist::LatencyHistogram;
pub use report::{Report, Sample};

/// Seed of the prefill key stream (pinned; recorded in the JSON report).
pub const PREFILL_SEED: u64 = 42;

/// Per-thread op-stream seeds are `THREAD_SEED_BASE + thread_index`
/// (pinned; recorded in the JSON report).
pub const THREAD_SEED_BASE: u64 = 1;

/// Warmup iterations offset their per-thread seeds by this constant (plus a
/// per-iteration stride) so the timed run replays a fresh, pinned stream.
pub const WARMUP_SEED_OFFSET: u64 = 0x5eed_0000;

/// One operation in [`LATENCY_SAMPLE_EVERY`] is individually timed into the
/// latency histogram; the rest run back-to-back so the two `Instant::now()`
/// calls per sampled op do not poison the throughput figures.
pub const LATENCY_SAMPLE_EVERY: usize = 8;

/// A mixed-operation workload description.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Number of worker threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Keys are drawn uniformly from `0..key_range`.
    pub key_range: u64,
    /// Percentage of read (contains/get) operations.
    pub read_pct: u8,
    /// Percentage of insert operations (the rest are removes).
    pub insert_pct: u8,
    /// Number of keys inserted before timing starts (clamped to
    /// `key_range` for keyed structures — see [`prefill_set`]).
    pub prefill: usize,
}

impl Workload {
    /// A small default for quick runs and unit tests.
    pub fn small(threads: usize) -> Self {
        Workload {
            threads,
            ops_per_thread: 10_000,
            key_range: 1024,
            read_pct: 50,
            insert_pct: 25,
            prefill: 512,
        }
    }

    /// A keyless workload (counters, locks): only `threads` and
    /// `ops_per_thread` are meaningful.
    pub fn ops_only(threads: usize, ops_per_thread: usize) -> Self {
        Workload {
            threads,
            ops_per_thread,
            key_range: 0,
            read_pct: 0,
            insert_pct: 0,
            prefill: 0,
        }
    }

    /// The classical 50/50 producer/consumer mix for stacks and queues,
    /// with an explicit prefill (E2/E3 sweep this).
    pub fn fifty_fifty(threads: usize, ops_per_thread: usize, prefill: usize) -> Self {
        Workload {
            threads,
            ops_per_thread,
            key_range: 1024,
            read_pct: 0,
            insert_pct: 50,
            prefill,
        }
    }

    /// The E8 priority-queue mix: 50/50 insert/remove-min over a large key
    /// range with a 4096-element prefill.
    pub fn pq_default(threads: usize, ops_per_thread: usize) -> Self {
        Workload {
            threads,
            ops_per_thread,
            key_range: 1_000_000,
            read_pct: 0,
            insert_pct: 50,
            prefill: 4096,
        }
    }
}

/// Simple xorshift64* stream, one per thread, so workloads are
/// reproducible and allocation-free.
///
/// The state update is the classic xorshift64 triple-shift; the output is
/// the state times the Vigna finalizer constant, which repairs the weak low
/// bits of the raw generator (plain xorshift fails low-bit tests — a 50/50
/// branch on the raw low bit is measurably biased).
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Creates a stream; `seed` must be non-zero (0 is remapped).
    pub fn new(seed: u64) -> Self {
        XorShift(seed.max(1).wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    /// Next pseudo-random value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// One operation of a read/insert/remove mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedOp {
    /// `contains`/`get` on the key.
    Read(u64),
    /// `insert` of the key.
    Insert(u64),
    /// `remove` of the key.
    Remove(u64),
}

/// A deterministic per-thread operation stream: given the same seed and
/// workload parameters it yields the identical op sequence, which is what
/// makes two benchmark runs comparable (and is pinned by a unit test).
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: XorShift,
    key_range: u64,
    read_pct: u8,
    insert_pct: u8,
}

impl OpStream {
    /// Creates the stream for one worker thread.
    pub fn new(seed: u64, w: &Workload) -> Self {
        OpStream {
            rng: XorShift::new(seed),
            key_range: w.key_range.max(1),
            read_pct: w.read_pct,
            insert_pct: w.insert_pct,
        }
    }

    /// Next uniform key in `0..key_range`.
    #[inline]
    pub fn next_key(&mut self) -> u64 {
        self.rng.next_u64() % self.key_range
    }

    /// A fair coin for 50/50 mixes. Branches on the *high* bit of the
    /// multiplied output: the low bit of a xorshift state is its weakest.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.rng.next_u64() >> 63 == 0
    }

    /// Next operation of the read/insert/remove mix.
    #[inline]
    pub fn next_op(&mut self) -> MixedOp {
        let k = self.next_key();
        let dice = (self.rng.next_u64() % 100) as u8;
        if dice < self.read_pct {
            MixedOp::Read(k)
        } else if dice < self.read_pct + self.insert_pct {
            MixedOp::Insert(k)
        } else {
            MixedOp::Remove(k)
        }
    }
}

/// Warmup policy: run untimed iterations of the workload until the
/// throughput is steady (coefficient of variation over the last
/// [`window`](Warmup::window) iterations below
/// [`cov_threshold`](Warmup::cov_threshold)) or
/// [`max_iters`](Warmup::max_iters) is reached.
#[derive(Debug, Clone, Copy)]
pub struct Warmup {
    /// Upper bound on warmup iterations (0 disables warmup).
    pub max_iters: usize,
    /// Number of trailing iterations the CoV is computed over.
    pub window: usize,
    /// Steady state is declared when `stddev/mean <= cov_threshold`.
    pub cov_threshold: f64,
    /// Each warmup iteration runs `ops_per_thread / ops_divisor` ops.
    pub ops_divisor: usize,
}

impl Warmup {
    /// The full-run policy: up to 5 iterations, CoV ≤ 5% over the last 3.
    pub fn standard() -> Self {
        Warmup {
            max_iters: 5,
            window: 3,
            cov_threshold: 0.05,
            ops_divisor: 4,
        }
    }

    /// The `--quick` policy: at most 2 short iterations, CoV ≤ 10%.
    pub fn quick() -> Self {
        Warmup {
            max_iters: 2,
            window: 2,
            cov_threshold: 0.10,
            ops_divisor: 8,
        }
    }

    /// No warmup at all.
    pub fn none() -> Self {
        Warmup {
            max_iters: 0,
            window: 0,
            cov_threshold: 0.0,
            ops_divisor: 1,
        }
    }
}

/// Steady-state test: CoV of the last `warm.window` throughput samples.
fn steady(history: &[f64], warm: &Warmup) -> bool {
    if warm.window == 0 || history.len() < warm.window {
        return false;
    }
    let tail = &history[history.len() - warm.window..];
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    if mean <= 0.0 {
        return false;
    }
    let var = tail.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / tail.len() as f64;
    var.sqrt() / mean <= warm.cov_threshold
}

/// The result of one measured run: throughput plus the merged per-thread
/// latency histogram.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Wall-clock span of the timed section, seconds.
    pub duration_s: f64,
    /// Total timed operations across all threads.
    pub total_ops: usize,
    /// Warmup iterations executed before the timed run.
    pub warmup_iters: usize,
    /// Merged sampled-latency histogram (see [`LATENCY_SAMPLE_EVERY`]).
    pub hist: LatencyHistogram,
}

/// Spawns `threads` workers, each with private state from `init`, and runs
/// `ops_per_thread` calls of `op` per worker after a start barrier.
/// Returns `(span_seconds, total_ops, merged_histogram)`.
fn run_sampled<St, Init, Op>(
    threads: usize,
    ops_per_thread: usize,
    init: Init,
    op: Op,
) -> (f64, usize, LatencyHistogram)
where
    St: Send + 'static,
    Init: Fn(usize) -> St + Send + Sync + 'static,
    Op: Fn(&mut St) + Send + Sync + 'static,
{
    let init = Arc::new(init);
    let op = Arc::new(op);
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let init = Arc::clone(&init);
            let op = Arc::clone(&op);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut state = init(t);
                let mut hist = LatencyHistogram::new();
                barrier.wait();
                // Workers report their own (start, end): on an
                // oversubscribed host the coordinating thread may not be
                // rescheduled until workers finish, so any centrally
                // measured clock mis-counts. The workload span is
                // max(end) − min(start) across workers.
                let start = Instant::now();
                let mut remaining = ops_per_thread;
                while remaining > 0 {
                    let t0 = Instant::now();
                    op(&mut state);
                    hist.record(t0.elapsed().as_nanos() as u64);
                    remaining -= 1;
                    let untimed = remaining.min(LATENCY_SAMPLE_EVERY - 1);
                    for _ in 0..untimed {
                        op(&mut state);
                    }
                    remaining -= untimed;
                }
                (start, Instant::now(), hist)
            })
        })
        .collect();
    let outcomes: Vec<(Instant, Instant, LatencyHistogram)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let first_start = outcomes
        .iter()
        .map(|(s, _, _)| *s)
        .min()
        .expect("non-empty");
    let last_end = outcomes
        .iter()
        .map(|(_, e, _)| *e)
        .max()
        .expect("non-empty");
    let span = last_end.duration_since(first_start).as_secs_f64();
    let mut merged = LatencyHistogram::new();
    for (_, _, h) in &outcomes {
        merged.merge(h);
    }
    (span, threads * ops_per_thread, merged)
}

/// Shared measurement path: warmup iterations (steady-state detected via
/// `warm`) followed by one timed run. `init` receives `(thread, seed
/// offset)` — the offset is nonzero during warmup so the timed run replays
/// pristine pinned streams.
fn measured_run<St, Init, Op>(w: Workload, warm: Warmup, init: Init, op: Op) -> RunStats
where
    St: Send + 'static,
    Init: Fn(usize, u64) -> St + Send + Sync + 'static,
    Op: Fn(&mut St) + Send + Sync + 'static,
{
    let init = Arc::new(init);
    let op = Arc::new(op);
    let mut history = Vec::new();
    let mut warmup_iters = 0usize;
    for i in 0..warm.max_iters {
        let offset = WARMUP_SEED_OFFSET + (i as u64) * 0x1_0000;
        let warm_ops = (w.ops_per_thread / warm.ops_divisor.max(1)).max(1);
        let init2 = Arc::clone(&init);
        let op2 = Arc::clone(&op);
        let (span, ops, _) = run_sampled(
            w.threads,
            warm_ops,
            move |t| init2(t, offset),
            move |s| op2(s),
        );
        warmup_iters += 1;
        history.push(ops as f64 / span / 1e6);
        if steady(&history, &warm) {
            break;
        }
    }
    let (span, total_ops, hist) = run_sampled(
        w.threads,
        w.ops_per_thread,
        move |t| init(t, 0),
        move |s| op(s),
    );
    RunStats {
        mops: total_ops as f64 / span / 1e6,
        duration_s: span,
        total_ops,
        warmup_iters,
        hist,
    }
}

/// Prefills a set with exactly `min(w.prefill, w.key_range)` **distinct**
/// keys from the pinned [`PREFILL_SEED`] stream, and returns that count.
///
/// The clamp matters: asking for more distinct keys than the key range
/// holds can never succeed, and the harness used to bail out after ~one
/// insertion in that case, silently starting E4–E7 from a near-empty
/// structure.
pub fn prefill_set<S>(set: &S, w: &Workload) -> usize
where
    S: ConcurrentSet<u64> + ?Sized,
{
    let key_range = w.key_range.max(1);
    let target = w.prefill.min(key_range as usize);
    let mut rng = XorShift::new(PREFILL_SEED);
    let mut inserted = 0usize;
    while inserted < target {
        if set.insert(rng.next_u64() % key_range) {
            inserted += 1;
        }
    }
    inserted
}

/// Prefills a map with exactly `min(w.prefill, w.key_range)` distinct keys
/// (value = key) from the pinned [`PREFILL_SEED`] stream.
pub fn prefill_map<M>(map: &M, w: &Workload) -> usize
where
    M: ConcurrentMap<u64, u64> + ?Sized,
{
    let key_range = w.key_range.max(1);
    let target = w.prefill.min(key_range as usize);
    let mut rng = XorShift::new(PREFILL_SEED);
    let mut inserted = 0usize;
    while inserted < target {
        let k = rng.next_u64() % key_range;
        if map.insert(k, k) {
            inserted += 1;
        }
    }
    inserted
}

/// Pushes `w.prefill` values (from the pinned prefill stream) onto a stack.
pub fn prefill_stack<S>(stack: &S, w: &Workload)
where
    S: ConcurrentStack<u64> + ?Sized,
{
    let key_range = w.key_range.max(1);
    let mut rng = XorShift::new(PREFILL_SEED);
    for _ in 0..w.prefill {
        stack.push(rng.next_u64() % key_range);
    }
}

/// Enqueues `w.prefill` values (from the pinned prefill stream) into a
/// queue.
pub fn prefill_queue<Q>(queue: &Q, w: &Workload)
where
    Q: ConcurrentQueue<u64> + ?Sized,
{
    let key_range = w.key_range.max(1);
    let mut rng = XorShift::new(PREFILL_SEED);
    for _ in 0..w.prefill {
        queue.enqueue(rng.next_u64() % key_range);
    }
}

/// Prefills a priority queue with `min(w.prefill, w.key_range)` distinct
/// priorities from the pinned prefill stream.
pub fn prefill_pq<P>(pq: &P, w: &Workload) -> usize
where
    P: ConcurrentPriorityQueue<u64> + ?Sized,
{
    let key_range = w.key_range.max(1);
    let target = w.prefill.min(key_range as usize);
    let mut rng = XorShift::new(PREFILL_SEED);
    let mut inserted = 0usize;
    while inserted < target {
        if pq.insert(rng.next_u64() % key_range) {
            inserted += 1;
        }
    }
    inserted
}

/// Runs a read/insert/remove mix against a set.
pub fn set_run<S>(set: Arc<S>, w: Workload, warm: Warmup) -> RunStats
where
    S: ConcurrentSet<u64> + 'static,
{
    prefill_set(&*set, &w);
    let set2 = Arc::clone(&set);
    measured_run(
        w,
        warm,
        move |t, offset| OpStream::new(THREAD_SEED_BASE + t as u64 + offset, &w),
        move |stream: &mut OpStream| match stream.next_op() {
            MixedOp::Read(k) => {
                std::hint::black_box(set2.contains(&k));
            }
            MixedOp::Insert(k) => {
                std::hint::black_box(set2.insert(k));
            }
            MixedOp::Remove(k) => {
                std::hint::black_box(set2.remove(&k));
            }
        },
    )
}

/// Runs a get/insert/remove mix against a map.
pub fn map_run<M>(map: Arc<M>, w: Workload, warm: Warmup) -> RunStats
where
    M: ConcurrentMap<u64, u64> + 'static,
{
    prefill_map(&*map, &w);
    let map2 = Arc::clone(&map);
    measured_run(
        w,
        warm,
        move |t, offset| OpStream::new(THREAD_SEED_BASE + t as u64 + offset, &w),
        move |stream: &mut OpStream| match stream.next_op() {
            MixedOp::Read(k) => {
                std::hint::black_box(map2.get(&k));
            }
            MixedOp::Insert(k) => {
                std::hint::black_box(map2.insert(k, k));
            }
            MixedOp::Remove(k) => {
                std::hint::black_box(map2.remove(&k));
            }
        },
    )
}

/// Runs a 50/50 push/pop mix against a stack.
pub fn stack_run<S>(stack: Arc<S>, w: Workload, warm: Warmup) -> RunStats
where
    S: ConcurrentStack<u64> + 'static,
{
    prefill_stack(&*stack, &w);
    let stack2 = Arc::clone(&stack);
    measured_run(
        w,
        warm,
        move |t, offset| OpStream::new(THREAD_SEED_BASE + t as u64 + offset, &w),
        move |stream: &mut OpStream| {
            if stream.coin() {
                stack2.push(stream.next_key());
            } else {
                std::hint::black_box(stack2.pop());
            }
        },
    )
}

/// Runs a 50/50 enqueue/dequeue mix against a queue.
pub fn queue_run<Q>(queue: Arc<Q>, w: Workload, warm: Warmup) -> RunStats
where
    Q: ConcurrentQueue<u64> + 'static,
{
    prefill_queue(&*queue, &w);
    let queue2 = Arc::clone(&queue);
    measured_run(
        w,
        warm,
        move |t, offset| OpStream::new(THREAD_SEED_BASE + t as u64 + offset, &w),
        move |stream: &mut OpStream| {
            if stream.coin() {
                queue2.enqueue(stream.next_key());
            } else {
                std::hint::black_box(queue2.dequeue());
            }
        },
    )
}

/// Runs increment-only traffic against a counter.
pub fn counter_run<C>(counter: Arc<C>, w: Workload, warm: Warmup) -> RunStats
where
    C: ConcurrentCounter + 'static,
{
    let counter2 = Arc::clone(&counter);
    measured_run(w, warm, |_, _| (), move |_: &mut ()| counter2.increment())
}

/// Runs a 50/50 insert/remove-min mix against a priority queue.
pub fn pq_run<P>(pq: Arc<P>, w: Workload, warm: Warmup) -> RunStats
where
    P: ConcurrentPriorityQueue<u64> + 'static,
{
    prefill_pq(&*pq, &w);
    let pq2 = Arc::clone(&pq);
    measured_run(
        w,
        warm,
        move |t, offset| OpStream::new(THREAD_SEED_BASE + t as u64 + offset, &w),
        move |stream: &mut OpStream| {
            if stream.coin() {
                std::hint::black_box(pq2.insert(stream.next_key()));
            } else {
                std::hint::black_box(pq2.remove_min());
            }
        },
    )
}

/// Lock acquisition: `threads` threads repeatedly run `lock_incr` (exactly
/// one lock-protected increment each call).
pub fn lock_run<F>(threads: usize, ops_per_thread: usize, warm: Warmup, lock_incr: F) -> RunStats
where
    F: Fn() + Send + Sync + 'static,
{
    let w = Workload::ops_only(threads, ops_per_thread);
    measured_run(w, warm, |_, _| (), move |_: &mut ()| lock_incr())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(1);
        let mut b = XorShift::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_high_bit_coin_is_roughly_fair() {
        // The raw xorshift low bit is weak; the coin uses the high bit of
        // the multiplied output. Over 100k draws both faces must land in a
        // clearly-fair band.
        let mut w = Workload::small(1);
        w.key_range = 1024;
        let mut s = OpStream::new(9, &w);
        let heads = (0..100_000).filter(|_| s.coin()).count();
        assert!(
            (45_000..=55_000).contains(&heads),
            "biased coin: {heads}/100000 heads"
        );
    }

    #[test]
    fn steady_state_detects_flat_and_rejects_noisy() {
        let warm = Warmup::standard();
        assert!(steady(&[10.0, 10.1, 9.9], &warm));
        assert!(!steady(&[10.0, 20.0, 5.0], &warm));
        assert!(!steady(&[10.0], &warm)); // not enough samples yet
        assert!(!steady(&[10.0, 10.0, 10.0], &Warmup::none()));
    }

    #[test]
    fn set_run_reports_positive_rate() {
        let set = Arc::new(cds_list::LazyList::new());
        let stats = set_run(
            set,
            Workload {
                threads: 2,
                ops_per_thread: 1_000,
                key_range: 64,
                read_pct: 50,
                insert_pct: 25,
                prefill: 32,
            },
            Warmup::none(),
        );
        assert!(stats.mops > 0.0);
    }

    #[test]
    fn counter_run_counts_everything() {
        let c = Arc::new(cds_counter::AtomicCounter::new());
        let stats = counter_run(Arc::clone(&c), Workload::ops_only(2, 5_000), Warmup::none());
        assert!(stats.mops > 0.0);
        use cds_core::ConcurrentCounter;
        assert_eq!(c.get(), 10_000);
    }

    #[test]
    fn run_stats_carry_a_populated_histogram() {
        let c = Arc::new(cds_counter::AtomicCounter::new());
        let stats = counter_run(Arc::clone(&c), Workload::ops_only(2, 4_000), Warmup::none());
        assert_eq!(stats.total_ops, 8_000);
        // One op in LATENCY_SAMPLE_EVERY is timed.
        assert_eq!(stats.hist.count(), (8_000 / LATENCY_SAMPLE_EVERY) as u64);
        assert!(stats.mops > 0.0 && stats.duration_s > 0.0);
        assert_eq!(stats.warmup_iters, 0);
    }

    #[test]
    fn warmup_runs_and_is_counted() {
        let c = Arc::new(cds_counter::AtomicCounter::new());
        let warm = Warmup {
            max_iters: 3,
            window: 2,
            cov_threshold: 1.0, // anything is "steady": stops at window
            ops_divisor: 10,
        };
        let stats = counter_run(Arc::clone(&c), Workload::ops_only(1, 1_000), warm);
        assert_eq!(stats.warmup_iters, 2);
    }
}
