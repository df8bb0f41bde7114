//! Benchmark harness for the `cds` family.
//!
//! This crate regenerates the evaluation tables of DESIGN.md (experiments
//! E1–E12) and emits the machine-readable `BENCH_experiments.json`
//! measurement file: workload generators, a thread-sweep driver with
//! per-thread latency histograms, and the per-family run helpers the
//! [`experiments`](../src/bin/experiments.rs) binary drives:
//!
//! ```text
//! cargo run -p cds-bench --release --bin experiments -- all --quick --json BENCH_experiments.json
//! ```
//!
//! Methodology, the gate's (`benchmark/`): each cell runs one unrecorded
//! warm-up round, then [`ROUNDS`] timed rounds. Every round runs on a
//! structure built and prefilled afresh with `min(prefill, key_range)`
//! distinct keys, and replays the same fixed operation count per thread of
//! a randomized operation mix drawn from pinned per-thread SplitMix64
//! streams. Threads synchronize on a barrier so ramp-up is excluded, and a
//! round's span is `max(end) − min(start)` across workers. Throughput is
//! the median of the rounds' million operations per second, reported with
//! the rounds' spread ([`RunStats::mops_spread`]); latency percentiles
//! come from per-thread log-bucketed histograms ([`LatencyHistogram`])
//! recorded for one op in [`LATENCY_SAMPLE_EVERY`] and merged over the
//! timed rounds.
//!
//! Every run helper takes `make`, which builds one empty structure and is
//! called once per round. It returns an `Arc` so that a caller can keep
//! each instance and read it after the run: E11 counts the doublings of
//! each map a timed round grew.

#![warn(missing_docs)]

use std::sync::{Arc, Barrier};
use std::time::Instant;

use cds_atomic::stress::SplitMix64;

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

/// Per-thread op-stream seeds are `THREAD_SEED_BASE + thread_index`, the
/// same in every round (pinned; recorded in the JSON report).
pub const THREAD_SEED_BASE: u64 = 1;

/// Timed rounds per cell. The gate runs five groups and reads their
/// spread by rank from the 2nd and 4th of five values; the survey does the
/// same, so one slow round moves neither its median nor its spread much,
/// and its figures compare with the gate's.
pub const ROUNDS: usize = 5;

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
/// makes two benchmark runs comparable (and is pinned by `SplitMix64`'s
/// unit test in `cds-atomic`).
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    key_range: u64,
    read_pct: u8,
    insert_pct: u8,
}

impl OpStream {
    /// Creates the stream for one worker thread.
    pub fn new(seed: u64, w: &Workload) -> Self {
        OpStream {
            rng: SplitMix64::new(seed),
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

    /// A fair coin for 50/50 mixes.
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

/// The result of one cell: throughput over its timed rounds plus their
/// merged latency histogram.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Median throughput over the timed rounds, million operations per
    /// second.
    pub mops: f64,
    /// How far the timed rounds' throughputs disagree: the distance between
    /// their lower and upper quartile (by rank: the 2nd and 4th of five
    /// values) as a share of the median — the gate's `run.rep_spread`
    /// formula.
    pub mops_spread: f64,
    /// Wall-clock span of the timed rounds together, seconds.
    pub duration_s: f64,
    /// Timed operations across all threads and rounds.
    pub total_ops: usize,
    /// Sampled-latency histogram merged over the timed rounds (see
    /// [`LATENCY_SAMPLE_EVERY`]).
    pub hist: LatencyHistogram,
}

/// Median and spread (see [`RunStats::mops_spread`]) of the rounds'
/// throughputs.
fn median_and_spread(mut rates: [f64; ROUNDS]) -> (f64, f64) {
    rates.sort_by(f64::total_cmp);
    let median = rates[ROUNDS / 2];
    let quartiles = rates[ROUNDS - 1 - ROUNDS / 4] - rates[ROUNDS / 4];
    (median, quartiles / median)
}

/// Runs one round on `structure`: `w.threads` workers, each calling `op`
/// `w.ops_per_thread` times with its pinned op stream after a start
/// barrier. Returns the round's span in seconds and the merged histogram.
fn round<D, Op>(w: &Workload, structure: &D, op: &Op) -> (f64, LatencyHistogram)
where
    D: Sync,
    Op: Fn(&D, &mut OpStream) + Sync,
{
    let barrier = Barrier::new(w.threads);
    let outcomes: Vec<(Instant, Instant, LatencyHistogram)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..w.threads)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut stream = OpStream::new(THREAD_SEED_BASE + t as u64, w);
                    let mut hist = LatencyHistogram::new();
                    barrier.wait();
                    // Workers report their own (start, end): on an
                    // oversubscribed host the coordinating thread may not be
                    // rescheduled until workers finish, so any centrally
                    // measured clock mis-counts. The round's span is
                    // max(end) − min(start) across workers.
                    let start = Instant::now();
                    let mut remaining = w.ops_per_thread;
                    while remaining > 0 {
                        let t0 = Instant::now();
                        op(structure, &mut stream);
                        hist.record(t0.elapsed().as_nanos() as u64);
                        remaining -= 1;
                        let untimed = remaining.min(LATENCY_SAMPLE_EVERY - 1);
                        for _ in 0..untimed {
                            op(structure, &mut stream);
                        }
                        remaining -= untimed;
                    }
                    (start, Instant::now(), hist)
                })
            })
            .collect();
        // An explicit join also waits for each worker's thread-local
        // destructors (the reclaimers' hand-over), which the scope's own
        // end does not: the next round starts with no worker left.
        workers
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let first_start = outcomes.iter().map(|o| o.0).min().expect("non-empty");
    let last_end = outcomes.iter().map(|o| o.1).max().expect("non-empty");
    let mut merged = LatencyHistogram::new();
    for (_, _, h) in &outcomes {
        merged.merge(h);
    }
    (last_end.duration_since(first_start).as_secs_f64(), merged)
}

/// The measurement path of every cell: one unrecorded warm-up round, then
/// [`ROUNDS`] timed rounds. Each round, the warm-up's included, runs on a
/// structure `make` builds afresh and `prefill` fills, so no timed round
/// inherits another round's state (E11's maps grow inside the round that
/// times them).
fn measured_run<S, R, Op>(
    w: Workload,
    mut make: impl FnMut() -> Arc<S>,
    prefill: impl Fn(&S, &Workload) -> R,
    op: Op,
) -> RunStats
where
    S: Send + Sync,
    Op: Fn(&S, &mut OpStream) + Sync,
{
    let mut fresh = || {
        let structure = make();
        prefill(&structure, &w);
        structure
    };
    round(&w, &*fresh(), &op);
    let round_ops = w.threads * w.ops_per_thread;
    let mut rates = [0.0; ROUNDS];
    let mut duration_s = 0.0;
    let mut hist = LatencyHistogram::new();
    for rate in &mut rates {
        let (span, round_hist) = round(&w, &*fresh(), &op);
        *rate = round_ops as f64 / span / 1e6;
        duration_s += span;
        hist.merge(&round_hist);
    }
    let (mops, mops_spread) = median_and_spread(rates);
    RunStats {
        mops,
        mops_spread,
        duration_s,
        total_ops: ROUNDS * round_ops,
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
    let mut rng = SplitMix64::new(PREFILL_SEED);
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
    let mut rng = SplitMix64::new(PREFILL_SEED);
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
    let mut rng = SplitMix64::new(PREFILL_SEED);
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
    let mut rng = SplitMix64::new(PREFILL_SEED);
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
    let mut rng = SplitMix64::new(PREFILL_SEED);
    let mut inserted = 0usize;
    while inserted < target {
        if pq.insert(rng.next_u64() % key_range) {
            inserted += 1;
        }
    }
    inserted
}

/// Runs a read/insert/remove mix against a set.
pub fn set_run<S>(make: impl FnMut() -> Arc<S>, w: Workload) -> RunStats
where
    S: ConcurrentSet<u64>,
{
    measured_run(w, make, prefill_set, |set, stream| match stream.next_op() {
        MixedOp::Read(k) => {
            std::hint::black_box(set.contains(&k));
        }
        MixedOp::Insert(k) => {
            std::hint::black_box(set.insert(k));
        }
        MixedOp::Remove(k) => {
            std::hint::black_box(set.remove(&k));
        }
    })
}

/// Runs a get/insert/remove mix against a map.
pub fn map_run<M>(make: impl FnMut() -> Arc<M>, w: Workload) -> RunStats
where
    M: ConcurrentMap<u64, u64>,
{
    measured_run(w, make, prefill_map, |map, stream| match stream.next_op() {
        MixedOp::Read(k) => {
            std::hint::black_box(map.get(&k));
        }
        MixedOp::Insert(k) => {
            std::hint::black_box(map.insert(k, k));
        }
        MixedOp::Remove(k) => {
            std::hint::black_box(map.remove(&k));
        }
    })
}

/// Runs a 50/50 push/pop mix against a stack.
pub fn stack_run<S>(make: impl FnMut() -> Arc<S>, w: Workload) -> RunStats
where
    S: ConcurrentStack<u64>,
{
    measured_run(w, make, prefill_stack, |stack, stream| {
        if stream.coin() {
            stack.push(stream.next_key());
        } else {
            std::hint::black_box(stack.pop());
        }
    })
}

/// Runs a 50/50 enqueue/dequeue mix against a queue.
pub fn queue_run<Q>(make: impl FnMut() -> Arc<Q>, w: Workload) -> RunStats
where
    Q: ConcurrentQueue<u64>,
{
    measured_run(w, make, prefill_queue, |queue, stream| {
        if stream.coin() {
            queue.enqueue(stream.next_key());
        } else {
            std::hint::black_box(queue.dequeue());
        }
    })
}

/// Runs increment-only traffic against a counter.
pub fn counter_run<C>(make: impl FnMut() -> Arc<C>, w: Workload) -> RunStats
where
    C: ConcurrentCounter,
{
    measured_run(w, make, |_, _| (), |counter, _| counter.increment())
}

/// Runs a 50/50 insert/remove-min mix against a priority queue.
pub fn pq_run<P>(make: impl FnMut() -> Arc<P>, w: Workload) -> RunStats
where
    P: ConcurrentPriorityQueue<u64>,
{
    measured_run(w, make, prefill_pq, |pq, stream| {
        if stream.coin() {
            std::hint::black_box(pq.insert(stream.next_key()));
        } else {
            std::hint::black_box(pq.remove_min());
        }
    })
}

/// Lock acquisition: every operation is one call of `lock_incr`, exactly
/// one lock-protected increment on the round's lock.
pub fn lock_run<L>(
    make: impl FnMut() -> Arc<L>,
    w: Workload,
    lock_incr: impl Fn(&L) + Sync,
) -> RunStats
where
    L: Send + Sync,
{
    measured_run(w, make, |_, _| (), |lock, _| lock_incr(lock))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coin_is_roughly_fair() {
        // Over 100k draws both faces must land in a clearly-fair band.
        let mut s = OpStream::new(9, &Workload::ops_only(1, 0));
        let heads = (0..100_000).filter(|_| s.coin()).count();
        assert!(
            (45_000..=55_000).contains(&heads),
            "biased coin: {heads}/100000 heads"
        );
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        // Ranks 2 and 4 of five, whatever order the rounds finished in:
        // the outliers 1 and 100 move neither figure.
        let (median, spread) = median_and_spread([100.0, 4.0, 1.0, 5.0, 6.0]);
        assert_eq!(median, 5.0);
        assert_eq!(spread, (6.0 - 4.0) / 5.0);
        assert_eq!(median_and_spread([7.0; ROUNDS]), (7.0, 0.0));
    }

    #[test]
    fn set_run_reports_positive_rate() {
        let stats = set_run(
            || Arc::new(cds_list::LazyList::new()),
            Workload {
                threads: 2,
                ops_per_thread: 1_000,
                key_range: 64,
                read_pct: 50,
                insert_pct: 25,
                prefill: 32,
            },
        );
        assert!(stats.mops > 0.0);
        assert!(stats.mops_spread.is_finite() && stats.mops_spread >= 0.0);
    }

    #[test]
    fn counter_run_counts_everything() {
        let mut made = Vec::new();
        let stats = counter_run(
            || {
                let c = Arc::new(cds_counter::AtomicCounter::new());
                made.push(Arc::clone(&c));
                c
            },
            Workload::ops_only(2, 5_000),
        );
        assert!(stats.mops > 0.0);
        // The warm-up's counter and one per timed round, each holding
        // exactly its own round's increments.
        assert_eq!(made.len(), ROUNDS + 1);
        for c in &made {
            assert_eq!(c.get(), 10_000);
        }
    }

    #[test]
    fn run_stats_carry_a_populated_histogram() {
        let make = || Arc::new(cds_counter::AtomicCounter::new());
        let stats = counter_run(make, Workload::ops_only(2, 4_000));
        assert_eq!(stats.total_ops, ROUNDS * 8_000);
        // One op in LATENCY_SAMPLE_EVERY is timed, in timed rounds only.
        assert_eq!(
            stats.hist.count(),
            (ROUNDS * 8_000 / LATENCY_SAMPLE_EVERY) as u64
        );
        assert!(stats.mops > 0.0 && stats.duration_s > 0.0);
    }
}
