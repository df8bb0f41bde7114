//! The `direct_*` workloads: every thread calls a structure's public
//! operations itself, with no executor or channel in between.
//!
//! A repetition visits the workload's cells in turn for equal time
//! slices, each on a freshly built and prefilled structure. Operations
//! run in batches of [`BATCH`] timed by one `Instant` pair (the timer is
//! under 1 % of a batch); the batch p99 is where reclamation scans, table
//! splits and convoys show.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use cds_core::{ConcurrentQueue, ConcurrentSet, ConcurrentStack};
use cds_list::HarrisMichaelList;
use cds_map::SplitOrderedHashMap;
use cds_queue::{BoundedQueue, ChaseLevDeque, MsQueue, Steal};
use cds_reclaim::{Ebr, Hazard};
use cds_skiplist::LockFreeSkipList;
use cds_stack::TreiberStack;
use cds_tree::LockFreeBst;

use crate::inputs::{permutation, value_of, CoinFlips, KeyOp, SetOps, SplitMix64};
use crate::metrics::Values;
use crate::rr::FixedHasher;
use crate::run::{Segment, Workload};
use crate::stats::{geomean, percentile_u32};
use crate::sys::cpu_time_us;

/// Operations per timed batch.
pub const BATCH: u64 = 256;
/// Elements a transport structure holds when its slice starts.
const TRANSPORT_PREFILL: u64 = 1024;
const BOUNDED_CAPACITY: usize = 1024;
/// The deque owner only pushes below this depth, so thieves find work.
const DEQUE_FLOOR: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectKind {
    Transport,
    Sets,
}

/// What one thread did in one cell's slice.
#[derive(Debug, Default)]
struct ThreadOut {
    ops: u64,
    elapsed_ns: u64,
    batches: Vec<u32>,
    /// Wrapping sums of the values this thread produced and consumed.
    sum_in: u64,
    sum_out: u64,
    /// Results that contradicted the thread's own model.
    failed: u64,
    /// Keys the thread's model holds at the end (`direct_sets`).
    model_len: u64,
    /// Consume attempts and those that found nothing; produce attempts
    /// and those that found no room.
    consumes: u64,
    empty: u64,
    produces: u64,
    full: u64,
}

/// What one cell's slice measured.
#[derive(Debug)]
pub struct CellOutcome {
    /// Metric prefix, `<crate>.<cell>`.
    pub name: &'static str,
    pub setup_s: f64,
    pub ops: u64,
    pub ops_per_s: f64,
    pub batch_p50_us: f64,
    pub batch_p99_us: f64,
    pub batches: u64,
    pub cpu_us: f64,
    pub failed: u64,
    /// Useful-outcome ratios, by full metric name.
    pub ratios: Vec<(&'static str, f64)>,
}

type ThreadBody<'a> = Box<dyn FnOnce(Instant) -> ThreadOut + Send + 'a>;

/// Runs `op` in timed batches until `deadline`; `op` gets the running
/// operation count.
fn timed_batches(deadline: Instant, out: &mut ThreadOut, mut op: impl FnMut(u64)) {
    let start = Instant::now();
    let mut batch_start = start;
    loop {
        for i in 0..BATCH {
            op(out.ops + i);
        }
        out.ops += BATCH;
        let now = Instant::now();
        out.batches
            .push((now - batch_start).as_nanos().min(u32::MAX as u128) as u32);
        batch_start = now;
        if now >= deadline {
            out.elapsed_ns = (now - start).as_nanos() as u64;
            return;
        }
    }
}

/// Starts one thread per body behind a barrier, lets them run for
/// `slice`, and joins them. Set-up time runs from `setup_start` to the
/// moment every thread is at the barrier.
fn run_bodies(
    bodies: Vec<ThreadBody<'_>>,
    slice: Duration,
    setup_start: Instant,
) -> (f64, Vec<ThreadOut>, f64) {
    let barrier = Barrier::new(bodies.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .into_iter()
            .map(|body| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    body(Instant::now() + slice)
                })
            })
            .collect();
        barrier.wait();
        let setup_s = setup_start.elapsed().as_secs_f64();
        let cpu_start = cpu_time_us();
        let outs: Vec<ThreadOut> = handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark thread panicked"))
            .collect();
        (setup_s, outs, cpu_time_us() - cpu_start)
    })
}

fn outcome(
    name: &'static str,
    setup_s: f64,
    outs: Vec<ThreadOut>,
    cpu_us: f64,
    extra_failed: u64,
) -> CellOutcome {
    let mut batches: Vec<u32> = outs
        .iter()
        .flat_map(|o| o.batches.iter().copied())
        .collect();
    CellOutcome {
        name,
        setup_s,
        ops: outs.iter().map(|o| o.ops).sum(),
        ops_per_s: outs
            .iter()
            .map(|o| o.ops as f64 / (o.elapsed_ns.max(1) as f64 / 1e9))
            .sum(),
        batch_p50_us: percentile_u32(&mut batches, 0.50) / 1e3,
        batch_p99_us: percentile_u32(&mut batches, 0.99) / 1e3,
        batches: batches.len() as u64,
        cpu_us,
        failed: outs.iter().map(|o| o.failed).sum::<u64>() + extra_failed,
        ratios: Vec::new(),
    }
}

/// Conservation of a transport cell: what went in (prefill included)
/// must equal what came out plus what was left. Returns the failures (0 or 1).
fn unconserved(name: &str, outs: &[ThreadOut], prefilled: u64, remainder: u64) -> u64 {
    let sum_in = outs.iter().fold(prefilled, |s, o| s.wrapping_add(o.sum_in));
    let sum_out = outs
        .iter()
        .fold(remainder, |s, o| s.wrapping_add(o.sum_out));
    if sum_in != sum_out {
        eprintln!("{name}: values in ({sum_in:#x}) and out ({sum_out:#x}) differ");
    }
    (sum_in != sum_out) as u64
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The "thread" whose values the prefill produces.
const PREFILL_SOURCE: usize = 0xFFFE;

/// A value no other thread or operation produces.
#[inline]
fn transport_value(thread: usize, n: u64) -> u64 {
    ((thread as u64 + 1) << 48) | n
}

/// One slice of a 50/50 produce/consume cell over `produce`/`consume`.
/// Conservation: prefilled + produced = consumed + drained remainder.
fn transport_cell(
    name: &'static str,
    cell: u64,
    ctx: &SliceContext,
    setup_start: Instant,
    prefill: u64,
    produce: &(impl Fn(u64) -> bool + Sync),
    consume: &(impl Fn() -> Option<u64> + Sync),
) -> (CellOutcome, [u64; 4]) {
    let mut prefilled = 0u64;
    for n in 0..prefill {
        let value = transport_value(PREFILL_SOURCE, n);
        if produce(value) {
            prefilled = prefilled.wrapping_add(value);
        }
    }
    let bodies: Vec<ThreadBody<'_>> = (0..ctx.threads)
        .map(|thread| -> ThreadBody<'_> {
            let mut flips = CoinFlips::new(ctx.seed, cell, thread);
            Box::new(move |deadline| {
                let mut out = ThreadOut::default();
                let (mut sum_in, mut sum_out) = (0u64, 0u64);
                let (mut consumes, mut empty, mut produces, mut full) = (0u64, 0u64, 0u64, 0u64);
                timed_batches(deadline, &mut out, |n| {
                    if flips.next_flip() {
                        let value = transport_value(thread, n);
                        produces += 1;
                        if produce(value) {
                            sum_in = sum_in.wrapping_add(value);
                        } else {
                            full += 1;
                        }
                    } else {
                        consumes += 1;
                        match consume() {
                            Some(value) => sum_out = sum_out.wrapping_add(value),
                            None => empty += 1,
                        }
                    }
                });
                ThreadOut {
                    sum_in,
                    sum_out,
                    consumes,
                    empty,
                    produces,
                    full,
                    ..out
                }
            })
        })
        .collect();
    let (setup_s, outs, cpu_us) = run_bodies(bodies, ctx.slice, setup_start);
    let mut remainder = 0u64;
    while let Some(value) = consume() {
        remainder = remainder.wrapping_add(value);
    }
    let failed = unconserved(name, &outs, prefilled, remainder);
    let tallies = [
        outs.iter().map(|o| o.consumes).sum(),
        outs.iter().map(|o| o.empty).sum(),
        outs.iter().map(|o| o.produces).sum(),
        outs.iter().map(|o| o.full).sum(),
    ];
    (outcome(name, setup_s, outs, cpu_us, failed), tallies)
}

/// Treiber stack on backend `R`; also the ladder's `Leak` floor.
pub fn stack_cell<S: ConcurrentStack<u64> + Default>(
    name: &'static str,
    cell: u64,
    ctx: &SliceContext,
) -> CellOutcome {
    let setup_start = Instant::now();
    let stack = S::default();
    let (mut out, [consumes, empty, ..]) = transport_cell(
        name,
        cell,
        ctx,
        setup_start,
        TRANSPORT_PREFILL,
        &|v| {
            stack.push(v);
            true
        },
        &|| stack.pop(),
    );
    out.ratios
        .push(("stack.treiber_empty_pop_ratio", ratio(empty, consumes)));
    out
}

fn queue_cell<Q: ConcurrentQueue<u64> + Default>(
    name: &'static str,
    cell: u64,
    ctx: &SliceContext,
) -> CellOutcome {
    let setup_start = Instant::now();
    let queue = Q::default();
    transport_cell(
        name,
        cell,
        ctx,
        setup_start,
        TRANSPORT_PREFILL,
        &|v| {
            queue.enqueue(v);
            true
        },
        &|| queue.dequeue(),
    )
    .0
}

fn bounded_cell(cell: u64, ctx: &SliceContext) -> CellOutcome {
    let setup_start = Instant::now();
    let queue = BoundedQueue::<u64>::with_capacity(BOUNDED_CAPACITY);
    let (mut out, [_, _, produces, full]) = transport_cell(
        "queue.bounded",
        cell,
        ctx,
        setup_start,
        BOUNDED_CAPACITY as u64 / 2,
        &|v| queue.try_enqueue(v).is_ok(),
        &|| queue.try_dequeue(),
    );
    out.ratios
        .push(("queue.bounded_full_ratio", ratio(full, produces)));
    out
}

/// Chase–Lev deque: thread 0 owns it and pushes/pops at the bottom, the
/// other threads steal from the top.
fn deque_cell(cell: u64, ctx: &SliceContext) -> CellOutcome {
    let setup_start = Instant::now();
    let (worker, stealer) = ChaseLevDeque::<u64>::new();
    let mut prefilled = 0u64;
    for n in 0..TRANSPORT_PREFILL {
        let value = transport_value(PREFILL_SOURCE, n);
        worker.push(value);
        prefilled = prefilled.wrapping_add(value);
    }
    let mut flips = CoinFlips::new(ctx.seed, cell, 0);
    let owner: ThreadBody<'_> = Box::new(move |deadline| {
        let mut out = ThreadOut::default();
        let (mut sum_in, mut sum_out) = (prefilled, 0u64);
        timed_batches(deadline, &mut out, |n| {
            if worker.len() < DEQUE_FLOOR || flips.next_flip() {
                let value = transport_value(0, n);
                worker.push(value);
                sum_in = sum_in.wrapping_add(value);
            } else if let Some(value) = worker.pop() {
                sum_out = sum_out.wrapping_add(value);
            }
        });
        // Nobody else pushes, so an empty pop means drained for good.
        while let Some(value) = worker.pop() {
            sum_out = sum_out.wrapping_add(value);
        }
        ThreadOut {
            sum_in,
            sum_out,
            ..out
        }
    });
    let thieves = (1..ctx.threads).map(|_| -> ThreadBody<'_> {
        let stealer = stealer.clone();
        Box::new(move |deadline| {
            let mut out = ThreadOut::default();
            let (mut sum_out, mut hits, mut attempts) = (0u64, 0u64, 0u64);
            timed_batches(deadline, &mut out, |_| {
                attempts += 1;
                if let Steal::Success(value) = stealer.steal() {
                    sum_out = sum_out.wrapping_add(value);
                    hits += 1;
                }
            });
            ThreadOut {
                sum_out,
                consumes: attempts,
                empty: attempts - hits,
                ..out
            }
        })
    });
    let bodies: Vec<ThreadBody<'_>> = std::iter::once(owner).chain(thieves).collect();
    let (setup_s, outs, cpu_us) = run_bodies(bodies, ctx.slice, setup_start);
    // A thief may still take an element after the owner saw the deque
    // empty only if one was there, so whatever is left is counted here.
    let mut remainder = 0u64;
    while let Steal::Success(value) = stealer.steal() {
        remainder = remainder.wrapping_add(value);
    }
    // The owner counted the prefill into its own `sum_in`.
    let failed = unconserved("queue.chaselev", &outs, 0, remainder);
    let (attempts, misses) = outs
        .iter()
        .fold((0, 0), |(a, m), o| (a + o.consumes, m + o.empty));
    let mut out = outcome("queue.chaselev", setup_s, outs, cpu_us, failed);
    out.ratios.push((
        "queue.chaselev_steal_hit_ratio",
        ratio(attempts - misses, attempts),
    ));
    out
}

/// `SplitOrderedHashMap` seen as a set of keys holding `f(key)`.
struct SplitOrderedSet(SplitOrderedHashMap<u64, u64, FixedHasher>);

impl Default for SplitOrderedSet {
    fn default() -> Self {
        SplitOrderedSet(SplitOrderedHashMap::with_hasher(FixedHasher::default()))
    }
}

impl ConcurrentSet<u64> for SplitOrderedSet {
    const NAME: &'static str = "split-ordered";

    fn insert(&self, key: u64) -> bool {
        cds_core::ConcurrentMap::insert(&self.0, key, value_of(key))
    }

    fn remove(&self, key: &u64) -> bool {
        cds_core::ConcurrentMap::remove(&self.0, key)
    }

    fn contains(&self, key: &u64) -> bool {
        cds_core::ConcurrentMap::get(&self.0, key) == Some(value_of(*key))
    }

    fn len(&self) -> usize {
        cds_core::ConcurrentMap::len(&self.0)
    }
}

/// One slice of a set cell: every thread works on its own partition of
/// `0..keys` and checks each result against its bitmap of that partition.
fn set_cell<S: ConcurrentSet<u64>>(
    name: &'static str,
    cell: u64,
    ctx: &SliceContext,
    set: S,
    keys: u64,
    read_pct: u64,
    setup_start: Instant,
) -> CellOutcome {
    let mut prefill = SplitMix64::stream(ctx.seed, 0x5E70 | (cell << 16));
    let bodies: Vec<ThreadBody<'_>> = (0..ctx.threads)
        .map(|thread| -> ThreadBody<'_> {
            let mut ops = SetOps::new(ctx.seed, cell, thread, ctx.threads, keys, read_pct);
            let mut model = vec![0u64; (ops.per_thread() as usize).div_ceil(64)];
            // Half of the partition, in random order: ascending keys
            // would degenerate the unbalanced tree into a list.
            let order = permutation(
                ops.per_thread() as usize,
                SplitMix64::new(prefill.next_u64()),
            );
            for &index in &order[..order.len() / 2] {
                set.insert(index as u64 * ctx.threads as u64 + thread as u64);
                model[index as usize / 64] |= 1 << (index % 64);
            }
            let set = &set;
            Box::new(move |deadline| {
                let mut out = ThreadOut::default();
                let mut failed = 0u64;
                timed_batches(deadline, &mut out, |_| {
                    let op = ops.next_op();
                    let (KeyOp::Get(key) | KeyOp::Insert(key) | KeyOp::Remove(key)) = op;
                    let index = ops.model_index(key);
                    let (word, bit) = (index / 64, 1u64 << (index % 64));
                    let present = model[word] & bit != 0;
                    match op {
                        KeyOp::Get(_) => failed += (set.contains(&key) != present) as u64,
                        KeyOp::Insert(_) => {
                            failed += (set.insert(key) == present) as u64;
                            model[word] |= bit;
                        }
                        KeyOp::Remove(_) => {
                            failed += (set.remove(&key) != present) as u64;
                            model[word] &= !bit;
                        }
                    }
                });
                ThreadOut {
                    failed,
                    model_len: model.iter().map(|w| w.count_ones() as u64).sum(),
                    ..out
                }
            })
        })
        .collect();
    let (setup_s, outs, cpu_us) = run_bodies(bodies, ctx.slice, setup_start);
    let model_len: u64 = outs.iter().map(|o| o.model_len).sum();
    let len = set.len() as u64;
    if len != model_len {
        eprintln!("{name}: set holds {len} keys, the threads' models {model_len}");
    }
    outcome(name, setup_s, outs, cpu_us, (len != model_len) as u64)
}

/// What every cell of one repetition shares.
#[derive(Debug, Clone, Copy)]
pub struct SliceContext {
    pub seed: u64,
    pub threads: usize,
    pub slice: Duration,
}

const LIST_KEYS: u64 = 512;
const SET_KEYS: u64 = 1 << 16;

type CellFn = fn(u64, &SliceContext) -> CellOutcome;

const TRANSPORT_CELLS: &[CellFn] = &[
    |c, ctx| stack_cell::<TreiberStack<u64, Ebr>>("stack.treiber_ebr", c, ctx),
    |c, ctx| queue_cell::<MsQueue<u64, Ebr>>("queue.ms_ebr", c, ctx),
    |c, ctx| queue_cell::<MsQueue<u64, Hazard>>("queue.ms_hazard", c, ctx),
    bounded_cell,
    deque_cell,
];

fn timed_set_cell<S: ConcurrentSet<u64> + Default>(
    name: &'static str,
    cell: u64,
    ctx: &SliceContext,
    keys: u64,
    read_pct: u64,
) -> CellOutcome {
    let setup_start = Instant::now();
    set_cell(name, cell, ctx, S::default(), keys, read_pct, setup_start)
}

const SET_CELLS: &[CellFn] = &[
    |c, ctx| {
        timed_set_cell::<HarrisMichaelList<u64>>("list.harris_michael_r80", c, ctx, LIST_KEYS, 80)
    },
    |c, ctx| timed_set_cell::<SplitOrderedSet>("map.split_ordered_r80", c, ctx, SET_KEYS, 80),
    |c, ctx| timed_set_cell::<SplitOrderedSet>("map.split_ordered_r0", c, ctx, SET_KEYS, 0),
    |c, ctx| {
        timed_set_cell::<LockFreeSkipList<u64>>("skiplist.lock_free_r80", c, ctx, SET_KEYS, 80)
    },
    |c, ctx| timed_set_cell::<LockFreeSkipList<u64>>("skiplist.lock_free_r0", c, ctx, SET_KEYS, 0),
    |c, ctx| timed_set_cell::<LockFreeBst<u64>>("tree.ellen_r80", c, ctx, SET_KEYS, 80),
];

#[derive(Debug)]
pub struct DirectWorkload {
    kind: DirectKind,
    seed: u64,
    threads: usize,
}

impl DirectWorkload {
    pub fn new(kind: DirectKind, seed: u64, threads: usize) -> Self {
        DirectWorkload {
            kind,
            seed,
            threads,
        }
    }
}

/// Static metric names of a cell, from its prefix.
fn cell_metric_names(prefix: &str) -> (&'static str, &'static str) {
    let find = |suffix: &str| {
        crate::metrics::PER_LAYER
            .iter()
            .map(|d| d.name)
            .find(|n| n.strip_suffix(suffix) == Some(prefix))
            .unwrap_or_else(|| panic!("no per-layer metric {prefix}{suffix}"))
    };
    (find("_mops"), find("_batch_p99_us"))
}

impl Workload for DirectWorkload {
    /// One long round: a cell's throughput wanders by about 10 % from
    /// one 0.1 s slice to the next and by about 2 % between 0.8 s slices.
    fn rounds_per_group(&self) -> usize {
        1
    }

    /// The cost ladder rides on the transport workload, whose cells it explains.
    fn once_per_traced_run(&mut self) -> Values {
        match self.kind {
            DirectKind::Transport => crate::ladder::measure(self.threads),
            DirectKind::Sets => Values::new(),
        }
    }

    fn round(&mut self, length: Duration, _traced: bool, index: u64, _fresh: bool) -> Segment {
        let cells = match self.kind {
            DirectKind::Transport => TRANSPORT_CELLS,
            DirectKind::Sets => SET_CELLS,
        };
        let ctx = SliceContext {
            seed: self.seed ^ index.wrapping_mul(0x9E37_79B9),
            threads: self.threads,
            slice: length / cells.len() as u32,
        };
        let outcomes: Vec<CellOutcome> = cells
            .iter()
            .enumerate()
            .map(|(c, run)| run(c as u64, &ctx))
            .collect();

        // The cells have no spans to record; their per-layer rows are the
        // per-cell breakdown, which costs nothing to keep in every run.
        let mut layers = Values::new();
        for cell in &outcomes {
            let (mops, p99) = cell_metric_names(cell.name);
            layers.insert(mops, cell.ops_per_s / 1e6);
            layers.insert(p99, cell.batch_p99_us);
            layers.extend(cell.ratios.iter().copied());
        }
        let ops: u64 = outcomes.iter().map(|c| c.ops).sum();
        let per_cell =
            |pick: fn(&CellOutcome) -> f64| -> Vec<f64> { outcomes.iter().map(pick).collect() };
        Segment {
            attempted: ops,
            failed: outcomes.iter().map(|c| c.failed).sum(),
            // A geometric mean, so a slowdown in any one cell counts equally.
            ops_per_s: geomean(&per_cell(|c| c.ops_per_s)),
            lat_p50_us: geomean(&per_cell(|c| c.batch_p50_us)),
            lat_p99_us: geomean(&per_cell(|c| c.batch_p99_us)),
            latency_samples: outcomes.iter().map(|c| c.batches).min().unwrap_or(0),
            cpu_us_per_op: outcomes.iter().map(|c| c.cpu_us).sum::<f64>() / ops.max(1) as f64,
            setup_s: Some(outcomes.iter().map(|c| c.setup_s).sum()),
            layers,
        }
    }
}
