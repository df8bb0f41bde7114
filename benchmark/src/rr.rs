//! The `rr_*` workloads: a closed-loop request/reply service.
//!
//! One client thread keeps [`WINDOW`] requests outstanding. Each request
//! is `Executor::spawn`ed onto `threads - 1` workers, does its map
//! operations on a shared `ResizingMap`, and replies through one bounded
//! `cds_chan` channel whose capacity is below the window, so senders and
//! the receiver both park. The client checks every reply before it
//! issues the slot's next request.
//!
//! A round starts a fresh executor and reply channel; the map (and for
//! `MapGrow` the position in its insert-all / remove-all cycle) lives as
//! long as the group of rounds it was built for.

use std::cell::Cell;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cds_chan::Channel;
use cds_core::ConcurrentMap;
use cds_exec::Executor;
use cds_map::ResizingMap;
use cds_reclaim::{Ebr, Reclaimer};

use crate::inputs::{
    churn_key, encode_get, expected_static_get, probe_key, static_prefilled, value_of, GrowPlan,
    KeyOp, ReadRequestOps, SplitMix64, GROW_KEYS, GROW_OPS_PER_REQUEST, HOT_KEYS,
    READ_OPS_PER_REQUEST, STATIC_KEYS,
};
use crate::metrics::Values;
use crate::run::{Segment, Workload};
use crate::stats::percentile_u32;
use crate::sys::{cpu_time_us, Clock};
use crate::trace::{self, TraceTable};

/// Requests the client keeps outstanding.
pub const WINDOW: usize = 64;
/// Capacity of the reply channel; below [`WINDOW`] on purpose.
pub const REPLY_CAPACITY: usize = 16;
/// Requests one traced round can hold spans for.
pub const TRACE_ROWS: usize = 1 << 20;

/// SipHash with fixed keys: the same seed hashes the same way in every
/// process, at the cost `RandomState` has.
pub type FixedHasher = BuildHasherDefault<DefaultHasher>;
type Map = ResizingMap<u64, u64, FixedHasher>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrKind {
    /// One `get` of a hot key per request.
    Light,
    /// [`READ_OPS_PER_REQUEST`] operations per request, 90/5/5.
    MapRead,
    /// [`GROW_OPS_PER_REQUEST`] writes per request into a map that grows from empty.
    MapGrow,
}

const INSERT_PHASE: u8 = 0;
const REMOVE_PHASE: u8 = 1;
/// Requests in one phase of a `MapGrow` cycle.
const GROW_CHUNKS: u64 = (GROW_KEYS / GROW_OPS_PER_REQUEST) as u64;

#[derive(Clone, Copy, Default)]
struct Request {
    /// Sequence number in the round, and the request's trace row.
    row: u32,
    slot: u16,
    phase: u8,
    /// `Light`: the key. `MapRead`: the request's op-stream seed.
    /// `MapGrow`: the chunk of the phase's key order.
    arg: u64,
}

struct Reply {
    slot: u16,
    /// Operations whose result contradicted the model, as the task saw it.
    mismatches: u16,
    check: u64,
}

/// The data the requests work on. It outlives a round: the rounds of a
/// group run on one store (`MapGrow` replaces it at the end of a cycle).
struct Store {
    kind: RrKind,
    map: Map,
    /// `MapRead`: which of its churn keys each request slot has in the
    /// map, one bit per key. A slot has one request outstanding, so its
    /// lock is never contended.
    churn: Vec<Mutex<u64>>,
    plan: Option<Arc<GrowPlan>>,
}

impl Store {
    fn new(kind: RrKind, plan: Option<Arc<GrowPlan>>) -> Arc<Store> {
        let map = match kind {
            RrKind::Light | RrKind::MapRead => {
                let map = Map::with_hasher(FixedHasher::default());
                for key in (0..STATIC_KEYS).filter(|&k| static_prefilled(k)) {
                    map.insert(key, value_of(key));
                }
                map
            }
            RrKind::MapGrow => Map::with_config_and_hasher(8, 16, FixedHasher::default()),
        };
        let churn = match kind {
            RrKind::MapRead => (0..WINDOW).map(|_| Mutex::new(0)).collect(),
            _ => Vec::new(),
        };
        Arc::new(Store {
            kind,
            map,
            churn,
            plan,
        })
    }

    /// The client's check of one reply: the checksum against what the
    /// request must have produced, the task's own count of wrong results,
    /// and one `get` by the client itself beside the workers' operations.
    fn reply_is_wrong(&self, request: Request, reply: &Reply) -> bool {
        let wrong_check = match self.kind {
            RrKind::Light => reply.check != expected_static_get(request.arg),
            RrKind::MapRead => {
                let probe = probe_key(request.arg);
                let expected = expected_static_get(probe);
                reply.check != expected || encode_get(self.map.get(&probe)) != expected
            }
            RrKind::MapGrow => {
                let first = self.grow_chunk(request.phase, request.arg)[0];
                let key = GrowPlan::key(first);
                // Reads beside writes: the key this request just
                // inserted (or removed), while others migrate tables.
                let expected = (request.phase == INSERT_PHASE).then(|| value_of(key));
                reply.check != grow_check(first, GROW_OPS_PER_REQUEST as u64)
                    || self.map.get(&key) != expected
            }
        };
        wrong_check || reply.mismatches != 0
    }

    fn grow_chunk(&self, phase: u8, chunk: u64) -> &[u32] {
        let plan = self.plan.as_deref().expect("MapGrow has a plan");
        let order = if phase == INSERT_PHASE {
            &plan.insert_order
        } else {
            &plan.remove_order
        };
        let start = chunk as usize * GROW_OPS_PER_REQUEST;
        &order[start..start + GROW_OPS_PER_REQUEST]
    }
}

/// What the tasks of one round share.
struct Shared {
    store: Arc<Store>,
    replies: Channel<Reply>,
    trace: Option<Arc<TraceTable>>,
    /// Self-test hook: the request whose reply checksum is corrupted.
    corrupt_request: Option<u64>,
    send_errors: AtomicU64,
}

thread_local! {
    /// When this worker thread finished its previous task (traced rounds).
    static PREVIOUS_TASK_END: Cell<u64> = const { Cell::new(0) };
}

fn serve(shared: &Shared, request: Request) {
    let table = shared.trace.as_deref();
    let store = &*shared.store;
    let t2 = table.map_or(0, TraceTable::now);
    let (mut check, mismatches) = match store.kind {
        RrKind::Light => (encode_get(store.map.get(&request.arg)), 0),
        RrKind::MapRead => serve_map_read(store, request),
        RrKind::MapGrow => serve_map_grow(store, request),
    };
    if shared.corrupt_request == Some(request.row as u64) {
        check ^= 2;
    }
    let t3 = table.map_or(0, TraceTable::now);
    let sent = shared.replies.send(Reply {
        slot: request.slot,
        mismatches,
        check,
    });
    if let Some(table) = table {
        // The reply has already left, so the worker's stamps go to the
        // request's row of the table, which the client reads at the end.
        let t4 = table.now();
        table.stamp(request.row, trace::T2_TASK_START, t2);
        table.stamp(request.row, trace::T3_MAP_DONE, t3);
        table.stamp(request.row, trace::T4_SEND_RETURNED, t4);
        table.stamp(
            request.row,
            trace::TP_WORKER_PREV_END,
            PREVIOUS_TASK_END.replace(t4),
        );
    }
    if sent.is_err() {
        shared.send_errors.fetch_add(1, Relaxed);
    }
}

fn serve_map_read(store: &Store, request: Request) -> (u64, u16) {
    let slot = request.slot as usize;
    let mut model = store.churn[slot]
        .lock()
        .expect("a task panicked holding a slot model");
    let mut check = 0;
    let mut mismatches = 0;
    for (i, op) in ReadRequestOps::new(request.arg).enumerate() {
        match op {
            KeyOp::Get(key) => {
                let got = encode_get(store.map.get(&key));
                if i == 0 {
                    check = got;
                }
                mismatches += (got != expected_static_get(key)) as u16;
            }
            KeyOp::Insert(j) => {
                let key = churn_key(slot, j);
                let absent = *model & (1 << j) == 0;
                mismatches += (store.map.insert(key, value_of(key)) != absent) as u16;
                *model |= 1 << j;
            }
            KeyOp::Remove(j) => {
                let key = churn_key(slot, j);
                let present = *model & (1 << j) != 0;
                mismatches += (store.map.remove(&key) != present) as u16;
                *model &= !(1 << j);
            }
        }
    }
    (check, mismatches)
}

/// What a correct `MapGrow` reply carries: every write of the request took effect.
fn grow_check(first_index: u32, succeeded: u64) -> u64 {
    value_of(GrowPlan::key(first_index)) ^ succeeded
}

fn serve_map_grow(store: &Store, request: Request) -> (u64, u16) {
    let chunk = store.grow_chunk(request.phase, request.arg);
    let mut succeeded = 0;
    for &index in chunk {
        let key = GrowPlan::key(index);
        succeeded += if request.phase == INSERT_PHASE {
            store.map.insert(key, value_of(key))
        } else {
            store.map.remove(&key)
        } as u64;
    }
    (
        grow_check(chunk[0], succeeded),
        (GROW_OPS_PER_REQUEST as u64 - succeeded) as u16,
    )
}

#[derive(Debug, Clone, Copy)]
pub struct RrConfig {
    pub kind: RrKind,
    pub seed: u64,
    /// Client plus workers.
    pub threads: usize,
    pub corrupt_request: Option<u64>,
}

/// What a group of rounds keeps between them.
struct Group {
    store: Arc<Store>,
    /// `MapGrow`: where the client is in the insert-all / remove-all cycle.
    phase: u8,
    next_chunk: u64,
    /// Entries the map holds once every issued request has replied.
    model_len: usize,
    cycles: u64,
    /// Doublings of the maps of completed cycles.
    cycle_doublings: u64,
}

/// Runs rounds of one `rr_*` workload; owns what they reuse.
pub struct RrWorkload {
    config: RrConfig,
    clock: Clock,
    latencies: Vec<u32>,
    table: Option<Arc<TraceTable>>,
    /// Rows the last traced round filled.
    traced_rows: usize,
    group: Option<Group>,
}

impl RrWorkload {
    pub fn new(config: RrConfig, traced: bool) -> Self {
        assert!(config.threads >= 2, "a client and at least one worker");
        let clock = Clock::start();
        RrWorkload {
            config,
            clock,
            // Virtual space only: pages are touched as samples arrive.
            latencies: Vec::with_capacity(4 << 20),
            table: traced.then(|| Arc::new(TraceTable::new(TRACE_ROWS, clock))),
            traced_rows: 0,
            group: None,
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Pending {
    t0: u64,
    request: Request,
}

impl Workload for RrWorkload {
    fn round(&mut self, length: Duration, traced: bool, index: u64, fresh: bool) -> Segment {
        let RrConfig {
            kind,
            seed,
            threads,
            corrupt_request,
        } = self.config;
        let clock = self.clock;
        let table = if traced { self.table.clone() } else { None };
        let workers = threads - 1;

        if fresh {
            // The old group's map is dropped here, outside any measurement.
            self.group = None;
        }
        let setup_start = Instant::now();
        let group = self.group.get_or_insert_with(|| {
            let plan = (kind == RrKind::MapGrow).then(|| Arc::new(GrowPlan::new(seed ^ index)));
            Group {
                store: Store::new(kind, plan),
                phase: INSERT_PHASE,
                next_chunk: 0,
                model_len: 0,
                cycles: 0,
                cycle_doublings: 0,
            }
        });
        let replies = cds_chan::bounded::<Reply>(REPLY_CAPACITY);
        let new_shared = |store: &Arc<Store>| {
            Arc::new(Shared {
                store: Arc::clone(store),
                replies: replies.clone(),
                trace: table.clone(),
                corrupt_request,
                send_errors: AtomicU64::new(0),
            })
        };
        let mut shared = new_shared(&group.store);
        let pool = Executor::new(workers);
        let setup_s = setup_start.elapsed().as_secs_f64();

        let mut rng = SplitMix64::stream(seed, index.wrapping_add(0x1000));
        let doublings_before = group.store.map.doublings();
        let mut pending = [Pending::default(); WINDOW];
        let mut free: Vec<u16> = (0..WINDOW as u16).rev().collect();
        let mut issued: u64 = 0;
        let mut completed: u64 = 0;
        let mut failed: u64 = 0;
        let mut stop = false;
        let mut recv_ns: u64 = 0;
        let mut backlog_max = 0usize;
        let mut check_ns: Vec<u32> = Vec::with_capacity(if traced { TRACE_ROWS } else { 0 });
        self.latencies.clear();

        let cpu_start = cpu_time_us();
        let start = clock.now_ns();
        let deadline = start + length.as_nanos() as u64;
        let mut last_reply = start;
        loop {
            while !stop
                && !free.is_empty()
                && (kind != RrKind::MapGrow || group.next_chunk < GROW_CHUNKS)
            {
                if table
                    .as_ref()
                    .is_some_and(|t| issued as usize == t.capacity())
                {
                    stop = true;
                    break;
                }
                let slot = free.pop().expect("checked non-empty");
                let request = Request {
                    row: issued as u32,
                    slot,
                    phase: group.phase,
                    arg: match kind {
                        RrKind::Light => rng.below(HOT_KEYS),
                        RrKind::MapRead => rng.next_u64(),
                        RrKind::MapGrow => {
                            group.next_chunk += 1;
                            group.next_chunk - 1
                        }
                    },
                };
                let task_shared = Arc::clone(&shared);
                let t0 = clock.now_ns();
                pool.spawn(move || serve(&task_shared, request));
                if let Some(table) = &table {
                    let t1 = clock.now_ns();
                    table.stamp(request.row, trace::T0_BEFORE_SPAWN, t0);
                    table.stamp(request.row, trace::T1_AFTER_SPAWN, t1);
                }
                pending[slot as usize] = Pending { t0, request };
                issued += 1;
            }
            if free.len() == WINDOW {
                if stop {
                    break;
                }
                // MapGrow drained a phase: every insert (or remove) of
                // the cycle has replied, so the map's size is known.
                failed += (group.store.map.len() != group.model_len) as u64;
                group.next_chunk = 0;
                if group.phase == INSERT_PHASE {
                    group.phase = REMOVE_PHASE;
                } else {
                    group.phase = INSERT_PHASE;
                    group.cycles += 1;
                    group.cycle_doublings += group.store.map.doublings() as u64;
                    // Tasks drop their handle on `shared` before they
                    // count as executed, so after `quiesce` the handles
                    // replaced below are the last and the cycle's map is
                    // dropped right here, by the client.
                    pool.quiesce();
                    failed += shared.send_errors.load(Relaxed);
                    group.store = Store::new(kind, group.store.plan.clone());
                    shared = new_shared(&group.store);
                }
                continue;
            }

            let tr = if traced { clock.now_ns() } else { 0 };
            let Ok(reply) = replies.recv() else {
                eprintln!("rr: reply channel closed with requests outstanding");
                failed += (WINDOW - free.len()) as u64;
                break;
            };
            let t5 = clock.now_ns();
            last_reply = t5;
            let Pending { t0, request } = pending[reply.slot as usize];
            self.latencies.push((t5 - t0).min(u32::MAX as u64) as u32);

            failed += group.store.reply_is_wrong(request, &reply) as u64;
            if kind == RrKind::MapGrow {
                if request.phase == INSERT_PHASE {
                    group.model_len += GROW_OPS_PER_REQUEST;
                } else {
                    group.model_len -= GROW_OPS_PER_REQUEST;
                }
            }
            completed += 1;
            free.push(reply.slot);

            if let Some(table) = &table {
                let checked = clock.now_ns();
                table.stamp(request.row, trace::TR_RECV_ENTERED, tr);
                table.stamp(request.row, trace::T5_RECV_RETURNED, t5);
                recv_ns += t5 - tr;
                check_ns.push((checked - t5).min(u32::MAX as u64) as u32);
                if completed.is_multiple_of(1024) {
                    backlog_max = backlog_max.max(Ebr::retired_backlog());
                }
            }
            stop |= t5 >= deadline;
        }
        let elapsed_ns = (last_reply - start).max(1);
        let cpu_us = cpu_time_us() - cpu_start;

        // Accounting: every request was spawned, ran, sent one reply,
        // and the client received it; the map holds what the model says.
        pool.quiesce();
        let (spawned, executed) = (pool.spawned(), pool.executed());
        let (sent, received) = (replies.sent(), replies.received());
        let store = &*group.store;
        let expected_len = match kind {
            RrKind::Light => (STATIC_KEYS / 2) as usize,
            RrKind::MapRead => {
                let churned: u32 = store
                    .churn
                    .iter()
                    .map(|slot| slot.lock().expect("slot model").count_ones())
                    .sum();
                (STATIC_KEYS / 2) as usize + churned as usize
            }
            RrKind::MapGrow => group.model_len,
        };
        let balanced = spawned == issued
            && executed == issued
            && sent == issued
            && received == completed
            && completed == issued
            && shared.send_errors.load(Relaxed) == 0
            && store.map.len() == expected_len;
        if !balanced {
            eprintln!(
                "rr: accounting does not balance: issued {issued} completed {completed} spawned {spawned} \
                 executed {executed} sent {sent} received {received} map len {} expected {expected_len}",
                store.map.len()
            );
            failed += 1;
        }

        let mut segment = Segment {
            attempted: issued,
            failed,
            ops_per_s: completed as f64 / (elapsed_ns as f64 / 1e9),
            lat_p50_us: percentile_u32(&mut self.latencies, 0.50) / 1e3,
            lat_p99_us: percentile_u32(&mut self.latencies, 0.99) / 1e3,
            latency_samples: self.latencies.len() as u64,
            cpu_us_per_op: cpu_us / completed.max(1) as f64,
            setup_s: fresh.then_some(setup_s),
            layers: Values::new(),
        };
        if let Some(table) = &table {
            self.traced_rows = completed as usize;
            let map_ops = completed
                * match kind {
                    RrKind::Light => 1,
                    RrKind::MapRead => READ_OPS_PER_REQUEST,
                    RrKind::MapGrow => GROW_OPS_PER_REQUEST,
                } as u64;
            // Doublings the measured requests caused: per completed
            // cycle on MapGrow, in this round on the fixed-size maps.
            let doublings = match kind {
                RrKind::MapGrow if group.cycles > 0 => {
                    group.cycle_doublings as f64 / group.cycles as f64
                }
                RrKind::MapGrow => store.map.doublings() as f64,
                _ => (store.map.doublings() - doublings_before) as f64,
            };
            segment.layers = layer_values(
                table,
                completed as u32,
                map_ops,
                workers,
                elapsed_ns,
                recv_ns,
                &mut check_ns,
            );
            segment.layers.extend([
                ("exec.spawned", spawned as f64),
                ("exec.executed", executed as f64),
                ("chan.sent", sent as f64),
                ("chan.received", received as f64),
                ("map.doublings", doublings),
                ("reclaim.ebr_backlog_max", backlog_max as f64),
            ]);
        }
        segment
    }

    fn rounds_per_group(&self) -> usize {
        8
    }

    fn write_spans(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let Some(table) = &self.table else {
            return Ok(());
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "request,t0_ns,t1_ns,t2_ns,t3_ns,t4_ns,t5_ns,recv_entered_ns,worker_prev_end_ns"
        )?;
        for row in 0..self.traced_rows.min(limit) as u32 {
            let s = table.stamps(row);
            writeln!(
                out,
                "{row},{},{},{},{},{},{},{},{}",
                s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
            )?;
        }
        out.flush()
    }
}

/// Per-layer values of one traced round, from its first `rows` rows.
fn layer_values(
    table: &TraceTable,
    rows: u32,
    map_ops: u64,
    workers: usize,
    elapsed_ns: u64,
    recv_ns: u64,
    check_ns: &mut [u32],
) -> Values {
    let n = rows as usize;
    let mut columns: [Vec<u32>; 7] = std::array::from_fn(|_| Vec::with_capacity(n));
    let mut self_sums = [0u64; 3];
    let (mut round_trips, mut clamped, mut worker_busy) = (0u64, 0u64, 0u64);
    for row in 0..rows {
        let iv = trace::intervals(&table.stamps(row));
        let fields = [
            iv.spawn_call,
            iv.queue_wait,
            iv.task_busy,
            iv.send_call,
            iv.reply_wait,
            iv.dispatch_self,
            iv.delivery_self,
        ];
        for (column, value) in columns.iter_mut().zip(fields) {
            column.push(value.min(u32::MAX as u64) as u32);
        }
        for (sum, t) in self_sums.iter_mut().zip(iv.self_times()) {
            *sum += t;
        }
        round_trips += iv.round_trip();
        clamped += iv.clamped;
        worker_busy += iv.task_busy + iv.send_call;
    }
    let [spawn, queue, busy, send, reply, dispatch, delivery] = &mut columns;
    let busy_sum: u64 = busy.iter().map(|&b| b as u64).sum();
    let self_total = self_sums.iter().sum::<u64>().max(1) as f64;
    let round_trips = round_trips.max(1) as f64;
    Values::from([
        ("exec.spawn_call_ns", percentile_u32(spawn, 0.5)),
        ("exec.queue_wait_us", percentile_u32(queue, 0.5) / 1e3),
        ("exec.queue_wait_p99_us", percentile_u32(queue, 0.99) / 1e3),
        ("exec.dispatch_self_ns", percentile_u32(dispatch, 0.5)),
        ("map.task_busy_us", percentile_u32(busy, 0.5) / 1e3),
        ("map.op_ns", busy_sum as f64 / map_ops.max(1) as f64),
        ("map.client_check_ns", percentile_u32(check_ns, 0.5)),
        ("chan.send_call_ns", percentile_u32(send, 0.5)),
        ("chan.send_call_p99_us", percentile_u32(send, 0.99) / 1e3),
        ("chan.reply_wait_us", percentile_u32(reply, 0.5) / 1e3),
        ("chan.reply_wait_p99_us", percentile_u32(reply, 0.99) / 1e3),
        ("chan.delivery_self_ns", percentile_u32(delivery, 0.5)),
        ("exec.share", self_sums[0] as f64 / self_total),
        ("map.share", self_sums[1] as f64 / self_total),
        ("chan.share", self_sums[2] as f64 / self_total),
        ("run.queued_share", 1.0 - self_total / round_trips),
        (
            "exec.worker_busy_ratio",
            worker_busy as f64 / (workers as f64 * elapsed_ns as f64),
        ),
        (
            "chan.recv_blocked_ratio",
            recv_ns as f64 / elapsed_ns as f64,
        ),
        ("trace.clamped_ratio", clamped as f64 / round_trips),
    ])
}
