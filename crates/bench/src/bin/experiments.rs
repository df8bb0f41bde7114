//! Regenerates the survey tables (experiments E1–E11 of DESIGN.md) and
//! emits the machine-readable measurement file.
//!
//! ```text
//! cargo run -p cds-bench --release --bin experiments -- all
//! cargo run -p cds-bench --release --bin experiments -- e4 e5
//! cargo run -p cds-bench --release --bin experiments -- all --quick --json BENCH_experiments.json
//! cargo run -p cds-bench --release --bin experiments -- check BENCH_experiments.json
//! cargo run -p cds-bench --release --bin experiments -- render BENCH_experiments.json
//! ```
//!
//! Every measured cell is recorded as a [`Sample`] — the median and
//! spread of its timed rounds' throughput, p50/p90/p99/p99.9 sampled
//! latency, and the cell's `cds-obs` counter delta when the `telemetry`
//! feature is compiled in. `--quick` picks the smaller operation counts;
//! the method (`cds_bench::ROUNDS` timed rounds after one warm-up round)
//! is the same at both scales.
//! When the run ends, the report document (see `cds_bench::report` for the
//! schema) is checked and printed through [`report::render`]: one
//! Markdown table per experiment, rows = implementations, columns =
//! thread counts (for ratio sweeps, one table per read ratio), numbers in
//! million operations per second with the rounds' spread. `--json <path>`
//! also writes the document. `render <path>` prints the same tables from a
//! written document, and `check <path>` validates one, exiting non-zero on
//! schema violations or missing experiments.

use std::sync::Arc;

use cds_bench::json::Json;
use cds_bench::report::{self, TelemetryRecord};
use cds_bench::{
    counter_run, lock_run, map_run, pq_run, queue_run, set_run, stack_run, Report, RunStats,
    Sample, Workload,
};
use cds_sync::RawLock;

const THREAD_SWEEP: &[usize] = &[1, 2, 4, 8];

/// Operations per round of a cell, summed over its threads: `list_ops`
/// for the list-based E4 and E10, `ops` for the rest.
struct Scale {
    ops: usize,
    list_ops: usize,
}

const QUICK: Scale = Scale {
    ops: 40_000,
    list_ops: 8_000,
};

const FULL: Scale = Scale {
    ops: 400_000,
    list_ops: 40_000,
};

/// Shared run state: workload scale and the sample sink.
struct Ctx {
    scale: Scale,
    report: Report,
}

impl Ctx {
    /// Measures one cell and records it. The `cds-obs` counters are reset
    /// first so per-cell peaks (max-kind events) do not accumulate across
    /// cells; no worker threads are live between cells, so the reset
    /// cannot race a recorder. With telemetry compiled in, the sample
    /// carries the nonzero counter deltas, which span every round's
    /// prefill and operations, the warm-up round's included.
    fn measure(
        &mut self,
        experiment: &str,
        label: &str,
        reclaimer: Option<&str>,
        w: Workload,
        run: impl FnOnce(Workload) -> RunStats,
    ) {
        cds_obs::reset();
        let base = cds_obs::Snapshot::take();
        let stats = run(w);
        let mut sample = Sample::from_stats(experiment, label, &w, &stats);
        if let Some(r) = reclaimer {
            sample = sample.with_reclaimer(r);
        }
        if cds_obs::enabled() {
            let delta = cds_obs::Snapshot::take().delta(&base);
            sample = sample.with_telemetry(TelemetryRecord {
                counters: delta
                    .iter()
                    .filter(|&(_, v)| v != 0)
                    .map(|(e, v)| (e.name().to_string(), v))
                    .collect(),
            });
        }
        self.report.push(sample);
    }
}

/// Measures each `(name, constructor)` row at every workload in `$cells`,
/// each round of a cell on a fresh structure driven by the family's run
/// helper.
macro_rules! sweep {
    ($ctx:expr, $experiment:expr, $cells:expr, $run:path, [$(($name:expr, $ctor:expr)),* $(,)?]) => {
        $(
            for &w in $cells {
                $ctx.measure($experiment, $name, None, w, |w| $run(|| Arc::new($ctor), w));
            }
        )*
    };
}

/// One workload per thread count of the sweep.
fn thread_cells(workload: impl Fn(usize) -> Workload) -> Vec<Workload> {
    THREAD_SWEEP.iter().map(|&t| workload(t)).collect()
}

/// E4–E7's cells: 0/50/90% reads across the thread sweep, each prefilled
/// to half the key range.
fn ratio_cells(ops: usize, key_range: u64) -> Vec<Workload> {
    [(0, 50), (50, 25), (90, 5)]
        .into_iter()
        .flat_map(|(read_pct, insert_pct)| {
            thread_cells(|t| Workload {
                threads: t,
                ops_per_thread: ops / t,
                key_range,
                read_pct,
                insert_pct,
                prefill: (key_range / 2) as usize,
            })
        })
        .collect()
}

fn e1_counters(ctx: &mut Ctx) {
    let ops = ctx.scale.ops;
    let cells = thread_cells(|t| Workload::ops_only(t, ops / t));
    sweep!(
        ctx,
        "e1",
        &cells,
        counter_run,
        [
            ("lock", cds_counter::LockCounter::new()),
            ("atomic", cds_counter::AtomicCounter::new()),
            ("sharded", cds_counter::ShardedCounter::new()),
            ("combining-tree", cds_counter::CombiningTreeCounter::new()),
            ("flat-combining", cds_counter::FcCounter::new()),
        ]
    );
}

fn e2_stacks(ctx: &mut Ctx) {
    let ops = ctx.scale.ops;
    let cells = thread_cells(|t| Workload::fifty_fifty(t, ops / t, 1024));
    sweep!(
        ctx,
        "e2",
        &cells,
        stack_run,
        [
            ("coarse", cds_stack::CoarseStack::new()),
            ("flat-combining", cds_stack::FcStack::new()),
            ("treiber (EBR)", cds_stack::TreiberStack::new()),
            (
                "treiber (HP)",
                cds_stack::TreiberStack::<u64, cds_reclaim::Hazard>::with_reclaimer()
            ),
            ("elimination", cds_stack::EliminationBackoffStack::new()),
            // Ablation (DESIGN.md decision #4): elimination parameters.
            (
                "elimination (1 slot, 16 spins)",
                cds_stack::EliminationBackoffStack::with_params(1, 16)
            ),
            (
                "elimination (8 slots, 256 spins)",
                cds_stack::EliminationBackoffStack::with_params(8, 256)
            ),
        ]
    );
}

fn e3_queues(ctx: &mut Ctx) {
    let ops = ctx.scale.ops;
    let cells = thread_cells(|t| Workload::fifty_fifty(t, ops / t, 1024));
    sweep!(
        ctx,
        "e3",
        &cells,
        queue_run,
        [
            ("coarse", cds_queue::CoarseQueue::new()),
            ("flat-combining", cds_queue::FcQueue::new()),
            ("two-lock", cds_queue::TwoLockQueue::new()),
            ("michael-scott", cds_queue::MsQueue::new()),
            (
                "bounded (vyukov)",
                cds_queue::BoundedQueue::with_capacity(1 << 16)
            ),
        ]
    );
}

fn e4_lists(ctx: &mut Ctx) {
    let cells = ratio_cells(ctx.scale.list_ops, 512);
    sweep!(
        ctx,
        "e4",
        &cells,
        set_run,
        [
            ("coarse", cds_list::CoarseList::new()),
            ("fine (hand-over-hand)", cds_list::FineList::new()),
            ("optimistic", cds_list::OptimisticList::new()),
            ("lazy", cds_list::LazyList::new()),
            ("harris-michael", cds_list::HarrisMichaelList::new()),
        ]
    );
}

fn e5_maps(ctx: &mut Ctx) {
    let cells = ratio_cells(ctx.scale.ops, 65_536);
    sweep!(
        ctx,
        "e5",
        &cells,
        map_run,
        [
            ("coarse", cds_map::CoarseMap::new()),
            ("striped", cds_map::StripedHashMap::new()),
            ("split-ordered", cds_map::SplitOrderedHashMap::new()),
        ]
    );
}

fn e6_skiplists(ctx: &mut Ctx) {
    let cells = ratio_cells(ctx.scale.ops, 65_536);
    sweep!(
        ctx,
        "e6",
        &cells,
        set_run,
        [
            ("coarse", cds_skiplist::CoarseSkipList::new()),
            ("lazy", cds_skiplist::LazySkipList::new()),
            ("lock-free", cds_skiplist::LockFreeSkipList::new()),
        ]
    );
}

fn e7_trees(ctx: &mut Ctx) {
    let cells = ratio_cells(ctx.scale.ops, 65_536);
    sweep!(
        ctx,
        "e7",
        &cells,
        set_run,
        [
            ("coarse", cds_tree::CoarseBst::new()),
            ("fine (external)", cds_tree::FineBst::new()),
            ("ellen (lock-free)", cds_tree::LockFreeBst::new()),
        ]
    );
}

fn e8_priority_queues(ctx: &mut Ctx) {
    let ops = ctx.scale.ops;
    let cells = thread_cells(|t| Workload::pq_default(t, ops / t));
    sweep!(
        ctx,
        "e8",
        &cells,
        pq_run,
        [
            ("coarse-heap", cds_prio::CoarseBinaryHeap::new()),
            (
                "skiplist (lotan-shavit)",
                cds_prio::SkipListPriorityQueue::new()
            ),
        ]
    );
}

fn e9_locks(ctx: &mut Ctx) {
    let ops = ctx.scale.ops;
    let cells = thread_cells(|t| Workload::ops_only(t, ops / t));

    fn bench_raw<L: RawLock + 'static>(ctx: &mut Ctx, cells: &[Workload], name: &str) {
        for &w in cells {
            ctx.measure("e9", name, None, w, |w| {
                let make = || Arc::new(cds_sync::Lock::<L, u64>::new(0));
                lock_run(make, w, |lock| *lock.lock() += 1)
            });
        }
    }

    bench_raw::<cds_sync::TasLock>(ctx, &cells, "tas");
    bench_raw::<cds_sync::TtasLock>(ctx, &cells, "ttas+backoff");
    bench_raw::<cds_sync::TicketLock>(ctx, &cells, "ticket");
    bench_raw::<cds_sync::ClhLock>(ctx, &cells, "clh");
    bench_raw::<cds_sync::McsLock>(ctx, &cells, "mcs");
    bench_raw::<cds_sync::ParkingLock>(ctx, &cells, "parking");

    // The outside baseline: the standard library's blocking mutex.
    for &w in &cells {
        ctx.measure("e9", "std::sync::Mutex", None, w, |w| {
            let make = || Arc::new(std::sync::Mutex::new(0u64));
            lock_run(make, w, |lock| *lock.lock().unwrap() += 1)
        });
    }
}

fn e10_reclamation(ctx: &mut Ctx) {
    use cds_core::ConcurrentStack;
    use cds_reclaim::{DebugReclaim, Ebr, Hazard, Leak, Reclaimer};

    // The Harris–Michael list instantiated against every reclamation
    // backend. Samples carry the structure as `impl` and the backend as
    // `reclaimer`, which labels the rows and which `experiments check`
    // validates for full coverage. The Treiber and MS-queue backend rows
    // belong to the gate's `direct_transport` workload.
    fn list_rows<R: Reclaimer>(ctx: &mut Ctx, cells: &[Workload]) {
        for &w in cells {
            ctx.measure("e10", "harris-michael", Some(R::NAME), w, |w| {
                set_run(
                    || Arc::new(cds_list::HarrisMichaelList::<u64, R>::with_reclaimer()),
                    w,
                )
            });
        }
    }

    let ops = ctx.scale.list_ops;
    let cells = thread_cells(|t| Workload {
        threads: t,
        ops_per_thread: ops / t,
        key_range: 512,
        read_pct: 50,
        insert_pct: 25,
        prefill: 256,
    });
    list_rows::<Ebr>(ctx, &cells);
    list_rows::<Hazard>(ctx, &cells);
    list_rows::<Leak>(ctx, &cells);
    list_rows::<DebugReclaim>(ctx, &cells);

    // Bounded-garbage evidence for hazard pointers: churn hard, then
    // report the domain's retired-but-not-yet-freed backlog.
    let hp = Arc::new(cds_stack::TreiberStack::<u64, Hazard>::with_reclaimer());
    for i in 0..100_000u64 {
        hp.push(i);
        std::hint::black_box(hp.pop());
    }
    Hazard::collect();
    ctx.report.push_extra(
        "e10_hazard_garbage_after_100k_churn",
        Hazard::retired_backlog() as f64,
    );
}

type Resizing = cds_map::ResizingMap<u64, u64, std::hash::RandomState, cds_reclaim::Ebr>;

/// E11's cells: an insert-heavy mix (20% reads / 70% inserts / 10%
/// removes) with no prefill, so the doublings happen under load,
/// interleaved with the measured operations rather than in a setup phase.
/// ~13k resident keys over 8 shards trigger growth past 4 entries per
/// bucket until each shard holds 512 buckets: 6 doublings per shard from
/// the 8-bucket start, 48 per round.
fn e11_cells(ops: usize) -> Vec<Workload> {
    thread_cells(|t| Workload {
        threads: t,
        ops_per_thread: ops / t,
        key_range: 16_384,
        read_pct: 20,
        insert_pct: 70,
        prefill: 0,
    })
}

/// One cell of E11's growing row, every round on a map born at 8 shards ×
/// 8 buckets. Returns the cell's stats and the doublings each timed
/// round's map made.
fn e11_growing(w: Workload) -> (RunStats, Vec<usize>) {
    let mut doublings = Vec::new();
    let mut last: Option<Arc<Resizing>> = None;
    let make = || {
        // The previous round has ended: read its map, then let it go.
        doublings.extend(last.take().map(|m| m.doublings()));
        let map = Arc::new(Resizing::with_config(8, 8));
        last = Some(Arc::clone(&map));
        map
    };
    let stats = map_run(make, w);
    doublings.extend(last.map(|m| m.doublings()));
    // The first map was the warm-up round's.
    doublings.remove(0);
    (stats, doublings)
}

fn e11_resize(ctx: &mut Ctx) {
    // Resize sweep: a growth workload that starts from a deliberately
    // small table and inserts enough distinct keys that every shard must
    // double at least three times while the benchmark threads keep
    // operating. Three rows:
    //
    //   resizing             — 8 shards × 8 buckets, grows cooperatively
    //                          through incremental migration (no
    //                          stop-the-world pause);
    //   resizing (pre-sized) — same map born at final geometry, isolating
    //                          the cost of migration itself;
    //   striped              — the lock-striped map pre-sized to the
    //                          matched final capacity so it never takes
    //                          its all-stripe resize: the fixed-capacity
    //                          baseline of the acceptance bound.
    let cells = e11_cells(ctx.scale.ops);
    let mut fewest = usize::MAX;
    for &w in &cells {
        ctx.measure("e11", "resizing", None, w, |w| {
            let (stats, doublings) = e11_growing(w);
            fewest = doublings.into_iter().fold(fewest, usize::min);
            stats
        });
    }
    sweep!(
        ctx,
        "e11",
        &cells,
        map_run,
        [
            ("resizing (pre-sized)", Resizing::with_config(8, 512)),
            ("striped", cds_map::StripedHashMap::with_config(16, 4096)),
        ]
    );
    ctx.report
        .push_extra("e11_resizing_doublings", fewest as f64);
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))
}

/// Validates a report document and returns its sample count. With
/// `partial`, e1–e11 coverage is not required (for single-experiment
/// runs), but any e10 samples present must still sweep every reclamation
/// backend and any e11 samples must cover both resize-sweep
/// implementations with three or more recorded doublings. The telemetry
/// rules apply to every document.
fn check(doc: &Json, partial: bool) -> Result<usize, String> {
    let samples = report::validate_schema(doc)?;
    if !partial {
        report::validate_coverage(&samples)?;
    }
    if !partial || samples.iter().any(|s| s.experiment == "e10") {
        report::validate_e10_backends(&samples)?;
    }
    if !partial || samples.iter().any(|s| s.experiment == "e11") {
        report::validate_e11_resize(doc, &samples)?;
    }
    report::validate_telemetry(doc, &samples)?;
    Ok(samples.len())
}

/// Prints `msg` to stderr and exits non-zero.
fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The document operand of `check`/`render`: the first non-flag
    // argument after the subcommand, else the committed baseline.
    let path = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .map_or("BENCH_experiments.json", String::as_str);

    match args.first().map(String::as_str) {
        // `experiments -- check [--partial] <path>`: validate and exit.
        Some("check") => {
            let partial = args.iter().any(|a| a == "--partial");
            let n = load(path)
                .and_then(|doc| check(&doc, partial))
                .unwrap_or_else(|e| fail(format!("{path}: {e}")));
            println!(
                "{path}: schema v{} OK, {n} samples{}",
                report::SCHEMA_VERSION,
                if partial {
                    ""
                } else {
                    ", e1–e11 covered, e10 backends swept"
                },
            );
            return;
        }
        // `experiments -- render <path>`: print the tables of a document.
        Some("render") => {
            let tables = load(path)
                .and_then(|doc| report::render(&doc))
                .unwrap_or_else(|e| fail(format!("{path}: {e}")));
            print!("{tables}");
            return;
        }
        _ => {}
    }

    let quick = args.iter().any(|a| a == "--quick");
    // `--json [path]`: the path operand (when present) must not be
    // mistaken for an experiment id below.
    let json_flag_idx = args.iter().position(|a| a == "--json");
    let json_flag_with_operand =
        json_flag_idx.filter(|i| args.get(i + 1).is_some_and(|p| !p.starts_with("--")));
    let json_path: Option<String> = json_flag_idx.map(|_| match json_flag_with_operand {
        Some(i) => args[i + 1].clone(),
        None => "BENCH_experiments.json".to_string(),
    });
    let wanted: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && json_flag_with_operand.map(|j| j + 1) != Some(*i))
        .map(|(_, a)| a.to_lowercase())
        .collect();
    if let Some(bad) = wanted
        .iter()
        .find(|a| *a != "all" && !report::EXPERIMENTS.iter().any(|(id, _)| id == a))
    {
        fail(format!(
            "unknown experiment {bad:?}: expected all or e1–e11"
        ));
    }
    let run_all = wanted.is_empty() || wanted.iter().any(|a| a == "all");
    let want = |id: &str| run_all || wanted.iter().any(|a| a == id);

    let mut ctx = Ctx {
        scale: if quick { QUICK } else { FULL },
        report: Report::new(if quick { "quick" } else { "full" }),
    };

    type Experiment = fn(&mut Ctx);
    let experiments: [(&str, Experiment); 11] = [
        ("e1", e1_counters),
        ("e2", e2_stacks),
        ("e3", e3_queues),
        ("e4", e4_lists),
        ("e5", e5_maps),
        ("e6", e6_skiplists),
        ("e7", e7_trees),
        ("e8", e8_priority_queues),
        ("e9", e9_locks),
        ("e10", e10_reclamation),
        ("e11", e11_resize),
    ];
    for (id, run) in experiments {
        if want(id) {
            run(&mut ctx);
        }
    }

    // Recorded once here (not inside an experiment) so every document
    // carries the flag `validate_telemetry` requires.
    ctx.report.push_extra(
        "telemetry_enabled",
        if cds_obs::enabled() { 1.0 } else { 0.0 },
    );

    let doc = ctx.report.to_json();
    let samples =
        check(&doc, !run_all).unwrap_or_else(|e| fail(format!("emitted an invalid document: {e}")));
    print!(
        "{}",
        report::render(&doc).unwrap_or_else(|e| fail(format!("cannot render: {e}")))
    );
    if let Some(path) = json_path {
        std::fs::write(&path, doc.to_string_pretty())
            .unwrap_or_else(|e| fail(format!("failed to write {path}: {e}")));
        eprintln!(
            "wrote {path}: schema v{}, {samples} samples",
            report::SCHEMA_VERSION
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_doublings_happen_inside_timed_rounds() {
        let w = e11_cells(QUICK.ops)[1];
        // Setup, construction and the cell's prefill, leaves the map at
        // 8 × 8 buckets: all growth is left to the round.
        let map = Resizing::with_config(8, 8);
        cds_bench::prefill_map(&map, &w);
        assert_eq!((map.capacity(), map.doublings()), (64, 0));
        // One map per timed round, apart from the warm-up's, and each
        // made all 48 doublings while its round was timed.
        let (_, doublings) = e11_growing(w);
        assert_eq!(doublings, [48; cds_bench::ROUNDS]);
    }
}
