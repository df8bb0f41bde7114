//! The names this benchmark reports. `../BENCHMARK.json` lists the same
//! names (a self-test compares the two) and adds the regression bounds,
//! which `agree` reads from the embedded copy.

use std::collections::BTreeMap;

use crate::json::{self, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "rr_light",
        "request/reply with one get of a hot key per request: exec, chan, Parker and BoundedQueue do the work, the map almost none",
    ),
    (
        "rr_map_read",
        "same pipeline, 2048 map ops (90/5/5) on an L2-resident key window per request: map and reclaim pin do the work, exec and chan almost none",
    ),
    (
        "rr_map_grow",
        "same pipeline, 512 writes per request into a map that grows from 128 buckets to 1 Mi keys, empties and is dropped: migration and table retirement",
    ),
    (
        "direct_transport",
        "no pipeline: Treiber stack, MS queue (Ebr, Hazard), bounded ring and Chase-Lev deque at 50/50, where atomics, reclamation and backoff are the cost",
    ),
    (
        "direct_sets",
        "no pipeline: list, split-ordered map, skiplist and BST on checked disjoint key partitions, read-mostly and write-only, where traversal is the cost",
    ),
];

/// What a user of the system sees; reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    hi("ops_per_s", "1/s"),
    lo("lat_p50_us", "us"),
    lo("lat_p99_us", "us"),
    lo("cpu_us_per_op", "us"),
    lo("peak_rss_mb", "MiB"),
    lo("setup_s", "s"),
];

/// Single layers; reported by every traced run. A metric the workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // rr_*: request spans.
    lo("exec.spawn_call_ns", "ns"),
    lo("exec.queue_wait_us", "us"),
    lo("exec.queue_wait_p99_us", "us"),
    lo("exec.dispatch_self_ns", "ns"),
    lo("map.task_busy_us", "us"),
    lo("map.op_ns", "ns"),
    lo("map.client_check_ns", "ns"),
    lo("chan.send_call_ns", "ns"),
    lo("chan.send_call_p99_us", "us"),
    lo("chan.reply_wait_us", "us"),
    lo("chan.reply_wait_p99_us", "us"),
    lo("chan.delivery_self_ns", "ns"),
    lo("exec.share", "ratio"),
    hi("map.share", "ratio"),
    lo("chan.share", "ratio"),
    lo("run.queued_share", "ratio"),
    hi("exec.worker_busy_ratio", "ratio"),
    lo("chan.recv_blocked_ratio", "ratio"),
    hi("exec.spawned", "count"),
    hi("exec.executed", "count"),
    hi("chan.sent", "count"),
    hi("chan.received", "count"),
    lo("map.doublings", "count"),
    lo("reclaim.ebr_backlog_max", "count"),
    lo("run.rep_spread", "ratio"),
    lo("trace.overhead_ratio", "ratio"),
    lo("trace.clamped_ratio", "ratio"),
    // direct_*: cells.
    hi("stack.treiber_ebr_mops", "Mops/s"),
    lo("stack.treiber_ebr_batch_p99_us", "us"),
    hi("queue.ms_ebr_mops", "Mops/s"),
    lo("queue.ms_ebr_batch_p99_us", "us"),
    hi("queue.ms_hazard_mops", "Mops/s"),
    lo("queue.ms_hazard_batch_p99_us", "us"),
    hi("queue.bounded_mops", "Mops/s"),
    lo("queue.bounded_batch_p99_us", "us"),
    hi("queue.chaselev_mops", "Mops/s"),
    lo("queue.chaselev_batch_p99_us", "us"),
    hi("list.harris_michael_r80_mops", "Mops/s"),
    lo("list.harris_michael_r80_batch_p99_us", "us"),
    hi("map.split_ordered_r80_mops", "Mops/s"),
    lo("map.split_ordered_r80_batch_p99_us", "us"),
    hi("map.split_ordered_r0_mops", "Mops/s"),
    lo("map.split_ordered_r0_batch_p99_us", "us"),
    hi("skiplist.lock_free_r80_mops", "Mops/s"),
    lo("skiplist.lock_free_r80_batch_p99_us", "us"),
    hi("skiplist.lock_free_r0_mops", "Mops/s"),
    lo("skiplist.lock_free_r0_batch_p99_us", "us"),
    hi("tree.ellen_r80_mops", "Mops/s"),
    lo("tree.ellen_r80_batch_p99_us", "us"),
    lo("queue.bounded_full_ratio", "ratio"),
    hi("queue.chaselev_steal_hit_ratio", "ratio"),
    lo("stack.treiber_empty_pop_ratio", "ratio"),
    // direct_transport: cost ladder.
    lo("atomic.std_rmw_ns", "ns"),
    lo("atomic.facade_rmw_ns", "ns"),
    lo("atomic.std_cas_ns", "ns"),
    lo("atomic.facade_cas_ns", "ns"),
    lo("sync.backoff_snooze_ns", "ns"),
    lo("sync.parker_handoff_us", "us"),
    lo("reclaim.ebr_pin_ns", "ns"),
    lo("reclaim.ebr_retire_ns", "ns"),
    lo("reclaim.hazard_enter_ns", "ns"),
    lo("reclaim.hazard_protect_ns", "ns"),
    lo("reclaim.hazard_retire_ns", "ns"),
    hi("reclaim.leak_floor_treiber_mops", "Mops/s"),
    lo("stack.treiber_pair_ns", "ns"),
    lo("queue.ms_pair_ns", "ns"),
    lo("queue.bounded_pair_ns", "ns"),
    lo("queue.chaselev_pair_ns", "ns"),
    lo("chan.bounded_pair_ns", "ns"),
    lo("chan.unbounded_pair_ns", "ns"),
    lo("chan.handoff_us", "us"),
    lo("exec.spawn_run_us", "us"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `{"name": {"value": v, "unit": "u"}, ...}` for every metric of
/// `defs`, in table order.
///
/// # Panics
///
/// Panics if `values` holds a name `defs` does not define (a typo in a
/// workload), or lacks one while `require_all` is set.
pub fn metrics_json(defs: &[MetricDef], values: &Values, require_all: bool) -> String {
    for name in values.keys() {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "undefined metric {name}"
        );
    }
    let members: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = match values.get(d.name) {
                Some(v) => *v,
                None if require_all => panic!("metric {} was not measured", d.name),
                None => 0.0,
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(d.name),
                json::number(value),
                json::quote(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The committed contract, embedded so `agree` needs no path to it.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Regression bound of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(BENCHMARK_JSON)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("BENCHMARK.json: end_to_end entry without name and bound".to_string()),
            }
        })
        .collect()
}
