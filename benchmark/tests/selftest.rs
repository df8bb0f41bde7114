//! Self-tests of the benchmark's own arithmetic, inputs, names and
//! checks. `cargo test --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeSet;
use std::process::Command;

use cds_gate_bench::agree::{self, judge, Verdict};
use cds_gate_bench::inputs::{
    CoinFlips, GrowPlan, KeyOp, ReadRequestOps, SetOps, READ_OPS_PER_REQUEST,
};
use cds_gate_bench::json::{self, Value};
use cds_gate_bench::metrics::{self, Better, BENCHMARK_JSON, END_TO_END, PER_LAYER, WORKLOADS};
use cds_gate_bench::run::{self, RunConfig};
use cds_gate_bench::stats::{geomean, median, percentile_u32, spread};
use cds_gate_bench::trace::{self, intervals, self_time};

// ---- percentiles and means on known inputs ------------------------------

#[test]
fn percentiles_are_nearest_rank() {
    let mut hundred: Vec<u32> = (1..=100).rev().collect();
    assert_eq!(percentile_u32(&mut hundred, 0.50), 50.0);
    assert_eq!(percentile_u32(&mut hundred, 0.99), 99.0);
    assert_eq!(percentile_u32(&mut hundred, 1.0), 100.0);
    assert_eq!(percentile_u32(&mut hundred, 0.0), 1.0);
    let mut five = vec![30, 10, 50, 20, 40];
    assert_eq!(percentile_u32(&mut five, 0.5), 30.0);
    assert_eq!(percentile_u32(&mut five, 0.99), 50.0);
    assert_eq!(percentile_u32(&mut [], 0.5), 0.0);
}

#[test]
fn median_geomean_and_spread() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    assert!((geomean(&[2.0, 4.0, 8.0]) - 4.0).abs() < 1e-9);
    // Halving one cell moves the geometric mean as much as halving any other.
    let halved_small = geomean(&[1.0, 100.0]) / geomean(&[0.5, 100.0]);
    let halved_large = geomean(&[1.0, 100.0]) / geomean(&[1.0, 50.0]);
    assert!((halved_small - halved_large).abs() < 1e-9);
    assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-9);
    // Quartile to quartile: one outlier in five does not count.
    assert!((spread(&[100.0, 10.0, 110.0, 90.0, 105.0]) - 0.15).abs() < 1e-9);
}

// ---- span arithmetic -----------------------------------------------------

#[test]
fn self_time_is_span_minus_children() {
    assert_eq!(self_time((100, 200), &[]), 100);
    assert_eq!(self_time((100, 200), &[(120, 150)]), 70);
    // Overlapping children are counted once; parts outside the span not at all.
    assert_eq!(
        self_time((100, 200), &[(120, 150), (140, 160), (190, 400)]),
        50
    );
    assert_eq!(self_time((100, 200), &[(0, 1000)]), 0);
    assert_eq!(self_time((200, 100), &[]), 0);
}

fn stamps(t: [u64; 6], recv_entered: u64, worker_prev_end: u64) -> [u64; 8] {
    [
        t[0],
        t[1],
        t[2],
        t[3],
        t[4],
        t[5],
        recv_entered,
        worker_prev_end,
    ]
}

#[test]
fn five_intervals_sum_to_the_round_trip() {
    // In order: spawn 10, queue 90 (60 of it behind the worker's
    // previous task), busy 50, send 20, reply 30 (10 of it behind the
    // client's previous reply).
    let iv = intervals(&stamps([1000, 1010, 1100, 1150, 1170, 1200], 1180, 1070));
    assert_eq!(
        (
            iv.spawn_call,
            iv.queue_wait,
            iv.task_busy,
            iv.send_call,
            iv.reply_wait
        ),
        (10, 90, 50, 20, 30)
    );
    assert_eq!(iv.round_trip(), 200);
    assert_eq!(iv.dispatch_self, 30);
    assert_eq!(iv.delivery_self, 20);
    assert_eq!(iv.clamped, 0);
    assert_eq!(iv.self_times(), [10 + 30, 50, 20 + 20]);
}

#[test]
fn out_of_order_stamps_are_clamped_and_still_sum() {
    // The task started before `spawn` returned (t2 < t1) and the client
    // had the reply before the worker stamped t4 (t5 < t4).
    let iv = intervals(&stamps([1000, 1050, 1020, 1100, 1210, 1200], 900, 0));
    assert_eq!(iv.round_trip(), 200);
    assert_eq!(iv.queue_wait, 0);
    assert_eq!(iv.reply_wait, 0);
    assert_eq!(iv.clamped, 30 + 10);
    for seed in 0..2000u64 {
        // Arbitrary stamps: the identity must hold for all of them.
        let mut rng = cds_gate_bench::inputs::SplitMix64::new(seed);
        let s: [u64; 8] = std::array::from_fn(|_| rng.below(500));
        let iv = intervals(&s);
        let t5 = s[trace::T5_RECV_RETURNED].max(s[trace::T0_BEFORE_SPAWN]);
        assert_eq!(
            iv.round_trip(),
            t5 - s[trace::T0_BEFORE_SPAWN],
            "stamps {s:?}"
        );
        assert!(iv.dispatch_self <= iv.queue_wait && iv.delivery_self <= iv.reply_wait);
    }
}

// ---- generated inputs ----------------------------------------------------

/// A fixed nine-byte encoding of one operation.
fn encode(op: KeyOp, out: &mut Vec<u8>) {
    let (tag, key) = match op {
        KeyOp::Get(k) => (0u8, k),
        KeyOp::Insert(k) => (1, k),
        KeyOp::Remove(k) => (2, k),
    };
    out.push(tag);
    out.extend_from_slice(&key.to_le_bytes());
}

fn stream_bytes(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for thread in 0..3 {
        let mut sets = SetOps::new(seed, 4, thread, 3, 1 << 16, 80);
        let mut flips = CoinFlips::new(seed, 2, thread);
        for _ in 0..5000 {
            encode(sets.next_op(), &mut out);
            out.push(flips.next_flip() as u8);
        }
    }
    for request_seed in [seed, seed ^ 0xABCD] {
        for op in ReadRequestOps::new(request_seed) {
            encode(op, &mut out);
        }
    }
    let plan = GrowPlan::new(seed);
    for index in plan
        .insert_order
        .iter()
        .chain(&plan.remove_order)
        .take(1 << 16)
    {
        out.extend_from_slice(&index.to_le_bytes());
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_streams() {
    assert_eq!(stream_bytes(42), stream_bytes(42));
    assert_ne!(stream_bytes(42), stream_bytes(43));
}

#[test]
fn streams_have_the_stated_shape() {
    let ops: Vec<KeyOp> = ReadRequestOps::new(7).collect();
    assert_eq!(ops.len(), READ_OPS_PER_REQUEST);
    let gets = ops.iter().filter(|op| matches!(op, KeyOp::Get(_))).count();
    assert!(
        (1780..=1900).contains(&gets),
        "about 90 % reads, got {gets}"
    );

    let mut sets = SetOps::new(1, 0, 1, 2, 512, 80);
    for _ in 0..10_000 {
        let (KeyOp::Get(k) | KeyOp::Insert(k) | KeyOp::Remove(k)) = sets.next_op();
        assert!(
            k < 512 && k % 2 == 1,
            "thread 1 of 2 owns the odd keys, got {k}"
        );
    }

    let plan = GrowPlan::new(3);
    let mut seen = plan.remove_order.clone();
    seen.sort_unstable();
    assert!(
        seen.iter().enumerate().all(|(i, &v)| i as u32 == v),
        "a permutation"
    );
    assert_ne!(plan.insert_order, plan.remove_order);
}

// ---- names ---------------------------------------------------------------

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(name, unit, better)` of every entry of one list of `BENCHMARK.json`.
fn contract_metrics(doc: &Value, list: &str) -> Vec<(String, String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list}: no {k}"))
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn listed_names_equal_the_contract() {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    for (list, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let ours: Vec<_> = defs
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(
            ours,
            contract_metrics(&doc, list),
            "{list} differs from BENCHMARK.json"
        );
    }
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |k| {
                w.get(k)
                    .and_then(Value::as_str)
                    .expect("workload field")
                    .to_string()
            };
            (field("name"), field("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(ours, workloads);

    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| d.name)
        .chain(WORKLOADS.iter().map(|w| w.0))
        .collect();
    assert!(
        names.iter().all(|n| well_formed(n)),
        "a name breaks [A-Za-z0-9_.-]+"
    );
    assert_eq!(
        names.iter().collect::<BTreeSet<_>>().len(),
        names.len(),
        "a name is used twice"
    );
    assert!(WORKLOADS
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
}

#[test]
fn contract_bounds_are_usable() {
    let bounds = metrics::bounds().expect("bounds parse");
    assert_eq!(bounds.len(), END_TO_END.len());
    for def in END_TO_END {
        let bound = bounds[def.name];
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        assert!(bound <= bounds["setup_s"], "setup_s has the largest bound");
    }
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
}

// ---- agree ---------------------------------------------------------------

#[test]
fn judge_compares_in_the_worse_direction() {
    let worse = |verdict: (f64, Verdict)| verdict.1;
    assert_eq!(
        worse(judge("ops_per_s", Better::Higher, 100.0, 96.0, 0.01, 0.05)),
        Verdict::Ok
    );
    assert_eq!(
        worse(judge("ops_per_s", Better::Higher, 100.0, 94.0, 0.01, 0.05)),
        Verdict::Worse
    );
    assert_eq!(
        worse(judge("ops_per_s", Better::Higher, 100.0, 150.0, 0.01, 0.05)),
        Verdict::Ok
    );
    assert_eq!(
        worse(judge("lat_p99_us", Better::Lower, 100.0, 111.0, 0.01, 0.10)),
        Verdict::Worse
    );
    assert_eq!(
        worse(judge("lat_p99_us", Better::Lower, 100.0, 111.0, 0.20, 0.10)),
        Verdict::Unresolved
    );
    // 30 % worse, but 0.03 s: below the noise floor of set-up time.
    assert_eq!(
        worse(judge("setup_s", Better::Lower, 0.10, 0.13, 0.0, 0.25)),
        Verdict::Ok
    );
    assert_eq!(
        worse(judge("setup_s", Better::Lower, 1.0, 1.3, 0.0, 0.25)),
        Verdict::Worse
    );
}

fn result_set(threads: usize, ops_per_s: f64) -> String {
    let mut metrics = metrics::Values::new();
    for def in END_TO_END {
        metrics.insert(def.name, 1.0);
    }
    metrics.insert("ops_per_s", ops_per_s);
    let record = format!(
        "{{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"rep_spread\": {{}}, \"metrics\": {}}}",
        metrics::metrics_json(END_TO_END, &metrics, true)
    );
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, _)| format!("\"{name}\": {{\"end_to_end\": {record}}}"))
        .collect();
    format!(
        "{{\"comparable\": true, \"threads\": {threads}, \"hardware_threads\": {threads}, \"workloads\": {{{}}}}}",
        workloads.join(", ")
    )
}

#[test]
fn agree_reads_result_sets_and_refuses_other_hosts() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write result set");
        path.to_str().expect("utf-8 path").to_string()
    };
    let base = write("agree-base.json", result_set(2, 1000.0));
    let same = write("agree-same.json", result_set(2, 990.0));
    let slow = write("agree-slow.json", result_set(2, 500.0));
    let other = write("agree-other-host.json", result_set(4, 1000.0));

    let summary = agree::agree(&base, &same).expect("comparable");
    assert_eq!(summary.rows, WORKLOADS.len() * END_TO_END.len());
    assert_eq!(
        (summary.worse, summary.unresolved, summary.incorrect),
        (0, 0, 0)
    );
    let summary = agree::agree(&base, &slow).expect("comparable");
    assert_eq!(
        summary.worse,
        WORKLOADS.len(),
        "ops_per_s is worse on every workload"
    );
    let refusal = agree::agree(&base, &other).expect_err("different thread counts");
    assert!(refusal.contains("refusing"), "{refusal}");
}

// ---- whole runs ------------------------------------------------------------

fn smoke(workload: &str, traced: bool, corrupt_request: Option<u64>) -> run::RunResult {
    run::run(&RunConfig {
        workload: workload.to_string(),
        seed: 11,
        seconds: 1.0,
        traced,
        smoke: true,
        corrupt_request,
    })
    .expect("a known workload")
}

#[test]
fn every_workload_passes_its_own_checks() {
    for (workload, _) in WORKLOADS {
        let result = smoke(workload, false, None);
        assert_eq!(result.failed, 0, "{workload}");
        assert!(result.attempted > 0, "{workload}");
        for def in END_TO_END {
            let value = result.values[def.name];
            assert!(
                value.is_finite() && value > 0.0,
                "{workload}: {} = {value}",
                def.name
            );
        }
        // The contract line is one JSON object with exactly the agreed keys.
        let line = json::parse(&result.contract_line()).expect("contract line parses");
        let keys: Vec<&str> = line
            .members()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").and_then(Value::members).map(<[_]>::len),
            Some(END_TO_END.len())
        );
    }
}

#[test]
fn traced_pipeline_run_attributes_the_round_trip() {
    let result = smoke("rr_map_grow", true, None);
    assert_eq!(result.failed, 0);
    let v = &result.values;
    let shares = v["exec.share"] + v["map.share"] + v["chan.share"];
    assert!((shares - 1.0).abs() < 0.02, "shares sum to {shares}");
    assert_eq!(v["exec.spawned"], v["exec.executed"]);
    assert_eq!(v["chan.sent"], v["chan.received"]);
    assert!(v["map.doublings"] > 0.0);
    assert!(v["trace.clamped_ratio"] < 0.01);
    let line = json::parse(&result.contract_line()).expect("contract line parses");
    assert_eq!(
        line.get("metrics").and_then(Value::members).map(<[_]>::len),
        Some(PER_LAYER.len())
    );
}

#[test]
fn a_corrupted_reply_checksum_fails_the_run() {
    let result = smoke("rr_light", false, Some(1000));
    assert!(result.failed >= 1, "the corrupted reply went unnoticed");
    assert!(!result.correct());
    assert!(result.contract_line().starts_with("{\"correct\": false"));

    // And the command reports it through its exit code.
    let status = Command::new(env!("CARGO_BIN_EXE_cds-gate-bench"))
        .args([
            "--workload",
            "rr_light",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(["--smoke", "--corrupt-reply", "1000"])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(status.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&status.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert_eq!(
        json::parse(last).expect("parses").get("correct"),
        Some(&Value::Bool(false))
    );
}

#[test]
fn unknown_workloads_and_flags_are_usage_errors() {
    for args in [
        &["--workload", "nope", "--trace", "0"][..],
        &["--trace", "2"],
        &["agree", "one.json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cds-gate-bench"))
            .args(args)
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
