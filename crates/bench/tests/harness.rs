//! Tests for the measurement harness itself (ISSUE 2 satellite): prefill
//! exactness, op-stream determinism, histogram merge fidelity, and JSON
//! schema round-tripping.

use std::sync::Arc;

use cds_bench::json::Json;
use cds_bench::report::{
    render, validate_coverage, validate_e10_backends, validate_e11_resize, validate_schema,
    validate_telemetry, TelemetryRecord, EXPERIMENTS,
};
use cds_bench::{
    prefill_map, prefill_pq, prefill_set, set_run, LatencyHistogram, MixedOp, OpStream, Report,
    RunStats, Sample, Workload, LATENCY_SAMPLE_EVERY, ROUNDS,
};
use cds_core::{ConcurrentMap, ConcurrentPriorityQueue, ConcurrentSet};

fn workload(key_range: u64, prefill: usize) -> Workload {
    Workload {
        threads: 1,
        ops_per_thread: 0,
        key_range,
        read_pct: 50,
        insert_pct: 25,
        prefill,
    }
}

#[test]
fn prefill_inserts_exactly_min_of_prefill_and_key_range() {
    // prefill < key_range: exactly `prefill` distinct keys.
    let set = cds_list::LazyList::new();
    let inserted = prefill_set(&set, &workload(64, 32));
    assert_eq!(inserted, 32);
    assert_eq!(set.len(), 32);

    // prefill > key_range: the guard bug used to leave ~1 element here;
    // the clamp must saturate the whole key range instead.
    let set = cds_list::LazyList::new();
    let inserted = prefill_set(&set, &workload(64, 1_000));
    assert_eq!(inserted, 64);
    assert_eq!(set.len(), 64);
    for k in 0..64u64 {
        assert!(set.contains(&k), "key {k} missing after saturating prefill");
    }

    // Same clamp for maps and priority queues.
    let map = cds_map::StripedHashMap::new();
    assert_eq!(prefill_map(&map, &workload(128, 9_999)), 128);
    assert_eq!(map.len(), 128);

    let pq = cds_prio::CoarseBinaryHeap::new();
    assert_eq!(prefill_pq(&pq, &workload(50, 200)), 50);
    assert_eq!(pq.len(), 50);
}

#[test]
fn prefill_is_deterministic() {
    let w = workload(1024, 500);
    let a = cds_list::LazyList::new();
    let b = cds_list::LazyList::new();
    prefill_set(&a, &w);
    prefill_set(&b, &w);
    for k in 0..1024u64 {
        assert_eq!(a.contains(&k), b.contains(&k), "divergent prefill at {k}");
    }
}

#[test]
fn same_seed_produces_identical_per_thread_op_streams() {
    let w = Workload {
        threads: 4,
        ops_per_thread: 0,
        key_range: 512,
        read_pct: 50,
        insert_pct: 25,
        prefill: 0,
    };
    for thread in 0..4u64 {
        let mut a = OpStream::new(1 + thread, &w);
        let mut b = OpStream::new(1 + thread, &w);
        let ops_a: Vec<MixedOp> = (0..10_000).map(|_| a.next_op()).collect();
        let ops_b: Vec<MixedOp> = (0..10_000).map(|_| b.next_op()).collect();
        assert_eq!(ops_a, ops_b, "thread {thread} streams diverged");
    }
    // Different seeds must differ (the streams are per-thread).
    let mut a = OpStream::new(1, &w);
    let mut b = OpStream::new(2, &w);
    let ops_a: Vec<MixedOp> = (0..100).map(|_| a.next_op()).collect();
    let ops_b: Vec<MixedOp> = (0..100).map(|_| b.next_op()).collect();
    assert_ne!(ops_a, ops_b);
}

#[test]
fn op_stream_mix_matches_requested_ratios() {
    let w = Workload {
        threads: 1,
        ops_per_thread: 0,
        key_range: 512,
        read_pct: 90,
        insert_pct: 5,
        prefill: 0,
    };
    let mut s = OpStream::new(7, &w);
    let mut reads = 0usize;
    let mut inserts = 0usize;
    const N: usize = 100_000;
    for _ in 0..N {
        match s.next_op() {
            MixedOp::Read(_) => reads += 1,
            MixedOp::Insert(_) => inserts += 1,
            MixedOp::Remove(_) => {}
        }
    }
    let read_frac = reads as f64 / N as f64;
    let insert_frac = inserts as f64 / N as f64;
    assert!((read_frac - 0.90).abs() < 0.01, "reads {read_frac}");
    assert!((insert_frac - 0.05).abs() < 0.01, "inserts {insert_frac}");
}

#[test]
fn histogram_merge_preserves_count_and_p50() {
    // Known distribution: 1..=10_000 ns uniformly, split across two
    // per-thread histograms (odds and evens).
    let mut a = LatencyHistogram::new();
    let mut b = LatencyHistogram::new();
    for v in 1..=10_000u64 {
        if v % 2 == 1 {
            a.record(v);
        } else {
            b.record(v);
        }
    }
    let mut merged = a.clone();
    merged.merge(&b);
    assert_eq!(merged.count(), a.count() + b.count());
    assert_eq!(merged.count(), 10_000);

    // True median is 5000; the bucket holding it spans 2^12..2^13 in 32
    // sub-buckets (width 128), so the midpoint must land within one
    // bucket width of the exact answer.
    let p50 = merged.percentile(50.0);
    assert!(
        (p50 as i64 - 5_000).abs() <= 128,
        "merged p50 {p50} more than one bucket from 5000"
    );
    // And the merge must agree with a single histogram of the whole
    // distribution, bucket-for-bucket at every probed percentile.
    let mut whole = LatencyHistogram::new();
    for v in 1..=10_000u64 {
        whole.record(v);
    }
    for q in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9] {
        assert_eq!(merged.percentile(q), whole.percentile(q), "q={q}");
    }
}

fn fake_sample(experiment: &str, threads: usize) -> Sample {
    Sample {
        experiment: experiment.to_string(),
        impl_name: "fake-impl".to_string(),
        // E10 samples must carry the reclamation-backend axis (schema v2).
        reclaimer: (experiment == "e10").then(|| "ebr".to_string()),
        threads,
        read_pct: 50,
        insert_pct: 25,
        key_range: 512,
        prefill: 256,
        ops: 10_000,
        mops: 12.345678,
        mops_spread: 0.042,
        duration_s: 0.00081,
        p50_ns: 120,
        p90_ns: 310,
        p99_ns: 1_900,
        p999_ns: 22_000,
        telemetry: None,
    }
}

/// A conserved counter record with a nonzero contention signal for both
/// the CAS-based and the lock-based E12 sources.
fn fake_telemetry() -> TelemetryRecord {
    TelemetryRecord {
        counters: vec![
            ("cas_attempt".to_string(), 100),
            ("cas_success".to_string(), 90),
            ("cas_failure".to_string(), 10),
            ("ttas_acquire".to_string(), 40),
            ("ttas_spin".to_string(), 7),
        ],
    }
}

/// `fake_sample` renamed to `name`.
fn named(experiment: &str, name: &str, threads: usize) -> Sample {
    let mut s = fake_sample(experiment, threads);
    s.impl_name = name.to_string();
    s
}

fn reparse(report: &Report) -> Json {
    Json::parse(&report.to_json().to_string_pretty()).expect("emitted JSON must parse")
}

/// `report`'s document as emitted on a host with `hw` hardware threads.
fn on_host(report: &Report, hw: usize) -> Json {
    let text = report.to_json().to_string_pretty();
    let key = "\"hardware_threads\": ";
    let at = text.find(key).expect("host.hardware_threads emitted") + key.len();
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    Json::parse(&format!("{}{hw}{}", &text[..at], &text[end..])).unwrap()
}

#[test]
fn emitted_json_round_trips_and_validates() {
    let mut report = Report::new("quick");
    for (id, _) in EXPERIMENTS {
        report.push(fake_sample(id, 1));
        report.push(fake_sample(id, 8));
    }
    // The e10 sweep must cover every backend (schema v2).
    for backend in ["hazard", "leak", "debug"] {
        report.push(fake_sample("e10", 1).with_reclaimer(backend));
    }
    report.push_extra("e10_hazard_garbage_after_100k_churn", 32.0);
    // The e11 resize sweep must compare both map implementations and
    // record its doubling count (schema v3).
    for name in ["resizing", "striped"] {
        report.push(named("e11", name, 1));
    }
    report.push_extra("e11_resizing_doublings", 48.0);
    // With telemetry_enabled = 1 every sample must carry a conserved
    // counter record, E12's sources included (schema v4/v7).
    report.push(named("e2", "treiber (EBR)", 1));
    report.push(named("e9", "ttas+backoff", 1));
    for s in &mut report.samples {
        s.telemetry = Some(fake_telemetry());
    }
    report.push_extra("telemetry_enabled", 1.0);

    let doc = reparse(&report);
    let samples = validate_schema(&doc).expect("emitted JSON must satisfy the schema");
    validate_coverage(&samples).expect("all eleven experiments present");
    validate_e10_backends(&samples).expect("all four reclamation backends present");
    validate_e11_resize(&doc, &samples).expect("resize sweep covers both maps and grew");
    validate_telemetry(&doc, &samples).expect("every sample carries its record");

    // Field-for-field round trip.
    assert_eq!(samples.len(), report.samples.len());
    for (parsed, original) in samples.iter().zip(report.samples.iter()) {
        assert_eq!(parsed, original);
    }
    // Document metadata survives too.
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("quick"));
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(8));
    assert_eq!(
        doc.get("rounds").and_then(Json::as_u64),
        Some(ROUNDS as u64)
    );
    assert!(doc
        .get("host")
        .and_then(|h| h.get("hardware_threads"))
        .is_some());
    assert_eq!(
        doc.get("seeds")
            .and_then(|s| s.get("prefill"))
            .and_then(Json::as_u64),
        Some(cds_bench::PREFILL_SEED)
    );
    assert_eq!(
        doc.get("extras")
            .and_then(|e| e.get("e10_hazard_garbage_after_100k_churn"))
            .and_then(Json::as_u64),
        Some(32)
    );
}

#[test]
fn schema_validation_rejects_bad_documents() {
    // Missing experiments -> coverage failure.
    let mut report = Report::new("quick");
    report.push(fake_sample("e1", 1));
    let doc = reparse(&report);
    let samples = validate_schema(&doc).expect("schema itself is fine");
    assert!(validate_coverage(&samples).unwrap_err().contains("e2"));

    // Wrong schema version.
    let doc = Json::parse(r#"{"schema_version": 99}"#).unwrap();
    assert!(validate_schema(&doc).unwrap_err().contains("99"));

    // Empty samples.
    let mut empty = Report::new("quick");
    empty.extras.clear();
    assert!(validate_schema(&reparse(&empty))
        .unwrap_err()
        .contains("empty"));

    // An experiment id outside e1–e11, such as a pre-v7 executor cell.
    let mut retired = Report::new("quick");
    retired.push(fake_sample("e13", 1));
    assert!(validate_schema(&reparse(&retired))
        .unwrap_err()
        .contains("unknown experiment"));

    // Non-monotone percentiles.
    let mut bad = Report::new("quick");
    let mut s = fake_sample("e1", 1);
    s.p50_ns = 10_000;
    s.p90_ns = 5;
    bad.push(s);
    assert!(validate_schema(&reparse(&bad))
        .unwrap_err()
        .contains("monotone"));

    // An e10 sample without its reclamation-backend tag.
    let mut untagged = Report::new("quick");
    let mut s = fake_sample("e10", 1);
    s.reclaimer = None;
    untagged.push(s);
    assert!(validate_schema(&reparse(&untagged))
        .unwrap_err()
        .contains("reclaimer"));

    // An unknown backend name is rejected outright.
    let mut unknown = Report::new("quick");
    unknown.push(fake_sample("e10", 1).with_reclaimer("qsbr"));
    assert!(validate_schema(&reparse(&unknown))
        .unwrap_err()
        .contains("qsbr"));

    // A sweep that skipped a backend fails the e10 coverage check.
    let mut partial = Report::new("quick");
    for backend in ["ebr", "hazard", "leak"] {
        partial.push(fake_sample("e10", 1).with_reclaimer(backend));
    }
    let samples = validate_schema(&reparse(&partial)).expect("schema itself is fine");
    assert!(validate_e10_backends(&samples)
        .unwrap_err()
        .contains("debug"));

    // An e11 sweep without the striped baseline fails the resize check.
    let mut resize = Report::new("quick");
    resize.push(named("e11", "resizing", 1));
    resize.push_extra("e11_resizing_doublings", 48.0);
    let doc = reparse(&resize);
    let samples = validate_schema(&doc).expect("schema itself is fine");
    assert!(validate_e11_resize(&doc, &samples)
        .unwrap_err()
        .contains("striped"));

    // A sweep whose resizable map never grew is rejected even with both
    // implementations present.
    resize.push(named("e11", "striped", 1));
    resize.extras.clear();
    resize.push_extra("e11_resizing_doublings", 2.0);
    let doc = reparse(&resize);
    let samples = validate_schema(&doc).expect("schema itself is fine");
    assert!(validate_e11_resize(&doc, &samples)
        .unwrap_err()
        .contains("never exercised growth"));

    // A telemetry record whose CAS counts do not add up is rejected at
    // the schema layer (conservation holds by construction in cds-obs,
    // so a violation means a corrupted document).
    let mut skewed = Report::new("quick");
    let mut t = fake_telemetry();
    t.counters.retain(|(name, _)| name != "cas_failure");
    skewed.push(fake_sample("e1", 1).with_telemetry(t));
    assert!(validate_schema(&reparse(&skewed))
        .unwrap_err()
        .contains("not conserved"));
}

#[test]
fn out_of_range_percentages_are_rejected_not_truncated() {
    let mut report = Report::new("quick");
    report.push(fake_sample("e4", 1));
    let text = report.to_json().to_string_pretty();
    assert!(text.contains(r#""read_pct": 50"#));

    // 300 must not wrap to 44.
    let doc = Json::parse(&text.replace(r#""read_pct": 50"#, r#""read_pct": 300"#)).unwrap();
    let err = validate_schema(&doc).unwrap_err();
    assert!(err.contains("read_pct") && err.contains("300"), "{err}");

    // Each in range, but 90% reads + 25% inserts is not a mix.
    let doc = Json::parse(&text.replace(r#""read_pct": 50"#, r#""read_pct": 90"#)).unwrap();
    let err = validate_schema(&doc).unwrap_err();
    assert!(err.contains("exceeds 100"), "{err}");
}

#[test]
fn validate_telemetry_requires_the_flag_and_every_record() {
    let mut report = Report::new("quick");
    report.push(fake_sample("e1", 1));
    let doc = reparse(&report);
    let samples = validate_schema(&doc).unwrap();
    assert!(validate_telemetry(&doc, &samples)
        .unwrap_err()
        .contains("telemetry_enabled missing"));

    // A default build: the flag is 0 and bare samples are fine.
    report.push_extra("telemetry_enabled", 0.0);
    let doc = reparse(&report);
    validate_telemetry(&doc, &samples).expect("no records required when disabled");

    // telemetry_enabled = 1 with one bare sample.
    report.extras.clear();
    report.push_extra("telemetry_enabled", 1.0);
    let doc = reparse(&report);
    assert!(validate_telemetry(&doc, &samples)
        .unwrap_err()
        .contains("no telemetry record"));

    // An E12 source whose record never saw the counter E12 divides by.
    report.samples[0] = named("e2", "treiber (EBR)", 1).with_telemetry(TelemetryRecord {
        counters: vec![("retired_ebr".to_string(), 5)],
    });
    let doc = reparse(&report);
    let samples = validate_schema(&doc).unwrap();
    assert!(validate_telemetry(&doc, &samples)
        .unwrap_err()
        .contains("no cas_attempt"));
}

#[test]
fn mops_spread_must_be_a_finite_share() {
    let mut report = Report::new("quick");
    report.push(fake_sample("e1", 1));
    let text = report.to_json().to_string_pretty();
    let field = r#""mops_spread": 0.042,"#;
    assert!(text.contains(field));
    validate_schema(&reparse(&report)).expect("the fake sample is valid");

    for (replacement, complaint) in [
        ("", r#"missing number field "mops_spread""#),
        (r#""mops_spread": -0.1,"#, "not a finite share"),
        (r#""mops_spread": 1e999,"#, "not a finite share"),
    ] {
        let doc = Json::parse(&text.replace(field, replacement)).unwrap();
        let err = validate_schema(&doc).unwrap_err();
        assert!(err.contains(complaint), "{replacement:?}: {err}");
    }
}

#[test]
fn render_prints_one_table_per_cell_group() {
    let mut report = Report::new("quick");
    for read_pct in [0, 90] {
        for threads in [1, 2] {
            let mut s = named("e4", "lazy", threads);
            s.read_pct = read_pct;
            s.insert_pct = 5;
            report.push(s);
        }
    }
    for backend in ["ebr", "hazard"] {
        report.push(named("e10", "harris-michael", 1).with_reclaimer(backend));
    }
    report.push_extra("e10_hazard_garbage_after_100k_churn", 0.0);
    report.push(named("e2", "treiber (EBR)", 1));
    report.push(named("e2", "coarse", 1));
    report.push(named("e9", "ttas+backoff", 1));
    report.push_extra("telemetry_enabled", 0.0);

    let out = render(&on_host(&report, 2)).expect("valid document renders");
    // The ratio sweep splits by read_pct; columns are thread counts, and
    // a cell is the rounds' median and spread.
    assert!(out.contains("### E4 — list-based sets (Mops/s) — 0% reads\n"));
    assert!(out.contains("### E4 — list-based sets (Mops/s) — 90% reads\n"));
    assert!(out.contains(
        "| implementation | 1 thr | 2 thr |\n|---|---|---|\n| lazy | 12.346 ±4% | 12.346 ±4% |\n"
    ));
    // E10 rows are labelled by backend, its extra follows its table.
    assert!(out.contains(
        "| ebr | 12.346 ±4% |\n| hazard | 12.346 ±4% |\n\ne10_hazard_garbage_after_100k_churn: 0\n"
    ));
    assert!(out.contains("\ntelemetry_enabled: 0\n"));
    // No column above the host's two hardware threads, no mark.
    assert!(!out.contains("thr*"), "{out}");
    // No records, no E12.
    assert!(!out.contains("E12"), "{out}");

    // On a one-thread host the 2-thread columns are oversubscribed.
    let out = render(&on_host(&report, 1)).expect("valid document renders");
    assert!(out.contains("\nthr* columns run more threads than the host's 1 hardware threads"));
    assert!(out.contains("| implementation | 1 thr | 2 thr* |\n"));

    // With records on the sources, E12 derives its two tables from them.
    report.samples[6] = report.samples[6].clone().with_telemetry(fake_telemetry());
    report.samples[8] = report.samples[8].clone().with_telemetry(fake_telemetry());
    let out = render(&reparse(&report)).expect("valid document renders");
    assert!(out.contains("### E12 — CAS failure rate (% of attempts)\n"));
    assert!(out.contains("| treiber (EBR) | 10.000 |\n"));
    assert!(out.contains("| ttas+backoff | 0.175 |\n"));
    assert!(!out.contains("| coarse | 10.000"));
}

#[test]
fn timed_runs_report_consistent_stats() {
    let w = Workload {
        threads: 2,
        ops_per_thread: 2_000,
        key_range: 256,
        read_pct: 50,
        insert_pct: 25,
        prefill: 4_096, // deliberately over key_range: exercises the clamp
    };
    let stats: RunStats = set_run(|| Arc::new(cds_list::LazyList::new()), w);
    // Every timed round, and only those, counts its 4 000 operations and
    // their latency samples.
    assert_eq!(stats.total_ops, ROUNDS * 4_000);
    assert_eq!(
        stats.hist.count(),
        (ROUNDS * 4_000 / LATENCY_SAMPLE_EVERY) as u64
    );
    assert!(stats.mops > 0.0);
    assert!(stats.mops_spread.is_finite() && stats.mops_spread >= 0.0);
    assert!(stats.duration_s > 0.0);
    let sample = Sample::from_stats("e4", "lazy", &w, &stats);
    assert!(sample.p50_ns <= sample.p90_ns && sample.p90_ns <= sample.p99_ns);
}
