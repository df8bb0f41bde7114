//! Structured benchmark results: the [`Sample`] record, the [`Report`]
//! collector, schema validation for `BENCH_experiments.json`, and the
//! Markdown tables [`render`]ed from it.
//!
//! Schema (version [`SCHEMA_VERSION`]):
//!
//! ```json
//! {
//!   "schema_version": 7,
//!   "generated_by": "cds-bench experiments",
//!   "mode": "quick" | "full",
//!   "host": { "hardware_threads": 8, "os": "linux", "arch": "x86_64",
//!             "rustc": "rustc 1.89.0 ..." },
//!   "seeds": { "prefill": 42, "thread_base": 1, "warmup_offset": 1589837824 },
//!   "latency_sample_every": 8,
//!   "warmup": { "max_iters": 5, "window": 3, "cov_threshold": 0.05 },
//!   "extras": { "e10_hazard_garbage_after_100k_churn": 32,
//!               "e11_resizing_doublings": 48,
//!               "telemetry_enabled": 0 },
//!   "samples": [ { "experiment": "e1", "impl": "atomic", "threads": 2,
//!                  "read_pct": 0, "insert_pct": 0, "key_range": 0,
//!                  "prefill": 0, "ops": 40000, "mops": 12.3,
//!                  "duration_s": 0.0032, "warmup_iters": 3,
//!                  "p50_ns": 105, "p90_ns": 130, "p99_ns": 410,
//!                  "p999_ns": 2100 }, ... ]
//! }
//! ```
//!
//! Version 2 adds an optional `"reclaimer"` string to each sample — the
//! reclamation backend the structure was instantiated with (`"ebr"`,
//! `"hazard"`, `"leak"`, `"debug"`). E10 samples must carry it; the
//! backend sweep is validated by [`validate_e10_backends`].
//!
//! Version 3 adds experiment `e11` (the resize sweep) to the required
//! coverage set together with the `e11_resizing_doublings` extra;
//! [`validate_e11_resize`] checks that the sweep compared the resizable
//! map against the fixed-capacity striped baseline and that the map
//! actually grew (at least three bucket-array doublings).
//!
//! Version 4 adds the `telemetry_enabled` extra and an optional
//! per-sample `"telemetry"` object — the delta of the `cds-obs` event
//! counters across the cell's run (warmup iterations included, so ratio
//! metrics such as CAS-failure rate are the meaningful reading), keyed by
//! event name (only nonzero counters are recorded). The record is present
//! only when the bench binary was built with the `telemetry` feature, and
//! [`validate_schema`] checks CAS conservation
//! (`cas_attempts == cas_success + cas_failure`) inside every record.
//!
//! Version 7 narrows the required coverage to `e1`–`e11`: the executor
//! and channel sweeps (v5's e13, v6's e14) and E12's own cells are gone.
//! E12 is now derived from the E2/E3/E9 samples' records, and
//! [`validate_telemetry`] requires `telemetry_enabled` on every document
//! and a record on every sample when it is 1.
//!
//! Latency percentiles are bucket midpoints from the merged per-thread
//! [`LatencyHistogram`](crate::LatencyHistogram)s (≤3% relative bucket
//! error) and are sampled — one op in
//! [`LATENCY_SAMPLE_EVERY`](crate::LATENCY_SAMPLE_EVERY) is timed — so the
//! timestamping cost does not poison the throughput figures.

use crate::json::Json;
use crate::{
    RunStats, Warmup, Workload, LATENCY_SAMPLE_EVERY, PREFILL_SEED, THREAD_SEED_BASE,
    WARMUP_SEED_OFFSET,
};

/// Version stamped into (and required from) every emitted document.
pub const SCHEMA_VERSION: u64 = 7;

/// The experiments a complete report must cover, in print order, each
/// with the title [`render`] puts over its table.
pub const EXPERIMENTS: [(&str, &str); 11] = [
    ("e1", "E1 — counter throughput (increment-only, Mops/s)"),
    ("e2", "E2 — stack throughput (50/50 push/pop, Mops/s)"),
    ("e3", "E3 — queue throughput (50/50 enq/deq, Mops/s)"),
    ("e4", "E4 — list-based sets (Mops/s)"),
    ("e5", "E5 — hash maps (Mops/s)"),
    ("e6", "E6 — skiplist sets (Mops/s)"),
    ("e7", "E7 — binary search trees (Mops/s)"),
    (
        "e8",
        "E8 — priority queues (50/50 insert/remove-min, Mops/s)",
    ),
    (
        "e9",
        "E9 — lock acquisition under contention (M acquisitions/s)",
    ),
    (
        "e10",
        "E10 — Harris–Michael list × reclamation backend (50% reads, Mops/s)",
    ),
    (
        "e11",
        "E11 — resizable map growth sweep (20% reads / 70% inserts, Mops/s)",
    ),
];

/// The reclamation backends the E10 sweep must cover.
pub const E10_BACKENDS: [&str; 4] = ["ebr", "hazard", "leak", "debug"];

/// The implementations the E11 resize sweep must compare: the resizable
/// map growing from a small table, and the lock-striped map pre-sized to
/// the matched final capacity.
pub const E11_IMPLS: [&str; 2] = ["resizing", "striped"];

/// One E12 contention table, derived from telemetry records rather than
/// measured: each cell is `scale * numerator / denominator` over the
/// record of one source sample.
struct Derived {
    title: &'static str,
    scale: f64,
    numerator: &'static str,
    denominator: &'static str,
    /// `(experiment, impl)` of the cells the rows come from.
    sources: &'static [(&'static str, &'static str)],
}

impl Derived {
    fn is_source(&self, s: &Sample) -> bool {
        self.sources
            .iter()
            .any(|&(e, i)| e == s.experiment && i == s.impl_name)
    }
}

/// E12: the CAS-retry stack and queue of E2/E3 and the spinning lock of
/// E9, read through their cells' counter deltas.
const E12: [Derived; 2] = [
    Derived {
        title: "E12 — CAS failure rate (% of attempts)",
        scale: 100.0,
        numerator: "cas_failure",
        denominator: "cas_attempt",
        sources: &[("e2", "treiber (EBR)"), ("e3", "michael-scott")],
    },
    Derived {
        title: "E12 — TTAS spin iterations per acquisition",
        scale: 1.0,
        numerator: "ttas_spin",
        denominator: "ttas_acquire",
        sources: &[("e9", "ttas+backoff")],
    },
];

/// Per-cell contention telemetry (schema v4): the delta of the global
/// `cds-obs` event counters across the cell's run (warmup included —
/// ratio metrics like failures-per-attempt are window-invariant), keyed
/// by event name. Only nonzero counters are stored, in `cds-obs`
/// declaration order. Present only on documents produced by a bench
/// binary built with the `telemetry` feature.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryRecord {
    /// `(event_name, delta)` pairs, nonzero entries only.
    pub counters: Vec<(String, u64)>,
}

impl TelemetryRecord {
    /// Looks up one counter by event name; absent counters read as zero
    /// (an event that never fired is a zero delta, not missing data).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        )
    }

    fn from_json(value: &Json) -> Result<TelemetryRecord, String> {
        let Json::Obj(fields) = value else {
            return Err("telemetry is not an object".into());
        };
        let mut counters = Vec::with_capacity(fields.len());
        for (k, v) in fields {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("telemetry.{k} is not a non-negative integer"))?;
            counters.push((k.clone(), n));
        }
        Ok(TelemetryRecord { counters })
    }
}

/// One measured cell: an (experiment, implementation, workload) point with
/// throughput and latency percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Experiment identifier, `"e1"`..`"e11"`.
    pub experiment: String,
    /// Implementation name as printed in the tables.
    pub impl_name: String,
    /// Reclamation backend the structure ran with (`"ebr"`, `"hazard"`,
    /// `"leak"`, `"debug"`), or `None` where reclamation is not an axis.
    pub reclaimer: Option<String>,
    /// Contention telemetry delta for this cell, or `None` when the bench
    /// binary was built without the `telemetry` feature.
    pub telemetry: Option<TelemetryRecord>,
    /// Worker thread count.
    pub threads: usize,
    /// Read percentage of the mix (0 for stacks/queues/counters/locks).
    pub read_pct: u8,
    /// Insert percentage of the mix.
    pub insert_pct: u8,
    /// Key range (0 when keys are irrelevant to the workload).
    pub key_range: u64,
    /// Prefill element count requested (post-clamp value is
    /// `min(prefill, key_range)` for keyed structures).
    pub prefill: usize,
    /// Total timed operations across all threads.
    pub ops: usize,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Wall-clock duration of the timed section, seconds.
    pub duration_s: f64,
    /// Warmup iterations executed before steady state was declared.
    pub warmup_iters: usize,
    /// Median sampled latency, nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile sampled latency, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile sampled latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile sampled latency, nanoseconds.
    pub p999_ns: u64,
}

impl Sample {
    /// Builds a sample from a finished run.
    pub fn from_stats(experiment: &str, impl_name: &str, w: &Workload, stats: &RunStats) -> Self {
        Sample {
            experiment: experiment.to_string(),
            impl_name: impl_name.to_string(),
            reclaimer: None,
            telemetry: None,
            threads: w.threads,
            read_pct: w.read_pct,
            insert_pct: w.insert_pct,
            key_range: w.key_range,
            prefill: w.prefill,
            ops: stats.total_ops,
            mops: stats.mops,
            duration_s: stats.duration_s,
            warmup_iters: stats.warmup_iters,
            p50_ns: stats.hist.percentile(50.0),
            p90_ns: stats.hist.percentile(90.0),
            p99_ns: stats.hist.percentile(99.0),
            p999_ns: stats.hist.percentile(99.9),
        }
    }

    /// Tags the sample with the reclamation backend it ran under.
    pub fn with_reclaimer(mut self, reclaimer: &str) -> Self {
        self.reclaimer = Some(reclaimer.to_string());
        self
    }

    /// Attaches the cell's contention telemetry delta.
    pub fn with_telemetry(mut self, telemetry: TelemetryRecord) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("impl".into(), Json::Str(self.impl_name.clone())),
        ];
        if let Some(r) = &self.reclaimer {
            fields.push(("reclaimer".into(), Json::Str(r.clone())));
        }
        if let Some(t) = &self.telemetry {
            fields.push(("telemetry".into(), t.to_json()));
        }
        fields.extend([
            ("threads".into(), Json::Num(self.threads as f64)),
            ("read_pct".into(), Json::Num(self.read_pct as f64)),
            ("insert_pct".into(), Json::Num(self.insert_pct as f64)),
            ("key_range".into(), Json::Num(self.key_range as f64)),
            ("prefill".into(), Json::Num(self.prefill as f64)),
            ("ops".into(), Json::Num(self.ops as f64)),
            ("mops".into(), Json::Num(self.mops)),
            ("duration_s".into(), Json::Num(self.duration_s)),
            ("warmup_iters".into(), Json::Num(self.warmup_iters as f64)),
            ("p50_ns".into(), Json::Num(self.p50_ns as f64)),
            ("p90_ns".into(), Json::Num(self.p90_ns as f64)),
            ("p99_ns".into(), Json::Num(self.p99_ns as f64)),
            ("p999_ns".into(), Json::Num(self.p999_ns as f64)),
        ]);
        Json::Obj(fields)
    }

    /// Rebuilds a sample from its JSON form (the round-trip direction).
    pub fn from_json(value: &Json) -> Result<Sample, String> {
        let str_field = |k: &str| -> Result<String, String> {
            value
                .get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("sample missing string field {k:?}"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            value
                .get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("sample missing integer field {k:?}"))
        };
        let f64_field = |k: &str| -> Result<f64, String> {
            value
                .get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("sample missing number field {k:?}"))
        };
        let pct_field = |k: &str| -> Result<u8, String> {
            let v = u64_field(k)?;
            u8::try_from(v)
                .ok()
                .filter(|&p| p <= 100)
                .ok_or_else(|| format!("sample field {k:?} = {v} is not a percentage"))
        };
        let (read_pct, insert_pct) = (pct_field("read_pct")?, pct_field("insert_pct")?);
        if read_pct + insert_pct > 100 {
            return Err(format!(
                "sample read_pct {read_pct} + insert_pct {insert_pct} exceeds 100"
            ));
        }
        Ok(Sample {
            experiment: str_field("experiment")?,
            impl_name: str_field("impl")?,
            reclaimer: value
                .get("reclaimer")
                .and_then(Json::as_str)
                .map(str::to_string),
            telemetry: value
                .get("telemetry")
                .map(TelemetryRecord::from_json)
                .transpose()?,
            threads: u64_field("threads")? as usize,
            read_pct,
            insert_pct,
            key_range: u64_field("key_range")?,
            prefill: u64_field("prefill")? as usize,
            ops: u64_field("ops")? as usize,
            mops: f64_field("mops")?,
            duration_s: f64_field("duration_s")?,
            warmup_iters: u64_field("warmup_iters")? as usize,
            p50_ns: u64_field("p50_ns")?,
            p90_ns: u64_field("p90_ns")?,
            p99_ns: u64_field("p99_ns")?,
            p999_ns: u64_field("p999_ns")?,
        })
    }
}

/// Collects [`Sample`]s across an `experiments` run and serializes the
/// schema document.
#[derive(Debug, Clone)]
pub struct Report {
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// Warmup policy the run used (stamped into the document).
    pub warmup: Warmup,
    /// All measured cells, in run order.
    pub samples: Vec<Sample>,
    /// Scalar side-channel measurements (e.g. the E10 HP garbage bound).
    pub extras: Vec<(String, f64)>,
}

impl Report {
    /// Creates an empty report for the given mode.
    pub fn new(mode: &str, warmup: Warmup) -> Self {
        Report {
            mode: mode.to_string(),
            warmup,
            samples: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Appends one measured cell.
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// Records a scalar side-channel measurement.
    pub fn push_extra(&mut self, key: &str, value: f64) {
        self.extras.push((key.to_string(), value));
    }

    /// Serializes the full schema document.
    pub fn to_json(&self) -> Json {
        let host = Json::Obj(vec![
            (
                "hardware_threads".into(),
                Json::Num(
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1) as f64,
                ),
            ),
            ("os".into(), Json::Str(std::env::consts::OS.into())),
            ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
            ("rustc".into(), Json::Str(rustc_version())),
        ]);
        let seeds = Json::Obj(vec![
            ("prefill".into(), Json::Num(PREFILL_SEED as f64)),
            ("thread_base".into(), Json::Num(THREAD_SEED_BASE as f64)),
            ("warmup_offset".into(), Json::Num(WARMUP_SEED_OFFSET as f64)),
        ]);
        let warmup = Json::Obj(vec![
            ("max_iters".into(), Json::Num(self.warmup.max_iters as f64)),
            ("window".into(), Json::Num(self.warmup.window as f64)),
            ("cov_threshold".into(), Json::Num(self.warmup.cov_threshold)),
        ]);
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            (
                "generated_by".into(),
                Json::Str("cds-bench experiments".into()),
            ),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("host".into(), host),
            ("seeds".into(), seeds),
            (
                "latency_sample_every".into(),
                Json::Num(LATENCY_SAMPLE_EVERY as f64),
            ),
            ("warmup".into(), warmup),
            (
                "extras".into(),
                Json::Obj(
                    self.extras
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "samples".into(),
                Json::Arr(self.samples.iter().map(Sample::to_json).collect()),
            ),
        ])
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Validates the document structure: schema version, host metadata, seeds,
/// and every sample's fields and percentile monotonicity. Returns the
/// parsed samples on success.
pub fn validate_schema(doc: &Json) -> Result<Vec<Sample>, String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    let host = doc.get("host").ok_or("missing host object")?;
    let hw = host
        .get("hardware_threads")
        .and_then(Json::as_u64)
        .ok_or("missing host.hardware_threads")?;
    if hw == 0 {
        return Err("host.hardware_threads must be >= 1".into());
    }
    for key in ["os", "arch", "rustc"] {
        host.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing host.{key}"))?;
    }
    let seeds = doc.get("seeds").ok_or("missing seeds object")?;
    for key in ["prefill", "thread_base", "warmup_offset"] {
        seeds
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing seeds.{key}"))?;
    }
    doc.get("mode")
        .and_then(Json::as_str)
        .ok_or("missing mode")?;
    doc.get("latency_sample_every")
        .and_then(Json::as_u64)
        .ok_or("missing latency_sample_every")?;
    let raw = doc
        .get("samples")
        .and_then(Json::as_array)
        .ok_or("missing samples array")?;
    if raw.is_empty() {
        return Err("samples array is empty".into());
    }
    let mut samples = Vec::with_capacity(raw.len());
    for (i, value) in raw.iter().enumerate() {
        let s = Sample::from_json(value).map_err(|e| format!("sample {i}: {e}"))?;
        if !EXPERIMENTS.iter().any(|(id, _)| *id == s.experiment) {
            return Err(format!("sample {i}: unknown experiment {:?}", s.experiment));
        }
        if !(s.mops.is_finite() && s.mops > 0.0) {
            return Err(format!("sample {i}: non-positive mops {}", s.mops));
        }
        if s.threads == 0 || s.ops == 0 {
            return Err(format!("sample {i}: zero threads or ops"));
        }
        if !(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns && s.p99_ns <= s.p999_ns) {
            return Err(format!(
                "sample {i}: percentiles not monotone ({}, {}, {}, {})",
                s.p50_ns, s.p90_ns, s.p99_ns, s.p999_ns
            ));
        }
        if let Some(r) = &s.reclaimer {
            if !E10_BACKENDS.contains(&r.as_str()) {
                return Err(format!("sample {i}: unknown reclaimer {r:?}"));
            }
        }
        if s.experiment == "e10" && s.reclaimer.is_none() {
            return Err(format!("sample {i}: e10 sample missing reclaimer tag"));
        }
        if let Some(t) = &s.telemetry {
            // The conservation invariant holds by construction in cds-obs
            // (`cas_outcome` records the attempt and its outcome together),
            // so any violation here means a corrupted or hand-edited file.
            let (attempts, ok, failed) = (
                t.get("cas_attempt"),
                t.get("cas_success"),
                t.get("cas_failure"),
            );
            if attempts != ok + failed {
                return Err(format!(
                    "sample {i}: telemetry CAS counts not conserved \
                     ({attempts} attempts != {ok} successes + {failed} failures)"
                ));
            }
        }
        samples.push(s);
    }
    Ok(samples)
}

/// Checks that the E10 samples sweep every backend in [`E10_BACKENDS`];
/// returns the missing backends otherwise. Only meaningful on documents
/// that already passed [`validate_coverage`].
pub fn validate_e10_backends(samples: &[Sample]) -> Result<(), String> {
    let missing: Vec<&str> = E10_BACKENDS
        .iter()
        .filter(|b| {
            !samples
                .iter()
                .any(|s| s.experiment == "e10" && s.reclaimer.as_deref() == Some(**b))
        })
        .copied()
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("e10 missing backends: {}", missing.join(", ")))
    }
}

/// Checks the E11 resize sweep: both implementations in [`E11_IMPLS`]
/// must appear among the `e11` samples, and the document's
/// `e11_resizing_doublings` extra must record at least three bucket-array
/// doublings — the sweep is meaningless if the resizable map never grew.
pub fn validate_e11_resize(doc: &Json, samples: &[Sample]) -> Result<(), String> {
    let missing: Vec<&str> = E11_IMPLS
        .iter()
        .filter(|name| {
            !samples
                .iter()
                .any(|s| s.experiment == "e11" && s.impl_name == **name)
        })
        .copied()
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "e11 missing implementations: {}",
            missing.join(", ")
        ));
    }
    let doublings = doc
        .get("extras")
        .and_then(|e| e.get("e11_resizing_doublings"))
        .and_then(Json::as_f64)
        .ok_or("e11 present but extras.e11_resizing_doublings missing")?;
    if doublings < 3.0 {
        return Err(format!(
            "e11_resizing_doublings {doublings} < 3: the sweep never exercised growth"
        ));
    }
    Ok(())
}

/// Checks the telemetry records: the document must carry the
/// `telemetry_enabled` extra (1 when the bench binary was built with the
/// `telemetry` feature, 0 otherwise); when it is 1, every sample must
/// carry a record; and the records of E12's source cells must show the
/// counter E12 divides by (`cas_attempt` or `ttas_acquire`) — a silent
/// all-zero record would mean the instrumentation came unwired.
pub fn validate_telemetry(doc: &Json, samples: &[Sample]) -> Result<(), String> {
    let enabled = doc
        .get("extras")
        .and_then(|e| e.get("telemetry_enabled"))
        .and_then(Json::as_f64)
        .ok_or("extras.telemetry_enabled missing")?;
    if enabled != 0.0 {
        if let Some(s) = samples.iter().find(|s| s.telemetry.is_none()) {
            return Err(format!(
                "telemetry_enabled=1 but {} sample ({}, {} threads) has no telemetry record",
                s.experiment, s.impl_name, s.threads
            ));
        }
    }
    for d in &E12 {
        for s in samples.iter().filter(|s| d.is_source(s)) {
            if s.telemetry
                .as_ref()
                .is_some_and(|t| t.get(d.denominator) == 0)
            {
                return Err(format!(
                    "{} sample ({}, {} threads): telemetry record shows no {}",
                    s.experiment, s.impl_name, s.threads, d.denominator
                ));
            }
        }
    }
    Ok(())
}

/// Checks that `samples` covers every experiment in [`EXPERIMENTS`];
/// returns the missing identifiers otherwise.
pub fn validate_coverage(samples: &[Sample]) -> Result<(), String> {
    let missing: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|(id, _)| *id)
        .filter(|id| !samples.iter().any(|s| s.experiment == *id))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("missing experiments: {}", missing.join(", ")))
    }
}

/// Renders a report document as Markdown: the host line, then one table
/// per experiment in [`EXPERIMENTS`] order (one per `read_pct` where an
/// experiment sweeps it), each followed by its `eN_`-prefixed extras,
/// then the E12 tables for whichever source cells carry telemetry
/// records. Rows are labelled by reclaimer, else implementation; columns
/// are thread counts. The document is schema-checked first.
pub fn render(doc: &Json) -> Result<String, String> {
    let samples = validate_schema(doc)?;
    let text = |v: Option<&Json>| v.and_then(Json::as_str).unwrap_or_default().to_string();
    let host = doc.get("host");
    let field = |k: &str| host.and_then(|h| h.get(k));
    let extras: Vec<(&str, f64)> = match doc.get("extras") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.as_str(), v.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    };
    let owner = |key: &str| {
        EXPERIMENTS
            .iter()
            .map(|(id, _)| *id)
            .find(|id| key.starts_with(&format!("{id}_")))
    };

    let mut out = String::from("# cds experiment tables\n");
    out.push_str(&format!(
        "\nhost: {} hardware threads, {} {}, {}; mode: {}\n",
        field("hardware_threads")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        text(field("os")),
        text(field("arch")),
        text(field("rustc")),
        text(doc.get("mode")),
    ));
    for (k, v) in extras.iter().filter(|(k, _)| owner(k).is_none()) {
        out.push_str(&format!("\n{k}: {v}\n"));
    }
    for (id, title) in EXPERIMENTS {
        let cells: Vec<&Sample> = samples.iter().filter(|s| s.experiment == id).collect();
        let mut ratios: Vec<u8> = cells.iter().map(|s| s.read_pct).collect();
        ratios.sort_unstable();
        ratios.dedup();
        for &r in &ratios {
            let heading = if ratios.len() > 1 {
                format!("{title} — {r}% reads")
            } else {
                title.to_string()
            };
            let rows: Vec<(&str, usize, f64)> = cells
                .iter()
                .filter(|s| s.read_pct == r)
                .map(|s| {
                    let label = s.reclaimer.as_deref().unwrap_or(&s.impl_name);
                    (label, s.threads, s.mops)
                })
                .collect();
            table(&mut out, &heading, &rows);
        }
        if !cells.is_empty() {
            for (k, v) in extras.iter().filter(|(k, _)| owner(k) == Some(id)) {
                out.push_str(&format!("\n{k}: {v}\n"));
            }
        }
    }
    for d in &E12 {
        let rows: Vec<(&str, usize, f64)> = samples
            .iter()
            .filter(|s| d.is_source(s))
            .filter_map(|s| {
                let t = s.telemetry.as_ref()?;
                let den = t.get(d.denominator);
                let ratio = if den == 0 {
                    0.0
                } else {
                    d.scale * t.get(d.numerator) as f64 / den as f64
                };
                Some((s.impl_name.as_str(), s.threads, ratio))
            })
            .collect();
        if !rows.is_empty() {
            table(&mut out, d.title, &rows);
        }
    }
    Ok(out)
}

/// Appends one Markdown table of `(row label, threads, value)` cells:
/// rows in first-appearance order, columns by ascending thread count.
fn table(out: &mut String, heading: &str, cells: &[(&str, usize, f64)]) {
    let mut threads: Vec<usize> = cells.iter().map(|c| c.1).collect();
    threads.sort_unstable();
    threads.dedup();
    let mut labels: Vec<&str> = Vec::new();
    for &(label, _, _) in cells {
        if !labels.contains(&label) {
            labels.push(label);
        }
    }
    out.push_str(&format!("\n### {heading}\n\n| implementation |"));
    for t in &threads {
        out.push_str(&format!(" {t} thr |"));
    }
    out.push_str("\n|---|");
    for _ in &threads {
        out.push_str("---|");
    }
    out.push('\n');
    for label in labels {
        out.push_str(&format!("| {label} |"));
        for &t in &threads {
            match cells.iter().find(|c| c.0 == label && c.1 == t) {
                Some(c) => out.push_str(&format!(" {:.3} |", c.2)),
                None => out.push_str(" – |"),
            }
        }
        out.push('\n');
    }
}
