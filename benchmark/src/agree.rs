//! `agree <a.json> <b.json>`: is result set `b` no worse than `a`, metric
//! by metric, within the bounds `BENCHMARK.json` fixes?

use crate::json::{self, Value};
use crate::metrics::{self, Better, END_TO_END, WORKLOADS};

/// A `setup_s` difference below this many seconds is not a regression.
const SETUP_NOISE_FLOOR_S: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The repetitions of one run disagree by more than the bound, so
    /// the two runs cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric. `worse_by` is the share of `a` by which `b` is
/// worse (negative when better).
pub fn judge(
    name: &str,
    better: Better,
    a: f64,
    b: f64,
    rep_spread: f64,
    bound: f64,
) -> (f64, Verdict) {
    let worse_by = match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    };
    let verdict = if rep_spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound && !(name == "setup_s" && (b - a).abs() < SETUP_NOISE_FLOOR_S) {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// What `agree` found: the rows it printed, summed up.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Summary {
    pub rows: usize,
    pub worse: usize,
    pub unresolved: usize,
    pub incorrect: usize,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn number(doc: &Value, path: &str, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{path}: no number {key:?}"))
}

/// Compares two result sets and prints one row per workload × metric.
/// Refuses (an `Err`) when the two were not measured with the same
/// thread counts: such numbers do not compare.
pub fn agree(path_a: &str, path_b: &str) -> Result<Summary, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["threads", "hardware_threads"] {
        let (va, vb) = (number(&a, path_a, key)?, number(&b, path_b, key)?);
        if va != vb {
            return Err(format!(
                "refusing to compare: {key} is {va} in {path_a} but {vb} in {path_b}"
            ));
        }
    }
    for (doc, path) in [(&a, path_a), (&b, path_b)] {
        if doc.get("comparable").and_then(Value::as_bool) != Some(true) {
            println!("note: {path} is a smoke run; its numbers are not comparable");
        }
    }
    let bounds = metrics::bounds()?;
    let mut summary = Summary::default();
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>7} {:>9}  verdict",
        "workload", "metric", "a", "b", "worse_by", "bound", "spread"
    );
    for (workload, _) in WORKLOADS {
        let record = |doc: &Value| {
            doc.get("workloads")?
                .get(workload)?
                .get("end_to_end")
                .cloned()
        };
        let (Some(ra), Some(rb)) = (record(&a), record(&b)) else {
            println!("{workload:<18} missing from one result set");
            summary.incorrect += 1;
            continue;
        };
        for (record, path) in [(&ra, path_a), (&rb, path_b)] {
            if record.get("correct").and_then(Value::as_bool) != Some(true) {
                println!("{workload:<18} INCORRECT in {path}: outputs failed their checks");
                summary.incorrect += 1;
            }
        }
        for def in END_TO_END {
            let value = |r: &Value| r.get("metrics")?.get(def.name)?.get("value")?.as_f64();
            let spread = |r: &Value| r.get("rep_spread")?.get(def.name)?.as_f64();
            let (Some(va), Some(vb)) = (value(&ra), value(&rb)) else {
                return Err(format!(
                    "{workload}: metric {} missing from a result set",
                    def.name
                ));
            };
            let rep_spread = spread(&ra).unwrap_or(0.0).max(spread(&rb).unwrap_or(0.0));
            let bound = *bounds
                .get(def.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let (worse_by, verdict) = judge(def.name, def.better, va, vb, rep_spread, bound);
            println!(
                "{:<18} {:<14} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {:>8.2}%  {}",
                workload,
                def.name,
                va,
                vb,
                worse_by * 100.0,
                bound * 100.0,
                rep_spread * 100.0,
                verdict.as_str()
            );
            summary.rows += 1;
            summary.worse += (verdict == Verdict::Worse) as usize;
            summary.unresolved += (verdict == Verdict::Unresolved) as usize;
        }
    }
    println!(
        "{} rows: {} worse, {} unresolved, {} incorrect",
        summary.rows, summary.worse, summary.unresolved, summary.incorrect
    );
    Ok(summary)
}
