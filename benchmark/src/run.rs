//! One run of one workload: warm-up, rounds, and the medians the gate
//! compares.
//!
//! A run is [`GROUPS`] groups of rounds that share `--seconds` equally.
//! A group builds the workload's data afresh (that is the set-up time);
//! every round starts fresh threads, executor and channel on it. Each
//! end-to-end value is the median over all rounds. How many rounds a
//! group has is the workload's choice (`Workload::rounds_per_group`):
//! how fast an `rr_*` round runs depends on how its threads happened to
//! settle (a standard deviation of 6 % on `rr_light`, whether the round
//! lasts half a second or four), so many short rounds pin the median far
//! better than a few long ones. A traced run traces every other round,
//! so the per-layer numbers never feed the end-to-end ones and the cost
//! of tracing is itself measured.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::direct::{DirectKind, DirectWorkload};
use crate::json;
use crate::metrics::{self, Values, END_TO_END, PER_LAYER};
use crate::rr::{RrConfig, RrKind, RrWorkload};
use crate::stats::{median, spread};
use crate::sys;

/// Groups of a run: how often the workload's data is built afresh.
pub const GROUPS: usize = 5;
/// A traced run has at least this many rounds per group, so that each
/// group has a traced and an untraced one.
const TRACED_ROUNDS_PER_GROUP: usize = 2;
/// What a smoke run measures in total, in seconds.
const SMOKE_SECONDS: f64 = 2.0;
/// The unrecorded first round: a cold process reads about a fifth low.
const WARM_UP: Duration = Duration::from_secs(1);
/// Memory the run touches once and keeps, so that `peak_rss_mb` has a
/// floor. The smallest workload's own peak is 6 to 9 MiB of allocator
/// arenas and thread stacks, a run-to-run spread of 32 % that no relative
/// bound can hold; over the ballast the same noise is 3 %, and a bound of
/// 10 % means 7 MiB there and 17 MiB on `rr_map_grow`.
const RSS_BALLAST_BYTES: usize = 64 << 20;
/// Rows of the last traced round kept in `out/spans-*.csv`.
const SPAN_ROWS_WRITTEN: usize = 50_000;

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Operations attempted: requests on `rr_*`, structure ops on `direct_*`.
    pub attempted: u64,
    /// Operations whose result was wrong, plus one per broken accounting check.
    pub failed: u64,
    pub ops_per_s: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    /// Samples behind the latency percentiles.
    pub latency_samples: u64,
    pub cpu_us_per_op: f64,
    /// Time to build the data, threads and pool; `None` for a round that
    /// reused its group's data.
    pub setup_s: Option<f64>,
    /// Per-layer values; empty unless the round was traced.
    pub layers: Values,
}

pub trait Workload {
    /// Runs for `length` on fresh threads, checks the outputs and tears
    /// the threads down. `fresh` starts a group: the data is rebuilt too.
    /// `index` separates the input streams of a run's rounds.
    fn round(&mut self, length: Duration, traced: bool, index: u64, fresh: bool) -> Segment;

    /// Rounds a group is split into. More rounds sample more ways the
    /// threads can settle; fewer, longer rounds average more of the
    /// noise that comes and goes within a round.
    fn rounds_per_group(&self) -> usize;

    /// Per-layer values measured once per traced run, outside the rounds.
    fn once_per_traced_run(&mut self) -> Values {
        Values::new()
    }

    /// Writes the spans of the last traced round, at most `limit` rows.
    fn write_spans(&self, _path: &Path, _limit: usize) -> std::io::Result<()> {
        Ok(())
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Short repetitions through the same code; numbers not comparable.
    pub smoke: bool,
    /// Self-test hook, see `rr::RrConfig::corrupt_request`.
    pub corrupt_request: Option<u64>,
}

/// The result of one run, as the last output line and the files record it.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values (untraced run) or per-layer values (traced run).
    pub values: Values,
    /// Quartile-to-quartile spread of the groups' medians (`stats::spread`),
    /// per end-to-end metric.
    pub rep_spread: Values,
    pub latency_samples: u64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metrics_json(&self) -> String {
        if self.traced {
            metrics::metrics_json(PER_LAYER, &self.values, false)
        } else {
            metrics::metrics_json(END_TO_END, &self.values, true)
        }
    }

    /// The one-line result the contract asks for.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The same, plus what `agree` needs, as a member of a result set.
    pub fn record_json(&self) -> String {
        let spreads: Vec<String> = self
            .rep_spread
            .iter()
            .map(|(name, v)| format!("{}: {}", json::quote(name), json::number(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"latency_samples\": {}, \"rep_spread\": {{{}}}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.latency_samples,
            spreads.join(", "),
            self.metrics_json()
        )
    }
}

/// Host and toolchain facts every result file records.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub threads: usize,
    pub hardware_threads: usize,
    pub rustc: String,
    pub commit: String,
}

impl Provenance {
    pub fn collect() -> Self {
        Provenance {
            threads: sys::bench_threads(),
            hardware_threads: sys::hardware_threads(),
            rustc: sys::rustc_version(),
            commit: sys::commit(),
        }
    }

    pub fn json_members(&self, config: &RunConfig) -> String {
        format!(
            "\"seed\": {}, \"seconds\": {}, \"comparable\": {}, \"threads\": {}, \"hardware_threads\": {}, \"rustc\": {}, \"commit\": {}",
            config.seed,
            json::number(config.seconds),
            !config.smoke,
            self.threads,
            self.hardware_threads,
            json::quote(&self.rustc),
            json::quote(&self.commit)
        )
    }
}

/// `benchmark/out/`, where spans and result sets go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn workload_for(config: &RunConfig, threads: usize) -> Result<Box<dyn Workload>, String> {
    let rr = |kind| -> Box<dyn Workload> {
        Box::new(RrWorkload::new(
            RrConfig {
                kind,
                seed: config.seed,
                threads,
                corrupt_request: config.corrupt_request,
            },
            config.traced,
        ))
    };
    let direct =
        |kind| -> Box<dyn Workload> { Box::new(DirectWorkload::new(kind, config.seed, threads)) };
    Ok(match config.workload.as_str() {
        "rr_light" => rr(RrKind::Light),
        "rr_map_read" => rr(RrKind::MapRead),
        "rr_map_grow" => rr(RrKind::MapGrow),
        "direct_transport" => direct(DirectKind::Transport),
        "direct_sets" => direct(DirectKind::Sets),
        other => return Err(format!("unknown workload {other}; see `list`")),
    })
}

/// Reads one value off a round; `None` where the round has none.
type Pick = fn(&Segment) -> Option<f64>;

/// Median of `pick` over each group's untraced rounds, group by group.
fn group_medians(rounds: &[(usize, Segment)], pick: Pick) -> Vec<f64> {
    (0..GROUPS)
        .map(|g| {
            let values: Vec<f64> = rounds
                .iter()
                .filter(|(group, _)| *group == g)
                .filter_map(|(_, s)| pick(s))
                .collect();
            median(&values)
        })
        .collect()
}

/// Runs one workload and prints a line per metric to standard output.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let threads = sys::bench_threads();
    let mut workload = workload_for(config, threads)?;
    // Shown to the optimizer now, or it may put the allocation off
    // until the one use at the end, after the peak has been read.
    let ballast = std::hint::black_box(vec![1u8; RSS_BALLAST_BYTES]);
    let seconds = if config.smoke {
        SMOKE_SECONDS
    } else {
        config.seconds
    };
    let per_group = match (config.smoke, config.traced) {
        (true, _) => TRACED_ROUNDS_PER_GROUP,
        (false, true) => workload.rounds_per_group().max(TRACED_ROUNDS_PER_GROUP),
        (false, false) => workload.rounds_per_group(),
    };
    let length = Duration::from_secs_f64(seconds / (GROUPS * per_group) as f64);

    workload.round(length.min(WARM_UP), false, u64::MAX, true);

    let mut untraced: Vec<(usize, Segment)> = Vec::new();
    let mut traced: Vec<Segment> = Vec::new();
    for index in 0..GROUPS * per_group {
        let trace_this = config.traced && index % 2 == 1;
        let segment = workload.round(length, trace_this, index as u64, index % per_group == 0);
        if trace_this {
            traced.push(segment);
        } else {
            untraced.push((index / per_group, segment));
        }
    }

    let all = untraced.iter().map(|(_, s)| s).chain(&traced);
    let attempted: u64 = all.clone().map(|s| s.attempted).sum();
    let failed: u64 = all.map(|s| s.failed).sum();
    let over_rounds =
        |pick: Pick| -> Vec<f64> { untraced.iter().filter_map(|(_, s)| pick(s)).collect() };
    let ops: Pick = |s| Some(s.ops_per_s);
    let latency_samples = untraced
        .iter()
        .map(|(_, s)| s.latency_samples)
        .min()
        .unwrap_or(0);

    let (values, rep_spread) = if config.traced {
        let mut values = Values::new();
        for def in PER_LAYER {
            let seen: Vec<f64> = traced
                .iter()
                .filter_map(|s| s.layers.get(def.name).copied())
                .collect();
            if !seen.is_empty() {
                values.insert(def.name, median(&seen));
            }
        }
        let traced_ops: Vec<f64> = traced.iter().map(|s| s.ops_per_s).collect();
        values.insert(
            "trace.overhead_ratio",
            1.0 - median(&traced_ops) / median(&over_rounds(ops)),
        );
        values.insert("run.rep_spread", spread(&group_medians(&untraced, ops)));
        values.extend(workload.once_per_traced_run());
        workload
            .write_spans(&spans_path(config), SPAN_ROWS_WRITTEN)
            .map_err(|e| format!("writing spans: {e}"))?;
        (values, Values::new())
    } else {
        let picks: [(&'static str, Pick); 5] = [
            ("ops_per_s", ops),
            ("lat_p50_us", |s| Some(s.lat_p50_us)),
            ("lat_p99_us", |s| Some(s.lat_p99_us)),
            ("cpu_us_per_op", |s| Some(s.cpu_us_per_op)),
            ("setup_s", |s| s.setup_s),
        ];
        let mut values = Values::new();
        let mut spreads = Values::new();
        for (name, pick) in picks {
            values.insert(name, median(&over_rounds(pick)));
            spreads.insert(name, spread(&group_medians(&untraced, pick)));
        }
        values.insert("peak_rss_mb", sys::peak_rss_mb());
        drop(ballast);
        spreads.insert("peak_rss_mb", 0.0);
        (values, spreads)
    };

    let result = RunResult {
        traced: config.traced,
        attempted,
        failed,
        values,
        rep_spread,
        latency_samples,
    };
    print_report(config, &result);
    Ok(result)
}

fn spans_path(config: &RunConfig) -> PathBuf {
    let dir = out_dir();
    // Failing to create it surfaces as the write error that follows.
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("spans-{}-seed{}.csv", config.workload, config.seed))
}

fn print_report(config: &RunConfig, result: &RunResult) {
    let defs = if result.traced { PER_LAYER } else { END_TO_END };
    println!(
        "== {} seed {} {} s {}{}",
        config.workload,
        config.seed,
        if config.smoke {
            SMOKE_SECONDS
        } else {
            config.seconds
        },
        if result.traced { "traced" } else { "untraced" },
        if config.smoke {
            " SMOKE (not comparable)"
        } else {
            ""
        }
    );
    for def in defs {
        if let Some(value) = result.values.get(def.name) {
            match result.rep_spread.get(def.name) {
                Some(s) => println!(
                    "{:<38} {:>16.4} {:<7} rep_spread {:.4}",
                    def.name, value, def.unit, s
                ),
                None => println!("{:<38} {:>16.4} {}", def.name, value, def.unit),
            }
        }
    }
    println!(
        "attempted {} failed {} fail_ratio {} latency_samples_per_round {}",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64,
        result.latency_samples
    );
}
