//! Command line: the single-run form the gate driver calls, and the
//! verbs `list`, `run --all` and `agree` for people.

use std::io::Write as _;
use std::process::{Command, Stdio};

use crate::agree;
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{self, Provenance, RunConfig};

pub const USAGE: &str = "\
usage:
  cds-gate-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
      one run of one workload; the last output line is the result as JSON
  cds-gate-bench run --all [--seed <n>] [--seconds <s>] [--smoke]
      every workload, untraced then traced, each in a process of its own;
      writes benchmark/out/results-seed<n>.json
  cds-gate-bench list
      every workload and metric name, with units
  cds-gate-bench agree <a.json> <b.json>
      is result set b no worse than a, within the bounds of BENCHMARK.json?
";

/// The line a single run prints for `run --all` to collect.
const RECORD_PREFIX: &str = "#record ";

/// Exit code of a run whose outputs failed their checks, and of an
/// `agree` that found a regression.
const EXIT_FAILED: i32 = 1;
/// Exit code for a command line or input file that cannot be used.
const EXIT_USAGE: i32 = 2;

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    all: bool,
    corrupt_request: Option<u64>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        smoke: false,
        all: false,
        corrupt_request: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                flags.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(flags.seconds > 0.0 && flags.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                flags.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => flags.smoke = true,
            "--all" => flags.all = true,
            // Self-test hook: corrupt the reply checksum of one request.
            "--corrupt-reply" => {
                flags.corrupt_request = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<38} {why}");
    }
    for (title, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        println!("{title}:");
        for def in defs {
            println!(
                "  {:<38} {:<7} better: {}",
                def.name,
                def.unit,
                def.better.as_str()
            );
        }
    }
}

fn single_run(flags: Flags) -> Result<i32, String> {
    let config = RunConfig {
        workload: flags.workload.ok_or("--workload is required")?,
        seed: flags.seed,
        seconds: flags.seconds,
        traced: flags.traced,
        smoke: flags.smoke,
        corrupt_request: flags.corrupt_request,
    };
    let result = run::run(&config)?;
    println!(
        "provenance {{{}}}",
        Provenance::collect().json_members(&config)
    );
    println!("{RECORD_PREFIX}{}", result.record_json());
    println!("{}", result.contract_line());
    Ok(if result.correct() { 0 } else { EXIT_FAILED })
}

/// Runs one workload in a child process (peak memory is per process)
/// and returns its record.
fn child_record(flags: &Flags, workload: &str, traced: bool) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if flags.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    // The report, without the two machine-readable lines that end it.
    for line in text.lines().filter(|l| !l.starts_with(['{', '#'])) {
        println!("{line}");
    }
    let record = text
        .lines()
        .find_map(|l| l.strip_prefix(RECORD_PREFIX))
        .ok_or_else(|| format!("{workload}: the run printed no record ({})", output.status))?;
    Ok((record.to_string(), output.status.success()))
}

fn run_all(flags: Flags) -> Result<i32, String> {
    let config = RunConfig {
        workload: String::new(),
        seed: flags.seed,
        seconds: flags.seconds,
        traced: false,
        smoke: flags.smoke,
        corrupt_request: None,
    };
    let mut members = Vec::new();
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        let (end_to_end, ok_untraced) = child_record(&flags, workload, false)?;
        let (per_layer, ok_traced) = child_record(&flags, workload, true)?;
        all_ok &= ok_untraced && ok_traced;
        members.push(format!(
            "{}: {{\"end_to_end\": {end_to_end}, \"per_layer\": {per_layer}}}",
            json::quote(workload)
        ));
    }
    let document = format!(
        "{{\"schema\": 1, {}, \"workloads\": {{\n{}\n}}}}\n",
        Provenance::collect().json_members(&config),
        members.join(",\n")
    );
    debug_assert!(matches!(json::parse(&document), Ok(Value::Obj(_))));
    let dir = run::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "results-seed{}{}.json",
        flags.seed,
        if flags.smoke { "-smoke" } else { "" }
    ));
    let mut file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    file.write_all(document.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if !all_ok {
        println!("FAILED: at least one workload's outputs did not pass their checks");
    }
    Ok(if all_ok { 0 } else { EXIT_FAILED })
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            print!("{USAGE}");
            Ok(if args.is_empty() { EXIT_USAGE } else { 0 })
        }
        Some("list") => {
            list();
            Ok(0)
        }
        Some("agree") => match args {
            [_, a, b] => agree::agree(a, b).map(|s| {
                if s.worse + s.incorrect == 0 {
                    0
                } else {
                    EXIT_FAILED
                }
            }),
            _ => Err("agree takes two result files".to_string()),
        },
        Some("run") => parse_flags(&args[1..]).and_then(|flags| {
            if flags.all {
                run_all(flags)
            } else {
                single_run(flags)
            }
        }),
        Some(_) => parse_flags(args).and_then(single_run),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("cds-gate-bench: {message}");
        EXIT_USAGE
    })
}
