//! Repo lint: every crate performs its atomic operations through the
//! `cds-atomic` facade, never `std::sync::atomic` / `core::sync::atomic`
//! directly, and locks through `cds_sync::Mutex`, never a `std::sync`
//! `Mutex`, `RwLock` or `Condvar`. And each instrument has one switch,
//! in the crate that owns it: only `cds-atomic` (`stress`), `cds-obs`
//! (`telemetry`) and `cds-lincheck` (whose `explore` driver needs the
//! scheduler's gated API) gate code on a feature, and only they, the
//! root and `cds-bench` declare features. And no crate seeds a random
//! choice from the clock or the OS: a structure draws from
//! `cds_atomic::stress::draw`, which a round seed restarts, so that a seed
//! names one schedule and an explored window is deterministic.
//!
//! Why this is load-bearing: the weak-memory explorer can only model (and
//! the region race detector can only police) traffic that goes through
//! the instrumented wrappers. A direct `std` atomic silently opts its
//! location out of exploration — schedules still enumerate, but the
//! ordering bugs the sweep exists to catch become invisible at exactly
//! that location. Infrastructure that *must* stay un-modeled (the stress
//! scheduler's own state, telemetry shards, test-harness bookkeeping)
//! uses `cds_atomic::raw`, which is a deliberate, greppable, self-
//! documenting exception — and is why the lint bans the std *path*
//! rather than atomics in general. A std lock is a lock word the model
//! cannot see at all; `cds_sync::Mutex` keeps its word on the facade.
//!
//! The allowlists live in `tests/atomics_allowlist.txt` and
//! `tests/std_locks_allowlist.txt` (one repo-relative path per line, `#`
//! comments giving the reason). Entries must exist and must still break
//! the rule, so the lists cannot rot.

use std::path::{Path, PathBuf};

/// The std lock types the lock lint flags (their guards come with them).
const LOCK_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("crates dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            // Only library/binary sources are linted: `crates/*/src/**`.
            // Build outputs never appear there.
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Checks every `crates/*/src/**/*.rs` file against one rule: `hits`
/// returns the (1-based) lines of a file that break it, and the files
/// named in the allowlist `file` (whose text is `allowlist`) may.
fn lint(file: &str, allowlist: &str, hits: impl Fn(&str) -> Vec<usize>, fix: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(
        sources.len() > 30,
        "lint walked suspiciously few files ({}); wrong directory?",
        sources.len()
    );

    let allow: Vec<&str> = allowlist
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut used = vec![false; allow.len()];
    let mut violations = Vec::new();
    for path in &sources {
        let rel = path
            .strip_prefix(root)
            .expect("source under repo root")
            .to_string_lossy()
            .replace('\\', "/");
        let lines = hits(&std::fs::read_to_string(path).expect("source readable"));
        match allow.iter().position(|a| *a == rel) {
            Some(idx) if !lines.is_empty() => used[idx] = true,
            Some(_) => violations.push(format!(
                "{rel}: allowlisted but no longer breaks the rule — remove it from {file}"
            )),
            None => violations.extend(lines.iter().map(|line| {
                format!("{rel}:{line}: {fix}, or add the file to {file} with a comment saying why")
            })),
        }
    }
    for (entry, used) in allow.iter().zip(used) {
        if !used {
            violations.push(format!(
                "{file} names `{entry}`, which does not exist or was never matched — stale entry"
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "lint failed:\n  {}",
        violations.join("\n  ")
    );
}

/// The code of each line, without its `//` comment: comments may mention
/// a banned path (e.g. to explain this very rule); code may not.
fn code_lines(content: &str) -> impl Iterator<Item = &str> {
    content
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
}

/// Lines that reach for a std/core atomic path.
fn std_atomic_lines(content: &str) -> Vec<usize> {
    (1..)
        .zip(code_lines(content))
        .filter(|(_, code)| {
            code.contains("std::sync::atomic") || code.contains("core::sync::atomic")
        })
        .map(|(line, _)| line)
        .collect()
}

/// Lines that name a std lock through a `std::sync::` path:
/// `std::sync::Mutex::new(..)` or a `use std::sync::{..}` list naming
/// one, which may span lines.
fn std_lock_lines(content: &str) -> Vec<usize> {
    let code = code_lines(content).collect::<Vec<_>>().join("\n");
    let mut hits = Vec::new();
    for (at, _) in code.match_indices("std::sync::") {
        let rest = &code[at + "std::sync::".len()..];
        let names = match rest.strip_prefix('{') {
            Some(list) => &list[..list.find('}').unwrap_or(list.len())],
            None => rest,
        };
        let named = names.split(',').any(|item| {
            let item = item.trim_start();
            let end = item
                .find(|c: char| !c.is_alphanumeric() && c != '_')
                .unwrap_or(item.len());
            LOCK_TYPES.contains(&&item[..end])
        });
        if named {
            hits.push(code[..at].matches('\n').count() + 1);
        }
    }
    hits
}

#[test]
fn no_direct_std_atomics_outside_the_facade() {
    lint(
        "tests/atomics_allowlist.txt",
        include_str!("atomics_allowlist.txt"),
        std_atomic_lines,
        "direct std/core::sync::atomic use — go through `cds_atomic` (instrumented) or \
         `cds_atomic::raw` (deliberately un-modeled infrastructure)",
    );
}

#[test]
fn no_std_locks_outside_the_allowlist() {
    lint(
        "tests/std_locks_allowlist.txt",
        include_str!("std_locks_allowlist.txt"),
        std_lock_lines,
        "std lock — lock through `cds_sync::Mutex` (its word is a facade atomic)",
    );
}

/// The files that may gate code on an instrument's feature: the crates
/// that own a switch. Every other crate calls the instruments
/// unconditionally; their inert forms compile away.
const SWITCH_OWNERS: &str = "\
# The stress scheduler and the facade atomics it instruments.
crates/atomic/src/lib.rs
crates/atomic/src/stress.rs
# The telemetry counters.
crates/obs/src/lib.rs
# The `explore` driver, built on the scheduler's stress-only API.
crates/lincheck/src/lib.rs
";

/// Lines that test the `stress` or `telemetry` feature (`cfg`,
/// `cfg_attr` or `cfg!`).
fn instrument_feature_lines(content: &str) -> Vec<usize> {
    (1..)
        .zip(code_lines(content))
        .filter(|(_, code)| {
            let code: String = code.split_whitespace().collect();
            code.contains(r#"feature="stress""#) || code.contains(r#"feature="telemetry""#)
        })
        .map(|(line, _)| line)
        .collect()
}

#[test]
fn instrument_switches_stay_in_their_crates() {
    lint(
        "SWITCH_OWNERS (tests/atomics_lint.rs)",
        SWITCH_OWNERS,
        instrument_feature_lines,
        "feature-gated instrument — call the `cds_atomic::stress` / `cds_obs` API \
         unconditionally (its inert form costs nothing)",
    );
}

/// The files that may seed randomness from the clock or the OS: none.
const AMBIENT_RANDOMNESS_ALLOWED: &str = "\
# Empty: a structure that draws from the clock cannot be explored.
";

/// Lines that seed randomness from the ambient world: the clock, or the
/// OS entropy that `from_entropy` and `thread_rng` read.
fn ambient_randomness_lines(content: &str) -> Vec<usize> {
    (1..)
        .zip(code_lines(content))
        .filter(|(_, code)| {
            ["SystemTime", "from_entropy", "thread_rng"]
                .iter()
                .any(|name| code.contains(name))
        })
        .map(|(line, _)| line)
        .collect()
}

#[test]
fn no_randomness_from_the_clock_or_the_os() {
    lint(
        "AMBIENT_RANDOMNESS_ALLOWED (tests/atomics_lint.rs)",
        AMBIENT_RANDOMNESS_ALLOWED,
        ambient_randomness_lines,
        "randomness from the clock or the OS — draw from `cds_atomic::stress::draw` (or a \
         `SplitMix64` seeded by the caller) so that a round seed fixes it",
    );
}

#[test]
fn only_the_switch_crates_declare_features() {
    const ALLOWED: [&str; 5] = [
        "Cargo.toml",
        "crates/atomic/Cargo.toml",
        "crates/obs/Cargo.toml",
        "crates/lincheck/Cargo.toml",
        "crates/bench/Cargo.toml",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec!["Cargo.toml".to_string()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let name = entry.expect("dir entry").file_name();
        manifests.push(format!("crates/{}/Cargo.toml", name.to_string_lossy()));
    }
    assert!(manifests.len() > 10, "found too few manifests");
    let offenders: Vec<&String> = manifests
        .iter()
        .filter(|rel| !ALLOWED.contains(&rel.as_str()))
        .filter(|rel| {
            let text = std::fs::read_to_string(root.join(rel)).expect("manifest readable");
            text.lines().any(|l| l.trim() == "[features]")
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "{offenders:?} declare [features]: an instrument's switch lives only on the crate \
         that owns it (`cds-atomic/stress`, `cds-obs/telemetry`), forwarded by the root, \
         `cds-lincheck` and `cds-bench`"
    );
}

#[test]
fn std_lock_lines_finds_paths_and_use_lists() {
    let src = "use std::sync::{\n    Arc,\n    Condvar,\n};\n\
               let m = std::sync::Mutex::new(0); // std::sync::RwLock\n\
               use std::sync::Arc;\n\
               use cds_sync::Mutex;\n";
    assert_eq!(std_lock_lines(src), [1, 5]);
}
