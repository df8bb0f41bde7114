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
//! the rule, so the lists cannot rot. An entry may end in a count, the
//! number of lines of the file that break the rule, so the sites there
//! cannot grow either.

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

    let allow: Vec<(&str, Option<usize>)> = allowlist
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| match l.split_once(' ') {
            Some((path, count)) => (path, Some(count.trim().parse().expect("a line count"))),
            None => (l, None),
        })
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
        match allow.iter().position(|(a, _)| *a == rel) {
            Some(idx) if !lines.is_empty() => {
                used[idx] = true;
                if let Some(count) = allow[idx].1.filter(|&count| count != lines.len()) {
                    violations.push(format!(
                        "{rel}: breaks the rule on lines {lines:?}, but {file} allows {count} \
                         — {fix}, or change the count"
                    ));
                }
            }
            Some(_) => violations.push(format!(
                "{rel}: allowlisted but no longer breaks the rule — remove it from {file}"
            )),
            None => violations.extend(lines.iter().map(|line| {
                format!("{rel}:{line}: {fix}, or add the file to {file} with a comment saying why")
            })),
        }
    }
    for ((entry, _), used) in allow.iter().zip(used) {
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

/// The files that may seed randomness from the clock or the OS, with
/// their counts of sites: a structure that draws from the clock cannot be
/// explored.
const AMBIENT_RANDOMNESS_ALLOWED: &str = "\
# The hashed structures key their hasher from OS entropy, so a seed does
# not replay their schedule in another process, until their constructors
# take a seeded hasher (ROADMAP item 10). The counts keep the sites from
# growing.
crates/map/src/bucketed.rs 1
crates/map/src/resizing.rs 3
crates/map/src/split_ordered.rs 2
crates/map/src/striped.rs 2
";

/// Lines that seed randomness from the ambient world: the clock, or the
/// OS entropy that `from_entropy`, `thread_rng` and `RandomState::new`
/// read.
fn ambient_randomness_lines(content: &str) -> Vec<usize> {
    (1..)
        .zip(code_lines(content))
        .filter(|(_, code)| {
            [
                "SystemTime",
                "from_entropy",
                "thread_rng",
                "RandomState::new",
            ]
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

/// Each abstract type's trait and the `tests/common/rosters.rs` macro
/// that lists its implementations.
const ROSTERS: [(&str, &str); 6] = [
    ("ConcurrentStack", "stacks"),
    ("ConcurrentQueue", "queues"),
    ("ConcurrentSet", "sets"),
    ("ConcurrentMap", "maps"),
    ("ConcurrentPriorityQueue", "priority_queues"),
    ("ConcurrentCounter", "counters"),
];

/// The text after `open` up to its matching `close`.
fn balanced(text: &str, open: char, close: char) -> &str {
    let mut depth = 0;
    for (at, c) in text.char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return &text[text.find(open).map_or(0, |o| o + 1)..at];
            }
        }
    }
    text
}

fn ident(text: &str) -> &str {
    let end = text
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(text.len());
    &text[..end]
}

/// The reclamation backends, `Ebr` (the default) first.
const BACKENDS: [&str; 4] = ["Ebr", "Hazard", "DebugReclaim", "Leak"];

/// `(trait, type, generic)` for every `impl<..> Trait<..> for Type` of a
/// roster trait in `content`, outside its `#[cfg(test)] mod`; `generic`
/// says whether the impl is generic over a `Reclaimer`.
fn roster_trait_impls(content: &str) -> Vec<(&'static str, String, bool)> {
    let code = code_lines(content).collect::<Vec<_>>().join("\n");
    let code = code.split("#[cfg(test)]\nmod ").next().unwrap_or("");
    let mut impls = Vec::new();
    for (at, _) in code.match_indices("impl") {
        let mut header = code[at + "impl".len()..].trim_start();
        if header.starts_with('<') {
            header = header[balanced(header, '<', '>').len() + 2..].trim_start();
        }
        let named = ident(header);
        let Some(&(trait_name, _)) = ROSTERS.iter().find(|(t, _)| *t == named) else {
            continue;
        };
        let rest = &header[named.len()..];
        if rest.starts_with('<') || rest.starts_with(' ') {
            if let Some(target) = rest.split_once(" for ").map(|(_, t)| ident(t.trim_start())) {
                let header = &code[at..at + code[at..].find('{').unwrap_or(0)];
                impls.push((trait_name, target.to_string(), header.contains("Reclaimer")));
            }
        }
    }
    impls
}

/// The backend a roster row that names a type builds it on, given the
/// row's text after the type's path: the `cds_reclaim` type among its
/// generic arguments, or `Ebr`, the default, when it names none.
fn row_backend(row: &str) -> &str {
    let args = row.strip_prefix("::").filter(|a| a.starts_with('<'));
    let args = args.map_or("", |a| balanced(a, '<', '>'));
    args.match_indices("cds_reclaim::")
        .map(|(i, m)| ident(&args[i + m.len()..]))
        .last()
        .unwrap_or("Ebr")
}

/// Every implementation of an abstract type runs every check of its type:
/// each `impl Concurrent… for X` in `crates/<c>/src` must be named as
/// `cds_<c>::X` in that trait's roster in `tests/common/rosters.rs`, and
/// once under each backend when the impl is generic over a `Reclaimer`.
#[test]
fn every_implementation_is_on_its_roster() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rosters = include_str!("common/rosters.rs");
    let mut found = 0;
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let dir = entry.expect("dir entry").path();
        let krate = format!("cds_{}", dir.file_name().unwrap().to_string_lossy());
        let mut sources = Vec::new();
        if dir.join("src").is_dir() {
            rust_sources(&dir.join("src"), &mut sources);
        }
        for path in sources {
            let content = std::fs::read_to_string(&path).expect("source readable");
            for (trait_name, target, generic) in roster_trait_impls(&content) {
                found += 1;
                let (_, roster) = ROSTERS.iter().find(|(t, _)| *t == trait_name).unwrap();
                let at = rosters
                    .find(&format!("macro_rules! {roster} "))
                    .unwrap_or_else(|| panic!("no `{roster}!` roster"));
                let body = balanced(&rosters[at..], '{', '}');
                let named = format!("{krate}::{target}");
                let rows: Vec<&str> = body
                    .match_indices(&named)
                    .map(|(i, _)| &body[i + named.len()..])
                    .filter(|row| ident(row).is_empty())
                    .collect();
                let path = path.strip_prefix(root).unwrap().display();
                if rows.is_empty() {
                    missing.push(format!(
                        "{path}: `{target}` implements {trait_name} but `{roster}!` does not \
                         name `{named}`"
                    ));
                } else if generic {
                    for backend in BACKENDS {
                        if !rows.iter().any(|row| row_backend(row) == backend) {
                            missing.push(format!(
                                "{path}: `{target}` is generic over `Reclaimer` but `{roster}!` \
                                 has no `{named}` row on `{backend}`"
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(
        found > 25,
        "found suspiciously few implementations ({found})"
    );
    assert!(
        missing.is_empty(),
        "add each to its roster in tests/common/rosters.rs:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn roster_trait_impls_reads_generic_and_where_headers() {
    let src = "impl<T: Ord> ConcurrentSet<T> for CoarseList<T> {}\n\
               impl<K, V, S> ConcurrentMap<K, V> for Striped<K, V, S>\nwhere\n    K: Eq,\n{}\n\
               impl ConcurrentCounter for LockCounter {}\n\
               impl<T, R: Reclaimer> ConcurrentQueue<T> for Ms<T, R> {}\n\
               impl<K, V, R> ConcurrentMap<K, V> for Split<K, V, R>\nwhere\n    R: Reclaimer,\n{}\n\
               impl<T> Default for CoarseList<T> {}\n\
               #[cfg(test)]\nmod tests {\n    impl ConcurrentCounter for Toy {}\n}\n";
    let want = [
        ("ConcurrentSet", "CoarseList", false),
        ("ConcurrentMap", "Striped", false),
        ("ConcurrentCounter", "LockCounter", false),
        ("ConcurrentQueue", "Ms", true),
        ("ConcurrentMap", "Split", true),
    ]
    .map(|(t, x, generic)| (t, x.to_string(), generic));
    assert_eq!(roster_trait_impls(src), want);
}

#[test]
fn row_backend_reads_the_reclaimer_argument() {
    assert_eq!(row_backend("::<$t>::default $(, $arg)*);"), "Ebr");
    assert_eq!(row_backend("::default $(, $arg)*);"), "Ebr");
    assert_eq!(
        row_backend("::<$t, cds_reclaim::Hazard>::default $(, $arg)*);"),
        "Hazard"
    );
    assert_eq!(
        row_backend("::<$k, $v, std::hash::RandomState, cds_reclaim::Leak>::with_reclaimer"),
        "Leak"
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
