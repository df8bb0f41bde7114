//! The planted-bug determinism proof, isolated in its own test binary.
//!
//! Integration-test binaries run one at a time, so nothing else perturbs
//! the schedule: the seeded scheduler must *find* a planted lost-update
//! race and the printed round seed must *reproduce* it on replay. This
//! test doubles as the liveness proof for the `stress` feature wiring —
//! with the yield hooks compiled out the race window is a couple of
//! machine instructions and the schedule below cannot hit it. A round
//! seed must also name every random choice a structure makes: one
//! skiplist round, run in two fresh processes, records the same history.

mod common;

use std::process::Command;

use cds_atomic::stress::SplitMix64;
use cds_atomic::{AtomicI64, Ordering};

use cds_lincheck::check_linearizable;
use cds_lincheck::specs::{CounterOp, CounterSpec, SetOp};
use cds_lincheck::stress::{record_round, replay, stress, StressOptions};
use cds_lincheck::trace::{Trace, TraceParseError};
use common::exec_set;

/// A deliberately racy counter: `add` is a load / yield / store, so a
/// preemption injected at the yield point loses an update.
struct RacyCounter(AtomicI64);

impl RacyCounter {
    fn add(&self, d: i64) {
        let v = self.0.load(Ordering::SeqCst);
        cds_atomic::stress::yield_point();
        self.0.store(v + d, Ordering::SeqCst);
    }

    fn get(&self) -> i64 {
        self.0.load(Ordering::SeqCst)
    }
}

fn racy_gen(rng: &mut cds_atomic::stress::SplitMix64, _t: usize) -> CounterOp {
    if rng.below(3) < 2 {
        CounterOp::Add(1 + rng.below(4) as i64)
    } else {
        CounterOp::Get
    }
}

fn racy_exec(c: &RacyCounter, op: &CounterOp) -> i64 {
    match op {
        CounterOp::Add(d) => {
            c.add(*d);
            0
        }
        CounterOp::Get => c.get(),
    }
}

#[test]
fn planted_race_is_found_and_seed_replays_it() {
    let options = StressOptions {
        rounds: 64,
        seed: 0xbad_c0de,
        ..StressOptions::default()
    };
    let demotions_before = cds_atomic::stress::demotions();
    let failure = stress(
        CounterSpec::default(),
        &options,
        || RacyCounter(AtomicI64::new(0)),
        racy_gen,
        racy_exec,
    )
    .expect_err("the planted lost-update race must be found");
    assert!(
        cds_atomic::stress::demotions() > demotions_before,
        "no preemptions injected: is the stress feature compiled in?"
    );

    assert!(!failure.history.is_empty());
    assert!(
        !failure.minimized.is_empty() && failure.minimized.len() <= failure.history.len(),
        "shrinker produced a bogus minimization: {failure:?}"
    );
    assert!(
        !check_linearizable(CounterSpec::default(), &failure.minimized),
        "minimized history must still fail"
    );

    // The printed seed is a complete reproducer: replaying that round —
    // same schedule, same per-thread op streams — fails again.
    let again = replay(
        CounterSpec::default(),
        &options,
        failure.seed,
        || RacyCounter(AtomicI64::new(0)),
        racy_gen,
        racy_exec,
    )
    .expect_err("replaying the failing seed must reproduce the failure");
    assert_eq!(again.seed, failure.seed);

    // The failure doubles as a v1 trace: the printed form round-trips and
    // carries exactly the round seed the replay above used.
    let trace = failure.trace();
    assert_eq!(trace, Trace::V1 { seed: failure.seed });
    let reparsed: Trace = trace.to_string().parse().expect("v1 trace must round-trip");
    assert_eq!(reparsed, trace);
}

/// The trace format is versioned: v1 (seed-only, what PCT failures print)
/// must keep parsing forever even though new exploration counterexamples
/// emit v2 (explicit step lists), and a future version must be rejected
/// loudly instead of misread.
#[test]
fn trace_format_versions_coexist() {
    let v1: Trace = "cds-trace v1 seed=0x5eed".parse().unwrap();
    assert_eq!(v1, Trace::V1 { seed: 0x5eed });

    let v2: Trace = "cds-trace v2 threads=3 steps=0,2,1,1,0".parse().unwrap();
    assert_eq!(
        v2,
        Trace::V2 {
            threads: 3,
            steps: vec![0, 2, 1, 1, 0],
        }
    );
    assert_eq!(v2.to_string().parse::<Trace>().unwrap(), v2);

    assert!(matches!(
        "cds-trace v99 whatever".parse::<Trace>(),
        Err(TraceParseError::UnsupportedVersion(99))
    ));
}

/// One PCT round of a lock-free skiplist, mostly inserts: each tower
/// height sets how many CASes and yield points its insert makes, and so
/// where the round's preemptions land. Run in two fresh processes (this
/// test again, with `CDS_REPLAY_CHILD_ROUND` set), one seed must record
/// one history, timestamps included.
#[test]
fn skiplist_pct_round_is_identical_across_processes() {
    if std::env::var_os("CDS_REPLAY_CHILD_ROUND").is_some() {
        let options = StressOptions {
            threads: 3,
            ops_per_thread: 8,
            ..StressOptions::default()
        };
        let insert_heavy = |rng: &mut SplitMix64, _t: usize| match rng.below(4) {
            0 => SetOp::Remove(rng.below(16)),
            _ => SetOp::Insert(rng.below(16)),
        };
        let skiplist = cds_skiplist::LockFreeSkipList::<u64>::new;
        let history = record_round(&options, 0x5c1f2, skiplist, insert_heavy, exec_set);
        println!("history: {history:?}");
        return;
    }
    let this_test = "skiplist_pct_round_is_identical_across_processes";
    let recorded = || {
        let child = Command::new(std::env::current_exe().expect("test binary path"))
            .args(["--exact", this_test, "--nocapture"])
            .env("CDS_REPLAY_CHILD_ROUND", "1")
            .output()
            .expect("child test process starts");
        let stdout = String::from_utf8_lossy(&child.stdout).into_owned();
        assert!(child.status.success(), "child round failed: {stdout}");
        let history = stdout.lines().find_map(|l| l.strip_prefix("history: "));
        history.expect("child printed a history").to_owned()
    };
    assert_eq!(
        recorded(),
        recorded(),
        "one round seed recorded two skiplist histories: a random choice is not seeded"
    );
}
