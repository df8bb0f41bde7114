//! The planted-bug determinism proof, isolated in its own test binary.
//!
//! Integration-test binaries run one at a time, so nothing else perturbs
//! the schedule: the seeded scheduler must *find* a planted lost-update
//! race and the printed round seed must *reproduce* it on replay. This
//! test doubles as the liveness proof for the `stress` feature wiring —
//! with the yield hooks compiled out the race window is a couple of
//! machine instructions and the schedule below cannot hit it.

use cds_atomic::{AtomicI64, Ordering};

use cds_lincheck::check_linearizable;
use cds_lincheck::specs::{CounterOp, CounterSpec};
use cds_lincheck::stress::{replay, stress, StressOptions};
use cds_lincheck::trace::{Trace, TraceParseError};

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
