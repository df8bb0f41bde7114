//! A small seeded property-testing harness with a delta-debugging
//! shrinker.
//!
//! The workspace cannot reach crates.io, so instead of `proptest` the
//! suite uses this module: generate inputs from a [`Prng`] seeded by a
//! root seed and case index, run the property (any panicking assertion
//! counts as a failure), and on failure *shrink* the input to a locally
//! minimal failing case by removing chunks, then single elements
//! (Zeller's ddmin). The failure report prints the root seed, the case
//! index, and the minimized input, so
//! `CDS_PROP_SEED=<seed> cargo test <name>` replays the exact sequence.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use cds_core::stress::{mix_seed, SplitMix64};

/// The generator handed to property input builders; a thin seeded PRNG.
pub type Prng = SplitMix64;

/// Configuration for [`forall_vec`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases.
    pub cases: usize,
    /// Root seed; override with the `CDS_PROP_SEED` environment variable
    /// to replay a reported failure.
    pub seed: u64,
    /// Maximum generated vector length.
    pub max_len: usize,
}

impl Config {
    /// `cases` cases of vectors up to `max_len` elements, seeded from
    /// `CDS_PROP_SEED` if set (decimal or `0x`-prefixed hex).
    pub fn new(cases: usize, max_len: usize) -> Self {
        Config {
            cases,
            seed: crate::env_seed("CDS_PROP_SEED", 0xcd5_c0ffee),
            max_len,
        }
    }
}

/// Checks `prop` against `cases` seeded random vectors built element-wise
/// by `gen`; on failure, shrinks to a locally minimal failing input and
/// panics with the seed and minimized case.
///
/// `prop` signals failure by panicking (use plain `assert!`/`assert_eq!`).
pub fn forall_vec<T, G, P>(config: &Config, gen: G, prop: P)
where
    T: Clone + Debug,
    G: Fn(&mut Prng) -> T,
    P: Fn(&[T]),
{
    for case in 0..config.cases {
        let mut rng = Prng::new(mix_seed(config.seed, case as u64));
        let len = (rng.next_u64() as usize) % (config.max_len + 1);
        let input: Vec<T> = (0..len).map(|_| gen(&mut rng)).collect();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| prop(&input))) {
            let minimized = shrink_vec(&input, &prop);
            let message = panic_message(payload.as_ref());
            panic!(
                "property failed (seed {:#x}, case {case}): {message}\n\
                 original input ({} elems), minimized to {} elems:\n{minimized:#?}\n\
                 replay with CDS_PROP_SEED={:#x}",
                config.seed,
                input.len(),
                minimized.len(),
                config.seed,
            );
        }
    }
}

/// Minimizes `input` to a locally minimal vector still failing `prop`
/// (chunk removal then single-element removal; every removal that keeps
/// the failure is accepted greedily).
pub fn shrink_vec<T, P>(input: &[T], prop: &P) -> Vec<T>
where
    T: Clone,
    P: Fn(&[T]),
{
    let fails = |candidate: &[T]| catch_unwind(AssertUnwindSafe(|| prop(candidate))).is_err();
    let mut current: Vec<T> = input.to_vec();
    if !fails(&current) {
        return current;
    }
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if fails(&candidate) {
                current = candidate;
                progressed = true;
                // Re-test from the same offset: new content slid into it.
            } else {
                start += chunk;
            }
        }
        if chunk == 1 {
            if !progressed {
                return current;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic payload>".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let seen = std::cell::Cell::new(0usize);
        forall_vec(
            &Config {
                cases: 16,
                seed: 1,
                max_len: 8,
            },
            |rng| rng.below(100),
            |xs: &[u64]| {
                assert!(xs.iter().all(|&x| x < 100));
                seen.set(seen.get() + 1);
            },
        );
        assert_eq!(seen.get(), 16);
    }

    #[test]
    fn failing_property_reports_minimized_input_and_seed() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            forall_vec(
                &Config {
                    cases: 64,
                    seed: 3,
                    max_len: 40,
                },
                |rng| rng.below(50),
                |xs: &[u64]| assert!(!xs.contains(&7), "found a 7"),
            );
        }))
        .expect_err("property must fail");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("seed 0x3"), "missing seed in: {msg}");
        assert!(msg.contains("minimized to 1 elems"), "not minimal: {msg}");
        assert!(msg.contains("CDS_PROP_SEED"), "missing replay hint: {msg}");
    }

    #[test]
    fn shrinker_is_locally_minimal() {
        // Fails iff the vector contains both a 1 and a 2 somewhere.
        let prop = |xs: &[u32]| assert!(!(xs.contains(&1) && xs.contains(&2)));
        let input = vec![9, 1, 4, 4, 2, 9, 1, 3];
        let small = shrink_vec(&input, &prop);
        assert_eq!(small.len(), 2);
        assert!(small.contains(&1) && small.contains(&2));
    }

    #[test]
    fn shrinker_returns_passing_input_unchanged() {
        let prop = |_: &[u32]| {};
        assert_eq!(shrink_vec(&[1, 2, 3], &prop), vec![1, 2, 3]);
    }
}
