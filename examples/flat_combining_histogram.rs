//! Building a custom concurrent structure with `FlatCombining`.
//!
//! The generic combiner in `cds-sync` turns *any* sequential structure
//! into a linearizable concurrent one: implement `FcStructure` for the
//! sequential code you already have, and threads' operations get batched
//! through a single combiner. This example wraps a latency histogram — a
//! structure with a compound operation (`record` updates a bucket, a max,
//! and a count atomically) that would otherwise need a custom lock
//! protocol.
//!
//! Run with: `cargo run --release --example flat_combining_histogram`,
//! and its test with `cargo test --example flat_combining_histogram`.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use cds::sync::{FcStructure, FlatCombining};
use cds_atomic::stress::SplitMix64;

/// A plain sequential latency histogram: power-of-two buckets, plus
/// aggregates that must stay consistent with the buckets.
struct Histogram {
    buckets: [u64; 32],
    count: u64,
    max: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0; 32],
            count: 0,
            max: 0,
        }
    }

    /// The `p` quantile, rounded up to its bucket's exclusive upper bound
    /// `1 << i` but never above the largest value recorded.
    fn percentile(&self, p: f64) -> u64 {
        let target = (self.count as f64 * p) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return (1u64 << i).min(self.max);
            }
        }
        self.max
    }
}

/// Operations the combiner will apply; results carry the answers back.
enum Op {
    Record(u64),
    Snapshot,
}

enum Res {
    Recorded,
    Stats {
        count: u64,
        p50: u64,
        p99: u64,
        max: u64,
    },
}

impl FcStructure for Histogram {
    type Op = Op;
    type Res = Res;

    fn apply(&mut self, op: Op) -> Res {
        match op {
            Op::Record(value) => {
                let bucket = (64 - value.max(1).leading_zeros() as usize).min(31);
                // The three updates below are one atomic step from the
                // clients' perspective — that's the whole point.
                self.buckets[bucket] += 1;
                self.count += 1;
                self.max = self.max.max(value);
                Res::Recorded
            }
            Op::Snapshot => Res::Stats {
                count: self.count,
                p50: self.percentile(0.50),
                p99: self.percentile(0.99),
                max: self.max,
            },
        }
    }
}

const WORKERS: usize = 4;
const SAMPLES_PER_WORKER: usize = 100_000;

fn main() {
    let histogram = Arc::new(FlatCombining::new(Histogram::new()));

    let start = Instant::now();
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let histogram = Arc::clone(&histogram);
            thread::spawn(move || {
                let mut rng = SplitMix64::new(w as u64);
                for i in 0..SAMPLES_PER_WORKER {
                    let x = rng.next_u64();
                    // Log-normal-ish synthetic latencies in nanoseconds.
                    let latency = 1_000 + (x % 65_536) * (x % 16);
                    histogram.apply(Op::Record(latency));
                    // Occasionally read a consistent snapshot mid-stream.
                    if i % 25_000 == 0 {
                        if let Res::Stats { count, p99, .. } = histogram.apply(Op::Snapshot) {
                            assert!(count > 0);
                            assert!(p99 > 0);
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = start.elapsed();

    match histogram.apply(Op::Snapshot) {
        Res::Stats {
            count,
            p50,
            p99,
            max,
        } => {
            let total = (WORKERS * SAMPLES_PER_WORKER) as u64;
            println!("recorded {count} samples in {elapsed:?}");
            println!(
                "throughput: {:.2} M records/s through the combiner",
                count as f64 / elapsed.as_secs_f64() / 1e6
            );
            println!("p50 ≈ {p50} ns, p99 ≈ {p99} ns, max = {max} ns");
            assert_eq!(count, total, "samples lost in combining");
            println!("all {total} samples accounted for");
        }
        Res::Recorded => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_percentile_exceeds_the_max() {
        let mut h = Histogram::new();
        let mut rng = SplitMix64::new(0x4157);
        for _ in 0..10_000 {
            let x = rng.next_u64();
            h.apply(Op::Record(1_000 + (x % 65_536) * (x % 16)));
        }
        for p in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let q = h.percentile(p);
            assert!(q <= h.max, "p{p}: {q} above the max {}", h.max);
        }
        // Values at a bucket's lower edge: 1 << 20 is bucket 21's
        // smallest, and the bucket's bound is 1 << 21.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.apply(Op::Record(1 << 20));
        }
        assert_eq!(h.percentile(0.99), 1 << 20);
    }
}
