//! A multi-threaded web server's visitor tracking, simulated.
//!
//! The motivating workload for concurrent sets and counters: each request
//! carries a client address; the server counts *unique* visitors and total
//! hits without any request serializing behind another. The set of seen
//! addresses is the lock-free split-ordered hash map; the hit counters are
//! sharded.
//!
//! Run with: `cargo run --release --example visitor_counter`

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use cds::core::{ConcurrentCounter, ConcurrentMap};
use cds::counter::ShardedCounter;
use cds::map::SplitOrderedHashMap;
use cds_atomic::stress::SplitMix64;

const WORKERS: usize = 4;
const REQUESTS_PER_WORKER: usize = 50_000;
/// Simulated client population (requests draw addresses from this range).
const CLIENTS: u64 = 10_000;

struct Server {
    /// address → first-seen request number (insert-if-absent gives us
    /// "is this a new visitor?" for free).
    seen: SplitOrderedHashMap<u64, u64>,
    unique_visitors: ShardedCounter,
    total_hits: ShardedCounter,
}

impl Server {
    fn handle_request(&self, addr: u64, request_no: u64) {
        self.total_hits.increment();
        if self.seen.insert(addr, request_no) {
            self.unique_visitors.increment();
        }
    }
}

fn main() {
    let server = Arc::new(Server {
        seen: SplitOrderedHashMap::new(),
        unique_visitors: ShardedCounter::new(),
        total_hits: ShardedCounter::new(),
    });

    let start = Instant::now();
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                // Zipf-ish skew: a few hot clients, a long tail.
                let mut rng = SplitMix64::new(w as u64);
                for i in 0..REQUESTS_PER_WORKER {
                    let x = rng.next_u64();
                    let addr = if x % 10 < 3 {
                        x % 16 // 30% of traffic from 16 hot clients
                    } else {
                        x % CLIENTS
                    };
                    server.handle_request(addr, (w * REQUESTS_PER_WORKER + i) as u64);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = start.elapsed();

    let total = server.total_hits.get();
    let unique = server.unique_visitors.get();
    println!("handled {total} requests in {elapsed:?}");
    println!(
        "throughput: {:.2} M req/s across {WORKERS} workers",
        total as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!("unique visitors: {unique}");

    // Audit: the counter and the map must agree exactly at quiescence.
    assert_eq!(total as usize, WORKERS * REQUESTS_PER_WORKER);
    assert_eq!(unique as usize, server.seen.len());
    println!("audit passed: counters agree with the map");
}
