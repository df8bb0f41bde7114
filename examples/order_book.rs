//! A market-data pipeline: feed → parser → matching workers → order book.
//!
//! Exercises three structures in the roles they were designed for:
//!
//! * [`cds::queue::spsc_ring_buffer`] — the single network thread hands raw
//!   ticks to the single parser wait-free;
//! * [`cds::queue::BoundedQueue`] — parsed orders fan out to matching
//!   workers through a fixed-capacity MPMC ring (bounded = backpressure);
//! * [`cds::skiplist::LockFreeSkipList`] — the resting bid book is an
//!   ordered set supporting concurrent best-bid claims and inserts. Prices
//!   are stored negated so that the list minimum is the best (highest) bid.
//!
//! Run with: `cargo run --release --example order_book`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use cds::core::{ConcurrentQueue, ConcurrentSet};
use cds::queue::{spsc_ring_buffer, BoundedQueue};
use cds::skiplist::LockFreeSkipList;
use cds_atomic::stress::SplitMix64;

const TICKS: u64 = 200_000;
const WORKERS: usize = 3;

/// A raw tick: price in the low 32 bits, a buy/sell flag in bit 32.
fn encode(price: u32, is_buy: bool) -> u64 {
    (price as u64) | ((is_buy as u64) << 32)
}

fn decode(tick: u64) -> (u32, bool) {
    (tick as u32, (tick >> 32) & 1 == 1)
}

fn main() {
    let (feed_tx, feed_rx) = spsc_ring_buffer::<u64>(1024);
    let orders: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::with_capacity(4096));
    // Bid book keyed by negated price: the skiplist minimum = best bid.
    let bids: Arc<LockFreeSkipList<i64>> = Arc::new(LockFreeSkipList::new());
    let matched = Arc::new(AtomicU64::new(0));
    let rested = Arc::new(AtomicU64::new(0));
    let processed = Arc::new(AtomicU64::new(0));

    let start = Instant::now();

    // Network thread: produces raw ticks (wait-free SPSC producer).
    let network = thread::spawn(move || {
        let mut rng = SplitMix64::new(0x2545f4914f6cdd1d);
        for _ in 0..TICKS {
            let x = rng.next_u64();
            let price = 10_000 + (x % 1_000) as u32;
            let is_buy = x.is_multiple_of(2);
            feed_tx.push(encode(price, is_buy));
        }
    });

    // Parser thread: SPSC consumer → MPMC producer (spins on backpressure).
    let parser = {
        let orders = Arc::clone(&orders);
        thread::spawn(move || {
            let mut forwarded = 0u64;
            while forwarded < TICKS {
                match feed_rx.try_pop() {
                    Some(tick) => {
                        orders.enqueue(tick);
                        forwarded += 1;
                    }
                    None => thread::yield_now(),
                }
            }
        })
    };

    // Matching workers: buys rest in the book; sells lift the best bid.
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let orders = Arc::clone(&orders);
            let bids = Arc::clone(&bids);
            let matched = Arc::clone(&matched);
            let rested = Arc::clone(&rested);
            let processed = Arc::clone(&processed);
            thread::spawn(move || loop {
                match orders.try_dequeue() {
                    Some(tick) => {
                        let (price, is_buy) = decode(tick);
                        if is_buy {
                            if bids.insert(-(price as i64)) {
                                rested.fetch_add(1, Ordering::Relaxed);
                            }
                            // A duplicate price neither rests nor matches.
                        } else if bids.remove_min().is_some() {
                            matched.fetch_add(1, Ordering::Relaxed);
                        }
                        processed.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        if processed.load(Ordering::Relaxed) == TICKS {
                            return;
                        }
                        thread::yield_now();
                    }
                }
            })
        })
        .collect();

    network.join().unwrap();
    parser.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = start.elapsed();

    let resting_now = bids.len() as u64;
    let best_bid = bids.min().map(|p| -p);
    println!("processed {TICKS} ticks in {elapsed:?}");
    println!(
        "throughput: {:.2} M ticks/s through the 3-stage pipeline",
        TICKS as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!(
        "matched {} trades; {} rested, {} still resting; best bid {:?}",
        matched.load(Ordering::Relaxed),
        rested.load(Ordering::Relaxed),
        resting_now,
        best_bid
    );
    assert_eq!(processed.load(Ordering::Relaxed), TICKS);
    assert_eq!(
        rested.load(Ordering::Relaxed) - matched.load(Ordering::Relaxed),
        resting_now,
        "book accounting must balance"
    );
    println!("book accounting balanced");
}
