//! Scheduled property tests for the `cds-chan` blocking MPMC channels.
//!
//! Built with the root crate's self-dev-dependency (`stress` +
//! `telemetry`), so the channels' yield points are real PCT preemption
//! points, parked threads spin through the scheduler instead of the
//! kernel, and the `cds-obs` counters are live. Two properties anchor
//! the suite:
//!
//! * **Message conservation** — at quiescence every successfully sent
//!   message was received exactly once or drained by the channel's drop,
//!   witnessed twice over: by the channel's model counters
//!   (`sent`/`received`) and by the telemetry identity
//!   `chan_sends == chan_recvs + chan_drained_at_drop`.
//! * **Per-producer FIFO** — each consumer observes every producer's
//!   messages in send order (the MPMC guarantee: the global order is
//!   up for grabs, each producer's lane is not).
//!
//! The counters are global, so every test takes the [`serial`] lock
//! (scheduler installs must not overlap, and one test's scheduled run
//! must not land inside another's baseline/delta window) and measures
//! through snapshot pairs.

mod common;

use cds_atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use cds_chan::{bounded, unbounded, Select};
use cds_core::stress as sched;
use cds_core::stress::StressConfig;
use cds_obs::{Event, Snapshot};
use common::serial;

fn install(seed: u64) -> sched::StressRun {
    sched::install(StressConfig {
        seed,
        change_period: 3,
    })
}

/// All messages consumed: 2 producers blocking-send into a capacity-4
/// ring (forcing send-side parks), the last producer to finish closes,
/// 2 consumers drain until `Closed`. Conservation must hold with zero
/// drop residue.
#[test]
fn scheduled_bounded_conserves_all_messages() {
    let _guard = serial();
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    const PER: u64 = 25;

    let run = install(0xc4a70);
    let base = Snapshot::take();
    let ch = bounded::<u64>(4);
    let done = AtomicUsize::new(0);
    let start = Barrier::new(PRODUCERS + CONSUMERS);
    let consumed: u64 = std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let ch = ch.clone();
            let done = &done;
            let start = &start;
            s.spawn(move || {
                let _slot = sched::register(t);
                start.wait();
                for i in 0..PER {
                    ch.send(((t as u64) << 32) | i).unwrap();
                }
                if done.fetch_add(1, Ordering::SeqCst) + 1 == PRODUCERS {
                    ch.close();
                }
            });
        }
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|t| {
                let ch = ch.clone();
                let start = &start;
                s.spawn(move || {
                    let _slot = sched::register(PRODUCERS + t);
                    start.wait();
                    let mut n = 0u64;
                    while ch.recv().is_ok() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        consumers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    drop(run);

    let total = PRODUCERS as u64 * PER;
    assert_eq!(consumed, total);
    assert_eq!((ch.sent(), ch.received()), (total, total));
    drop(ch);
    let delta = Snapshot::take().delta(&base);
    if cds_obs::enabled() {
        assert_eq!(delta.get(Event::ChanSends), total);
        assert_eq!(delta.get(Event::ChanRecvs), total);
        assert_eq!(delta.get(Event::ChanDrainedAtDrop), 0);
    }
}

/// Partial consumption: the consumer takes only half the messages, the
/// rest must surface as `chan_drained_at_drop` when the last handle
/// drops — the other arm of the conservation identity.
#[test]
fn scheduled_unbounded_residual_drains_at_drop() {
    let _guard = serial();
    const PRODUCERS: usize = 2;
    const PER: u64 = 20;
    const TAKE: u64 = PRODUCERS as u64 * PER / 2;

    let run = install(0xc4a71);
    let base = Snapshot::take();
    let ch = unbounded::<u64>();
    let start = Barrier::new(PRODUCERS + 1);
    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let ch = ch.clone();
            let start = &start;
            s.spawn(move || {
                let _slot = sched::register(t);
                start.wait();
                for i in 0..PER {
                    ch.send(((t as u64) << 32) | i).unwrap();
                }
            });
        }
        let ch = ch.clone();
        let start = &start;
        s.spawn(move || {
            let _slot = sched::register(PRODUCERS);
            start.wait();
            for _ in 0..TAKE {
                ch.recv().unwrap();
            }
        });
    });
    drop(run);

    let total = PRODUCERS as u64 * PER;
    assert_eq!((ch.sent(), ch.received()), (total, TAKE));
    drop(ch);
    let delta = Snapshot::take().delta(&base);
    if cds_obs::enabled() {
        assert_eq!(delta.get(Event::ChanSends), total);
        assert_eq!(delta.get(Event::ChanRecvs), TAKE);
        assert_eq!(delta.get(Event::ChanDrainedAtDrop), total - TAKE);
        assert_eq!(
            delta.get(Event::ChanSends),
            delta.get(Event::ChanRecvs) + delta.get(Event::ChanDrainedAtDrop),
        );
    }
}

/// Per-producer FIFO through a tiny ring under schedule: every consumer
/// sees each producer's sequence numbers strictly increasing, and the
/// consumers' multiset union is exactly what was sent.
#[test]
fn scheduled_per_producer_fifo() {
    let _guard = serial();
    const PRODUCERS: usize = 3;
    const CONSUMERS: usize = 2;
    const PER: u64 = 15;

    let run = install(0xc4a72);
    let ch = bounded::<(usize, u64)>(4);
    let done = AtomicUsize::new(0);
    let start = Barrier::new(PRODUCERS + CONSUMERS);
    let logs: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let ch = ch.clone();
            let done = &done;
            let start = &start;
            s.spawn(move || {
                let _slot = sched::register(t);
                start.wait();
                for i in 0..PER {
                    ch.send((t, i)).unwrap();
                }
                if done.fetch_add(1, Ordering::SeqCst) + 1 == PRODUCERS {
                    ch.close();
                }
            });
        }
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|t| {
                let ch = ch.clone();
                let start = &start;
                s.spawn(move || {
                    let _slot = sched::register(PRODUCERS + t);
                    start.wait();
                    let mut log = Vec::new();
                    while let Ok(msg) = ch.recv() {
                        log.push(msg);
                    }
                    log
                })
            })
            .collect();
        consumers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    drop(run);

    for (c, log) in logs.iter().enumerate() {
        for p in 0..PRODUCERS {
            let seqs: Vec<u64> = log
                .iter()
                .filter(|(q, _)| *q == p)
                .map(|&(_, i)| i)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "consumer {c} saw producer {p} out of order: {seqs:?}"
            );
        }
    }
    let mut all: Vec<(usize, u64)> = logs.into_iter().flatten().collect();
    all.sort_unstable();
    let expected: Vec<(usize, u64)> = (0..PRODUCERS)
        .flat_map(|p| (0..PER).map(move |i| (p, i)))
        .collect();
    assert_eq!(all, expected, "lost or duplicated messages");
}

/// Select under schedule: one consumer multiplexes a bounded and an
/// unbounded channel while dedicated producers fill and close each.
/// The select must deliver every message exactly once, per-channel
/// FIFO, and report `Closed` only after both lanes are closed+drained.
#[test]
fn scheduled_select_multiplexes_two_lanes() {
    let _guard = serial();
    const PER: u64 = 12;

    let run = install(0xc4a73);
    let a = bounded::<u64>(2);
    let b = unbounded::<u64>();
    let start = Barrier::new(3);
    let log: Vec<(usize, u64)> = std::thread::scope(|s| {
        {
            let a = a.clone();
            let start = &start;
            s.spawn(move || {
                let _slot = sched::register(0);
                start.wait();
                for i in 0..PER {
                    a.send(i).unwrap();
                }
                a.close();
            });
        }
        {
            let b = b.clone();
            let start = &start;
            s.spawn(move || {
                let _slot = sched::register(1);
                start.wait();
                for i in 0..PER {
                    b.send(100 + i).unwrap();
                }
                b.close();
            });
        }
        let consumer = {
            let a = a.clone();
            let b = b.clone();
            let start = &start;
            s.spawn(move || {
                let _slot = sched::register(2);
                start.wait();
                let mut sel = Select::new(&[&a, &b]);
                let mut log = Vec::new();
                while let Ok(hit) = sel.recv() {
                    log.push(hit);
                }
                log
            })
        };
        consumer.join().unwrap()
    });
    drop(run);

    let from_a: Vec<u64> = log
        .iter()
        .filter(|(i, _)| *i == 0)
        .map(|&(_, v)| v)
        .collect();
    let from_b: Vec<u64> = log
        .iter()
        .filter(|(i, _)| *i == 1)
        .map(|&(_, v)| v)
        .collect();
    assert_eq!(from_a, (0..PER).collect::<Vec<_>>());
    assert_eq!(from_b, (100..100 + PER).collect::<Vec<_>>());
}

/// The executor's channel-backed scoped fork-join (native timing): all
/// results arrive, in submission order, through the bounded gather
/// channel.
#[test]
fn scoped_fork_join_collects_in_order() {
    let _guard = serial();
    let pool = cds_exec::Executor::new(3);
    let out = pool.scoped((0..32u64).map(|i| move || i * 3).collect::<Vec<_>>());
    assert_eq!(out, (0..32u64).map(|i| i * 3).collect::<Vec<_>>());
    pool.shutdown();
}
