//! Weak-memory execution layer for the systematic explorer.
//!
//! The DPOR explorer enumerates *interleavings*; this module makes each
//! interleaving additionally enumerate the *values* C11 permits loads to
//! observe under the structures' actual `Ordering` annotations. The
//! model is a release/acquire machine in the style of operational RC11
//! presentations (equivalently: per-location modification order plus
//! per-thread store buffers):
//!
//! - Every store appends a [`StoreRec`] to its location's modification
//!   order, stamped with the writing thread's event counter. A release
//!   store snapshots the writer's vector view; an acquire load that
//!   reads it joins that snapshot (the synchronizes-with edge).
//! - A load may read any record not hidden from the thread: newer-or-
//!   equal (per-location coherence) than the newest record it has
//!   already observed, not older than the newest record it is
//!   *synchronized with* (happens-before coherence), and within the
//!   [`ExploreBounds::weak_window`](super::explore::ExploreBounds)
//!   newest records (the search bound). Those floors make the candidate
//!   set a contiguous suffix of the modification order, so a read-from
//!   choice is just an offset the DFS can branch on.
//! - RMWs always read the latest record (C11 atomicity); a relaxed RMW
//!   inherits its predecessor's release view, modeling release-sequence
//!   continuation. A failed CAS is a load of the latest record with the
//!   failure ordering.
//! - `SeqCst` accesses are modeled as acquire/release that read/write
//!   the latest record. This is *stronger* than C11's total order S in
//!   some mixed-ordering corners, which is the sound direction for a
//!   bug-finder: the model under-approximates weak behaviors, so every
//!   behavior it exhibits is real, and `SeqCst`-correct code never
//!   false-positives.
//! - Fences are conservative: an acquire-ish fence joins every thread's
//!   full event count (over-synchronizing, again the sound direction);
//!   a release-ish fence marks the thread so its subsequent relaxed
//!   stores carry release views, per the C11 fence rules.
//!
//! # Real-time completion edges
//!
//! Linearizability is checked against *real-time* operation order, but
//! pure release/acquire semantics lets a load read a value that was
//! stale before the reading operation even began — legal C11, yet the
//! checker would flag it on *correctly annotated* code (e.g. a dequeue
//! that starts strictly after an enqueue completed may not miss it).
//! [`WeakState::op_boundary`] therefore joins the calling thread's view
//! into a global completion view and back at every operation boundary,
//! confining weak behaviors to operations that actually overlap —
//! exactly linearizability's real-time requirement.
//!
//! # Region race detection
//!
//! Ordering bugs whose only symptom is a data race on *non-atomic*
//! payload (e.g. a node's value fields published by a demoted-release
//! link CAS) never surface through atomic load values. For those,
//! publication sites ([`publish_region`](super::publish_region), called by
//! `cds-reclaim`'s `Owned::into_shared`) register the node's byte range
//! stamped with the publisher's next event, and every `Shared::deref`
//! checks the accessor has synchronized with that stamp — loom's
//! discipline, reported as a deterministic panic (no raw addresses, so
//! failure messages replay byte-identically across ASLR).

use std::collections::{BTreeMap, HashMap};

use crate::Ordering;

/// Pseudo-writer for records that predate the window (initial values,
/// setup-thread stores): known to every thread.
const INIT_WRITER: usize = usize::MAX;

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Per-thread vector of event counters ("has observed events `..=n` of
/// thread `t`").
#[derive(Debug, Clone, PartialEq, Eq)]
struct VClock(Vec<u64>);

impl VClock {
    fn new(threads: usize) -> Self {
        VClock(vec![0; threads])
    }

    fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    fn get(&self, t: usize) -> u64 {
        self.0[t]
    }

    fn set(&mut self, t: usize, v: u64) {
        self.0[t] = v;
    }
}

/// One entry of a location's modification order.
#[derive(Debug, Clone)]
struct StoreRec {
    value: u64,
    writer: usize,
    /// The writer's event counter at this store.
    stamp: u64,
    /// Release view snapshot; `None` for plain relaxed stores.
    sync: Option<VClock>,
}

#[derive(Debug)]
struct Loc {
    hist: Vec<StoreRec>,
    /// Coherence floor: per thread, the newest history index already
    /// observed (read or written).
    seen: Vec<usize>,
}

/// A published heap region guarded by atomic publication.
#[derive(Debug, Clone, Copy)]
struct Region {
    len: usize,
    writer: usize,
    stamp: u64,
}

/// A detected unsynchronized access to a published region.
#[derive(Debug, Clone, Copy)]
pub(super) struct RegionRace {
    pub accessor: usize,
    pub writer: usize,
    pub stamp: u64,
}

/// Weak-memory state of one explored execution.
pub(super) struct WeakState {
    threads: usize,
    window: usize,
    detect_races: bool,
    /// Per-thread event counters; bumped at every store/RMW-write.
    counts: Vec<u64>,
    views: Vec<VClock>,
    /// Completion view accumulated at operation boundaries.
    global: VClock,
    /// Set once a thread executes a release-ish fence; its later stores
    /// then carry release views even when relaxed.
    fenced_release: Vec<bool>,
    locs: HashMap<usize, Loc>,
    regions: BTreeMap<usize, Region>,
}

impl WeakState {
    pub fn new(threads: usize, window: usize, detect_races: bool) -> Self {
        WeakState {
            threads,
            window: window.max(1),
            detect_races,
            counts: vec![0; threads],
            views: (0..threads).map(|_| VClock::new(threads)).collect(),
            global: VClock::new(threads),
            fenced_release: vec![false; threads],
            locs: HashMap::new(),
            regions: BTreeMap::new(),
        }
    }

    fn bump(&mut self, t: usize) -> u64 {
        self.counts[t] += 1;
        self.views[t].set(t, self.counts[t]);
        self.counts[t]
    }

    fn known(views: &[VClock], t: usize, rec: &StoreRec) -> bool {
        rec.writer == INIT_WRITER || rec.writer == t || views[t].get(rec.writer) >= rec.stamp
    }

    /// Lazily creates the location's modification order; the initial
    /// record carries the real current value and is known to everyone
    /// (it predates the window or was written unregistered, e.g. by the
    /// setup thread — real time already ordered it before every window
    /// op).
    fn ensure(&mut self, addr: usize, current: u64) {
        let threads = self.threads;
        self.locs.entry(addr).or_insert_with(|| Loc {
            hist: vec![StoreRec {
                value: current,
                writer: INIT_WRITER,
                stamp: 0,
                sync: None,
            }],
            seen: vec![0; threads],
        });
    }

    /// Number of modification-order records a load by `t` may legally
    /// read; the candidates are exactly the newest `count` records.
    pub fn load_candidates(
        &mut self,
        t: usize,
        addr: usize,
        order: Ordering,
        current: u64,
    ) -> usize {
        self.ensure(addr, current);
        let loc = &self.locs[&addr];
        let n = loc.hist.len();
        if order == Ordering::SeqCst {
            return 1;
        }
        let mut newest_known = 0;
        for i in (0..n).rev() {
            if Self::known(&self.views, t, &loc.hist[i]) {
                newest_known = i;
                break;
            }
        }
        let first = newest_known
            .max(loc.seen[t])
            .max(n.saturating_sub(self.window));
        n - first
    }

    /// Commits a read-from choice made by the DFS: `offset` in
    /// `0..count`, where `count - 1` is the latest record. Returns the
    /// observed value.
    pub fn load_commit(
        &mut self,
        t: usize,
        addr: usize,
        order: Ordering,
        count: usize,
        offset: usize,
    ) -> u64 {
        let loc = self.locs.get_mut(&addr).expect("location vanished");
        let n = loc.hist.len();
        let i = n - count + offset;
        loc.seen[t] = loc.seen[t].max(i);
        let value = loc.hist[i].value;
        let sync = if is_acquire(order) {
            loc.hist[i].sync.clone()
        } else {
            None
        };
        if let Some(s) = sync {
            self.views[t].join(&s);
        }
        value
    }

    /// A plain store replacing `prev` with `new`.
    pub fn store(&mut self, t: usize, addr: usize, order: Ordering, prev: u64, new: u64) {
        self.ensure(addr, prev);
        let stamp = self.bump(t);
        let sync = (is_release(order) || self.fenced_release[t]).then(|| self.views[t].clone());
        let loc = self.locs.get_mut(&addr).expect("location vanished");
        loc.hist.push(StoreRec {
            value: new,
            writer: t,
            stamp,
            sync,
        });
        let last = loc.hist.len() - 1;
        loc.seen[t] = last;
    }

    /// A read-modify-write: always reads the latest record (C11
    /// atomicity); `new` is `None` for a failed CAS.
    pub fn rmw(&mut self, t: usize, addr: usize, order: Ordering, prev: u64, new: Option<u64>) {
        self.ensure(addr, prev);
        let loc = self.locs.get_mut(&addr).expect("location vanished");
        let last = loc.hist.len() - 1;
        debug_assert_eq!(
            loc.hist[last].value, prev,
            "modification order diverged from real memory"
        );
        let read_sync = if is_acquire(order) {
            loc.hist[last].sync.clone()
        } else {
            None
        };
        loc.seen[t] = loc.seen[t].max(last);
        if let Some(s) = read_sync {
            self.views[t].join(&s);
        }
        let Some(new) = new else { return };
        // Release-sequence continuation: a relaxed RMW extends the
        // predecessor's release view, so acquire readers of the RMW
        // still synchronize with the original release store.
        let inherited = self.locs[&addr].hist[last].sync.clone();
        let stamp = self.bump(t);
        let sync = if is_release(order) || self.fenced_release[t] {
            Some(self.views[t].clone())
        } else {
            inherited
        };
        let loc = self.locs.get_mut(&addr).expect("location vanished");
        loc.hist.push(StoreRec {
            value: new,
            writer: t,
            stamp,
            sync,
        });
        let n = loc.hist.len() - 1;
        loc.seen[t] = n;
    }

    pub fn fence(&mut self, t: usize, order: Ordering) {
        if is_acquire(order) {
            // Conservative: join everything issued so far. Synchronizes
            // more than C11's fence rules, never less — sound for
            // bug-finding (may mask fence bugs, documented in DESIGN).
            for u in 0..self.threads {
                let c = self.counts[u];
                if self.views[t].get(u) < c {
                    self.views[t].set(u, c);
                }
            }
        }
        if is_release(order) {
            self.fenced_release[t] = true;
        }
    }

    /// Real-time completion edge (see module docs): called by the
    /// harness between consecutive operations of a thread.
    pub fn op_boundary(&mut self, t: usize) {
        self.global.join(&self.views[t]);
        let g = self.global.clone();
        self.views[t].join(&g);
    }

    /// Registers a published heap region. `writer` is `None` for
    /// unregistered (setup) threads, whose publications are known to
    /// everyone.
    pub fn publish(&mut self, writer: Option<usize>, base: usize, len: usize) {
        if !self.detect_races {
            return;
        }
        let (writer, stamp) = match writer {
            // Stamped with the *next* event: exactly the release-ish
            // stores sequenced after this publication carry views that
            // reach the stamp.
            Some(t) => (t, self.counts[t] + 1),
            None => (INIT_WRITER, 0),
        };
        self.regions.insert(base, Region { len, writer, stamp });
    }

    /// Checks a non-atomic access against the publication discipline.
    pub fn check(&self, t: usize, addr: usize, _len: usize) -> Result<(), RegionRace> {
        if !self.detect_races {
            return Ok(());
        }
        if let Some((base, r)) = self.regions.range(..=addr).next_back() {
            if addr < base + r.len
                && r.writer != INIT_WRITER
                && r.writer != t
                && self.views[t].get(r.writer) < r.stamp
            {
                return Err(RegionRace {
                    accessor: t,
                    writer: r.writer,
                    stamp: r.stamp,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: usize = 0x100;
    const Y: usize = 0x200;

    #[test]
    fn relaxed_store_is_not_synchronizing() {
        // Message passing with relaxed publication: the reader may see
        // the flag yet miss the payload.
        let mut w = WeakState::new(2, 4, false);
        w.store(0, Y, Ordering::Relaxed, 0, 41); // payload
        w.store(0, X, Ordering::Relaxed, 0, 1); // flag, relaxed: no sync
        let c = w.load_candidates(1, X, Ordering::Acquire, 1);
        assert_eq!(c, 2, "flag may be seen or missed");
        let v = w.load_commit(1, X, Ordering::Acquire, c, c - 1);
        assert_eq!(v, 1, "latest candidate is the flag store");
        // Even having read the flag, the relaxed store gave no edge:
        // the payload may still read 0.
        let c = w.load_candidates(1, Y, Ordering::Acquire, 41);
        assert_eq!(c, 2, "payload remains unordered: stale 0 is legal");
    }

    #[test]
    fn release_acquire_synchronizes_payload() {
        let mut w = WeakState::new(2, 4, false);
        w.store(0, Y, Ordering::Relaxed, 0, 41);
        w.store(0, X, Ordering::Release, 0, 1);
        let c = w.load_candidates(1, X, Ordering::Acquire, 1);
        assert_eq!(c, 2);
        w.load_commit(1, X, Ordering::Acquire, c, c - 1); // reads the flag
        let c = w.load_candidates(1, Y, Ordering::Acquire, 41);
        assert_eq!(c, 1, "acquire of the release flag orders the payload");
        assert_eq!(w.load_commit(1, Y, Ordering::Acquire, c, 0), 41);
    }

    #[test]
    fn coherence_forbids_rereading_older_values() {
        let mut w = WeakState::new(2, 8, false);
        w.store(0, X, Ordering::Relaxed, 0, 1);
        w.store(0, X, Ordering::Relaxed, 1, 2);
        let c = w.load_candidates(1, X, Ordering::Relaxed, 2);
        assert_eq!(c, 3);
        // Read the middle store; older records are now hidden from t1.
        let v = w.load_commit(1, X, Ordering::Relaxed, c, 1);
        assert_eq!(v, 1);
        let c = w.load_candidates(1, X, Ordering::Relaxed, 2);
        assert_eq!(c, 2, "init record is below the coherence floor now");
    }

    #[test]
    fn rmw_reads_latest_and_continues_release_sequence() {
        let mut w = WeakState::new(3, 8, false);
        w.store(0, Y, Ordering::Relaxed, 0, 41);
        w.store(0, X, Ordering::Release, 0, 1);
        // Relaxed RMW by t1 on top of the release store.
        w.rmw(1, X, Ordering::Relaxed, 1, Some(2));
        // Acquire reader of the RMW record must still synchronize with
        // t0's release (release-sequence continuation).
        let c = w.load_candidates(2, X, Ordering::Acquire, 2);
        let v = w.load_commit(2, X, Ordering::Acquire, c, c - 1);
        assert_eq!(v, 2);
        let c = w.load_candidates(2, Y, Ordering::Relaxed, 41);
        assert_eq!(c, 1, "payload ordered through the release sequence");
    }

    #[test]
    fn seqcst_load_reads_latest_only() {
        let mut w = WeakState::new(2, 8, false);
        w.store(0, X, Ordering::Relaxed, 0, 1);
        w.store(0, X, Ordering::Relaxed, 1, 2);
        assert_eq!(w.load_candidates(1, X, Ordering::SeqCst, 2), 1);
    }

    #[test]
    fn window_bounds_staleness() {
        let mut w = WeakState::new(2, 2, false);
        for i in 0..10 {
            w.store(0, X, Ordering::Relaxed, i, i + 1);
        }
        assert_eq!(w.load_candidates(1, X, Ordering::Relaxed, 10), 2);
    }

    #[test]
    fn op_boundary_is_a_completion_edge() {
        let mut w = WeakState::new(2, 4, false);
        w.store(0, X, Ordering::Relaxed, 0, 1);
        // t0's operation completes; t1's next operation begins.
        w.op_boundary(0);
        w.op_boundary(1);
        assert_eq!(
            w.load_candidates(1, X, Ordering::Relaxed, 1),
            1,
            "non-overlapping ops must not observe staleness"
        );
    }

    #[test]
    fn release_fence_upgrades_later_relaxed_stores() {
        let mut w = WeakState::new(2, 4, false);
        w.store(0, Y, Ordering::Relaxed, 0, 41);
        w.fence(0, Ordering::Release);
        w.store(0, X, Ordering::Relaxed, 0, 1);
        let c = w.load_candidates(1, X, Ordering::Acquire, 1);
        w.load_commit(1, X, Ordering::Acquire, c, c - 1);
        assert_eq!(w.load_candidates(1, Y, Ordering::Relaxed, 41), 1);
    }

    #[test]
    fn region_race_detected_without_synchronization() {
        let mut w = WeakState::new(2, 4, true);
        w.publish(Some(0), 0x1000, 64);
        // Publication followed by a relaxed (non-release) link store.
        w.store(0, X, Ordering::Relaxed, 0, 0x1000);
        let c = w.load_candidates(1, X, Ordering::Acquire, 0x1000);
        w.load_commit(1, X, Ordering::Acquire, c, c - 1);
        assert!(
            w.check(1, 0x1010, 8).is_err(),
            "relaxed link leaks the region"
        );

        // With a release link and an acquire read, the access is clean.
        let mut w = WeakState::new(2, 4, true);
        w.publish(Some(0), 0x1000, 64);
        w.store(0, X, Ordering::Release, 0, 0x1000);
        let c = w.load_candidates(1, X, Ordering::Acquire, 0x1000);
        w.load_commit(1, X, Ordering::Acquire, c, c - 1);
        assert!(w.check(1, 0x1010, 8).is_ok());
        // The publisher itself may always access its region.
        assert!(w.check(0, 0x1010, 8).is_ok());
    }
}
