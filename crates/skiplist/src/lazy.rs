use cds_atomic::{AtomicBool, Ordering};
use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::ptr;

use cds_core::{Bound, ConcurrentSet};
use cds_reclaim::epoch::{self, Atomic, Guard, Owned, Shared};
use cds_sync::Backoff;
use cds_sync::Mutex;

use crate::level::random_level;
use crate::HEIGHT;

struct Node<T> {
    key: Bound<T>,
    /// Tower of forward pointers; `next.len() == top_level + 1`.
    next: Vec<Atomic<Node<T>>>,
    lock: Mutex<()>,
    /// Logical deletion flag (set under `lock`).
    marked: AtomicBool,
    /// Set once the node is linked at every level of its tower; readers
    /// ignore half-linked nodes.
    fully_linked: AtomicBool,
}

impl<T> Node<T> {
    fn top_level(&self) -> usize {
        self.next.len() - 1
    }
}

/// The **lazy skiplist** (Herlihy, Lev, Luchangco & Shavit, 2007) — the
/// lock-based skiplist used in practice (it is the design behind many
/// production concurrent ordered maps).
///
/// The lazy-list recipe of `cds-list` lifted to towers:
///
/// * every node carries a lock, a `marked` flag (logical deletion) and a
///   `fully_linked` flag (nodes become visible atomically even though
///   their tower is linked level by level);
/// * `insert`/`remove` lock only the affected predecessors, validate with
///   O(1) checks, and retry on conflict;
/// * **`contains` is wait-free** — one unlocked descent.
///
/// Locks are acquired in descending key order along each tower, which
/// rules out deadlock. Removed nodes go to the epoch collector because
/// wait-free readers may still traverse them.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentSet;
/// use cds_skiplist::LazySkipList;
///
/// let s = LazySkipList::new();
/// s.insert(5);
/// assert!(s.contains(&5));
/// assert!(s.remove(&5));
/// ```
pub struct LazySkipList<T> {
    head: Atomic<Node<T>>,
}

// SAFETY: epoch-managed nodes; lock-protected mutation; mark-validated
// reads.
unsafe impl<T: Send + Sync> Send for LazySkipList<T> {}
unsafe impl<T: Send + Sync> Sync for LazySkipList<T> {}

type FindResult<'g, T> = (
    Option<usize>,
    [Shared<'g, Node<T>>; HEIGHT],
    [Shared<'g, Node<T>>; HEIGHT],
);

impl<T: Ord> LazySkipList<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        let tail = Owned::new(Node {
            key: Bound::PosInf,
            next: Vec::new(),
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(true),
        });
        let head = Owned::new(Node {
            key: Bound::NegInf,
            next: (0..HEIGHT).map(|_| Atomic::null()).collect(),
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(true),
        });
        // SAFETY: not shared yet.
        let guard = unsafe { Guard::unprotected() };
        let tail = tail.into_shared(&guard);
        for l in 0..HEIGHT {
            head.next[l].store(tail, Ordering::Relaxed);
        }
        LazySkipList { head: head.into() }
    }

    /// Unlocked descent recording, per level, the last node with a smaller
    /// key (`preds`) and the first with an equal-or-larger key (`succs`).
    /// Returns the highest level at which the key was found, if any.
    fn find<'g>(&self, key: &T, guard: &'g Guard) -> FindResult<'g, T> {
        let mut preds = [Shared::null(); HEIGHT];
        let mut succs = [Shared::null(); HEIGHT];
        let mut lfound = None;
        let mut pred = self.head.load(Ordering::Acquire, guard);
        for l in (0..HEIGHT).rev() {
            // SAFETY: pinned; nodes are deferred, never freed under us. The
            // tail has an empty tower but is never dereferenced for `next`
            // because its key is PosInf (the loop stops first).
            let mut curr = unsafe { pred.deref() }.next[l].load(Ordering::Acquire, guard);
            loop {
                let curr_ref = unsafe { curr.deref() };
                if curr_ref.key.cmp_key(key) == CmpOrdering::Less {
                    pred = curr;
                    curr = curr_ref.next[l].load(Ordering::Acquire, guard);
                } else {
                    break;
                }
            }
            if lfound.is_none() && unsafe { curr.deref() }.key.cmp_key(key) == CmpOrdering::Equal {
                lfound = Some(l);
            }
            preds[l] = pred;
            succs[l] = curr;
        }
        (lfound, preds, succs)
    }
}

impl<T: Ord> Default for LazySkipList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Send + Sync> ConcurrentSet<T> for LazySkipList<T> {
    const NAME: &'static str = "lazy";

    fn insert(&self, value: T) -> bool {
        let guard = epoch::pin();
        let top = random_level();
        let mut value_slot = Some(value);
        let backoff = Backoff::new();
        loop {
            cds_atomic::stress::yield_point();
            let key = value_slot.as_ref().expect("value present until success");
            let (lfound, preds, succs) = self.find(key, &guard);
            if let Some(l) = lfound {
                // SAFETY: pinned.
                let node = unsafe { succs[l].deref() };
                if !node.marked.load(Ordering::Acquire) {
                    // Present (or being inserted): wait until visible, fail.
                    while !node.fully_linked.load(Ordering::Acquire) {
                        // `snooze` is a yield point: under the stress
                        // scheduler this wait depends on the linking thread
                        // getting to run.
                        backoff.snooze();
                    }
                    return false;
                }
                // Marked: a removal is mid-flight; retry.
                backoff.spin();
                continue;
            }

            // Lock predecessors bottom-up (descending key order), skipping
            // duplicates, and validate.
            let mut guards = Vec::with_capacity(top + 1);
            let mut last: *mut Node<T> = ptr::null_mut();
            let mut valid = true;
            for l in 0..=top {
                let pred = preds[l];
                let succ = succs[l];
                // SAFETY: pinned.
                let pred_ref = unsafe { pred.deref() };
                if pred.as_raw() != last {
                    guards.push(pred_ref.lock.lock());
                    last = pred.as_raw();
                }
                let succ_ref = unsafe { succ.deref() };
                if pred_ref.marked.load(Ordering::Acquire)
                    || succ_ref.marked.load(Ordering::Acquire)
                    || pred_ref.next[l].load(Ordering::Acquire, &guard) != succ
                {
                    valid = false;
                    break;
                }
            }
            if !valid {
                drop(guards);
                backoff.spin();
                continue;
            }

            let node = Owned::new(Node {
                key: Bound::Finite(value_slot.take().expect("value still present")),
                next: (0..=top).map(|_| Atomic::null()).collect(),
                lock: Mutex::new(()),
                marked: AtomicBool::new(false),
                fully_linked: AtomicBool::new(false),
            });
            #[allow(clippy::needless_range_loop)] // lockstep over next/succs
            for l in 0..=top {
                node.next[l].store(succs[l], Ordering::Relaxed);
            }
            let node = node.into_shared(&guard);
            // Link bottom-up under the predecessor locks.
            #[allow(clippy::needless_range_loop)]
            for l in 0..=top {
                // SAFETY: pinned; preds validated and locked.
                unsafe { preds[l].deref() }.next[l].store(node, Ordering::Release);
            }
            // SAFETY: pinned.
            unsafe { node.deref() }
                .fully_linked
                .store(true, Ordering::Release);
            return true;
        }
    }

    fn remove(&self, value: &T) -> bool {
        let guard = epoch::pin();
        let backoff = Backoff::new();
        let mut victim: Shared<'_, Node<T>> = Shared::null();
        let mut victim_guard = None;
        let mut is_marked = false;
        let mut top = 0;
        loop {
            cds_atomic::stress::yield_point();
            let (lfound, preds, succs) = self.find(value, &guard);
            if !is_marked {
                let l = match lfound {
                    None => return false,
                    Some(l) => l,
                };
                let v = succs[l];
                // SAFETY: pinned.
                let v_ref = unsafe { v.deref() };
                // "Ok to delete": visible, found at its own top level,
                // not already claimed by another remover.
                if !(v_ref.fully_linked.load(Ordering::Acquire)
                    && v_ref.top_level() == l
                    && !v_ref.marked.load(Ordering::Acquire))
                {
                    return false;
                }
                let g = v_ref.lock.lock();
                if v_ref.marked.load(Ordering::Acquire) {
                    return false; // another remover claimed it first
                }
                // Claim: logical deletion (the linearization point).
                v_ref.marked.store(true, Ordering::Release);
                victim = v;
                victim_guard = Some(g);
                is_marked = true;
                top = v_ref.top_level();
            }

            // SAFETY: pinned; victim is claimed by us.
            let v_ref = unsafe { victim.deref() };
            let mut guards = Vec::with_capacity(top + 1);
            let mut last: *mut Node<T> = ptr::null_mut();
            let mut valid = true;
            #[allow(clippy::needless_range_loop)] // lockstep over preds/levels
            for l in 0..=top {
                let pred = preds[l];
                let pred_ref = unsafe { pred.deref() };
                if pred.as_raw() != last {
                    guards.push(pred_ref.lock.lock());
                    last = pred.as_raw();
                }
                if pred_ref.marked.load(Ordering::Acquire)
                    || pred_ref.next[l].load(Ordering::Acquire, &guard) != victim
                {
                    valid = false;
                    break;
                }
            }
            if !valid {
                drop(guards);
                backoff.spin();
                continue;
            }

            // Unlink top-down under the locks.
            for l in (0..=top).rev() {
                let succ = v_ref.next[l].load(Ordering::Acquire, &guard);
                // SAFETY: preds validated and locked.
                unsafe { preds[l].deref() }.next[l].store(succ, Ordering::Release);
            }
            drop(guards);
            drop(victim_guard.take());
            // SAFETY: unlinked everywhere; wait-free readers may linger.
            unsafe { guard.defer_destroy(victim) };
            return true;
        }
    }

    fn contains(&self, value: &T) -> bool {
        // Wait-free descent: no locks, no retries.
        let guard = epoch::pin();
        let mut pred = self.head.load(Ordering::Acquire, &guard);
        let mut result = false;
        for l in (0..HEIGHT).rev() {
            // SAFETY: pinned.
            let mut curr = unsafe { pred.deref() }.next[l].load(Ordering::Acquire, &guard);
            loop {
                let curr_ref = unsafe { curr.deref() };
                match curr_ref.key.cmp_key(value) {
                    CmpOrdering::Less => {
                        pred = curr;
                        curr = curr_ref.next[l].load(Ordering::Acquire, &guard);
                    }
                    CmpOrdering::Equal => {
                        result = curr_ref.fully_linked.load(Ordering::Acquire)
                            && !curr_ref.marked.load(Ordering::Acquire);
                        break;
                    }
                    CmpOrdering::Greater => break,
                }
            }
            if result {
                return true;
            }
        }
        result
    }

    fn len(&self) -> usize {
        let guard = epoch::pin();
        let mut n = 0;
        // SAFETY: pinned.
        let mut curr = unsafe { self.head.load(Ordering::Acquire, &guard).deref() }.next[0]
            .load(Ordering::Acquire, &guard);
        loop {
            let curr_ref = unsafe { curr.deref() };
            if matches!(curr_ref.key, Bound::PosInf) {
                return n;
            }
            if curr_ref.fully_linked.load(Ordering::Acquire)
                && !curr_ref.marked.load(Ordering::Acquire)
            {
                n += 1;
            }
            curr = curr_ref.next[0].load(Ordering::Acquire, &guard);
        }
    }
}

impl<T> Drop for LazySkipList<T> {
    fn drop(&mut self) {
        // SAFETY: unique access; walk the bottom level, which reaches every
        // node including the tail.
        let guard = unsafe { Guard::unprotected() };
        let mut cur = self.head.load(Ordering::Relaxed, &guard);
        while !cur.is_null() {
            // SAFETY: unique ownership.
            unsafe {
                let boxed = cur.into_owned().into_box();
                cur = if boxed.next.is_empty() {
                    Shared::null()
                } else {
                    boxed.next[0].load(Ordering::Relaxed, &guard)
                };
            }
        }
    }
}

impl<T> fmt::Debug for LazySkipList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazySkipList").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_core::ConcurrentSet;
    use std::sync::Arc;

    #[test]
    fn towers_link_and_unlink() {
        let s = LazySkipList::new();
        for k in 0..200 {
            assert!(s.insert(k));
        }
        for k in 0..200 {
            assert!(s.contains(&k));
        }
        for k in (0..200).rev() {
            assert!(s.remove(&k));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_insert_remove_distinct_ranges() {
        let s = Arc::new(LazySkipList::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let base = t * 1000;
                    for i in 0..250 {
                        assert!(s.insert(base + i));
                    }
                    for i in 0..250 {
                        assert!(s.remove(&(base + i)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(s.is_empty());
    }
}
