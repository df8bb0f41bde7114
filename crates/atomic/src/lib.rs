//! Instrumented atomics facade for the cds family.
//!
//! Every crate in the workspace performs its atomic operations through the
//! types in this crate rather than `std::sync::atomic` directly (a repo
//! lint enforces this). In a default build each wrapper is a transparent
//! `#[inline(always)]` pass-through with zero cost — the types have the
//! same layout as their std counterparts and every method compiles to the
//! single underlying instruction.
//!
//! Under the `stress` feature the crate also holds the scheduler that
//! drives those atomics ([`stress`]: PCT sampling, systematic exploration
//! and the weak-memory machine — loom's shape). Inside a weak-memory
//! explore window every operation of a registered worker calls it
//! directly with its address, access class, and [`Ordering`]: the access
//! becomes a tagged yield point, and the machine may *rewrite the value
//! returned by a load* so the explorer can enumerate
//! C11-ordering-visible behaviors (stale reads permitted by
//! `Relaxed`/`Acquire` annotations), not just thread interleavings.
//! Everywhere else — other threads, PCT rounds, SC explore windows — a
//! stress-build operation is the plain `std` op. Without the feature
//! [`stress`] keeps its inert API (`install`, `register`, `yield_point`,
//! seed streams) so callers need no `cfg`.
//!
//! Two invariants keep the instrumented world coherent:
//!
//! - The real `std` atomic always executes, so real memory always holds
//!   the *latest* value in modification order. Only load results are
//!   virtualized; RMWs (which C11 requires to read the latest write)
//!   always observe real memory, so the model and the machine agree on
//!   every CAS outcome.
//! - Values cross into the model as `u64`, which every wrapped
//!   primitive round-trips through losslessly on 64-bit targets.
//!
//! Infrastructure that must *not* be modeled (the scheduler itself,
//! telemetry counters, test harness bookkeeping) uses [`raw`], a plain
//! re-export of `std::sync::atomic`, so its traffic never perturbs
//! explored schedules.

pub use std::sync::atomic::Ordering;

/// Plain `std::sync::atomic` re-export for infrastructure that must stay
/// invisible to the stress scheduler: the scheduler's own state, cds-obs
/// telemetry shards, lincheck recorders, and bench drivers. Using `raw`
/// instead of importing `std::sync::atomic` keeps the repo lint
/// meaningful — every appearance of the std path outside this crate is a
/// bug, while `raw` users are self-documenting exceptions.
pub mod raw {
    pub use std::sync::atomic::*;
}

pub mod stress;

#[cfg(feature = "stress")]
use stress::explore::{weak_active, weak_fence, weak_load, weak_pre, weak_rmw, weak_store};

macro_rules! int_atomic {
    ($(#[$attr:meta])* $name:ident, $raw:ident, $prim:ty) => {
        $(#[$attr])*
        #[repr(transparent)]
        #[derive(Default)]
        pub struct $name {
            inner: std::sync::atomic::$raw,
        }

        impl $name {
            #[inline(always)]
            pub const fn new(v: $prim) -> Self {
                Self { inner: std::sync::atomic::$raw::new(v) }
            }

            #[inline(always)]
            #[cfg_attr(not(feature = "stress"), allow(dead_code))]
            fn addr(&self) -> usize {
                self as *const _ as usize
            }

            /// Consumes the atomic; exclusive access, never instrumented.
            #[inline(always)]
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }

            /// Mutable access; exclusive, never instrumented.
            #[inline(always)]
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            #[inline(always)]
            pub fn load(&self, order: Ordering) -> $prim {
                #[cfg(feature = "stress")]
                if weak_active() {
                    weak_pre(self.addr(), false);
                    let cur = self.inner.load(order);
                    return weak_load(self.addr(), order, cur as u64) as $prim;
                }
                self.inner.load(order)
            }

            #[inline(always)]
            pub fn store(&self, val: $prim, order: Ordering) {
                #[cfg(feature = "stress")]
                if weak_active() {
                    weak_pre(self.addr(), true);
                    let prev = match order {
                        Ordering::Release | Ordering::Relaxed => {
                            // The model needs the superseded value for
                            // lazy location init; a plain swap with the
                            // same ordering is equivalent here.
                            self.inner.swap(val, order)
                        }
                        _ => self.inner.swap(val, Ordering::SeqCst),
                    };
                    weak_store(self.addr(), order, prev as u64, val as u64);
                    return;
                }
                self.inner.store(val, order)
            }

            #[inline(always)]
            pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                #[cfg(feature = "stress")]
                if weak_active() {
                    weak_pre(self.addr(), true);
                    let prev = self.inner.swap(val, order);
                    weak_rmw(self.addr(), order, prev as u64, Some(val as u64));
                    return prev;
                }
                self.inner.swap(val, order)
            }

            #[inline(always)]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                #[cfg(feature = "stress")]
                if weak_active() {
                    weak_pre(self.addr(), true);
                    return match self.inner.compare_exchange(current, new, success, failure) {
                        Ok(prev) => {
                            weak_rmw(self.addr(), success, prev as u64, Some(new as u64));
                            Ok(prev)
                        }
                        Err(prev) => {
                            weak_rmw(self.addr(), failure, prev as u64, None);
                            Err(prev)
                        }
                    };
                }
                self.inner.compare_exchange(current, new, success, failure)
            }

            #[inline(always)]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                #[cfg(feature = "stress")]
                if weak_active() {
                    weak_pre(self.addr(), true);
                    return match self.inner.compare_exchange_weak(current, new, success, failure) {
                        Ok(prev) => {
                            weak_rmw(self.addr(), success, prev as u64, Some(new as u64));
                            Ok(prev)
                        }
                        Err(prev) => {
                            weak_rmw(self.addr(), failure, prev as u64, None);
                            Err(prev)
                        }
                    };
                }
                self.inner.compare_exchange_weak(current, new, success, failure)
            }

            int_atomic!(@rmw $prim, fetch_add, wrapping_add);
            int_atomic!(@rmw $prim, fetch_sub, wrapping_sub);

            #[inline(always)]
            pub fn fetch_and(&self, val: $prim, order: Ordering) -> $prim {
                #[cfg(feature = "stress")]
                if weak_active() {
                    weak_pre(self.addr(), true);
                    let prev = self.inner.fetch_and(val, order);
                    weak_rmw(self.addr(), order, prev as u64, Some((prev & val) as u64));
                    return prev;
                }
                self.inner.fetch_and(val, order)
            }

            #[inline(always)]
            pub fn fetch_or(&self, val: $prim, order: Ordering) -> $prim {
                #[cfg(feature = "stress")]
                if weak_active() {
                    weak_pre(self.addr(), true);
                    let prev = self.inner.fetch_or(val, order);
                    weak_rmw(self.addr(), order, prev as u64, Some((prev | val) as u64));
                    return prev;
                }
                self.inner.fetch_or(val, order)
            }

            #[inline(always)]
            pub fn fetch_max(&self, val: $prim, order: Ordering) -> $prim {
                #[cfg(feature = "stress")]
                if weak_active() {
                    weak_pre(self.addr(), true);
                    let prev = self.inner.fetch_max(val, order);
                    let new = if val > prev { val } else { prev };
                    weak_rmw(self.addr(), order, prev as u64, Some(new as u64));
                    return prev;
                }
                self.inner.fetch_max(val, order)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // Uninstrumented read: Debug output must never influence
                // or participate in an explored schedule.
                std::fmt::Debug::fmt(&self.inner, f)
            }
        }

        impl From<$prim> for $name {
            #[inline(always)]
            fn from(v: $prim) -> Self {
                Self::new(v)
            }
        }
    };
    (@rmw $prim:ty, $method:ident, $combine:ident) => {
        #[inline(always)]
        pub fn $method(&self, val: $prim, order: Ordering) -> $prim {
            #[cfg(feature = "stress")]
            if weak_active() {
                weak_pre(self.addr(), true);
                let prev = self.inner.$method(val, order);
                weak_rmw(self.addr(), order, prev as u64, Some(prev.$combine(val) as u64));
                return prev;
            }
            self.inner.$method(val, order)
        }
    };
}

int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicUsize`].
    AtomicUsize, AtomicUsize, usize
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicIsize`].
    AtomicIsize, AtomicIsize, isize
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicU64`].
    AtomicU64, AtomicU64, u64
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicI64`].
    AtomicI64, AtomicI64, i64
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicU32`].
    AtomicU32, AtomicU32, u32
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicU8`].
    AtomicU8, AtomicU8, u8
);

/// Instrumented [`std::sync::atomic::AtomicBool`]. Values cross into the
/// model as `0`/`1`.
#[repr(transparent)]
#[derive(Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    #[inline(always)]
    pub const fn new(v: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }

    #[inline(always)]
    #[cfg_attr(not(feature = "stress"), allow(dead_code))]
    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    #[inline(always)]
    pub fn into_inner(self) -> bool {
        self.inner.into_inner()
    }

    #[inline(always)]
    pub fn get_mut(&mut self) -> &mut bool {
        self.inner.get_mut()
    }

    #[inline(always)]
    pub fn load(&self, order: Ordering) -> bool {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), false);
            let cur = self.inner.load(order);
            return weak_load(self.addr(), order, cur as u64) != 0;
        }
        self.inner.load(order)
    }

    #[inline(always)]
    pub fn store(&self, val: bool, order: Ordering) {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), true);
            let prev = match order {
                Ordering::Release | Ordering::Relaxed => self.inner.swap(val, order),
                _ => self.inner.swap(val, Ordering::SeqCst),
            };
            weak_store(self.addr(), order, prev as u64, val as u64);
            return;
        }
        self.inner.store(val, order)
    }

    #[inline(always)]
    pub fn swap(&self, val: bool, order: Ordering) -> bool {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), true);
            let prev = self.inner.swap(val, order);
            weak_rmw(self.addr(), order, prev as u64, Some(val as u64));
            return prev;
        }
        self.inner.swap(val, order)
    }

    #[inline(always)]
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), true);
            return match self.inner.compare_exchange(current, new, success, failure) {
                Ok(prev) => {
                    weak_rmw(self.addr(), success, prev as u64, Some(new as u64));
                    Ok(prev)
                }
                Err(prev) => {
                    weak_rmw(self.addr(), failure, prev as u64, None);
                    Err(prev)
                }
            };
        }
        self.inner.compare_exchange(current, new, success, failure)
    }

    #[inline(always)]
    pub fn fetch_and(&self, val: bool, order: Ordering) -> bool {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), true);
            let prev = self.inner.fetch_and(val, order);
            weak_rmw(self.addr(), order, prev as u64, Some((prev & val) as u64));
            return prev;
        }
        self.inner.fetch_and(val, order)
    }

    #[inline(always)]
    pub fn fetch_or(&self, val: bool, order: Ordering) -> bool {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), true);
            let prev = self.inner.fetch_or(val, order);
            weak_rmw(self.addr(), order, prev as u64, Some((prev | val) as u64));
            return prev;
        }
        self.inner.fetch_or(val, order)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.inner, f)
    }
}

impl From<bool> for AtomicBool {
    #[inline(always)]
    fn from(v: bool) -> Self {
        Self::new(v)
    }
}

/// Instrumented [`std::sync::atomic::AtomicPtr`]. Pointers cross into the
/// model as their address bits.
#[repr(transparent)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
}

impl<T> AtomicPtr<T> {
    #[inline(always)]
    pub const fn new(p: *mut T) -> Self {
        Self {
            inner: std::sync::atomic::AtomicPtr::new(p),
        }
    }

    #[inline(always)]
    #[cfg_attr(not(feature = "stress"), allow(dead_code))]
    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    #[inline(always)]
    pub fn into_inner(self) -> *mut T {
        self.inner.into_inner()
    }

    #[inline(always)]
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.inner.get_mut()
    }

    #[inline(always)]
    pub fn load(&self, order: Ordering) -> *mut T {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), false);
            let cur = self.inner.load(order);
            return weak_load(self.addr(), order, cur as usize as u64) as usize as *mut T;
        }
        self.inner.load(order)
    }

    #[inline(always)]
    pub fn store(&self, val: *mut T, order: Ordering) {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), true);
            let prev = match order {
                Ordering::Release | Ordering::Relaxed => self.inner.swap(val, order),
                _ => self.inner.swap(val, Ordering::SeqCst),
            };
            weak_store(
                self.addr(),
                order,
                prev as usize as u64,
                val as usize as u64,
            );
            return;
        }
        self.inner.store(val, order)
    }

    #[inline(always)]
    pub fn swap(&self, val: *mut T, order: Ordering) -> *mut T {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), true);
            let prev = self.inner.swap(val, order);
            weak_rmw(
                self.addr(),
                order,
                prev as usize as u64,
                Some(val as usize as u64),
            );
            return prev;
        }
        self.inner.swap(val, order)
    }

    #[inline(always)]
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), true);
            return match self.inner.compare_exchange(current, new, success, failure) {
                Ok(prev) => {
                    weak_rmw(
                        self.addr(),
                        success,
                        prev as usize as u64,
                        Some(new as usize as u64),
                    );
                    Ok(prev)
                }
                Err(prev) => {
                    weak_rmw(self.addr(), failure, prev as usize as u64, None);
                    Err(prev)
                }
            };
        }
        self.inner.compare_exchange(current, new, success, failure)
    }

    #[inline(always)]
    pub fn compare_exchange_weak(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        #[cfg(feature = "stress")]
        if weak_active() {
            weak_pre(self.addr(), true);
            return match self
                .inner
                .compare_exchange_weak(current, new, success, failure)
            {
                Ok(prev) => {
                    weak_rmw(
                        self.addr(),
                        success,
                        prev as usize as u64,
                        Some(new as usize as u64),
                    );
                    Ok(prev)
                }
                Err(prev) => {
                    weak_rmw(self.addr(), failure, prev as usize as u64, None);
                    Err(prev)
                }
            };
        }
        self.inner
            .compare_exchange_weak(current, new, success, failure)
    }
}

impl<T> Default for AtomicPtr<T> {
    #[inline(always)]
    fn default() -> Self {
        Self::new(std::ptr::null_mut())
    }
}

impl<T> std::fmt::Debug for AtomicPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.inner, f)
    }
}

/// Instrumented [`std::sync::atomic::fence`].
#[inline(always)]
pub fn fence(order: Ordering) {
    #[cfg(feature = "stress")]
    if weak_active() {
        weak_pre(0, false);
        std::sync::atomic::fence(order);
        weak_fence(order);
        return;
    }
    std::sync::atomic::fence(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_transparent() {
        use std::mem::{align_of, size_of};
        assert_eq!(
            size_of::<AtomicUsize>(),
            size_of::<std::sync::atomic::AtomicUsize>()
        );
        assert_eq!(
            align_of::<AtomicUsize>(),
            align_of::<std::sync::atomic::AtomicUsize>()
        );
        assert_eq!(
            size_of::<AtomicPtr<u8>>(),
            size_of::<std::sync::atomic::AtomicPtr<u8>>()
        );
        assert_eq!(size_of::<AtomicBool>(), 1);
    }

    #[test]
    fn passthrough_semantics() {
        let a = AtomicUsize::new(5);
        assert_eq!(a.load(Ordering::SeqCst), 5);
        a.store(7, Ordering::SeqCst);
        assert_eq!(a.swap(9, Ordering::SeqCst), 7);
        assert_eq!(
            a.compare_exchange(9, 11, Ordering::SeqCst, Ordering::SeqCst),
            Ok(9)
        );
        assert_eq!(
            a.compare_exchange(9, 13, Ordering::SeqCst, Ordering::SeqCst),
            Err(11)
        );
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 11);
        assert_eq!(a.fetch_sub(2, Ordering::SeqCst), 12);
        assert_eq!(a.into_inner(), 10);

        let b = AtomicBool::new(false);
        assert!(!b.swap(true, Ordering::SeqCst));
        assert!(b.fetch_and(false, Ordering::SeqCst));
        assert!(!b.load(Ordering::SeqCst));

        let mut x = 1u64;
        let p = AtomicPtr::new(&mut x as *mut u64);
        assert_eq!(p.load(Ordering::SeqCst), &mut x as *mut u64);
        fence(Ordering::SeqCst);

        let i = AtomicI64::new(-3);
        assert_eq!(i.fetch_add(1, Ordering::SeqCst), -3);
        assert_eq!(i.load(Ordering::SeqCst), -2);
    }
}
