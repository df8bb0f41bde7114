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
//! - Values cross into the model as `u64` (a private `Bits` trait),
//!   which every wrapped primitive round-trips through losslessly on
//!   64-bit targets.
//!
//! The eight wrapped types share one method set, stamped in by one macro:
//! the weak-window protocol of a load, a store, a compare-exchange and a
//! read-modify-write is each written once.
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
use model::*;

/// The weak-memory side of a wrapped access: the machine's entry points
/// and the `u64` every value crosses into the model as.
#[cfg(feature = "stress")]
mod model {
    pub(crate) use crate::stress::explore::{
        weak_active, weak_fence, weak_load, weak_pre, weak_rmw, weak_store,
    };

    /// A wrapped primitive's value as the model sees it. Every wrapped
    /// primitive round-trips through `u64` losslessly on 64-bit targets.
    pub(crate) trait Bits: Copy {
        fn to_bits(self) -> u64;
        fn from_bits(bits: u64) -> Self;
    }

    macro_rules! int_bits {
        ($($prim:ty),*) => {$(
            impl Bits for $prim {
                #[inline(always)]
                fn to_bits(self) -> u64 {
                    self as u64
                }
                #[inline(always)]
                fn from_bits(bits: u64) -> Self {
                    bits as $prim
                }
            }
        )*};
    }

    int_bits!(u8, u32, u64, i64, usize, isize);

    /// Booleans cross as `0`/`1`.
    impl Bits for bool {
        #[inline(always)]
        fn to_bits(self) -> u64 {
            self as u64
        }
        #[inline(always)]
        fn from_bits(bits: u64) -> Self {
            bits != 0
        }
    }

    /// Pointers cross as their address bits.
    impl<T> Bits for *mut T {
        #[inline(always)]
        fn to_bits(self) -> u64 {
            self as usize as u64
        }
        #[inline(always)]
        fn from_bits(bits: u64) -> Self {
            bits as usize as *mut T
        }
    }
}

/// The one method set of every wrapped type, stamped into each `impl`.
/// Each body is the weak-window step (stress builds only) followed by
/// the plain `std` op; `$raw` is the wrapped `std` type, `$prim` its
/// value type.
macro_rules! methods {
    ($raw:ty, $prim:ty) => {
        #[inline(always)]
        pub const fn new(v: $prim) -> Self {
            Self { inner: <$raw>::new(v) }
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
                return Bits::from_bits(weak_load(self.addr(), order, cur.to_bits()));
            }
            self.inner.load(order)
        }

        #[inline(always)]
        pub fn store(&self, val: $prim, order: Ordering) {
            #[cfg(feature = "stress")]
            if weak_active() {
                weak_pre(self.addr(), true);
                // The model needs the superseded value for lazy location
                // init; a plain swap with the same ordering is equivalent
                // here.
                let prev = match order {
                    Ordering::Release | Ordering::Relaxed => self.inner.swap(val, order),
                    _ => self.inner.swap(val, Ordering::SeqCst),
                };
                weak_store(self.addr(), order, prev.to_bits(), val.to_bits());
                return;
            }
            self.inner.store(val, order)
        }

        methods!(@rmw $prim, swap, |prev, val| val);
        methods!(@cas $prim, compare_exchange);
        methods!(@cas $prim, compare_exchange_weak);
    };
    // A read-modify-write that stores `$new`, computed from the value
    // `$prev` it read and its operand `$val`.
    (@rmw $prim:ty, $method:ident, |$prev:ident, $val:ident| $new:expr) => {
        #[inline(always)]
        pub fn $method(&self, $val: $prim, order: Ordering) -> $prim {
            #[cfg(feature = "stress")]
            if weak_active() {
                weak_pre(self.addr(), true);
                let $prev = self.inner.$method($val, order);
                weak_rmw(self.addr(), order, $prev.to_bits(), Some(($new).to_bits()));
                return $prev;
            }
            self.inner.$method($val, order)
        }
    };
    (@cas $prim:ty, $method:ident) => {
        #[inline(always)]
        pub fn $method(
            &self,
            current: $prim,
            new: $prim,
            success: Ordering,
            failure: Ordering,
        ) -> Result<$prim, $prim> {
            #[cfg(feature = "stress")]
            if weak_active() {
                weak_pre(self.addr(), true);
                let result = self.inner.$method(current, new, success, failure);
                // A failure is a load of the latest value with the failure
                // ordering.
                match result {
                    Ok(prev) => weak_rmw(self.addr(), success, prev.to_bits(), Some(new.to_bits())),
                    Err(prev) => weak_rmw(self.addr(), failure, prev.to_bits(), None),
                }
                return result;
            }
            self.inner.$method(current, new, success, failure)
        }
    };
}

/// An instrumented `std` atomic of the same name over `$prim`, with the
/// shared method set plus the listed `fetch_*` read-modify-writes.
macro_rules! atomic {
    ($(#[$attr:meta])* $name:ident($prim:ty) {
        $($op:ident: |$prev:ident, $val:ident| $new:expr),* $(,)?
    }) => {
        $(#[$attr])*
        #[repr(transparent)]
        #[derive(Default)]
        pub struct $name {
            inner: std::sync::atomic::$name,
        }

        impl $name {
            methods!(std::sync::atomic::$name, $prim);
            $(methods!(@rmw $prim, $op, |$prev, $val| $new);)*
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
}

macro_rules! int_atomic {
    ($($name:ident($prim:ty)),*) => {$(
        atomic!(
            #[doc = concat!("Instrumented [`std::sync::atomic::", stringify!($name), "`].")]
            $name($prim) {
                fetch_add: |prev, val| prev.wrapping_add(val),
                fetch_sub: |prev, val| prev.wrapping_sub(val),
                fetch_and: |prev, val| prev & val,
                fetch_or: |prev, val| prev | val,
                fetch_max: |prev, val| prev.max(val),
            }
        );
    )*};
}

int_atomic!(
    AtomicUsize(usize),
    AtomicIsize(isize),
    AtomicU64(u64),
    AtomicI64(i64),
    AtomicU32(u32),
    AtomicU8(u8)
);

atomic!(
    /// Instrumented [`std::sync::atomic::AtomicBool`].
    AtomicBool(bool) {
        fetch_and: |prev, val| prev & val,
        fetch_or: |prev, val| prev | val,
    }
);

/// Instrumented [`std::sync::atomic::AtomicPtr`].
#[repr(transparent)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
}

impl<T> AtomicPtr<T> {
    methods!(std::sync::atomic::AtomicPtr<T>, *mut T);
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
        use Ordering::{Relaxed, SeqCst};

        macro_rules! check_int {
            ($($ty:ident),*) => {$({
                let mut a = $ty::new(5);
                assert_eq!(a.load(SeqCst), 5);
                a.store(7, SeqCst);
                assert_eq!(a.swap(9, SeqCst), 7);
                assert_eq!(a.compare_exchange(9, 11, SeqCst, SeqCst), Ok(9));
                assert_eq!(a.compare_exchange(9, 13, SeqCst, SeqCst), Err(11));
                // A weak CAS may fail spuriously, never with a stale value.
                while let Err(cur) = a.compare_exchange_weak(11, 12, SeqCst, Relaxed) {
                    assert_eq!(cur, 11);
                }
                assert_eq!(a.compare_exchange_weak(11, 13, SeqCst, Relaxed), Err(12));
                assert_eq!(a.fetch_add(1, SeqCst), 12);
                assert_eq!(a.fetch_sub(3, SeqCst), 13);
                assert_eq!(a.fetch_and(0b0110, SeqCst), 0b1010);
                assert_eq!(a.fetch_or(0b1000, SeqCst), 0b0010);
                assert_eq!(a.fetch_max(4, SeqCst), 10);
                assert_eq!(a.fetch_max(20, SeqCst), 10);
                *a.get_mut() += 1;
                assert_eq!(format!("{a:?}"), "21");
                assert_eq!(a.into_inner(), 21);
                assert_eq!($ty::default().into_inner(), 0);
                assert_eq!($ty::from(3).load(SeqCst), 3);
            })*};
        }
        check_int!(
            AtomicUsize,
            AtomicIsize,
            AtomicU64,
            AtomicI64,
            AtomicU32,
            AtomicU8
        );

        let i = AtomicI64::new(-3);
        assert_eq!(i.fetch_add(1, SeqCst), -3);
        assert_eq!(i.fetch_max(-5, SeqCst), -2);
        assert_eq!(i.load(SeqCst), -2);
        let u = AtomicU8::new(u8::MAX);
        assert_eq!(u.fetch_add(1, SeqCst), u8::MAX);
        assert_eq!(u.fetch_sub(1, SeqCst), 0);
        assert_eq!(u.load(SeqCst), u8::MAX);

        let mut b = AtomicBool::new(false);
        assert!(!b.load(SeqCst));
        b.store(true, SeqCst);
        assert!(b.swap(false, SeqCst));
        assert_eq!(b.compare_exchange(false, true, SeqCst, SeqCst), Ok(false));
        assert_eq!(b.compare_exchange(false, true, SeqCst, SeqCst), Err(true));
        while let Err(cur) = b.compare_exchange_weak(true, false, SeqCst, Relaxed) {
            assert!(cur);
        }
        assert!(!b.fetch_or(true, SeqCst));
        assert!(b.fetch_and(false, SeqCst));
        *b.get_mut() = true;
        assert_eq!(format!("{b:?}"), "true");
        assert!(b.into_inner());
        assert!(!AtomicBool::default().into_inner());
        assert!(AtomicBool::from(true).load(SeqCst));

        let (mut x, mut y) = (1u64, 2u64);
        let (px, py) = (&mut x as *mut u64, &mut y as *mut u64);
        let mut p = AtomicPtr::new(px);
        assert_eq!(p.load(SeqCst), px);
        p.store(py, SeqCst);
        assert_eq!(p.swap(px, SeqCst), py);
        assert_eq!(p.compare_exchange(px, py, SeqCst, SeqCst), Ok(px));
        assert_eq!(p.compare_exchange(px, py, SeqCst, SeqCst), Err(py));
        while let Err(cur) = p.compare_exchange_weak(py, px, SeqCst, Relaxed) {
            assert_eq!(cur, py);
        }
        assert_eq!(format!("{p:?}"), format!("{px:?}"));
        *p.get_mut() = py;
        assert_eq!(p.into_inner(), py);
        assert!(AtomicPtr::<u64>::default().load(SeqCst).is_null());

        fence(SeqCst);
    }
}
