//! Eight-lane `f64` vectors, the one loop the streaming kernels run over
//! them, and the one place an instance of a kernel is chosen.
//!
//! A streaming kernel ([`crate::dense`]'s dots and updates, the stencil-run
//! SpMV) is written once with [`lane_kernel!`], generic over a [`Lanes`]
//! type, and compiled as up to three instances: `Portable` (`[f64; 8]`, the
//! instance on every target but x86-64, where the tests keep it as a third
//! witness), `Sse2` (4 × `__m128d`, the x86-64 baseline) and `Avx2` (2 ×
//! `__m256d`, compiled with AVX2 enabled). [`Isa::detect`] picks the widest
//! one the CPU runs from std's cached CPUID answer, once per kernel call.
//!
//! The instances give the same bits. Element `i` of a loop is in lane
//! `i mod 8` at every width, every lane operation is the IEEE operation on
//! that lane's two numbers (an add, a subtract or a multiply, never fused),
//! and [`stream`] orders its sums the same way whatever the vector type.

use std::ops::{Add, Mul, Sub};

/// Lanes of one vector, at every width: the accumulators per sum in
/// [`stream`], so where an element's product is added never depends on
/// the instance.
pub(crate) const LANES: usize = 8;

/// One instance of the lane kernels: a zero-sized marker whose methods
/// make and take apart its vectors, [`Lanes::V`]. Arithmetic on the
/// vectors is the `+`, `-` and `*` operators, lane by lane.
pub(crate) trait Lanes: Copy {
    /// Eight `f64` lanes.
    type V: Copy + Add<Output = Self::V> + Sub<Output = Self::V> + Mul<Output = Self::V>;

    /// Every lane `+0.0`.
    fn zero(self) -> Self::V;

    /// Every lane `a`.
    fn splat(self, a: f64) -> Self::V;

    /// Lanes `0..8` from `p[0..8]`.
    ///
    /// # Safety
    /// `p` is valid for reading eight `f64`s (any alignment).
    unsafe fn load(self, p: *const f64) -> Self::V;

    /// Lanes `0..8` to `p[0..8]`.
    ///
    /// # Safety
    /// `p` is valid for writing eight `f64`s (any alignment).
    unsafe fn store(self, v: Self::V, p: *mut f64);

    /// The lanes in order.
    fn lanes(self, v: Self::V) -> [f64; LANES] {
        let mut a = [0.0; LANES];
        // SAFETY: `a` holds eight `f64`s.
        unsafe { self.store(v, a.as_mut_ptr()) };
        a
    }
}

/// The loop under every streaming kernel, over `0..n` in lane groups of
/// [`LANES`]: load group `i..i + 8` of each of the `I` inputs, run `term`
/// on it, store its `O` results to the same group of each output and add
/// its `K` sums into `K` vectors of lane accumulators that start at `+0.0`.
/// Each sum is then its lanes folded `-0.0 + l0 + … + l7`, plus the last
/// `n mod 8` elements' terms one at a time in index order: those go through
/// `term` as one group padded with `+0.0`, and only their lanes are stored
/// and added.
///
/// `term` sees only loaded lanes, so no two lanes of one vector ever mix
/// and a kernel's `k`-th sum is exactly the `k`-th sum alone would be.
///
/// # Safety
/// Every input is valid for reading and every output for writing `n`
/// `f64`s. An output may be an input (an in-place update: group `i` is
/// loaded before it is stored), but no other two may overlap.
#[inline(always)]
pub(crate) unsafe fn stream<L: Lanes, const I: usize, const O: usize, const K: usize>(
    l: L,
    n: usize,
    ins: [*const f64; I],
    outs: [*mut f64; O],
    term: impl Fn([L::V; I]) -> ([L::V; O], [L::V; K]),
) -> [f64; K] {
    let full = n - n % LANES;
    let mut acc = [l.zero(); K];
    let mut i = 0;
    while i < full {
        let mut v = [l.zero(); I];
        for (vj, p) in v.iter_mut().zip(ins) {
            // SAFETY: `i + 8 ≤ full ≤ n` and each input holds `n` elements.
            *vj = unsafe { l.load(p.add(i)) };
        }
        let (o, s) = term(v);
        for (p, oj) in outs.iter().zip(o) {
            // SAFETY: as for the loads; no other output overlaps this one.
            unsafe { l.store(oj, p.add(i)) };
        }
        for (a, sk) in acc.iter_mut().zip(s) {
            *a = *a + sk;
        }
        i += LANES;
    }
    let mut sums = [0.0; K];
    for (s, a) in sums.iter_mut().zip(acc) {
        *s = l.lanes(a).into_iter().fold(-0.0, |s, lane| s + lane);
    }
    let rem = n - full;
    if rem > 0 {
        let mut padded = [[0.0; LANES]; I];
        let mut v = [l.zero(); I];
        for ((buf, vj), p) in padded.iter_mut().zip(&mut v).zip(ins) {
            // SAFETY: elements `full..n` of each input are readable; `buf`
            // is a local array of eight.
            unsafe {
                std::ptr::copy_nonoverlapping(p.add(full), buf.as_mut_ptr(), rem);
                *vj = l.load(buf.as_ptr());
            }
        }
        let (o, s) = term(v);
        for (p, oj) in outs.iter().zip(o) {
            // SAFETY: elements `full..n` of each output are writable, and
            // the lanes array is a local of eight.
            unsafe { std::ptr::copy_nonoverlapping(l.lanes(oj).as_ptr(), p.add(full), rem) };
        }
        for (s, sk) in sums.iter_mut().zip(s) {
            for lane in &l.lanes(sk)[..rem] {
                *s += lane;
            }
        }
    }
    sums
}

/// Which instance a kernel call runs: the value [`lane_kernel!`]'s
/// functions take first. The AVX2 variant carries the [`Avx2`] marker,
/// which only a CPU with AVX2 hands out.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Isa {
    /// `[f64; 8]` arithmetic: the instance on targets other than x86-64,
    /// where it is only the tests' reference.
    #[cfg(any(test, not(target_arch = "x86_64")))]
    Portable,
    /// Four `__m128d`: the x86-64 baseline.
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// Two `__m256d`, compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
}

impl Isa {
    /// The widest instance this CPU runs. `is_x86_feature_detected!` asks
    /// CPUID once per process and answers from a cached word afterwards;
    /// the kernels ask once per call, never per lane group.
    #[inline]
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            match Avx2::detect() {
                Some(l) => Isa::Avx2(l),
                None => Isa::Sse2,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Portable
    }

    /// Every instance this CPU runs, narrowest first.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Isa> {
        let mut all = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            all.push(Isa::Sse2);
            match Avx2::detect() {
                Some(l) => all.push(Isa::Avx2(l)),
                None => eprintln!("this CPU has no AVX2: the AVX2 instance is not checked"),
            }
        }
        all
    }
}

/// `fn NAME(isa: Isa, args…) -> R` that runs the body with `L` (a [`Lanes`]
/// type) and `l` (its marker) of the instance `isa` names:
///
/// ```ignore
/// lane_kernel! {
///     /// Docs.
///     fn dot_on<L>(l; x: &[f64], y: &[f64]) -> f64 { … }
/// }
/// ```
///
/// The body is compiled once per instance: as a generic function inlined
/// into the match for the portable and SSE2 instances, and again inside a
/// `#[target_feature(enable = "avx2")]` function of the kernel's own
/// arguments for AVX2 — slices reach it as arguments and keep their
/// `noalias`, and everything it inlines is compiled for AVX2 too. Nothing
/// enables `fma`: a fused multiply-add rounds once where the other
/// instances round twice.
macro_rules! lane_kernel {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident<$L:ident>($l:ident $(; $($arg:ident: $ty:ty),*)?) $(-> $ret:ty)?
        $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name(isa: $crate::lanes::Isa $($(, $arg: $ty)*)?) $(-> $ret)? {
            #[inline(always)]
            fn body<$L: $crate::lanes::Lanes>($l: $L $($(, $arg: $ty)*)?) $(-> $ret)? $body
            // The body again rather than a call of `body`: closures in it
            // must be defined inside this function to be compiled for AVX2
            // when the optimizer leaves them out of line.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($l: $crate::lanes::Avx2 $($(, $arg: $ty)*)?) $(-> $ret)? {
                #[allow(unused_imports)]
                use $crate::lanes::Lanes as _;
                #[allow(dead_code)]
                type $L = $crate::lanes::Avx2;
                $body
            }
            match isa {
                #[cfg(any(test, not(target_arch = "x86_64")))]
                $crate::lanes::Isa::Portable => body($crate::lanes::Portable $($(, $arg)*)?),
                #[cfg(target_arch = "x86_64")]
                $crate::lanes::Isa::Sse2 => body($crate::lanes::Sse2 $($(, $arg)*)?),
                // SAFETY: the `Avx2` marker exists only on a CPU with AVX2.
                #[cfg(target_arch = "x86_64")]
                $crate::lanes::Isa::Avx2(l) => unsafe { avx2(l $($(, $arg)*)?) },
            }
        }
    };
}
pub(crate) use lane_kernel;

#[cfg(any(test, not(target_arch = "x86_64")))]
pub(crate) use portable::Portable;

#[cfg(any(test, not(target_arch = "x86_64")))]
mod portable {
    use super::{Lanes, LANES};
    use std::ops::{Add, Mul, Sub};

    /// The instance for any target: eight `f64`s, one operation a lane.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Portable;

    /// [`Portable`]'s vector.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct PortableV([f64; LANES]);

    macro_rules! portable_op {
        ($tr:ident, $f:ident, $op:tt) => {
            impl $tr for PortableV {
                type Output = PortableV;
                #[inline(always)]
                fn $f(self, o: PortableV) -> PortableV {
                    let mut r = self.0;
                    for (a, b) in r.iter_mut().zip(o.0) {
                        *a $op b;
                    }
                    PortableV(r)
                }
            }
        };
    }
    portable_op!(Add, add, +=);
    portable_op!(Sub, sub, -=);
    portable_op!(Mul, mul, *=);

    impl Lanes for Portable {
        type V = PortableV;

        #[inline(always)]
        fn zero(self) -> PortableV {
            PortableV([0.0; LANES])
        }

        #[inline(always)]
        fn splat(self, a: f64) -> PortableV {
            PortableV([a; LANES])
        }

        #[inline(always)]
        unsafe fn load(self, p: *const f64) -> PortableV {
            // SAFETY: the caller guarantees eight readable `f64`s at `p`.
            PortableV(unsafe { p.cast::<[f64; LANES]>().read_unaligned() })
        }

        #[inline(always)]
        unsafe fn store(self, v: PortableV, p: *mut f64) {
            // SAFETY: the caller guarantees eight writable `f64`s at `p`.
            unsafe { p.cast::<[f64; LANES]>().write_unaligned(v.0) }
        }

        #[inline(always)]
        fn lanes(self, v: PortableV) -> [f64; LANES] {
            v.0
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{Avx2, Sse2};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, LANES};
    use std::arch::x86_64::*;
    use std::ops::{Add, Mul, Sub};

    /// The x86-64 baseline instance: four `__m128d`, lanes `2j, 2j + 1` in
    /// register `j`. SSE2 is part of every x86-64 target, so its
    /// intrinsics need no run-time check (only an `unsafe` block).
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Sse2;

    /// [`Sse2`]'s vector.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Sse2V([__m128d; 4]);

    macro_rules! sse2_op {
        ($tr:ident, $f:ident, $intr:ident) => {
            impl $tr for Sse2V {
                type Output = Sse2V;
                #[inline(always)]
                fn $f(self, o: Sse2V) -> Sse2V {
                    let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (self.0, o.0);
                    // SAFETY: SSE2 is part of every x86-64 target.
                    unsafe { Sse2V([$intr(a0, b0), $intr(a1, b1), $intr(a2, b2), $intr(a3, b3)]) }
                }
            }
        };
    }
    sse2_op!(Add, add, _mm_add_pd);
    sse2_op!(Sub, sub, _mm_sub_pd);
    sse2_op!(Mul, mul, _mm_mul_pd);

    impl Lanes for Sse2 {
        type V = Sse2V;

        #[inline(always)]
        fn zero(self) -> Sse2V {
            // SAFETY: SSE2 is part of every x86-64 target.
            unsafe { Sse2V([_mm_setzero_pd(); 4]) }
        }

        #[inline(always)]
        fn splat(self, a: f64) -> Sse2V {
            // SAFETY: SSE2 is part of every x86-64 target.
            unsafe { Sse2V([_mm_set1_pd(a); 4]) }
        }

        #[inline(always)]
        unsafe fn load(self, p: *const f64) -> Sse2V {
            // SAFETY: the caller guarantees eight readable `f64`s at `p`;
            // `loadu` takes any alignment.
            unsafe {
                Sse2V([
                    _mm_loadu_pd(p),
                    _mm_loadu_pd(p.add(2)),
                    _mm_loadu_pd(p.add(4)),
                    _mm_loadu_pd(p.add(6)),
                ])
            }
        }

        #[inline(always)]
        unsafe fn store(self, v: Sse2V, p: *mut f64) {
            // SAFETY: the caller guarantees eight writable `f64`s at `p`;
            // `storeu` takes any alignment.
            unsafe {
                _mm_storeu_pd(p, v.0[0]);
                _mm_storeu_pd(p.add(2), v.0[1]);
                _mm_storeu_pd(p.add(4), v.0[2]);
                _mm_storeu_pd(p.add(6), v.0[3]);
            }
        }
    }

    /// The AVX2 instance: two `__m256d`, lanes `0..4` and `4..8`. The field
    /// is private, so the one way to hold an `Avx2` is [`Avx2::detect`] on
    /// a CPU that has AVX2 — and an [`Avx2V`] only comes from an `Avx2`:
    /// holding either is what makes its intrinsics sound to call.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Avx2(());

    impl Avx2 {
        /// The marker, when this CPU has AVX2 (std's cached CPUID answer).
        #[inline]
        pub(crate) fn detect() -> Option<Avx2> {
            is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }
    }

    /// [`Avx2`]'s vector.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Avx2V([__m256d; 2]);

    macro_rules! avx2_op {
        ($tr:ident, $f:ident, $intr:ident) => {
            impl $tr for Avx2V {
                type Output = Avx2V;
                #[inline(always)]
                fn $f(self, o: Avx2V) -> Avx2V {
                    // SAFETY: an `Avx2V` exists only on a CPU with AVX2.
                    unsafe { Avx2V([$intr(self.0[0], o.0[0]), $intr(self.0[1], o.0[1])]) }
                }
            }
        };
    }
    avx2_op!(Add, add, _mm256_add_pd);
    avx2_op!(Sub, sub, _mm256_sub_pd);
    avx2_op!(Mul, mul, _mm256_mul_pd);

    impl Lanes for Avx2 {
        type V = Avx2V;

        #[inline(always)]
        fn zero(self) -> Avx2V {
            // SAFETY: `self` exists only on a CPU with AVX2.
            unsafe { Avx2V([_mm256_setzero_pd(); 2]) }
        }

        #[inline(always)]
        fn splat(self, a: f64) -> Avx2V {
            // SAFETY: `self` exists only on a CPU with AVX2.
            unsafe { Avx2V([_mm256_set1_pd(a); 2]) }
        }

        #[inline(always)]
        unsafe fn load(self, p: *const f64) -> Avx2V {
            // SAFETY: `self` exists only on a CPU with AVX2; the caller
            // guarantees eight readable `f64`s at `p`, any alignment.
            unsafe { Avx2V([_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(LANES / 2))]) }
        }

        #[inline(always)]
        unsafe fn store(self, v: Avx2V, p: *mut f64) {
            // SAFETY: `self` exists only on a CPU with AVX2; the caller
            // guarantees eight writable `f64`s at `p`, any alignment.
            unsafe {
                _mm256_storeu_pd(p, v.0[0]);
                _mm256_storeu_pd(p.add(LANES / 2), v.0[1]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each instance's lanes are the scalar operations on the same
    /// numbers, `−0.0` and NaN payloads included, and its loads and
    /// stores keep lane order.
    #[test]
    fn every_instance_is_the_scalar_operation_lane_by_lane() {
        let nan = f64::from_bits(0x7ff8_0000_0000_00a5);
        let a = [1.5, -0.0, nan, 3.0e300, -2.0, 0.1, f64::INFINITY, 7.0];
        let b = [-0.0, -0.0, 2.0, 3.0e300, 0.3, 0.2, 1.0, -7.0];
        fn run<L: Lanes>(l: L, a: &[f64; 8], b: &[f64; 8]) -> [[f64; 8]; 4] {
            // SAFETY: both arrays hold eight elements.
            let (x, y) = unsafe { (l.load(a.as_ptr()), l.load(b.as_ptr())) };
            [l.lanes(x + y), l.lanes(x - y), l.lanes(x * y), l.lanes(l.splat(a[2]) + l.zero())]
        }
        let want = [0, 1, 2, 3].map(|op| {
            std::array::from_fn(|i| match op {
                0 => a[i] + b[i],
                1 => a[i] - b[i],
                2 => a[i] * b[i],
                _ => a[2] + 0.0,
            })
        });
        let bits = |r: [[f64; 8]; 4]| r.map(|v| v.map(f64::to_bits));
        for isa in Isa::available() {
            let got = match isa {
                Isa::Portable => run(Portable, &a, &b),
                #[cfg(target_arch = "x86_64")]
                Isa::Sse2 => run(Sse2, &a, &b),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2(l) => run(l, &a, &b),
            };
            assert_eq!(bits(got), bits(want), "{isa:?}");
        }
    }
}
