//! In-tree stand-in for the `proptest` crate, so the workspace builds
//! without a network registry. It keeps the same surface the workspace's
//! property tests use — `proptest!`, `prop_assert!`, `prop_assert_eq!`,
//! `Strategy` with `prop_map`/`prop_flat_map`, ranges and tuples as
//! strategies, `collection::vec`, `sample::select`, `any`, and
//! `ProptestConfig::with_cases` — but generates cases from a fixed
//! per-test seed and reports the first failing case without shrinking.

pub mod test_runner {
    /// Runner configuration; only `cases` is honoured here.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run each property `cases` times.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic xorshift64* generator; every property seeds one from
    /// its own name so runs are reproducible without a persistence file.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test name (FNV-1a over the bytes).
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng { state: if h == 0 { 0x9e3779b97f4a7c15 } else { h } }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }

        /// Uniform in the unit interval `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values; the heart of the API. Unlike real proptest
    /// there is no value tree / shrinking — `generate` yields one value.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Derive a second strategy from each generated value.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` adapter.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// `prop_flat_map` adapter.
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// References to strategies are strategies (lets helpers take either).
    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + rng.below(span + 1) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(usize, u8, u16, u32, u64, isize, i8, i16, i32, i64);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (rng.unit_f64() as $t) * (self.end - self.start)
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    lo + (rng.unit_f64() as $t) * (hi - lo)
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    /// String literals act as regex-flavoured string strategies, as in
    /// real proptest. Supported syntax: literal characters, `.` (any
    /// printable ASCII), `[a-z0-9_]` classes built from ranges and single
    /// characters, and the quantifiers `{m,n}`, `{n}`, `?`, `*`, `+`
    /// (unbounded ones capped at 8 repeats).
    impl Strategy for str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    #[derive(Debug, Clone)]
    enum CharSet {
        /// `.`: any printable ASCII character.
        Dot,
        /// A union of inclusive character ranges.
        Ranges(Vec<(char, char)>),
    }

    impl CharSet {
        fn pick(&self, rng: &mut TestRng) -> char {
            match self {
                CharSet::Dot => (0x20u8 + rng.below(0x5f) as u8) as char,
                CharSet::Ranges(rs) => {
                    let total: u64 = rs.iter().map(|&(a, b)| b as u64 - a as u64 + 1).sum();
                    let mut k = rng.below(total);
                    for &(a, b) in rs {
                        let span = b as u64 - a as u64 + 1;
                        if k < span {
                            return char::from_u32(a as u32 + k as u32).unwrap_or(a);
                        }
                        k -= span;
                    }
                    unreachable!("pick index within total")
                }
            }
        }
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let set = match c {
                '.' => CharSet::Dot,
                '[' => {
                    let mut ranges = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        match chars.next() {
                            None | Some(']') => break,
                            Some('-') if prev.is_some() && chars.peek() != Some(&']') => {
                                let lo = prev.take().expect("checked");
                                let hi = chars.next().expect("peeked");
                                ranges.push((lo, hi));
                            }
                            Some(ch) => {
                                if let Some(p) = prev.replace(ch) {
                                    ranges.push((p, p));
                                }
                            }
                        }
                    }
                    if let Some(p) = prev {
                        ranges.push((p, p));
                    }
                    assert!(!ranges.is_empty(), "empty character class in '{pattern}'");
                    CharSet::Ranges(ranges)
                }
                '\\' => {
                    let esc = chars.next().unwrap_or('\\');
                    CharSet::Ranges(vec![(esc, esc)])
                }
                lit => CharSet::Ranges(vec![(lit, lit)]),
            };
            // Optional quantifier after the atom.
            let (lo, hi) = match chars.peek() {
                Some('{') => {
                    chars.next();
                    let mut spec = String::new();
                    for q in chars.by_ref() {
                        if q == '}' {
                            break;
                        }
                        spec.push(q);
                    }
                    match spec.split_once(',') {
                        Some((a, b)) => (
                            a.trim().parse().expect("bad quantifier"),
                            b.trim().parse().expect("bad quantifier"),
                        ),
                        None => {
                            let n: usize = spec.trim().parse().expect("bad quantifier");
                            (n, n)
                        }
                    }
                }
                Some('?') => {
                    chars.next();
                    (0, 1)
                }
                Some('*') => {
                    chars.next();
                    (0, 8)
                }
                Some('+') => {
                    chars.next();
                    (1, 8)
                }
                _ => (1, 1),
            };
            let count = lo + if hi > lo { rng.below((hi - lo + 1) as u64) as usize } else { 0 };
            for _ in 0..count {
                out.push(set.pick(rng));
            }
        }
        out
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, G);
    tuple_strategy!(A, B, C, D, E, G, H);
    tuple_strategy!(A, B, C, D, E, G, H, I);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Generate an arbitrary value of the type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(usize, u8, u16, u32, u64, isize, i8, i16, i32, i64);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical full-range strategy for `T` (proptest's `any::<T>()`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length bounds for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + if span == 0 { 0 } else { rng.below(span + 1) as usize };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec`: a vector whose elements come from
    /// `element` and whose length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy that picks uniformly from a fixed list.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }

    /// `proptest::sample::select`: choose one of `options` per case.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }
}

/// Assert inside a `proptest!` body; failure aborts the case with a
/// message instead of unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}", ::std::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`", l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Declare property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` (the attribute is written by the caller, as with
/// real proptest) that runs `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            cfg = $crate::test_runner::ProptestConfig::default(); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $pat:pat_param in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(::std::stringify!($name));
            for case in 0..cfg.cases {
                $( let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng); )+
                let outcome = (|| -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(msg) = outcome {
                    ::std::panic!(
                        "property '{}' failed at case {}/{}: {}",
                        ::std::stringify!($name), case + 1, cfg.cases, msg
                    );
                }
            }
        }
    )*};
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, f64)> {
        (1usize..10, -1.0f64..1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds((n, x) in pair()) {
            prop_assert!(n >= 1 && n < 10);
            prop_assert!((-1.0..1.0).contains(&x));
        }

        #[test]
        fn vec_strategy_obeys_size(v in crate::collection::vec(0usize..5, 2..=6)) {
            prop_assert!(v.len() >= 2 && v.len() <= 6, "len = {}", v.len());
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn flat_map_links_dimensions(
            (n, idx) in (1usize..8).prop_flat_map(|n| (Just(n), 0..n))
        ) {
            prop_assert!(idx < n);
        }

        #[test]
        fn select_picks_from_options(w in crate::sample::select(vec!["a", "b"])) {
            prop_assert!(w == "a" || w == "b");
        }

        #[test]
        fn any_generates_all_widths(a in any::<u64>(), b in any::<u32>()) {
            // Smoke: values exist; equality against themselves.
            prop_assert_eq!(a, a);
            prop_assert_eq!(b, b);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        let s = 0usize..1000;
        for _ in 0..100 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
