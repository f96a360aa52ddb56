//! Paired CSR-vs-chosen-format SpMV guard.
//!
//! For each of three representative matrices — a dense band, a FEM-style
//! block assembly, and a skewed row-length pattern — this runs the
//! autotuner's model, converts to the chosen format, and times serial
//! matvecs CSR-vs-chosen in *alternating* pairs with the order swapped
//! every trial (so load drift cancels), reporting the median per-pair
//! speedup.
//!
//! Two verdicts with different strictness, split out by
//! `scripts/bench_smoke.sh`:
//!   * `bit_identical`: every format's matvec must equal CSR's
//!     bit-for-bit on every workload — a miss is a correctness bug and a
//!     hard failure;
//!   * `speedup` (target ≥ 1.2×): only meaningful where the autotuner
//!     actually left CSR (`applicable` = chosen != csr); the skewed
//!     workload stays CSR by design and is recorded with no speedup
//!     claim.
//!
//! Output: one JSON object on stdout.

use std::hint::black_box;
use std::time::Instant;

use rsparse::autotune::{self, Format, FormatMatrix};
use rsparse::{BcsrMatrix, CsrMatrix, SellMatrix};

/// One timed window: `MATVECS` products.
const MATVECS: usize = 10;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

fn guard_one(name: &str, a: &CsrMatrix, trials: usize) -> String {
    let (n, cols) = a.shape();
    let x = rsparse::generate::random_vector(cols, 17);
    let mut y_csr = vec![0.0; n];
    a.matvec_into(&x, &mut y_csr);

    // Correctness hard gate: BOTH alternative formats must match CSR
    // bit-for-bit on this pattern, whatever the autotuner picks.
    let mut y = vec![f64::NAN; n];
    SellMatrix::from_csr(a).matvec_into(&x, &mut y);
    let mut bit_identical = bits_equal(&y, &y_csr);
    y.fill(f64::NAN);
    BcsrMatrix::from_csr(a).matvec_into(&x, &mut y);
    bit_identical &= bits_equal(&y, &y_csr);

    let chosen = autotune::choose(a);
    let applicable = chosen != Format::Csr;
    let m = FormatMatrix::build(a, chosen);

    // Warm caches on both kernels.
    for _ in 0..3 {
        a.matvec_into(&x, &mut y);
        m.matvec_into(&x, &mut y);
    }

    let window_csr = |y: &mut Vec<f64>| {
        let t0 = Instant::now();
        for _ in 0..MATVECS {
            a.matvec_into(&x, y);
        }
        t0.elapsed().as_secs_f64() / MATVECS as f64
    };
    let window_chosen = |y: &mut Vec<f64>| {
        let t0 = Instant::now();
        for _ in 0..MATVECS {
            m.matvec_into(&x, y);
        }
        t0.elapsed().as_secs_f64() / MATVECS as f64
    };

    let mut csr_s = Vec::with_capacity(trials);
    let mut chosen_s = Vec::with_capacity(trials);
    let mut speedups = Vec::with_capacity(trials);
    for trial in 0..trials {
        let (c, f) = if trial % 2 == 0 {
            (window_csr(&mut y), window_chosen(&mut y))
        } else {
            let f = window_chosen(&mut y);
            (window_csr(&mut y), f)
        };
        csr_s.push(c);
        chosen_s.push(f);
        speedups.push(c / f);
    }
    black_box(&y);

    format!(
        "{{\"workload\":\"{name}\",\"rows\":{n},\"nnz\":{},\
\"chosen\":\"{}\",\"applicable\":{applicable},\
\"bit_identical\":{bit_identical},\
\"csr_median_ns\":{:.1},\"chosen_median_ns\":{:.1},\"speedup\":{:.4}}}",
        a.nnz(),
        chosen.name(),
        median(&mut csr_s) * 1e9,
        median(&mut chosen_s) * 1e9,
        median(&mut speedups),
    )
}

fn main() {
    let trials: usize = std::env::var("FORMAT_GUARD_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);

    let banded = rsparse::generate::banded(20_000, 4, 1);
    let fem = rsparse::generate::fem_block(80, 3, 2);
    let skewed = rsparse::generate::skewed_csr(20_000, 20_000, 3, 80, 3);

    let entries = [
        guard_one("banded bw=4", &banded, trials),
        guard_one("fem-block b=3", &fem, trials),
        guard_one("skewed 3/80", &skewed, trials),
    ];
    println!("{{\"trials\":{trials},\"formats\":[{}]}}", entries.join(","));
}
