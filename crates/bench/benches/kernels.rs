//! Substrate kernel benches: SpMV variants (serial, distributed)
//! and sparse-format conversions — the building blocks whose costs bound
//! the interface overhead the paper measures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rcomm::Universe;
use rsparse::{convert, generate, BlockRowPartition, DistCsrMatrix, DistVector};

fn spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    for m in [50usize, 100, 200] {
        let a = generate::laplacian_2d(m);
        let x = generate::random_vector(a.cols(), 7);
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_with_input(BenchmarkId::new("serial", m), &m, |b, _| {
            let mut y = vec![0.0; a.rows()];
            b.iter(|| a.matvec_into(&x, &mut y));
        });
        group.bench_with_input(BenchmarkId::new("dist4", m), &m, |b, _| {
            b.iter(|| {
                Universe::run(4, |comm| {
                    let part = BlockRowPartition::even(a.rows(), comm.size());
                    let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                    let dx = DistVector::from_global(part, comm.rank(), &x).unwrap();
                    // Time several matvecs so the distribution cost
                    // amortizes like a solver's would.
                    let mut dy = da.matvec(comm, &dx).unwrap();
                    for _ in 0..9 {
                        da.matvec_into(comm, &dx, &mut dy).unwrap();
                    }
                    dy.local()[0]
                })
            });
        });
    }
    group.finish();
}

/// The split plan against the plain serial CSR loop (`csr/*`) on the
/// 5-point stencil, a FEM-style 3-dof assembly and the paper's own matrix
/// at the Figure 5 one-rank size. Bit-identical; only the time differs.
///
/// The `split1` rows are the distributed matvec on one rank. On a stencil
/// matrix nearly every row sits in a stencil run (no column indices),
/// `femb3` has no runs at all and goes through the compact kernel;
/// `paper128`, `paper400` and `laplacian200` are the other tracked
/// workloads' matrices, and `paper300shuffled` is the bypass control — the
/// rows of `paper300` reordered so that none continues the one above: the
/// same entries through the compact `u32` kernel alone. Those matrices have
/// constant coefficients, so their runs keep one value per diagonal;
/// `paper300varcoef` is that class's bypass control — the same runs with
/// every row's values scaled differently from the row above, so each run
/// streams its diagonals.
fn spmv_formats(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv_formats");
    let stencil = generate::laplacian_2d(200);
    let fem = generate::fem_block(80, 3, 2);
    // The paper's own matrix at the Figure 5 one-rank size (n = 90 000):
    // the row `fig5_rksp_1r` spends its SpMV time on.
    let (paper, _) = rmesh::paper_problem(300).assemble_global();
    for (label, a) in [("stencil200", &stencil), ("femb3", &fem), ("paper300", &paper)] {
        let x = generate::random_vector(a.cols(), 7);
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_function(BenchmarkId::new("csr", label), |b| {
            let mut y = vec![0.0; a.rows()];
            b.iter(|| a.matvec_into(&x, &mut y));
        });
        bench_split1(&mut group, label, a, label != "femb3");
    }
    for (label, a) in [
        ("paper128", rmesh::paper_problem(128).assemble_global().0),
        ("paper400", rmesh::paper_problem(400).assemble_global().0),
        ("laplacian200", stencil.clone()),
    ] {
        group.throughput(Throughput::Elements(a.nnz() as u64));
        bench_split1(&mut group, label, &a, true);
    }
    group.throughput(Throughput::Elements(paper.nnz() as u64));
    bench_split1(&mut group, "paper300shuffled", &shuffle_rows_locally(&paper), false);
    bench_split1(&mut group, "paper300varcoef", &scale_rows_unequally(&paper), true);
    group.finish();
}

/// The distributed matvec on one rank: no halo, every row interior, so
/// this is the split plan's interior kernels alone — stencil runs plus the
/// compact remainder (`u32` columns, gathered unchecked after one
/// validation at plan build). `expect_runs` pins which of the two the row
/// measures.
fn bench_split1(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    a: &rsparse::CsrMatrix,
    expect_runs: bool,
) {
    let x = generate::random_vector(a.cols(), 7);
    group.bench_function(BenchmarkId::new("split1", label), |b| {
        let b = std::sync::Mutex::new(b);
        Universe::run(1, |comm| {
            let part = BlockRowPartition::even(a.rows(), 1);
            let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
            assert_eq!(da.stencil_row_count() > 0, expect_runs, "{label}");
            let dx = DistVector::from_global(part.clone(), 0, &x).unwrap();
            let mut dy = DistVector::zeros(part, 0);
            b.lock().unwrap().iter(|| da.matvec_into(comm, &dx, &mut dy).unwrap());
        });
    });
}

/// `a` with each block of 8 consecutive rows put in a fixed pseudo-random
/// order: the same entries, every row still next to its grid neighbours
/// (so `x` is reused from cache as before), but no 16 consecutive rows
/// each continuing the one above — nothing for the run detection to find.
fn shuffle_rows_locally(a: &rsparse::CsrMatrix) -> rsparse::CsrMatrix {
    let mut rng = generate::XorShift64::new(16);
    let mut order: Vec<usize> = (0..a.rows()).collect();
    for block in order.chunks_mut(8) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.next_below(i + 1));
        }
    }
    let mut row_ptr = vec![0usize];
    let mut col_idx = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    for &r in &order {
        let (cols, vals) = a.row(r);
        col_idx.extend_from_slice(cols);
        values.extend_from_slice(vals);
        row_ptr.push(col_idx.len());
    }
    rsparse::CsrMatrix::from_parts(a.rows(), a.cols(), row_ptr, col_idx, values).unwrap()
}

/// `a` with row `r` scaled by `1 + (r mod 7 + 1)·2⁻²⁰`: the same pattern,
/// no row's values equal to the row above's — a variable-coefficient
/// operator, every stencil run of which keeps its diagonals.
fn scale_rows_unequally(a: &rsparse::CsrMatrix) -> rsparse::CsrMatrix {
    let mut scaled = a.clone();
    for r in 0..a.rows() {
        let factor = 1.0 + (r % 7 + 1) as f64 / (1u32 << 20) as f64;
        let (lo, hi) = (a.row_ptr()[r], a.row_ptr()[r + 1]);
        for v in &mut scaled.values_mut()[lo..hi] {
            *v *= factor;
        }
    }
    scaled
}

/// The batched distributed matvec at k = 8 on one rank, on `batch8_2r`'s
/// matrix: the run kernel's multi-vector twin, one read of the run storage
/// for all eight columns — and on the same matrix with variable
/// coefficients, where there is run storage to read.
fn spmv_multi(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv_multi");
    let laplacian = generate::laplacian_2d(128);
    let k = 8;
    let xs = generate::random_vector(k * laplacian.cols(), 7);
    group.throughput(Throughput::Elements((k * laplacian.nnz()) as u64));
    for (label, a) in
        [("laplacian128", &laplacian), ("laplacian128varcoef", &scale_rows_unequally(&laplacian))]
    {
        group.bench_function(BenchmarkId::new("split1_k8", label), |b| {
            let b = std::sync::Mutex::new(b);
            Universe::run(1, |comm| {
                let part = BlockRowPartition::even(a.rows(), 1);
                let da = DistCsrMatrix::from_global(comm, part, a).unwrap();
                let mut ys = vec![0.0; xs.len()];
                b.lock().unwrap().iter(|| da.matvec_multi_into(comm, &xs, &mut ys, k).unwrap());
            });
        });
    }
    group.finish();
}

/// One preconditioner apply — a forward and a backward triangular sweep —
/// on the factor's own matrix. `ilu0/laplacian200` is the matrix
/// `ilu_cg_1r` sweeps, ≈ 99 % of its rows in strided runs, and
/// `ic0/laplacian200` the same pattern through IC(0)'s dividing forward
/// sweep; `paper300` (z = 720 KB) shows that the footprint of a level,
/// not n, sets the reuse distance; `femb3` is the irregular one (wide
/// rows, narrow levels). Two bypass controls: `ilu0/tridiagonal40000`,
/// one row per level, so level order is natural order and the chain is as
/// long as it ever was; and `ilu0/random`, a `random_diag_dominant`
/// pattern with wide levels but no two rows at one stride and offsets, so
/// every row goes through the indexed slots.
fn sptrsv(c: &mut Criterion) {
    use rkrylov::{Ic0, Ilu0, Ilut, Ssor};
    let mut group = c.benchmark_group("sptrsv");
    let laplacian = generate::laplacian_2d(200);
    let mut row = |name: &str, label: &str, n: usize, apply: &dyn Fn(&[f64], &mut [f64])| {
        let r = generate::random_vector(n, 7);
        let mut z = vec![0.0; n];
        group.bench_function(BenchmarkId::new(name, label), |b| b.iter(|| apply(&r, &mut z)));
    };
    for (label, a) in [
        ("laplacian200", laplacian.clone()),
        ("paper128", rmesh::paper_problem(128).assemble_global().0),
        ("paper300", rmesh::paper_problem(300).assemble_global().0),
        ("femb3", generate::fem_block(80, 3, 2)),
        ("tridiagonal40000", generate::laplacian_1d(40_000)),
        ("random", generate::random_diag_dominant(40_000, 4, 7)),
    ] {
        let pc = Ilu0::new(&a).unwrap();
        row("ilu0", label, a.rows(), &|r, z| pc.solve_local(r, z));
    }
    let n = laplacian.rows();
    let ic0 = Ic0::new(&laplacian).unwrap();
    row("ic0", "laplacian200", n, &|r, z| ic0.solve_local(r, z));
    let ilut = Ilut::new(&laplacian, 1e-3, 10).unwrap();
    row("ilut", "laplacian200", n, &|r, z| ilut.solve_local(r, z));
    let ssor = Ssor::new(&laplacian, 1.0).unwrap();
    row("ssor", "laplacian200", n, &|r, z| ssor.solve_local(r, z));
    group.finish();
}

/// ILU(0)'s set-up on `ilu_cg_1r`'s matrix (the 5-point Laplacian at
/// m = 200, one rank). `levels/ilu0_laplacian200` lays out both triangles
/// with [`rsparse::LevelTri::build`] — the strict lower part unit, the
/// strict upper part divided by the diagonal — cut at the diagonal as
/// `Ilu0::new` cuts the factor. The values are the matrix's own: the
/// layout only copies them, so the factor's would cost the same.
/// `ilu_setup/laplacian200` is [`rkrylov::make_preconditioner`] with
/// `PcType::Ilu0` on the one-rank operator: the diagonal block, the
/// factorization and both builds.
fn ilu_setup(c: &mut Criterion) {
    use rkrylov::{make_preconditioner, MatOperator, PcType};
    use rsparse::{LevelTri, Triangle};
    use std::sync::{Arc, Mutex};
    let a = Arc::new(generate::laplacian_2d(200));
    let n = a.rows();
    let (row_ptr, col_idx, vals) = (a.row_ptr(), a.col_idx(), a.values());
    let diag_pos: Vec<usize> =
        (0..n).map(|i| row_ptr[i] + a.row(i).0.binary_search(&i).unwrap()).collect();
    let lower = |i: usize| (&col_idx[row_ptr[i]..diag_pos[i]], &vals[row_ptr[i]..diag_pos[i]]);
    let upper = |i: usize| {
        (&col_idx[diag_pos[i] + 1..row_ptr[i + 1]], &vals[diag_pos[i] + 1..row_ptr[i + 1]])
    };
    let diag = |i: usize| vals[diag_pos[i]];
    let mut group = c.benchmark_group("levels");
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("ilu0_laplacian200", |b| {
        b.iter(|| {
            let fwd = LevelTri::build(Triangle::Lower, n, lower, None).unwrap();
            let bwd = LevelTri::build(Triangle::Upper, n, upper, Some(&diag)).unwrap();
            (fwd, bwd)
        })
    });
    group.finish();
    let mut group = c.benchmark_group("ilu_setup");
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("laplacian200", |b| {
        let b = Mutex::new(b);
        Universe::run(1, |comm| {
            let part = BlockRowPartition::even(n, 1);
            let op = MatOperator::new(
                DistCsrMatrix::from_local_rows(comm, part, Arc::clone(&a)).unwrap(),
            );
            b.lock().unwrap().iter(|| make_preconditioner(PcType::Ilu0, &op).unwrap());
        });
    });
    group.finish();
}

/// One point-Jacobi apply at the Figure 5 one-rank size (n = 90 000), the
/// preconditioner `fig5_rksp_1r` applies twice an iteration. `paper300`'s
/// diagonal is one number repeated, so the apply streams `r` and `z` and
/// nothing else; `paper300varcoef` is the bypass control — rows scaled
/// unequally, one inverse a row, a third vector streamed.
fn jacobi(c: &mut Criterion) {
    use rkrylov::{Jacobi, Preconditioner};
    use rsparse::dense::DiagonalScale;
    let mut group = c.benchmark_group("jacobi");
    let (paper, _) = rmesh::paper_problem(300).assemble_global();
    for (label, a, uniform) in [
        ("paper300", paper.clone(), true),
        ("paper300varcoef", scale_rows_unequally(&paper), false),
    ] {
        let n = a.rows();
        let diagonal = a.diagonal().unwrap();
        let scale = DiagonalScale::new(diagonal.clone()).unwrap();
        assert_eq!(scale.is_uniform(), uniform, "{label}");
        let pc = Jacobi::new(diagonal).unwrap();
        let r = generate::random_vector(n, 7);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(label, |b| {
            let b = std::sync::Mutex::new(b);
            Universe::run(1, |comm| {
                let part = BlockRowPartition::even(n, 1);
                let dr = DistVector::from_global(part.clone(), 0, &r).unwrap();
                let mut dz = DistVector::zeros(part, 0);
                b.lock().unwrap().iter(|| pc.apply(comm, &dr, &mut dz).unwrap());
            });
        });
    }
    group.finish();
}

/// The two systems RSLU's rows work on, each with its analysis: the paper
/// PDE at m = 120 under minimum degree (the factors `direct_2r` keeps),
/// and the bypass control `nosupernodes` — two interleaved copies of a
/// band of half-width 4 in natural order (80 000 unknowns, four entries a
/// column), so no column of L (row of U) has its successor in its
/// structure, every panel is one column wide and the factors are as
/// short-rowed as factors without supernodes are.
fn rslu_systems() -> [(&'static str, rsparse::CsrMatrix, rdirect::symbolic::Symbolic); 2] {
    use rdirect::{symbolic::Symbolic, Ordering};
    [
        ("paper120", rmesh::paper_problem(120).assemble_global().0, Ordering::MinDegree),
        ("nosupernodes", interleave2(&band(40_000, 4)), Ordering::Natural),
    ]
    .map(|(label, a, ordering)| {
        let sym = Symbolic::analyze(&a, ordering).unwrap();
        (label, a, sym)
    })
}

/// RSLU's numeric factorization: one `LuFactorization::factor` on a
/// precomputed analysis of each of [`rslu_systems`]. On `nosupernodes` no
/// column ever joins a panel, so no block update runs.
fn factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("factor");
    for (label, a, sym) in &rslu_systems() {
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_function(*label, |bench| {
            bench.iter(|| rdirect::LuFactorization::factor(a, sym, 1.0).unwrap())
        });
    }
    group.finish();
}

/// RSLU's triangular solves on the factors of [`rslu_systems`]: one
/// `LuFactorization::solve` (L forward, U backward) and, on the paper
/// PDE, one `solve_transpose` (Uᵀ forward, Lᵀ backward).
fn trisolve(c: &mut Criterion) {
    let [paper, bypass] =
        rslu_systems().map(|(_, a, sym)| rdirect::LuFactorization::factor(&a, &sym, 1.0).unwrap());
    let mut group = c.benchmark_group("trisolve");
    for (label, lu) in [("paper120", &paper), ("nosupernodes", &bypass)] {
        let b = generate::random_vector(lu.order(), 7);
        group.throughput(Throughput::Elements(lu.fill() as u64));
        group.bench_function(label, |bench| bench.iter(|| lu.solve(&b).unwrap()));
    }
    group.finish();
    let mut group = c.benchmark_group("trisolve_t");
    let b = generate::random_vector(paper.order(), 7);
    group.throughput(Throughput::Elements(paper.fill() as u64));
    group.bench_function("paper120", |bench| bench.iter(|| paper.solve_transpose(&b).unwrap()));
    group.finish();
}

/// A nonsymmetric, diagonally dominant band: `half` entries either side
/// of the diagonal.
fn band(n: usize, half: usize) -> rsparse::CsrMatrix {
    let mut coo = rsparse::CooMatrix::new(n, n);
    for i in 0..n {
        for j in i.saturating_sub(half)..(i + half + 1).min(n) {
            let v =
                if i == j { 2.0 * half as f64 + 1.0 } else { -1.0 - 0.01 * (j as f64 - i as f64) };
            coo.push(i, j, v).unwrap();
        }
    }
    coo.to_csr()
}

/// Two decoupled copies of `a` with unknown `i` of copy `c` numbered
/// `2·i + c`: every structural index keeps the parity of its column.
fn interleave2(a: &rsparse::CsrMatrix) -> rsparse::CsrMatrix {
    let mut coo = rsparse::CooMatrix::new(2 * a.rows(), 2 * a.cols());
    for (r, c, v) in a.iter() {
        coo.push(2 * r, 2 * c, v).unwrap();
        coo.push(2 * r + 1, 2 * c + 1, v).unwrap();
    }
    coo.to_csr()
}

/// The vector kernels under the Krylov loops at the Figure 5 one-rank
/// length (n = 90 000, two reduction blocks): the plain forms and the fused
/// forms that replace pairs and triples of them. Each fused row is
/// bit-identical to the rows it replaces run back to back; compare
/// `axpy` + `pdot` against `axpy_norm2_sq`, `axpy` + 2 × `pdot` against
/// `axpy_pdot2`, 2 × `pdot` against `pdot2`, 2 × `axpy` against `axpy2`.
///
/// The 90 000-element rows run from memory and their times swing from one
/// run to the next: on a loaded 2-vCPU host they resolve only differences
/// of about 30 % or more, so no claim rests on them alone.
fn blas1(c: &mut Criterion) {
    use rsparse::dense;
    let mut group = c.benchmark_group("blas1");
    let n = 90_000usize;
    let x = generate::random_vector(n, 1);
    let z = generate::random_vector(n, 2);
    let w = generate::random_vector(n, 3);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("pdot", |b| b.iter(|| dense::pdot(&x, &z)));
    group.bench_function("pdot2", |b| b.iter(|| dense::pdot2(&x, &x, &z)));
    // a = 0 keeps the updated vector bounded over any number of iterations
    // without changing the work done per element.
    group.bench_function("axpy", |b| {
        let mut y = w.clone();
        b.iter(|| dense::axpy(0.0, &x, &mut y));
    });
    group.bench_function("axpy2", |b| {
        let mut y = w.clone();
        b.iter(|| dense::axpy2(0.0, &x, 0.0, &z, &mut y));
    });
    group.bench_function("axpy_then_pdot", |b| {
        let mut y = w.clone();
        b.iter(|| {
            dense::axpy(0.0, &x, &mut y);
            dense::pdot(&y, &y)
        });
    });
    group.bench_function("axpy_norm2_sq", |b| {
        let mut y = w.clone();
        b.iter(|| dense::axpy_norm2_sq(0.0, &x, &mut y));
    });
    group.bench_function("axpy_then_2pdot", |b| {
        let mut y = w.clone();
        b.iter(|| {
            dense::axpy(0.0, &x, &mut y);
            (dense::pdot(&y, &y), dense::pdot(&y, &z))
        });
    });
    group.bench_function("axpy_pdot2", |b| {
        let mut y = w.clone();
        b.iter(|| dense::axpy_pdot2(0.0, &x, &mut y, &z));
    });
    // One step of RAztec's modified Gram–Schmidt, two passes against one:
    // `h = ⟨w, v⟩; w −= h·v` before, `w −= h·v_prev; h = ⟨w, v⟩` now (one
    // block, like `dot`). 16 384 is the `fig5_raztec_1r` vector; at 90 000
    // three vectors no longer share the fast half of L2.
    for n in [16_384usize, 90_000] {
        let (v_prev, v) = (&x[..n], &z[..n]);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("dot_then_axpy", n), |b| {
            let mut y = w[..n].to_vec();
            b.iter(|| {
                let h = dense::dot(&y, v);
                dense::axpy(0.0 * h, v, &mut y);
                h
            });
        });
        group.bench_function(BenchmarkId::new("axpy_dot", n), |b| {
            let mut y = w[..n].to_vec();
            b.iter(|| dense::axpy_dot(0.0, v_prev, &mut y, v));
        });
    }
    // RAztec's last Gram–Schmidt pass on the `fig5_raztec_1r` vector.
    group.throughput(Throughput::Elements(16_384));
    group.bench_function(BenchmarkId::new("axpy_dot_self", 16_384), |b| {
        let mut y = w[..16_384].to_vec();
        b.iter(|| dense::axpy_dot_self(0.0, &x[..16_384], &mut y));
    });
    // `sync_cg_2r`'s local length: a kernel call is tens of nanoseconds,
    // so the per-call choice of instance would show here first.
    let n = 512;
    let (x, z) = (&x[..n], &z[..n]);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("pdot", n), |b| b.iter(|| dense::pdot(x, z)));
    group.bench_function(BenchmarkId::new("pdot2", n), |b| b.iter(|| dense::pdot2(x, x, z)));
    group.bench_function(BenchmarkId::new("axpy", n), |b| {
        let mut y = w[..n].to_vec();
        b.iter(|| dense::axpy(0.0, x, &mut y));
    });
    group.bench_function(BenchmarkId::new("axpy_norm2_sq", n), |b| {
        let mut y = w[..n].to_vec();
        b.iter(|| dense::axpy_norm2_sq(0.0, x, &mut y));
    });
    group.finish();
}

/// RAztec's own layer over the substrate: the `RowMatrix` product on an
/// assembled matrix (`apply` — the distributed matvec of
/// `spmv_formats/split1` and nothing else, the `Vector`s being multiplied
/// where they lie) and one full GMRES(30) restart cycle through
/// `AztecOO::iterate` with Jacobi (`gmres30`: 30 products, 30 diagonal
/// scalings, 495 Gram–Schmidt passes, one `x += V·y`, plus the start-up
/// and true-residual products).
fn raztec(c: &mut Criterion) {
    use ::raztec::{
        AzConv, AzPrecond, AzSolver, AztecOO, AztecOptions, CrsMatrix, RowMatrix, Vector,
    };
    let mut group = c.benchmark_group("raztec");
    for (label, m) in [("paper128", 128usize), ("paper300", 300)] {
        let (a, _) = rmesh::paper_problem(m).assemble_global();
        let rhs = generate::random_vector(a.rows(), 7);
        group.bench_function(BenchmarkId::new("apply", label), |b| {
            let b = std::sync::Mutex::new(b);
            Universe::run(1, |comm| {
                let am = CrsMatrix::from_global(comm, &a).unwrap();
                let x = Vector::from_global(am.row_map().clone(), &rhs).unwrap();
                let mut y = Vector::new(am.row_map().clone());
                b.lock().unwrap().iter(|| am.apply(comm, &x, &mut y).unwrap());
            });
        });
        group.bench_function(BenchmarkId::new("gmres30", label), |b| {
            let b = std::sync::Mutex::new(b);
            Universe::run(1, |comm| {
                let am = CrsMatrix::from_global(comm, &a).unwrap();
                let bv = Vector::from_global(am.row_map().clone(), &rhs).unwrap();
                let mut az = AztecOO::new(&am);
                az.set_options(AztecOptions {
                    solver: AzSolver::Gmres,
                    precond: AzPrecond::Jacobi,
                    conv: AzConv::Rhs,
                    tol: 0.0,
                    max_iter: 30,
                    kspace: 30,
                    stall_window: 0,
                });
                let mut x = Vector::new(am.row_map().clone());
                b.lock().unwrap().iter(|| {
                    x.put_scalar(0.0);
                    az.iterate(comm, &bv, &mut x).unwrap()
                });
            });
        });
    }
    group.finish();
}

/// What one instrumentation site costs at each probe level, inside a
/// solve on one thread: a span (open + close), a timed reduction's guard,
/// and one black-box event. Reported in EXPERIMENTS.md, not gated.
fn probe_sites(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_sites");
    for (level, mode, trace) in [
        ("counters", probe::ProbeMode::Off, false),
        ("spans", probe::ProbeMode::Summary, false),
        ("trace", probe::ProbeMode::Off, true),
    ] {
        probe::set_mode(mode);
        probe::trace::set_armed(trace);
        let _solve = probe::trace::solve_guard();
        group.bench_function(format!("span/{level}"), |b| {
            b.iter(|| drop(probe::span!("site")));
        });
        group.bench_function(format!("allreduce_guard/{level}"), |b| {
            b.iter(|| drop(probe::SpanGuard::collective("allreduce")));
        });
        group.bench_function(format!("emit/{level}"), |b| {
            b.iter(|| probe::emit(probe::EventKind::Iter { iteration: 1, residual: 0.5 }));
        });
    }
    probe::set_mode(probe::ProbeMode::Off);
    probe::trace::set_armed(false);
    probe::reset();
    group.finish();
}

fn conversions(c: &mut Criterion) {
    let mut group = c.benchmark_group("convert");
    let a = generate::laplacian_2d(100);
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("csr_to_coo", |b| b.iter(|| a.to_coo()));
    let coo = a.to_coo();
    group.bench_function("coo_to_csr", |b| b.iter(|| coo.to_csr()));
    group.bench_function("csr_to_csc", |b| b.iter(|| a.to_csc()));
    group.bench_function("csr_to_msr", |b| b.iter(|| convert::csr_to_msr(&a, 0).unwrap()));
    group.bench_function("csr_transpose", |b| b.iter(|| a.transpose()));
    // What `setupMatrix(CSR)` does with the port's arrays on
    // `fig5_rksp_1r`'s matrix before the digest (`digest/paper300`) reads
    // them: copy, validate, keep.
    let paper = rmesh::paper_problem(300).assemble_global().0;
    let w = convert::Window::serial(paper.rows());
    group.throughput(Throughput::Elements(paper.nnz() as u64));
    group.bench_function("decode_csr_paper300", |b| {
        b.iter(|| convert::decode_csr(w, paper.values(), paper.row_ptr(), paper.col_idx()).unwrap())
    });
    group.finish();
}

/// The session key's O(nnz) part, [`rsparse::digest::csr`], on the local
/// matrices of `fig5_rksp_1r` (`paper300`) and `ilu_cg_1r`
/// (`laplacian200`): one pass over `row_ptr`, `col_idx` and the value bits.
fn digest(c: &mut Criterion) {
    let mut group = c.benchmark_group("digest");
    for (label, a) in [
        ("paper300", rmesh::paper_problem(300).assemble_global().0),
        ("laplacian200", generate::laplacian_2d(200)),
    ] {
        let words = a.row_ptr().len() + a.col_idx().len() + a.values().len();
        group.throughput(Throughput::Bytes(8 * words as u64));
        group.bench_function(label, |b| {
            b.iter(|| rsparse::digest::csr(a.row_ptr(), a.col_idx(), a.values()))
        });
    }
    group.finish();
}

/// The plan build, [`DistCsrMatrix::from_local_rows`], on one rank: the
/// row classification (stencil runs, interior remainder, boundary), the
/// halo needs and the compact pieces, on the local matrices of
/// `fig5_rksp_1r` (`paper300`) and `ilu_cg_1r` (`laplacian200`). The rows
/// are handed in as an `Arc::clone`, so no copy of them is timed; dropping
/// the built operator is. `diagonal/paper300` is the Jacobi set-up's read
/// of the diagonal from that plan, [`DistCsrMatrix::diagonal_local`].
fn plan(c: &mut Criterion) {
    use std::sync::{Arc, Mutex};
    let paper = Arc::new(rmesh::paper_problem(300).assemble_global().0);
    let mut group = c.benchmark_group("plan");
    for (label, rows) in
        [("paper300", Arc::clone(&paper)), ("laplacian200", Arc::new(generate::laplacian_2d(200)))]
    {
        group.throughput(Throughput::Elements(rows.nnz() as u64));
        group.bench_function(label, |b| {
            let b = Mutex::new(b);
            Universe::run(1, |comm| {
                let part = BlockRowPartition::even(rows.rows(), 1);
                b.lock().unwrap().iter(|| {
                    DistCsrMatrix::from_local_rows(comm, part.clone(), Arc::clone(&rows)).unwrap()
                });
            });
        });
    }
    group.finish();
    let mut group = c.benchmark_group("diagonal");
    group.throughput(Throughput::Elements(paper.rows() as u64));
    group.bench_function("paper300", |b| {
        let b = Mutex::new(b);
        Universe::run(1, |comm| {
            let part = BlockRowPartition::even(paper.rows(), 1);
            let da = DistCsrMatrix::from_local_rows(comm, part, Arc::clone(&paper)).unwrap();
            assert_eq!(da.diagonal_local(), paper.diagonal().unwrap());
            b.lock().unwrap().iter(|| da.diagonal_local());
        });
    });
    group.finish();
}

fn assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("assembly");
    for m in [100usize, 200] {
        group.bench_with_input(BenchmarkId::new("paper_problem", m), &m, |b, &m| {
            let p = rmesh::paper_problem(m);
            b.iter(|| p.assemble_global());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    spmv,
    spmv_formats,
    spmv_multi,
    sptrsv,
    ilu_setup,
    jacobi,
    factor,
    trisolve,
    blas1,
    raztec,
    probe_sites,
    conversions,
    digest,
    plan,
    assembly
);
criterion_main!(benches);
