//! Ablation benches for the design decisions the paper argues in §6:
//!
//! * `rarray_vs_object` (§6.1/§6.2) — passing the assembled system as raw
//!   primitive arrays (LISI's choice) vs wrapping it in Matrix/Vector
//!   objects first and letting the solver pull entries back out through a
//!   virtual interface (the rejected object-composition design);
//! * `format_ingest` (§5.3) — what each `SparseStruct` input format costs
//!   the adapter to convert to the package's native structure;
//! * `reuse` (§5.2 b–d) — factorization/preconditioner reuse vs full
//!   re-setup on repeated solves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lisi::{SparseSolverPort, SparseStruct};
use rcomm::Universe;
use rsparse::generate;

/// The rejected design: a virtual "Matrix object" the solver reads
/// entry-by-entry through dynamic dispatch (plus the up-front copy into
/// the object).
trait MatrixObject: Send + Sync {
    fn nnz(&self) -> usize;
    fn entry(&self, k: usize) -> (usize, usize, f64);
}

struct TripletObject {
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl MatrixObject for TripletObject {
    fn nnz(&self) -> usize {
        self.vals.len()
    }
    fn entry(&self, k: usize) -> (usize, usize, f64) {
        (self.rows[k], self.cols[k], self.vals[k])
    }
}

fn rarray_vs_object(c: &mut Criterion) {
    let mut group = c.benchmark_group("rarray_vs_object");
    for m in [40usize, 80] {
        let a = generate::laplacian_2d(m);
        let coo = a.to_coo();
        let (r, cidx, v) = coo.triplets();
        let n = a.rows();

        // LISI's choice: slices in, one conversion.
        group.bench_with_input(BenchmarkId::new("rarray", m), &m, |b, _| {
            b.iter(|| {
                let w = rsparse::convert::Window::serial(n);
                rsparse::convert::decode_coo(w, v, r, cidx).unwrap().nnz()
            });
        });
        // Object composition: copy into the object, then pull every entry
        // back through a vtable.
        group.bench_with_input(BenchmarkId::new("object", m), &m, |b, _| {
            b.iter(|| {
                let obj: Box<dyn MatrixObject> = Box::new(TripletObject {
                    rows: r.to_vec(),
                    cols: cidx.to_vec(),
                    vals: v.to_vec(),
                });
                let mut coo = rsparse::CooMatrix::new(n, n);
                for k in 0..obj.nnz() {
                    let (rr, cc, vv) = obj.entry(k);
                    coo.push(rr, cc, vv).unwrap();
                }
                coo.to_csr().nnz()
            });
        });
    }
    group.finish();
}

fn format_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("format_ingest");
    let m = 60usize;
    let a = generate::laplacian_2d(m);
    let n = a.rows();

    let ingest = |structure: SparseStruct,
                  values: Vec<f64>,
                  rows: Vec<usize>,
                  cols: Vec<usize>,
                  bs: usize| {
        move || {
            Universe::run(1, |comm| {
                let s = lisi::RkspAdapter::new();
                s.initialize(comm.dup().unwrap()).unwrap();
                s.set_start_row(0).unwrap();
                s.set_local_rows(n).unwrap();
                s.set_global_cols(n).unwrap();
                s.set_block_size(bs).unwrap();
                s.setup_matrix(&values, &rows, &cols, structure).unwrap();
            })
        }
    };

    let coo = a.to_coo();
    let (r, cidx, v) = coo.triplets();
    group.bench_function("coo", {
        let f = ingest(SparseStruct::Coo, v.to_vec(), r.to_vec(), cidx.to_vec(), 1);
        move |b| b.iter(&f)
    });
    group.bench_function("csr", {
        let f = ingest(
            SparseStruct::Csr,
            a.values().to_vec(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            1,
        );
        move |b| b.iter(&f)
    });
    let (mval, mja) = rsparse::convert::csr_to_msr(&a, 0).unwrap();
    group.bench_function("msr", {
        let f = ingest(SparseStruct::Msr, mval, vec![], mja, 1);
        move |b| b.iter(&f)
    });
    // Uniform 2×2 VBR arrays (m even ⇒ n divisible by 2).
    let (bvals, bptr, bindx) = rsparse::convert::csr_to_vbr(&a, 2).unwrap();
    group.bench_function("vbr", {
        let f = ingest(SparseStruct::Vbr, bvals, bptr, bindx, 2);
        move |b| b.iter(&f)
    });
    group.finish();
}

fn reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("reuse");
    group.sample_size(10);
    let a = generate::laplacian_2d(30);
    let n = a.rows();
    let rhs: Vec<Vec<f64>> = (0..5).map(|s| generate::random_vector(n, s)).collect();

    // Scenario (b/c): factor once, solve many.
    group.bench_function("direct_factor_once", |b| {
        b.iter(|| {
            let mut s = rdirect::RsluSolver::new(rdirect::RsluOptions::default());
            s.factorize(&a).unwrap();
            for b_k in &rhs {
                let _ = s.solve(b_k).unwrap();
            }
        });
    });
    // The naive pattern LISI's reuse semantics avoid: refactor per solve.
    group.bench_function("direct_refactor_each", |b| {
        b.iter(|| {
            for b_k in &rhs {
                let mut s = rdirect::RsluSolver::new(rdirect::RsluOptions::default());
                s.factorize(&a).unwrap();
                let _ = s.solve(b_k).unwrap();
            }
        });
    });
    // Scenario (d): same pattern, new values — symbolic reuse.
    group.bench_function("direct_refactorize_same_pattern", |b| {
        b.iter(|| {
            let mut s = rdirect::RsluSolver::new(rdirect::RsluOptions::default());
            s.factorize(&a).unwrap();
            for k in 0..4 {
                let vals: Vec<f64> =
                    a.values().iter().map(|v| v * (1.0 + 0.1 * k as f64)).collect();
                s.refactorize(&vals).unwrap();
                let _ = s.solve(&rhs[0]).unwrap();
            }
        });
    });
    group.finish();
}

/// The constant per-call cost the CCA layer adds: the same parameter
/// setter invoked directly on the adapter vs through the type-erased
/// framework port (`Arc<dyn SparseSolverPort>` fetched via `get_port`).
/// This is the "constant number of interface calls ⇒ constant overhead"
/// argument of the paper's Table 1 discussion, isolated.
fn port_dispatch(c: &mut Criterion) {
    use lisi_bench::{wire_component, Package};
    let mut group = c.benchmark_group("port_dispatch");
    // Direct adapter call.
    group.bench_function("direct_set", |b| {
        let adapter = lisi::RkspAdapter::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            adapter.set_int("maxits", (i % 1000) as i64).unwrap();
        });
    });
    // Through the framework-fetched port object.
    group.bench_function("via_port_set", |b| {
        let (_fw, port) = wire_component(Package::Rksp);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            port.set_int("maxits", (i % 1000) as i64).unwrap();
        });
    });
    // Port fetch itself (the per-solve getPort cost).
    group.bench_function("get_port", |b| {
        use std::sync::Arc;
        let (fw, _port) = wire_component(Package::Rksp);
        let driver = fw.component_id("driver").expect("wire_component names it");
        let services = fw.services(&driver).unwrap();
        b.iter(|| services.get_port::<Arc<dyn lisi::SparseSolverPort>>("solver").unwrap());
    });
    group.finish();
}

criterion_group!(benches, rarray_vs_object, format_ingest, reuse, port_dispatch);
criterion_main!(benches);
