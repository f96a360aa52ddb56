//! Message-passing substrate benches: collective latencies at the rank
//! counts the paper's experiments use. Each iteration spins up a fresh
//! universe and runs a burst of collectives, so the number reported is
//! "universe + N collectives"; comparisons across rank counts are what
//! matter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcomm::Universe;

const BURST: usize = 100;

fn allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce");
    group.sample_size(10);
    for p in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("scalar", p), &p, |b, &p| {
            b.iter(|| {
                Universe::run(p, |comm| {
                    let mut acc = 0.0;
                    for i in 0..BURST {
                        acc += comm.allreduce(i as f64, rcomm::sum).unwrap();
                    }
                    acc
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("vec32", p), &p, |b, &p| {
            b.iter(|| {
                Universe::run(p, |comm| {
                    let v = vec![1.0f64; 32];
                    let mut acc = 0.0;
                    for _ in 0..BURST / 4 {
                        acc += comm.allreduce_vec(&v, rcomm::sum).unwrap()[0];
                    }
                    acc
                })
            });
        });
    }
    group.finish();
}

fn bcast_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcast_barrier");
    group.sample_size(10);
    for p in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("bcast1k", p), &p, |b, &p| {
            b.iter(|| {
                Universe::run(p, |comm| {
                    let payload = if comm.is_root() { vec![1u8; 1024] } else { vec![] };
                    let mut total = 0usize;
                    for _ in 0..BURST / 4 {
                        total += comm.bcast(0, payload.clone()).unwrap().len();
                    }
                    total
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("barrier", p), &p, |b, &p| {
            b.iter(|| {
                Universe::run(p, |comm| {
                    for _ in 0..BURST {
                        comm.barrier().unwrap();
                    }
                })
            });
        });
    }
    group.finish();
}

fn halo_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("halo");
    group.sample_size(10);
    // The paper's actual communication pattern: distributed SpMV halos.
    let a = rsparse::generate::laplacian_2d(60);
    for p in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("spmv_burst", p), &p, |b, &p| {
            b.iter(|| {
                Universe::run(p, |comm| {
                    let part = rsparse::BlockRowPartition::even(a.rows(), comm.size());
                    let da = rsparse::DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                    let x = rsparse::generate::random_vector(a.rows(), 3);
                    let dx =
                        rsparse::DistVector::from_global(part.clone(), comm.rank(), &x).unwrap();
                    let mut dy = rsparse::DistVector::zeros(part, comm.rank());
                    for _ in 0..20 {
                        da.matvec_into(comm, &dx, &mut dy).unwrap();
                    }
                    dy.local()[0]
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, allreduce, bcast_barrier, halo_exchange);
criterion_main!(benches);
