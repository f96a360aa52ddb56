//! Message-passing substrate benches: collective latencies at the rank
//! counts the paper's experiments use. Each sample launches one universe
//! and times a burst of collectives inside it, after a barrier, so thread
//! spawn and join stay outside the figure: a row is the cost of one
//! collective, the slowest rank's mean.
//!
//! `allreduce/scalar/2` is the reduction `sync_cg_2r` posts twice an
//! iteration, `allreduce/vec17/2` `batch8_2r`'s fused width (eight columns
//! of two entries plus the wall-clock guard). `halo/exchange/2` is
//! `sync_cg_2r`'s halo hand-off alone (one post and one take of 32
//! doubles each way on a halo line), `halo/spmv32/2` its whole matvec
//! (Laplacian m = 32, 512 rows a rank). `bcast_barrier/allgather` is the
//! port's admission vote (a `(bool, bool)` a rank, every solve),
//! `bcast_barrier/alltoall` a halo plan's exchange (a 16-entry `usize`
//! chunk for every rank).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcomm::{Communicator, Universe};

/// Launch `p` ranks, line them up, and time `iters` calls of `op` on each;
/// returns the slowest rank's time.
fn burst(p: usize, iters: u64, op: impl Fn(&Communicator, u64) + Send + Sync) -> Duration {
    let took = Universe::run(p, |comm| {
        comm.barrier().unwrap();
        let t0 = Instant::now();
        for i in 0..iters {
            op(comm, i);
        }
        t0.elapsed()
    });
    took.into_iter().max().unwrap_or_default()
}

fn allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce");
    for p in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("scalar", p), &p, |b, &p| {
            b.iter_custom(|iters| {
                burst(p, iters, |comm, i| {
                    criterion::black_box(comm.allreduce(i as f64, rcomm::sum).unwrap());
                })
            });
        });
        for width in [1usize, 17, 32] {
            group.bench_with_input(BenchmarkId::new(format!("vec{width}"), p), &p, |b, &p| {
                let v = vec![1.0f64; width];
                b.iter_custom(|iters| {
                    burst(p, iters, |comm, _| {
                        criterion::black_box(comm.allreduce_vec(&v, rcomm::sum).unwrap());
                    })
                });
            });
        }
    }
    group.finish();
}

fn bcast_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcast_barrier");
    for p in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("bcast1k", p), &p, |b, &p| {
            let payload = vec![1u8; 1024];
            b.iter_custom(|iters| {
                burst(p, iters, |comm, _| {
                    let v = if comm.is_root() { payload.clone() } else { Vec::new() };
                    criterion::black_box(comm.bcast(0, v).unwrap());
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("barrier", p), &p, |b, &p| {
            b.iter_custom(|iters| burst(p, iters, |comm, _| comm.barrier().unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("allgather", p), &p, |b, &p| {
            b.iter_custom(|iters| {
                burst(p, iters, |comm, i| {
                    criterion::black_box(comm.allgather((i % 2 == 0, true)).unwrap());
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("alltoall", p), &p, |b, &p| {
            b.iter_custom(|iters| {
                burst(p, iters, |comm, _| {
                    let chunks = vec![vec![comm.rank(); 16]; comm.size()];
                    criterion::black_box(comm.alltoall(chunks).unwrap());
                })
            });
        });
    }
    group.finish();
}

/// Launch `p` ranks and time `iters` matvecs of `a` on each, after a
/// barrier; returns the slowest rank's time.
fn spmv_burst(a: &rsparse::CsrMatrix, x: &[f64], p: usize, iters: u64) -> Duration {
    let took = Universe::run(p, |comm| {
        let part = rsparse::BlockRowPartition::even(a.rows(), comm.size());
        let da = rsparse::DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
        let dx = rsparse::DistVector::from_global(part.clone(), comm.rank(), x).unwrap();
        let mut dy = rsparse::DistVector::zeros(part, comm.rank());
        comm.barrier().unwrap();
        let t0 = Instant::now();
        for _ in 0..iters {
            da.matvec_into(comm, &dx, &mut dy).unwrap();
        }
        t0.elapsed()
    });
    took.into_iter().max().unwrap_or_default()
}

fn halo_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("halo");
    group.bench_with_input(BenchmarkId::new("exchange", 2), &2, |b, &p| {
        b.iter_custom(|iters| {
            let took = Universe::run(p, |comm| {
                let peer = 1 - comm.rank();
                let tx = comm.open_send_line(peer, 7001, 32).unwrap();
                let rx = comm.open_recv_line(peer, 7001, 32).unwrap();
                let x = vec![1.0f64; 32];
                let mut ghosts = vec![0.0f64; 32];
                comm.barrier().unwrap();
                let t0 = Instant::now();
                for _ in 0..iters {
                    comm.post(&tx, 32, |buf| buf.copy_from_slice(&x)).unwrap();
                    comm.take(&rx, |vals| ghosts.copy_from_slice(vals)).unwrap();
                }
                criterion::black_box(&ghosts);
                t0.elapsed()
            });
            took.into_iter().max().unwrap_or_default()
        });
    });
    // `sync_cg_2r`'s matrix.
    let small = rsparse::generate::laplacian_2d(32);
    let xs = rsparse::generate::random_vector(small.rows(), 3);
    group.bench_with_input(BenchmarkId::new("spmv32", 2), &2, |b, &p| {
        b.iter_custom(|iters| spmv_burst(&small, &xs, p, iters));
    });
    // The paper's actual communication pattern: distributed SpMV halos.
    let a = rsparse::generate::laplacian_2d(60);
    let x = rsparse::generate::random_vector(a.rows(), 3);
    for p in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("spmv", p), &p, |b, &p| {
            b.iter_custom(|iters| spmv_burst(&a, &x, p, iters));
        });
    }
    group.finish();
}

criterion_group!(benches, allreduce, bcast_barrier, halo_exchange);
criterion_main!(benches);
