//! The traced pass of one workload: the same sessions with a span around
//! every port call, each request replayed natively through traced wrappers,
//! short call loops on the communicator and the kernels, and the numbers
//! that reconcile them. End-to-end metrics are never taken from here.

use std::time::Instant;

use rcomm::{Communicator, Universe};
use rsparse::DistVector;

use crate::measure::{self, Requests, RunArgs};
use crate::native::Native;
use crate::session::{self, RankData, Rhs};
use crate::stats::{median, quantile, Summary};
use crate::trace::{self, Recorder, Span};
use crate::workloads::Workload;
use crate::Metric;

/// Re-solves per traced session: enough pairs for a median, few enough
/// that the traced pass stays a fraction of the untraced one.
const TRACED_RESOLVES: usize = 20;
/// Calls per communicator loop.
const COMM_CALLS: usize = 2000;
/// Calls per kernel loop.
const KERNEL_CALLS: usize = 50;

/// Everything the traced pass of one process produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every rank's span log, for `trace.json`.
    pub spans: Vec<Vec<Span>>,
}

/// What a rank brings back from the universe.
struct RankOut {
    spans: Vec<Span>,
    samples: Option<Box<Raw>>,
}

/// Rank 0's raw numbers that are not spans.
#[derive(Default)]
struct Raw {
    counts: measure::Samples,
    /// Port re-solve wall with spans recorded / not recorded / probe armed.
    port_traced: Vec<f64>,
    port_untraced: Vec<f64>,
    /// Native replay wall (conversion of the slices included, as the port pays it).
    native: Vec<f64>,
    /// Paired differences, seconds.
    port_minus_native: Vec<f64>,
    armed_minus_port: Vec<f64>,
    fingerprint: Vec<f64>,
    iterations: Option<usize>,
    allreduces_per_solve: f64,
    sends_per_solve: f64,
    p2p_bytes_per_solve: f64,
    fill_nnz: f64,
    nnz: f64,
    rows: f64,
    loops: Loops,
    session_entries: f64,
    session_bytes: f64,
    host_slowdown: Vec<f64>,
}

/// Per-call microseconds from the call loops.
#[derive(Default)]
struct Loops {
    allreduce: Vec<f64>,
    pingpong: Vec<f64>,
    allgather: Vec<f64>,
    barrier: Vec<f64>,
    spmv: Vec<f64>,
    spmv_local: Vec<f64>,
    axpy: Vec<f64>,
    dot: Vec<f64>,
}

/// Microseconds of each of `calls` calls of `f`, after a few unrecorded ones.
fn call_loop(calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..calls / 10 + 1 {
        f();
    }
    (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Short call loops on `Communicator` at the workload's rank count. With
/// one rank there is no partner and nothing to hand off: the loops are
/// skipped and the metrics read zero.
fn comm_loops(comm: &Communicator, halo_len: usize, loops: &mut Loops) {
    if comm.size() < 2 {
        return;
    }
    let c = comm.dup().expect("dup");
    let partner = (c.rank() + 1) % c.size();
    let from = (c.rank() + c.size() - 1) % c.size();
    let halo = vec![1.0f64; halo_len];
    c.barrier().expect("barrier");
    loops.allreduce = call_loop(COMM_CALLS, || {
        std::hint::black_box(c.allreduce(1.0f64, rcomm::sum).expect("allreduce"));
    });
    loops.pingpong = call_loop(COMM_CALLS, || {
        let got: Vec<f64> = c
            .sendrecv(partner, 7, halo.clone(), from, 7)
            .expect("sendrecv");
        std::hint::black_box(got);
    });
    loops.allgather = call_loop(COMM_CALLS, || {
        std::hint::black_box(c.allgather(true).expect("allgather"));
    });
    loops.barrier = call_loop(COMM_CALLS, || c.barrier().expect("barrier"));
}

/// Short call loops on the kernels under the solvers: the distributed
/// SpMV, the same rows as a rank-local product with no halo, axpy and dot.
fn kernel_loops(comm: &Communicator, data: &RankData, native: &Native, loops: &mut Loops) {
    let a = native.matrix();
    let rank = comm.rank();
    let part = a.partition().clone();
    let ones = vec![1.0; a.local_rows()];
    let x = DistVector::from_local(part.clone(), rank, ones.clone()).expect("vector");
    let mut y = DistVector::zeros(part.clone(), rank);
    comm.barrier().expect("barrier");
    loops.spmv = call_loop(KERNEL_CALLS, || {
        a.matvec_into(comm, &x, &mut y).expect("matvec")
    });
    let x_full = vec![1.0; data.global_rows];
    let mut y_local = vec![0.0; a.local_rows()];
    loops.spmv_local = call_loop(KERNEL_CALLS, || {
        a.local_matrix()
            .matvec_into(std::hint::black_box(&x_full), &mut y_local);
        std::hint::black_box(&mut y_local);
    });
    loops.axpy = call_loop(KERNEL_CALLS, || {
        y.axpy(0.5, std::hint::black_box(&x)).expect("axpy")
    });
    comm.barrier().expect("barrier");
    loops.dot = call_loop(KERNEL_CALLS, || {
        std::hint::black_box(x.dot(&y, comm).expect("dot"));
    });
}

/// One `lisi::service::fingerprint` over this rank's arrays, as every
/// `solve` through an adapter computes it.
fn fingerprint_seconds(comm: &Communicator, data: &RankData, options_dump: &str) -> f64 {
    let t = Instant::now();
    std::hint::black_box(lisi::service::fingerprint(
        comm.rank(),
        comm.size(),
        data.start_row,
        data.global_rows,
        data.local.row_ptr(),
        data.local.col_idx(),
        data.local.values(),
        options_dump,
    ));
    t.elapsed().as_secs_f64()
}

/// One traced session on this rank.
#[allow(clippy::too_many_arguments)]
fn traced_session(
    comm: &Communicator,
    native_comm: &Communicator,
    w: &Workload,
    data: &RankData,
    reqs: &mut Requests,
    rec: &Recorder,
    raw: &mut Raw,
    expired: &dyn Fn(&Communicator) -> bool,
) {
    let (open, live) = rec.scope("session.cold_open", || {
        measure::cold_open(comm, w, data, reqs, rec)
    });
    raw.counts.record(&open);
    let Some((_framework, port)) = live else {
        return;
    };
    for _ in 0..5 {
        raw.fingerprint
            .push(fingerprint_seconds(comm, data, &port.get_all()));
    }

    // The same system set up natively, each step under its own span.
    let mut native = rec.scope("session.native_setup", || {
        Native::setup(native_comm, w, data, rec)
    });
    raw.fill_nnz = native.fill_nnz() as f64;

    // Each right-hand side is solved three ways, the order rotating so that
    // no way always runs first: through the port, natively, and through the
    // port with the program's own probe armed. The port solve records spans
    // on even requests and not on odd ones; the gap is the tracing overhead.
    for i in 0..w.resolves.min(TRACED_RESOLVES) {
        let rhs = reqs.rhs(data, w.nrhs);
        let (mut port_s, mut native_s, mut armed_s) = (None, None, None);
        for step in 0..3 {
            match (step + i) % 3 {
                0 => {
                    rec.set_on(i % 2 == 0);
                    let r = rec.scope("session.resolve", || {
                        measure::resolve(
                            comm,
                            w,
                            data,
                            &rhs,
                            port.as_ref(),
                            &mut reqs.calibrator,
                            rec,
                        )
                    });
                    rec.set_on(true);
                    raw.counts.record(&r);
                    port_s = r.failure.is_none().then_some(r.seconds);
                }
                1 => native_s = native_replay(native_comm, w, data, &rhs, &mut native, rec, raw),
                _ => {
                    probe::set_mode(probe::ProbeMode::Summary);
                    let r = measure::resolve(
                        comm,
                        w,
                        data,
                        &rhs,
                        port.as_ref(),
                        &mut reqs.calibrator,
                        &Recorder::off(),
                    );
                    probe::set_mode(probe::ProbeMode::Off);
                    raw.counts.record(&r);
                    armed_s = r.failure.is_none().then_some(r.seconds);
                }
            }
        }
        if let Some(p) = port_s {
            if i % 2 == 0 {
                &mut raw.port_traced
            } else {
                &mut raw.port_untraced
            }
            .push(p);
            if let Some(n) = native_s {
                raw.port_minus_native.push(p - n);
            }
            if let Some(a) = armed_s {
                raw.armed_minus_port.push(a - p);
            }
        }
        if i >= 1 && expired(comm) {
            break;
        }
    }

    if raw.loops.spmv.is_empty() {
        kernel_loops(native_comm, data, &native, &mut raw.loops);
    }
}

/// Solve `rhs` natively, timed like a request, and check it like one.
fn native_replay(
    comm: &Communicator,
    w: &Workload,
    data: &RankData,
    rhs: &Rhs,
    native: &mut Native,
    rec: &Recorder,
    raw: &mut Raw,
) -> Option<f64> {
    let before = comm.stats();
    let (seconds, out) = rec.scope("session.native", || {
        session::timed(comm, || native.solve(comm, &rhs.local, w.nrhs))
    });
    if raw.iterations.is_none() {
        // Counts of the run's first replay: they depend on the seed alone,
        // not on how many requests the time allowed.
        let after = comm.stats();
        raw.iterations = Some(out.iterations);
        raw.allreduces_per_solve = (after.allreduces - before.allreduces) as f64;
        raw.sends_per_solve = (after.sends - before.sends) as f64;
        raw.p2p_bytes_per_solve = (after.bytes_sent - before.bytes_sent) as f64;
    }
    let claim = if out.converged {
        Ok(())
    } else {
        Err("native replay did not converge")
    };
    let failure = rhs.verdict(comm, data, &out.x, claim);
    raw.counts.attempted += 1;
    if let Some(why) = &failure {
        raw.counts.failed += 1;
        raw.counts.failures.push(why.clone());
    }
    failure.is_none().then(|| {
        raw.native.push(seconds);
        seconds
    })
}

/// Run the workload traced.
pub fn run(w: &Workload, args: RunArgs) -> Traced {
    let handoff = std::sync::Arc::new(std::sync::Barrier::new(w.ranks));
    let outs = Universe::run(w.ranks, |comm| {
        let rec = Recorder::new();
        let data = rec.scope("mesh.assemble", || measure::rank_data(comm, w, args.quick));
        let native_comm = comm.dup().expect("dup");
        let mut reqs = Requests::new(args.seed, comm, &data, &handoff);
        let mut raw = Raw::default();

        drop(measure::cold_open(
            comm,
            w,
            &data,
            &mut reqs,
            &Recorder::off(),
        ));

        let t0 = Instant::now();
        let expired = |comm: &Communicator| {
            comm.bcast(0, t0.elapsed().as_secs_f64() >= args.seconds)
                .expect("bcast")
        };
        let mut session = 0;
        loop {
            session += 1;
            rec.set_session(session);
            traced_session(
                comm,
                &native_comm,
                w,
                &data,
                &mut reqs,
                &rec,
                &mut raw,
                &expired,
            );
            if expired(comm) {
                break;
            }
        }
        rec.set_session(0);
        comm_loops(comm, data.side, &mut raw.loops);

        let nnz = comm
            .allreduce(data.local.nnz() as f64, rcomm::sum)
            .expect("allreduce");
        raw.nnz = nnz;
        raw.rows = data.global_rows as f64;
        let (entries, bytes) = lisi::SolverService::global().stats();
        raw.session_entries = entries as f64;
        raw.session_bytes = bytes as f64;
        raw.host_slowdown = reqs.calibrator.slowdown;
        RankOut {
            spans: rec.spans(),
            samples: comm.is_root().then(|| Box::new(raw)),
        }
    });
    let raw = outs[0]
        .samples
        .as_ref()
        .expect("rank 0 returns its samples");
    let metrics = layer_metrics(&outs[0].spans, raw);
    Traced {
        metrics,
        attempted: raw.counts.attempted,
        failed: raw.counts.failed,
        failures: raw.counts.failures.clone(),
        spans: outs.iter().map(|o| o.spans.clone()).collect(),
    }
}

/// Every per-layer metric, from rank 0's spans and raw numbers.
fn layer_metrics(spans: &[Span], raw: &Raw) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, summary: Summary| m.push(Metric { name, summary });
    let of = |name: &str| Summary::of(&trace::durations(spans, name));
    let us = |v: &[f64]| Summary::of(v);

    put("mesh.assemble_s", of("mesh.assemble"));
    put("cca.wire_s", of("cca.wire"));

    put("core.ingest_s", of("core.ingest"));
    put("core.first_solve_s", of("core.first_solve"));
    put("core.setup_rhs_s", of("core.setup_rhs"));
    put("core.resolve_s", of("core.resolve"));
    let fingerprint = Summary::of(&raw.fingerprint);
    put("core.fingerprint_s", fingerprint);
    let port: Vec<f64> = raw
        .port_traced
        .iter()
        .chain(&raw.port_untraced)
        .copied()
        .collect();
    let (port_q, native_q) = (Summary::of(&port), Summary::of(&raw.native));
    let overhead = median(&raw.port_minus_native);
    put(
        "core.overhead_s",
        Summary {
            value: overhead,
            n: raw.port_minus_native.len(),
            ..Summary::of(&raw.port_minus_native)
        },
    );
    put(
        "core.overhead_pct",
        Summary::single(pct(overhead, native_q.value)),
    );
    put("core.session_entries", Summary::single(raw.session_entries));
    put("core.session_bytes", Summary::single(raw.session_bytes));
    put("core.failed", Summary::single(raw.counts.failed as f64));

    // The package driver's own span, its self time, and what it called.
    let driver = |name: &str, child: &str| {
        let s = trace::splits(spans, name);
        let pick =
            |f: &dyn Fn(&trace::Split) -> f64| Summary::of(&s.iter().map(f).collect::<Vec<_>>());
        (
            pick(&|x| x.total),
            pick(&|x| x.self_time),
            pick(&|x| x.child(child).0),
            Summary::single(s.first().map_or(0.0, |x| x.child(child).1 as f64)),
        )
    };
    let iterations = |on: bool| {
        Summary::single(if on {
            raw.iterations.unwrap_or(0) as f64
        } else {
            0.0
        })
    };
    let (k_solve, k_self, k_pc, k_pc_calls) = driver("krylov.solve", "krylov.pc_apply");
    put("krylov.solve_s", k_solve);
    put("krylov.self_s", k_self);
    put("krylov.pc_setup_s", of("krylov.pc_setup"));
    put("krylov.pc_apply_s", k_pc);
    put("krylov.pc_apply_calls", k_pc_calls);
    put("krylov.iterations", iterations(k_solve.n > 0));
    let (a_iter, a_self, a_mv, a_mv_calls) = driver("aztec.iterate", "aztec.matvec");
    put("aztec.iterate_s", a_iter);
    put("aztec.self_s", a_self);
    put("aztec.matvec_s", a_mv);
    put("aztec.matvec_calls", a_mv_calls);
    put("aztec.iterations", iterations(a_iter.n > 0));
    put("direct.factor_s", of("direct.factor"));
    put("direct.trisolve_s", of("direct.trisolve"));
    put("direct.fill_nnz", Summary::single(raw.fill_nnz));

    put("sparse.distribute_s", of("sparse.distribute"));
    // Seen from outside, RAztec's matvec is the SpMV (plus its vector
    // bridge), so on that workload the two layers report the same calls.
    let (_, _, k_mv, k_mv_calls) = driver("krylov.solve", "sparse.spmv");
    let (spmv, spmv_calls) = if a_iter.n > 0 {
        (a_mv, a_mv_calls)
    } else {
        (k_mv, k_mv_calls)
    };
    put("sparse.spmv_s", spmv);
    put("sparse.spmv_calls", spmv_calls);
    let (spmv_us, local_us) = (us(&raw.loops.spmv), us(&raw.loops.spmv_local));
    put("sparse.spmv_call_us", spmv_us);
    put("sparse.spmv_local_call_us", local_us);
    let two_ranks = !raw.loops.allreduce.is_empty();
    put(
        "sparse.halo_us",
        Summary::single(if two_ranks {
            spmv_us.value - local_us.value
        } else {
            0.0
        }),
    );
    // Computed from array sizes, not measured traffic: 2 flops per stored
    // entry; 8 B value + 8 B index + 8 B x per entry, 8 B y + 8 B row
    // pointer per row, one closing row pointer.
    let gflops = if spmv_us.value > 0.0 {
        2.0 * raw.nnz / (spmv_us.value * 1e3)
    } else {
        0.0
    };
    put("sparse.spmv_gflops", Summary::single(gflops));
    put(
        "sparse.spmv_bytes_computed",
        Summary::single(24.0 * raw.nnz + 16.0 * raw.rows + 8.0),
    );
    let (_, _, multi, multi_calls) = driver("krylov.solve", "sparse.spmv_multi");
    put("sparse.spmv_multi_s", multi);
    put("sparse.spmv_multi_calls", multi_calls);
    put("sparse.axpy_us", us(&raw.loops.axpy));
    put("sparse.dot_us", us(&raw.loops.dot));

    let allgather_us = quantile(&raw.loops.allgather, 0.5);
    put(
        "comm.allreduce_us_p50",
        Summary::single(quantile(&raw.loops.allreduce, 0.5)),
    );
    put(
        "comm.allreduce_us_p90",
        Summary::single(quantile(&raw.loops.allreduce, 0.9)),
    );
    put(
        "comm.pingpong_us_p50",
        Summary::single(quantile(&raw.loops.pingpong, 0.5)),
    );
    put("comm.allgather_us_p50", Summary::single(allgather_us));
    put(
        "comm.barrier_us_p50",
        Summary::single(quantile(&raw.loops.barrier, 0.5)),
    );
    put(
        "comm.allreduces_per_solve",
        Summary::single(raw.allreduces_per_solve),
    );
    put("comm.sends_per_solve", Summary::single(raw.sends_per_solve));
    put(
        "comm.p2p_bytes_per_solve",
        Summary::single(raw.p2p_bytes_per_solve),
    );

    put(
        "probe.armed_overhead_pct",
        Summary::single(pct(median(&raw.armed_minus_port), port_q.value)),
    );
    let (traced_q, untraced_q) = (
        Summary::of(&raw.port_traced).value,
        Summary::of(&raw.port_untraced).value,
    );
    put(
        "bench.trace_overhead_pct",
        Summary::single(pct(traced_q - untraced_q, untraced_q)),
    );
    // What the port re-solve costs beyond the native solve and the adapter
    // pieces timed on their own: the reconciled remainder.
    let explained =
        native_q.value + of("core.setup_rhs").value + fingerprint.value + 2.0 * allgather_us * 1e-6;
    put(
        "bench.unattributed_pct",
        Summary::single(pct(port_q.value - explained, port_q.value)),
    );
    // The calibration passes of this run: how slow the host was against
    // the nominal machine, and whether it changed speed during the run.
    let canary = Summary::of(&raw.host_slowdown);
    put(
        "host.canary_slowdown",
        Summary {
            value: canary.median,
            ..canary
        },
    );
    put(
        "host.canary_spread_pct",
        Summary::single(pct(canary.p75 - canary.value, canary.median)),
    );
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    put("host.threads", Summary::single(threads as f64));
    m
}

/// `100·part/whole`, 0 when there is no whole.
fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}
