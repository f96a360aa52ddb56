//! The untraced pass of one workload in this process: a warm-up session,
//! then sessions of one cold open and `resolves` re-solves until the time
//! is used up. Closed loop, one client.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use rcomm::{Communicator, Universe};
use rsparse::BlockRowPartition;

use crate::session::{self, Calibrator, RankData, Request, Rhs};
use crate::trace::Recorder;
use crate::workloads::Workload;

/// What the run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Seconds to measure for, after the warm-up session.
    pub seconds: f64,
    /// Smoke-test sizes.
    pub quick: bool,
}

/// Raw samples of one process, as rank 0 saw them (times are max over ranks).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// One per re-solve: `setupRHS` + `solve` on the live port, calibrated seconds.
    pub solve_s: Vec<f64>,
    /// One per cold open: its wall minus the port's own solve-phase
    /// seconds, calibrated seconds.
    pub setup_s: Vec<f64>,
    /// The same two in wall seconds, as a clock on this host read them.
    pub solve_wall_s: Vec<f64>,
    pub setup_wall_s: Vec<f64>,
    /// Every calibration pass, measured over nominal seconds.
    pub host_slowdown: Vec<f64>,
    /// `VmHWM` when the first measured session ended: two cold opens and
    /// the workload's re-solves, the same work in every run. Later
    /// sessions fill the session cache, and how many the time allows
    /// depends on the host's speed.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the human reader.
    pub failures: Vec<String>,
}

impl Samples {
    pub fn record(&mut self, r: &Request) {
        self.attempted += 1;
        if let Some(why) = &r.failure {
            self.failed += 1;
            if self.failures.len() < 4 {
                self.failures.push(why.clone());
            }
        }
    }
}

/// Assemble this rank's share (and the whole matrix on rank 0).
pub fn rank_data(comm: &Communicator, w: &Workload, quick: bool) -> RankData {
    let m = w.side(quick);
    let partition = BlockRowPartition::even(m * m, comm.size());
    RankData {
        local: w.assemble_local(m, &partition, comm.rank()),
        start_row: partition.range(comm.rank()).start,
        side: m,
        global_rows: m * m,
        global: comm.is_root().then(|| w.assemble_global(m)),
    }
}

/// The per-session request numbering: every request of a run draws its
/// right-hand side from `(seed, counter)` and every session its tag.
pub struct Requests {
    seed: u64,
    next: u64,
    pub calibrator: Calibrator,
}

impl Requests {
    /// Collective. `handoff` is the one barrier all ranks of the run share.
    pub fn new(seed: u64, comm: &Communicator, data: &RankData, handoff: &Arc<Barrier>) -> Self {
        Requests {
            seed,
            next: 0,
            calibrator: Calibrator::new(comm, data, Arc::clone(handoff)),
        }
    }

    pub fn rhs(&mut self, data: &RankData, nrhs: usize) -> Rhs {
        self.next += 1;
        Rhs::generate(data, nrhs, self.seed, self.next)
    }

    pub fn tag(&self) -> String {
        format!("lisibench-{}-{}", self.seed, self.next)
    }
}

/// A wired component and its port, alive for the re-solves of a session.
pub type Live = (cca::Framework, Arc<dyn lisi::SparseSolverPort>);

/// One cold open: wire, ingest, first solve, all inside one timed region,
/// one span per step of the paper's call sequence.
pub fn cold_open(
    comm: &Communicator,
    w: &Workload,
    data: &RankData,
    reqs: &mut Requests,
    rec: &Recorder,
) -> (Request, Option<Live>) {
    let rhs = reqs.rhs(data, w.nrhs);
    let tag = reqs.tag();
    let mut live = None;
    let r = session::request(comm, data, &rhs, &mut reqs.calibrator, || {
        let (fw, port) = rec.scope("cca.wire", || session::wire(w.package));
        rec.scope("core.ingest", || {
            session::ingest(port.as_ref(), comm, w, data, &tag, &rhs)
        })?;
        let out = rec.scope("core.first_solve", || {
            session::solve(port.as_ref(), data.local.rows(), w.nrhs)
        });
        live = Some((fw, port));
        out
    });
    let live = live.filter(|_| r.failure.is_none());
    (r, live)
}

/// One re-solve on a live port: `setupRHS` with `rhs`, then `solve`.
pub fn resolve(
    comm: &Communicator,
    w: &Workload,
    data: &RankData,
    rhs: &Rhs,
    port: &dyn lisi::SparseSolverPort,
    calibrator: &mut Calibrator,
    rec: &Recorder,
) -> Request {
    session::request(comm, data, rhs, calibrator, || {
        rec.scope("core.setup_rhs", || port.setup_rhs(&rhs.local, w.nrhs))?;
        rec.scope("core.resolve", || {
            session::solve(port, data.local.rows(), w.nrhs)
        })
    })
}

/// Run the workload untraced and return rank 0's samples.
pub fn run(w: &Workload, args: RunArgs) -> Samples {
    let handoff = Arc::new(Barrier::new(w.ranks));
    let mut out = Universe::run(w.ranks, |comm| {
        let data = rank_data(comm, w, args.quick);
        let mut reqs = Requests::new(args.seed, comm, &data, &handoff);
        let mut s = Samples::default();
        let rec = Recorder::off();

        // Warm-up session, discarded: page faults, allocator growth and the
        // thread hand-off settling belong to the process, not to a request.
        drop(cold_open(comm, w, &data, &mut reqs, &rec));

        let t0 = Instant::now();
        // Rank 0's clock decides; every rank follows, or a collective hangs.
        let expired = |comm: &Communicator| {
            comm.bcast(0, t0.elapsed().as_secs_f64() >= args.seconds)
                .expect("bcast")
        };
        loop {
            let (open, live) = cold_open(comm, w, &data, &mut reqs, &rec);
            s.record(&open);
            if let Some((_framework, port)) = live {
                let setup = open.seconds - open.solve_phase;
                s.setup_wall_s.push(setup);
                s.setup_s.push(setup * open.scale);
                let first = s.setup_s.len() == 1;
                for _ in 0..w.resolves {
                    let rhs = reqs.rhs(&data, w.nrhs);
                    let r = resolve(
                        comm,
                        w,
                        &data,
                        &rhs,
                        port.as_ref(),
                        &mut reqs.calibrator,
                        &rec,
                    );
                    s.record(&r);
                    if r.failure.is_none() {
                        s.solve_wall_s.push(r.seconds);
                        s.solve_s.push(r.seconds * r.scale);
                    }
                    // The first session runs whole, so that every run has
                    // done the same work when its memory is read.
                    if !first && expired(comm) {
                        break;
                    }
                }
                if first {
                    s.peak_rss_mb = peak_rss_mb();
                }
            }
            if expired(comm) {
                break;
            }
        }
        s.host_slowdown = reqs.calibrator.slowdown;
        s
    });
    out.swap_remove(0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
