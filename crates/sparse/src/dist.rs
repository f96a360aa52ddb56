//! Distributed block-row matrices and vectors over an [`rcomm`]
//! communicator.
//!
//! This is the parallel layout the paper's LISI assumes (§5.4): the
//! coefficient matrix, right-hand side and solution are divided conformally
//! into block rows, one block per processor. A [`DistCsrMatrix`] stores its
//! local rows (with *global* column indices) and, at construction, builds a
//! **halo-exchange plan**: which remote vector entries its rows touch, who
//! owns them, and which of its own entries other ranks need.
//!
//! The matvec hot path is communication-overlapped and allocation-free in
//! steady state. At plan-build time the local rows are split into an
//! **interior** part (rows touching only owned columns) and a **boundary**
//! part (rows touching at least one ghost column). A matvec then
//!
//! 1. posts halo sends from persistent staging buffers,
//! 2. computes every interior row while the halos are in flight,
//! 3. drains receives **out of order** as they arrive (via `iprobe`),
//! 4. finishes with the boundary rows against `[x_local, ghosts]`.
//!
//! The pieces are stored compactly (`u32` renumbered columns, every index
//! checked once at plan build — see `compact.rs`), and a boundary row
//! reads its owned entries from `x` itself and its ghost entries from the
//! ghost slots, so `x` is never copied. The interior rows that repeat the
//! row above shifted by one column — the bulk of a stencil matrix — are
//! stored as **stencil runs**, diagonal-major with no column indices at
//! all. The ghost slots and the send
//! staging buffers live in a `MatvecWorkspace` owned by the matrix
//! (interior mutability), so repeated matvecs — the inner loop of every
//! Krylov solve — perform no heap allocation. Dot products and norms
//! reduce over the communicator.

use std::sync::{Arc, Mutex};

use rcomm::Communicator;

use crate::compact::{self, CompactRows, StencilRuns};
use crate::csr::CsrMatrix;
use crate::dense;
use crate::error::{SparseError, SparseResult};
use crate::partition::BlockRowPartition;

/// Reserved user-level tag for halo traffic.
const TAG_HALO: rcomm::Tag = 7001;

/// Reserved user-level tag for batched (multi-RHS) halo traffic — kept
/// distinct from [`TAG_HALO`] so interleaved single and multi matvecs
/// can never consume each other's payloads.
const TAG_HALO_MULTI: rcomm::Tag = 7002;

/// A block-row-distributed dense vector: each rank owns one contiguous
/// chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct DistVector {
    partition: BlockRowPartition,
    rank: usize,
    local: Vec<f64>,
}

impl DistVector {
    /// Wrap a local chunk. The chunk length must match the partition.
    pub fn from_local(
        partition: BlockRowPartition,
        rank: usize,
        local: Vec<f64>,
    ) -> SparseResult<Self> {
        let expect = partition.local_rows(rank);
        if local.len() != expect {
            return Err(SparseError::LengthMismatch {
                what: "local vector chunk",
                expected: expect,
                got: local.len(),
            });
        }
        Ok(DistVector { partition, rank, local })
    }

    /// Zero vector conforming to `partition`.
    pub fn zeros(partition: BlockRowPartition, rank: usize) -> Self {
        let n = partition.local_rows(rank);
        DistVector { partition, rank, local: vec![0.0; n] }
    }

    /// Take this rank's chunk of a replicated global vector.
    pub fn from_global(
        partition: BlockRowPartition,
        rank: usize,
        global: &[f64],
    ) -> SparseResult<Self> {
        if global.len() != partition.global_rows() {
            return Err(SparseError::LengthMismatch {
                what: "global vector",
                expected: partition.global_rows(),
                got: global.len(),
            });
        }
        let r = partition.range(rank);
        Ok(DistVector { partition, rank, local: global[r].to_vec() })
    }

    /// The owning partition.
    pub fn partition(&self) -> &BlockRowPartition {
        &self.partition
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Borrow the local chunk.
    pub fn local(&self) -> &[f64] {
        &self.local
    }

    /// Mutably borrow the local chunk.
    pub fn local_mut(&mut self) -> &mut [f64] {
        &mut self.local
    }

    /// Global length.
    pub fn global_len(&self) -> usize {
        self.partition.global_rows()
    }

    /// Parallel dot product (local dot + allreduce).
    pub fn dot(&self, other: &DistVector, comm: &Communicator) -> SparseResult<f64> {
        if self.partition != other.partition {
            return Err(SparseError::BadBlockPartition(
                "dot operands have different partitions".into(),
            ));
        }
        let local = dense::pdot(&self.local, &other.local);
        Ok(comm.allreduce(local, rcomm::sum)?)
    }

    /// Parallel 2-norm.
    pub fn norm2(&self, comm: &Communicator) -> SparseResult<f64> {
        Ok(self.dot(self, comm)?.sqrt())
    }

    /// Parallel ∞-norm.
    pub fn norm_inf(&self, comm: &Communicator) -> SparseResult<f64> {
        let local = dense::norm_inf(&self.local);
        Ok(comm.allreduce(local, rcomm::max)?)
    }

    /// self ← self + a·x (purely local).
    pub fn axpy(&mut self, a: f64, x: &DistVector) -> SparseResult<()> {
        if self.partition != x.partition {
            return Err(SparseError::BadBlockPartition(
                "axpy operands have different partitions".into(),
            ));
        }
        dense::axpy(a, &x.local, &mut self.local);
        Ok(())
    }

    /// Gather the full vector onto `root` (None elsewhere).
    pub fn gather_to_root(
        &self,
        comm: &Communicator,
        root: usize,
    ) -> SparseResult<Option<Vec<f64>>> {
        Ok(comm.gatherv(root, &self.local)?)
    }

    /// Replicate the full vector on every rank.
    pub fn allgather_full(&self, comm: &Communicator) -> SparseResult<Vec<f64>> {
        Ok(comm.allgatherv(&self.local)?)
    }
}

/// The halo-exchange plan compiled at matrix construction.
#[derive(Debug, Clone, PartialEq)]
struct HaloPlan {
    /// `(destination rank, local indices to ship)`, ascending by rank.
    sends: Vec<(usize, Vec<usize>)>,
    /// `(source rank, ghost-slot offset, count)`, ascending by rank; the
    /// ghost region is grouped by owner and sorted by global column inside
    /// each group — both sides derive this order independently.
    recvs: Vec<(usize, usize, usize)>,
    /// Total number of ghost slots.
    n_ghosts: usize,
}

/// The local rows compiled into compact pieces by halo dependence.
///
/// Columns are renumbered into two index spaces: an owned column is its
/// offset into this rank's chunk (global start row subtracted), a ghost
/// column is its ghost slot in plan order. Because block-row ownership is
/// contiguous and ascending in rank, and ghost slots are grouped by owner
/// rank and sorted by global column inside each group, the renumbering is
/// monotone on owned columns and monotone on ghost columns — so each row
/// is stored as "owned entries then ghost entries", both in the original
/// scan order, and that is the order every kernel accumulates it in.
#[derive(Debug, Clone, PartialEq)]
struct SplitLocal {
    /// Rows touching only owned columns whose pattern is the previous
    /// row's shifted by one, in runs long enough to store without column
    /// indices.
    runs: StencilRuns,
    /// The other rows touching only owned columns.
    interior: CompactRows,
    /// Rows touching at least one ghost column.
    boundary: CompactRows,
}

impl SplitLocal {
    /// `(rows, stored entries)` of the rows touching only owned columns,
    /// however they are stored — the interior kernel's logical shape.
    fn interior_shape(&self) -> (usize, usize) {
        (self.runs.row_count() + self.interior.rows().len(), self.runs.nnz() + self.interior.nnz())
    }
}

/// Persistent per-matrix scratch for [`DistCsrMatrix::matvec_into`]: the
/// ghost slots, one pool of reference-counted send staging buffers per
/// destination, and the out-of-order receive bookkeeping.
///
/// Send payloads travel as `Arc<Vec<f64>>`: the sender keeps one clone in
/// its pool and the receiver drops its clone after copying the values out,
/// at which point `Arc::get_mut` succeeds again and the buffer is reused.
/// A pool only grows when a matvec is staged while the receiver still
/// holds the previous buffer (bounded by receiver lag); `steady_allocs`
/// counts such growth after the first matvec so tests can assert the
/// steady state allocates nothing.
#[derive(Debug)]
struct MatvecWorkspace {
    /// The ghost slots, in plan order; owned entries are read from `x`
    /// in place.
    ghosts: Vec<f64>,
    /// Per-send-slot buffer pools, parallel to `HaloPlan::sends`.
    send_pools: Vec<Vec<Arc<Vec<f64>>>>,
    /// Per-recv "not yet drained this matvec" flags, parallel to
    /// `HaloPlan::recvs`.
    recv_pending: Vec<bool>,
    /// Heap allocations made after the first matvec completed.
    steady_allocs: u64,
    /// Whether at least one matvec has completed.
    primed: bool,
}

impl MatvecWorkspace {
    fn new(plan: &HaloPlan) -> Self {
        MatvecWorkspace {
            ghosts: vec![0.0; plan.n_ghosts],
            // Two buffers per destination: a receiver may lag one full
            // matvec behind its sender (it posts its own sends before
            // draining ours), so the k-th buffer can still be in flight
            // while the sender stages k+1. With a mutual (symmetric-
            // pattern) halo dependency the skew cannot exceed that one
            // iteration, so two buffers make the steady state
            // allocation-free; one-way couplings may queue deeper and
            // grow the pool (counted by `steady_allocs`).
            send_pools: plan
                .sends
                .iter()
                .map(|(_, idxs)| (0..2).map(|_| Arc::new(vec![0.0; idxs.len()])).collect())
                .collect(),
            recv_pending: vec![false; plan.recvs.len()],
            steady_allocs: 0,
            primed: false,
        }
    }

    /// Fill a free staging buffer for send slot `slot` with the gathered
    /// entries of `x` and return a clone to ship.
    fn stage_send(&mut self, slot: usize, idxs: &[usize], x: &[f64]) -> Arc<Vec<f64>> {
        let pool = &mut self.send_pools[slot];
        let pos = match pool.iter().position(|b| Arc::strong_count(b) == 1) {
            Some(p) => p,
            None => {
                // Every buffer is still in flight (receiver lagging);
                // grow the pool.
                if self.primed {
                    self.steady_allocs += 1;
                    probe::incr(probe::Counter::SteadyStateAllocs);
                }
                pool.push(Arc::new(vec![0.0; idxs.len()]));
                pool.len() - 1
            }
        };
        let buf = Arc::get_mut(&mut pool[pos])
            .expect("buffer uniqueness was just checked; only this rank clones it");
        for (dst, &i) in buf.iter_mut().zip(idxs) {
            *dst = x[i];
        }
        Arc::clone(&pool[pos])
    }
}

/// Persistent scratch for [`DistCsrMatrix::matvec_multi_into`]: the
/// ghost slots of `k` columns plus the batched halo bookkeeping. Rebuilt
/// (lazily) whenever a batch arrives with a different `k`; single-RHS
/// matvecs never touch it.
#[derive(Debug)]
struct MultiWorkspace {
    /// Batch width this workspace was built for.
    k: usize,
    /// `k` columns of ghost slots as in [`MatvecWorkspace::ghosts`],
    /// column `q` at `q·n_ghosts`.
    ghosts: Vec<f64>,
    /// Per-send-slot buffer pools (payload = `k` interleaved column
    /// segments), parallel to `HaloPlan::sends`.
    send_pools: Vec<Vec<Arc<Vec<f64>>>>,
    /// Per-recv "not yet drained this matvec" flags.
    recv_pending: Vec<bool>,
}

impl MultiWorkspace {
    fn new(plan: &HaloPlan, k: usize) -> Self {
        MultiWorkspace {
            k,
            ghosts: vec![0.0; k * plan.n_ghosts],
            // Two buffers per destination, as in `MatvecWorkspace`.
            send_pools: plan
                .sends
                .iter()
                .map(|(_, idxs)| (0..2).map(|_| Arc::new(vec![0.0; k * idxs.len()])).collect())
                .collect(),
            recv_pending: vec![false; plan.recvs.len()],
        }
    }

    /// Stage the batched payload for send slot `slot`: column `q` of the
    /// gathered entries lands at `payload[q·idxs.len()..]`.
    fn stage_send(
        &mut self,
        slot: usize,
        idxs: &[usize],
        xs: &[f64],
        x_stride: usize,
    ) -> Arc<Vec<f64>> {
        let k = self.k;
        let pool = &mut self.send_pools[slot];
        let pos = match pool.iter().position(|b| Arc::strong_count(b) == 1) {
            Some(p) => p,
            None => {
                pool.push(Arc::new(vec![0.0; k * idxs.len()]));
                pool.len() - 1
            }
        };
        let buf = Arc::get_mut(&mut pool[pos])
            .expect("buffer uniqueness was just checked; only this rank clones it");
        for q in 0..k {
            for (j, &i) in idxs.iter().enumerate() {
                buf[q * idxs.len() + j] = xs[q * x_stride + i];
            }
        }
        Arc::clone(&pool[pos])
    }
}

/// A block-row-distributed square sparse matrix in CSR form.
#[derive(Debug)]
pub struct DistCsrMatrix {
    partition: BlockRowPartition,
    rank: usize,
    /// Local rows compiled into compact interior/boundary pieces with
    /// renumbered columns (see [`SplitLocal`]).
    split: SplitLocal,
    /// Local rows with original global column indices (kept for gather,
    /// value updates and diagnostics). Shared with whoever handed them in
    /// and with every clone of the operator; [`Self::update_values`]
    /// copies them before it writes.
    local_global: Arc<CsrMatrix>,
    plan: HaloPlan,
    /// Reusable matvec scratch; interior mutability so the hot path takes
    /// `&self` (each rank owns its matrix, so the lock is uncontended).
    workspace: Mutex<MatvecWorkspace>,
    /// Reusable batched-matvec scratch, built lazily on the first
    /// [`Self::matvec_multi_into`] call and rebuilt when the batch width
    /// changes.
    multi_workspace: Mutex<Option<MultiWorkspace>>,
}

impl Clone for DistCsrMatrix {
    fn clone(&self) -> Self {
        DistCsrMatrix {
            partition: self.partition.clone(),
            rank: self.rank,
            split: self.split.clone(),
            local_global: Arc::clone(&self.local_global),
            plan: self.plan.clone(),
            workspace: Mutex::new(MatvecWorkspace::new(&self.plan)),
            multi_workspace: Mutex::new(None),
        }
    }
}

impl PartialEq for DistCsrMatrix {
    /// Structural equality; the matvec workspace is scratch and ignored.
    fn eq(&self, other: &Self) -> bool {
        self.partition == other.partition
            && self.rank == other.rank
            && self.split == other.split
            && self.local_global == other.local_global
            && self.plan == other.plan
    }
}

impl DistCsrMatrix {
    /// Distribute a replicated global matrix: every rank takes its block
    /// row. Collective.
    pub fn from_global(
        comm: &Communicator,
        partition: BlockRowPartition,
        global: &CsrMatrix,
    ) -> SparseResult<Self> {
        let (rows, cols) = global.shape();
        if rows != cols {
            return Err(SparseError::NotSquare { rows, cols });
        }
        if rows != partition.global_rows() {
            return Err(SparseError::LengthMismatch {
                what: "partition",
                expected: rows,
                got: partition.global_rows(),
            });
        }
        let r = partition.range(comm.rank());
        let local = global.row_block(r.start, r.end)?;
        Self::from_local_rows(comm, partition, local)
    }

    /// Build from this rank's local rows (columns global) — the plan
    /// ("setupMatrix") step: halo plan, interior/boundary split and
    /// stencil-run detection, all kept in the operator so steady-state
    /// matvecs pay none of it. Collective: the halo plan construction
    /// performs an all-to-all.
    ///
    /// The split pieces index columns with `u32`: a rank whose owned rows
    /// plus ghost entries exceed `u32::MAX` gets
    /// [`SparseError::IndexOutOfBounds`] (after the plan's last collective).
    ///
    /// An `Arc<CsrMatrix>` is kept as it is, not copied: the operator
    /// reads the caller's rows and copies them only when its values are
    /// updated.
    pub fn from_local_rows(
        comm: &Communicator,
        partition: BlockRowPartition,
        local: impl Into<Arc<CsrMatrix>>,
    ) -> SparseResult<Self> {
        let local: Arc<CsrMatrix> = local.into();
        let rank = comm.rank();
        if partition.parts() != comm.size() {
            return Err(SparseError::BadBlockPartition(format!(
                "partition has {} parts for {} ranks",
                partition.parts(),
                comm.size()
            )));
        }
        let n_local = partition.local_rows(rank);
        if local.rows() != n_local {
            return Err(SparseError::LengthMismatch {
                what: "local rows",
                expected: n_local,
                got: local.rows(),
            });
        }
        if local.cols() != partition.global_rows() {
            return Err(SparseError::LengthMismatch {
                what: "local row width",
                expected: partition.global_rows(),
                got: local.cols(),
            });
        }

        // 0. Classify every row, once and locally: stencil runs and the
        //    compact interior remainder touch only owned columns, so only
        //    the boundary rows can name a remote one. The interior pieces'
        //    `u32` casts are lossless once `check_index_space` passes; a
        //    plan it refuses is dropped unread.
        let my_range = partition.range(rank);
        let (runs, interior, boundary_rows) = compact::split_interior(&local, &my_range, n_local);

        // 1. Find needed remote columns in the boundary rows, grouped by
        //    owner.
        let mut needed: Vec<Vec<usize>> = vec![Vec::new(); comm.size()];
        for &i in &boundary_rows {
            for &c in local.row(i).0 {
                if !my_range.contains(&c) {
                    needed[partition.owner(c)?].push(c);
                }
            }
        }
        Self::from_needed(comm, partition, local, (runs, interior, boundary_rows), needed)
    }

    /// The rest of [`Self::from_local_rows`] once this rank's rows are
    /// classified (`split_interior`'s runs, interior remainder and boundary
    /// rows) and `needed[owner]` lists the remote columns they read, in any
    /// order and with repeats.
    fn from_needed(
        comm: &Communicator,
        partition: BlockRowPartition,
        local: Arc<CsrMatrix>,
        (runs, interior, boundary_rows): (StencilRuns, CompactRows, Vec<usize>),
        mut needed: Vec<Vec<usize>>,
    ) -> SparseResult<Self> {
        let rank = comm.rank();
        let n_local = partition.local_rows(rank);
        let my_range = partition.range(rank);
        let start = my_range.start;
        for lst in &mut needed {
            lst.sort_unstable();
            lst.dedup();
        }

        // 2. Tell every owner which of its entries we need.
        let requests = comm.alltoall(needed.clone())?;

        // 3. Build send specs (convert requested global cols to local
        //    indices) and recv specs (ghost-slot layout).
        let mut sends = Vec::new();
        for (dest, req) in requests.into_iter().enumerate() {
            if dest == rank || req.is_empty() {
                continue;
            }
            let local_idx: Vec<usize> = req
                .iter()
                .map(|&c| {
                    debug_assert!(partition.range(rank).contains(&c));
                    c - start
                })
                .collect();
            sends.push((dest, local_idx));
        }
        let mut recvs = Vec::new();
        let mut ghost_of: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut offset = 0usize;
        for (src, lst) in needed.iter().enumerate() {
            if src == rank || lst.is_empty() {
                continue;
            }
            recvs.push((src, offset, lst.len()));
            for (k, &c) in lst.iter().enumerate() {
                ghost_of.insert(c, offset + k);
            }
            offset += lst.len();
        }
        let n_ghosts = offset;
        // Past the last collective of this function, so a rank that stops
        // here strands no peer.
        compact::check_index_space(n_local, n_ghosts)?;
        let plan = HaloPlan { sends, recvs, n_ghosts };

        // 4. Compile the boundary rows with renumbered columns, straight
        //    into their compact piece. The renumbering keeps owned columns
        //    and ghost columns each in order (see [`SplitLocal`]), so each
        //    output row is "owned entries then ghost entries" in one linear
        //    pass — no COO round-trip, no per-row sort. `check_index_space`
        //    above makes the `u32` casts lossless; `CompactRows::new`
        //    re-checks every index it stores.
        let mut bnd_ptr = vec![0usize];
        let mut bnd_ghost_ptr = Vec::new();
        let mut bnd_cols: Vec<u32> = Vec::new();
        let mut bnd_vals = Vec::new();
        let mut ghost_cols_scratch: Vec<u32> = Vec::new();
        let mut ghost_vals_scratch: Vec<f64> = Vec::new();
        for &i in &boundary_rows {
            let (gcols, gvals) = local.row(i);
            ghost_cols_scratch.clear();
            ghost_vals_scratch.clear();
            for (&c, &v) in gcols.iter().zip(gvals) {
                if my_range.contains(&c) {
                    bnd_cols.push((c - start) as u32);
                    bnd_vals.push(v);
                } else {
                    ghost_cols_scratch.push(ghost_of[&c] as u32);
                    ghost_vals_scratch.push(v);
                }
            }
            bnd_ghost_ptr.push(bnd_cols.len());
            bnd_cols.extend_from_slice(&ghost_cols_scratch);
            bnd_vals.extend_from_slice(&ghost_vals_scratch);
            bnd_ptr.push(bnd_cols.len());
        }
        let split = SplitLocal {
            runs,
            interior,
            boundary: CompactRows::new(
                boundary_rows,
                bnd_ptr,
                bnd_ghost_ptr,
                bnd_cols,
                bnd_vals,
                n_local,
                n_ghosts,
            ),
        };

        // Static work/traffic models, computed once here at plan build and
        // joined with the measured spans at report time. All SpMV models
        // derive from the *logical* CSR pattern, so a row carries the same
        // flops/bytes whether it is stored in a stencil run or in the
        // compact remainder.
        {
            use probe::model::{csr_traffic, register, KernelModel, TimeBase, WorkUnit};
            let spmv = |span, rows, nnz| {
                let (flops, bytes) = csr_traffic(rows, nnz);
                KernelModel {
                    span,
                    flops,
                    bytes,
                    unit: WorkUnit::SpanCalls,
                    time: TimeBase::Total,
                    nrhs: 1,
                }
            };
            register("spmv", spmv("matvec", n_local, local.nnz()));
            let (interior_rows, interior_nnz) = split.interior_shape();
            register("spmv_interior", spmv("spmv_interior", interior_rows, interior_nnz));
            register(
                "spmv_boundary",
                spmv("spmv_boundary", split.boundary.rows().len(), split.boundary.nnz()),
            );
            let send_bytes: u64 = plan.sends.iter().map(|(_, idxs)| 8 * idxs.len() as u64).sum();
            register(
                "halo_send",
                KernelModel {
                    span: "halo_post",
                    flops: 0,
                    bytes: send_bytes,
                    unit: WorkUnit::SpanCalls,
                    time: TimeBase::Total,
                    nrhs: 1,
                },
            );
            register(
                "halo_recv",
                KernelModel {
                    span: "halo_drain",
                    flops: 0,
                    bytes: 8 * plan.n_ghosts as u64,
                    unit: WorkUnit::SpanCalls,
                    time: TimeBase::Total,
                    nrhs: 1,
                },
            );
        }
        let workspace = Mutex::new(MatvecWorkspace::new(&plan));
        Ok(DistCsrMatrix {
            partition,
            rank,
            split,
            local_global: local,
            plan,
            workspace,
            multi_workspace: Mutex::new(None),
        })
    }

    /// The row partition.
    pub fn partition(&self) -> &BlockRowPartition {
        &self.partition
    }

    /// Local row count.
    pub fn local_rows(&self) -> usize {
        self.local_global.rows()
    }

    /// Local stored nonzeros.
    pub fn local_nnz(&self) -> usize {
        self.local_global.nnz()
    }

    /// Global order of the (square) matrix.
    pub fn global_order(&self) -> usize {
        self.partition.global_rows()
    }

    /// Borrow the local rows with global column indices.
    pub fn local_matrix(&self) -> &CsrMatrix {
        &self.local_global
    }

    /// Number of ghost entries this rank pulls per matvec (test/diagnostic
    /// hook; also a good measure of partition quality).
    pub fn ghost_count(&self) -> usize {
        self.plan.n_ghosts
    }

    /// Batched parallel matvec: `ys` column `q` ← A · `xs` column `q`
    /// for `k` right-hand sides laid out as contiguous local columns
    /// (column `q` at `[q·local_rows .. (q+1)·local_rows]`). Collective.
    ///
    /// One halo exchange ships all `k` boundary columns in a single
    /// message per neighbour, and the interior/boundary kernels sweep
    /// the matrix once per 8-column group (`csr::MULTI_CHUNK`)
    /// instead of once per column — the amortization the §17 work model
    /// [`probe::model::csr_traffic_multi`] describes. Each column's
    /// result is bit-identical to a [`Self::matvec_into`] call on that
    /// column alone (same kernels' per-column accumulation order, same
    /// halo values).
    pub fn matvec_multi_into(
        &self,
        comm: &Communicator,
        xs: &[f64],
        ys: &mut [f64],
        k: usize,
    ) -> SparseResult<()> {
        let n_local = self.local_rows();
        if k == 0 || xs.len() != k * n_local {
            return Err(SparseError::LengthMismatch {
                what: "batched matvec input",
                expected: k.max(1) * n_local,
                got: xs.len(),
            });
        }
        if ys.len() != k * n_local {
            return Err(SparseError::LengthMismatch {
                what: "batched matvec output",
                expected: k * n_local,
                got: ys.len(),
            });
        }
        let mut guard = self.multi_workspace.lock().unwrap_or_else(|e| e.into_inner());
        if guard.as_ref().map(|w| w.k) != Some(k) {
            *guard = Some(MultiWorkspace::new(&self.plan, k));
            self.register_multi_models(k);
        }
        let ws = guard.as_mut().expect("workspace was just installed");
        probe::add(probe::Counter::MatvecCalls, k as u64);
        let _matvec_span = probe::span!("matvec_multi");

        // 1. Post batched halo sends (k column segments per payload).
        {
            let _s = probe::span!("halo_post_multi");
            for (slot, (dest, idxs)) in self.plan.sends.iter().enumerate() {
                let payload = ws.stage_send(slot, idxs, xs, n_local);
                probe::incr(probe::Counter::HaloMessages);
                probe::add(
                    probe::Counter::HaloBytes,
                    (k * idxs.len() * std::mem::size_of::<f64>()) as u64,
                );
                comm.send(*dest, TAG_HALO_MULTI, payload)?;
            }
        }

        // 2. Interior rows while the halos are in flight.
        {
            let _s = probe::span!("spmv_multi_interior");
            self.split.runs.spmv_multi(xs, ys, k);
            self.split.interior.spmv_multi(xs, &[], 0, ys, k);
        }

        // 3. Drain the batched receives into the ghost slots.
        {
            let _s = probe::span!("halo_drain_multi");
            self.drain_halos_multi(comm, ws)?;
        }

        // 4. Boundary rows against `x` and the ghost slots.
        {
            let _s = probe::span!("spmv_multi_boundary");
            self.split.boundary.spmv_multi(xs, &ws.ghosts, self.plan.n_ghosts, ys, k);
        }
        Ok(())
    }

    /// Register the §17 work models for the batched kernels at width
    /// `k` — one matrix read amortized over `k` vector streams, not `k`
    /// matrix reads (see [`probe::model::csr_traffic_multi`]).
    fn register_multi_models(&self, k: usize) {
        use probe::model::{csr_traffic_multi, register, KernelModel, TimeBase, WorkUnit};
        let spmv = |span, rows, nnz| {
            let (flops, bytes) = csr_traffic_multi(rows, nnz, k);
            KernelModel {
                span,
                flops,
                bytes,
                unit: WorkUnit::SpanCalls,
                time: TimeBase::Total,
                nrhs: k as u64,
            }
        };
        register("spmv_multi", spmv("matvec_multi", self.local_rows(), self.local_nnz()));
        let (interior_rows, interior_nnz) = self.split.interior_shape();
        register("spmv_multi_interior", spmv("spmv_multi_interior", interior_rows, interior_nnz));
        register(
            "spmv_multi_boundary",
            spmv(
                "spmv_multi_boundary",
                self.split.boundary.rows().len(),
                self.split.boundary.nnz(),
            ),
        );
        let send_bytes: u64 =
            self.plan.sends.iter().map(|(_, idxs)| 8 * (k * idxs.len()) as u64).sum();
        register(
            "halo_send_multi",
            KernelModel {
                span: "halo_post_multi",
                flops: 0,
                bytes: send_bytes,
                unit: WorkUnit::SpanCalls,
                time: TimeBase::Total,
                nrhs: k as u64,
            },
        );
        register(
            "halo_recv_multi",
            KernelModel {
                span: "halo_drain_multi",
                flops: 0,
                bytes: 8 * (k * self.plan.n_ghosts) as u64,
                unit: WorkUnit::SpanCalls,
                time: TimeBase::Total,
                nrhs: k as u64,
            },
        );
    }

    /// Receive every batched halo payload for one multi matvec into
    /// `ws.ghosts` (k column segments per payload; same out-of-order drain
    /// discipline as [`Self::drain_halos`]).
    fn drain_halos_multi(&self, comm: &Communicator, ws: &mut MultiWorkspace) -> SparseResult<()> {
        let n_ghosts = self.plan.n_ghosts;
        let k = ws.k;
        for pending in ws.recv_pending.iter_mut() {
            *pending = true;
        }
        let mut remaining = self.plan.recvs.len();
        while remaining > 0 {
            let mut received = None;
            for (slot, &(src, ..)) in self.plan.recvs.iter().enumerate() {
                if ws.recv_pending[slot] && comm.iprobe(src as i32, TAG_HALO_MULTI)?.is_some() {
                    received = Some(slot);
                    break;
                }
            }
            let slot = received
                .unwrap_or_else(|| ws.recv_pending.iter().position(|&p| p).expect("remaining > 0"));
            let (src, offset, count) = self.plan.recvs[slot];
            let vals: Arc<Vec<f64>> = comm.recv(src, TAG_HALO_MULTI)?;
            if vals.len() != k * count {
                return Err(SparseError::LengthMismatch {
                    what: "batched halo payload",
                    expected: k * count,
                    got: vals.len(),
                });
            }
            if vals.iter().any(|v| !v.is_finite()) {
                probe::incr(probe::Counter::HaloNonFinite);
            }
            for q in 0..k {
                let dst = q * n_ghosts + offset;
                ws.ghosts[dst..dst + count].copy_from_slice(&vals[q * count..(q + 1) * count]);
            }
            drop(vals);
            ws.recv_pending[slot] = false;
            remaining -= 1;
        }
        Ok(())
    }

    /// This rank's square diagonal block (rows × owned columns, local
    /// numbering) — what block-Jacobi-style preconditioners factor.
    pub fn diagonal_block(&self) -> CsrMatrix {
        let range = self.partition.range(self.rank);
        let n = range.len();
        if range.start == 0 && range.end == self.local_global.cols() {
            // Every column owned (one rank): the block is the rows.
            return (*self.local_global).clone();
        }
        // A row's columns ascend, so its owned ones are one contiguous run.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.local_global.nnz());
        let mut values = Vec::with_capacity(self.local_global.nnz());
        row_ptr.push(0);
        for lr in 0..n {
            let (cols, vals) = self.local_global.row(lr);
            let lo = cols.partition_point(|&gc| gc < range.start);
            let hi = cols.partition_point(|&gc| gc < range.end);
            col_idx.extend(cols[lo..hi].iter().map(|&gc| gc - range.start));
            values.extend_from_slice(&vals[lo..hi]);
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(n, n, row_ptr, col_idx, values)
            .expect("a sorted row stays sorted when cut to a column range")
    }

    /// The local slice of the global main diagonal (zeros where missing).
    ///
    /// Read from the plan, whose three pieces cover every local row once:
    /// the stored bits of `local_matrix().get(lr, start + lr)`, `+0.0`
    /// where a row stores no diagonal. [`Self::update_values`] refreshes
    /// the pieces, so the diagonal follows new values.
    pub fn diagonal_local(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.local_rows()];
        self.split.runs.diagonal_into(&mut d);
        self.split.interior.diagonal_into(&mut d);
        self.split.boundary.diagonal_into(&mut d);
        d
    }

    /// Parallel y = A·x with halo exchange. Collective.
    pub fn matvec(&self, comm: &Communicator, x: &DistVector) -> SparseResult<DistVector> {
        let mut y = DistVector::zeros(self.partition.clone(), self.rank);
        self.matvec_into(comm, x, &mut y)?;
        Ok(y)
    }

    /// Parallel matvec into an existing conforming vector — the solver hot
    /// path. Collective.
    ///
    /// Communication-overlapped: halo sends are posted from persistent
    /// staging buffers, interior rows are computed while the halos are in
    /// flight, receives are drained out-of-order as they arrive, and the
    /// boundary rows finish against `x` and the ghost slots. All scratch comes
    /// from the matrix's `MatvecWorkspace`, so repeated calls allocate
    /// nothing in steady state (see
    /// [`steady_state_allocs`](Self::steady_state_allocs)).
    pub fn matvec_into(
        &self,
        comm: &Communicator,
        x: &DistVector,
        y: &mut DistVector,
    ) -> SparseResult<()> {
        if x.partition != self.partition {
            return Err(SparseError::BadBlockPartition(
                "matvec vector partition differs from matrix partition".into(),
            ));
        }
        let mut guard = self.workspace.lock().unwrap_or_else(|e| e.into_inner());
        let ws = &mut *guard;
        probe::incr(probe::Counter::MatvecCalls);
        let _matvec_span = probe::span!("matvec");

        // 1. Post all halo sends (eager, non-blocking) from staged buffers.
        {
            let _s = probe::span!("halo_post");
            for (slot, (dest, idxs)) in self.plan.sends.iter().enumerate() {
                let payload = ws.stage_send(slot, idxs, &x.local);
                probe::incr(probe::Counter::HaloMessages);
                probe::add(
                    probe::Counter::HaloBytes,
                    (idxs.len() * std::mem::size_of::<f64>()) as u64,
                );
                comm.send(*dest, TAG_HALO, payload)?;
            }
        }

        // 2. Interior rows depend only on owned entries: compute them now,
        //    while the halos are in flight.
        let yl = y.local_mut();
        {
            let _s = probe::span!("spmv_interior");
            self.split.runs.spmv(&x.local, yl);
            self.split.interior.spmv(&x.local, &[], yl);
        }

        // 3. Drain the halo receives, out of order, into the ghost slots.
        {
            let _s = probe::span!("halo_drain");
            self.drain_halos(comm, ws)?;
        }

        // 4. Boundary rows against `x` and the ghost slots.
        {
            let _s = probe::span!("spmv_boundary");
            self.split.boundary.spmv(&x.local, &ws.ghosts, yl);
        }
        ws.primed = true;
        Ok(())
    }

    /// Receive every halo payload for one matvec into `ws.ghosts`.
    ///
    /// Polls all still-pending sources via `iprobe` and consumes whichever
    /// arrived first; when a poll sweep finds nothing, blocks on the first
    /// pending source instead of spinning. Each source is received from
    /// exactly once, so a fast neighbour's *next*-iteration payload (queued
    /// behind this iteration's, FIFO per source) can never be consumed
    /// early.
    fn drain_halos(&self, comm: &Communicator, ws: &mut MatvecWorkspace) -> SparseResult<()> {
        for pending in ws.recv_pending.iter_mut() {
            *pending = true;
        }
        let mut remaining = self.plan.recvs.len();
        while remaining > 0 {
            let mut received = None;
            for (k, &(src, ..)) in self.plan.recvs.iter().enumerate() {
                if ws.recv_pending[k] && comm.iprobe(src as i32, TAG_HALO)?.is_some() {
                    received = Some(k);
                    break;
                }
            }
            // Nothing ready: block on the first pending source in plan
            // order.
            let k = received
                .unwrap_or_else(|| ws.recv_pending.iter().position(|&p| p).expect("remaining > 0"));
            let (src, offset, count) = self.plan.recvs[k];
            let vals: Arc<Vec<f64>> = comm.recv(src, TAG_HALO)?;
            if vals.len() != count {
                return Err(SparseError::LengthMismatch {
                    what: "halo payload",
                    expected: count,
                    got: vals.len(),
                });
            }
            // Numerical-failure screen: a non-finite halo value is counted
            // here (cheap scan of a small boundary payload) and then
            // *allowed to propagate* — the NaN reaches every rank through
            // the next residual reduction, so the solve stops with a
            // rank-agreed verdict instead of a local unilateral abort.
            if vals.iter().any(|v| !v.is_finite()) {
                probe::incr(probe::Counter::HaloNonFinite);
            }
            ws.ghosts[offset..offset + count].copy_from_slice(&vals);
            // Drop our clone promptly so the sender's staging buffer frees
            // up for its next matvec.
            drop(vals);
            ws.recv_pending[k] = false;
            remaining -= 1;
        }
        Ok(())
    }

    /// Number of local rows that touch no ghost column (computed before
    /// the halo arrives).
    pub fn interior_row_count(&self) -> usize {
        self.split.interior_shape().0
    }

    /// Number of interior rows stored as stencil runs — diagonal-major,
    /// without column indices, because each repeats the row above it
    /// shifted by one column.
    pub fn stencil_row_count(&self) -> usize {
        self.split.runs.row_count()
    }

    /// Of [`Self::stencil_row_count`], the rows in runs whose every row
    /// carries the same values bit for bit (a constant-coefficient
    /// stencil): such a run keeps one value per diagonal and its product
    /// streams no matrix data at all. A diagnostic — the class is found in
    /// the values at plan build and again under [`Self::update_values`],
    /// and changes no bit of a product.
    pub fn constant_stencil_row_count(&self) -> usize {
        self.split.runs.constant_row_count()
    }

    /// Number of local rows that touch at least one ghost column.
    pub fn boundary_row_count(&self) -> usize {
        self.split.boundary.rows().len()
    }

    /// Workspace heap allocations made after the first matvec completed.
    /// Zero in steady state; grows only if a receiver lags far enough
    /// behind that every staged send buffer is still in flight.
    pub fn steady_state_allocs(&self) -> u64 {
        self.workspace.lock().unwrap_or_else(|e| e.into_inner()).steady_allocs
    }

    /// Deterministic rendering of this rank's halo-exchange plan — the
    /// elastic-recovery invariant check. A matrix rebuilt on a shrunken
    /// cohort must produce, on every survivor, exactly the digest a fresh
    /// setup at that size produces: both go through the same plan-build
    /// path ([`Self::from_local_rows`]), so any divergence means the
    /// repartition handed a rank the wrong rows.
    pub fn halo_plan_digest(&self) -> String {
        format!(
            "rank={}/{} rows={} plan={:?}",
            self.rank,
            self.partition.parts(),
            self.local_rows(),
            self.plan,
        )
    }

    /// Redistribute block rows after a cohort shrink. Collective on the
    /// **shrunken** communicator.
    ///
    /// Every survivor contributes the block it already owns (`start_row`,
    /// `local` with global column indices, conforming `rhs` chunk); the
    /// survivor holding a mirror of the lost rank's block additionally
    /// contributes it via `extra`. The contributed blocks must tile
    /// `0..global_rows` exactly. Returns this rank's block under the
    /// fresh even partition over the survivors — feed it straight back
    /// into [`Self::from_local_rows`] to rebuild halo plans and level
    /// schedules through the ordinary cached setup path.
    pub fn repartition_block_rows(
        comm: &Communicator,
        start_row: usize,
        local: &CsrMatrix,
        rhs: &[f64],
        extra: Option<(usize, CsrMatrix, Vec<f64>)>,
        global_rows: usize,
    ) -> SparseResult<(usize, CsrMatrix, Vec<f64>)> {
        if rhs.len() != local.rows() {
            return Err(SparseError::LengthMismatch {
                what: "repartition rhs chunk",
                expected: local.rows(),
                got: rhs.len(),
            });
        }
        // Flatten every contributed block into global triplets plus
        // (global row, rhs value) pairs.
        let mut spans: Vec<(usize, usize)> = vec![(start_row, local.rows())];
        let mut rows_l = Vec::with_capacity(local.nnz());
        let mut cols_l = Vec::with_capacity(local.nnz());
        let mut vals_l = Vec::with_capacity(local.nnz());
        let mut rhs_idx = Vec::with_capacity(rhs.len());
        let mut rhs_val = Vec::with_capacity(rhs.len());
        let mut contribute = |start: usize, m: &CsrMatrix, b: &[f64]| {
            for (lr, gc, v) in m.iter() {
                rows_l.push(start + lr);
                cols_l.push(gc);
                vals_l.push(v);
            }
            for (lr, &v) in b.iter().enumerate() {
                rhs_idx.push(start + lr);
                rhs_val.push(v);
            }
        };
        contribute(start_row, local, rhs);
        if let Some((xstart, xmat, xrhs)) = &extra {
            if xrhs.len() != xmat.rows() {
                return Err(SparseError::LengthMismatch {
                    what: "repartition mirrored rhs chunk",
                    expected: xmat.rows(),
                    got: xrhs.len(),
                });
            }
            spans.push((*xstart, xmat.rows()));
            contribute(*xstart, xmat, xrhs);
        }

        // Everyone learns everything: the matrices this interface targets
        // are modest, and a full replication keeps the recovery path a
        // single collective per array on the shrunken communicator.
        let mut all_spans = comm.allgatherv(&spans)?;
        let rows = comm.allgatherv(&rows_l)?;
        let cols = comm.allgatherv(&cols_l)?;
        let vals = comm.allgatherv(&vals_l)?;
        let rhs_idx = comm.allgatherv(&rhs_idx)?;
        let rhs_val = comm.allgatherv(&rhs_val)?;

        // The blocks must tile 0..global_rows exactly — a gap means the
        // lost rank's block was mirrored nowhere, an overlap that two
        // ranks both claim it.
        all_spans.sort_unstable();
        let mut next = 0usize;
        for &(s, n) in &all_spans {
            if s != next {
                return Err(SparseError::BadBlockPartition(format!(
                    "repartition blocks do not tile the row space: expected \
                     a block starting at row {next}, got {s}"
                )));
            }
            next = s + n;
        }
        if next != global_rows {
            return Err(SparseError::BadBlockPartition(format!(
                "repartition blocks cover {next} of {global_rows} rows"
            )));
        }

        // Rebuild the global matrix and rhs, then slice this rank's block
        // under the fresh even partition over the survivors.
        let coo =
            crate::coo::CooMatrix::from_triplets(global_rows, global_rows, &rows, &cols, &vals)?;
        let global = coo.to_csr();
        let mut full_rhs = vec![0.0; global_rows];
        for (&i, &v) in rhs_idx.iter().zip(&rhs_val) {
            full_rhs[i] = v;
        }
        let part = BlockRowPartition::even(global_rows, comm.size());
        let r = part.range(comm.rank());
        // A block too tall for the compact plan's `u32` columns is refused
        // here, with every collective already behind, rather than at the
        // rebuild this block is headed for.
        compact::check_index_space(r.len(), 0)?;
        let new_local = global.row_block(r.start, r.end)?;
        let new_rhs = full_rhs[r.clone()].to_vec();
        Ok((r.start, new_local, new_rhs))
    }

    /// Gather the full matrix onto `root` as a replicated CSR (the
    /// direct-solver path; `None` elsewhere). Collective.
    pub fn gather_to_root(
        &self,
        comm: &Communicator,
        root: usize,
    ) -> SparseResult<Option<CsrMatrix>> {
        // Ship triplets; root reassembles.
        let (rows_l, cols_l, vals_l) = {
            let mut r = Vec::with_capacity(self.local_nnz());
            let mut c = Vec::with_capacity(self.local_nnz());
            let mut v = Vec::with_capacity(self.local_nnz());
            let start = self.partition.start_row(self.rank);
            for (lr, gc, val) in self.local_global.iter() {
                r.push(start + lr);
                c.push(gc);
                v.push(val);
            }
            (r, c, v)
        };
        let rows = comm.gatherv(root, &rows_l)?;
        let cols = comm.gatherv(root, &cols_l)?;
        let vals = comm.gatherv(root, &vals_l)?;
        match (rows, cols, vals) {
            (Some(r), Some(c), Some(v)) => {
                let n = self.global_order();
                let coo = crate::coo::CooMatrix::from_triplets(n, n, &r, &c, &v)?;
                Ok(Some(coo.to_csr()))
            }
            _ => Ok(None),
        }
    }

    /// Replace the numerical values of the local rows, keeping the pattern
    /// (paper §5.2d: repeated solves with a new matrix of identical
    /// sparsity). Copy-on-write: rows shared with the caller or with a
    /// clone are copied first and stay as they were.
    pub fn update_values(&mut self, values: &[f64]) -> SparseResult<()> {
        if values.len() != self.local_nnz() {
            return Err(SparseError::LengthMismatch {
                what: "values",
                expected: self.local_nnz(),
                got: values.len(),
            });
        }
        Arc::make_mut(&mut self.local_global).values_mut().copy_from_slice(values);
        // Each piece re-reads its own rows: the runs diagonal-major, the
        // compact pieces "owned entries then ghost entries" (each group in
        // original scan order — the renumbering is monotone within a
        // group). One linear pass over the values, no sorting.
        let my_range = self.partition.range(self.rank);
        self.split.runs.refresh_values(&self.local_global);
        self.split.interior.refresh_values(&self.local_global, &my_range);
        self.split.boundary.refresh_values(&self.local_global, &my_range);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use rcomm::Universe;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn dist_vector_basics() {
        let out = Universe::run(3, |comm| {
            let part = BlockRowPartition::even(7, 3);
            let global: Vec<f64> = (0..7).map(|i| i as f64).collect();
            let v = DistVector::from_global(part.clone(), comm.rank(), &global).unwrap();
            let d = v.dot(&v, comm).unwrap();
            let n2 = v.norm2(comm).unwrap();
            let ni = v.norm_inf(comm).unwrap();
            let full = v.allgather_full(comm).unwrap();
            (d, n2, ni, full == global)
        });
        let expect_d: f64 = (0..7).map(|i| (i * i) as f64).sum();
        for (d, n2, ni, same) in out {
            assert!((d - expect_d).abs() < 1e-12);
            assert!((n2 - expect_d.sqrt()).abs() < 1e-12);
            assert_eq!(ni, 6.0);
            assert!(same);
        }
    }

    #[test]
    fn dist_matvec_matches_serial_laplacian() {
        for p in [1usize, 2, 3, 4] {
            let n = 13;
            let a = laplacian_1d(n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let expect = a.matvec(&x).unwrap();
            let out = Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                let dx = DistVector::from_global(part, comm.rank(), &x).unwrap();
                let dy = da.matvec(comm, &dx).unwrap();
                dy.allgather_full(comm).unwrap()
            });
            for got in out {
                for (g, e) in got.iter().zip(&expect) {
                    assert!((g - e).abs() < 1e-13, "p = {p}");
                }
            }
        }
    }

    #[test]
    fn dist_matvec_matches_serial_random() {
        let n = 40;
        let a = generate::random_csr(n, n, 0.15, 42);
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let expect = a.matvec(&x).unwrap();
        for p in [1usize, 3, 5] {
            let out = Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                let dx = DistVector::from_global(part, comm.rank(), &x).unwrap();
                da.matvec(comm, &dx).unwrap().allgather_full(comm).unwrap()
            });
            for got in out {
                for (g, e) in got.iter().zip(&expect) {
                    assert!((g - e).abs() < 1e-11, "p = {p}");
                }
            }
        }
    }

    #[test]
    fn ghost_counts_reflect_stencil_boundaries() {
        let out = Universe::run(4, |comm| {
            let n = 16;
            let a = laplacian_1d(n);
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part, &a).unwrap();
            da.ghost_count()
        });
        // 1-D Laplacian: interior ranks touch 2 neighbours, end ranks 1.
        assert_eq!(out, vec![1, 2, 2, 1]);
    }

    #[test]
    fn gather_to_root_reassembles() {
        let n = 11;
        let a = generate::random_csr(n, n, 0.2, 7);
        let out = Universe::run(3, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let da = DistCsrMatrix::from_global(comm, part, &a).unwrap();
            da.gather_to_root(comm, 0).unwrap()
        });
        assert_eq!(out[0].as_ref(), Some(&a));
        assert!(out[1].is_none());
    }

    #[test]
    fn update_values_preserves_matvec_semantics() {
        let n = 12;
        let a = laplacian_1d(n);
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let scaled = crate::ops::scale(3.0, &a);
        let expect = scaled.matvec(&x).unwrap();
        let out = Universe::run(3, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let mut da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
            let new_vals: Vec<f64> = da.local_matrix().values().iter().map(|v| v * 3.0).collect();
            da.update_values(&new_vals).unwrap();
            let dx = DistVector::from_global(part, comm.rank(), &x).unwrap();
            da.matvec(comm, &dx).unwrap().allgather_full(comm).unwrap()
        });
        for got in out {
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-12);
            }
        }
    }

    /// `update_values` must reach the compact pieces the matvec reads: the
    /// split product then equals the rank-local product of the updated
    /// `local_matrix()` bit for bit. On one rank both walk a row in the
    /// same order, so any reals do; across ranks a boundary row is summed
    /// "owned then ghost", so the data is integer-valued there — every
    /// order sums exactly, and a stale or misplaced value still shows.
    #[test]
    fn update_values_refreshes_the_compact_pieces_bitwise() {
        let a = generate::random_diag_dominant(60, 5, 19);
        let n = a.rows();
        for p in [1usize, 2, 3] {
            let integral = p > 1;
            let x: Vec<f64> = (0..n)
                .map(|i| if integral { (i % 7) as f64 - 3.0 } else { (i as f64 * 0.7).cos() })
                .collect();
            Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let mut da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                let new_vals: Vec<f64> = da
                    .local_matrix()
                    .values()
                    .iter()
                    .map(|v| if integral { (v * 8.0).round() } else { v * -1.5 + 0.1 })
                    .collect();
                da.update_values(&new_vals).unwrap();
                let dx = DistVector::from_global(part, comm.rank(), &x).unwrap();
                let got = da.matvec(comm, &dx).unwrap();
                let mut want = vec![0.0; da.local_rows()];
                da.local_matrix().matvec_into(&x, &mut want);
                for (i, (g, w)) in got.local().iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "p = {p}, local row {i}");
                }
            });
        }
    }

    /// `update_values` is copy-on-write: the rows an operator was built
    /// from, and a clone of the operator, keep their pattern and values
    /// bit for bit, and the refreshed operator multiplies exactly as a
    /// cold build from the new values does.
    #[test]
    fn update_values_leaves_shared_rows_untouched() {
        let a = generate::random_diag_dominant(60, 5, 23);
        let n = a.rows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let same_bits = |m: &CsrMatrix, want: &CsrMatrix| {
            assert_eq!(m.row_ptr(), want.row_ptr());
            assert_eq!(m.col_idx(), want.col_idx());
            let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(m.values()), bits(want.values()));
        };
        for p in [1usize, 2, 3] {
            Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let r = part.range(comm.rank());
                let shared = Arc::new(a.row_block(r.start, r.end).unwrap());
                let original = CsrMatrix::clone(&shared);
                let mut da =
                    DistCsrMatrix::from_local_rows(comm, part.clone(), Arc::clone(&shared))
                        .unwrap();
                assert!(std::ptr::eq(da.local_matrix(), &*shared), "built without a copy");
                let twin = da.clone();
                assert!(std::ptr::eq(twin.local_matrix(), &*shared), "a clone shares the rows");
                let dx = DistVector::from_global(part.clone(), comm.rank(), &x).unwrap();
                let before = da.matvec(comm, &dx).unwrap();

                let mut refreshed = original.clone();
                for v in refreshed.values_mut() {
                    *v = *v * -1.5 + 0.1;
                }
                da.update_values(refreshed.values()).unwrap();
                same_bits(&shared, &original);
                assert!(std::ptr::eq(twin.local_matrix(), &*shared));
                same_bits(da.local_matrix(), &refreshed);

                let cold = DistCsrMatrix::from_local_rows(comm, part.clone(), refreshed).unwrap();
                let got = da.matvec(comm, &dx).unwrap();
                let want = cold.matvec(comm, &dx).unwrap();
                let old = twin.matvec(comm, &dx).unwrap();
                for i in 0..got.local().len() {
                    let (g, w) = (got.local()[i], want.local()[i]);
                    assert_eq!(g.to_bits(), w.to_bits(), "p = {p}, row {i}: refreshed");
                    let (o, b) = (old.local()[i], before.local()[i]);
                    assert_eq!(o.to_bits(), b.to_bits(), "p = {p}, row {i}: the clone");
                }
            });
        }
    }

    #[test]
    fn batched_matvec_columns_match_single_bitwise() {
        // Several rank counts and batch widths: column q of the batched
        // matvec must equal the single-RHS matvec of that column, bit for
        // bit.
        let a = generate::laplacian_2d(7); // 49 rows
        let n = a.rows();
        for p in [1usize, 3] {
            for k in [1usize, 2, 4, 8, 11] {
                let xs_global: Vec<Vec<f64>> = (0..k)
                    .map(|q| {
                        (0..n).map(|i| ((i * (q + 3)) as f64 * 0.37).sin() + q as f64).collect()
                    })
                    .collect();
                let ok = Universe::run(p, |comm| {
                    let part = BlockRowPartition::even(n, comm.size());
                    let r = part.range(comm.rank());
                    let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
                    let n_local = da.local_rows();
                    let mut xs = Vec::with_capacity(k * n_local);
                    for col in &xs_global {
                        xs.extend_from_slice(&col[r.clone()]);
                    }
                    let mut ys = vec![f64::NAN; k * n_local];
                    da.matvec_multi_into(comm, &xs, &mut ys, k).unwrap();
                    // Reference: one single-RHS matvec per column.
                    let mut same = true;
                    for (q, col) in xs_global.iter().enumerate() {
                        let dx = DistVector::from_global(part.clone(), comm.rank(), col).unwrap();
                        let dy = da.matvec(comm, &dx).unwrap();
                        for (g, e) in ys[q * n_local..(q + 1) * n_local].iter().zip(dy.local()) {
                            same &= g.to_bits() == e.to_bits();
                        }
                    }
                    same
                });
                assert!(ok.iter().all(|&s| s), "p={p} k={k}");
            }
        }
    }

    #[test]
    fn partition_mismatches_are_rejected() {
        let out = Universe::run(2, |comm| {
            let a = laplacian_1d(6);
            let bad = BlockRowPartition::even(6, 3); // 3 parts for 2 ranks
            DistCsrMatrix::from_global(comm, bad, &a).is_err()
        });
        assert_eq!(out, vec![true, true]);
    }

    /// The remote columns `local`'s rows read, grouped by owner: one
    /// owner lookup per stored entry — the halo needs' oracle.
    fn needed_by_owner_scan(
        local: &CsrMatrix,
        part: &BlockRowPartition,
        rank: usize,
    ) -> Vec<Vec<usize>> {
        let mut needed = vec![Vec::new(); part.parts()];
        for &c in local.col_idx() {
            let owner = part.owner(c).unwrap();
            if owner != rank {
                needed[owner].push(c);
            }
        }
        needed
    }

    /// `n` rows: those in `own` read only their own block's columns (its
    /// rank has no boundary row); elsewhere every fifth row is empty, every
    /// fifth row holds one entry half the matrix away (only remote columns
    /// once the blocks are narrower than that), and the rest are
    /// `random_csr`'s rows.
    fn halo_mixed(n: usize, own: std::ops::Range<usize>, seed: u64) -> CsrMatrix {
        let random = generate::random_csr(n, n, 0.15, seed);
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for i in 0..n {
            if own.contains(&i) {
                for c in (i.saturating_sub(1)..=i + 1).filter(|c| own.contains(c)) {
                    coo.push(i, c, 1.0 + c as f64).unwrap();
                }
                continue;
            }
            match i % 5 {
                0 => {}
                1 => coo.push(i, (i + n / 2) % n, -2.0 - i as f64).unwrap(),
                _ => {
                    let (cols, vals) = random.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        coo.push(i, c, v).unwrap();
                    }
                }
            }
        }
        coo.to_csr()
    }

    /// The plan build finds the remote columns in the boundary rows alone;
    /// the per-entry owner scan over every row must find the same ones.
    /// The plan (sends, receives, ghost count), the pieces and the product
    /// equal a build fed the scan's lists, bit for bit, and on one rank the
    /// product is the serial CSR loop's.
    #[test]
    fn halo_plan_matches_the_owner_scan_of_every_entry() {
        let n = 37;
        let partitions =
            [vec![37], vec![25, 12], vec![5, 14, 18], vec![9, 0, 16, 12], vec![12, 3, 9, 13]];
        let x = generate::random_vector(n, 7);
        for counts in partitions {
            let part = BlockRowPartition::from_counts(&counts).unwrap();
            let p = part.parts();
            let mixed = halo_mixed(n, part.range(p - 1), 5);
            let only_remote = (0..n).any(|i| {
                let cols = mixed.row(i).0;
                let mine = part.range(part.owner(i).unwrap());
                !cols.is_empty() && cols.iter().all(|c| !mine.contains(c))
            });
            assert_eq!(only_remote, p > 1, "{counts:?}: a row with only remote columns");
            let matrices = [
                ("random 0.1", generate::random_csr(n, n, 0.1, 3)),
                ("random 0.3", generate::random_csr(n, n, 0.3, 11)),
                ("mixed", mixed),
            ];
            for (tag, a) in &matrices {
                let failures = Universe::run(p, |comm| {
                    let rank = comm.rank();
                    let r = part.range(rank);
                    let local = Arc::new(a.row_block(r.start, r.end).unwrap());
                    let da = DistCsrMatrix::from_local_rows(comm, part.clone(), Arc::clone(&local))
                        .unwrap();
                    let oracle = DistCsrMatrix::from_needed(
                        comm,
                        part.clone(),
                        Arc::clone(&local),
                        compact::split_interior(&local, &r, r.len()),
                        needed_by_owner_scan(&local, &part, rank),
                    )
                    .unwrap();
                    let dx = DistVector::from_global(part.clone(), rank, &x).unwrap();
                    let got = da.matvec(comm, &dx).unwrap();
                    let want = oracle.matvec(comm, &dx).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let mut failures = Vec::new();
                    if da.plan.sends != oracle.plan.sends {
                        failures.push(format!("rank {rank}: sends"));
                    }
                    if da.plan.recvs != oracle.plan.recvs {
                        failures.push(format!("rank {rank}: recvs"));
                    }
                    if da.plan.n_ghosts != oracle.plan.n_ghosts {
                        failures.push(format!("rank {rank}: n_ghosts"));
                    }
                    if da != oracle {
                        failures.push(format!("rank {rank}: pieces"));
                    }
                    if bits(got.local()) != bits(want.local()) {
                        failures.push(format!("rank {rank}: product"));
                    }
                    if p == 1 {
                        let mut serial = vec![0.0; n];
                        local.matvec_into(&x, &mut serial);
                        if bits(got.local()) != bits(&serial) {
                            failures.push("serial product".to_string());
                        }
                    }
                    if *tag == "mixed" && p > 1 && rank == p - 1 && da.boundary_row_count() != 0 {
                        failures.push("the last rank has boundary rows".to_string());
                    }
                    failures
                });
                let failures: Vec<String> = failures.into_iter().flatten().collect();
                assert!(failures.is_empty(), "{tag}, {counts:?}: {failures:?}");
            }
        }
    }

    /// Set the stored diagonal entry of row `r` of `a` to `v`.
    fn set_diagonal(a: &mut CsrMatrix, r: usize, v: f64) {
        let (lo, hi) = (a.row_ptr()[r], a.row_ptr()[r + 1]);
        let k = lo + a.col_idx()[lo..hi].binary_search(&r).expect("row stores its diagonal");
        a.values_mut()[k] = v;
    }

    /// `a` with each row's values scaled by a factor that differs from the
    /// row above's: every stencil run varies.
    fn rows_scaled_unequally(a: &CsrMatrix) -> CsrMatrix {
        let mut scaled = a.clone();
        for r in 0..a.rows() {
            let (lo, hi) = (a.row_ptr()[r], a.row_ptr()[r + 1]);
            for v in &mut scaled.values_mut()[lo..hi] {
                *v *= (1 + r % 3) as f64;
            }
        }
        scaled
    }

    /// `diagonal_local` against `local_matrix().get(lr, start + lr)`, bit
    /// for bit, on every local row: one line per rank that differs, with
    /// the count and the first few rows.
    fn diagonal_mismatches(da: &DistCsrMatrix) -> Vec<String> {
        let start = da.partition().start_row(da.rank);
        let got = da.diagonal_local();
        let bad: Vec<usize> = (0..da.local_rows())
            .filter(|&lr| got[lr].to_bits() != da.local_matrix().get(lr, start + lr).to_bits())
            .collect();
        if bad.is_empty() {
            Vec::new()
        } else {
            let first = &bad[..bad.len().min(8)];
            vec![format!("rank {}: {} rows, first {first:?}", da.rank, bad.len())]
        }
    }

    /// The diagonal read from the plan is the stored diagonal, bit for bit:
    /// in constant and varying stencil runs, in the interior remainder and
    /// in boundary rows, `+0.0` where a row stores none (in runs too),
    /// stored `±0.0` and a NaN with a payload, at 1–3 ranks.
    #[test]
    fn diagonal_local_is_the_stored_diagonal_bitwise() {
        // A 20 × 20 grid: one run of 18 rows a grid line.
        let m = 20;
        let lap = generate::laplacian_2d(m);
        let n = lap.rows();
        let mut negative_zero = lap.clone();
        for r in 0..n {
            set_diagonal(&mut negative_zero, r, -0.0);
        }
        let mut special = rows_scaled_unequally(&lap);
        // Rows 45..=47 sit in grid line 2's run, row 0 in the remainder.
        set_diagonal(&mut special, 45, f64::from_bits(0x7ff8_0000_0000_0b0e));
        set_diagonal(&mut special, 46, -0.0);
        set_diagonal(&mut special, 47, 0.0);
        set_diagonal(&mut special, 0, -0.0);
        // In the first half every seventh row lacks its diagonal; in the
        // second half every row reads only its left and right neighbours:
        // runs with no diagonal entry.
        let mut gaps = crate::coo::CooMatrix::new(n, n);
        for (r, c, v) in lap.iter() {
            let dropped =
                if r >= n / 2 { c == r || c.abs_diff(r) == m } else { c == r && r % 7 == 3 };
            if !dropped {
                gaps.push(r, c, v).unwrap();
            }
        }
        let cases = [
            ("constant runs", lap.clone()),
            ("constant runs of -0.0", negative_zero),
            ("varying runs, NaN and signed zeros", special),
            ("missing diagonals", gaps.to_csr()),
            ("random", generate::random_csr(n, n, 0.02, 17)),
        ];
        for (tag, a) in &cases {
            for p in 1..=3 {
                let out = Universe::run(p, |comm| {
                    let part = BlockRowPartition::even(n, comm.size());
                    let da = DistCsrMatrix::from_global(comm, part, a).unwrap();
                    let shape = (
                        da.stencil_row_count(),
                        da.constant_stencil_row_count(),
                        da.interior_row_count() - da.stencil_row_count(),
                        da.boundary_row_count(),
                    );
                    (diagonal_mismatches(&da), shape)
                });
                let (failures, shapes): (Vec<_>, Vec<_>) = out.into_iter().unzip();
                let failures: Vec<String> = failures.into_iter().flatten().collect();
                assert!(failures.is_empty(), "{tag}, {p} ranks: {failures:?}");
                let total = |f: fn(&(usize, usize, usize, usize)) -> usize| {
                    shapes.iter().map(f).sum::<usize>()
                };
                assert!(total(|s| s.2) > 0, "{tag}: no interior remainder");
                assert_eq!(total(|s| s.3) > 0, p > 1, "{tag}: boundary rows");
                if *tag != "random" {
                    assert!(total(|s| s.0) > 0, "{tag}: no stencil runs");
                }
                if tag.starts_with("constant") {
                    assert_eq!(total(|s| s.1), total(|s| s.0), "{tag}: a run varies");
                }
                if tag.starts_with("varying") {
                    assert_eq!(total(|s| s.1), 0, "{tag}: a run is constant");
                }
            }
        }
    }

    /// The diagonal follows `update_values`: constant runs turned varying,
    /// then constant again.
    #[test]
    fn diagonal_local_follows_update_values_across_run_classes() {
        let lap = generate::laplacian_2d(20);
        let n = lap.rows();
        let varying = rows_scaled_unequally(&lap);
        for p in 1..=3 {
            let out = Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let r = part.range(comm.rank());
                let mut da = DistCsrMatrix::from_global(comm, part, &lap).unwrap();
                let mut failures = diagonal_mismatches(&da);
                let mut constant_rows = vec![da.constant_stencil_row_count()];
                for values in [&varying, &lap] {
                    let block = values.row_block(r.start, r.end).unwrap();
                    da.update_values(block.values()).unwrap();
                    failures.extend(diagonal_mismatches(&da));
                    constant_rows.push(da.constant_stencil_row_count());
                }
                (failures, constant_rows, da.stencil_row_count())
            });
            for (failures, constant_rows, runs) in out {
                assert!(failures.is_empty(), "{p} ranks: {failures:?}");
                assert!(runs > 0);
                assert_eq!(constant_rows, [runs, 0, runs], "{p} ranks");
            }
        }
    }

    /// Rows of every kind the block's cut meets, on any partition: empty
    /// (`i % 6 == 0`), only far columns (`1`), the first and last columns
    /// around the diagonal (`2`, straddling the owned range on both sides
    /// unless it is everything), a left (`3`) or right (`4`) neighbour
    /// band crossing one edge of a block, and random columns (`5`).
    fn every_cut(n: usize, seed: u64) -> CsrMatrix {
        let random = generate::random_csr(n, n, 0.2, seed);
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for i in 0..n {
            let cols: Vec<usize> = match i % 6 {
                0 => vec![],
                1 => vec![(i + n / 2) % n],
                2 => vec![0, i, n - 1],
                3 => (i.saturating_sub(4)..=i).collect(),
                4 => (i..(i + 5).min(n)).collect(),
                _ => random.row(i).0.to_vec(),
            };
            for c in cols {
                coo.push(i, c, 0.25 + (i * n + c) as f64).unwrap();
            }
        }
        coo.to_csr()
    }

    /// The block as the COO round trip used to build it: every owned
    /// entry pushed as a triplet and sorted back into rows.
    fn diagonal_block_via_coo(a: &CsrMatrix, range: std::ops::Range<usize>) -> CsrMatrix {
        let mut coo = crate::coo::CooMatrix::new(range.len(), range.len());
        for (r, c, v) in a.iter() {
            if range.contains(&r) && range.contains(&c) {
                coo.push(r - range.start, c - range.start, v).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn diagonal_block_is_the_filtered_rows_on_every_rank() {
        // Every entry off the blocks: (i, n − 1 − i) only, so no row of
        // any rank's block owns a column.
        let n = 12;
        let mut anti = crate::coo::CooMatrix::new(n, n);
        for i in 0..n {
            anti.push(i, n - 1 - i, 1.0 + i as f64).unwrap();
        }
        let matrices = [
            generate::laplacian_2d(5),
            generate::random_csr(23, 23, 0.3, 9),
            anti.to_csr(),
            every_cut(41, 3),
            every_cut(41, 8),
        ];
        for a in &matrices {
            let n = a.rows();
            let mut partitions: Vec<BlockRowPartition> =
                (1..=4).map(|p| BlockRowPartition::even(n, p)).collect();
            // A rank with no rows at all: a 0 × 0 block.
            partitions.push(BlockRowPartition::from_counts(&[n / 2, 0, n - n / 2]).unwrap());
            for part in partitions {
                let p = part.parts();
                let same = Universe::run(p, |comm| {
                    let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
                    let got = da.diagonal_block();
                    let want = diagonal_block_via_coo(a, part.range(comm.rank()));
                    let bits = |m: &CsrMatrix| -> Vec<u64> {
                        m.values().iter().map(|v| v.to_bits()).collect()
                    };
                    got.shape() == want.shape()
                        && got.row_ptr() == want.row_ptr()
                        && got.col_idx() == want.col_idx()
                        && bits(&got) == bits(&want)
                });
                assert!(same.iter().all(|&s| s), "n = {n}, {p} ranks: {same:?}");
            }
        }
        // On three ranks `every_cut` does give rows of every kind: empty,
        // wholly remote, owned whole and straddling.
        let (a, part) = (&matrices[3], BlockRowPartition::even(41, 3));
        let mut kinds = [0usize; 4];
        for rank in 0..3 {
            let r = part.range(rank);
            for i in r.clone() {
                let cols = a.row(i).0;
                let owned = cols.iter().filter(|c| r.contains(c)).count();
                kinds[match (cols.len(), owned) {
                    (0, _) => 0,
                    (_, 0) => 1,
                    (len, o) if o == len => 2,
                    _ => 3,
                }] += 1;
            }
        }
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
    }
}
