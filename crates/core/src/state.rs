//! Shared adapter plumbing: the phase state machine every adapter drives,
//! and `setupMatrix`'s hand-off of the port's arrays to the decoders in
//! `rsparse::convert` (paper §5.3: the adapter converts the input format).

use std::sync::Arc;

use rcomm::Communicator;
use rsparse::convert::{self, Window};
use rsparse::{BlockRowPartition, CsrMatrix};

use crate::error::{LisiError, LisiResult};
use crate::traits::MatrixFreePort;
use crate::types::SparseStruct;

/// The assembled local matrix together with the digest of its arrays
/// (the O(nnz) part of the session key). The fields are private so the
/// digest cannot go stale: [`HashedMatrix::set`] is the only writer.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HashedMatrix {
    csr: Option<Arc<CsrMatrix>>,
    digest: u64,
}

impl HashedMatrix {
    /// Store `matrix` and hash it — the one place a solve's O(nnz)
    /// keying cost is paid.
    pub fn set(&mut self, matrix: CsrMatrix) {
        self.digest =
            crate::service::matrix_digest(matrix.row_ptr(), matrix.col_idx(), matrix.values());
        self.csr = Some(Arc::new(matrix));
    }

    /// The stored matrix, if one was set up. The one copy of this rank's
    /// rows: every package's operator and the setup mirror share it.
    pub fn get(&self) -> Option<&Arc<CsrMatrix>> {
        self.csr.as_ref()
    }

    /// [`crate::service::matrix_digest`] of the stored matrix.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Mutable state behind every adapter's interior mutability.
pub struct LisiState {
    /// The solver-owned communicator (set by `initialize`).
    pub comm: Option<Communicator>,
    /// Uniform block size (VBR) / element arity (FEM); default 1.
    pub block_size: usize,
    /// First global row owned here.
    pub start_row: Option<usize>,
    /// Rows owned here.
    pub local_rows: Option<usize>,
    /// Declared local nonzeros.
    pub local_nnz: Option<usize>,
    /// Global column count.
    pub global_cols: Option<usize>,
    /// Converted local matrix (local rows × global cols), if assembled,
    /// with its digest.
    pub matrix: HashedMatrix,
    /// Local right-hand-side storage (column-major for multiple RHS).
    pub rhs: Option<Vec<f64>>,
    /// Number of right-hand sides.
    pub n_rhs: usize,
    /// Generic parameter database (LISI's `set*` methods write here).
    pub options: rkrylov::Options,
    /// The application's matrix-free port, when connected.
    pub matrix_free: Option<Arc<dyn MatrixFreePort>>,
    /// Seconds spent converting input formats since a solve last
    /// reported them. The next solve that writes a status charges them to
    /// its set-up and clears them, so a warm re-solve on the same matrix
    /// reports none; a solve that fails before its status keeps them for
    /// the next.
    pub convert_seconds: f64,
}

impl Default for LisiState {
    fn default() -> Self {
        LisiState {
            comm: None,
            block_size: 1,
            start_row: None,
            local_rows: None,
            local_nnz: None,
            global_cols: None,
            matrix: HashedMatrix::default(),
            rhs: None,
            n_rhs: 1,
            options: rkrylov::Options::new(),
            matrix_free: None,
            convert_seconds: 0.0,
        }
    }
}

impl std::fmt::Debug for LisiState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LisiState")
            .field("initialized", &self.comm.is_some())
            .field("start_row", &self.start_row)
            .field("local_rows", &self.local_rows)
            .field("global_cols", &self.global_cols)
            .field("has_matrix", &self.matrix.get().is_some())
            .field("n_rhs", &self.n_rhs)
            .finish()
    }
}

impl LisiState {
    /// Fresh state.
    pub fn new() -> Self {
        LisiState::default()
    }

    /// The communicator, or `NotInitialized`.
    pub fn comm(&self) -> LisiResult<&Communicator> {
        self.comm.as_ref().ok_or(LisiError::NotInitialized)
    }

    fn dist_params(&self) -> LisiResult<(usize, usize, usize)> {
        match (self.start_row, self.local_rows, self.global_cols) {
            (Some(s), Some(l), Some(g)) => Ok((s, l, g)),
            _ => Err(LisiError::BadPhase(
                "setStartRow/setLocalRows/setGlobalCols must precede matrix setup".into(),
            )),
        }
    }

    /// Build the global block-row partition from every rank's declared
    /// `(start_row, local_rows)` — collective (one allgather), with
    /// consistency checking.
    pub fn build_partition(&self) -> LisiResult<BlockRowPartition> {
        let comm = self.comm()?;
        let (start, rows, global) = self.dist_params()?;
        let pairs: Vec<(usize, usize)> = comm.allgather((start, rows))?;
        let mut offsets = Vec::with_capacity(pairs.len() + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for (r, &(s, l)) in pairs.iter().enumerate() {
            if s != acc {
                return Err(LisiError::InvalidInput(format!(
                    "rank {r} declared start row {s}, expected {acc} (non-contiguous block rows)"
                )));
            }
            acc += l;
            offsets.push(acc);
        }
        if acc != global {
            return Err(LisiError::InvalidInput(format!(
                "declared rows sum to {acc}, but global size is {global}"
            )));
        }
        BlockRowPartition::from_offsets(offsets).map_err(|e| LisiError::InvalidInput(e.to_string()))
    }

    /// Decode one of the five input formats (an `rsparse::convert`
    /// decoder each) into the local CSR block and store it. `offset` is
    /// the index base (0 or 1).
    pub fn ingest_matrix(
        &mut self,
        values: &[f64],
        rows: &[usize],
        columns: &[usize],
        structure: SparseStruct,
        offset: usize,
    ) -> LisiResult<()> {
        let t0 = std::time::Instant::now();
        let (start, local_rows, global_cols) = self.dist_params()?;
        let w = Window { start, rows: local_rows, cols: global_cols, base: offset };
        // MSR pads the diagonal and VBR / FEM pad blocks: only COO and CSR
        // carry exactly the declared nonzeros.
        let exact = matches!(structure, SparseStruct::Coo | SparseStruct::Csr);
        if let Some(declared) = self.local_nnz.filter(|&d| exact && d != values.len()) {
            let got = values.len();
            let msg = format!("setLocalNNZ declared {declared} nonzeros, arrays carry {got}");
            return Err(LisiError::InvalidInput(msg));
        }
        if structure == SparseStruct::Fem && (start != 0 || local_rows != global_cols) {
            let why = "FEM input is serial-only: distributed element assembly is outside LISI 0.1";
            return Err(LisiError::Unsupported(why.into()));
        }
        let matrix = match structure {
            SparseStruct::Coo => convert::decode_coo(w, values, rows, columns),
            SparseStruct::Csr => convert::decode_csr(w, values, rows, columns),
            SparseStruct::Msr => convert::decode_msr(w, values, columns),
            SparseStruct::Vbr => convert::decode_vbr(w, self.block_size, values, rows, columns),
            SparseStruct::Fem => convert::decode_fem(w, self.block_size, values, columns),
        }
        .map_err(|e| LisiError::InvalidInput(e.to_string()))?;
        self.matrix.set(matrix);
        self.convert_seconds += t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// Store the right-hand side(s).
    pub fn ingest_rhs(&mut self, rhs: &[f64], n_rhs: usize) -> LisiResult<()> {
        let (_, local_rows, _) = self.dist_params()?;
        if n_rhs == 0 {
            return Err(LisiError::InvalidInput("nRhs must be positive".into()));
        }
        if rhs.len() != local_rows * n_rhs {
            return Err(LisiError::InvalidInput(format!(
                "RHS must hold local_rows × nRhs = {} entries, got {}",
                local_rows * n_rhs,
                rhs.len()
            )));
        }
        self.rhs = Some(rhs.to_vec());
        self.n_rhs = n_rhs;
        Ok(())
    }

    /// The assembled system, or the phase error.
    pub fn require_system(&self) -> LisiResult<(&Arc<CsrMatrix>, &[f64])> {
        let m = self
            .matrix
            .get()
            .ok_or_else(|| LisiError::BadPhase("setupMatrix must precede solve".into()))?;
        Ok((m, self.require_rhs()?))
    }

    /// The RHS alone (matrix-free solves have no assembled matrix).
    pub fn require_rhs(&self) -> LisiResult<&[f64]> {
        self.rhs.as_deref().ok_or_else(|| LisiError::BadPhase("setupRHS must precede solve".into()))
    }

    /// Is the matrix-free mode requested (`matrix_free=true`)?
    pub fn matrix_free_requested(&self) -> bool {
        self.options.get_parsed::<bool>("matrix_free").unwrap_or(false)
    }

    /// The application's matrix-free port, or the phase error.
    pub fn require_matrix_free(&self) -> LisiResult<Arc<dyn MatrixFreePort>> {
        self.matrix_free.clone().ok_or_else(|| {
            LisiError::BadPhase("matrix_free=true but no MatrixFree port is connected".into())
        })
    }

    /// Validate a caller-provided solution/status buffer pair.
    pub fn check_solve_buffers(&self, solution: &[f64], status: &[f64]) -> LisiResult<()> {
        let (_, local_rows, _) = self.dist_params()?;
        if solution.len() != local_rows * self.n_rhs {
            return Err(LisiError::InvalidInput(format!(
                "solution buffer must hold local_rows × nRhs = {} entries, got {}",
                local_rows * self.n_rhs,
                solution.len()
            )));
        }
        if status.len() < crate::status::STATUS_LEN {
            return Err(LisiError::InvalidInput(format!(
                "status buffer needs at least {} entries, got {}",
                crate::status::STATUS_LEN,
                status.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcomm::Universe;
    use rsparse::generate;

    fn seeded_state(start: usize, local: usize, global: usize) -> LisiState {
        let mut st = LisiState::new();
        st.start_row = Some(start);
        st.local_rows = Some(local);
        st.global_cols = Some(global);
        st
    }

    #[test]
    fn phase_errors_before_setters() {
        let mut st = LisiState::new();
        assert!(matches!(
            st.ingest_matrix(&[], &[], &[], SparseStruct::Coo, 0),
            Err(LisiError::BadPhase(_))
        ));
        assert!(matches!(st.comm(), Err(LisiError::NotInitialized)));
        assert!(matches!(st.require_system(), Err(LisiError::BadPhase(_))));
    }

    #[test]
    fn coo_ingest_localizes_rows_and_checks_ownership() {
        let mut st = seeded_state(2, 2, 5);
        // Global rows 2 and 3, global columns anywhere.
        st.ingest_matrix(&[1.0, 2.0, 3.0], &[2, 3, 3], &[0, 3, 4], SparseStruct::Coo, 0).unwrap();
        let m = st.matrix.get().unwrap();
        assert_eq!(m.shape(), (2, 5));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 3), 2.0);
        assert_eq!(m.get(1, 4), 3.0);
        // A row outside [2, 4) is rejected.
        assert!(st.ingest_matrix(&[1.0], &[0], &[0], SparseStruct::Coo, 0).is_err());
    }

    #[test]
    fn ingest_refreshes_the_matrix_digest() {
        let digest_of =
            |m: &CsrMatrix| crate::service::matrix_digest(m.row_ptr(), m.col_idx(), m.values());
        let mut st = seeded_state(0, 2, 2);
        assert!(st.matrix.get().is_none());
        st.ingest_matrix(&[1.0, 2.0], &[0, 1], &[0, 1], SparseStruct::Coo, 0).unwrap();
        let first = st.matrix.digest();
        assert_eq!(first, digest_of(st.matrix.get().unwrap()));
        // Same pattern, one value bit changed: the stored digest follows.
        st.ingest_matrix(&[1.0, 2.5], &[0, 1], &[0, 1], SparseStruct::Coo, 0).unwrap();
        assert_ne!(st.matrix.digest(), first);
        assert_eq!(st.matrix.digest(), digest_of(st.matrix.get().unwrap()));
        // A rejected ingest leaves matrix and digest as they were.
        let kept = st.matrix.clone();
        assert!(st.ingest_matrix(&[1.0], &[7], &[0], SparseStruct::Coo, 0).is_err());
        assert_eq!(st.matrix, kept);
    }

    #[test]
    fn nnz_declaration_is_enforced() {
        let mut st = seeded_state(0, 2, 2);
        st.local_nnz = Some(3);
        assert!(matches!(
            st.ingest_matrix(&[1.0], &[0], &[0], SparseStruct::Coo, 0),
            Err(LisiError::InvalidInput(_))
        ));
        st.local_nnz = Some(1);
        st.ingest_matrix(&[1.0], &[0], &[0], SparseStruct::Coo, 0).unwrap();
    }

    #[test]
    fn csr_ingest_with_fortran_offset() {
        let mut st = seeded_state(0, 2, 3);
        // 1-based CSR of [[1,0,2],[0,3,0]].
        st.ingest_matrix(&[1.0, 2.0, 3.0], &[1, 3, 4], &[1, 3, 2], SparseStruct::Csr, 1).unwrap();
        let m = st.matrix.get().unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
    }

    #[test]
    fn msr_ingest_maps_diagonal_to_global_start() {
        // Rank owning rows 2..4 of a 4-column problem; MSR block:
        // local row 0: diag 5 at global col 2, off-diag 1 at col 0.
        // local row 1: diag 6 at global col 3.
        let mut st = seeded_state(2, 2, 4);
        let val = [5.0, 6.0, 0.0, 1.0];
        let ja = [3usize, 4, 4, 0];
        st.ingest_matrix(&val, &[], &ja, SparseStruct::Msr, 0).unwrap();
        let m = st.matrix.get().unwrap();
        assert_eq!(m.get(0, 2), 5.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 3), 6.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn vbr_ingest_respects_block_layout() {
        // 2×2 blocks, local rows 0..2 of a 4-wide matrix, one block at
        // block-column 1: [[1,3],[2,4]] column-major = [1,2,3,4].
        let mut st = seeded_state(0, 2, 4);
        st.block_size = 2;
        st.ingest_matrix(&[1.0, 2.0, 3.0, 4.0], &[0, 1], &[1], SparseStruct::Vbr, 0).unwrap();
        let m = st.matrix.get().unwrap();
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(1, 2), 2.0);
        assert_eq!(m.get(0, 3), 3.0);
        assert_eq!(m.get(1, 3), 4.0);
        // Block size must divide the distribution.
        let mut bad = seeded_state(0, 3, 4);
        bad.block_size = 2;
        assert!(bad.ingest_matrix(&[0.0; 4], &[0, 1], &[0], SparseStruct::Vbr, 0).is_err());
    }

    #[test]
    fn fem_ingest_assembles_and_is_serial_only() {
        let mut st = seeded_state(0, 3, 3);
        st.block_size = 2;
        // Two bar elements sharing dof 1, each with matrix [1,-1;-1,1].
        let e = [1.0, -1.0, -1.0, 1.0];
        let values: Vec<f64> = e.iter().chain(e.iter()).copied().collect();
        let conn = [0usize, 1, 1, 2];
        st.ingest_matrix(&values, &[], &conn, SparseStruct::Fem, 0).unwrap();
        let m = st.matrix.get().unwrap();
        assert_eq!(m.get(1, 1), 2.0);
        assert_eq!(m.get(0, 1), -1.0);
        // Parallel FEM is rejected.
        let mut par = seeded_state(2, 2, 4);
        par.block_size = 2;
        assert!(matches!(
            par.ingest_matrix(&values, &[], &conn, SparseStruct::Fem, 0),
            Err(LisiError::Unsupported(_))
        ));
    }

    #[test]
    fn all_formats_produce_the_same_matrix() {
        // Serial sanity: the same matrix through COO/CSR/MSR/VBR must be
        // identical in CSR form.
        let a = generate::random_diag_dominant(8, 3, 21);
        let nnz = a.nnz();
        let mk = || {
            let mut st = seeded_state(0, 8, 8);
            st.local_nnz = Some(nnz);
            st
        };
        // COO.
        let coo = a.to_coo();
        let (r, c, v) = coo.triplets();
        let mut s1 = mk();
        s1.ingest_matrix(v, r, c, SparseStruct::Coo, 0).unwrap();
        // CSR.
        let mut s2 = mk();
        s2.ingest_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr, 0).unwrap();
        // MSR.
        let (val, ja) = convert::csr_to_msr(&a, 0).unwrap();
        let mut s3 = mk();
        s3.local_nnz = None; // MSR carries a padded diagonal
        s3.ingest_matrix(&val, &[], &ja, SparseStruct::Msr, 0).unwrap();
        // VBR with bs = 2, arrays in the LISI uniform-block convention.
        let bs = 2usize;
        let (bvals, bptr, bindx) = convert::csr_to_vbr(&a, bs).unwrap();
        let mut s4 = mk();
        s4.local_nnz = None; // VBR pads blocks with zeros
        s4.block_size = bs;
        s4.ingest_matrix(&bvals, &bptr, &bindx, SparseStruct::Vbr, 0).unwrap();

        assert_eq!(s1.matrix, s2.matrix);
        assert_eq!(s1.matrix, s3.matrix);
        assert_eq!(s1.matrix, s4.matrix);
    }

    #[test]
    fn rhs_validation() {
        let mut st = seeded_state(0, 4, 4);
        assert!(st.ingest_rhs(&[1.0; 4], 1).is_ok());
        assert_eq!(st.n_rhs, 1);
        assert!(st.ingest_rhs(&[1.0; 8], 2).is_ok());
        assert_eq!(st.n_rhs, 2);
        assert!(st.ingest_rhs(&[1.0; 3], 1).is_err());
        assert!(st.ingest_rhs(&[], 0).is_err());
    }

    #[test]
    fn solve_buffer_validation() {
        let mut st = seeded_state(0, 4, 4);
        st.ingest_rhs(&[0.0; 4], 1).unwrap();
        use crate::status::STATUS_LEN;
        assert!(st.check_solve_buffers(&[0.0; 4], &[0.0; STATUS_LEN]).is_ok());
        assert!(st.check_solve_buffers(&[0.0; 3], &[0.0; STATUS_LEN]).is_err());
        assert!(st.check_solve_buffers(&[0.0; 4], &[0.0; STATUS_LEN - 1]).is_err());
    }

    #[test]
    fn partition_builds_from_per_rank_declarations() {
        let out = Universe::run(3, |comm| {
            let part = BlockRowPartition::even(10, comm.size());
            let mut st = LisiState::new();
            st.comm = Some(comm.dup().unwrap());
            st.start_row = Some(part.start_row(comm.rank()));
            st.local_rows = Some(part.local_rows(comm.rank()));
            st.global_cols = Some(10);
            st.build_partition().unwrap()
        });
        for p in out {
            assert_eq!(p.offsets(), &[0, 4, 7, 10]);
        }
    }

    #[test]
    fn inconsistent_partition_is_rejected() {
        let out = Universe::run(2, |comm| {
            let mut st = LisiState::new();
            st.comm = Some(comm.dup().unwrap());
            // Both ranks claim start 0 — overlapping blocks.
            st.start_row = Some(0);
            st.local_rows = Some(5);
            st.global_cols = Some(10);
            st.build_partition().is_err()
        });
        assert_eq!(out, vec![true, true]);
    }
}
