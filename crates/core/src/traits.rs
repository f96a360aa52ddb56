//! The LISI port traits — the Rust realization of the SIDL listing.
//!
//! Methods take `&self`: a CCA port is shared (an `Arc<dyn …>` handed to
//! every connected component), so implementations use interior
//! mutability. SIDL's `int` returns become `LisiResult<()>`;
//! [`crate::LisiError::code`] recovers the integer convention.

use rcomm::Communicator;

use crate::error::LisiResult;
use crate::types::{OperatorId, SparseStruct};

/// `lisi.SparseSolver` — the single public solver interface (design
/// decision §6.1: one interface, primitive-typed data, no object
/// composition).
///
/// Call order contract (paper §5.1's three phases):
/// 1. [`initialize`](Self::initialize), then the distribution setters
///    ([`set_start_row`](Self::set_start_row),
///    [`set_local_rows`](Self::set_local_rows),
///    [`set_local_nnz`](Self::set_local_nnz),
///    [`set_global_cols`](Self::set_global_cols));
/// 2. one `setup_matrix*` overload and [`setup_rhs`](Self::setup_rhs),
///    plus any generic parameter setters;
/// 3. [`solve`](Self::solve) — repeatable, with re-entry to phase 2 for
///    the reuse scenarios of §5.2.
pub trait SparseSolverPort: Send + Sync {
    /// Hand the solver its communicator (SIDL passes an opaque `long`
    /// handle; here it is a duplicated communicator the solver owns).
    fn initialize(&self, comm: Communicator) -> LisiResult<()>;

    /// Uniform block size for VBR input / element arity for FEM input.
    fn set_block_size(&self, bs: usize) -> LisiResult<()>;

    /// First global row owned by this rank (block-row partitioning).
    fn set_start_row(&self, start_row: usize) -> LisiResult<()>;

    /// Number of rows owned by this rank.
    fn set_local_rows(&self, rows: usize) -> LisiResult<()>;

    /// Number of nonzeros in this rank's rows.
    fn set_local_nnz(&self, nnz: usize) -> LisiResult<()>;

    /// Global number of columns (= global rows; systems are square).
    fn set_global_cols(&self, cols: usize) -> LisiResult<()>;

    /// `setupMatrix[few_args]`: COO triplets with global row and column
    /// indices, 0-based. By default the large-args overload with
    /// `structure = Coo`.
    fn setup_matrix_coo(
        &self,
        values: &[f64],
        rows: &[usize],
        columns: &[usize],
    ) -> LisiResult<()> {
        self.setup_matrix_offset(values, rows, columns, SparseStruct::Coo, 0)
    }

    /// `setupMatrix[media_args]`: arrays interpreted per `structure`
    /// (see [`SparseStruct`] for the per-format array roles), 0-based.
    /// By default the large-args overload with `offset = 0`.
    fn setup_matrix(
        &self,
        values: &[f64],
        rows: &[usize],
        columns: &[usize],
        structure: SparseStruct,
    ) -> LisiResult<()> {
        self.setup_matrix_offset(values, rows, columns, structure, 0)
    }

    /// `setupMatrix[large_args]`: like `setup_matrix` with an index base
    /// `offset` applied to all indices (1 for Fortran-style callers).
    fn setup_matrix_offset(
        &self,
        values: &[f64],
        rows: &[usize],
        columns: &[usize],
        structure: SparseStruct,
        offset: usize,
    ) -> LisiResult<()>;

    /// `setupRHS`: this rank's slice(s) of the right-hand side(s),
    /// column-major when `n_rhs > 1` (design choice for §5.2c).
    fn setup_rhs(&self, rhs: &[f64], n_rhs: usize) -> LisiResult<()>;

    /// Solve. `solution` carries the initial guess in and this rank's
    /// solution out (`local_rows · n_rhs` entries, column-major);
    /// `status` (≥ [`crate::STATUS_LEN`] entries) receives the layout
    /// documented in [`crate::status`]. Collective across the cohort.
    fn solve(&self, solution: &mut [f64], status: &mut [f64]) -> LisiResult<()>;

    /// Generic string parameter (design decision §6.5). Keys shared by
    /// every adapter: `"solver"`, `"preconditioner"`; unknown keys are
    /// stored and passed to the package, which may ignore them.
    fn set(&self, key: &str, value: &str) -> LisiResult<()>;

    /// Generic integer parameter (e.g. `"maxits"`, `"restart"`). The
    /// typed setters are by default [`set`](Self::set) with the value
    /// spelled as `rkrylov::Options`' typed setters spell it, so a key
    /// means the same through every one of them.
    fn set_int(&self, key: &str, value: i64) -> LisiResult<()> {
        self.set(key, &value.to_string())
    }

    /// Generic boolean parameter (e.g. `"refine"`).
    fn set_bool(&self, key: &str, value: bool) -> LisiResult<()> {
        self.set(key, if value { "true" } else { "false" })
    }

    /// Generic floating-point parameter (e.g. `"tol"`).
    fn set_double(&self, key: &str, value: f64) -> LisiResult<()> {
        self.set(key, &format!("{value:e}"))
    }

    /// Dump every parameter currently set, one `key=value` per line —
    /// the paper's `get_all`.
    fn get_all(&self) -> String;
}

/// `lisi.MatrixFree` — the application-side port for matrix-free solves
/// (paper §5.5): the solver calls back into the application to apply the
/// operator (and optionally a preconditioner) to a vector. The data
/// distribution is assumed known to both sides (paper §7.2).
pub trait MatrixFreePort: Send + Sync {
    /// y ← Op·x on this rank's slice, where `id` selects the operator.
    /// May communicate with its own cohort (the solver calls it
    /// collectively).
    fn mat_mult(&self, id: OperatorId, x: &[f64], y: &mut [f64]) -> LisiResult<()>;
}

/// Mapping from the SIDL method (Babel long name) to the Rust method
/// realizing it — data for the conformance test and documentation.
pub fn sidl_method_map() -> Vec<(&'static str, &'static str)> {
    vec![
        ("initialize", "initialize"),
        ("setBlockSize", "set_block_size"),
        ("setStartRow", "set_start_row"),
        ("setLocalRows", "set_local_rows"),
        ("setLocalNNZ", "set_local_nnz"),
        ("setGlobalCols", "set_global_cols"),
        ("setupMatrix_few_args", "setup_matrix_coo"),
        ("setupMatrix_media_args", "setup_matrix"),
        ("setupMatrix_large_args", "setup_matrix_offset"),
        ("setupRHS", "setup_rhs"),
        ("solve", "solve"),
        ("set", "set"),
        ("setInt", "set_int"),
        ("setBool", "set_bool"),
        ("setDouble", "set_double"),
        ("get_all", "get_all"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Rust trait must cover the SIDL spec exactly: every method of
    /// `lisi.SparseSolver` (by Babel long name) appears in the map, and
    /// nothing else does.
    #[test]
    fn rust_trait_conforms_to_the_sidl_spec() {
        let reg = cca::sidl::SidlRegistry::lisi();
        let iface = reg.interface("lisi.SparseSolver").unwrap();
        let spec_names: Vec<String> = iface.methods.iter().map(|m| m.long_name()).collect();
        let map = sidl_method_map();
        let mapped: Vec<&str> = map.iter().map(|(s, _)| *s).collect();
        assert_eq!(spec_names, mapped, "trait/spec method sets diverged");
        // Rust names are unique.
        let mut rust: Vec<&str> = map.iter().map(|(_, r)| *r).collect();
        rust.sort_unstable();
        rust.dedup();
        assert_eq!(rust.len(), map.len());
    }

    #[test]
    fn matrix_free_spec_matches() {
        let reg = cca::sidl::SidlRegistry::lisi();
        let iface = reg.interface("lisi.MatrixFree").unwrap();
        assert_eq!(iface.methods.len(), 1);
        assert_eq!(iface.methods[0].name, "matMult");
        // 4 SIDL params (id, x, y, length); Rust folds `length` into the
        // slice lengths.
        assert_eq!(iface.methods[0].params.len(), 4);
    }
}
