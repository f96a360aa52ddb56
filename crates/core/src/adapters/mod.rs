//! The solver-package adapters: each implements [`crate::SparseSolverPort`] over
//! one underlying library, converting LISI's generic inputs and
//! parameters to the package's native forms. This is the reusable "CCA
//! toolkit" the paper's abstract promises — swap the adapter, keep the
//! application.

mod raztec_adapter;
mod rksp_adapter;
mod rmg_adapter;
mod rslu_adapter;

pub use raztec_adapter::RaztecAdapter;
pub use rksp_adapter::RkspAdapter;
pub use rmg_adapter::RmgAdapter;
pub use rslu_adapter::RsluAdapter;

use std::sync::Arc;

use crate::error::LisiResult;
use crate::traits::MatrixFreePort;

/// Implements every [`crate::SparseSolverPort`] method except `solve` by
/// delegating to the adapter's `state: parking_lot::Mutex<LisiState>`
/// field. Each adapter supplies only its package-specific `solve`.
macro_rules! lisi_common_methods {
    () => {
        fn initialize(&self, comm: rcomm::Communicator) -> crate::error::LisiResult<()> {
            self.state.lock().comm = Some(comm);
            Ok(())
        }

        fn set_block_size(&self, bs: usize) -> crate::error::LisiResult<()> {
            if bs == 0 {
                return Err(crate::error::LisiError::InvalidInput(
                    "block size must be positive".into(),
                ));
            }
            self.state.lock().block_size = bs;
            Ok(())
        }

        fn set_start_row(&self, start_row: usize) -> crate::error::LisiResult<()> {
            self.state.lock().start_row = Some(start_row);
            Ok(())
        }

        fn set_local_rows(&self, rows: usize) -> crate::error::LisiResult<()> {
            self.state.lock().local_rows = Some(rows);
            Ok(())
        }

        fn set_local_nnz(&self, nnz: usize) -> crate::error::LisiResult<()> {
            self.state.lock().local_nnz = Some(nnz);
            Ok(())
        }

        fn set_global_cols(&self, cols: usize) -> crate::error::LisiResult<()> {
            self.state.lock().global_cols = Some(cols);
            Ok(())
        }

        fn setup_matrix_coo(
            &self,
            values: &[f64],
            rows: &[usize],
            columns: &[usize],
        ) -> crate::error::LisiResult<()> {
            self.state.lock().ingest_matrix(
                values,
                rows,
                columns,
                crate::types::SparseStruct::Coo,
                0,
            )
        }

        fn setup_matrix(
            &self,
            values: &[f64],
            rows: &[usize],
            columns: &[usize],
            structure: crate::types::SparseStruct,
        ) -> crate::error::LisiResult<()> {
            self.state.lock().ingest_matrix(values, rows, columns, structure, 0)
        }

        fn setup_matrix_offset(
            &self,
            values: &[f64],
            rows: &[usize],
            columns: &[usize],
            structure: crate::types::SparseStruct,
            offset: usize,
        ) -> crate::error::LisiResult<()> {
            self.state.lock().ingest_matrix(values, rows, columns, structure, offset)
        }

        fn setup_rhs(&self, rhs: &[f64], n_rhs: usize) -> crate::error::LisiResult<()> {
            self.state.lock().ingest_rhs(rhs, n_rhs)
        }

        fn set(&self, key: &str, value: &str) -> crate::error::LisiResult<()> {
            // Reserved key: "probe" switches the process-wide tracing
            // mode through the generic option surface, so applications
            // can enable observability without a LISI interface change
            // (SIDL conformance forbids adding trait methods).
            if key == "probe" {
                let mode = probe::ProbeMode::parse(value).ok_or_else(|| {
                    crate::error::LisiError::BadParameter {
                        key: "probe".into(),
                        reason: format!(
                            "unknown probe mode '{value}' (expected off|summary|json|chrome|flight)"
                        ),
                    }
                })?;
                probe::set_mode(mode);
                return Ok(());
            }
            // Reserved key: "threads" sets the rank-local thread count
            // used by the threaded kernels (SpMV chunks, blocked
            // reductions). Same rationale as
            // "probe": a process-wide knob every adapter understands
            // without widening the SIDL surface.
            if key == "threads" {
                let n: usize = value.parse().map_err(|_| {
                    crate::error::LisiError::BadParameter {
                        key: "threads".into(),
                        reason: format!("expected a positive thread count, got '{value}'"),
                    }
                })?;
                if n == 0 {
                    return Err(crate::error::LisiError::BadParameter {
                        key: "threads".into(),
                        reason: "thread count must be ≥ 1".into(),
                    });
                }
                rsparse::threads::set_threads(n);
                return Ok(());
            }
            // Reserved key: "trace" arms or disarms causal cross-rank
            // tracing (`probe::trace`) for subsequent solves — the
            // programmatic twin of `RSPARSE_TRACE`. Accepts the usual
            // switch spellings (1|on|true|yes / 0|off|false|no|none).
            if key == "trace" {
                let armed = probe::trace::parse_switch(value).ok_or_else(|| {
                    crate::error::LisiError::BadParameter {
                        key: "trace".into(),
                        reason: format!(
                            "unknown trace switch '{value}' (expected on|off)"
                        ),
                    }
                })?;
                probe::trace::set_armed(armed);
                return Ok(());
            }
            // Reserved key: "ledger" routes the per-solve efficiency
            // ledger (work models + measured times + convergence
            // analytics) to a path — the programmatic twin of
            // `RSPARSE_LEDGER`. The grammar is infallible: off|0|none
            // disables, 1|on selects the default path, anything else is
            // the target path.
            if key == "ledger" {
                probe::ledger::set_destination(value);
                return Ok(());
            }
            // Reserved key: "format" selects the SpMV storage format the
            // next setupMatrix plans with (csr|sell|bcsr|auto). All
            // formats are bit-identical, so this is purely a performance
            // knob — same process-wide pattern as "probe"/"threads".
            if key == "format" {
                let policy = rsparse::FormatPolicy::parse(value).ok_or_else(|| {
                    crate::error::LisiError::BadParameter {
                        key: "format".into(),
                        reason: format!(
                            "unknown format '{value}' (expected csr|sell|bcsr|auto)"
                        ),
                    }
                })?;
                rsparse::autotune::set_policy(policy);
                return Ok(());
            }
            // Reserved key: "nrhs" opts subsequent solves into the
            // batched multi-RHS path — any value ≥ 2 makes `solve`
            // process all columns of the current right-hand-side block
            // through the batched drivers (one fused reduction / halo
            // exchange per step instead of one per column); 1 restores
            // column-at-a-time solves. Validated here, stored as an
            // ordinary option so it participates in the session
            // fingerprint.
            if key == "nrhs" {
                let n: usize = value.parse().map_err(|_| {
                    crate::error::LisiError::BadParameter {
                        key: "nrhs".into(),
                        reason: format!("expected a positive batch width, got '{value}'"),
                    }
                })?;
                if n == 0 {
                    return Err(crate::error::LisiError::BadParameter {
                        key: "nrhs".into(),
                        reason: "batch width must be ≥ 1".into(),
                    });
                }
                // Falls through: kept in the option table.
            }
            self.state.lock().options.set(key, value);
            Ok(())
        }

        fn set_int(&self, key: &str, value: i64) -> crate::error::LisiResult<()> {
            if key == "threads" || key == "nrhs" {
                return self.set(key, &value.to_string());
            }
            self.state.lock().options.set_int(key, value);
            Ok(())
        }

        fn set_bool(&self, key: &str, value: bool) -> crate::error::LisiResult<()> {
            if key == "trace" {
                probe::trace::set_armed(value);
                return Ok(());
            }
            self.state.lock().options.set_bool(key, value);
            Ok(())
        }

        fn set_double(&self, key: &str, value: f64) -> crate::error::LisiResult<()> {
            self.state.lock().options.set_double(key, value);
            Ok(())
        }

        fn get_all(&self) -> String {
            let st = self.state.lock();
            let mut out = format!("package={}\n", Self::PACKAGE_NAME);
            out.push_str(&st.options.dump());
            out
        }
    };
}
pub(crate) use lisi_common_methods;

/// Common constructor surface shared by the adapters.
macro_rules! lisi_adapter_boilerplate {
    ($name:ident) => {
        impl $name {
            /// Fresh, un-initialized adapter.
            pub fn new() -> Self {
                Self::default()
            }

            /// Connect the application's matrix-free port (done by the
            /// CCA component when the `"matrix-free"` uses port is
            /// wired).
            pub fn set_matrix_free(
                &self,
                port: std::sync::Arc<dyn crate::traits::MatrixFreePort>,
            ) {
                self.state.lock().matrix_free = Some(port);
            }
        }
    };
}
pub(crate) use lisi_adapter_boilerplate;

/// Fetch the matrix-free port or explain what is missing.
pub(crate) fn require_matrix_free(
    state: &crate::state::LisiState,
) -> LisiResult<Arc<dyn MatrixFreePort>> {
    state.matrix_free.clone().ok_or_else(|| {
        crate::error::LisiError::BadPhase(
            "matrix_free=true but no MatrixFree port is connected".into(),
        )
    })
}

/// Is the matrix-free mode requested?
pub(crate) fn matrix_free_requested(state: &crate::state::LisiState) -> bool {
    state
        .options
        .get_parsed::<bool>("matrix_free")
        .unwrap_or(false)
}
