//! The solver-package adapters: each implements [`crate::SparseSolverPort`] over
//! one underlying library, converting LISI's generic inputs and
//! parameters to the package's native forms. This is the reusable "CCA
//! toolkit" the paper's abstract promises — swap the adapter, keep the
//! application.
//!
//! The four public names are one generic `Adapter` (the solve pipeline,
//! `pipeline.rs`) over four `Backend`s; a backend file holds only what is
//! its package's own — option parsing, what set-up builds, how a solve
//! runs it.

mod pipeline;
mod raztec_adapter;
mod rksp_adapter;
mod rmg_adapter;
mod rslu_adapter;

pub use pipeline::Adapter;
pub use raztec_adapter::RaztecAdapter;
pub use rksp_adapter::RkspAdapter;
pub use rmg_adapter::RmgAdapter;
pub use rslu_adapter::RsluAdapter;

/// Implements every [`crate::SparseSolverPort`] method that has no default,
/// except `solve`, by delegating to the implementor's
/// `state: parking_lot::Mutex<LisiState>` field — for the two types that
/// hold one, the pipeline's `Adapter` and [`crate::ResilientSolver`].
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
            let bad = |reason: String| crate::error::LisiError::bad_parameter(key, reason);
            let positive = |what: &str| match value.parse::<usize>() {
                Ok(0) => Err(bad(format!("{what} must be ≥ 1"))),
                Ok(n) => Ok(n),
                Err(_) => Err(bad(format!("expected a positive {what}, got '{value}'"))),
            };
            match key {
                // Reserved key: "probe" picks the process-wide probe sink
                // (and with it span timing) through the generic option
                // surface, so applications can enable observability without
                // a LISI interface change (SIDL conformance forbids adding
                // trait methods). Every value names a renderer; none turns
                // the black-box event log on or off — "flight" prints it.
                "probe" => {
                    let mode = probe::ProbeMode::parse(value).ok_or_else(|| {
                        bad(format!(
                            "unknown probe sink '{value}' (expected off, or one of the \
                             renderers summary|json|chrome|flight)"
                        ))
                    })?;
                    probe::set_mode(mode);
                }
                // Reserved key: "trace" asks for (or stops asking for) the
                // probe's trace level — spans in the event log, stamped
                // envelopes, a critical path — for subsequent solves: the
                // programmatic twin of `RSPARSE_TRACE`. Accepts the usual
                // switch spellings (1|on|true|yes / 0|off|false|no|none).
                "trace" => {
                    let armed = probe::trace::parse_switch(value).ok_or_else(|| {
                        bad(format!("unknown trace switch '{value}' (expected on|off)"))
                    })?;
                    probe::trace::set_armed(armed);
                }
                // Reserved key: "ledger" routes the per-solve efficiency
                // ledger (work models + measured times + convergence
                // analytics) to a path — the programmatic twin of
                // `RSPARSE_LEDGER`. The grammar is infallible: off|0|none
                // disables, 1|on selects the default path, anything else is
                // the target path.
                "ledger" => probe::ledger::set_destination(value),
                // Reserved key: "nrhs" opts subsequent solves into the
                // batched multi-RHS path — any value ≥ 2 makes `solve`
                // process all columns of the current right-hand-side block
                // as one batch (RKSP: one fused reduction / halo exchange
                // per step instead of one per column); 1 restores
                // column-at-a-time solves. Validated here, stored like any
                // other option so it participates in the session
                // fingerprint.
                _ => {
                    if key == "nrhs" {
                        positive("batch width")?;
                    }
                    self.state.lock().options.set(key, value);
                }
            }
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
