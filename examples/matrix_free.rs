//! Matrix-free solve (paper §5.5): the application never assembles the
//! coefficient matrix — it provides a `lisi.MatrixFree` port that applies
//! the 5-point convection–diffusion stencil on the fly, and the solver
//! component pulls matrix–vector products through the CCA connection.
//!
//! ```text
//! cargo run --example matrix_free
//! ```

use std::sync::Arc;

use cca_lisi::cca::{CcaResult, Component, Framework, Services};
use cca_lisi::comm::Universe;
use cca_lisi::lisi::{
    LisiResult, MatrixFreeComponent, MatrixFreePort, OperatorId, SolveReport, SolverComponent,
    SparseSolverPort, MATRIX_FREE_PORT, SOLVER_PORT, SOLVER_PORT_TYPE, STATUS_LEN,
};

/// The application operator: applies the paper's PDE stencil directly
/// from grid geometry — no sparse matrix anywhere. For the
/// preconditioner callback it applies the inverse of the stencil's
/// diagonal (point Jacobi), showing both `ID` variants in action.
struct StencilOperator {
    m: usize,
    /// Stencil coefficients (diag, east, west, north, south).
    coeffs: (f64, f64, f64, f64, f64),
}

impl MatrixFreePort for StencilOperator {
    fn mat_mult(&self, id: OperatorId, x: &[f64], y: &mut [f64]) -> LisiResult<()> {
        let m = self.m;
        let (cd, ce, cw, cn, cs) = self.coeffs;
        match id {
            OperatorId::Matrix => {
                for i in 0..m {
                    for j in 0..m {
                        let k = i * m + j;
                        let mut acc = cd * x[k];
                        if j > 0 {
                            acc += cw * x[k - 1];
                        }
                        if j + 1 < m {
                            acc += ce * x[k + 1];
                        }
                        if i > 0 {
                            acc += cs * x[k - m];
                        }
                        if i + 1 < m {
                            acc += cn * x[k + m];
                        }
                        y[k] = acc;
                    }
                }
            }
            OperatorId::Preconditioner => {
                for (yi, xi) in y.iter_mut().zip(x) {
                    *yi = xi / cd;
                }
            }
        }
        Ok(())
    }
}

struct Driver;
impl Component for Driver {
    fn set_services(&mut self, services: &Services) -> CcaResult<()> {
        services.register_uses_port("solver", SOLVER_PORT_TYPE)
    }
}

fn main() {
    let m = 40;
    let problem = cca_lisi::mesh::paper_problem(m);
    let n = problem.grid().unknowns();
    // Reference: the assembled matrix, used only to manufacture an exact
    // solution for verification — the solver never sees it.
    let manufactured = cca_lisi::mesh::manufactured::paper_manufactured(m);
    println!("matrix-free solve of {n} unknowns via the lisi.MatrixFree port (serial cohort)");

    let results = Universe::run(1, |comm| {
        let mut fw = Framework::with_registry(cca_lisi::cca::sidl::SidlRegistry::lisi());
        let driver = fw.instantiate("driver", Box::new(Driver)).unwrap();
        let operator = fw
            .instantiate(
                "operator",
                Box::new(MatrixFreeComponent::new(Arc::new(StencilOperator {
                    m,
                    coeffs: problem.stencil(),
                }))),
            )
            .unwrap();
        let solver = fw.instantiate("solver", Box::new(SolverComponent::rksp())).unwrap();
        fw.connect(&driver, "solver", &solver, SOLVER_PORT).unwrap();
        // The hybrid uses–provides pattern of §5.6(c): the solver *uses*
        // the application's matrix-free port.
        fw.connect(&solver, MATRIX_FREE_PORT, &operator, MATRIX_FREE_PORT).unwrap();

        let port =
            fw.services(&driver).unwrap().get_port::<Arc<dyn SparseSolverPort>>("solver").unwrap();
        port.initialize(comm.dup().unwrap()).unwrap();
        port.set_start_row(0).unwrap();
        port.set_local_rows(n).unwrap();
        port.set_global_cols(n).unwrap();
        port.set_bool("matrix_free", true).unwrap();
        port.set("solver", "bicgstab").unwrap();
        port.set("preconditioner", "matrix_free").unwrap();
        port.set_double("tol", 1e-10).unwrap();
        port.setup_rhs(&manufactured.rhs, 1).unwrap();
        let mut x = vec![0.0; n];
        let mut status = [0.0; STATUS_LEN];
        port.solve(&mut x, &mut status).unwrap();
        (SolveReport::from_slice(&status), x)
    });

    let (report, x) = &results[0];
    let err = manufactured.error_inf(x);
    println!("converged      : {}", report.converged);
    println!("iterations     : {}", report.iterations);
    println!("final residual : {:.3e}", report.residual);
    println!("max error      : {err:.3e}");
    assert!(report.converged && err < 1e-6);
    println!("OK — solved without ever assembling the matrix");
}
