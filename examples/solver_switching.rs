//! The paper's Figure 4 demo: one driver component, three solver
//! components (RKSP, RAztec, RSLU), and the builder service rewiring the
//! driver's uses port from one to the next at run time — no change to the
//! driver's code, which only ever talks to `lisi.SparseSolver`.
//!
//! ```text
//! cargo run --example solver_switching
//! ```

use std::sync::Arc;

use cca_lisi::cca::{BuilderService, CcaResult, Component, Framework, Services};
use cca_lisi::comm::Universe;
use cca_lisi::lisi::{
    SolveReport, SolverComponent, SparseSolverPort, SparseStruct, SOLVER_PORT, SOLVER_PORT_TYPE,
    STATUS_LEN,
};
use cca_lisi::sparse::BlockRowPartition;

/// The application component: it *uses* a solver port and never names a
/// package.
struct Driver;
impl Component for Driver {
    fn set_services(&mut self, services: &Services) -> CcaResult<()> {
        services.register_uses_port("solver", SOLVER_PORT_TYPE)
    }
}

fn main() {
    let m = 30;
    let manufactured = cca_lisi::mesh::manufactured::paper_manufactured(m);
    let n = manufactured.exact.len();
    let ranks = 2;
    println!("Figure 4 demo: same driver, three solver components, {ranks} ranks\n");

    let results = Universe::run(ranks, |comm| {
        // Every rank builds the identical component assembly (a cohort
        // per component).
        let mut fw = Framework::with_registry(cca_lisi::cca::sidl::SidlRegistry::lisi());
        let (driver, rksp, raztec, rslu) = {
            // Assemble the application through the builder service, as a
            // Ccaffeine script would.
            let mut builder = BuilderService::new(&mut fw);
            let driver = builder.create_instance("driver", Box::new(Driver)).unwrap();
            let rksp = builder.create_instance("rksp", Box::new(SolverComponent::rksp())).unwrap();
            let raztec =
                builder.create_instance("raztec", Box::new(SolverComponent::raztec())).unwrap();
            let rslu = builder.create_instance("rslu", Box::new(SolverComponent::rslu())).unwrap();
            (driver, rksp, raztec, rslu)
        };

        let part = BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        let local = manufactured.matrix.row_block(range.start, range.end).unwrap();
        let local_rhs = &manufactured.rhs[range.clone()];

        let mut lines = Vec::new();
        let mut first = true;
        for (name, id) in [("rksp", &rksp), ("raztec", &raztec), ("rslu", &rslu)] {
            // Dynamic switching: disconnect the old provider, connect the
            // new one. The driver's code below does not change.
            if !first {
                fw.disconnect(&driver, "solver").unwrap();
            }
            fw.connect(&driver, "solver", id, SOLVER_PORT).unwrap();
            first = false;

            // ---- Driver code: identical for every package. ----
            let port = fw
                .services(&driver)
                .unwrap()
                .get_port::<Arc<dyn SparseSolverPort>>("solver")
                .unwrap();
            port.initialize(comm.dup().unwrap()).unwrap();
            port.set_start_row(range.start).unwrap();
            port.set_local_rows(range.len()).unwrap();
            port.set_global_cols(n).unwrap();
            port.set("tol", "1e-10").unwrap();
            port.setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
                .unwrap();
            port.setup_rhs(local_rhs, 1).unwrap();
            let mut x = vec![0.0; range.len()];
            let mut status = [0.0; STATUS_LEN];
            port.solve(&mut x, &mut status).unwrap();
            // ---- End driver code. ----

            let report = SolveReport::from_slice(&status);
            let full = comm.allgatherv(&x).unwrap();
            lines.push((name, report, manufactured.error_inf(&full)));
        }
        lines
    });

    println!("package  converged  iters  residual    max-error");
    for (name, report, err) in &results[0] {
        println!(
            "{:<8} {:<10} {:<6} {:<11.3e} {:.3e}",
            name, report.converged, report.iterations, report.residual, err
        );
        assert!(report.converged && *err < 1e-6);
    }
    println!("\nall three packages solved the same system through one unchanged driver — OK");
}
