//! Dynamic solver switching through the CCA framework — the paper's
//! Figure 4 claim, asserted: the same driver code, with its uses port
//! rewired by the builder, gets correct solutions from every provider,
//! and the framework's event log records the rewiring.

use std::sync::Arc;

use cca_lisi::cca::{BuilderEvent, CcaResult, Component, Framework, Services};
use cca_lisi::comm::Universe;
use cca_lisi::lisi::{
    SolverComponent, SparseSolverPort, SparseStruct, SOLVER_PORT, SOLVER_PORT_TYPE, STATUS_LEN,
};

struct Driver;
impl Component for Driver {
    fn set_services(&mut self, services: &Services) -> CcaResult<()> {
        services.register_uses_port("solver", SOLVER_PORT_TYPE)
    }
}

/// Identical driver body for every provider, returning the full solution.
fn drive(
    comm: &cca_lisi::comm::Communicator,
    fw: &Framework,
    driver: &cca_lisi::cca::ComponentId,
    a: &cca_lisi::sparse::CsrMatrix,
    b: &[f64],
) -> Vec<f64> {
    let n = a.rows();
    let part = cca_lisi::sparse::BlockRowPartition::even(n, comm.size());
    let range = part.range(comm.rank());
    let local = a.row_block(range.start, range.end).unwrap();
    let port =
        fw.services(driver).unwrap().get_port::<Arc<dyn SparseSolverPort>>("solver").unwrap();
    port.initialize(comm.dup().unwrap()).unwrap();
    port.set_start_row(range.start).unwrap();
    port.set_local_rows(range.len()).unwrap();
    port.set_global_cols(n).unwrap();
    port.set("tol", "1e-10").unwrap();
    port.setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr).unwrap();
    port.setup_rhs(&b[range.clone()], 1).unwrap();
    let mut x = vec![0.0; range.len()];
    let mut status = [0.0; STATUS_LEN];
    port.solve(&mut x, &mut status).unwrap();
    comm.allgatherv(&x).unwrap()
}

#[test]
fn rewiring_the_uses_port_switches_packages_without_driver_changes() {
    let a = cca_lisi::sparse::generate::laplacian_2d(9);
    let n = a.rows();
    let x_true = cca_lisi::sparse::generate::random_vector(n, 13);
    let b = a.matvec(&x_true).unwrap();

    let out = Universe::run(2, |comm| {
        let mut fw = Framework::with_registry(cca_lisi::cca::sidl::SidlRegistry::lisi());
        let driver = fw.instantiate("driver", Box::new(Driver)).unwrap();
        let rksp = fw.instantiate("rksp", Box::new(SolverComponent::rksp())).unwrap();
        let raztec = fw.instantiate("raztec", Box::new(SolverComponent::raztec())).unwrap();
        let rslu = fw.instantiate("rslu", Box::new(SolverComponent::rslu())).unwrap();

        let mut sols = Vec::new();
        fw.connect(&driver, "solver", &rksp, SOLVER_PORT).unwrap();
        sols.push(drive(comm, &fw, &driver, &a, &b));
        fw.reconnect(&driver, "solver", &raztec, SOLVER_PORT).unwrap();
        sols.push(drive(comm, &fw, &driver, &a, &b));
        fw.reconnect(&driver, "solver", &rslu, SOLVER_PORT).unwrap();
        sols.push(drive(comm, &fw, &driver, &a, &b));

        // The event log tells the switching story.
        let events = fw.events();
        let connects =
            events.iter().filter(|e| matches!(e, BuilderEvent::Connected { .. })).count();
        let disconnects =
            events.iter().filter(|e| matches!(e, BuilderEvent::Disconnected { .. })).count();
        (sols, connects, disconnects)
    });

    for (sols, connects, disconnects) in out {
        assert_eq!(connects, 3);
        assert_eq!(disconnects, 2);
        for (i, sol) in sols.iter().enumerate() {
            for (g, e) in sol.iter().zip(&x_true) {
                assert!((g - e).abs() < 1e-6, "provider {i}");
            }
        }
    }
}

#[test]
fn connecting_a_solver_port_to_a_wrong_typed_port_fails() {
    let mut fw = Framework::with_registry(cca_lisi::cca::sidl::SidlRegistry::lisi());
    let driver = fw.instantiate("driver", Box::new(Driver)).unwrap();
    let rksp = fw.instantiate("rksp", Box::new(SolverComponent::rksp())).unwrap();
    // The solver's matrix-free port is a *uses* port — connecting the
    // driver's solver port to it must fail on type (and direction).
    assert!(fw.connect(&driver, "solver", &rksp, "matrix-free").is_err());
}

#[test]
fn destroying_the_connected_solver_leaves_driver_disconnected() {
    let mut fw = Framework::with_registry(cca_lisi::cca::sidl::SidlRegistry::lisi());
    let driver = fw.instantiate("driver", Box::new(Driver)).unwrap();
    let rksp = fw.instantiate("rksp", Box::new(SolverComponent::rksp())).unwrap();
    fw.connect(&driver, "solver", &rksp, SOLVER_PORT).unwrap();
    fw.destroy(&rksp).unwrap();
    let services = fw.services(&driver).unwrap();
    assert!(services.get_port::<Arc<dyn SparseSolverPort>>("solver").is_err());
}
