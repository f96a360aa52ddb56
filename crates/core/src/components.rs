//! CCA components wrapping the LISI adapters — the deployable units the
//! paper's Figure 4 rewires at run time.
//!
//! Port layout (design decision §6.4: uses ports on the application side,
//! provides ports on the solver side, with the single exception of the
//! application-provided `MatrixFree` port):
//!
//! * every [`SolverComponent`] **provides** `"lisi-solver"` of SIDL type
//!   `lisi.SparseSolver` and **uses** (optionally) `"matrix-free"` of
//!   type `lisi.MatrixFree`;
//! * the application's [`MatrixFreeComponent`] **provides**
//!   `"matrix-free"`.

use std::sync::Arc;

use cca::{CcaResult, Component, Services, WeakServices};

use crate::adapters::{RaztecAdapter, RkspAdapter, RmgAdapter, RsluAdapter};
use crate::error::LisiResult;
use crate::traits::{MatrixFreePort, SparseSolverPort};
use crate::types::SparseStruct;

/// Provides-port name of every solver component.
pub const SOLVER_PORT: &str = "lisi-solver";
/// SIDL type of the solver port.
pub const SOLVER_PORT_TYPE: &str = "lisi.SparseSolver";
/// Uses/provides-port name for the matrix-free callback.
pub const MATRIX_FREE_PORT: &str = "matrix-free";
/// SIDL type of the matrix-free port.
pub const MATRIX_FREE_PORT_TYPE: &str = "lisi.MatrixFree";

/// Adapters that can accept a matrix-free port injection (implemented
/// once, by the solve pipeline's generic adapter).
pub trait MatrixFreeSink {
    /// Hand the application's `MatrixFree` port to the adapter.
    fn inject_matrix_free(&self, port: Arc<dyn MatrixFreePort>);
}

/// The provides-port object: delegates to the adapter, and just before a
/// solve checks whether a `MatrixFree` port has been wired to this
/// component, injecting it if so — getPort-at-use-time semantics, so
/// dynamic rewiring is picked up.
///
/// Every method passes through [`port_span`], so the component layer's
/// own overhead (paper §6: "what does the CCA indirection cost?") is
/// measured by the framework itself: the `port:*` spans' *self* time is
/// exactly the shim + dispatch cost, with the adapter's work attributed
/// to the nested spans.
struct PortShim<A> {
    inner: Arc<A>,
    /// Weak: the services' state owns this shim (it *is* the provides
    /// port value), so a strong handle here would leak the component.
    services: WeakServices,
}

/// Count a port call and open its `port:<method>` span.
fn port_span(name: &'static str) -> probe::SpanGuard {
    probe::incr(probe::Counter::PortCalls);
    probe::SpanGuard::enter(name)
}

impl<A: SparseSolverPort + MatrixFreeSink + 'static> SparseSolverPort for PortShim<A> {
    fn initialize(&self, comm: rcomm::Communicator) -> LisiResult<()> {
        let _s = port_span("port:initialize");
        self.inner.initialize(comm)
    }
    fn set_block_size(&self, bs: usize) -> LisiResult<()> {
        let _s = port_span("port:set_block_size");
        self.inner.set_block_size(bs)
    }
    fn set_start_row(&self, v: usize) -> LisiResult<()> {
        let _s = port_span("port:set_start_row");
        self.inner.set_start_row(v)
    }
    fn set_local_rows(&self, v: usize) -> LisiResult<()> {
        let _s = port_span("port:set_local_rows");
        self.inner.set_local_rows(v)
    }
    fn set_local_nnz(&self, v: usize) -> LisiResult<()> {
        let _s = port_span("port:set_local_nnz");
        self.inner.set_local_nnz(v)
    }
    fn set_global_cols(&self, v: usize) -> LisiResult<()> {
        let _s = port_span("port:set_global_cols");
        self.inner.set_global_cols(v)
    }
    fn setup_matrix_coo(&self, values: &[f64], rows: &[usize], cols: &[usize]) -> LisiResult<()> {
        let _s = port_span("port:setup_matrix_coo");
        self.inner.setup_matrix_coo(values, rows, cols)
    }
    fn setup_matrix(
        &self,
        values: &[f64],
        rows: &[usize],
        cols: &[usize],
        structure: SparseStruct,
    ) -> LisiResult<()> {
        let _s = port_span("port:setup_matrix");
        self.inner.setup_matrix(values, rows, cols, structure)
    }
    fn setup_matrix_offset(
        &self,
        values: &[f64],
        rows: &[usize],
        cols: &[usize],
        structure: SparseStruct,
        offset: usize,
    ) -> LisiResult<()> {
        let _s = port_span("port:setup_matrix_offset");
        self.inner.setup_matrix_offset(values, rows, cols, structure, offset)
    }
    fn setup_rhs(&self, rhs: &[f64], n_rhs: usize) -> LisiResult<()> {
        let _s = port_span("port:setup_rhs");
        self.inner.setup_rhs(rhs, n_rhs)
    }
    fn solve(&self, solution: &mut [f64], status: &mut [f64]) -> LisiResult<()> {
        let _s = port_span("port:solve");
        if let Some(services) = self.services.upgrade() {
            if let Ok(port) = services.get_port::<Arc<dyn MatrixFreePort>>(MATRIX_FREE_PORT) {
                self.inner.inject_matrix_free(port);
            }
        }
        self.inner.solve(solution, status)
    }
    fn set(&self, key: &str, value: &str) -> LisiResult<()> {
        let _s = port_span("port:set");
        self.inner.set(key, value)
    }
    fn set_int(&self, key: &str, value: i64) -> LisiResult<()> {
        let _s = port_span("port:set_int");
        self.inner.set_int(key, value)
    }
    fn set_bool(&self, key: &str, value: bool) -> LisiResult<()> {
        let _s = port_span("port:set_bool");
        self.inner.set_bool(key, value)
    }
    fn set_double(&self, key: &str, value: f64) -> LisiResult<()> {
        let _s = port_span("port:set_double");
        self.inner.set_double(key, value)
    }
    fn get_all(&self) -> String {
        let _s = port_span("port:get_all");
        self.inner.get_all()
    }
}

/// A CCA solver component wrapping one adapter.
pub struct SolverComponent<A> {
    adapter: Arc<A>,
}

impl SolverComponent<RkspAdapter> {
    /// The RKSP (PETSc-like) solver component.
    pub fn rksp() -> Self {
        SolverComponent { adapter: Arc::new(RkspAdapter::new()) }
    }
}

impl SolverComponent<RaztecAdapter> {
    /// The RAztec (Trilinos-like) solver component.
    pub fn raztec() -> Self {
        SolverComponent { adapter: Arc::new(RaztecAdapter::new()) }
    }
}

impl SolverComponent<RsluAdapter> {
    /// The RSLU (SuperLU-like) direct solver component.
    pub fn rslu() -> Self {
        SolverComponent { adapter: Arc::new(RsluAdapter::new()) }
    }
}

impl SolverComponent<RmgAdapter> {
    /// The RMG multigrid solver component.
    pub fn rmg() -> Self {
        SolverComponent { adapter: Arc::new(RmgAdapter::new()) }
    }
}

impl<A> SolverComponent<A> {
    /// Direct access to the adapter (package-specific extensions like
    /// [`RmgAdapter::set_coarse_solver`]).
    pub fn adapter(&self) -> Arc<A> {
        Arc::clone(&self.adapter)
    }
}

impl<A: SparseSolverPort + MatrixFreeSink + Send + Sync + 'static> Component
    for SolverComponent<A>
{
    fn set_services(&mut self, services: &Services) -> CcaResult<()> {
        let shim: Arc<dyn SparseSolverPort> =
            Arc::new(PortShim { inner: Arc::clone(&self.adapter), services: services.downgrade() });
        services.add_provides_port(SOLVER_PORT, SOLVER_PORT_TYPE, shim)?;
        services.register_uses_port(MATRIX_FREE_PORT, MATRIX_FREE_PORT_TYPE)?;
        Ok(())
    }
}

/// The application-side component providing a `MatrixFree` port.
pub struct MatrixFreeComponent {
    port: Arc<dyn MatrixFreePort>,
}

impl MatrixFreeComponent {
    /// Wrap an application operator.
    pub fn new(port: Arc<dyn MatrixFreePort>) -> Self {
        MatrixFreeComponent { port }
    }
}

impl Component for MatrixFreeComponent {
    fn set_services(&mut self, services: &Services) -> CcaResult<()> {
        services.add_provides_port(MATRIX_FREE_PORT, MATRIX_FREE_PORT_TYPE, Arc::clone(&self.port))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::STATUS_LEN;
    use cca::Framework;
    use rcomm::Universe;

    fn fetch_solver(
        fw: &Framework,
        id: &cca::ComponentId,
        user: &cca::ComponentId,
    ) -> Arc<dyn SparseSolverPort> {
        let _ = id;
        fw.services(user).unwrap().get_port::<Arc<dyn SparseSolverPort>>("solver").unwrap()
    }

    /// A minimal application component with a uses port for the solver.
    struct App;
    impl Component for App {
        fn set_services(&mut self, services: &Services) -> CcaResult<()> {
            services.register_uses_port("solver", SOLVER_PORT_TYPE)
        }
    }

    #[test]
    fn components_register_with_sidl_validated_framework() {
        let mut fw = Framework::with_registry(cca::sidl::SidlRegistry::lisi());
        let app = fw.instantiate("app", Box::new(App)).unwrap();
        let rksp = fw.instantiate("rksp", Box::new(SolverComponent::rksp())).unwrap();
        let raztec = fw.instantiate("raztec", Box::new(SolverComponent::raztec())).unwrap();
        let rslu = fw.instantiate("rslu", Box::new(SolverComponent::rslu())).unwrap();
        let rmg = fw.instantiate("rmg", Box::new(SolverComponent::rmg())).unwrap();
        for s in [&rksp, &raztec, &rslu, &rmg] {
            fw.connect(&app, "solver", s, SOLVER_PORT).unwrap();
            fw.disconnect(&app, "solver").unwrap();
        }
    }

    #[test]
    fn solver_switching_through_the_framework_solves_with_each_package() {
        // Figure 4 in miniature: one driver, three solver components, the
        // connection rewired between solves.
        let a = rsparse::generate::laplacian_2d(8);
        let n = 64;
        let x_true = rsparse::generate::random_vector(n, 5);
        let b = a.matvec(&x_true).unwrap();
        let out = Universe::run(1, |comm| {
            let mut fw = Framework::with_registry(cca::sidl::SidlRegistry::lisi());
            let app = fw.instantiate("app", Box::new(App)).unwrap();
            let rksp = fw.instantiate("rksp", Box::new(SolverComponent::rksp())).unwrap();
            let raztec = fw.instantiate("raztec", Box::new(SolverComponent::raztec())).unwrap();
            let rslu = fw.instantiate("rslu", Box::new(SolverComponent::rslu())).unwrap();

            let mut errors = Vec::new();
            let mut connected = false;
            for solver_id in [&rksp, &raztec, &rslu] {
                if connected {
                    fw.disconnect(&app, "solver").unwrap();
                }
                fw.connect(&app, "solver", solver_id, SOLVER_PORT).unwrap();
                connected = true;
                let port = fetch_solver(&fw, solver_id, &app);
                port.initialize(comm.dup().unwrap()).unwrap();
                port.set_start_row(0).unwrap();
                port.set_local_rows(n).unwrap();
                port.set_global_cols(n).unwrap();
                port.set("tol", "1e-10").unwrap();
                port.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr).unwrap();
                port.setup_rhs(&b, 1).unwrap();
                let mut x = vec![0.0; n];
                let mut status = [0.0; STATUS_LEN];
                port.solve(&mut x, &mut status).unwrap();
                let err = x.iter().zip(&x_true).fold(0.0f64, |m, (g, e)| m.max((g - e).abs()));
                errors.push(err);
            }
            errors
        });
        for (i, err) in out[0].iter().enumerate() {
            assert!(*err < 1e-6, "solver {i}: err = {err}");
        }
    }

    #[test]
    fn probe_option_switches_mode_and_port_overhead_is_accounted() {
        let a = rsparse::generate::laplacian_2d(6);
        let n = 36;
        let b = a.matvec(&vec![1.0; n]).unwrap();
        let saved = probe::mode();
        let out = Universe::run(1, |comm| {
            let mut fw = Framework::with_registry(cca::sidl::SidlRegistry::lisi());
            let app = fw.instantiate("app", Box::new(App)).unwrap();
            let rksp = fw.instantiate("rksp", Box::new(SolverComponent::rksp())).unwrap();
            fw.connect(&app, "solver", &rksp, SOLVER_PORT).unwrap();
            let port = fetch_solver(&fw, &rksp, &app);

            // The reserved "probe" key flips the global mode; a bad
            // value is rejected with a parameter error.
            port.set("probe", "summary").unwrap();
            assert!(probe::enabled());
            let bad = port.set("probe", "verbose").unwrap_err();
            assert!(matches!(bad, crate::LisiError::BadParameter { .. }));

            let fetches0 = probe::get(probe::Counter::PortFetches);
            let calls0 = probe::get(probe::Counter::PortCalls);
            port.initialize(comm.dup().unwrap()).unwrap();
            port.set_start_row(0).unwrap();
            port.set_local_rows(n).unwrap();
            port.set_global_cols(n).unwrap();
            port.set("tol", "1e-10").unwrap();
            port.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr).unwrap();
            port.setup_rhs(&b, 1).unwrap();
            let mut x = vec![0.0; n];
            let mut status = [0.0; crate::status::STATUS_LEN];
            port.solve(&mut x, &mut status).unwrap();

            let report = probe::local_report();
            // 8 shim methods were crossed above (set ×1 after enabling +
            // the setters + solve); solve() also fetched the matrix-free
            // uses port through Services::get_port.
            assert!(probe::get(probe::Counter::PortCalls) - calls0 >= 8);
            assert!(probe::get(probe::Counter::PortFetches) - fetches0 >= 1);
            let solve_span = report.span("port:solve").expect("solve span recorded");
            assert_eq!(solve_span.calls, 1);
            // The framework's own overhead is the shim's self time, part
            // of the span's total; the adapter's lisi_solve nests inside.
            assert!(solve_span.self_s <= solve_span.total_s + 1e-9);
            assert!(report.span("lisi_setup").is_some());
            let lisi_solve = report.span("lisi_solve").expect("lisi_solve span recorded");
            assert!(lisi_solve.total_s <= solve_span.total_s + 1e-9);
            report.span("port:setup_matrix").map(|s| s.calls)
        });
        probe::set_mode(saved);
        assert_eq!(out[0], Some(1));
    }

    #[test]
    fn dropping_the_framework_releases_the_component() {
        // Regression: the provides-port shim used to hold a strong
        // Services handle, creating a reference cycle that leaked every
        // solver component (and its cached matrices).
        let component = SolverComponent::rksp();
        let weak_adapter = Arc::downgrade(&component.adapter());
        {
            let mut fw = Framework::new();
            fw.instantiate("solver", Box::new(component)).unwrap();
            assert!(weak_adapter.upgrade().is_some(), "alive while framework lives");
        }
        assert!(weak_adapter.upgrade().is_none(), "adapter must be freed when the framework drops");
    }

    #[test]
    fn matrix_free_port_flows_through_the_framework() {
        struct Lap1d {
            n: usize,
        }
        impl MatrixFreePort for Lap1d {
            fn mat_mult(&self, _id: crate::OperatorId, x: &[f64], y: &mut [f64]) -> LisiResult<()> {
                for i in 0..self.n {
                    let mut acc = 2.0 * x[i];
                    if i > 0 {
                        acc -= x[i - 1];
                    }
                    if i + 1 < self.n {
                        acc -= x[i + 1];
                    }
                    y[i] = acc;
                }
                Ok(())
            }
        }
        let n = 16;
        let a = rsparse::generate::laplacian_1d(n);
        let x_true = rsparse::generate::random_vector(n, 2);
        let b = a.matvec(&x_true).unwrap();
        let out = Universe::run(1, |comm| {
            let mut fw = Framework::with_registry(cca::sidl::SidlRegistry::lisi());
            let app = fw.instantiate("app", Box::new(App)).unwrap();
            let mf = fw
                .instantiate("mf", Box::new(MatrixFreeComponent::new(Arc::new(Lap1d { n }))))
                .unwrap();
            let rksp = fw.instantiate("rksp", Box::new(SolverComponent::rksp())).unwrap();
            fw.connect(&app, "solver", &rksp, SOLVER_PORT).unwrap();
            // Wire the solver's matrix-free uses port to the app operator.
            fw.connect(&rksp, MATRIX_FREE_PORT, &mf, MATRIX_FREE_PORT).unwrap();

            let port = fetch_solver(&fw, &rksp, &app);
            port.initialize(comm.dup().unwrap()).unwrap();
            port.set_start_row(0).unwrap();
            port.set_local_rows(n).unwrap();
            port.set_global_cols(n).unwrap();
            port.set_bool("matrix_free", true).unwrap();
            port.set("solver", "cg").unwrap();
            port.set("preconditioner", "none").unwrap();
            port.set_double("tol", 1e-11).unwrap();
            port.setup_rhs(&b, 1).unwrap();
            let mut x = vec![0.0; n];
            let mut status = [0.0; STATUS_LEN];
            port.solve(&mut x, &mut status).unwrap();
            x
        });
        for (g, e) in out[0].iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-7);
        }
    }
}
