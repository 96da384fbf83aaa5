//! Shared by the integration tests that need a direct backend with nowhere
//! to park a factor set.

use std::sync::Arc;
use wavepipe::engine::{DirectLu, SolverBackend, SolverFactory, SolverHandle};
use wavepipe::sparse::CscMatrix;

/// `DirectLu` behind the trait's default `swap_parked`: the Newton cache as
/// it was before it had anywhere to park a factor set, and the direct backend
/// the GMRES fallback wraps.
#[derive(Debug, Clone, Default)]
struct NoParking(DirectLu);

impl SolverBackend for NoParking {
    fn factor(&mut self, a: &CscMatrix) -> wavepipe::sparse::Result<()> {
        self.0.factor(a)
    }
    fn refactor(&mut self, a: &CscMatrix) -> wavepipe::sparse::Result<()> {
        self.0.refactor(a)
    }
    fn solve(&self, b: &[f64], x: &mut [f64], s: &mut [f64]) -> wavepipe::sparse::Result<()> {
        self.0.solve(b, x, s)
    }
    fn factored(&self) -> bool {
        self.0.factored()
    }
    fn invalidate(&mut self) {
        self.0.invalidate();
    }
    fn clone_box(&self) -> Box<dyn SolverBackend> {
        Box::new(self.clone())
    }
}

impl SolverFactory for NoParking {
    fn make(&self) -> Box<dyn SolverBackend> {
        Box::new(NoParking::default())
    }
}

/// A handle making [`NoParking`] backends.
pub fn no_parking() -> SolverHandle {
    SolverHandle::new(Arc::new(NoParking::default()))
}
