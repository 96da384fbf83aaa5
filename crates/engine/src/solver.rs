//! Pluggable linear-solver backends behind the Newton loop.
//!
//! Historically [`crate::newton::LinearCache`] called [`SparseLu`] directly;
//! that coupling is now behind the [`SolverBackend`] trait — the seam that
//! admits the iterative backend ([`crate::GmresBackend`]) and a pipelined run's
//! plan hand-off without touching the Newton iteration itself.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use wavepipe_sparse::ordering::min_degree;
use wavepipe_sparse::{
    CscMatrix, LuOptions, Permutation, Result, SharedPlan, SparseError, SparseLu,
};

/// A linear-solver backend for the Newton loop: numeric factorization and
/// triangular solves over a fixed sparsity pattern.
///
/// The Newton cache drives a backend through a strict protocol:
///
/// 1. [`factor`](SolverBackend::factor) — full factorization with a fresh
///    pivot search;
/// 2. [`refactor`](SolverBackend::refactor) — numeric re-factorization
///    replaying the frozen pivot order of the last `factor`, failing with
///    [`SparseError::PivotDegraded`] when that order went numerically bad
///    (the caller then falls back to `factor`);
/// 3. [`solve`](SolverBackend::solve) — triangular solves against the most
///    recent successful factorization.
///
/// # Determinism contract
///
/// Every backend shipped by this crate is **bit-deterministic**: given the
/// same sequence of `factor`/`refactor`/`solve` calls on the same matrices,
/// it produces bitwise-identical solution vectors on every run. [`DirectLu`]
/// is additionally pinned to be bit-identical to the historical direct
/// `SparseLu` calls (same ordering, same pivoting, same triangular solves),
/// so swapping the seam in changed no waveform anywhere. Every `DirectLu`
/// orders by [`wavepipe_sparse::ordering::min_degree`], a pure function of
/// the matrix *pattern*. The one hand-off between backends is a pipelined
/// run's: it gives its worker lanes the coordinating lane's whole plan
/// ([`SolverHandle::adopting`]); a lane keeps it only where a check proves its
/// own pivot search would have rebuilt it, in which case its factors are the
/// ones that search would have computed, bit for bit (see
/// [`SparseLu::adopt`]). Custom backends that cannot honour bit-determinism
/// must say so in their documentation: WavePipe's accuracy-equivalence tests
/// pin the default paths bitwise.
pub trait SolverBackend: fmt::Debug + Send {
    /// Full numeric factorization of `a` with a fresh pivot search.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures ([`SparseError::Singular`],
    /// non-finite entries, shape mismatches). After an error the backend is
    /// unfactored.
    fn factor(&mut self, a: &CscMatrix) -> Result<()>;

    /// Numeric refactorization of `a` replaying the frozen pivot order.
    ///
    /// # Errors
    ///
    /// [`SparseError::PivotDegraded`] when the frozen order lost stability —
    /// the caller should retry via [`SolverBackend::factor`]. Any other
    /// error is terminal for this matrix.
    fn refactor(&mut self, a: &CscMatrix) -> Result<()>;

    /// Solves `A x = b` against the current factors using `scratch` as
    /// intermediate storage.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] when no factorization is present
    /// or the vector lengths disagree with it.
    fn solve(&self, b: &[f64], x: &mut [f64], scratch: &mut [f64]) -> Result<()>;

    /// Whether a usable factorization is currently held.
    fn factored(&self) -> bool;

    /// Drops the current factorization (forces a fresh pivot search next).
    fn invalidate(&mut self);

    /// Clones the backend, factors and all (backends are per-solver state;
    /// WavePipe lanes clone their point solvers).
    fn clone_box(&self) -> Box<dyn SolverBackend>;

    /// Cumulative Krylov statistics, for backends with an iterative path.
    ///
    /// Direct backends return `None` (the default); the Newton cache uses
    /// the before/after delta of this snapshot to charge iteration counts,
    /// preconditioner refreshes, and direct-solve fallbacks to
    /// [`crate::SimStats`] and telemetry.
    fn krylov_stats(&self) -> Option<crate::krylov::KrylovStats> {
        None
    }

    /// Trades the current numeric factors with the set parked in `slot`
    /// over the same pivot order and elimination pattern (see
    /// [`SparseLu::swap_parked`]): what was current is parked intact and
    /// comes back with the next swap naming that slot; what becomes current
    /// holds the factors parked there earlier, or none before the first
    /// `refactor` into it. A fresh [`factor`](SolverBackend::factor) and
    /// [`invalidate`](SolverBackend::invalidate) drop every parked set.
    /// Returns `false`, having done nothing, when the backend is unfactored
    /// or keeps no such sets (the default) — the Newton cache then runs as if
    /// there were nothing to park in.
    fn swap_parked(&mut self, _slot: usize) -> bool {
        false
    }

    /// The plan of the current factorization, for another backend to adopt
    /// ([`SolverHandle::adopting`]); `None` (the default) when there is none
    /// or the backend has no plan to hand out.
    fn shared_plan(&self) -> Option<SharedPlan> {
        None
    }

    /// Whether the next [`refactor`](SolverBackend::refactor) is the first
    /// over a plan adopted from another backend, the one that checks its
    /// pivots (`false`, the default, for a backend that adopts none).
    fn adopts_plan(&self) -> bool {
        false
    }

    /// How many [`solve`](SolverBackend::solve)s one
    /// [`refactor`](SolverBackend::refactor) of the current factors costs
    /// (see [`SparseLu::refactor_weight`]). The Newton cache lets a key take
    /// parked factors of a *near* key, not only its twin's, where this is
    /// high enough; 0, the default, for a backend without factors or whose
    /// refactorizations cost no such ratio, takes twins only.
    fn refactor_weight(&self) -> f64 {
        0.0
    }
}

/// The solve-layer error for operating on an unfactored backend.
fn unfactored(n: usize) -> SparseError {
    SparseError::DimensionMismatch { expected: n, found: 0 }
}

/// The direct backend: one [`SparseLu`] per solver, exactly as the Newton
/// loop historically used it. Bit-identical to the pre-trait direct calls —
/// `factor` runs threshold pivoting under the minimum-degree ordering,
/// `refactor` replays frozen pivots KLU-style.
///
/// The ordering is a pure function of the matrix pattern, so it is worked out
/// once: a backend keeps the permutation of its first fresh factorization for
/// later ones of the same pattern (a `PivotDegraded` re-pivot searches
/// pivots again, not the ordering).
///
/// A backend can also be handed a whole plan — ordering, pivot sequence and
/// the index arrays of `L` and `U` — that another backend's fresh
/// factorization built ([`SolverHandle::adopting`]): it counts as factored, and
/// its first `refactor` adopts the plan under the pivot check of
/// [`SparseLu::adopt`], failing with [`SparseError::PivotDegraded`] where the
/// matrix would have pivoted otherwise, so that the caller's usual answer —
/// a fresh `factor` — pays the private factorization it always paid.
#[derive(Debug, Default, Clone)]
pub struct DirectLu {
    lu: Option<SparseLu>,
    /// The permutation fresh factorizations go through: a handed plan's, or
    /// kept from this backend's first one.
    ordering: Option<Arc<Permutation>>,
    /// Pattern of the matrix a kept ordering was derived from — its column
    /// pointers and a hash of its row indices ([`rows_hash`]); `None` for a
    /// handed plan's, whose owner vouches for the pattern.
    derived_for: Option<(Vec<usize>, u64)>,
    /// A plan handed in and not adopted yet: the next `refactor` adopts it.
    plan: Option<SharedPlan>,
}

/// SipHash (fixed keys) of a matrix's row indices: what a kept ordering
/// remembers of them, at 8 bytes instead of 8 per stored entry.
fn rows_hash(a: &CscMatrix) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    a.row_idx().hash(&mut h);
    h.finish()
}

impl DirectLu {
    /// A fresh, unfactored backend with default [`LuOptions`].
    pub fn new() -> Self {
        DirectLu::default()
    }

    /// A backend that adopts `plan` at its first `refactor` (see the type
    /// docs) and factors afresh through the plan's ordering.
    pub(crate) fn adopting(plan: SharedPlan) -> Self {
        DirectLu {
            ordering: Some(Arc::new(plan.ordering().clone())),
            plan: Some(plan),
            ..DirectLu::default()
        }
    }

    /// The current factorization, if one is held.
    ///
    /// [`crate::krylov::GmresBackend`] uses this to reuse frozen
    /// chord-Newton LU factors as a Krylov preconditioner (a complete —
    /// possibly stale — factorization satisfies
    /// [`wavepipe_sparse::Preconditioner`]).
    pub(crate) fn factors(&self) -> Option<&SparseLu> {
        self.lu.as_ref()
    }
}

impl SolverBackend for DirectLu {
    fn factor(&mut self, a: &CscMatrix) -> Result<()> {
        self.lu = None;
        self.plan = None;
        // Fresh factorizations are rare: walking the whole pattern is free.
        if self
            .derived_for
            .as_ref()
            .is_some_and(|(cp, rows)| cp != a.col_ptr() || *rows != rows_hash(a))
        {
            self.ordering = None;
        }
        let q = match &self.ordering {
            Some(q) => Permutation::clone(q),
            None => {
                let q = min_degree(a)?;
                self.derived_for = Some((a.col_ptr().to_vec(), rows_hash(a)));
                self.ordering = Some(Arc::new(q.clone()));
                q
            }
        };
        self.lu = Some(SparseLu::factor_with_ordering(a, &LuOptions::default(), q)?);
        Ok(())
    }

    fn refactor(&mut self, a: &CscMatrix) -> Result<()> {
        if let Some(plan) = self.plan.take() {
            self.lu = Some(SparseLu::adopt(&plan, &LuOptions::default()));
        }
        let lu = self.lu.as_mut().ok_or_else(|| unfactored(a.ncols()))?;
        lu.refactor(a)
    }

    fn solve(&self, b: &[f64], x: &mut [f64], scratch: &mut [f64]) -> Result<()> {
        let lu = self.lu.as_ref().ok_or_else(|| unfactored(b.len()))?;
        lu.solve_with_scratch(b, x, scratch)
    }

    fn factored(&self) -> bool {
        self.lu.is_some() || self.plan.is_some()
    }

    fn invalidate(&mut self) {
        self.lu = None;
        self.plan = None;
    }

    fn clone_box(&self) -> Box<dyn SolverBackend> {
        Box::new(self.clone())
    }

    fn swap_parked(&mut self, slot: usize) -> bool {
        self.lu.as_mut().map(|lu| lu.swap_parked(slot)).is_some()
    }

    fn shared_plan(&self) -> Option<SharedPlan> {
        self.lu.as_ref().map(SparseLu::shared_plan)
    }

    fn adopts_plan(&self) -> bool {
        self.plan.is_some()
    }

    fn refactor_weight(&self) -> f64 {
        self.lu.as_ref().map_or(0.0, SparseLu::refactor_weight)
    }
}

/// Factory for [`SolverBackend`] instances, shareable across solver threads.
pub trait SolverFactory: fmt::Debug + Send + Sync {
    /// Creates one fresh, unfactored backend.
    fn make(&self) -> Box<dyn SolverBackend>;
}

/// A configured `DirectLu` is its own factory: `make` hands out unfactored
/// copies carrying the same plan to adopt.
impl SolverFactory for DirectLu {
    fn make(&self) -> Box<dyn SolverBackend> {
        Box::new(DirectLu { lu: None, ..self.clone() })
    }
}

/// Handle selecting the linear-solver backend for an analysis, carried by
/// [`crate::SimOptions`] like the probe/metrics/fault handles.
///
/// The default handle builds [`DirectLu`] — the classic serial behaviour.
/// [`SolverHandle::adopting`] builds `DirectLu` instances handed one plan;
/// [`SolverHandle::new`] accepts any custom factory.
/// Equality is identity-based (two handles are equal when they
/// share the same factory allocation), mirroring the other handles on
/// `SimOptions`.
#[derive(Clone, Default)]
pub struct SolverHandle {
    factory: Option<Arc<dyn SolverFactory>>,
}

impl SolverHandle {
    /// The default backend selection: a fresh [`DirectLu`] per solver.
    pub fn direct() -> Self {
        SolverHandle { factory: None }
    }

    /// Backends that each adopt `plan` at their first refactorization (what
    /// a pipelined run gives its worker lanes, `plan` being its coordinating
    /// lane's): each is a [`DirectLu`] that counts as factored, and whose
    /// first `refactor` adopts the plan under the pivot check of
    /// [`SparseLu::adopt`].
    pub fn adopting(plan: SharedPlan) -> Self {
        SolverHandle::new(Arc::new(DirectLu::adopting(plan)))
    }

    /// A handle around a custom factory.
    pub fn new(factory: Arc<dyn SolverFactory>) -> Self {
        SolverHandle { factory: Some(factory) }
    }

    /// Builds one fresh backend according to this handle's selection.
    pub(crate) fn make(&self) -> Box<dyn SolverBackend> {
        match &self.factory {
            None => Box::new(DirectLu::new()),
            Some(f) => f.make(),
        }
    }

    /// Whether this is the default (direct) selection.
    pub fn is_direct(&self) -> bool {
        self.factory.is_none()
    }
}

impl fmt::Debug for SolverHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.factory {
            None => f.write_str("SolverHandle(direct)"),
            Some(inner) => write!(f, "SolverHandle({inner:?})"),
        }
    }
}

impl PartialEq for SolverHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.factory, &other.factory) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe_sparse::CooMatrix;

    fn small_matrix(scale: f64) -> CscMatrix {
        // A 4x4 asymmetric pattern with enough structure for the orderings
        // to do something non-trivial.
        let mut t = CooMatrix::new(4, 4);
        for i in 0..4 {
            t.push(i, i, 4.0 * scale).unwrap();
        }
        t.push(0, 1, -scale).unwrap();
        t.push(1, 0, -2.0 * scale).unwrap();
        t.push(1, 2, -scale).unwrap();
        t.push(2, 3, -1.5 * scale).unwrap();
        t.push(3, 0, -0.5 * scale).unwrap();
        t.to_csc()
    }

    fn solve_through(backend: &mut dyn SolverBackend, a: &CscMatrix, b: &[f64]) -> Vec<f64> {
        backend.factor(a).unwrap();
        let mut x = vec![0.0; b.len()];
        let mut scratch = vec![0.0; b.len()];
        backend.solve(b, &mut x, &mut scratch).unwrap();
        x
    }

    #[test]
    fn direct_lu_matches_raw_sparse_lu_bitwise() {
        let a = small_matrix(1.0);
        let b = [1.0, -2.0, 0.5, 3.0];
        let raw = SparseLu::factor(&a, &LuOptions::default()).unwrap().solve(&b).unwrap();
        let mut backend = DirectLu::new();
        let x = solve_through(&mut backend, &a, &b);
        assert_eq!(x, raw, "DirectLu must be bit-identical to direct SparseLu use");
    }

    #[test]
    fn kept_ordering_serves_re_pivots_and_yields_to_a_new_pattern() {
        let b = [1.0, -2.0, 0.5, 3.0];
        let mut backend = DirectLu::new();
        // Same pattern, new values: the kept permutation is the one a fresh
        // backend would derive.
        for scale in [1.0, 3.5] {
            let a = small_matrix(scale);
            let x = solve_through(&mut backend, &a, &b);
            assert_eq!(x, solve_through(&mut DirectLu::new(), &a, &b));
        }
        // Other column pointers: the kept permutation must not be reused.
        let mut t = CooMatrix::new(4, 4);
        for i in 0..4 {
            t.push(i, i, 4.0).unwrap();
            t.push(i, 3, 1.0).unwrap();
            t.push(3, i, 1.0).unwrap();
        }
        let hub = t.to_csc();
        assert_ne!(hub.col_ptr(), small_matrix(1.0).col_ptr());
        let x = solve_through(&mut backend, &hub, &b);
        assert_eq!(x, solve_through(&mut DirectLu::new(), &hub, &b));
        assert_eq!(backend.ordering.as_deref(), Some(&min_degree(&hub).unwrap()));
    }

    #[test]
    fn kept_ordering_yields_to_other_rows_under_the_same_column_pointers() {
        // Two patterns with the same column counts and different rows: the
        // dense row sits on unknown 0 in one and on unknown 3 in the other,
        // and minimum degree orders them differently.
        let hub = |h: usize| {
            let mut t = CooMatrix::new(4, 4);
            for i in 0..4 {
                t.push(i, i, 3.0 + 0.7 * i as f64).unwrap();
            }
            // Column c holds two entries, or four when it is c = 1.
            for r in (0..4).filter(|&r| r != 1) {
                t.push(r, 1, 0.3 + 0.11 * r as f64).unwrap();
            }
            for c in (0..4).filter(|&c| c != 1 && c != h) {
                t.push(h, c, -0.9 + 0.13 * c as f64).unwrap();
            }
            t.push((h + 2) % 4, h, 0.45).unwrap();
            t.to_csc()
        };
        let (a, b) = (hub(0), hub(3));
        assert_eq!(a.col_ptr(), b.col_ptr());
        assert_ne!(a.row_idx(), b.row_idx());
        assert_ne!(min_degree(&a).unwrap(), min_degree(&b).unwrap());
        let rhs = [1.0, -2.0, 0.5, 3.0];
        let mut reused = DirectLu::new();
        for m in [&a, &b, &a] {
            let x = solve_through(&mut reused, m, &rhs);
            assert_eq!(x, solve_through(&mut DirectLu::new(), m, &rhs));
            assert_eq!(reused.ordering.as_deref(), Some(&min_degree(m).unwrap()));
        }
    }

    #[test]
    fn swap_parked_needs_factors_and_parks_them_intact() {
        let b = [0.5, 1.5, -1.0, 2.0];
        let mut backend = DirectLu::new();
        assert!(!backend.swap_parked(0), "nothing to park before a factorization");
        let x1 = solve_through(&mut backend, &small_matrix(1.0), &b);
        let (mut x, mut scratch) = (vec![0.0; 4], vec![0.0; 4]);
        // One set of factors left in every slot, then each asked for again.
        let scales = [2.5, 0.75, 4.0];
        let mut parked = vec![x1];
        for (slot, &scale) in scales.iter().enumerate() {
            assert!(backend.swap_parked(slot));
            backend.refactor(&small_matrix(scale)).unwrap();
            backend.solve(&b, &mut x, &mut scratch).unwrap();
            parked.push(x.clone());
        }
        // Slot `s` holds what was current when it was named: the factors of
        // the matrix before `scales[s]`. Taking them out leaves the current
        // ones (of `scales[2]`) behind, so they are swapped back each time.
        for (slot, left) in parked.iter().take(scales.len()).enumerate() {
            assert!(backend.swap_parked(slot));
            backend.solve(&b, &mut x, &mut scratch).unwrap();
            assert_eq!(&x, left, "the factors parked in slot {slot} came back changed");
            assert!(backend.swap_parked(slot));
        }
        backend.invalidate();
        assert!(!backend.swap_parked(0));
    }

    /// Column 0 holds an explicit zero on its diagonal and `below` in rows 1
    /// and 2, which pivoting chooses between (an MNA branch column).
    fn branch_column(below: [f64; 2]) -> CscMatrix {
        let mut t = CooMatrix::new(3, 3);
        for (r, c, v) in [(0, 0, 0.0), (1, 0, below[0]), (2, 0, below[1]), (0, 1, 1.0)] {
            t.push(r, c, v).unwrap();
        }
        t.push(1, 2, 1.0).unwrap();
        t.push(2, 2, 1.0).unwrap();
        t.to_csc()
    }

    #[test]
    fn a_handed_plan_is_kept_where_its_pivots_hold_and_repivoted_where_not() {
        // The owner factors in the natural order, so the test decides which
        // column is the branch column.
        let natural = |a: &CscMatrix| {
            SparseLu::factor_with_ordering(a, &LuOptions::default(), Permutation::identity(3))
                .unwrap()
        };
        let handle = SolverHandle::adopting(natural(&branch_column([2.0, 1.0])).shared_plan());
        let b = [1.0, -2.0, 0.5];
        // Row 1 still the largest; row 2 the largest; a tie.
        for (below, kept) in [([3.0, -1.5], true), ([1.0, 3.0], false), ([1.0, -1.0], false)] {
            let a = branch_column(below);
            let mut lane = handle.make();
            assert!(lane.factored() && lane.adopts_plan());
            // What the Newton cache does with a backend that reports factors.
            match lane.refactor(&a) {
                Ok(()) => assert!(kept, "{below:?} kept a plan it should have refused"),
                Err(SparseError::PivotDegraded { .. }) => {
                    assert!(!kept, "{below:?} refused a plan it could keep");
                    lane.factor(&a).unwrap();
                }
                Err(e) => panic!("{below:?}: {e}"),
            }
            assert!(!lane.adopts_plan());
            // Either way the lane holds the factors of its own pivot search
            // in the plan's ordering, bit for bit.
            let (mut x, mut scratch) = (vec![0.0; 3], vec![0.0; 3]);
            lane.solve(&b, &mut x, &mut scratch).unwrap();
            let own = natural(&a).solve(&b).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x), bits(&own), "{below:?}");
        }
        // Dropping the factors drops the plan too: the next pass pivots.
        let mut lane = handle.make();
        lane.invalidate();
        assert!(!lane.factored() && !lane.adopts_plan());
    }

    #[test]
    fn refactor_and_invalidate_protocol() {
        let a = small_matrix(1.0);
        let b = [1.0, 0.0, 0.0, 0.0];
        let mut backend = DirectLu::new();
        assert!(!backend.factored());
        let mut x = vec![0.0; 4];
        let mut scratch = vec![0.0; 4];
        // Solving or refactoring before any factorization is an error, not a panic.
        assert!(backend.solve(&b, &mut x, &mut scratch).is_err());
        assert!(backend.refactor(&a).is_err());
        backend.factor(&a).unwrap();
        assert!(backend.factored());
        // Refactor against new values over the same pattern.
        let a2 = small_matrix(2.0);
        backend.refactor(&a2).unwrap();
        backend.solve(&b, &mut x, &mut scratch).unwrap();
        let direct = SparseLu::factor(&a2, &LuOptions::default()).unwrap().solve(&b).unwrap();
        // Frozen-pivot refactor of a uniformly scaled matrix keeps the same
        // pivot sequence, so even this path is bitwise reproducible.
        assert_eq!(x, direct);
        backend.invalidate();
        assert!(!backend.factored());
    }

    #[test]
    fn handle_equality_is_identity_based() {
        assert_eq!(SolverHandle::direct(), SolverHandle::direct());
        assert_eq!(SolverHandle::default(), SolverHandle::direct());
        let plan = || {
            let mut owner = DirectLu::new();
            owner.factor(&small_matrix(1.0)).unwrap();
            owner.shared_plan().expect("factored")
        };
        let h = SolverHandle::adopting(plan());
        assert_eq!(h, h.clone());
        assert_ne!(h, SolverHandle::adopting(plan()));
        assert_ne!(h, SolverHandle::direct());
        assert!(SolverHandle::direct().is_direct());
        assert!(!h.is_direct());
    }

    #[test]
    fn clone_box_preserves_factors() {
        let a = small_matrix(1.0);
        let b = [0.5, 1.5, -1.0, 2.0];
        let mut backend = DirectLu::new();
        backend.factor(&a).unwrap();
        let cloned = backend.clone_box();
        let mut x1 = vec![0.0; 4];
        let mut x2 = vec![0.0; 4];
        let mut scratch = vec![0.0; 4];
        backend.solve(&b, &mut x1, &mut scratch).unwrap();
        cloned.solve(&b, &mut x2, &mut scratch).unwrap();
        assert_eq!(x1, x2);
    }
}
