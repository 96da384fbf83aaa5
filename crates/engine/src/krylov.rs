//! The iterative (Krylov) linear-solver backend, [`GmresBackend`].

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;
use wavepipe_sparse::{gmres, CscMatrix, GmresOptions, Ilu0, Result, SparseError};

use crate::solver::{DirectLu, SolverBackend, SolverFactory, SolverHandle};

/// Configuration of a [`GmresBackend`], set programmatically (the
/// environment only selects the backend, `WAVEPIPE_SOLVER=gmres`, which runs
/// the defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct GmresConfig {
    /// Restart length `m` of GMRES(m). Default 30.
    pub restart: usize,
    /// Relative residual tolerance `‖b − A·x‖₂ ≤ tol · ‖b‖₂`. Default
    /// `1e-10` — tight enough that Newton convergence behaves as with a
    /// direct solve.
    pub tol: f64,
    /// Total iteration budget per solve; on exhaustion the solve falls back
    /// to direct LU. `0` forces the fallback for *every* solve (the escape
    /// hatch that is pinned bit-identical to [`DirectLu`]). Default 200.
    pub max_iters: usize,
}

impl Default for GmresConfig {
    fn default() -> Self {
        GmresConfig { restart: 30, tol: 1e-10, max_iters: 200 }
    }
}

/// Cumulative counters a Krylov-path backend accumulates across solves.
///
/// The Newton cache snapshots these around each linear solve and charges the
/// delta to [`crate::SimStats`] and the telemetry stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KrylovStats {
    /// Total GMRES iterations (Arnoldi steps) across all solves.
    pub iterations: u64,
    /// Total restart cycles beyond the first, across all solves.
    pub restarts: u64,
    /// Preconditioner (re)builds — ILU(0) factorizations or frozen-LU
    /// adoptions.
    pub precond_refreshes: u64,
    /// Solves completed by the direct-LU fallback (stagnation, budget
    /// exhaustion, non-finite breakdown, or `max_iters = 0`).
    pub fallbacks: u64,
}

/// How the inner [`DirectLu`] is brought up to date when a fallback solve
/// needs it: replay the deferred `factor` (fresh pivot search) or
/// `refactor` (frozen pivots) the Newton cache last requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingSync {
    /// The cache requested a full factorization with a fresh pivot search.
    Fresh,
    /// The cache requested a numeric refactorization replaying frozen pivots.
    Frozen,
}

#[derive(Debug)]
struct State {
    /// Fallback direct solver; its (possibly stale) factors double as the
    /// preferred preconditioner.
    direct: DirectLu,
    /// The current system matrix (kept so `solve` can run matvecs and build
    /// preconditioners; `factored()` means "a matrix is staged").
    matrix: Option<CscMatrix>,
    /// ILU(0) preconditioner of some recent matrix, if in use.
    ilu: Option<Ilu0>,
    /// Whether the frozen direct factors are the active preconditioner.
    use_frozen: bool,
    /// The preconditioner must be rebuilt before the next iterative solve.
    precond_stale: bool,
    /// Deferred direct-LU synchronization (see [`PendingSync`]).
    pending: Option<PendingSync>,
    /// Cumulative counters reported through
    /// [`SolverBackend::krylov_stats`].
    stats: KrylovStats,
}

/// Restarted-GMRES backend with ILU(0)/frozen-LU preconditioning and a
/// bit-exact direct-LU fallback.
///
/// Direct sparse LU is unbeatable on the band-structured matrices of ladder
/// and line circuits, but on 2-D power-grid meshes fill-in grows superlinearly
/// and factorization starts to dominate the transient loop. [`GmresBackend`]
/// plugs restarted GMRES(m) ([`wavepipe_sparse::gmres()`]) into the
/// [`SolverBackend`] seam so grid-scale circuits
/// can trade the factorization for preconditioned matvecs — without touching
/// the Newton iteration, the step controller, or any calling code.
///
/// # Preconditioning
///
/// The backend preconditions with whichever approximate inverse is cheapest
/// and strongest at hand:
///
/// * **Frozen chord-Newton LU factors.** When the inner [`DirectLu`] already
///   holds a factorization (because a previous solve fell back to it), those
///   possibly-stale factors are a near-perfect preconditioner for the nearby
///   Jacobians chord Newton produces — usually converging in one or two
///   iterations.
/// * **ILU(0)** ([`wavepipe_sparse::Ilu0`]) of the current matrix otherwise.
///
/// The preconditioner refreshes lazily on the first solve after a
/// [`factor`](crate::solver::SolverBackend::factor) (a fresh linearization)
/// and is deliberately kept across
/// [`refactor`](crate::solver::SolverBackend::refactor) calls — the same
/// stale-factor reuse bet chord Newton itself makes. The bet is policed:
/// when a solve converges but needs more than a quarter of a restart cycle,
/// the backend eagerly refactors the direct solver on the current matrix so
/// the next solve is preconditioned by fresh factors — otherwise the drift
/// between the frozen factors and the walking Jacobian compounds until
/// every solve exhausts its entire iteration budget *while still
/// converging*, which no fallback would ever catch.
///
/// # Fallback and the bit-identity contract
///
/// GMRES on an ill-conditioned MNA matrix can stagnate. Rather than weaken
/// the engine's convergence guarantees, every unconverged solve **falls back
/// to the inner [`DirectLu`]** and completes exactly as the direct path
/// would. To make that exact, the backend defers direct factorization work
/// until it is actually needed: `factor`/`refactor` calls only record a
/// *pending sync* (fresh pivot search vs. frozen-pivot replay), and the
/// fallback replays it against the inner `DirectLu` before solving. Under
/// *forced* fallback (`max_iters = 0`, the escape hatch) the inner backend
/// therefore sees the exact call sequence the reference [`DirectLu`] would
/// have seen — including chord-Newton solves against frozen factors and the
/// `PivotDegraded` retry — so the waveforms are **bitwise identical** to the
/// direct path. The solver-equivalence suite pins this.
///
/// The reference is a `DirectLu` *that parks no factor sets*. This backend
/// leaves [`SolverBackend::swap_parked`] at the trait's default on purpose:
/// it is being cut down to its fallback role, not grown, so a chord step the
/// plain direct backend takes on factors it had parked (a power grid's step
/// ladder asks for them; the band-structured and digital classes never do)
/// is a refactorization here, as it was for both before there were parked
/// sets. The suite compares the forced fallback with a `DirectLu` behind a
/// wrapper without `swap_parked`, and holds the default backend equal to
/// both on the classes that take no parked hit.
///
/// Known (documented) deviations under fallback: factorization errors such
/// as [`SparseError::Singular`] surface from `solve` rather than from
/// `factor`/`refactor` (the same error value propagates to the same caller),
/// and [`crate::SimStats`] factorization counters can differ on the rare
/// `PivotDegraded` retry path. Only waveform bits are pinned.
pub struct GmresBackend {
    cfg: GmresConfig,
    // `SolverBackend::solve` takes `&self`; the iterative path mutates
    // counters and lazily builds preconditioners, hence interior mutability.
    // Backends are per-solver state (never shared across threads), so a
    // RefCell is sufficient.
    state: RefCell<State>,
}

impl GmresBackend {
    /// A fresh, unfactored backend with the given configuration.
    pub(crate) fn new(cfg: GmresConfig) -> Self {
        GmresBackend {
            cfg,
            state: RefCell::new(State {
                direct: DirectLu::new(),
                matrix: None,
                ilu: None,
                use_frozen: false,
                precond_stale: true,
                pending: None,
                stats: KrylovStats::default(),
            }),
        }
    }

    /// Brings the inner direct solver up to date with the staged matrix,
    /// consuming the pending sync. Mirrors the call sequence the reference
    /// [`DirectLu`] would have seen, including the `PivotDegraded` retry.
    fn sync_direct(st: &mut State) -> Result<()> {
        let m = st.matrix.as_ref().expect("sync_direct requires a staged matrix");
        match st.pending.take() {
            Some(PendingSync::Fresh) => st.direct.factor(m),
            Some(PendingSync::Frozen) => {
                if st.direct.factored() {
                    match st.direct.refactor(m) {
                        Err(SparseError::PivotDegraded { .. }) => st.direct.factor(m),
                        other => other,
                    }
                } else {
                    st.direct.factor(m)
                }
            }
            None => {
                if st.direct.factored() {
                    Ok(())
                } else {
                    st.direct.factor(m)
                }
            }
        }
    }

    /// Completes a solve on the direct path (forced fallback, stagnation,
    /// budget exhaustion, or breakdown).
    fn fallback_solve(st: &mut State, b: &[f64], x: &mut [f64], scratch: &mut [f64]) -> Result<()> {
        st.stats.fallbacks += 1;
        Self::sync_direct(st)?;
        // The sync just brought the direct factors current. If the Krylov
        // path is not already preconditioning with them (first solve after
        // an ILU breakdown — MNA matrices with voltage-source branch rows
        // have structurally zero pivots ILU(0) cannot dodge), mark the
        // preconditioner stale so the next solve adopts the frozen factors
        // instead of falling back forever.
        if !st.use_frozen {
            st.precond_stale = true;
        }
        st.direct.solve(b, x, scratch)
    }

    /// Rebuilds the preconditioner if stale: prefer the direct solver's
    /// frozen factors, else ILU(0) of the staged matrix. An ILU breakdown
    /// (structurally or numerically zero pivot — routine on MNA matrices
    /// with voltage-source branch rows) leaves the backend without a
    /// preconditioner, which routes the solve to the fallback; the fallback
    /// then factors the matrix directly and re-marks the preconditioner
    /// stale, so the *next* solve runs GMRES preconditioned by those
    /// frozen factors.
    fn refresh_precond(st: &mut State) {
        if !st.precond_stale {
            return;
        }
        st.precond_stale = false;
        st.stats.precond_refreshes += 1;
        if st.direct.factored() {
            st.use_frozen = true;
            st.ilu = None;
        } else {
            st.use_frozen = false;
            st.ilu = Ilu0::factor(st.matrix.as_ref().expect("staged matrix")).ok();
        }
    }
}

impl fmt::Debug for GmresBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("GmresBackend")
            .field("cfg", &self.cfg)
            .field("staged", &st.matrix.is_some())
            .field("use_frozen", &st.use_frozen)
            .field("stats", &st.stats)
            .finish()
    }
}

impl SolverBackend for GmresBackend {
    fn factor(&mut self, a: &CscMatrix) -> Result<()> {
        let st = self.state.get_mut();
        st.matrix = Some(a.clone());
        st.pending = Some(PendingSync::Fresh);
        st.precond_stale = true;
        Ok(())
    }

    fn refactor(&mut self, a: &CscMatrix) -> Result<()> {
        let st = self.state.get_mut();
        let Some(m) = st.matrix.as_mut() else {
            return Err(SparseError::DimensionMismatch { expected: a.ncols(), found: 0 });
        };
        if m.col_ptr() == a.col_ptr() && m.row_idx() == a.row_idx() {
            m.values_mut().copy_from_slice(a.values());
        } else {
            st.matrix = Some(a.clone());
        }
        // A deferred fresh factorization subsumes a frozen replay; keep it.
        if st.pending != Some(PendingSync::Fresh) {
            st.pending = Some(PendingSync::Frozen);
        }
        // The preconditioner is deliberately kept stale-but-standing across
        // refactorizations (chord-style reuse).
        Ok(())
    }

    fn solve(&self, b: &[f64], x: &mut [f64], scratch: &mut [f64]) -> Result<()> {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        if st.matrix.is_none() {
            return Err(SparseError::DimensionMismatch { expected: b.len(), found: 0 });
        }
        if self.cfg.max_iters == 0 {
            // Forced fallback: bit-identical to the reference direct path.
            return Self::fallback_solve(st, b, x, scratch);
        }
        Self::refresh_precond(st);
        if st.use_frozen || st.ilu.is_some() {
            let opts = GmresOptions {
                restart: self.cfg.restart,
                tol: self.cfg.tol,
                max_iters: self.cfg.max_iters,
            };
            x.fill(0.0);
            let matrix = st.matrix.as_ref().expect("staged matrix");
            let outcome = if st.use_frozen {
                let lu = st.direct.factors().expect("use_frozen implies factors");
                gmres(matrix, lu, b, x, &opts)
            } else {
                gmres(matrix, st.ilu.as_ref().expect("checked"), b, x, &opts)
            };
            match outcome {
                Ok(out) => {
                    st.stats.iterations += out.iterations as u64;
                    st.stats.restarts += out.restarts as u64;
                    if out.converged {
                        // Converged, but an iteration count creeping past a
                        // quarter restart-cycle means the preconditioner has
                        // drifted well behind the current Jacobian. A solve
                        // that *converges* never reaches the fallback, so
                        // without an eager resync here the drift compounds
                        // until every solve burns its whole budget (a ~100x
                        // slowdown, not a failure — the worst kind). Refresh
                        // the direct factors now; the next solve adopts them
                        // and drops back to a couple of iterations.
                        if out.iterations > self.cfg.restart / 4 + 1 {
                            if Self::sync_direct(st).is_ok() {
                                st.precond_stale = true;
                            } else {
                                // The resync is best-effort: if the current
                                // matrix will not factor, keep iterating on
                                // the old preconditioner (or ILU) and let a
                                // genuine fallback surface the error.
                                st.use_frozen = false;
                                st.ilu = None;
                                st.precond_stale = true;
                            }
                        }
                        return Ok(());
                    }
                    // Stagnation or budget exhaustion: the fallback will
                    // refresh the direct factors, which the next solve then
                    // adopts as a stronger preconditioner.
                    st.precond_stale = true;
                }
                Err(_) => {
                    // Non-finite breakdown; the direct path decides whether
                    // the matrix itself is bad.
                    st.precond_stale = true;
                }
            }
        }
        Self::fallback_solve(st, b, x, scratch)
    }

    fn factored(&self) -> bool {
        self.state.borrow().matrix.is_some()
    }

    fn invalidate(&mut self) {
        let st = self.state.get_mut();
        st.direct.invalidate();
        st.matrix = None;
        st.ilu = None;
        st.use_frozen = false;
        st.precond_stale = true;
        st.pending = None;
    }

    fn clone_box(&self) -> Box<dyn SolverBackend> {
        let st = self.state.borrow();
        Box::new(GmresBackend {
            cfg: self.cfg.clone(),
            state: RefCell::new(State {
                direct: st.direct.clone(),
                matrix: st.matrix.clone(),
                ilu: st.ilu.clone(),
                use_frozen: st.use_frozen,
                precond_stale: st.precond_stale,
                pending: st.pending,
                stats: st.stats,
            }),
        })
    }

    fn krylov_stats(&self) -> Option<KrylovStats> {
        Some(self.state.borrow().stats)
    }
}

#[derive(Debug)]
struct GmresFactory {
    cfg: GmresConfig,
}

impl SolverFactory for GmresFactory {
    fn make(&self) -> Box<dyn SolverBackend> {
        Box::new(GmresBackend::new(self.cfg.clone()))
    }
}

impl SolverHandle {
    /// [`GmresBackend`] instances with the given configuration — the
    /// iterative path behind `WAVEPIPE_SOLVER=gmres` and
    /// [`crate::SimOptions::with_solver`].
    pub fn gmres(cfg: GmresConfig) -> SolverHandle {
        SolverHandle::new(Arc::new(GmresFactory { cfg }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe_sparse::CooMatrix;

    /// A 2-D grid Laplacian shifted to be strictly diagonally dominant —
    /// the power-grid-shaped case GMRES exists for.
    fn grid(nx: usize, ny: usize, scale: f64) -> CscMatrix {
        let id = |i: usize, j: usize| i * ny + j;
        let mut t = CooMatrix::new(nx * ny, nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                t.push(id(i, j), id(i, j), 4.5 * scale).unwrap();
                if i + 1 < nx {
                    t.push(id(i, j), id(i + 1, j), -scale).unwrap();
                    t.push(id(i + 1, j), id(i, j), -scale).unwrap();
                }
                if j + 1 < ny {
                    t.push(id(i, j), id(i, j + 1), -scale).unwrap();
                    t.push(id(i, j + 1), id(i, j), -scale).unwrap();
                }
            }
        }
        t.to_csc()
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 7) as f64) - 3.0).collect()
    }

    #[test]
    fn gmres_backend_solves_to_direct_accuracy() {
        let a = grid(6, 6, 1.0);
        let b = rhs(36);
        let mut backend = GmresBackend::new(GmresConfig::default());
        backend.factor(&a).unwrap();
        let mut x = vec![0.0; 36];
        let mut scratch = vec![0.0; 36];
        backend.solve(&b, &mut x, &mut scratch).unwrap();
        let mut r = vec![0.0; 36];
        a.residual_into(&x, &b, &mut r).unwrap();
        let rnorm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rnorm <= 1e-9 * bnorm, "relative residual too large: {}", rnorm / bnorm);
        let stats = SolverBackend::krylov_stats(&backend).unwrap();
        assert!(stats.iterations > 0, "iterative path never ran");
        assert_eq!(stats.fallbacks, 0, "well-conditioned grid should not fall back");
        assert_eq!(stats.precond_refreshes, 1);
    }

    #[test]
    fn forced_fallback_is_bitwise_identical_to_direct_lu() {
        // max_iters = 0 forces every solve onto the inner DirectLu; replay a
        // factor/refactor/solve protocol (including chord-style repeated
        // solves on stale factors) against both backends and require bitwise
        // equality.
        let cfg = GmresConfig { max_iters: 0, ..GmresConfig::default() };
        let mut iterative = GmresBackend::new(cfg);
        let mut reference = DirectLu::new();
        let b = rhs(36);
        let mut xi = vec![0.0; 36];
        let mut xr = vec![0.0; 36];
        let mut s = vec![0.0; 36];
        for (step, scale) in [1.0, 1.5, 0.5, 2.0].into_iter().enumerate() {
            let a = grid(6, 6, scale);
            if step == 0 {
                iterative.factor(&a).unwrap();
                reference.factor(&a).unwrap();
            } else {
                iterative.refactor(&a).unwrap();
                reference.refactor(&a).unwrap();
            }
            // Newton-style repeated solves against the same factors.
            for _ in 0..2 {
                iterative.solve(&b, &mut xi, &mut s).unwrap();
                reference.solve(&b, &mut xr, &mut s).unwrap();
                assert_eq!(xi, xr, "forced fallback diverged at step {step}");
            }
        }
        let stats = SolverBackend::krylov_stats(&iterative).unwrap();
        assert_eq!(stats.iterations, 0);
        assert_eq!(stats.fallbacks, 8);
    }

    #[test]
    fn frozen_direct_factors_become_the_preconditioner() {
        // First solve falls back (budget too small for ILU alone to land
        // within one iteration), refreshing the direct factors; the next
        // factor()+solve() adopts them and converges immediately.
        let a = grid(5, 5, 1.0);
        let b = rhs(25);
        let cfg = GmresConfig { max_iters: 0, ..GmresConfig::default() };
        let mut backend = GmresBackend::new(cfg);
        backend.factor(&a).unwrap();
        let mut x = vec![0.0; 25];
        let mut s = vec![0.0; 25];
        backend.solve(&b, &mut x, &mut s).unwrap();
        assert_eq!(SolverBackend::krylov_stats(&backend).unwrap().fallbacks, 1);
        // Re-enable the iterative path with the factors now frozen (tests
        // live in the same module, so the private config is reachable).
        backend.cfg = GmresConfig::default();
        let a2 = grid(5, 5, 1.0001); // nearby Jacobian, chord-style
        backend.factor(&a2).unwrap();
        backend.solve(&b, &mut x, &mut s).unwrap();
        let stats = SolverBackend::krylov_stats(&backend).unwrap();
        assert_eq!(stats.fallbacks, 1, "frozen-LU preconditioning should converge iteratively");
        assert!(
            stats.iterations <= 3,
            "near-exact preconditioner should converge almost immediately, took {}",
            stats.iterations
        );
        let mut r = vec![0.0; 25];
        a2.residual_into(&x, &b, &mut r).unwrap();
        let rnorm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rnorm <= 1e-8, "residual {rnorm}");
    }

    #[test]
    fn stagnation_falls_back_and_still_solves() {
        // A tiny budget cannot converge from an ILU(0) start on this grid;
        // the solve must still succeed via the direct fallback.
        let a = grid(6, 6, 1.0);
        let b = rhs(36);
        let cfg = GmresConfig { max_iters: 1, restart: 1, tol: 1e-14 };
        let mut backend = GmresBackend::new(cfg);
        backend.factor(&a).unwrap();
        let mut x = vec![0.0; 36];
        let mut s = vec![0.0; 36];
        backend.solve(&b, &mut x, &mut s).unwrap();
        let stats = SolverBackend::krylov_stats(&backend).unwrap();
        assert_eq!(stats.fallbacks, 1);
        let mut r = vec![0.0; 36];
        a.residual_into(&x, &b, &mut r).unwrap();
        let rnorm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rnorm <= 1e-8, "fallback solve inaccurate: {rnorm}");
    }

    #[test]
    fn protocol_errors_match_direct_backend() {
        let mut backend = GmresBackend::new(GmresConfig::default());
        let b = rhs(4);
        let mut x = vec![0.0; 4];
        let mut s = vec![0.0; 4];
        assert!(!backend.factored());
        assert!(backend.solve(&b, &mut x, &mut s).is_err());
        assert!(backend.refactor(&grid(2, 2, 1.0)).is_err());
        backend.factor(&grid(2, 2, 1.0)).unwrap();
        assert!(backend.factored());
        backend.invalidate();
        assert!(!backend.factored());
        assert_eq!(SolverBackend::krylov_stats(&backend).unwrap(), KrylovStats::default());
    }

    #[test]
    fn clone_box_preserves_iterative_state() {
        let a = grid(4, 4, 1.0);
        let b = rhs(16);
        let mut backend = GmresBackend::new(GmresConfig::default());
        backend.factor(&a).unwrap();
        let mut x1 = vec![0.0; 16];
        let mut s = vec![0.0; 16];
        backend.solve(&b, &mut x1, &mut s).unwrap();
        let cloned = backend.clone_box();
        let mut x2 = vec![0.0; 16];
        cloned.solve(&b, &mut x2, &mut s).unwrap();
        assert_eq!(x1, x2, "clone must reproduce the same solve bitwise");
        assert_eq!(cloned.krylov_stats().unwrap().fallbacks, 0);
    }

    #[test]
    fn handle_plumbing() {
        let h = SolverHandle::gmres(GmresConfig::default());
        assert!(!h.is_direct());
        let made = h.make();
        assert!(!made.factored());
        assert!(made.krylov_stats().is_some());
        assert!(SolverHandle::direct().make().krylov_stats().is_none());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = grid(5, 5, 1.0);
        let b = rhs(25);
        let run = || {
            let mut backend = GmresBackend::new(GmresConfig::default());
            backend.factor(&a).unwrap();
            let mut x = vec![0.0; 25];
            let mut s = vec![0.0; 25];
            backend.solve(&b, &mut x, &mut s).unwrap();
            x
        };
        assert_eq!(run(), run());
    }
}
