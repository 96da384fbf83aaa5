//! Newton–Raphson solution of the stamped MNA system.

use crate::error::Result;
use crate::mna::{MnaSystem, MnaWorkspace, StampInput};
use crate::options::SimOptions;
use crate::solver::{DirectLu, SolverBackend};
use crate::stats::SimStats;
use crate::stepkey::{KeyTurn, KeyedSlots, LinKey};
use std::time::Instant;
use wavepipe_sparse::vector::{all_finite, norm_inf};
use wavepipe_sparse::{CscMatrix, SharedPlan, SparseError};
use wavepipe_telemetry::{EventKind, FactorLayer};

/// Chord contraction gate: a reused-Jacobian update is accepted only if
/// `‖dx‖` shrank to at most this fraction of the previous iteration's. The
/// classic modified-Newton choice; E11 measured chord reuse at this gate (a
/// third to two thirds of linear solves reuse a factorization), and no other
/// value was swept.
const CHORD_THETA: f64 = 0.5;

/// Absolute current tolerance (SPICE's `ABSTOL`), amperes: the convergence
/// floor of every branch-current unknown.
const ABSTOL: f64 = 1e-12;

/// Cached linear-solver state: the solver backend holding the current
/// factorization (reused across stamps with the fixed pattern) and solve
/// scratch buffers, plus the chord/modified-Newton bookkeeping that decides
/// when the factors may be reused as-is.
///
/// All factor/refactor/solve traffic goes through the [`SolverBackend`]
/// seam — the Newton loop itself never touches `SparseLu` directly. With
/// the default [`DirectLu`] backend the behaviour (and every waveform bit)
/// is identical to the historical direct calls; see
/// [`SolverBackend`] for the determinism contract.
#[derive(Debug)]
pub struct LinearCache {
    backend: Box<dyn SolverBackend>,
    x_new: Vec<f64>,
    scratch: Vec<f64>,
    resid: Vec<f64>,
    /// Row-sum buffer of the backward-error check's matrix norm.
    rowsum: Vec<f64>,
    /// Linear-stamp keys the backend's active and parked factors were
    /// computed under.
    keys: KeyedSlots,
    /// Newton update norm of the previous iterate in the current solve, for
    /// the contraction-rate gate. Reset at the start of every solve.
    last_dx: Option<f64>,
}

impl Default for LinearCache {
    fn default() -> Self {
        LinearCache {
            backend: Box::new(DirectLu::new()),
            x_new: Vec::new(),
            scratch: Vec::new(),
            resid: Vec::new(),
            rowsum: Vec::new(),
            keys: KeyedSlots::default(),
            last_dx: None,
        }
    }
}

impl Clone for LinearCache {
    fn clone(&self) -> Self {
        LinearCache {
            backend: self.backend.clone_box(),
            x_new: self.x_new.clone(),
            scratch: self.scratch.clone(),
            resid: self.resid.clone(),
            rowsum: Vec::new(),
            keys: self.keys,
            last_dx: self.last_dx,
        }
    }
}

impl LinearCache {
    /// Fresh cache whose backend is chosen by the options' solver handle
    /// (the injectable path every analysis entry point uses).
    pub fn for_options(opts: &SimOptions) -> Self {
        LinearCache::with_backend(opts.solver.make())
    }

    /// Fresh cache around an explicit backend.
    pub(crate) fn with_backend(backend: Box<dyn SolverBackend>) -> Self {
        LinearCache { backend, ..LinearCache::default() }
    }

    /// The plan of the backend's current factorization, for other solvers'
    /// backends to adopt (see [`SolverBackend::shared_plan`]).
    pub(crate) fn shared_plan(&self) -> Option<SharedPlan> {
        self.backend.shared_plan()
    }

    /// Drops the cached factorization (forces a fresh pivot search next time).
    pub(crate) fn invalidate(&mut self) {
        self.backend.invalidate();
        self.keys = KeyedSlots::default();
        self.last_dx = None;
    }

    /// Starts a new Newton solve: resets the contraction-rate history (the
    /// factors themselves stay reusable if their key still matches).
    pub(crate) fn begin_solve(&mut self) {
        self.last_dx = None;
    }

    /// Notes a rejected time point: the active factors were computed at a
    /// state the controller abandoned, so chord reuse must re-qualify via a
    /// fresh factorization (and they are not worth parking). The parked sets
    /// predate the abandoned point and keep their keys.
    pub(crate) fn note_rejection(&mut self) {
        self.keys.clear_active();
        self.last_dx = None;
    }

    /// Produces the next Newton iterate in `self.x_new` for the freshly
    /// stamped system, preferring the cheapest path that can be trusted:
    ///
    /// 1. **Chord reuse** (when enabled, un-limited, and the linear-stamp key
    ///    is the cached factors' or its twin, [`LinKey::twin`]): one
    ///    triangular solve of the delta form `dx = LU⁻¹(rhs − A·x)`, accepted
    ///    only while the update norms keep contracting at rate
    ///    `CHORD_THETA`. With chord reuse enabled, a key that differs from
    ///    the active factors' first consults the backend's parked sets
    ///    ([`KeyedSlots`], `PARKED_SETS` of them): factors parked under
    ///    this key or its twin trade places with the active ones and are
    ///    reused the same way;
    ///    otherwise the active ones are parked, so that path 2 overwrites an
    ///    empty set or the least recently active one.
    /// 2. Frozen-pivot refactorization of the existing pivot order.
    /// 3. Fresh factorization with full pivot search.
    ///
    /// Paths 2–3 are *verified* against the residual `rhs - A x`; if the
    /// backward error is large (degraded frozen pivots, severe
    /// ill-conditioning) the matrix is re-factored from scratch and solved
    /// again. Returns `Ok(false)` if even the fresh factorization cannot
    /// produce a trustworthy solution — the caller should treat the iterate
    /// as non-convergent.
    fn factor_and_solve(
        &mut self,
        ws: &MnaWorkspace,
        input: &StampInput<'_>,
        x: &[f64],
        opts: &SimOptions,
        stats: &mut SimStats,
    ) -> Result<bool> {
        // Snapshot the backend's Krylov counters (None on direct backends)
        // so the iterative path's work is charged per linear solve — even
        // when the inner call errors out.
        let before = self.backend.krylov_stats();
        let out = self.factor_and_solve_inner(ws, input, x, opts, stats);
        if let (Some(b), Some(a)) = (before, self.backend.krylov_stats()) {
            let iters = a.iterations - b.iterations;
            let restarts = a.restarts - b.restarts;
            let refreshes = a.precond_refreshes - b.precond_refreshes;
            let fallbacks = a.fallbacks - b.fallbacks;
            if iters + restarts + refreshes + fallbacks > 0 {
                stats.krylov_iterations += iters as usize;
                stats.precond_refreshes += refreshes as usize;
                stats.solver_fallbacks += fallbacks as usize;
                opts.probe.emit(
                    input.time,
                    EventKind::KrylovSolve {
                        iterations: iters as u32,
                        restarts: restarts as u32,
                        precond_refreshes: refreshes as u32,
                        fallback: fallbacks > 0,
                    },
                );
            }
        }
        out
    }

    fn factor_and_solve_inner(
        &mut self,
        ws: &MnaWorkspace,
        input: &StampInput<'_>,
        x: &[f64],
        opts: &SimOptions,
        stats: &mut SimStats,
    ) -> Result<bool> {
        let n = ws.rhs.len();
        self.x_new.resize(n, 0.0);
        self.scratch.resize(n, 0.0);
        self.resid.resize(n, 0.0);
        let key = LinKey::of(input);
        // With chord reuse on, the key first has its turn at the factor sets;
        // `hit` says whether the active one is now this key's, `parked_hit`
        // that it was parked until this call.
        let (mut hit, mut parked_hit) = (false, false);
        if opts.chord_newton {
            let turn = self.keys.turn(key);
            if let KeyTurn::ParkedHit(slot) | KeyTurn::Park(slot) = turn {
                if self.backend.swap_parked(slot) {
                    self.keys.swapped(turn);
                    parked_hit = matches!(turn, KeyTurn::ParkedHit(_));
                }
            }
            hit = turn == KeyTurn::Hit || parked_hit;
            if !hit {
                let lookup = EventKind::FactorLookup { layer: FactorLayer::Parked, hit: false };
                opts.probe.emit(input.time, lookup);
            }
        }
        if hit && !ws.limited && self.backend.factored() {
            // Chord step: solve the delta form against the *stale* factors
            // but the *fresh* matrix/RHS, so the fixed point is unchanged.
            ws.matrix.residual_into(x, &ws.rhs, &mut self.resid)?;
            self.backend.solve(&self.resid, &mut self.x_new, &mut self.scratch)?;
            stats.solves += 1;
            let dxn = norm_inf(&self.x_new);
            let contracting = match self.last_dx {
                None => true,
                Some(prev) => dxn <= CHORD_THETA * prev,
            };
            // `norm_inf` drops NaN, so finiteness is asked of the entries.
            if all_finite(&self.x_new) && contracting {
                for (xn, &xi) in self.x_new.iter_mut().zip(x) {
                    *xn += xi;
                }
                self.last_dx = Some(dxn);
                opts.tally(stats, input.time, EventKind::JacobianReuse);
                if parked_hit {
                    let lookup = EventKind::FactorLookup { layer: FactorLayer::Parked, hit: true };
                    opts.probe.emit(input.time, lookup);
                }
                return Ok(true);
            }
            // Contraction stalled (or blew up): pay for a factorization of
            // the current Jacobian this iteration.
        }
        for attempt in 0..2 {
            let fresh = !self.backend.factored() || attempt > 0;
            if fresh {
                self.keys.clear_parked();
                self.backend.factor(&ws.matrix)?;
                opts.tally(stats, input.time, EventKind::Factorization);
            } else {
                // The first refactorization over an adopted plan is its
                // pivot check: the `plan` cache layer's hit or miss.
                let adopting = self.backend.adopts_plan();
                let plan_check = |hit| {
                    if adopting {
                        let lookup = EventKind::FactorLookup { layer: FactorLayer::Plan, hit };
                        opts.probe.emit(input.time, lookup);
                    }
                };
                match self.backend.refactor(&ws.matrix) {
                    Ok(()) => {
                        plan_check(true);
                        // A frozen-pivot pass is still a numeric
                        // factorization: counted in both totals, the checked
                        // pass over an adopted plan included.
                        opts.tally(stats, input.time, EventKind::Factorization);
                        opts.tally(stats, input.time, EventKind::Refactorization);
                    }
                    Err(SparseError::PivotDegraded { .. }) => {
                        // Frozen pivot order went bad (or an adopted one
                        // failed its check): re-pivot from scratch.
                        plan_check(false);
                        self.keys.clear_parked();
                        self.backend.factor(&ws.matrix)?;
                        opts.tally(stats, input.time, EventKind::Factorization);
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            self.backend.solve(&ws.rhs, &mut self.x_new, &mut self.scratch)?;
            stats.solves += 1;
            if solve_verified(&ws.matrix, &self.x_new, &ws.rhs, &mut self.resid, &mut self.rowsum)?
            {
                self.keys.filled(key);
                let mut dxn = 0.0f64;
                for (&xn, &xi) in self.x_new.iter().zip(x) {
                    dxn = dxn.max((xn - xi).abs());
                }
                self.last_dx = dxn.is_finite().then_some(dxn);
                return Ok(true);
            }
            if fresh {
                // Even full pivoting cannot solve this system reliably.
                self.keys.clear_active();
                return Ok(false);
            }
            // Fall through: retry with a fresh factorization.
        }
        self.keys.clear_active();
        Ok(false)
    }
}

/// Backward-error verification of `x_new` as the solution of `matrix * x =
/// rhs`, from one walk of the matrix: `‖rhs − A·x_new‖∞ ≤ 1e-8 · (‖A‖∞ ·
/// ‖x_new‖∞ + ‖rhs‖∞)`. A residual holding a NaN or an infinity fails
/// whatever the norms say — they fold with `f64::max`, which drops NaN.
/// `resid` receives the residual; `rowsum` is the matrix norm's buffer.
fn solve_verified(
    matrix: &CscMatrix,
    x_new: &[f64],
    rhs: &[f64],
    resid: &mut [f64],
    rowsum: &mut Vec<f64>,
) -> std::result::Result<bool, SparseError> {
    let e = matrix.backward_error_into(x_new, rhs, resid, rowsum)?;
    let scale = e.matrix_norm * e.x_norm + e.b_norm;
    Ok(e.residual_finite && e.residual_norm <= 1e-8 * scale.max(f64::MIN_POSITIVE))
}

/// Outcome of a Newton solve.
#[derive(Debug, Clone)]
pub(crate) struct NewtonOutcome {
    /// The converged (or last) iterate.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the per-unknown delta test passed.
    pub converged: bool,
}

/// Runs Newton–Raphson from initial guess `x0`.
///
/// Each iteration stamps the linearised system at the current iterate,
/// (re)factors, and solves for the next iterate; convergence is the classic
/// SPICE per-unknown delta test (`vntol`/`reltol` on node voltages,
/// `ABSTOL` (1e-12 A)/`reltol` on branch currents).
///
/// # Errors
///
/// Returns [`crate::EngineError::Linear`] if the matrix is singular beyond repair.
/// Non-convergence is reported in the outcome, not as an error, so callers
/// can retry with continuation or a smaller step.
#[allow(clippy::too_many_arguments)] // analysis context is deliberately explicit
pub(crate) fn newton_solve(
    sys: &MnaSystem,
    ws: &mut MnaWorkspace,
    cache: &mut LinearCache,
    input: &StampInput<'_>,
    x0: &[f64],
    max_iters: usize,
    opts: &SimOptions,
    stats: &mut SimStats,
) -> Result<NewtonOutcome> {
    let n_nodes = sys.n_nodes();
    let ctl = opts.cache_ctl();
    cache.begin_solve();
    let mut x = x0.to_vec();
    for it in 1..=max_iters {
        // Cooperative budget check once per iteration: a runaway solve stops
        // within one stamp+factor of the deadline instead of at `max_iters`.
        opts.check_budget(input.time)?;
        opts.tally(stats, input.time, EventKind::NewtonIter { iteration: it as u32 });
        let t0 = Instant::now();
        let sres = sys.stamp_lane(ws, input, &x, &ctl, it == 1);
        stats.stamp_ns += t0.elapsed().as_nanos();
        let pass = EventKind::StampPass {
            evals: sres.evals as u32,
            bypassed: sres.bypassed as u32,
            companion_hit: sres.companion_hit,
        };
        opts.tally(stats, input.time, pass);
        if opts.probe.enabled() {
            sys.class_evals(&ws.caches.mask, |kind| opts.probe.emit(input.time, kind));
        }
        if !all_finite(&ws.rhs) {
            // Companion history produced a non-finite excitation: give up on
            // this point so the step controller backs off.
            return Ok(NewtonOutcome { x, iterations: it, converged: false });
        }
        let solved = cache.factor_and_solve(ws, input, &x, opts, stats)?;
        if !solved {
            // Linear solve could not be verified: back off the step.
            return Ok(NewtonOutcome { x, iterations: it, converged: false });
        }
        let x_new = cache.x_new.as_slice();
        if !all_finite(x_new) {
            // Blowup: report as non-convergence so the step controller backs off.
            return Ok(NewtonOutcome { x, iterations: it, converged: false });
        }
        // Junction limiting active means the device linearisation point is
        // not the iterate itself: keep iterating regardless of deltas.
        let mut converged = !ws.limited;
        for (k, (&xn, &xo)) in x_new.iter().zip(&x).enumerate() {
            if !converged {
                break;
            }
            let tol = if k < n_nodes {
                opts.vntol + opts.reltol * xn.abs().max(xo.abs())
            } else {
                ABSTOL + opts.reltol * xn.abs().max(xo.abs())
            };
            if (xn - xo).abs() > tol {
                converged = false;
                break;
            }
        }
        x.copy_from_slice(x_new);
        if converged {
            return Ok(NewtonOutcome { x, iterations: it, converged: true });
        }
    }
    Ok(NewtonOutcome { x, iterations: max_iters, converged: false })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe_circuit::{Circuit, DiodeModel, Waveform};

    fn dc_input<'a>(zeros: &'a [f64], caps: &'a [f64], opts: &SimOptions) -> StampInput<'a> {
        StampInput {
            time: 0.0,
            coeffs: None,
            x_prev: zeros,
            x_prev2: zeros,
            cap_currents: caps,
            gmin: opts.gmin,
            gshunt: 0.0,
            source_scale: 1.0,
            ic_mode: false,
        }
    }

    fn divider_circuit() -> Circuit {
        let mut ckt = Circuit::new("lin");
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        let b = ckt.node("b");
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 4e3).unwrap();
        ckt
    }

    fn solve_divider(opts: &SimOptions) -> (NewtonOutcome, SimStats) {
        let sys = MnaSystem::compile(&divider_circuit()).unwrap();
        let mut ws = sys.new_workspace();
        let mut cache = LinearCache::for_options(opts);
        let mut stats = SimStats::new();
        let zeros = vec![0.0; sys.n_unknowns()];
        let caps = vec![0.0; sys.cap_state_count()];
        let out = newton_solve(
            &sys,
            &mut ws,
            &mut cache,
            &dc_input(&zeros, &caps, opts),
            &zeros,
            20,
            opts,
            &mut stats,
        )
        .unwrap();
        assert!(out.converged);
        assert!(out.iterations <= 2, "linear should converge immediately, took {}", out.iterations);
        let b_idx = sys.node_unknown("b").unwrap();
        assert!((out.x[b_idx] - 4.0).abs() < 1e-9);
        (out, stats)
    }

    #[test]
    fn linear_circuit_counts_one_fresh_pass_plus_frozen_passes_without_chord() {
        // Knobs pinned so the CI caches-off env leg sees identical behaviour.
        let opts = SimOptions::default().with_chord_newton(false).with_bypass(false);
        let (out, stats) = solve_divider(&opts);
        // Every iteration pays a numeric pass; only the first pivots fresh.
        assert_eq!(stats.factorizations, out.iterations);
        assert_eq!(stats.refactorizations, out.iterations - 1);
        assert_eq!(stats.jacobian_reuses, 0);
    }

    #[test]
    fn linear_circuit_chord_reuses_the_first_factorization() {
        let opts = SimOptions::default().with_chord_newton(true).with_bypass(false);
        let (out, stats) = solve_divider(&opts);
        // One fresh factorization; every later iteration is a chord step.
        assert_eq!(stats.factorizations, 1);
        assert_eq!(stats.refactorizations, 0);
        assert_eq!(stats.jacobian_reuses, out.iterations - 1);
    }

    /// A direct backend whose every solve hands back one NaN beside the
    /// entries the factors produced.
    #[derive(Debug, Clone, Default)]
    struct OneNan(DirectLu);

    impl SolverBackend for OneNan {
        fn factor(&mut self, a: &CscMatrix) -> wavepipe_sparse::Result<()> {
            self.0.factor(a)
        }
        fn refactor(&mut self, a: &CscMatrix) -> wavepipe_sparse::Result<()> {
            self.0.refactor(a)
        }
        fn solve(&self, b: &[f64], x: &mut [f64], s: &mut [f64]) -> wavepipe_sparse::Result<()> {
            self.0.solve(b, x, s)?;
            x[1] = f64::NAN;
            Ok(())
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

    #[test]
    fn a_nan_beside_finite_entries_fails_verification() {
        // The residual norms fold with `f64::max`, which drops NaN: the
        // source's branch row does not see node `b` (unknown 1) and has a
        // tiny residual, so without the explicit flag this solve verified as
        // good.
        let opts = SimOptions::default().with_chord_newton(false).with_bypass(false);
        let sys = MnaSystem::compile(&divider_circuit()).unwrap();
        let mut ws = sys.new_workspace();
        let zeros = vec![0.0; sys.n_unknowns()];
        let caps = vec![0.0; sys.cap_state_count()];
        let input = dc_input(&zeros, &caps, &opts);
        sys.stamp(&mut ws, &input, &zeros);
        let mut cache = LinearCache::with_backend(Box::new(OneNan::default()));
        let mut stats = SimStats::new();
        let solved = cache.factor_and_solve(&ws, &input, &zeros, &opts, &mut stats).unwrap();
        assert!(!solved, "a residual holding NaN verified as good");
        assert!(cache.resid.iter().any(|r| r.is_nan()) && cache.resid.iter().any(|r| !r.is_nan()));
        // The factorization was fresh, so there is no retry and no chord key.
        assert_eq!((stats.factorizations, stats.solves), (1, 1));
        assert_eq!(cache.keys, KeyedSlots::default());
        // Newton reports the point as not converged after that one iteration.
        let out =
            newton_solve(&sys, &mut ws, &mut cache, &input, &zeros, 20, &opts, &mut stats).unwrap();
        assert!(!out.converged && out.iterations == 1);
    }

    /// A direct backend that logs every call the cache makes; `parks: false`
    /// leaves [`SolverBackend::swap_parked`] at the trait's "unsupported".
    #[derive(Debug, Clone)]
    struct Logged {
        inner: DirectLu,
        parks: bool,
        log: std::sync::Arc<std::sync::Mutex<Vec<&'static str>>>,
    }

    impl Logged {
        fn note(&self, call: &'static str) {
            self.log.lock().expect("no test thread panics holding the log").push(call);
        }
    }

    impl SolverBackend for Logged {
        fn factor(&mut self, a: &CscMatrix) -> wavepipe_sparse::Result<()> {
            self.note("factor");
            self.inner.factor(a)
        }
        fn refactor(&mut self, a: &CscMatrix) -> wavepipe_sparse::Result<()> {
            self.note("refactor");
            self.inner.refactor(a)
        }
        fn solve(&self, b: &[f64], x: &mut [f64], s: &mut [f64]) -> wavepipe_sparse::Result<()> {
            self.note("solve");
            self.inner.solve(b, x, s)
        }
        fn factored(&self) -> bool {
            self.inner.factored()
        }
        fn invalidate(&mut self) {
            self.inner.invalidate();
        }
        fn clone_box(&self) -> Box<dyn SolverBackend> {
            Box::new(self.clone())
        }
        fn swap_parked(&mut self, slot: usize) -> bool {
            if !self.parks {
                return false;
            }
            self.note("swap");
            self.inner.swap_parked(slot)
        }
        fn adopts_plan(&self) -> bool {
            self.inner.adopts_plan()
        }
    }

    /// Runs one linearization per entry of `steps` on an RC low-pass (the
    /// step size is the key; a step followed by `'` or `''` is that step's
    /// first or second roundoff twin; `'!'` notes a rejected point instead)
    /// and returns the backend calls each one made. Every solve must solve
    /// its own system, whichever factor set served it.
    fn calls_per_key(steps: &str, chord: bool, parks: bool) -> Vec<String> {
        calls_through(DirectLu::new(), steps, chord, parks).0
    }

    /// [`calls_per_key`] through `inner`, with the counters of the run.
    fn calls_through(
        inner: DirectLu,
        steps: &str,
        chord: bool,
        parks: bool,
    ) -> (Vec<String>, SimStats) {
        let sys = rc_low_pass();
        let mut ws = sys.new_workspace();
        let opts = SimOptions::default()
            .with_chord_newton(chord)
            .with_bypass(false)
            .with_companion_cache(false);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let backend = Logged { inner, parks, log: log.clone() };
        let mut cache = LinearCache::with_backend(Box::new(backend));
        let mut stats = SimStats::new();
        let x = vec![0.25; sys.n_unknowns()];
        let caps = vec![0.0; sys.cap_state_count()];
        let mut out = Vec::new();
        let mut tokens = steps.chars().peekable();
        while let Some(step) = tokens.next() {
            if step == '!' {
                cache.note_rejection();
                continue;
            }
            let mut twin = 0;
            while tokens.next_if_eq(&'\'').is_some() {
                twin += 1;
            }
            let input = rc_step(step, twin, &x, &caps, &opts);
            sys.stamp(&mut ws, &input, &x);
            cache.begin_solve();
            assert!(cache.factor_and_solve(&ws, &input, &x, &opts, &mut stats).unwrap());
            let mut resid = vec![0.0; x.len()];
            ws.matrix.residual_into(&cache.x_new, &ws.rhs, &mut resid).unwrap();
            assert!(norm_inf(&resid) <= 1e-9 * norm_inf(&ws.rhs), "step {step}: {resid:?}");
            out.push(log.lock().unwrap().drain(..).collect::<Vec<_>>().join(" "));
        }
        (out, stats)
    }

    /// The RC low-pass of [`calls_per_key`].
    fn rc_low_pass() -> MnaSystem {
        let mut ckt = Circuit::new("rc");
        let (a, b) = (ckt.node("a"), ckt.node("b"));
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-9).unwrap();
        MnaSystem::compile(&ckt).unwrap()
    }

    /// The stamp input of step `'a'` (1 ns) .. `'f'` (32 ns), or of its
    /// roundoff twin number `twin`: the step as taken from `t = twin · 3.7 ns`
    /// (`t + h − t`), a few ulps off `h`.
    fn rc_step<'a>(
        step: char,
        twin: u32,
        x: &'a [f64],
        caps: &'a [f64],
        opts: &SimOptions,
    ) -> StampInput<'a> {
        assert!(('a'..='f').contains(&step), "no such step: {step}");
        let h = 1e-9 * f64::from(1u32 << (step as u32 - 'a' as u32));
        let t = 3.7e-9 * f64::from(twin);
        let h = (t + h) - t;
        StampInput {
            coeffs: Some(crate::integrate::IntegCoeffs::new(opts.method, h, h)),
            ..dc_input(x, caps, opts)
        }
    }

    const PARK: &str = "swap refactor solve";
    const PARKED_HIT: &str = "swap solve";

    #[test]
    fn factors_left_up_to_four_refactorizations_ago_are_swapped_back_not_recomputed() {
        assert_eq!(
            calls_per_key("abacb", true, true),
            [
                "factor solve",
                // `a`'s factors are parked, `b`'s land in a new set.
                PARK,
                // A slot holds `a`: one chord solve, no numeric work.
                PARKED_HIT,
                // `c` lands in a new set too; `a`'s are parked again ...
                PARK,
                // ... beside `b`'s, which are still there.
                PARKED_HIT,
            ]
        );
        // A five-rung ladder: one fresh factorization, one refactorization
        // per new rung, then every rung is a trade and a chord solve.
        assert_eq!(
            calls_per_key("abcdeabcde", true, true),
            [
                "factor solve",
                PARK,
                PARK,
                PARK,
                PARK,
                PARKED_HIT,
                PARKED_HIT,
                PARKED_HIT,
                PARKED_HIT,
                PARKED_HIT
            ]
        );
    }

    #[test]
    fn a_step_s_roundoff_twins_share_its_factors() {
        // Three bit patterns of one 1 ns step, and each a different key.
        let (x, caps, opts) = ([0.0; 3], [0.0; 1], SimOptions::default());
        let a0 = |twin| rc_step('a', twin, &x, &caps, &opts).coeffs.unwrap().a0;
        assert!(a0(0) != a0(1) && a0(1) != a0(2) && a0(0) != a0(2));
        // `a'` is a chord step on `a`'s factors, and `a''`, after `b`, finds
        // them parked: one factorization for `a` and its twins.
        assert_eq!(
            calls_per_key("aa'ba''", true, true),
            ["factor solve", "solve", PARK, PARKED_HIT]
        );
        // Without parked sets a twin still reuses the active factors.
        assert_eq!(calls_per_key("aa'a''b", true, false)[..3], ["factor solve", "solve", "solve"]);
    }

    #[test]
    fn a_sixth_key_evicts_the_least_recently_active_set() {
        // `f` finds every slot taken and overwrites `a`'s, parked first and
        // never asked for since: `a` is refactored again ...
        assert_eq!(
            calls_per_key("abcdefa", true, true),
            ["factor solve", PARK, PARK, PARK, PARK, PARK, PARK]
        );
        // ... where asking for `a` in between makes `b`'s the oldest.
        assert_eq!(
            calls_per_key("abcdeafab", true, true),
            ["factor solve", PARK, PARK, PARK, PARK, PARKED_HIT, PARK, PARKED_HIT, PARK]
        );
    }

    #[test]
    fn a_backend_handed_a_plan_refactors_its_first_matrix_and_is_charged_a_factorization() {
        // The owner pivots the matrix of step `a` ...
        let sys = rc_low_pass();
        let mut ws = sys.new_workspace();
        let opts = SimOptions::default();
        let (x, caps) = (vec![0.25; sys.n_unknowns()], vec![0.0; sys.cap_state_count()]);
        sys.stamp(&mut ws, &rc_step('a', 0, &x, &caps, &opts), &x);
        let mut owner = DirectLu::new();
        owner.factor(&ws.matrix).unwrap();
        let plan = owner.shared_plan().expect("a factored direct backend hands out its plan");
        // ... a backend handed its plan refactors instead of factoring, at `c`
        // as at any step (this matrix pivots as `a`'s did), and after that
        // the sequence is the one a backend that factored itself runs.
        let (calls, stats) = calls_through(DirectLu::adopting(plan), "cbc", true, true);
        assert_eq!(calls, ["refactor solve", PARK, PARKED_HIT]);
        assert_eq!(calls[1..], calls_per_key("cbc", true, true)[1..]);
        // The checked refactorization replaces the fresh factorization and
        // is counted as the refactorization it is: the totals stay, one
        // fresh pass becomes a frozen-pivot one.
        let (_, own) = calls_through(DirectLu::new(), "cbc", true, true);
        assert_eq!(stats, SimStats { refactorizations: own.refactorizations + 1, ..own });
        assert_eq!((stats.factorizations, stats.refactorizations), (2, 2));
    }

    #[test]
    fn without_chord_newton_nothing_is_ever_parked() {
        let refactored = ["factor solve", "refactor solve", "refactor solve", "refactor solve"];
        assert_eq!(calls_per_key("abab", false, true), refactored);
    }

    #[test]
    fn a_rejected_point_s_factors_are_not_parked() {
        assert_eq!(
            calls_per_key("a!ba", true, true),
            // `b` refactors over the abandoned set in place, so `a` finds
            // nothing parked and parks `b`.
            ["factor solve", "refactor solve", PARK]
        );
        // A rejection leaves the parked sets alone: `a` is still there.
        assert_eq!(calls_per_key("ab!a", true, true), ["factor solve", PARK, PARKED_HIT]);
        // The abandoned set `a` traded places with is an empty slot: `c`
        // parks `a` there, and `b`, never parked, is refactored.
        assert_eq!(
            calls_per_key("ab!acab", true, true),
            ["factor solve", PARK, PARKED_HIT, PARK, PARKED_HIT, PARK]
        );
    }

    #[test]
    fn a_backend_without_parked_sets_sees_the_call_sequence_it_always_did() {
        assert_eq!(
            calls_per_key("abacb", true, false),
            [
                "factor solve",
                "refactor solve",
                "refactor solve",
                "refactor solve",
                "refactor solve"
            ]
        );
        // The same key twice running is the chord path, as before.
        assert_eq!(calls_per_key("aab", true, false), ["factor solve", "solve", "refactor solve"]);
    }

    #[test]
    fn diode_resistor_converges_to_forward_drop() {
        // 5V -> 1k -> diode to ground: v_diode ~ 0.6-0.75 V.
        let mut ckt = Circuit::new("dio");
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        ckt.add_resistor("R1", a, d, 1e3).unwrap();
        ckt.add_diode("D1", d, Circuit::GROUND, DiodeModel::default()).unwrap();
        let sys = MnaSystem::compile(&ckt).unwrap();
        let mut ws = sys.new_workspace();
        // Chord/bypass pinned off: the KCL check below is tighter than the
        // `reltol` the chord iteration converges to.
        let opts = SimOptions::default().with_chord_newton(false).with_bypass(false);
        let mut cache = LinearCache::for_options(&opts);
        let mut stats = SimStats::new();
        let zeros = vec![0.0; sys.n_unknowns()];
        let caps = vec![0.0; sys.cap_state_count()];
        let out = newton_solve(
            &sys,
            &mut ws,
            &mut cache,
            &dc_input(&zeros, &caps, &opts),
            &zeros,
            100,
            &opts,
            &mut stats,
        )
        .unwrap();
        assert!(out.converged, "diode NR should converge");
        let vd = out.x[sys.node_unknown("d").unwrap()];
        assert!(vd > 0.55 && vd < 0.8, "v_diode = {vd}");
        // KCL: current through R equals diode current.
        let ir = (5.0 - vd) / 1e3;
        let (id, _) = crate::devices::diode_eval(vd, 1e-14, crate::devices::VT);
        assert!((ir - id).abs() / ir < 1e-3, "ir {ir} vs id {id}");
    }

    #[test]
    fn nonconvergence_reported_not_error() {
        // A diode circuit given 1 iteration cannot converge from zero.
        let mut ckt = Circuit::new("dio");
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        ckt.add_resistor("R1", a, d, 1e3).unwrap();
        ckt.add_diode("D1", d, Circuit::GROUND, DiodeModel::default()).unwrap();
        let sys = MnaSystem::compile(&ckt).unwrap();
        let mut ws = sys.new_workspace();
        let opts = SimOptions::default();
        let mut cache = LinearCache::for_options(&opts);
        let mut stats = SimStats::new();
        let zeros = vec![0.0; sys.n_unknowns()];
        let caps = vec![0.0; sys.cap_state_count()];
        let out = newton_solve(
            &sys,
            &mut ws,
            &mut cache,
            &dc_input(&zeros, &caps, &opts),
            &zeros,
            1,
            &opts,
            &mut stats,
        )
        .unwrap();
        assert!(!out.converged);
    }
}
