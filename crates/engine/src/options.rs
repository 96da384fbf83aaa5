//! Simulation options shared by DC and transient analysis.

use crate::cancel::CancelToken;
use crate::env;
use crate::error::{EngineError, Result};
use crate::fault::{FaultHandle, FaultPlan};
use crate::integrate::Method;
use crate::solver::SolverHandle;
use crate::stats::SimStats;
use std::time::Duration;
use wavepipe_telemetry::{EventKind, ProbeHandle};

/// Minimum step as a fraction of `tstop`.
const HMIN_FRAC: f64 = 1e-10;

/// Maximum step as a fraction of `tstop`.
const HMAX_FRAC: f64 = 0.02;

/// Tolerances and control knobs for the simulation engine.
///
/// The defaults mirror classic SPICE3 values; every WavePipe scheme uses the
/// *same* options object as the serial reference, which is what makes the
/// accuracy-equivalence property meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Relative convergence/LTE tolerance (`RELTOL`). Default `1e-3`.
    pub reltol: f64,
    /// Absolute voltage tolerance (`VNTOL`), volts. Default `1e-6`.
    pub vntol: f64,
    /// Minimum conductance added across nonlinear junctions (`GMIN`).
    /// Default `1e-12`.
    pub gmin: f64,
    /// Integration method for transient analysis. Default [`Method::Trapezoidal`].
    pub method: Method,
    /// Maximum step-growth ratio between consecutive accepted steps.
    /// Default `2.0`. (This is the ratio WavePipe's backward pipelining
    /// compounds across threads.)
    pub rmax: f64,
    /// Charge/flux absolute LTE floor, used in the weighted LTE norm.
    /// Default `1e-6`.
    pub lte_abstol: f64,
    /// Start transient analysis from element initial conditions (`UIC`)
    /// instead of the DC operating point: capacitors with `IC=` are forced
    /// to their initial voltage, capacitors without start discharged,
    /// inductors start at their initial current (default 0). Default
    /// `false` (compute the operating point).
    pub use_ic: bool,
    /// Telemetry sink. The default ([`ProbeHandle::none`]) makes every
    /// emission a single branch; attach a recording probe to capture the
    /// event stream (readable mid-run). Probes only observe — they never
    /// alter the solution.
    pub probe: ProbeHandle,
    /// Inert: the stamp-worker layer this sized is deleted, and nothing in
    /// the program reads the field — it holds what
    /// [`SimOptions::with_stamp_workers`] last set, `0` by default. Kept
    /// because `benchmark/`, which a code change may not edit, reads it; it
    /// goes with ROADMAP's benchmark-only follow-up.
    #[doc(hidden)]
    pub stamp_workers: usize,
    /// Wall-clock budget for one analysis run. `None` (default) runs to
    /// completion. The budget is armed after the DC/initial solve and
    /// checked cooperatively (step and round boundaries, every Newton
    /// iteration), so even a zero budget yields the `t = 0` point and the
    /// accepted prefix stays bit-identical to an unbudgeted run. Expiry
    /// surfaces as [`EngineError::DeadlineExceeded`]; pair with the
    /// `*_recoverable` entry points to keep the partial waveform.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token shared with the caller. `None`
    /// (default) is uncancellable; [`SimOptions::with_deadline`] installs
    /// one automatically. Cancelling surfaces as [`EngineError::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Fault-injection handle for testing the fault-tolerant runtime. The
    /// default honours the `WAVEPIPE_FAULT_SEED` environment variable
    /// (deterministic chaos); otherwise inert. Attach an explicit
    /// [`FaultPlan`] via [`SimOptions::with_faults`] — an empty plan pins a
    /// run fault-free even under the env override.
    pub faults: FaultHandle,
    /// SPICE3-style device bypass: nonlinear devices whose controlling
    /// voltages moved less than the bypass tolerance (`engine::mna`'s
    /// `BYPASS_VABS` and `BYPASS_VREL`) since their last
    /// evaluation replay their cached stamp instead of re-evaluating the
    /// model. Deterministic (the decision is a pure function of the iterate
    /// and the per-workspace cache state). The default honours
    /// `WAVEPIPE_BYPASS` (`0`/`false` disables); on otherwise.
    pub bypass: bool,
    /// Chord (modified) Newton: keep the current LU factors across
    /// iterations — and across accepted time points — while each Newton
    /// update is at most half the previous one; refactor on slow
    /// convergence, rejection, or step-size change.
    /// Convergence *criteria* are untouched, only when a new factorization
    /// is paid for. The default honours `WAVEPIPE_CHORD` (`0`/`false`
    /// disables); on otherwise.
    pub chord_newton: bool,
    /// Step-size-keyed companion cache: reuse the assembled linear part of
    /// the matrix (resistors, sources, reactive companion conductances)
    /// across stamps that share the same integration coefficients and
    /// continuation shunt, re-emitting only the history-dependent RHS.
    /// Default on.
    pub companion_cache: bool,
    /// Linear-solver backend selection for every Newton solve of the run.
    /// The default ([`SolverHandle::direct`]) is the classic per-solver
    /// `SparseLu`, ordered by minimum degree (see
    /// [`SolverBackend`](crate::SolverBackend) for the determinism contract);
    /// [`SolverHandle::gmres`] is the iterative path for grid-scale circuits
    /// ([`GmresBackend`](crate::GmresBackend)). The default honours
    /// `WAVEPIPE_SOLVER` (`gmres` selects the Krylov backend in its default
    /// [`GmresConfig`](crate::GmresConfig)).
    pub solver: SolverHandle,
    /// Transient convergence recovery ladder: when Newton fails at a
    /// timepoint and the step has already collapsed to the floor, try —
    /// in order — a cache-poisoning rollback (solver caches invalidated and
    /// disabled), bounded deep step cuts below the LTE floor, and a local
    /// gmin/gshunt continuation ramp, before surfacing a typed
    /// [`EngineError::NoConvergence`]. The ladder only runs on the error
    /// path, so clean runs are bit-identical with it on or off. On by
    /// default.
    pub recovery: bool,
}

/// Per-stamp control block for the solver caches, derived from
/// [`SimOptions`] via [`SimOptions::cache_ctl`]. With every cache off it
/// reproduces the cache-free stamp exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheCtl {
    /// Enable device bypass (see [`SimOptions::bypass`]).
    pub bypass: bool,
    /// Enable the step-size-keyed companion cache.
    pub companion: bool,
}

impl CacheCtl {
    /// A control block with every cache off: the stamp re-evaluates every
    /// device and reassembles the full matrix each call.
    pub(crate) fn disabled() -> Self {
        CacheCtl { bypass: false, companion: false }
    }
}

/// Default solver selection: `WAVEPIPE_SOLVER=gmres` switches every analysis
/// of the process to the Krylov backend in its default configuration;
/// unset, blank or `direct`, direct LU. Any other value panics (see
/// [`env::choice`]).
fn default_solver() -> SolverHandle {
    match env::choice("WAVEPIPE_SOLVER", &["gmres", "direct"]) {
        Some("gmres") => SolverHandle::gmres(crate::krylov::GmresConfig::default()),
        _ => SolverHandle::direct(),
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            reltol: 1e-3,
            vntol: 1e-6,
            gmin: 1e-12,
            method: Method::Trapezoidal,
            rmax: 2.0,
            lte_abstol: 1e-6,
            use_ic: false,
            probe: ProbeHandle::none(),
            stamp_workers: 0,
            deadline: None,
            cancel: None,
            faults: FaultHandle::from_env_cached(),
            // `WAVEPIPE_BYPASS=0` (likewise `_CHORD`) turns a default-on
            // layer off for a whole test suite.
            bypass: env::flag("WAVEPIPE_BYPASS", true),
            chord_newton: env::flag("WAVEPIPE_CHORD", true),
            companion_cache: true,
            solver: default_solver(),
            recovery: true,
        }
    }
}

impl SimOptions {
    /// Builder: replaces the integration method.
    #[must_use]
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Builder: replaces the relative tolerance (`RELTOL`).
    #[must_use]
    pub fn with_reltol(mut self, reltol: f64) -> Self {
        self.reltol = reltol;
        self
    }

    /// Builder: replaces the absolute voltage tolerance (`VNTOL`).
    #[must_use]
    pub fn with_vntol(mut self, vntol: f64) -> Self {
        self.vntol = vntol;
        self
    }

    /// Builder: replaces the maximum step-growth ratio.
    #[must_use]
    pub fn with_rmax(mut self, rmax: f64) -> Self {
        self.rmax = rmax;
        self
    }

    /// Builder: starts the transient from element initial conditions (`UIC`)
    /// instead of the DC operating point.
    #[must_use]
    pub fn with_use_ic(mut self, use_ic: bool) -> Self {
        self.use_ic = use_ic;
        self
    }

    /// Builder: attaches a telemetry probe.
    #[must_use]
    pub fn with_probe(mut self, probe: ProbeHandle) -> Self {
        self.probe = probe;
        self
    }

    /// Inert: sets [`SimOptions::stamp_workers`], which nothing reads — every
    /// solver stamps through the one serial kernel whatever is passed. Kept
    /// for `benchmark/`, like the field.
    #[doc(hidden)]
    #[must_use]
    pub fn with_stamp_workers(mut self, stamp_workers: usize) -> Self {
        self.stamp_workers = stamp_workers;
        self
    }

    /// Builder: sets a wall-clock budget and installs a fresh
    /// [`CancelToken`] (if none is attached yet) so the budget has a place
    /// to live. Clones of these options share the token, which is what lets
    /// one armed deadline stop every lane of a parallel run.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        if self.cancel.is_none() {
            self.cancel = Some(CancelToken::new());
        }
        self
    }

    /// Builder: attaches a caller-owned cancellation token.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Builder: attaches a fault-injection plan (an empty plan pins the run
    /// fault-free, overriding `WAVEPIPE_FAULT_SEED`).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultHandle::new(plan);
        self
    }

    /// Builder: enables or disables device bypass (pins the run against the
    /// `WAVEPIPE_BYPASS` environment override).
    #[must_use]
    pub fn with_bypass(mut self, bypass: bool) -> Self {
        self.bypass = bypass;
        self
    }

    /// Builder: enables or disables chord (modified) Newton (pins the run
    /// against the `WAVEPIPE_CHORD` environment override).
    #[must_use]
    pub fn with_chord_newton(mut self, chord: bool) -> Self {
        self.chord_newton = chord;
        self
    }

    /// Builder: enables or disables the step-size-keyed companion cache.
    #[must_use]
    pub fn with_companion_cache(mut self, companion: bool) -> Self {
        self.companion_cache = companion;
        self
    }

    /// Builder: selects the linear-solver backend (see [`SolverHandle`]).
    #[must_use]
    pub fn with_solver(mut self, solver: SolverHandle) -> Self {
        self.solver = solver;
        self
    }

    /// Builder: enables or disables the transient convergence recovery
    /// ladder.
    #[must_use]
    pub fn with_recovery(mut self, recovery: bool) -> Self {
        self.recovery = recovery;
        self
    }

    /// Records one counted fact: adds it to `stats` ([`SimStats::count`])
    /// and emits it at simulated time `t`.
    #[inline]
    pub(crate) fn tally(&self, stats: &mut SimStats, t: f64, kind: EventKind) {
        stats.count(&kind);
        self.probe.emit(t, kind);
    }

    /// The stamp-layer cache control block these options imply.
    pub fn cache_ctl(&self) -> CacheCtl {
        CacheCtl { bypass: self.bypass, companion: self.companion_cache }
    }

    /// Arms the configured deadline (if any) on the attached token. Called
    /// by analysis entry points once the initial solution is in hand.
    pub(crate) fn arm_deadline(&self) {
        if let (Some(budget), Some(token)) = (self.deadline, &self.cancel) {
            token.arm_deadline(budget);
        }
    }

    /// Cooperative budget check: returns [`EngineError::Cancelled`] when the
    /// token was cancelled, [`EngineError::DeadlineExceeded`] when the armed
    /// deadline passed, and `Ok(())` otherwise. `time` is the simulated time
    /// to report. Emits a [`EventKind::DeadlineHit`] telemetry event when
    /// the budget expires.
    #[inline]
    pub(crate) fn check_budget(&self, time: f64) -> Result<()> {
        let Some(token) = &self.cancel else { return Ok(()) };
        if token.is_cancelled() {
            return Err(EngineError::Cancelled { time });
        }
        if token.deadline_expired() {
            self.probe.emit(time, EventKind::DeadlineHit);
            return Err(EngineError::DeadlineExceeded {
                time,
                budget: self.deadline.unwrap_or(Duration::ZERO),
            });
        }
        Ok(())
    }

    /// Minimum step for a run to `tstop`.
    pub(crate) fn hmin(&self, tstop: f64) -> f64 {
        HMIN_FRAC * tstop
    }

    /// Maximum step for a run to `tstop`.
    pub(crate) fn hmax(&self, tstop: f64) -> f64 {
        HMAX_FRAC * tstop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_spice_like() {
        let o = SimOptions::default();
        assert_eq!(o.reltol, 1e-3);
        assert_eq!(o.vntol, 1e-6);
        assert_eq!(o.method, Method::Trapezoidal);
        assert!(o.rmax >= 1.5);
    }

    #[test]
    fn hmin_hmax_scale_with_tstop() {
        let o = SimOptions::default();
        assert!(o.hmin(1e-6) < o.hmax(1e-6));
        assert_eq!(o.hmax(1.0), HMAX_FRAC);
    }

    #[test]
    fn with_method_overrides_only_method() {
        let o = SimOptions::default().with_method(Method::Gear2);
        assert_eq!(o.method, Method::Gear2);
        assert_eq!(o.reltol, SimOptions::default().reltol);
    }

    #[test]
    fn builders_chain_and_override_only_their_field() {
        let base = SimOptions::default();
        let o = SimOptions::default()
            .with_method(Method::Gear2)
            .with_reltol(1e-4)
            .with_rmax(4.0)
            .with_use_ic(true);
        assert_eq!(o.method, Method::Gear2);
        assert_eq!(o.reltol, 1e-4);
        assert_eq!(o.rmax, 4.0);
        assert!(o.use_ic);
        assert_eq!(o.vntol, base.vntol);
        assert_eq!(o.gmin, base.gmin);
    }

    #[test]
    fn with_deadline_installs_a_token() {
        let o = SimOptions::default().with_deadline(Duration::from_millis(5));
        assert_eq!(o.deadline, Some(Duration::from_millis(5)));
        assert!(o.cancel.is_some());
        // An existing token is kept.
        let t = CancelToken::new();
        let o = SimOptions::default()
            .with_cancel_token(t.clone())
            .with_deadline(Duration::from_secs(1));
        assert_eq!(o.cancel.as_ref(), Some(&t));
    }

    #[test]
    fn check_budget_passes_without_a_token() {
        assert!(SimOptions::default().with_faults(FaultPlan::new()).check_budget(0.0).is_ok());
    }

    #[test]
    fn check_budget_reports_cancellation_and_expiry() {
        let o = SimOptions::default().with_deadline(Duration::from_secs(3600));
        o.arm_deadline();
        assert!(o.check_budget(0.0).is_ok());
        o.cancel.as_ref().unwrap().cancel();
        assert!(matches!(o.check_budget(1e-9), Err(EngineError::Cancelled { .. })));

        let o = SimOptions::default().with_deadline(Duration::ZERO);
        o.arm_deadline();
        let err = o.check_budget(2e-9).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded { .. }), "{err}");
    }

    #[test]
    fn recovery_knobs_pin_against_env() {
        let o = SimOptions::default().with_recovery(false);
        assert!(!o.recovery);
        assert!(o.with_recovery(true).recovery);
    }

    #[test]
    fn explicit_empty_fault_plan_is_inert() {
        let o = SimOptions::default().with_faults(FaultPlan::new());
        assert!(!o.faults.enabled());
    }

    #[test]
    fn cache_knobs_pin_and_project_into_the_ctl() {
        // Defaults are env-dependent (`WAVEPIPE_BYPASS`/`WAVEPIPE_CHORD`),
        // so only the builder-pinned values are asserted.
        let o = SimOptions::default().with_bypass(true).with_chord_newton(true);
        assert!(o.bypass && o.chord_newton);
        let ctl = o.cache_ctl();
        assert!(ctl.bypass && ctl.companion);

        let off = o.with_bypass(false).with_chord_newton(false).with_companion_cache(false);
        assert!(!off.bypass && !off.chord_newton && !off.companion_cache);
        let ctl = off.cache_ctl();
        assert!(!ctl.bypass && !ctl.companion);
        assert_eq!(CacheCtl::disabled(), CacheCtl::disabled());
    }
}
