//! Transient convergence recovery ladder.
//!
//! When Newton fails at a time point and the controller has already shrunk
//! the step to the floor, the step controller does not give up: this module
//! mirrors the DC continuation ladder ([`crate::dcop`]) at transient time,
//! retrying the failing point through a sequence of increasingly aggressive
//! rungs —
//!
//! 1. **Cache-poisoning rollback**: every solver cache (bypass masks, the
//!    chord LU keys of the active *and* every parked factor set, companion
//!    matrix) is invalidated and the point is re-solved at the step floor
//!    with the caches *disabled*, so a stale cached stamp cannot have been
//!    the reason Newton diverged.
//! 2. **Deep step cuts**: the step is cut in quarters below the LTE floor
//!    for a bounded budget (`RECOVERY_DEEP_CUTS`) — a few points of order-1
//!    crawl through a violent corner costs far less than losing the run.
//! 3. **Local gmin ramp**: the failing point is solved under a large node
//!    shunt conductance which is then relaxed decade by decade (the same
//!    machinery as DC gmin stepping, warm-started stage to stage), finishing
//!    with a polish solve of the true system (`gshunt = 0`).
//! 4. Only then does a typed [`EngineError::NoConvergence`] escape, enriched
//!    with the worst-residual node, the per-attempt iteration history, and
//!    the rungs tried.
//!
//! **Determinism.** The ladder only engages where Newton has failed at the
//! step floor, so a clean run never enters it (the zero-overhead invariant,
//! pinned by `tests/recovery.rs`). Rescue solves are exempt from
//! deterministic fault injection and do not advance the per-solver solve
//! counter, so a fault plan addresses exactly the same (lane, solve)
//! coordinates whether or not a ladder ran in between — and a
//! forced-non-convergence fault cannot chase its own rescue.

use crate::error::{ConvergenceReport, EngineError, RecoveryRung, Result};
use crate::fault::FaultHandle;
use crate::integrate::IntegCoeffs;
use crate::mna::{MnaSystem, MnaWorkspace, StampInput};
use crate::newton::{newton_solve, NewtonOutcome};
use crate::options::SimOptions;
use crate::stats::SimStats;
use crate::transient::{state_coeffs, HistoryWindow, PointSolution, PointSolver, MAX_NEWTON_ITERS};
use wavepipe_telemetry::EventKind;

/// Initial shunt conductance of the local gmin ramp (matches the DC ladder).
const RAMP_GSHUNT0: f64 = 1e-2;

/// Deep-cut budget of rung 2: quartering cuts below `hmin`, down to
/// `hmin / 64`. `tests/recovery.rs`'s forced-non-convergence bursts
/// complete through the ladder with this budget; no other value was swept.
const RECOVERY_DEEP_CUTS: usize = 3;

/// Options used for every rescue solve: solver caches pinned off (the stamp
/// re-evaluates every device and reassembles the full matrix), and fault
/// injection detached so a rescue cannot be re-faulted.
fn rescue_options(opts: &SimOptions) -> SimOptions {
    SimOptions {
        bypass: false,
        chord_newton: false,
        companion_cache: false,
        faults: FaultHandle::none(),
        ..opts.clone()
    }
}

/// Worst-residual forensics for a failed Newton solve: evaluates
/// `rhs - A x` against the workspace's last stamped system and names the
/// unknown where it is largest (node name, or `i(<element>)` for branch
/// currents). Non-finite residual entries rank above everything finite.
pub(crate) fn residual_report(sys: &MnaSystem, ws: &MnaWorkspace, x: &[f64]) -> ConvergenceReport {
    let mut report = ConvergenceReport::default();
    let n = ws.rhs.len();
    if x.len() != n || n == 0 {
        return report;
    }
    let mut resid = vec![0.0; n];
    if ws.matrix.residual_into(x, &ws.rhs, &mut resid).is_err() {
        return report;
    }
    let mag = |v: f64| if v.is_nan() { f64::INFINITY } else { v.abs() };
    let mut worst = 0usize;
    for (i, &r) in resid.iter().enumerate() {
        if mag(r) > mag(resid[worst]) {
            worst = i;
        }
    }
    let name = if worst < sys.n_nodes() {
        sys.node_name_of(worst).to_string()
    } else {
        sys.branch_names()
            .iter()
            .find(|(_, idx)| *idx == worst)
            .map_or_else(|| format!("unknown#{worst}"), |(n, _)| format!("i({n})"))
    };
    report.worst_node = Some(name);
    report.residual = Some(mag(resid[worst]));
    report
}

impl PointSolver {
    /// Runs the recovery ladder at the point after `hw.t()` that the step
    /// controller just gave up on (`h_failed` was the failing stride, `hmin`
    /// the controller's floor, `failed_iters` the iterations the final
    /// regular attempt burned).
    ///
    /// On success returns a fully converged [`PointSolution`] of the *true*
    /// system (never a shunted intermediate) at `hw.t() + h` for some
    /// `h <= hmin`; the caller commits it through the normal accept
    /// machinery and restarts integration. Emits
    /// [`EventKind::RecoveryAttempt`], one [`EventKind::RecoveryRung`] per
    /// rung, and [`EventKind::CachePoisonRollback`] for the rollback.
    ///
    /// # Errors
    ///
    /// * [`EngineError::NoConvergence`] — every rung failed; the report
    ///   carries the worst-residual node, iteration history, and rungs
    ///   tried.
    /// * [`EngineError::Cancelled`] / [`EngineError::DeadlineExceeded`] —
    ///   budget expiry propagates immediately from inside any rung.
    pub(crate) fn rescue_point(
        &mut self,
        hw: &HistoryWindow,
        h_failed: f64,
        hmin: f64,
        failed_iters: usize,
        stats: &mut SimStats,
    ) -> Result<PointSolution> {
        let t0 = hw.t();
        self.opts.probe.emit(t0, EventKind::RecoveryAttempt { h: h_failed });
        let ropts = rescue_options(&self.opts);
        let mut report = ConvergenceReport::default();
        report.iterations_history.push(failed_iters);

        // --- Rung 1: cache-poisoning rollback. ---
        report.rungs_tried.push(RecoveryRung::CacheRollback);
        self.opts.probe.emit(t0, EventKind::CachePoisonRollback);
        self.cache.invalidate();
        self.ws.reset_caches();
        let t_new = t0 + hmin;
        let out = self.rescue_solve(hw, t_new, 0.0, None, &ropts, stats)?;
        report.iterations_history.push(out.iterations);
        let ok = converged_finite(&out);
        self.emit_rung(t0, 1, ok);
        if ok {
            return Ok(self.rescued_solution(hw, t_new, out));
        }

        // --- Rung 2: deep step cuts below the LTE floor. ---
        report.rungs_tried.push(RecoveryRung::DeepCut);
        let mut rescued = None;
        let mut h = hmin;
        for _ in 0..RECOVERY_DEEP_CUTS {
            h *= 0.25;
            let t_new = t0 + h;
            let out = self.rescue_solve(hw, t_new, 0.0, None, &ropts, stats)?;
            report.iterations_history.push(out.iterations);
            if converged_finite(&out) {
                rescued = Some((t_new, out));
                break;
            }
        }
        self.emit_rung(t0, 2, rescued.is_some());
        if let Some((t_new, out)) = rescued {
            return Ok(self.rescued_solution(hw, t_new, out));
        }

        // --- Rung 3: local gmin/gshunt ramp at the step floor. ---
        report.rungs_tried.push(RecoveryRung::GminRamp);
        let t_new = t0 + hmin;
        let mut x = hw.x().to_vec();
        let mut gshunt = RAMP_GSHUNT0;
        let mut last_failed: Option<NewtonOutcome> = None;
        while gshunt >= self.opts.gmin * 0.99 {
            let out = self.rescue_solve(hw, t_new, gshunt, Some(&x), &ropts, stats)?;
            report.iterations_history.push(out.iterations);
            if converged_finite(&out) {
                x = out.x;
            } else {
                last_failed = Some(out);
                break;
            }
            gshunt /= 10.0;
        }
        if last_failed.is_none() {
            // Final polish: the true system, warm-started from the ramp.
            let out = self.rescue_solve(hw, t_new, 0.0, Some(&x), &ropts, stats)?;
            report.iterations_history.push(out.iterations);
            let ok = converged_finite(&out);
            self.emit_rung(t0, 3, ok);
            if ok {
                return Ok(self.rescued_solution(hw, t_new, out));
            }
            last_failed = Some(out);
        } else {
            self.emit_rung(t0, 3, false);
        }

        // --- Rung 4: give up, with forensics. ---
        if let Some(out) = &last_failed {
            let detail = residual_report(&self.sys, &self.ws, &out.x);
            report.worst_node = detail.worst_node;
            report.residual = detail.residual;
        }
        Err(EngineError::NoConvergence {
            time: t0,
            iterations: failed_iters,
            report: Box::new(report),
        })
    }

    /// One rescue solve: a companion-integrated Newton solve of the point at
    /// `t_new` under shunt `gshunt`, with all caches disabled and no fault
    /// injection (the solve counter is *not* advanced — see the module docs'
    /// determinism argument).
    fn rescue_solve(
        &mut self,
        hw: &HistoryWindow,
        t_new: f64,
        gshunt: f64,
        guess: Option<&[f64]>,
        ropts: &SimOptions,
        stats: &mut SimStats,
    ) -> Result<NewtonOutcome> {
        let h = t_new - hw.t();
        self.opts.probe.emit(t_new, EventKind::SolveStart { h });
        let method = hw.effective_method(self.opts.method);
        let h_prev = hw.h_prev().unwrap_or(h);
        let coeffs = IntegCoeffs::new(method, h, h_prev);
        let xs = hw.solutions();
        let x_prev2 = if xs.len() >= 2 { &xs[1] } else { &xs[0] };
        let input = StampInput {
            time: t_new,
            coeffs: Some(coeffs),
            x_prev: &xs[0],
            x_prev2,
            cap_currents: hw.cap_currents(),
            gmin: self.opts.gmin,
            gshunt,
            source_scale: 1.0,
            ic_mode: false,
        };
        let guess = match guess {
            Some(g) => g.to_vec(),
            None => hw.predict(t_new),
        };
        let out = newton_solve(
            &self.sys,
            &mut self.ws,
            &mut self.cache,
            &input,
            &guess,
            MAX_NEWTON_ITERS,
            ropts,
            stats,
        )?;
        self.opts.probe.emit(
            t_new,
            EventKind::SolveEnd { iterations: out.iterations as u32, converged: out.converged },
        );
        Ok(out)
    }

    /// Packages a converged rescue solve as a committable [`PointSolution`],
    /// computing capacitor currents against the same history the companion
    /// integration used (exactly as [`PointSolver::solve_point`] does).
    fn rescued_solution(
        &self,
        hw: &HistoryWindow,
        t_new: f64,
        out: NewtonOutcome,
    ) -> PointSolution {
        let method = hw.effective_method(self.opts.method);
        let h = t_new - hw.t();
        let h_prev = hw.h_prev().unwrap_or(h);
        let coeffs = IntegCoeffs::new(method, h, h_prev);
        let sc = state_coeffs(hw, t_new);
        let xs = hw.solutions();
        let x_prev2 = if xs.len() >= 2 { &xs[1] } else { &xs[0] };
        let cap_currents =
            self.sys.cap_currents_after(&sc, &out.x, &xs[0], x_prev2, hw.cap_currents());
        PointSolution {
            t: t_new,
            x: out.x,
            method,
            coeffs,
            converged: true,
            iterations: out.iterations,
            cap_currents,
            stats: SimStats::new(),
        }
    }

    fn emit_rung(&self, t: f64, rung: u32, success: bool) {
        self.opts.probe.emit(t, EventKind::RecoveryRung { rung, success });
    }
}

fn converged_finite(out: &NewtonOutcome) -> bool {
    out.converged && wavepipe_sparse::vector::all_finite(&out.x)
}
