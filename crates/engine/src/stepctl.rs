//! The step controller: every decision about *which* time point to attempt
//! next and whether a solved candidate is kept.
//!
//! There is exactly one implementation, and two loops drive it:
//! [`crate::run_transient`]'s serial loop (which is also every batch
//! instance's loop) and the round planner of `wavepipe-core` (whose slot 0 is
//! the serial point and whose other slots are candidates for the same
//! tests). That is why width-1 pipelining *is* the serial run and
//! why a pipelined point is never less accurate than a serial one: the
//! breakpoint snapping, the Newton-reject shrink, the LTE accept/reject with
//! its backward-Euler escape, the accept itself and the restart after a
//! source corner are the same lines of code, not mirrored copies.

use crate::error::{EngineError, Result};
use crate::lte::lte_step_control;
use crate::options::SimOptions;
use crate::result::TransientResult;
use crate::stats::SimStats;
use crate::transient::{HistoryWindow, PointSolution, PointSolver};
use std::sync::Arc;
use wavepipe_sparse::vector::all_finite;
use wavepipe_telemetry::EventKind;

/// Step shrink factor on a Newton failure of the base point.
const NR_SHRINK: f64 = 0.125;

/// Outcome of testing one solved candidate against the history
/// ([`StepController::try_commit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Commit {
    /// The point was accepted and is now the newest history point.
    Accepted {
        /// Proposed next step (already the controller's base step).
        h_next: f64,
        /// `h_next` relative to the stride the point used (`rmax` while the
        /// history is too short for an LTE estimate).
        growth: f64,
        /// LTE error ratio of the point, floored at `1e-9` (which is also
        /// what a point accepted without an estimate reports).
        ratio: f64,
    },
    /// Rejected by the LTE test; `h_retry` is the suggested retry stride.
    RejectedLte {
        /// Suggested retry step.
        h_retry: f64,
    },
    /// Newton did not converge.
    RejectedNewton,
    /// Newton converged onto non-finite values. For the point the serial
    /// engine would have attempted this ends the run
    /// ([`EngineError::NumericalBlowup`]); a speculative candidate is merely
    /// discarded.
    NonFinite,
}

/// Step control for one transient run: the analysis window, the breakpoint
/// cursor, the accepted history, the current base step, and the waveform and
/// statistics accumulated so far.
#[derive(Debug)]
pub struct StepController {
    opts: SimOptions,
    tstep: f64,
    tstop: f64,
    hmin: f64,
    hmax: f64,
    bps: Vec<f64>,
    next_bp: usize,
    hw: HistoryWindow,
    /// Base step proposal for the next point.
    h: f64,
    /// Consecutive LTE rejections of the base point at one position: the
    /// signature of an h-independent error floor (trapezoidal ringing,
    /// solver-noise-dominated divided differences).
    lte_reject_streak: usize,
    /// Divided-difference table of the LTE test, kept from point to point.
    lte_table: Vec<f64>,
    result: TransientResult,
    stats: SimStats,
}

impl StepController {
    /// Validates the window, solves the `t = 0` state on `solver` and arms
    /// the wall-clock budget — after the initial solve, so even a zero budget
    /// yields the `t = 0` point. `opts` are the options the controller's own
    /// decisions, events and metrics use.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadParameter`] for a non-positive or non-finite
    /// `tstep`/`tstop`, or an `rmax` that is non-finite or below 1 (a step
    /// ratio cap that forbids holding the step); otherwise whatever
    /// the DC operating point or `use_ic` initial state reports.
    pub fn start(
        solver: &mut PointSolver,
        tstep: f64,
        tstop: f64,
        opts: &SimOptions,
    ) -> Result<Self> {
        if !(tstop > 0.0 && tstop.is_finite()) {
            return Err(EngineError::BadParameter { name: "tstop", value: tstop });
        }
        if !(tstep > 0.0 && tstep.is_finite()) {
            return Err(EngineError::BadParameter { name: "tstep", value: tstep });
        }
        if !(opts.rmax >= 1.0 && opts.rmax.is_finite()) {
            return Err(EngineError::BadParameter { name: "rmax", value: opts.rmax });
        }
        let sys = Arc::clone(&solver.sys);
        let mut stats = SimStats::new();
        let mut result = TransientResult::new(sys.n_unknowns(), sys.node_names().to_vec());
        result.set_branch_names(sys.branch_names().to_vec());
        let x0 = solver.initial_state(&mut stats)?;
        result.push(0.0, &x0);
        opts.arm_deadline();
        let (hmin, hmax) = (opts.hmin(tstop), opts.hmax(tstop));
        Ok(StepController {
            opts: opts.clone(),
            tstep,
            tstop,
            hmin,
            hmax,
            bps: sys.breakpoints(tstop),
            next_bp: 0,
            hw: HistoryWindow::start(x0, sys.cap_state_count()),
            h: tstep.min(hmax).min(tstop / 100.0).max(hmin),
            lte_reject_streak: 0,
            lte_table: Vec::new(),
            result,
            stats,
        })
    }

    /// The accepted history every next solve integrates from.
    pub fn history(&self) -> &HistoryWindow {
        &self.hw
    }

    /// Latest accepted time.
    pub fn t(&self) -> f64 {
        self.hw.t()
    }

    /// The current base step proposal.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Smallest step the LTE controller may take.
    pub fn hmin(&self) -> f64 {
        self.hmin
    }

    /// Largest step.
    pub fn hmax(&self) -> f64 {
        self.hmax
    }

    /// Work and step counters so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The running counters, for the work of solves the caller ran.
    pub fn stats_mut(&mut self) -> &mut SimStats {
        &mut self.stats
    }

    /// `true` once the history reached `tstop`.
    pub fn done(&self) -> bool {
        self.hw.t() >= self.tstop - 0.5 * self.hmin
    }

    /// Cancellation token / deadline check at the current time.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] or [`EngineError::DeadlineExceeded`].
    pub fn check_budget(&self) -> Result<()> {
        self.opts.check_budget(self.hw.t())
    }

    /// Clamps the base step into `[hmin, hmax]` and returns it.
    ///
    /// # Errors
    ///
    /// [`EngineError::NumericalBlowup`] when the proposal is not finite.
    pub fn base_step(&mut self) -> Result<f64> {
        if !self.h.is_finite() {
            return Err(EngineError::NumericalBlowup { time: self.hw.t() });
        }
        self.h = self.h.clamp(self.hmin, self.hmax);
        Ok(self.h)
    }

    /// The next un-passed breakpoint (`tstop` is the last one). Also moves
    /// the cursor past breakpoints the history has already crossed.
    pub(crate) fn horizon(&mut self) -> f64 {
        while self.next_bp < self.bps.len()
            && self.bps[self.next_bp] <= self.hw.t() + 0.5 * self.hmin
        {
            self.next_bp += 1;
        }
        self.bps.get(self.next_bp).copied().unwrap_or(self.tstop).min(self.tstop)
    }

    /// Snaps a target within half an `hmin` of `limit` (or beyond it) onto
    /// it; says whether it did.
    fn clip(&self, t: f64, limit: f64) -> (f64, bool) {
        if t >= limit - 0.5 * self.hmin {
            (limit, true)
        } else {
            (t, false)
        }
    }

    /// The serial proposal: one clamped base step ahead, snapped onto the
    /// horizon when it reaches it. Returns the target and whether it sits on
    /// the horizon (see [`StepController::land_on_breakpoint`]).
    ///
    /// # Errors
    ///
    /// See [`StepController::base_step`].
    pub(crate) fn propose(&mut self) -> Result<(f64, bool)> {
        let t = self.hw.t() + self.base_step()?;
        let limit = self.horizon();
        Ok(self.clip(t, limit))
    }

    /// Clips an ascending target list at the horizon: the first target to
    /// reach it snaps onto it and the rest are dropped. Returns the clipped
    /// list and whether its last target sits on the horizon.
    pub fn clip_targets(&mut self, raw: &[f64]) -> (Vec<f64>, bool) {
        let limit = self.horizon();
        let mut out = Vec::with_capacity(raw.len());
        for &t in raw {
            let (t, hit) = self.clip(t, limit);
            out.push(t);
            if hit {
                return (out, true);
            }
        }
        (out, false)
    }

    /// The commit test every accepted point passes, whichever loop solved
    /// it: Newton convergence, finiteness, and the LTE accept/reject against
    /// the current history with the stride the candidate *actually*
    /// integrated over. An accepted point joins the history and the waveform
    /// and its step proposal becomes the base step; a rejection changes
    /// nothing — what follows from it depends on whose point it was.
    pub fn try_commit(&mut self, sol: &PointSolution) -> Commit {
        if !sol.converged {
            return Commit::RejectedNewton;
        }
        if !all_finite(&sol.x) {
            return Commit::NonFinite;
        }
        let needed = sol.method.order() + 1;
        let h_used = sol.coeffs.h;
        let (h_next, growth, ratio) = if self.hw.usable_for_lte() >= needed {
            let d = lte_step_control(
                sol.method,
                sol.t,
                &sol.x,
                h_used,
                &self.hw.times()[..needed],
                &self.hw.solutions()[..needed],
                &self.opts,
                &mut self.lte_table,
            );
            if !d.accept && h_used > self.hmin * 1.01 {
                return Commit::RejectedLte { h_retry: d.h_new };
            }
            self.lte_reject_streak = 0;
            (d.h_new, (d.h_new / h_used).max(0.1), d.ratio.max(1e-9))
        } else {
            (h_used * self.opts.rmax, self.opts.rmax, 1e-9)
        };
        self.accept(sol, h_next);
        Commit::Accepted { h_next, growth, ratio }
    }

    fn accept(&mut self, sol: &PointSolution, h_next: f64) {
        self.opts.tally(&mut self.stats, sol.t, EventKind::PointAccepted { h: sol.coeffs.h });
        self.hw.accept(sol);
        self.result.push(sol.t, &sol.x);
        self.h = h_next;
    }

    /// LTE rejection of the base point: retry with the proposed stride — or,
    /// on either signature of an error floor the step cannot buy out of
    /// (several rejections in a row, or a rejection while already crawling
    /// far below the natural step scale), keep the stride and restart
    /// integration with damped backward Euler: the estimate is then
    /// dominated by point-to-point artifacts that shrinking `h` cannot fix.
    pub fn base_lte_reject(&mut self, h_attempt: f64, h_retry: f64) {
        self.retry(false);
        self.lte_reject_streak += 1;
        let crawling = h_attempt < self.hmin * 1e3;
        if self.lte_reject_streak >= 3 || crawling {
            self.hw.mark_discontinuity();
            self.lte_reject_streak = 0;
            self.h = h_attempt;
        } else {
            self.h = h_retry;
        }
    }

    /// LTE rejection of a candidate *beyond* the base point: the accepted
    /// prefix stands, and the retry proposal — relative to the candidate's
    /// longer stride — may only lower the base step.
    pub fn cap_step(&mut self, h_retry: f64) {
        self.h = self.h.min(h_retry).max(self.hmin);
    }

    /// LTE rejection of a refined speculative point: it was solved against
    /// the true history, so it counts as a rejected step and its retry
    /// stride is the next base step.
    pub fn spec_lte_reject(&mut self, h_retry: f64) {
        self.retry(false);
        self.h = h_retry;
    }

    /// Newton failure on the base point: shrink the step. Returns `true`
    /// when the retry would fall below `hmin` — the point where the serial
    /// loop enters [`StepController::rescue`].
    pub fn newton_reject(&mut self, h_attempt: f64) -> bool {
        self.retry(true);
        self.h = h_attempt * NR_SHRINK;
        self.h < self.hmin
    }

    /// Counts a step the run retries: Newton failed, or (`newton` false) LTE.
    fn retry(&mut self, newton: bool) {
        let t = self.hw.t();
        self.opts.tally(&mut self.stats, t, EventKind::StepRetry { newton });
    }

    /// The step collapsed below the floor ([`StepController::newton_reject`]
    /// said so): run the recovery ladder on `solver` instead of giving up. A
    /// rescued point is a fully converged true-system solution; it is
    /// accepted like any other (LTE cannot reject a step at or below `hmin`)
    /// and integration restarts cautiously from the floor. Returns the
    /// ladder's work, which is already in the running counters.
    ///
    /// # Errors
    ///
    /// * [`EngineError::NoConvergence`] when every rung failed.
    /// * Budget errors propagating out of a rescue solve.
    pub fn rescue(
        &mut self,
        solver: &mut PointSolver,
        h_attempt: f64,
        failed_iters: usize,
    ) -> Result<SimStats> {
        let mut work = SimStats::new();
        let rescued = solver.rescue_point(&self.hw, h_attempt, self.hmin, failed_iters, &mut work);
        self.stats += work;
        let rescued = rescued?;
        self.accept(&rescued, self.hmin);
        self.hw.mark_discontinuity();
        self.lte_reject_streak = 0;
        Ok(work)
    }

    /// The target that sat on the horizon was committed: if the horizon was
    /// a source breakpoint, restart integration (backward Euler, LTE window
    /// emptied) and approach the corner's far side cautiously.
    pub fn land_on_breakpoint(&mut self) {
        let t = self.hw.t();
        if self.next_bp < self.bps.len() && (self.bps[self.next_bp] - t).abs() <= 0.5 * self.hmin {
            self.next_bp += 1;
            self.hw.mark_discontinuity();
            let to_next = self.bps.get(self.next_bp).map_or(self.tstop - t, |&b| b - t);
            self.h = self.h.min(self.tstep * 0.25).min((to_next * 0.25).max(self.hmin));
        }
    }

    /// Ends the run: the waveform with the final counters (and the caller's
    /// wall clock) attached.
    pub fn finish(mut self, wall_ns: u128) -> TransientResult {
        self.stats.wall_ns = wall_ns;
        self.result.set_stats(self.stats);
        self.result
    }
}
