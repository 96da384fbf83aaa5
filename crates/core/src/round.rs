//! The round as a state machine, and the only module that decides: every
//! pipelining scheme is one [`Round`] under a different [`Plan`].
//!
//! A round launches up to `ladder + chain` concurrent solves from the
//! history accepted up to `t_n`, with base step `h` and lead growth `g`:
//!
//! ```text
//!   backward ladder, all from the accepted history at t_n
//!   t_1 = t_n + h            (what serial would compute — slot 0)
//!   t_2 = t_1 + g*h          (the point serial would compute NEXT)
//!   ...
//!   forward chain, each link from a history that ends in a PREDICTION
//!   t_{L+1} = t_L + s*gap    (history: t_n's plus predicted x(t_L))
//! ```
//!
//! Ladder points need only accepted history, so they are independent; each
//! commits under the step controller's Newton and LTE tests with its true
//! stride, so an over-ambitious lead is simply discarded. A chain link whose
//! prediction was close (within [`FP_ACCEPT_FACTOR`] times the Newton
//! tolerance) is re-solved against the true history from its speculative
//! iterate under [`FP_REFINE_ITERS`] iterations; otherwise it and every link
//! after it is discarded. Every committed point is the converged solution of
//! the true equations on the true history. Width 1 is `(1, 0)` under every
//! scheme ([`Plan::of`]): slot 0 alone, which is the serial step loop
//! decision for decision (DESIGN.md invariant 6).
//!
//! **The machine.** [`Round::plan`] returns a round's tasks; their results
//! come back through [`Round::offer`] in any order, and [`Round::close`]
//! ends the round. `offer` commits as soon as a left prefix of slots is in
//! and holds an early reply until then; a lost slot truncates everything
//! right of it; every event is emitted in slot order, at commit time. The
//! machine owns no thread, channel or clock, so a test can feed it every
//! arrival order.

use crate::options::{Scheme, WavePipeOptions};
use crate::report::WavePipeReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use wavepipe_engine::transient::MAX_NEWTON_ITERS;
use wavepipe_engine::{
    panic_message, Commit, EngineError, HistoryWindow, PointSolution, PointSolver, Result,
    SimOptions, SimStats, SolverHandle, StepController,
};
use wavepipe_sparse::vector::wrms_norm;
use wavepipe_telemetry::{DiscardReason, EventKind};

/// Forward pipelining's pre-filter: a link whose prediction lies further
/// than this multiple of the Newton tolerance (node voltages only) from the
/// point that landed is discarded without a refinement attempt. Predictions
/// at LTE-chosen steps measured routinely 10–50x the tolerance, so the
/// filter is deliberately loose; the real gate is [`FP_REFINE_ITERS`].
const FP_ACCEPT_FACTOR: f64 = 200.0;

/// Newton iteration budget for refining a speculative link against the true
/// history: a warm start that cannot converge within it was not close enough
/// to pay off. Figure D (EXPERIMENTS.md E8, `amp_chain(2)` Forward x2): a
/// budget of 2 rejected warm starts that would have converged (accept rate
/// 35 % against 54 %), and 8 read the same as 4.
const FP_REFINE_ITERS: usize = 4;

/// What one round launches: `ladder` concurrent points on the accepted
/// history (slot 0 is the serial point, the rest are leads) and `chain`
/// speculative links past the last of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Plan {
    pub ladder: usize,
    pub chain: usize,
}

impl Plan {
    /// The plan a scheme plays at `width` lanes.
    pub(crate) fn of(scheme: Scheme, width: usize) -> Plan {
        match scheme {
            Scheme::Forward => Plan { ladder: 1, chain: width.saturating_sub(1) },
            // No spare lane to speculate with below three.
            Scheme::Combined if width >= 3 => Plan { ladder: width - 1, chain: 1 },
            _ => Plan { ladder: width.max(1), chain: 0 },
        }
    }
}

/// One point solve of a round: slot `i` of [`Round::plan`]'s list.
#[derive(Clone)]
pub(crate) struct Task {
    /// History window the solve integrates from (true or speculative);
    /// tasks integrating from the same window share one snapshot.
    pub hw: Arc<HistoryWindow>,
    /// Target time.
    pub t: f64,
}

/// The round in flight: its targets, the replies offered so far, and how far
/// the commit walk has got.
#[derive(Default)]
struct Open {
    targets: Vec<f64>,
    /// Slots below this are ladder points, the rest chain links.
    n_ladder: usize,
    /// Whether the last target sits on the horizon.
    hit: bool,
    /// Each link's prediction of the point before it.
    predictions: Vec<Vec<f64>>,
    /// Each slot's reply once offered and not yet walked; an error lost it.
    replies: Vec<Option<Result<PointSolution>>>,
    /// The slot the walk commits next; every slot left of it is walked.
    next: usize,
    /// A rejection ended the commits: later leads are dropped and later
    /// links discarded as [`DiscardReason::ChainBroken`].
    stopped: bool,
    /// A slot was lost: every later reply is discarded, uncounted.
    broken: bool,
    /// Targets committed, and rescued points (which land on no target).
    committed: usize,
    rescued: usize,
    /// The costliest reply so far, already on the critical path.
    max_work: u64,
    max_ns: u128,
}

/// The per-run decision machine: step control, the lead lane's solver, lead
/// placement, the counters and the critical path.
pub(crate) struct Round {
    /// Solves slot 0, the chain refinements and the rescues.
    lead: PointSolver,
    wp: WavePipeOptions,
    /// Step control; slot 0 of every round is its serial point.
    ctl: StepController,
    /// LTE growth and error ratio (<= 1) of the last accepted point: the
    /// forward stride rule and lead placement read them.
    last_growth: f64,
    last_ratio: f64,
    /// Moving average of the lead accept rate, and the hysteresis state it
    /// drives: deep ladders and speculation (flips at 0.45 up / 0.25 down).
    lead_ema: f64,
    deep_mode: bool,
    critical_work: u64,
    /// Critical-path solve time since the operating point.
    critical_ns: u128,
    rounds: usize,
    lead_accepted: usize,
    lead_rejected: usize,
    spec_accepted: usize,
    spec_rejected: usize,
    open: Open,
}

impl Round {
    /// Solves the operating point on `lead` and arms step control.
    ///
    /// # Errors
    ///
    /// See [`StepController::start`].
    pub(crate) fn start(
        mut lead: PointSolver,
        tstep: f64,
        tstop: f64,
        wp: &WavePipeOptions,
    ) -> Result<Self> {
        let ctl = StepController::start(&mut lead, tstep, tstop, &wp.sim)?;
        Ok(Round {
            lead,
            wp: wp.clone(),
            last_growth: 1.0,
            last_ratio: 0.5,
            lead_ema: 0.5,
            deep_mode: true,
            critical_work: ctl.stats().work_units(),
            critical_ns: 0,
            ctl,
            rounds: 0,
            lead_accepted: 0,
            lead_rejected: 0,
            spec_accepted: 0,
            spec_rejected: 0,
            open: Open::default(),
        })
    }

    /// The options the other lanes solve with: under a direct solver they
    /// adopt the lead's LU plan (one plan per run, under the pivot check); a
    /// solver the caller chose is left as it is.
    pub(crate) fn lane_options(&self) -> SimOptions {
        let mut sim = self.wp.sim.clone();
        if let Some(plan) = self.lead.shared_plan().filter(|_| sim.solver.is_direct()) {
            sim.solver = SolverHandle::adopting(plan);
        }
        sim
    }

    /// `true` once the history reached `tstop`.
    pub(crate) fn done(&self) -> bool {
        self.ctl.done()
    }

    /// Opens a round: checks the budget, builds the targets (the ladder,
    /// then links under the forward stride rule) and returns one task per
    /// slot. Slot 0 is [`Round::solve_lead`]'s; every slot is then offered.
    ///
    /// # Errors
    ///
    /// Budget errors, and a non-finite base step.
    pub(crate) fn plan(&mut self, plan: Plan) -> Result<Vec<Task>> {
        self.ctl.check_budget()?;
        self.ctl.base_step()?;
        let (hmin, hmax) = (self.ctl.hmin(), self.ctl.hmax());
        // Ladder, full width in deep mode (sustained growth phases), at most
        // two wide otherwise.
        let (mut targets, mut gap) = self.backward_ladder(plan.ladder);
        let ladder_len = targets.len();
        // A plan with leads speculates past them only while the ladder
        // actually has some and leads themselves are paying (growth phases,
        // tracked by the lead accept-rate EMA): in error-bound operation the
        // speculation commits sub-optimal strides and pays a sequential
        // refinement each round — a measured net loss.
        let chain =
            if plan.ladder > 1 && !(self.deep_mode && ladder_len >= 2) { 0 } else { plan.chain };
        // Chain strides follow the trajectory serial would take: the recent
        // LTE growth prediction. In Figure D (E8) twice that stride collapsed
        // the accept rate (54 % → 19 %); half of it modeled 0.99x against
        // 0.96x, a critical-path model's gain never measured on the clock.
        let stride = self.last_growth.clamp(1.0, self.wp.sim.rmax);
        let mut t = targets[ladder_len - 1];
        for _ in 0..chain {
            gap = (gap * stride).clamp(hmin, hmax);
            t += gap;
            targets.push(t);
        }
        let (targets, hit) = self.ctl.clip_targets(&targets);
        let width = targets.len() as u32;
        self.wp.sim.probe.emit(self.ctl.t(), EventKind::RoundStart { width });
        let n_ladder = targets.len().min(ladder_len);

        // Ladder tasks share one snapshot of the true history; each chain
        // link gets the window before it advanced by a *predicted* point.
        let mut window = Arc::new(self.ctl.history().clone());
        let mut tasks: Vec<Task> =
            targets[..n_ladder].iter().map(|&t| Task { hw: Arc::clone(&window), t }).collect();
        let mut predictions = Vec::with_capacity(targets.len() - n_ladder);
        for link in n_ladder..targets.len() {
            let t_prev = targets[link - 1];
            let x_pred = window.predict(t_prev);
            window = Arc::new(window.speculate(self.lead.system(), t_prev, x_pred.clone()));
            predictions.push(x_pred);
            tasks.push(Task { hw: Arc::clone(&window), t: targets[link] });
        }
        let mut replies = std::mem::take(&mut self.open.replies);
        replies.clear();
        replies.resize_with(targets.len(), || None);
        self.open = Open { targets, n_ladder, hit, predictions, replies, ..Open::default() };
        Ok(tasks)
    }

    /// Solves slot 0 on the lead lane. Offer the result like any other.
    pub(crate) fn solve_lead(&mut self, task: &Task) -> Result<PointSolution> {
        lead_solve(&mut self.lead, &task.hw, task.t, None, MAX_NEWTON_ITERS)
    }

    /// Hands in slot `slot`'s result, charged at once. It commits once every
    /// slot left of it is in, and so do the held slots right of it.
    ///
    /// # Errors
    ///
    /// A slot-0 error (any other slot's error only loses the slot), and the
    /// serial engine's failures at commit: a non-finite base point, a failed
    /// rescue, a lost lead lane in a refinement. They end the round.
    pub(crate) fn offer(&mut self, slot: usize, reply: Result<PointSolution>) -> Result<()> {
        let reply = match reply {
            Err(e) if slot == 0 => return Err(e),
            reply => reply,
        };
        if let Ok(sol) = &reply {
            self.charge(&sol.stats);
        }
        self.open.replies[slot] = Some(reply);
        while let Some(reply) = self.open.replies.get_mut(self.open.next).and_then(Option::take) {
            let slot = self.open.next;
            self.open.next += 1;
            match reply {
                Ok(sol) => self.walk(slot, sol)?,
                Err(_) => {
                    self.open.broken = true;
                    self.discard(self.open.targets[slot], slot, DiscardReason::WorkerLost);
                }
            }
        }
        Ok(())
    }

    /// Ends the round, once every slot has been offered: lands on the
    /// horizon if its target committed. Returns the points committed.
    pub(crate) fn close(&mut self) -> usize {
        let open = &self.open;
        debug_assert_eq!(open.next, open.targets.len(), "a slot was never offered");
        // The horizon target is always last in the clipped list, so landing
        // happened iff every target committed.
        if open.hit && open.committed == open.targets.len() {
            self.ctl.land_on_breakpoint();
        }
        let committed = open.committed + open.rescued;
        self.wp.sim.probe.emit(self.ctl.t(), EventKind::RoundEnd { committed: committed as u32 });
        committed
    }

    /// Packages the run into a report, `wall_ns` long, with an empty ledger.
    pub(crate) fn finish(self, wall_ns: u128) -> WavePipeReport {
        let result = self.ctl.finish(wall_ns);
        WavePipeReport {
            total: *result.stats(),
            result,
            scheme: self.wp.scheme,
            threads: self.wp.threads,
            rounds: self.rounds,
            critical_work: self.critical_work,
            critical_ns: self.critical_ns,
            dispatch_ns: 0,
            lead_ns: 0,
            wait_ns: 0,
            commit_ns: 0,
            lead_accepted: self.lead_accepted,
            lead_rejected: self.lead_rejected,
            speculation_accepted: self.spec_accepted,
            speculation_rejected: self.spec_rejected,
            workers_lost: 0,
        }
    }

    /// Adds a reply's cost to the run's totals, and whatever it adds to the
    /// round's costliest reply to the critical path.
    fn charge(&mut self, cost: &SimStats) {
        *self.ctl.stats_mut() += *cost;
        let open = &mut self.open;
        self.critical_work += cost.work_units().saturating_sub(open.max_work);
        self.critical_ns += cost.wall_ns.saturating_sub(open.max_ns);
        open.max_work = open.max_work.max(cost.work_units());
        open.max_ns = open.max_ns.max(cost.wall_ns);
    }

    /// Walks one solved slot, every slot left of it walked already.
    fn walk(&mut self, slot: usize, sol: PointSolution) -> Result<()> {
        if self.open.broken {
            // An earlier slot is missing, and commits walk left to right.
            self.discard(sol.t, slot, DiscardReason::ChainBroken);
            return Ok(());
        }
        if slot == 0 {
            self.rounds += 1;
        }
        let link = slot >= self.open.n_ladder;
        if !self.open.stopped {
            return if link {
                self.commit_link(slot, &sol)
            } else {
                self.commit_ladder(slot, &sol)
            };
        }
        if link {
            self.spec_rejected += 1;
            self.discard(sol.t, slot, DiscardReason::ChainBroken);
        }
        Ok(())
    }

    /// Commits a ladder slot under the step controller's tests. Slot 0 is
    /// the point the serial loop would have attempted and gets the serial
    /// loop's treatment on rejection; a rejected lead is discarded. Either
    /// rejection stops the round's commits.
    fn commit_ladder(&mut self, slot: usize, sol: &PointSolution) -> Result<()> {
        let h_attempt = sol.coeffs.h;
        let commit = self.try_commit(sol);
        if let Commit::Accepted { .. } = commit {
            self.open.committed += 1;
            if slot > 0 {
                self.lead_accepted += 1;
                self.note_lead(true);
                self.wp.sim.probe.emit(sol.t, EventKind::LeadAccepted);
            }
            return Ok(());
        }
        self.open.stopped = true;
        let reason = match commit {
            Commit::RejectedLte { h_retry } if slot == 0 => {
                self.ctl.base_lte_reject(h_attempt, h_retry);
                return Ok(());
            }
            Commit::RejectedNewton if slot == 0 => {
                // The controller shrinks the step, and once that falls below
                // the floor runs the serial loop's recovery ladder on the
                // lead lane: inherently sequential work.
                if self.ctl.newton_reject(h_attempt) {
                    let work = self.ctl.rescue(&mut self.lead, h_attempt, sol.iterations)?;
                    self.critical_work += work.work_units();
                    self.critical_ns += work.wall_ns;
                    self.open.rescued = 1;
                }
                return Ok(());
            }
            Commit::NonFinite if slot == 0 => {
                return Err(EngineError::NumericalBlowup { time: sol.t });
            }
            Commit::RejectedLte { h_retry } => {
                self.ctl.cap_step(h_retry);
                DiscardReason::LteRejected
            }
            _ => DiscardReason::NewtonRejected,
        };
        self.lead_rejected += 1;
        self.note_lead(false);
        self.wp.sim.probe.emit(sol.t, EventKind::LeadDiscarded { reason });
        Ok(())
    }

    /// Commits a chain link once everything left of it has: validate its
    /// prediction against the point that landed, refine against the true
    /// history, commit. A link that fails stops the round's commits.
    fn commit_link(&mut self, slot: usize, spec: &PointSolution) -> Result<()> {
        let predicted = &self.open.predictions[slot - self.open.n_ladder];
        let reason = if !spec.converged {
            DiscardReason::Unconverged
        } else if !self.prediction_close(predicted) {
            DiscardReason::PredictionFar
        } else {
            // Refine against the TRUE history, warm-started from the
            // speculative iterate, under a short iteration budget — if the
            // warm start cannot converge within it, the speculation was not
            // close enough to pay off. Sequential: on the critical path.
            let hw = self.ctl.history();
            let refined = lead_solve(&mut self.lead, hw, spec.t, Some(&spec.x), FP_REFINE_ITERS)?;
            *self.ctl.stats_mut() += refined.stats;
            self.critical_work += refined.stats.work_units();
            self.critical_ns += refined.stats.wall_ns;
            if !refined.converged {
                // Not an error and not a step problem: the point will be
                // solved cold as the next round's base at the current step.
                DiscardReason::RefineBudget
            } else {
                match self.try_commit(&refined) {
                    Commit::Accepted { .. } => {
                        self.open.committed += 1;
                        self.spec_accepted += 1;
                        self.wp.sim.probe.emit(refined.t, EventKind::SpeculationAccepted);
                        return Ok(());
                    }
                    Commit::RejectedLte { h_retry } => {
                        self.ctl.spec_lte_reject(h_retry);
                        DiscardReason::LteRejected
                    }
                    Commit::RejectedNewton | Commit::NonFinite => DiscardReason::NewtonRejected,
                }
            }
        };
        self.open.stopped = true;
        self.spec_rejected += 1;
        self.discard(spec.t, slot, reason);
        Ok(())
    }

    /// Emits a slot's discard: [`EventKind::LeadDiscarded`] on the ladder,
    /// [`EventKind::SpeculationDiscarded`] on the chain.
    fn discard(&self, t: f64, slot: usize, reason: DiscardReason) {
        let kind = if slot >= self.open.n_ladder {
            EventKind::SpeculationDiscarded { reason }
        } else {
            EventKind::LeadDiscarded { reason }
        };
        self.wp.sim.probe.emit(t, kind);
    }

    /// [`StepController::try_commit`], plus what the lanes want to know
    /// about an accepted point: its growth and error ratio place the next
    /// round's leads.
    fn try_commit(&mut self, sol: &PointSolution) -> Commit {
        let commit = self.ctl.try_commit(sol);
        if let Commit::Accepted { growth, ratio, .. } = commit {
            self.last_growth = growth;
            self.last_ratio = ratio;
        }
        commit
    }

    /// Builds the backward target ladder from the current time: gaps start
    /// at the base step and stretch by [`lead_growth`] up to `hmax`. Every
    /// lead is launched, however far past the LTE boundary: in Figure D2 no
    /// finite stride budget beat an unlimited one (EXPERIMENTS.md E8). Also
    /// returns the last rung's gap, which a speculative chain strides on from.
    fn backward_ladder(&self, width: usize) -> (Vec<f64>, f64) {
        let growth =
            lead_growth(self.last_ratio, self.wp.sim.rmax, self.wp.sim.method.order() as f64);
        // Ladder depth scales with how well leads have been paying: one
        // lottery lead is near-free on the critical path, but deep ladders
        // only earn their keep in sustained growth phases (hysteresis on
        // the lead-EMA avoids flapping at the threshold).
        let width = if self.deep_mode { width } else { width.min(2) };
        let mut targets = Vec::with_capacity(width);
        let mut t = self.ctl.t();
        let mut gap = self.ctl.h();
        let mut last_gap = gap;
        for _ in 0..width {
            t += gap;
            targets.push(t);
            last_gap = gap;
            gap = (gap * growth).min(self.ctl.hmax());
        }
        (targets, last_gap)
    }

    /// Records a lead-point outcome in the accept-rate EMA.
    fn note_lead(&mut self, accepted: bool) {
        const ALPHA: f64 = 0.08;
        let x = if accepted { 1.0 } else { 0.0 };
        self.lead_ema = (1.0 - ALPHA) * self.lead_ema + ALPHA * x;
        if self.lead_ema > 0.45 {
            self.deep_mode = true;
        } else if self.lead_ema < 0.25 {
            self.deep_mode = false;
        }
        let state = EventKind::LeadEma { ema: self.lead_ema, deep: self.deep_mode };
        self.wp.sim.probe.emit(self.ctl.t(), state);
    }

    /// Pre-filter: `true` if a prediction was close enough to the point that
    /// landed (the newest in the history) to be worth refining. Compares
    /// **node voltages only**: branch currents of sources can jump and carry
    /// no history information.
    fn prediction_close(&self, predicted: &[f64]) -> bool {
        let nn = self.lead.system().n_nodes();
        let truth = &self.ctl.history().x()[..nn];
        let err: Vec<f64> = predicted[..nn].iter().zip(truth).map(|(&p, &t)| p - t).collect();
        wrms_norm(&err, truth, self.wp.sim.reltol, self.wp.sim.vntol) <= FP_ACCEPT_FACTOR
    }
}

/// Lead-placement growth factor, on the step lattice `1`, `√rmax`, `rmax`:
/// the rung below the *LTE boundary* the last accepted point's error ratio
/// predicts (a step grown by `f` scales the ratio by `f^(order+1)`; target
/// 0.9), rounded up to `rmax` from `(1 + rmax)/2` and to `√rmax` from
/// `rmax^(1/4)`. On the lattice lead strides recur, so the lanes' parked
/// factor sets hit; the middle rung keeps the closed-form decks' accuracy
/// (EXPERIMENTS.md E26). In rapid growth phases (ratio ~ 0) this is `rmax`.
pub(crate) fn lead_growth(last_ratio: f64, rmax: f64, order: f64) -> f64 {
    let boundary = (0.9 / last_ratio).powf(1.0 / (order + 1.0));
    if boundary >= (1.0 + rmax) / 2.0 {
        rmax
    } else if boundary >= rmax.powf(0.25) {
        rmax.sqrt()
    } else {
        1.0
    }
}

/// Solves on the lead lane with panic isolation: an unwind out of the solver
/// surfaces as [`EngineError::WorkerLost`] on lane 0 (terminal for the run —
/// the lead solver's state cannot be trusted afterwards) instead of aborting
/// the process.
fn lead_solve(
    lead: &mut PointSolver,
    hw: &HistoryWindow,
    t: f64,
    guess: Option<&[f64]>,
    max_iters: usize,
) -> Result<PointSolution> {
    catch_unwind(AssertUnwindSafe(|| lead.solve_point(hw, t, guess, max_iters))).unwrap_or_else(
        |payload| Err(EngineError::WorkerLost { lane: 0, cause: panic_message(&*payload) }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::lane_solver;
    use crate::{run_wavepipe, verify, WavePipeReport};
    use std::collections::HashSet;
    use wavepipe_circuit::generators::{self, Benchmark};
    use wavepipe_engine::{
        run_transient, FaultPlan, MnaSystem, ProbeHandle, RecordingProbe, TransientResult,
    };
    use wavepipe_telemetry::Event;

    fn serial(b: &Benchmark) -> TransientResult {
        run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap()
    }

    fn run(b: &Benchmark, opts: &WavePipeOptions) -> WavePipeReport {
        run_wavepipe(&b.circuit, b.tstep, b.tstop, opts).unwrap()
    }

    #[test]
    fn plans_cover_the_lanes_they_are_given() {
        for width in 1..=5 {
            for scheme in [Scheme::Backward, Scheme::Forward, Scheme::Combined] {
                let p = Plan::of(scheme, width);
                assert_eq!(p.ladder + p.chain, width, "{scheme} x{width}");
                assert!(p.ladder >= 1, "{scheme} x{width}: slot 0 is always the serial point");
            }
            assert_eq!(Plan::of(Scheme::Backward, width).chain, 0);
            assert_eq!(Plan::of(Scheme::Forward, width).ladder, 1);
            assert_eq!(Plan::of(Scheme::Combined, width).chain, usize::from(width >= 3));
        }
    }

    /// What a run leaves that must not depend on the order replies arrive
    /// in: the waveform's bits, the report's counts, and the event stream
    /// without its clock.
    type Trace = (Vec<u64>, String, Vec<(u64, u32, u64, EventKind)>);

    /// Runs `b` without threads. Lane `i` solves slot `i` on a solver set up
    /// as the pool sets up worker `i - 1`; every round's slots but the lost
    /// ones (bit `i` is slot `i`) are solved, then offered in the order
    /// `schedule` gives for the round's width.
    fn feed(
        b: &Benchmark,
        scheme: Scheme,
        width: usize,
        mut schedule: impl FnMut(usize) -> (Vec<usize>, u32),
    ) -> Trace {
        let rec = RecordingProbe::shared();
        let wp = WavePipeOptions::new(scheme, width)
            .with_faults(FaultPlan::new())
            .with_probe(ProbeHandle::new(rec.clone()));
        let sys = Arc::new(MnaSystem::compile(&b.circuit).unwrap());
        let lead = PointSolver::new(Arc::clone(&sys), wp.sim.clone());
        let mut round = Round::start(lead, b.tstep, b.tstop, &wp).unwrap();
        let sim = round.lane_options();
        let mut lanes: Vec<_> = (1..width).map(|i| lane_solver(&sys, &sim, i as u32)).collect();
        while !round.done() {
            let tasks = round.plan(Plan::of(scheme, width)).unwrap();
            let (order, lost) = schedule(tasks.len());
            let mut replies: Vec<_> = (0..tasks.len())
                .map(|i| {
                    let (hw, t) = (&tasks[i].hw, tasks[i].t);
                    Some(match i {
                        0 => round.solve_lead(&tasks[0]),
                        _ if lost & (1 << i) != 0 => {
                            Err(EngineError::WorkerLost { lane: i as u32, cause: "lost".into() })
                        }
                        _ => lanes[i - 1].solve_point(hw, t, None, MAX_NEWTON_ITERS),
                    })
                })
                .collect();
            for slot in order {
                round.offer(slot, replies[slot].take().unwrap()).unwrap();
            }
            round.close();
        }
        let mut rep = round.finish(0);
        let r = &rep.result;
        let bits = (0..r.len())
            .flat_map(|k| std::iter::once(r.times()[k]).chain(r.solution(k).iter().copied()))
            .map(f64::to_bits)
            .collect();
        (rep.total.wall_ns, rep.total.stamp_ns, rep.critical_ns) = (0, 0, 0);
        rep.result = TransientResult::new(0, Vec::new());
        let events = rec.take_events().into_iter();
        let events = events.map(|e: Event| (e.round, e.lane, e.t_sim.to_bits(), e.kind));
        (bits, format!("{rep:?}"), events.collect())
    }

    #[test]
    fn an_accepted_lead_raises_the_lead_ema_under_any_plan_with_a_ladder() {
        // Combined's copy of the ladder walk used to report only rejected
        // leads, so its EMA could only fall and speculation latched off.
        let b = generators::power_grid(4, 4);
        for (scheme, width) in [(Scheme::Backward, 2), (Scheme::Combined, 3)] {
            let (_, _, events) = feed(&b, scheme, width, |n| ((0..n).collect(), 0));
            let (mut ema, mut seen) = (0.5, 0);
            for pair in events.windows(2) {
                if let EventKind::LeadEma { ema: next, .. } = pair[0].3 {
                    if pair[1].3 == EventKind::LeadAccepted {
                        assert!(next > ema, "{scheme} x{width}: {ema} -> {next}");
                        seen += 1;
                    }
                    ema = next;
                }
            }
            assert!(seen > 0, "{scheme} x{width}: no lead was ever accepted");
        }
    }

    #[test]
    fn commits_do_not_depend_on_reply_order_or_lost_slots() {
        // The 24 orders of four slots; a narrower round keeps the slots it has.
        let orders: Vec<Vec<usize>> = (0..256_usize)
            .map(|k| (0..4).map(|d| (k >> (2 * d)) & 3).collect::<Vec<_>>())
            .filter(|o| (0..4).all(|s| o.contains(&s)))
            .collect();
        let mut widest = [0; 2];
        for b in
            [generators::rc_ladder(30), generators::power_grid(6, 6), generators::diode_rectifier()]
        {
            // Schemes that play one plan at a width (all at x1, Combined and
            // Backward at x2) run it once; x1 has no slot to lose.
            let mut played = HashSet::new();
            for scheme in [Scheme::Backward, Scheme::Forward, Scheme::Combined] {
                for (width, lossy) in (1..=4).flat_map(|w| [(w, false), (w, true)]) {
                    let plan = Plan::of(scheme, width);
                    if !played.insert((plan.ladder, plan.chain, lossy && width > 1)) {
                        continue;
                    }
                    // The i-th round of width n arrives in order i mod 24 and,
                    // lossy, loses subset i mod 8 of slots 1..=3. The reference
                    // is the in-order feed with the same losses.
                    let lost = |i: usize| if lossy { ((i % 8) << 1) as u32 } else { 0 };
                    let mut rounds = [0_usize; 5];
                    let in_order = feed(&b, scheme, width, |n| {
                        rounds[n] += 1;
                        ((0..n).collect(), lost(rounds[n] - 1))
                    });
                    let mut rounds = [0_usize; 5];
                    let shuffled = feed(&b, scheme, width, |n| {
                        let i = rounds[n];
                        rounds[n] += 1;
                        (orders[i % 24].iter().copied().filter(|&s| s < n).collect(), lost(i))
                    });
                    widest[usize::from(lossy)] = widest[usize::from(lossy)].max(rounds[4]);
                    let what = format!("{} {scheme} x{width} lossy {lossy}", b.name);
                    assert_eq!(in_order.0, shuffled.0, "{what}: waveform bits");
                    assert_eq!(in_order.1, shuffled.1, "{what}: report");
                    assert_eq!(in_order.2, shuffled.2, "{what}: events");
                }
            }
        }
        // Some run had every order at width 4, and some lossy run every
        // order and every lost subset.
        assert!(widest[0] >= 24 && widest[1] >= 24, "{widest:?} width-4 rounds");
    }

    #[test]
    fn backward_matches_serial_on_rc_ladder() {
        let b = generators::rc_ladder(8);
        let serial = serial(&b);
        let rep = run(&b, &WavePipeOptions::new(Scheme::Backward, 2));
        let probe = serial.unknown_of(&b.probes[0]).unwrap();
        let dev = serial.max_deviation(&rep.result, probe);
        assert!(dev < 0.02, "deviation vs serial = {dev}");
    }

    #[test]
    fn backward_reduces_critical_path_on_growth_heavy_circuit() {
        // Backward pipelining pays in the step-growth phases after source
        // discontinuities (where serial is limited to one rmax stretch per
        // solve); the pulsed power grid spends most of its time there.
        let b = generators::power_grid(4, 4);
        let rep = run(&b, &WavePipeOptions::new(Scheme::Backward, 2));
        let speedup = rep.modeled_speedup(serial(&b).stats());
        assert!(speedup > 1.3, "modeled speedup = {speedup:.2}");
        assert!(rep.lead_accepted > 0);
    }

    #[test]
    fn one_thread_backward_degenerates_to_serial_behaviour() {
        let b = generators::rc_ladder(6);
        let rep = run(&b, &WavePipeOptions::new(Scheme::Backward, 1));
        assert_eq!(rep.lead_accepted, 0);
        assert_eq!(rep.lead_rejected, 0);
        assert!(rep.result.len() > 10);
    }

    #[test]
    fn backward_handles_nonlinear_circuit() {
        // Pointwise deviation near the diode turn-on knee is dominated by
        // time-grid differences (the serial trap-vs-gear2 "noise floor" is
        // of the same magnitude), so the accuracy assertion uses the RMS
        // metric plus a generous pointwise band.
        let b = generators::diode_rectifier();
        let rep = run(&b, &WavePipeOptions::new(Scheme::Backward, 2));
        let eq = verify::compare(&serial(&b), &rep.result);
        assert!(eq.rms_rel() < 0.01, "rms deviation = {}", eq.rms_rel());
        assert!(eq.max_rel() < 0.10, "max deviation = {}", eq.max_rel());
    }

    #[test]
    fn forward_matches_serial_on_rc_ladder() {
        let b = generators::rc_ladder(8);
        let serial = serial(&b);
        let rep = run(&b, &WavePipeOptions::new(Scheme::Forward, 2));
        let probe = serial.unknown_of(&b.probes[0]).unwrap();
        let dev = serial.max_deviation(&rep.result, probe);
        assert!(dev < 0.02, "deviation vs serial = {dev}");
    }

    #[test]
    fn forward_accepts_speculation_on_smooth_waveforms() {
        let b = generators::amp_chain(1);
        let rep = run(&b, &WavePipeOptions::new(Scheme::Forward, 2));
        let total_spec = rep.speculation_accepted + rep.speculation_rejected;
        assert!(total_spec > 0, "no speculation attempted");
        assert!(
            rep.speculation_accepted as f64 / total_spec as f64 > 0.5,
            "accept rate too low: {}/{}",
            rep.speculation_accepted,
            total_spec
        );
    }

    #[test]
    fn forward_gains_on_newton_heavy_and_never_collapses() {
        // Forward pipelining pays in proportion to the Newton weight of a
        // cold point solve: on a linear circuit NR converges in ~2
        // iterations and the warm-start refinement costs the same, so the
        // best case is parity; on Newton-heavier nonlinear circuits the
        // refinement is cheaper than a cold solve and FP pulls ahead.
        let lin = generators::rc_ladder(8);
        let s_lin = run(&lin, &WavePipeOptions::new(Scheme::Forward, 2))
            .modeled_speedup(serial(&lin).stats());
        assert!(s_lin > 0.80, "linear-circuit FP should stay near parity, got {s_lin:.3}");

        let amp = generators::amp_chain(1);
        let s_amp = run(&amp, &WavePipeOptions::new(Scheme::Forward, 2))
            .modeled_speedup(serial(&amp).stats());
        assert!(s_amp > 1.0, "nonlinear-circuit FP speedup = {s_amp:.3}");
    }

    #[test]
    fn forward_handles_digital_switching() {
        let b = generators::inverter_chain(3);
        let serial = serial(&b);
        let rep = run(&b, &WavePipeOptions::new(Scheme::Forward, 2));
        let probe = serial.unknown_of(&b.probes[0]).unwrap();
        // Digital edges shift slightly between grids; compare peak behaviour
        // and a generous pointwise band rather than exact alignment.
        let peak_s = serial.peak(probe);
        let peak_w = rep.result.peak(rep.result.unknown_of(&b.probes[0]).unwrap());
        assert!((peak_s - peak_w).abs() < 0.2, "peaks differ: {peak_s} vs {peak_w}");
    }

    #[test]
    fn combined_matches_serial_on_rc_ladder() {
        let b = generators::rc_ladder(8);
        let serial = serial(&b);
        let rep = run(&b, &WavePipeOptions::new(Scheme::Combined, 4));
        let probe = serial.unknown_of(&b.probes[0]).unwrap();
        let dev = serial.max_deviation(&rep.result, probe);
        assert!(dev < 0.02, "deviation vs serial = {dev}");
    }

    #[test]
    fn combined_tracks_backward_on_growth_heavy_circuit() {
        // Combined = backward ladder + one speculative point: on a workload
        // where backward pays (pulsed grid), combined must stay in its
        // neighbourhood — the speculation may add or cost a little.
        let b = generators::power_grid(4, 4);
        let serial = serial(&b);
        let s_bwd =
            run(&b, &WavePipeOptions::new(Scheme::Backward, 2)).modeled_speedup(serial.stats());
        let s_cmb =
            run(&b, &WavePipeOptions::new(Scheme::Combined, 4)).modeled_speedup(serial.stats());
        assert!(s_bwd > 1.15, "backward should pay here, got {s_bwd:.2}");
        assert!(s_cmb > s_bwd * 0.75, "combined ({s_cmb:.2}) should track backward ({s_bwd:.2})");
    }

    #[test]
    fn two_thread_combined_falls_back_to_backward() {
        let b = generators::rc_ladder(5);
        let rep = run(&b, &WavePipeOptions::new(Scheme::Combined, 2));
        assert_eq!(rep.scheme, Scheme::Combined);
        assert_eq!(rep.speculation_accepted + rep.speculation_rejected, 0);
    }
}
