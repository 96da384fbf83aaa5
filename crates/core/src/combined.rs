//! Combined backward + forward pipelining.
//!
//! With `p` threads, `p - 1` solve a backward ladder (base point plus
//! enlarged-stride lead points, all from the shared accepted history) and
//! the last thread speculates *forward* past the ladder's lead using a
//! predicted lead solution as history. Backward points commit exactly as in
//! [`crate::backward`]; the forward point is refined against the true
//! history and committed only if the lead prediction held up.

use crate::forward::{prediction_close, speculate_next};
use crate::options::{Scheme, WavePipeOptions};
use crate::pipeline::{drive, usable_prefix, Commit, Driver, Task};
use crate::report::{RunOutcome, WavePipeReport};
use std::sync::Arc;
use wavepipe_circuit::Circuit;
use wavepipe_engine::Result;
use wavepipe_telemetry::{Counter, DiscardReason, EventKind};

/// Runs the combined backward+forward pipelined transient analysis.
///
/// With fewer than 3 threads this degenerates to pure backward pipelining
/// (there is no spare thread to speculate with).
///
/// # Errors
///
/// Same failure modes as the serial engine
/// ([`wavepipe_engine::run_transient`]).
pub fn run_combined(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    wp: &WavePipeOptions,
) -> Result<WavePipeReport> {
    run_combined_recoverable(circuit, tstep, tstop, wp)?.into_result()
}

/// Fault-tolerant variant of [`run_combined`]: a mid-run failure (deadline,
/// cancellation, lead-solver loss) yields the report over the accepted
/// prefix alongside the error.
///
/// # Errors
///
/// Pre-run failures only (bad parameters, compile, DC operating point).
pub fn run_combined_recoverable(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    wp: &WavePipeOptions,
) -> Result<RunOutcome> {
    if wp.width() < 3 {
        let mut out = crate::backward::run_backward_recoverable(circuit, tstep, tstop, wp)?;
        out.report.scheme = Scheme::Combined;
        return Ok(out);
    }
    let mut drv = Driver::new(circuit, tstep, tstop, wp)?;
    let width = wp.width();
    let error = drive(&mut drv, width, combined_round);
    Ok(RunOutcome { report: drv.finish(Scheme::Combined), error })
}

/// One combined round: backward ladder of `width - 1` plus (in growth
/// phases) one forward speculative point. Returns the number of committed
/// points. Worker losses may shrink `width` down to 1 across the run, in
/// which case this degenerates to base-only backward rounds.
///
/// # Errors
///
/// Same failure modes as the serial engine.
pub(crate) fn combined_round(drv: &mut Driver, width: usize) -> Result<usize> {
    let bp_width = width.saturating_sub(1).max(1);
    {
        drv.h = drv.h.clamp(drv.hmin, drv.hmax);
        // Backward ladder (LTE-budget-limited) plus one forward target —
        // but only when the ladder actually has leads: on base-only
        // (error-bound) rounds, speculating ahead commits sub-optimal
        // strides and pays a sequential refinement for each, a measured
        // net loss. Combined therefore degrades to plain backward rounds
        // outside growth phases.
        let mut targets = drv.backward_ladder(bp_width);
        let ladder_len = targets.len();
        // Speculate past the lead only while leads themselves are paying
        // (growth phases, tracked by the lead accept-rate EMA): in
        // error-bound operation the speculation commits sub-optimal strides
        // and pays a sequential refinement each round — a measured net loss.
        let speculate = drv.deep_mode();
        if speculate && ladder_len >= 2 {
            let last = *targets.last().expect("non-empty ladder");
            let prev = targets[ladder_len - 2];
            let fwd_gap = ((last - prev) * drv.wp.fp_stride_factor).clamp(drv.hmin, drv.hmax);
            targets.push(last + fwd_gap);
        }
        let (targets, hit) = drv.clip_targets(&targets);
        drv.wp.sim.probe.emit(drv.hw.t(), EventKind::RoundStart { width: targets.len() as u32 });
        let n_bp_targets = targets.len().min(ladder_len);
        let has_fwd = targets.len() > ladder_len;

        // Backward tasks share one snapshot of the true history; the forward
        // task runs on a lead-speculated window.
        let hw = Arc::new(drv.hw.clone());
        let mut tasks: Vec<Task> = targets[..n_bp_targets]
            .iter()
            .map(|&tt| Task { hw: Arc::clone(&hw), t: tt, guess: None })
            .collect();
        let mut lead_prediction: Option<Vec<f64>> = None;
        if has_fwd {
            let lead_t = targets[n_bp_targets - 1];
            let (spec_hw, pred) = speculate_next(drv, &drv.hw, lead_t);
            lead_prediction = Some(pred);
            tasks.push(Task { hw: Arc::new(spec_hw), t: targets[n_bp_targets], guess: None });
        }

        let sols = drv.solve_round(tasks, drv.wp.sim.max_newton_iters)?;
        // Everything past a lost worker is dropped; ladder slots that went
        // missing simply leave the round short (`committed` stays below
        // `n_bp_targets`, so the forward point is discarded too).
        let (solutions, _truncated) = usable_prefix(drv, sols, n_bp_targets)?;

        // Commit the backward ladder left to right.
        let mut committed = 0usize;
        let mut rescued_commits = 0usize;
        for (i, sol) in solutions[..solutions.len().min(n_bp_targets)].iter().enumerate() {
            let h_attempt = sol.coeffs.h;
            match drv.try_commit(sol) {
                Commit::Accepted { h_next } => {
                    committed += 1;
                    if i > 0 {
                        drv.lead_accepted += 1;
                        drv.wp.sim.probe.emit(sol.t, EventKind::LeadAccepted);
                        drv.wp.sim.metrics.inc(Counter::LeadAccepted);
                    }
                    drv.h = h_next;
                }
                Commit::RejectedLte { h_retry } => {
                    if i == 0 {
                        drv.base_lte_reject(h_attempt, h_retry.max(drv.hmin));
                    } else {
                        drv.lead_rejected += 1;
                        drv.note_lead(false);
                        drv.wp.sim.probe.emit(
                            sol.t,
                            EventKind::LeadDiscarded { reason: DiscardReason::LteRejected },
                        );
                        drv.wp.sim.metrics.inc(Counter::LeadDiscarded);
                        drv.h = drv.h.min(h_retry).max(drv.hmin);
                    }
                    break;
                }
                Commit::RejectedNewton => {
                    if i == 0 {
                        // A rescued point counts toward the round's commits
                        // but is *not* the ladder target, so it must not
                        // mark the ladder complete (the forward window's
                        // speculated history is invalid either way).
                        rescued_commits +=
                            usize::from(drv.newton_backoff(h_attempt, sol.iterations)?);
                    } else {
                        drv.lead_rejected += 1;
                        drv.note_lead(false);
                        drv.wp.sim.probe.emit(
                            sol.t,
                            EventKind::LeadDiscarded { reason: DiscardReason::NewtonRejected },
                        );
                        drv.wp.sim.metrics.inc(Counter::LeadDiscarded);
                    }
                    break;
                }
            }
        }
        let ladder_complete = committed == n_bp_targets;

        // Forward point: valid only if the whole ladder committed and the
        // lead prediction was close to the true lead solution. A truncated
        // round may have dropped the forward slot entirely.
        let mut committed_all = ladder_complete;
        if has_fwd && solutions.len() <= n_bp_targets {
            committed_all = false;
        } else if has_fwd {
            let spec = &solutions[n_bp_targets];
            let lead_true = &solutions[n_bp_targets - 1].x;
            let pred_ok = ladder_complete
                && spec.converged
                && lead_prediction.as_deref().is_some_and(|p| prediction_close(drv, p, lead_true));
            if pred_ok {
                let refined = drv.refine_solve(spec.t, &spec.x, drv.wp.fp_refine_iters)?;
                drv.account_sequential(&refined.stats);
                match drv.try_commit(&refined) {
                    Commit::Accepted { h_next } => {
                        drv.spec_accepted += 1;
                        drv.wp.sim.probe.emit(refined.t, EventKind::SpeculationAccepted);
                        drv.wp.sim.metrics.inc(Counter::SpeculationAccepted);
                        drv.h = h_next;
                        committed += 1;
                    }
                    Commit::RejectedLte { h_retry } => {
                        drv.total.steps_rejected_lte += 1;
                        drv.spec_rejected += 1;
                        drv.wp.sim.probe.emit(
                            refined.t,
                            EventKind::SpeculationDiscarded { reason: DiscardReason::LteRejected },
                        );
                        drv.wp.sim.metrics.inc(Counter::SpeculationDiscarded);
                        drv.h = h_retry;
                        committed_all = false;
                    }
                    Commit::RejectedNewton => {
                        drv.spec_rejected += 1;
                        drv.wp.sim.probe.emit(
                            refined.t,
                            EventKind::SpeculationDiscarded {
                                reason: DiscardReason::NewtonRejected,
                            },
                        );
                        drv.wp.sim.metrics.inc(Counter::SpeculationDiscarded);
                        committed_all = false;
                    }
                }
            } else {
                drv.spec_rejected += 1;
                let reason = if !ladder_complete {
                    DiscardReason::ChainBroken
                } else if !spec.converged {
                    DiscardReason::Unconverged
                } else {
                    DiscardReason::PredictionFar
                };
                drv.wp.sim.probe.emit(spec.t, EventKind::SpeculationDiscarded { reason });
                drv.wp.sim.metrics.inc(Counter::SpeculationDiscarded);
                committed_all = false;
            }
        }

        if hit && committed_all {
            drv.handle_breakpoint_landing();
        }
        let committed = committed + rescued_commits;
        drv.wp.sim.probe.emit(drv.hw.t(), EventKind::RoundEnd { committed: committed as u32 });
        Ok(committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe_circuit::generators;
    use wavepipe_engine::{run_transient, SimOptions};

    #[test]
    fn combined_matches_serial_on_rc_ladder() {
        let b = generators::rc_ladder(8);
        let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
        let wp = WavePipeOptions::new(Scheme::Combined, 4);
        let rep = run_combined(&b.circuit, b.tstep, b.tstop, &wp).unwrap();
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
        let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
        // Pin serial stamping so the `WAVEPIPE_STAMP_WORKERS` override cannot
        // shrink the lane budgets this comparison depends on.
        let bwd = crate::backward::run_backward(
            &b.circuit,
            b.tstep,
            b.tstop,
            &WavePipeOptions::new(Scheme::Backward, 2).with_stamp_workers(0),
        )
        .unwrap();
        let cmb = run_combined(
            &b.circuit,
            b.tstep,
            b.tstop,
            &WavePipeOptions::new(Scheme::Combined, 4).with_stamp_workers(0),
        )
        .unwrap();
        let s_bwd = bwd.modeled_speedup(serial.stats());
        let s_cmb = cmb.modeled_speedup(serial.stats());
        assert!(s_bwd > 1.15, "backward should pay here, got {s_bwd:.2}");
        assert!(s_cmb > s_bwd * 0.75, "combined ({s_cmb:.2}) should track backward ({s_bwd:.2})");
    }

    #[test]
    fn two_thread_combined_falls_back_to_backward() {
        let b = generators::rc_ladder(5);
        let wp = WavePipeOptions::new(Scheme::Combined, 2);
        let rep = run_combined(&b.circuit, b.tstep, b.tstop, &wp).unwrap();
        assert_eq!(rep.scheme, Scheme::Combined);
        assert_eq!(rep.speculation_accepted + rep.speculation_rejected, 0);
    }
}
