//! Forward pipelining.
//!
//! While thread T1 solves the point at `t_1`, thread T2 *speculatively*
//! starts Newton at `t_2 = t_1 + h_2` — its integration history contains a
//! polynomial **prediction** of `x(t_1)` instead of the (not yet known)
//! solution. Chains deeper than two speculate on every intermediate point.
//!
//! When the true `x(t_1)` lands:
//!
//! * if the prediction was close (within `fp_accept_factor` of the Newton
//!   tolerance), the speculative iterate is an excellent warm start: the
//!   point is *re-solved against the true history* starting from it, which
//!   typically converges in 1–2 iterations instead of a cold solve. Only
//!   that short refinement sits on the critical path.
//! * if the prediction was off, the speculative work is discarded entirely
//!   and the point is solved later as usual.
//!
//! Accuracy is never compromised: every committed point is the converged
//! solution of the true equations with the true history, and passes the same
//! LTE test as the serial engine.

use crate::options::{Scheme, WavePipeOptions};
use crate::pipeline::{drive, usable_prefix, Commit, Driver, Task};
use crate::report::{RunOutcome, WavePipeReport};
use std::sync::Arc;
use wavepipe_circuit::Circuit;
use wavepipe_engine::{HistoryWindow, PointSolution, Result};
use wavepipe_sparse::vector::wrms_norm;
use wavepipe_telemetry::{Counter, DiscardReason, EventKind};

/// Emits one [`EventKind::SpeculationDiscarded`] for the broken link `i` with
/// its own `reason`, plus [`DiscardReason::ChainBroken`] for every deeper link
/// it invalidated — so the event stream mirrors the `spec_rejected` counter
/// exactly.
fn emit_chain_discard(drv: &Driver, solutions: &[PointSolution], i: usize, reason: DiscardReason) {
    drv.wp.sim.probe.emit(solutions[i].t, EventKind::SpeculationDiscarded { reason });
    for sol in &solutions[i + 1..] {
        drv.wp
            .sim
            .probe
            .emit(sol.t, EventKind::SpeculationDiscarded { reason: DiscardReason::ChainBroken });
    }
    drv.wp.sim.metrics.add(Counter::SpeculationDiscarded, (solutions.len() - i) as u64);
}

/// Builds the speculative window for the next chain link: the current
/// (possibly already speculative) window advanced by a *predicted* point.
pub(crate) fn speculate_next(
    drv: &Driver,
    hw: &HistoryWindow,
    t: f64,
) -> (HistoryWindow, Vec<f64>) {
    let x_pred = hw.predict(t);
    let next = hw.speculate(&drv.sys, t, x_pred.clone());
    (next, x_pred)
}

/// Pre-filter: `true` if a prediction was close enough to the truth that a
/// warm-start refinement is worth attempting. Compares **node voltages
/// only** — the companion models read node voltages (capacitors) and
/// inductor branch currents, and the latter are continuous by physics, while
/// source branch currents can jump and carry no history information.
pub(crate) fn prediction_close(drv: &Driver, predicted: &[f64], truth: &[f64]) -> bool {
    let nn = drv.sys.n_nodes();
    let err: Vec<f64> = predicted[..nn].iter().zip(&truth[..nn]).map(|(&p, &t)| p - t).collect();
    let n = wrms_norm(&err, &truth[..nn], drv.wp.sim.reltol, drv.wp.sim.vntol);
    n <= drv.wp.fp_accept_factor
}

/// Runs a forward-pipelined transient analysis.
///
/// # Errors
///
/// Same failure modes as the serial engine
/// ([`wavepipe_engine::run_transient`]).
pub fn run_forward(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    wp: &WavePipeOptions,
) -> Result<WavePipeReport> {
    run_forward_recoverable(circuit, tstep, tstop, wp)?.into_result()
}

/// Fault-tolerant variant of [`run_forward`]: a mid-run failure (deadline,
/// cancellation, lead-solver loss) yields the report over the accepted
/// prefix alongside the error.
///
/// # Errors
///
/// Pre-run failures only (bad parameters, compile, DC operating point).
pub fn run_forward_recoverable(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    wp: &WavePipeOptions,
) -> Result<RunOutcome> {
    let mut drv = Driver::new(circuit, tstep, tstop, wp)?;
    let width = wp.width();
    let error = drive(&mut drv, width, forward_round);
    Ok(RunOutcome { report: drv.finish(Scheme::Forward), error })
}

/// One forward-pipelined round: solve the base point plus a speculative
/// chain concurrently, then validate/refine/commit. Returns the number of
/// committed points.
///
/// # Errors
///
/// Same failure modes as the serial engine.
pub(crate) fn forward_round(drv: &mut Driver, width: usize) -> Result<usize> {
    {
        drv.h = drv.h.clamp(drv.hmin, drv.hmax);
        // Target ladder: follow the stride trajectory serial would take —
        // the recent LTE growth prediction — scaled by the ablation knob.
        let growth =
            (drv.last_growth.clamp(1.0, drv.wp.sim.rmax) * drv.wp.fp_stride_factor).max(0.1);
        let mut targets = Vec::with_capacity(width);
        let mut t = drv.hw.t();
        let mut gap = drv.h;
        for _ in 0..width {
            t += gap;
            targets.push(t);
            gap = (gap * growth).clamp(drv.hmin, drv.hmax);
        }
        let (targets, hit) = drv.clip_targets(&targets);
        drv.wp.sim.probe.emit(drv.hw.t(), EventKind::RoundStart { width: targets.len() as u32 });

        // Build the speculative chain of windows, one snapshot each.
        let mut tasks = Vec::with_capacity(targets.len());
        let mut predictions: Vec<Vec<f64>> = Vec::with_capacity(targets.len());
        let mut window = Arc::new(drv.hw.clone());
        for (i, &tt) in targets.iter().enumerate() {
            tasks.push(Task { hw: Arc::clone(&window), t: tt, guess: None });
            if i + 1 < targets.len() {
                let (next, pred) = speculate_next(drv, &window, tt);
                predictions.push(pred);
                window = Arc::new(next);
            }
        }

        let sols = drv.solve_round(tasks, drv.wp.sim.max_newton_iters)?;
        // Chain slots past a lost worker are dropped (slots >= 1 are all
        // speculative here); the surviving prefix commits normally.
        let (solutions, truncated) = usable_prefix(drv, sols, 1)?;

        // Commit the base point under serial semantics.
        let base = &solutions[0];
        let h_attempt = base.coeffs.h;
        let mut truth = match drv.try_commit(base) {
            Commit::Accepted { h_next } => {
                drv.h = h_next;
                base.x.clone()
            }
            Commit::RejectedLte { h_retry } => {
                drv.spec_rejected += solutions.len() - 1;
                if solutions.len() > 1 {
                    emit_chain_discard(drv, &solutions, 1, DiscardReason::ChainBroken);
                }
                drv.base_lte_reject(h_attempt, h_retry);
                drv.wp.sim.probe.emit(drv.hw.t(), EventKind::RoundEnd { committed: 0 });
                return Ok(0);
            }
            Commit::RejectedNewton => {
                drv.spec_rejected += solutions.len() - 1;
                if solutions.len() > 1 {
                    emit_chain_discard(drv, &solutions, 1, DiscardReason::ChainBroken);
                }
                let rescued = drv.newton_backoff(h_attempt, base.iterations)?;
                let committed = usize::from(rescued);
                drv.wp
                    .sim
                    .probe
                    .emit(drv.hw.t(), EventKind::RoundEnd { committed: committed as u32 });
                return Ok(committed);
            }
        };
        let mut committed = 1usize;
        let mut committed_all = !truncated;

        // Walk the speculative chain: validate prediction, refine, commit.
        for (i, spec_sol) in solutions.iter().enumerate().skip(1) {
            let predicted = &predictions[i - 1];
            if !spec_sol.converged || !prediction_close(drv, predicted, &truth) {
                drv.spec_rejected += solutions.len() - i;
                let reason = if spec_sol.converged {
                    DiscardReason::PredictionFar
                } else {
                    DiscardReason::Unconverged
                };
                emit_chain_discard(drv, &solutions, i, reason);
                committed_all = false;
                break;
            }
            // Refine against the TRUE history, warm-started from the
            // speculative iterate, under a short iteration budget — if the
            // warm start cannot converge within it, the speculation was not
            // close enough to pay off. Sequential: goes on the critical path.
            let refined = drv.refine_solve(spec_sol.t, &spec_sol.x, drv.wp.fp_refine_iters)?;
            drv.account_sequential(&refined.stats);
            if !refined.converged {
                // Not an error and not a step problem: the point will be
                // solved cold as the next round's base at the current step.
                drv.spec_rejected += solutions.len() - i;
                emit_chain_discard(drv, &solutions, i, DiscardReason::RefineBudget);
                committed_all = false;
                break;
            }
            match drv.try_commit(&refined) {
                Commit::Accepted { h_next } => {
                    drv.spec_accepted += 1;
                    drv.wp.sim.probe.emit(refined.t, EventKind::SpeculationAccepted);
                    drv.wp.sim.metrics.inc(Counter::SpeculationAccepted);
                    committed += 1;
                    drv.h = h_next;
                    truth = refined.x.clone();
                }
                Commit::RejectedLte { h_retry } => {
                    drv.total.steps_rejected_lte += 1;
                    drv.spec_rejected += solutions.len() - i;
                    emit_chain_discard(drv, &solutions, i, DiscardReason::LteRejected);
                    drv.h = h_retry;
                    committed_all = false;
                    break;
                }
                Commit::RejectedNewton => {
                    drv.spec_rejected += solutions.len() - i;
                    emit_chain_discard(drv, &solutions, i, DiscardReason::NewtonRejected);
                    committed_all = false;
                    break;
                }
            }
        }

        if hit && committed_all {
            drv.handle_breakpoint_landing();
        }
        drv.wp.sim.probe.emit(drv.hw.t(), EventKind::RoundEnd { committed: committed as u32 });
        Ok(committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe_circuit::generators;
    use wavepipe_engine::{run_transient, SimOptions};

    fn wp(threads: usize) -> WavePipeOptions {
        // Pin serial stamping so the `WAVEPIPE_STAMP_WORKERS` override cannot
        // shrink the lane budget these tests assert against.
        WavePipeOptions::new(Scheme::Forward, threads).with_stamp_workers(0)
    }

    #[test]
    fn forward_matches_serial_on_rc_ladder() {
        let b = generators::rc_ladder(8);
        let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
        let rep = run_forward(&b.circuit, b.tstep, b.tstop, &wp(2)).unwrap();
        let probe = serial.unknown_of(&b.probes[0]).unwrap();
        let dev = serial.max_deviation(&rep.result, probe);
        assert!(dev < 0.02, "deviation vs serial = {dev}");
    }

    #[test]
    fn forward_accepts_speculation_on_smooth_waveforms() {
        let b = generators::amp_chain(1);
        let rep = run_forward(&b.circuit, b.tstep, b.tstop, &wp(2)).unwrap();
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
        let serial_lin =
            run_transient(&lin.circuit, lin.tstep, lin.tstop, &SimOptions::default()).unwrap();
        let rep_lin = run_forward(&lin.circuit, lin.tstep, lin.tstop, &wp(2)).unwrap();
        let s_lin = rep_lin.modeled_speedup(serial_lin.stats());
        assert!(s_lin > 0.80, "linear-circuit FP should stay near parity, got {s_lin:.3}");

        let amp = generators::amp_chain(1);
        let serial_amp =
            run_transient(&amp.circuit, amp.tstep, amp.tstop, &SimOptions::default()).unwrap();
        let rep_amp = run_forward(&amp.circuit, amp.tstep, amp.tstop, &wp(2)).unwrap();
        let s_amp = rep_amp.modeled_speedup(serial_amp.stats());
        assert!(s_amp > 1.0, "nonlinear-circuit FP speedup = {s_amp:.3}");
    }

    #[test]
    fn forward_handles_digital_switching() {
        let b = generators::inverter_chain(3);
        let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
        let rep = run_forward(&b.circuit, b.tstep, b.tstop, &wp(2)).unwrap();
        let probe = serial.unknown_of(&b.probes[0]).unwrap();
        // Digital edges shift slightly between grids; compare peak behaviour
        // and a generous pointwise band rather than exact alignment.
        let peak_s = serial.peak(probe);
        let peak_w = rep.result.peak(rep.result.unknown_of(&b.probes[0]).unwrap());
        assert!((peak_s - peak_w).abs() < 0.2, "peaks differ: {peak_s} vs {peak_w}");
    }
}
