//! The round planner: every pipelining scheme is one [`round`] under a
//! different [`Plan`].
//!
//! With the history accepted up to `t_n` and a base step `h`, a serial
//! engine computes one point at `t_n + h`, then — at best — `t_n + h(1+r)`
//! in the *next* step, because the growth-ratio cap `r` limits how fast the
//! stride may stretch. A round instead launches up to `ladder + chain`
//! concurrent solves:
//!
//! ```text
//!   backward ladder, all from the accepted history at t_n
//!   t_1 = t_n + h            (what serial would compute — slot 0)
//!   t_2 = t_1 + g*h          (the point serial would compute NEXT)
//!   ...
//!   t_L = t_{L-1} + g^{L-1}*h
//!   forward chain, each link from a history that ends in a PREDICTION
//!   t_{L+1} = t_L + s*gap    (history: t_n's plus predicted x(t_L))
//!   ...
//! ```
//!
//! **Ladder** tasks need only already-accepted points (a variable-step
//! companion model integrates across any stride), so they are fully
//! independent — the paper's "moving backwards in time": the extra threads
//! fill in the trailing points behind the leading one. They commit left to
//! right, each under the step controller's Newton and LTE tests with its
//! true integration stride, so an over-ambitious lead is simply discarded.
//! Per round the critical path is ~one solve, while simulated time advances
//! by up to `h*(1 + g + ... + g^{L-1})`.
//!
//! **Chain** tasks start Newton before their history exists. When the true
//! previous point lands: if the prediction was close (within
//! [`FP_ACCEPT_FACTOR`] times the Newton tolerance) the speculative iterate
//! is an excellent warm start, and the point is *re-solved against the true
//! history* from it under a short iteration budget ([`FP_REFINE_ITERS`]) —
//! only that refinement sits on the critical path; otherwise the link and
//! everything after it is discarded and solved later as usual. Every
//! committed point is therefore the converged solution of the true
//! equations on the true history.
//!
//! | scheme   | plan at `p` lanes `(ladder, chain)`                          |
//! |----------|--------------------------------------------------------------|
//! | Backward | `(p, 0)`                                                     |
//! | Forward  | `(1, p-1)`                                                   |
//! | Combined | `(p-1, 1)`; `(p, 0)` below three lanes                       |
//!
//! Width 1 is `(1, 0)` under every scheme: slot 0 alone, which is the serial
//! step loop decision for decision (DESIGN.md invariant 6).

use crate::options::{Scheme, WavePipeOptions};
use crate::pipeline::{drive, usable_prefix, Driver, Task};
use crate::report::RunOutcome;
use std::sync::Arc;
use wavepipe_circuit::Circuit;
use wavepipe_engine::{Commit, EngineError, PointSolution, Result};
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
    pub fn of(scheme: Scheme, width: usize) -> Plan {
        match scheme {
            Scheme::Forward => Plan { ladder: 1, chain: width.saturating_sub(1) },
            // No spare lane to speculate with below three.
            Scheme::Combined if width >= 3 => Plan { ladder: width - 1, chain: 1 },
            _ => Plan { ladder: width.max(1), chain: 0 },
        }
    }
}

/// Runs a pipelined transient analysis under `wp.scheme`.
///
/// # Errors
///
/// Pre-run failures only (bad parameters, compile, DC operating point); a
/// mid-run failure (deadline, cancellation, lead-solver loss) yields the
/// report over the accepted prefix alongside the error.
pub(crate) fn run(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    wp: &WavePipeOptions,
) -> Result<RunOutcome> {
    let mut drv = Driver::new(circuit, tstep, tstop, wp)?;
    let error = drive(&mut drv, wp.width(), |drv, w| round(drv, Plan::of(wp.scheme, w)));
    Ok(RunOutcome { report: drv.finish(wp.scheme), error })
}

/// One round: build the targets, solve them concurrently, commit left to
/// right. Returns the number of committed points.
///
/// # Errors
///
/// Same failure modes as the serial engine.
pub(crate) fn round(drv: &mut Driver, plan: Plan) -> Result<usize> {
    drv.ctl.base_step()?;
    let (hmin, hmax) = (drv.ctl.hmin(), drv.ctl.hmax());
    // Ladder, full width in deep mode (sustained growth phases), at most two
    // wide otherwise.
    let (mut targets, mut gap) = drv.backward_ladder(plan.ladder);
    let ladder_len = targets.len();
    // A plan with leads speculates past them only while the ladder actually
    // has some and leads themselves are paying (growth phases, tracked by
    // the lead accept-rate EMA): in error-bound operation the speculation
    // commits sub-optimal strides and pays a sequential refinement each
    // round — a measured net loss.
    let chain =
        if plan.ladder > 1 && !(drv.deep_mode() && ladder_len >= 2) { 0 } else { plan.chain };
    // Chain strides follow the trajectory serial would take: the recent LTE
    // growth prediction. In Figure D (E8) twice that stride collapsed the
    // accept rate (54 % → 19 %); half of it modeled 0.99x against 0.96x, a
    // critical-path model's gain never measured on the clock.
    let stride = drv.last_growth.clamp(1.0, drv.wp.sim.rmax);
    let mut t = targets[ladder_len - 1];
    for _ in 0..chain {
        gap = (gap * stride).clamp(hmin, hmax);
        t += gap;
        targets.push(t);
    }
    let (targets, hit) = drv.ctl.clip_targets(&targets);
    drv.wp.sim.probe.emit(drv.ctl.t(), EventKind::RoundStart { width: targets.len() as u32 });
    let n_ladder = targets.len().min(ladder_len);

    // Ladder tasks share one snapshot of the true history; each chain link
    // gets the window before it advanced by a *predicted* point.
    let mut window = Arc::new(drv.ctl.history().clone());
    let mut tasks: Vec<Task> = targets[..n_ladder]
        .iter()
        .map(|&t| Task { hw: Arc::clone(&window), t, guess: None })
        .collect();
    let mut predictions: Vec<Vec<f64>> = Vec::with_capacity(targets.len() - n_ladder);
    for link in n_ladder..targets.len() {
        let t_prev = targets[link - 1];
        let x_pred = window.predict(t_prev);
        window = Arc::new(window.speculate(drv.lead.system(), t_prev, x_pred.clone()));
        predictions.push(x_pred);
        tasks.push(Task { hw: Arc::clone(&window), t: targets[link], guess: None });
    }

    let sols = drv.solve_round(tasks, drv.wp.sim.max_newton_iters)?;
    // Account the concurrent work and drop anything past a lost worker —
    // every pool task is speculative, so truncation is always safe.
    let solutions = usable_prefix(drv, sols, n_ladder)?;

    let (ladder, links) = solutions.split_at(solutions.len().min(n_ladder));
    let (mut committed, rescued) = walk_ladder(drv, ladder)?;
    // A pure ladder round (nothing speculative launched, or none of it
    // survived) ends here.
    if !links.is_empty() {
        if committed == n_ladder {
            committed += walk_chain(drv, &ladder[n_ladder - 1].x, links, &predictions)?;
        } else {
            drv.spec_rejected += links.len();
            emit_chain_discard(drv, links, DiscardReason::ChainBroken);
        }
    }

    // The horizon target is always last in the clipped list, so landing
    // happened iff every target committed.
    if hit && committed == targets.len() {
        drv.ctl.land_on_breakpoint();
    }
    let committed = committed + rescued;
    drv.wp.sim.probe.emit(drv.ctl.t(), EventKind::RoundEnd { committed: committed as u32 });
    Ok(committed)
}

/// Commits a round's ladder left to right under the step controller's
/// tests. Slot 0 is the point the serial loop would have attempted and gets
/// the serial loop's treatment on rejection; a rejected lead is discarded
/// and ends the walk. Returns the committed targets and, separately, the
/// rescued points (recovery ladder at the step floor): they are real
/// commits, but never land on a target.
fn walk_ladder(drv: &mut Driver, ladder: &[PointSolution]) -> Result<(usize, usize)> {
    let mut committed = 0usize;
    for (i, sol) in ladder.iter().enumerate() {
        let h_attempt = sol.coeffs.h;
        let commit = drv.try_commit(sol);
        let discard = match commit {
            Commit::Accepted { .. } => {
                committed += 1;
                if i > 0 {
                    drv.lead_accepted += 1;
                    drv.note_lead(true);
                    drv.wp.sim.probe.emit(sol.t, EventKind::LeadAccepted);
                }
                continue;
            }
            Commit::RejectedLte { h_retry } if i == 0 => {
                drv.ctl.base_lte_reject(h_attempt, h_retry);
                break;
            }
            Commit::RejectedNewton if i == 0 => {
                let rescued = drv.newton_backoff(h_attempt, sol.iterations)?;
                return Ok((committed, usize::from(rescued)));
            }
            Commit::NonFinite if i == 0 => {
                return Err(EngineError::NumericalBlowup { time: sol.t });
            }
            Commit::RejectedLte { h_retry } => {
                drv.ctl.cap_step(h_retry);
                DiscardReason::LteRejected
            }
            Commit::RejectedNewton | Commit::NonFinite => DiscardReason::NewtonRejected,
        };
        drv.lead_rejected += 1;
        drv.note_lead(false);
        drv.wp.sim.probe.emit(sol.t, EventKind::LeadDiscarded { reason: discard });
        break;
    }
    Ok((committed, 0))
}

/// Walks a round's speculative chain once the whole ladder has committed:
/// validate each link's prediction against the point that actually landed
/// (`truth`, to begin with the last ladder point), refine, commit. The first
/// link that fails takes every deeper link with it. Returns the number of
/// links committed.
fn walk_chain(
    drv: &mut Driver,
    truth: &[f64],
    links: &[PointSolution],
    predictions: &[Vec<f64>],
) -> Result<usize> {
    let mut truth = truth.to_vec();
    for (k, spec) in links.iter().enumerate() {
        let reason = if !spec.converged {
            DiscardReason::Unconverged
        } else if !prediction_close(drv, &predictions[k], &truth) {
            DiscardReason::PredictionFar
        } else {
            // Refine against the TRUE history, warm-started from the
            // speculative iterate, under a short iteration budget — if the
            // warm start cannot converge within it, the speculation was not
            // close enough to pay off. Sequential: goes on the critical path.
            let refined = drv.refine_solve(spec.t, &spec.x, FP_REFINE_ITERS)?;
            drv.account_sequential(&refined.stats);
            if !refined.converged {
                // Not an error and not a step problem: the point will be
                // solved cold as the next round's base at the current step.
                DiscardReason::RefineBudget
            } else {
                match drv.try_commit(&refined) {
                    Commit::Accepted { .. } => {
                        drv.spec_accepted += 1;
                        drv.wp.sim.probe.emit(refined.t, EventKind::SpeculationAccepted);
                        truth = refined.x;
                        continue;
                    }
                    Commit::RejectedLte { h_retry } => {
                        drv.ctl.spec_lte_reject(h_retry);
                        DiscardReason::LteRejected
                    }
                    Commit::RejectedNewton | Commit::NonFinite => DiscardReason::NewtonRejected,
                }
            }
        };
        drv.spec_rejected += links.len() - k;
        emit_chain_discard(drv, &links[k..], reason);
        return Ok(k);
    }
    Ok(links.len())
}

/// Emits one [`EventKind::SpeculationDiscarded`] for the broken link
/// `links[0]` with its own `reason`, plus [`DiscardReason::ChainBroken`] for
/// every deeper link it invalidated — so the event stream mirrors the
/// `spec_rejected` counter exactly.
fn emit_chain_discard(drv: &Driver, links: &[PointSolution], reason: DiscardReason) {
    let reasons = std::iter::once(reason).chain(std::iter::repeat(DiscardReason::ChainBroken));
    for (sol, reason) in links.iter().zip(reasons) {
        drv.wp.sim.probe.emit(sol.t, EventKind::SpeculationDiscarded { reason });
    }
}

/// Pre-filter: `true` if a prediction was close enough to the truth that a
/// warm-start refinement is worth attempting. Compares **node voltages
/// only** — the companion models read node voltages (capacitors) and
/// inductor branch currents, and the latter are continuous by physics, while
/// source branch currents can jump and carry no history information.
fn prediction_close(drv: &Driver, predicted: &[f64], truth: &[f64]) -> bool {
    let nn = drv.lead.system().n_nodes();
    let err: Vec<f64> = predicted[..nn].iter().zip(&truth[..nn]).map(|(&p, &t)| p - t).collect();
    let n = wrms_norm(&err, &truth[..nn], drv.wp.sim.reltol, drv.wp.sim.vntol);
    n <= FP_ACCEPT_FACTOR
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_wavepipe, verify, WavePipeReport};
    use wavepipe_circuit::generators::{self, Benchmark};
    use wavepipe_engine::{run_transient, SimOptions, TransientResult};

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

    #[test]
    fn an_accepted_lead_raises_the_lead_ema_under_any_plan_with_a_ladder() {
        // Combined's copy of the ladder walk used to report only rejected
        // leads, so its EMA could only fall and speculation latched off.
        let b = generators::power_grid(4, 4);
        for plan in [Plan { ladder: 2, chain: 0 }, Plan { ladder: 2, chain: 1 }] {
            let mut drv = Driver::new(
                &b.circuit,
                b.tstep,
                b.tstop,
                &WavePipeOptions::new(Scheme::Combined, 3),
            )
            .expect("driver");
            let mut seen = 0usize;
            while !drv.ctl.done() {
                let (ema, accepted) = (drv.lead_ema, drv.lead_accepted);
                round(&mut drv, plan).expect("round");
                if drv.lead_accepted > accepted {
                    assert!(drv.lead_ema > ema, "{plan:?}: {ema} -> {}", drv.lead_ema);
                    seen += 1;
                }
            }
            assert!(seen > 0, "{plan:?}: no lead was ever accepted");
        }
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
