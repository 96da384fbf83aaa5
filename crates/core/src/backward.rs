//! Backward pipelining.
//!
//! With the history accepted up to `t_n` and a base step `h`, a serial
//! engine computes one point at `t_n + h`, then — at best — `t_n + h(1+r)`
//! in the *next* step, because the growth-ratio cap `r` limits how fast the
//! stride may stretch. Backward pipelining instead launches `p` concurrent
//! solves in one round:
//!
//! ```text
//!   t_1 = t_n + h            (what serial would compute)
//!   t_2 = t_1 + g*h          (the point serial would compute NEXT)
//!   ...
//!   t_p = t_{p-1} + g^{p-1}*h
//! ```
//!
//! Every task integrates *from the same accepted history at `t_n`* (a
//! variable-step companion model needs only already-accepted points), so the
//! tasks are fully independent — this is the paper's "moving backwards in
//! time": the extra threads fill in the trailing points behind the leading
//! one. Commits happen left to right, each under the serial engine's exact
//! Newton and LTE tests (using each point's true integration stride), so an
//! inaccurate lead is simply discarded and no accepted point is ever worse
//! than serial. Per round the critical path is ~one solve, while simulated
//! time advances by up to `h*(1 + g + ... + g^{p-1})`.

use crate::options::Scheme;
use crate::options::WavePipeOptions;
use crate::pipeline::{drive, usable_prefix, Commit, Driver, Task};
use crate::report::{RunOutcome, WavePipeReport};
use std::sync::Arc;
use wavepipe_circuit::Circuit;
use wavepipe_engine::Result;
use wavepipe_telemetry::{Counter, DiscardReason, EventKind};

/// Runs a backward-pipelined transient analysis.
///
/// # Errors
///
/// Same failure modes as the serial engine
/// ([`wavepipe_engine::run_transient`]).
pub fn run_backward(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    wp: &WavePipeOptions,
) -> Result<WavePipeReport> {
    run_backward_recoverable(circuit, tstep, tstop, wp)?.into_result()
}

/// Fault-tolerant variant of [`run_backward`]: a mid-run failure (deadline,
/// cancellation, lead-solver loss) yields the report over the accepted
/// prefix alongside the error.
///
/// # Errors
///
/// Pre-run failures only (bad parameters, compile, DC operating point).
pub fn run_backward_recoverable(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    wp: &WavePipeOptions,
) -> Result<RunOutcome> {
    let mut drv = Driver::new(circuit, tstep, tstop, wp)?;
    let width = wp.width();
    let error = drive(&mut drv, width, backward_round);
    Ok(RunOutcome { report: drv.finish(Scheme::Backward), error })
}

/// One backward-pipelined round: build the ladder, solve concurrently,
/// commit left to right. Returns the number of committed points.
///
/// # Errors
///
/// Same failure modes as the serial engine.
pub(crate) fn backward_round(drv: &mut Driver, width: usize) -> Result<usize> {
    drv.h = drv.h.clamp(drv.hmin, drv.hmax);
    // Ladder with LTE-budget-limited width (full width in growth phases,
    // base-only when error-bound).
    let targets = drv.backward_ladder(width);
    let (targets, hit) = drv.clip_targets(&targets);
    drv.wp.sim.probe.emit(drv.hw.t(), EventKind::RoundStart { width: targets.len() as u32 });

    // All tasks share one snapshot of the same (true) history.
    let hw = Arc::new(drv.hw.clone());
    let tasks: Vec<Task> =
        targets.iter().map(|&t| Task { hw: Arc::clone(&hw), t, guess: None }).collect();
    let sols = drv.solve_round(tasks, drv.wp.sim.max_newton_iters)?;

    // Account the concurrent work and drop anything past a lost worker —
    // every pool task is speculative, so truncation is always safe.
    let (solutions, _truncated) = usable_prefix(drv, sols, usize::MAX)?;

    // Left-to-right commit under serial-identical tests. Rescued points
    // (recovery ladder at the step floor) are counted separately: they are
    // real commits, but never land on the horizon target.
    let mut committed = 0usize;
    let mut rescued_commits = 0usize;
    for (i, sol) in solutions.iter().enumerate() {
        let h_attempt = sol.coeffs.h;
        match drv.try_commit(sol) {
            Commit::Accepted { h_next } => {
                committed += 1;
                if i > 0 {
                    drv.lead_accepted += 1;
                    drv.note_lead(true);
                    drv.wp.sim.probe.emit(sol.t, EventKind::LeadAccepted);
                    drv.wp.sim.metrics.inc(Counter::LeadAccepted);
                }
                drv.h = h_next;
            }
            Commit::RejectedLte { h_retry } => {
                if i == 0 {
                    drv.base_lte_reject(h_attempt, h_retry);
                } else {
                    drv.lead_rejected += 1;
                    drv.note_lead(false);
                    drv.wp.sim.probe.emit(
                        sol.t,
                        EventKind::LeadDiscarded { reason: DiscardReason::LteRejected },
                    );
                    drv.wp.sim.metrics.inc(Counter::LeadDiscarded);
                    // The accepted prefix stands. The failed lead's retry
                    // proposal is relative to its larger stride, so it must
                    // not override a smaller base proposal.
                    drv.h = drv.h.min(h_retry).max(drv.hmin);
                }
                break;
            }
            Commit::RejectedNewton => {
                if i == 0 {
                    rescued_commits += usize::from(drv.newton_backoff(h_attempt, sol.iterations)?);
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

    // The horizon (breakpoint) target is always last in the clipped
    // ladder, so landing happened iff every target committed.
    if hit && committed == targets.len() {
        drv.handle_breakpoint_landing();
    }
    let committed = committed + rescued_commits;
    drv.wp.sim.probe.emit(drv.hw.t(), EventKind::RoundEnd { committed: committed as u32 });
    Ok(committed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::WavePipeOptions;
    use wavepipe_circuit::generators;
    use wavepipe_engine::{run_transient, SimOptions};

    fn wp(threads: usize) -> WavePipeOptions {
        // Pin serial stamping: these tests assert lane-level scheduling at
        // exact thread counts, which the `WAVEPIPE_STAMP_WORKERS` override
        // would otherwise fold into a smaller lane budget.
        WavePipeOptions::new(crate::options::Scheme::Backward, threads).with_stamp_workers(0)
    }

    #[test]
    fn backward_matches_serial_on_rc_ladder() {
        let b = generators::rc_ladder(8);
        let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
        let rep = run_backward(&b.circuit, b.tstep, b.tstop, &wp(2)).unwrap();
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
        let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
        let rep = run_backward(&b.circuit, b.tstep, b.tstop, &wp(2)).unwrap();
        let speedup = rep.modeled_speedup(serial.stats());
        assert!(speedup > 1.3, "modeled speedup = {speedup:.2}");
        assert!(rep.lead_accepted > 0);
    }

    #[test]
    fn one_thread_backward_degenerates_to_serial_behaviour() {
        let b = generators::rc_ladder(6);
        let rep = run_backward(&b.circuit, b.tstep, b.tstop, &wp(1)).unwrap();
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
        let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
        let rep = run_backward(&b.circuit, b.tstep, b.tstop, &wp(2)).unwrap();
        let eq = crate::verify::compare(&serial, &rep.result);
        assert!(eq.rms_rel() < 0.01, "rms deviation = {}", eq.rms_rel());
        assert!(eq.max_rel() < 0.10, "max deviation = {}", eq.max_rel());
    }
}
