//! Adaptive scheme selection — the "new avenues" extension the paper's
//! conclusion points at.
//!
//! Backward and forward pipelining pay off in different workload phases:
//! backward ladders compound step growth after discontinuities, forward
//! speculation hides Newton latency on smooth stretches. Neither dominates
//! everywhere, so this scheduler measures each scheme's recent *efficiency*
//! (committed points per unit of critical-path work) with an exponential
//! moving average and plays the better one, probing the loser periodically
//! so a regime change is noticed.
//!
//! Because both round implementations commit through the same
//! serial-equivalent tests, switching between them mid-run cannot affect
//! accuracy — only the schedule of which points are attempted concurrently.

use crate::backward::backward_round;
use crate::forward::forward_round;
use crate::options::{Scheme, WavePipeOptions};
use crate::pipeline::{drive, Driver};
use crate::report::{RunOutcome, WavePipeReport};
use wavepipe_circuit::Circuit;
use wavepipe_engine::Result;
use wavepipe_telemetry::{EventKind, Family};

/// How strongly new rounds update the efficiency estimate.
const EMA_ALPHA: f64 = 0.25;
/// Probe the currently-losing scheme every this many rounds.
const PROBE_PERIOD: usize = 8;

/// Runs a transient analysis that alternates between backward and forward
/// pipelining based on their measured efficiency.
///
/// # Errors
///
/// Same failure modes as the serial engine
/// ([`wavepipe_engine::run_transient`]).
pub fn run_adaptive(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    wp: &WavePipeOptions,
) -> Result<WavePipeReport> {
    run_adaptive_recoverable(circuit, tstep, tstop, wp)?.into_result()
}

/// Fault-tolerant variant of [`run_adaptive`]: a mid-run failure (deadline,
/// cancellation, lead-solver loss) yields the report over the accepted
/// prefix alongside the error.
///
/// # Errors
///
/// Pre-run failures only (bad parameters, compile, DC operating point).
pub fn run_adaptive_recoverable(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    wp: &WavePipeOptions,
) -> Result<RunOutcome> {
    let mut drv = Driver::new(circuit, tstep, tstop, wp)?;
    let width = wp.width();
    // Efficiency estimates: committed points per 1000 critical work units.
    // Start equal so the first probes decide.
    let mut eff = [1.0_f64, 1.0];
    let mut round_idx = 0usize;

    let error = drive(&mut drv, width, |drv, w| {
        let forward_better = eff[1] > eff[0];
        let probe = round_idx % PROBE_PERIOD == PROBE_PERIOD - 1;
        // Normally play the winner; on probe rounds, play the loser.
        let use_forward = forward_better != probe;
        drv.wp.sim.probe.emit(drv.hw.t(), EventKind::AdaptiveChoice { forward: use_forward });
        let choice = if use_forward { "adaptive_forward" } else { "adaptive_backward" };
        drv.wp.sim.metrics.add_labeled(Family::RoundsByScheme, choice, 1);

        let cw0 = drv.critical_work;
        let committed = if use_forward { forward_round(drv, w) } else { backward_round(drv, w) }?;
        let dcw = (drv.critical_work - cw0).max(1);
        let e = committed as f64 * 1000.0 / dcw as f64;
        let idx = usize::from(use_forward);
        eff[idx] = (1.0 - EMA_ALPHA) * eff[idx] + EMA_ALPHA * e;
        round_idx += 1;
        Ok(committed)
    });

    Ok(RunOutcome { report: drv.finish(Scheme::Adaptive), error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use wavepipe_circuit::generators;
    use wavepipe_engine::{run_transient, SimOptions};

    #[test]
    fn adaptive_matches_serial_accuracy() {
        for b in [generators::rc_ladder(8), generators::power_grid(4, 4)] {
            let serial =
                run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
            let wp = WavePipeOptions::new(Scheme::Adaptive, 2);
            let rep = run_adaptive(&b.circuit, b.tstep, b.tstop, &wp).unwrap();
            let eq = verify::compare(&serial, &rep.result);
            assert!(eq.rms_rel() < 0.02, "{}: rms dev {}", b.name, eq.rms_rel());
            assert_eq!(rep.scheme, Scheme::Adaptive);
        }
    }

    #[test]
    fn adaptive_is_competitive_with_the_better_pure_scheme() {
        // On the growth-heavy power grid, adaptive must land near backward's
        // speedup (its measured winner), not near forward's.
        let b = generators::power_grid(4, 4);
        let serial = run_transient(&b.circuit, b.tstep, b.tstop, &SimOptions::default()).unwrap();
        let bwd = crate::backward::run_backward(
            &b.circuit,
            b.tstep,
            b.tstop,
            &WavePipeOptions::new(Scheme::Backward, 2),
        )
        .unwrap()
        .modeled_speedup(serial.stats());
        let ada =
            run_adaptive(&b.circuit, b.tstep, b.tstop, &WavePipeOptions::new(Scheme::Adaptive, 2))
                .unwrap()
                .modeled_speedup(serial.stats());
        assert!(
            ada > 0.8 * bwd,
            "adaptive {ada:.2} should track backward {bwd:.2} on a growth-heavy workload"
        );
    }

    #[test]
    fn adaptive_exercises_both_schemes() {
        // Probing guarantees both lead and speculation statistics appear on
        // a long enough run.
        let b = generators::diode_rectifier();
        // Pin serial stamping so the `WAVEPIPE_STAMP_WORKERS` override cannot
        // collapse the two lanes this test needs.
        let opts = WavePipeOptions::new(Scheme::Adaptive, 2).with_stamp_workers(0);
        let rep = run_adaptive(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
        let bp_attempts = rep.lead_accepted + rep.lead_rejected;
        let fp_attempts = rep.speculation_accepted + rep.speculation_rejected;
        assert!(bp_attempts > 0, "no backward rounds were played");
        assert!(fp_attempts > 0, "no forward rounds were played");
    }
}
