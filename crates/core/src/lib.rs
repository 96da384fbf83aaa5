//! **WavePipe** — coarse-grained parallel transient circuit simulation via
//! waveform pipelining, after Dong, Li & Ye, *"WavePipe: parallel transient
//! simulation of analog and digital circuits on multi-core shared-memory
//! machines"*, DAC 2008.
//!
//! A SPICE transient loop is sequential: each time point's integration
//! history is the previous points. WavePipe extracts parallelism *across
//! adjacent time points* without relaxation-style accuracy loss:
//!
//! * [`Scheme::Backward`] — concurrent solves at the leading point and the
//!   backward intermediate points behind it, all integrating from the shared
//!   accepted history; the round advances simulated time further than a
//!   serial step while its critical path is a single solve.
//! * [`Scheme::Forward`] — speculative Newton at future points using
//!   *predicted* history, refined in a couple of warm-start iterations once
//!   the true history lands.
//! * [`Scheme::Combined`] — a backward ladder plus one forward speculative
//!   point.
//!
//! The three are one round (`round`, a state machine with no threads) under
//! different `(ladder, chain)` plans — `(p, 0)`, `(1, p-1)` and `(p-1, 1)`;
//! `pipeline` owns the lanes that solve its tasks, and decides nothing.
//!
//! Every accepted point passes the **same** Newton tolerance and
//! local-truncation-error test as the serial engine: a round commits through
//! the engine's own [`wavepipe_engine::StepController`], the one the serial
//! loop runs on, so at one thread every scheme *is* the serial run.
//! Convergence and accuracy are never compromised — misprediction and
//! over-ambitious leads only cost discarded work.
//!
//! # Example
//!
//! ```
//! use wavepipe_circuit::generators;
//! use wavepipe_core::{run_wavepipe, Scheme, WavePipeOptions};
//!
//! # fn main() -> Result<(), wavepipe_engine::EngineError> {
//! let bench = generators::rc_ladder(8);
//! let opts = WavePipeOptions::new(Scheme::Backward, 2);
//! let report = run_wavepipe(&bench.circuit, bench.tstep, bench.tstop, &opts)?;
//! assert!(report.result.len() > 10);
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod options;
mod pipeline;
mod report;
mod round;
pub mod verify;

pub use options::{Scheme, WavePipeOptions};
pub use report::{RunOutcome, WavePipeReport};
pub use wavepipe_telemetry as telemetry;
pub use wavepipe_telemetry::MetricsRegistry;

use wavepipe_circuit::Circuit;
use wavepipe_engine::{run_transient_recoverable, Result};

/// Runs a transient analysis with the configured pipelining scheme.
///
/// For [`Scheme::Serial`] this wraps the plain serial engine (the critical
/// path then equals the total work).
///
/// # Errors
///
/// Same failure modes as [`wavepipe_engine::run_transient`].
pub fn run_wavepipe(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    opts: &WavePipeOptions,
) -> Result<WavePipeReport> {
    run_wavepipe_recoverable(circuit, tstep, tstop, opts)?.into_result()
}

/// Fault-tolerant variant of [`run_wavepipe`]: instead of discarding the
/// whole analysis on a mid-run failure (deadline, cancellation, lead-solver
/// panic), the returned [`RunOutcome`] carries the report over every point
/// accepted before the run ended alongside the terminal error.
///
/// Worker-lane panics and injected faults are *not* terminal — they are
/// absorbed (the pool respawns or shrinks, ultimately to a serial schedule)
/// and only show up as [`WavePipeReport::workers_lost`].
///
/// # Errors
///
/// Pre-run failures only: bad parameters, circuit compilation, or the DC
/// operating-point solve — before there is any partial result to keep.
pub fn run_wavepipe_recoverable(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    opts: &WavePipeOptions,
) -> Result<RunOutcome> {
    match opts.scheme {
        Scheme::Serial => {
            let outcome = run_transient_recoverable(circuit, tstep, tstop, &opts.sim)?;
            let result = outcome.result;
            let total = *result.stats();
            let report = WavePipeReport {
                scheme: Scheme::Serial,
                threads: 1,
                rounds: total.steps_accepted + total.steps_rejected(),
                critical_work: total.work_units(),
                critical_ns: total.wall_ns,
                dispatch_ns: 0,
                lead_ns: 0,
                wait_ns: 0,
                commit_ns: 0,
                total,
                result,
                lead_accepted: 0,
                lead_rejected: 0,
                speculation_accepted: 0,
                speculation_rejected: 0,
                workers_lost: 0,
            };
            Ok(RunOutcome { report, error: outcome.error })
        }
        _ => pipeline::run(circuit, tstep, tstop, opts),
    }
}
