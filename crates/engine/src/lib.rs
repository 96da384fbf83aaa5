//! Serial SPICE-style simulation engine for WavePipe.
//!
//! The engine implements the full classic transient-analysis stack from
//! scratch:
//!
//! * [`MnaSystem`] — circuit compilation to modified nodal analysis with a
//!   frozen sparse pattern and slot-table restamping.
//! * Device linearisation with SPICE-grade numerical guards:
//!   diode/BJT junction limiting, `limexp`, channel-symmetric level-1 MOSFET.
//! * Newton–Raphson with cached LU refactorization ([`newton`]) and DC
//!   operating point with gmin/source-stepping continuation ([`dcop`]).
//! * Variable-step integration (backward Euler, trapezoidal, Gear2/BDF2
//!   with true variable-step coefficients, [`integrate`]), divided-difference
//!   LTE estimation, and one [`StepController`] that
//!   takes every step decision: source breakpoints, Newton-reject shrink, LTE
//!   accept/reject, convergence recovery.
//!
//! The engine runs one analysis, transient. Beside it sits only
//! `.measure`-style waveform post-processing of its results ([`measure`]).
//!
//! The transient loop is deliberately factored into [`HistoryWindow`] +
//! [`PointSolver`] + [`StepController`] so that `wavepipe-core` can solve
//! *multiple adjacent time points concurrently* with exactly the same
//! numerics, and commit them through exactly the same controller, as the
//! serial loop ([`transient`]) — which is that arrangement at width 1.
//!
//! # Example
//!
//! ```
//! use wavepipe_circuit::{Circuit, Waveform};
//! use wavepipe_engine::{run_transient, SimOptions};
//!
//! # fn main() -> Result<(), wavepipe_engine::EngineError> {
//! let mut ckt = Circuit::new("rc");
//! let a = ckt.node("a");
//! let b = ckt.node("b");
//! ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 0.0))?;
//! ckt.add_resistor("R1", a, b, 1e3)?;
//! ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-9)?;
//! let result = run_transient(&ckt, 1e-8, 5e-6, &SimOptions::default())?;
//! let vb = result.unknown_of("b").expect("node exists");
//! assert!(result.sample(vb, 5e-6) > 0.98); // fully charged
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cancel;
pub mod dcop;
mod devices;
mod env;
mod error;
mod fault;
pub mod integrate;
mod krylov;
mod lte;
pub mod measure;
mod mna;
pub mod newton;
mod options;
mod recovery;
mod result;
mod solver;
mod stats;
mod stepctl;
mod stepkey;
pub mod transient;

pub use cancel::CancelToken;
pub use error::{panic_message, ConvergenceReport, EngineError, RecoveryRung, Result};
pub use fault::{FaultHandle, FaultKind, FaultPlan};
pub use integrate::{IntegCoeffs, Method};
pub use krylov::{GmresBackend, GmresConfig, KrylovStats};
pub use mna::{MnaSystem, MnaWorkspace, StampInput, StampResult};
pub use options::{CacheCtl, SimOptions};
pub use result::TransientResult;
pub use solver::{DirectLu, SolverBackend, SolverFactory, SolverHandle};
pub use stats::SimStats;
pub use stepctl::{Commit, StepController};
pub use transient::{
    run_transient, run_transient_recoverable, run_transient_recoverable_compiled, HistoryWindow,
    PointSolution, PointSolver, TransientOutcome,
};
pub use wavepipe_telemetry as telemetry;
pub use wavepipe_telemetry::{ProbeHandle, RecordingProbe};
