//! WavePipe — parallel transient simulation of analog and digital circuits
//! on multi-core shared-memory machines (Dong, Li & Ye, DAC 2008).
//!
//! This facade crate re-exports the full WavePipe stack:
//!
//! * [`sparse`] — sparse LU substrate (Gilbert–Peierls with KLU-style
//!   refactorization, minimum-degree ordering).
//! * [`circuit`] — netlists, device models, source waveforms, SPICE-style
//!   parser, benchmark generators.
//! * [`engine`] — the serial SPICE engine: MNA, Newton–Raphson, DC operating
//!   point, variable-step integration with LTE control.
//! * [`core`] — the paper's contribution: backward/forward/combined waveform
//!   pipelining with critical-path work accounting.
//! * [`telemetry`] — zero-overhead-when-disabled instrumentation: typed
//!   event probes, JSONL and Chrome-trace exporters, the trace analysis.
//!
//! # Quickstart
//!
//! The [`prelude`] brings the everyday names into scope in one line:
//!
//! ```
//! use wavepipe::prelude::*;
//!
//! # fn main() -> Result<(), EngineError> {
//! let mut ckt = Circuit::new("rc lowpass");
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_vsource("V1", inp, Circuit::GROUND,
//!     Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 40e-9, 80e-9))?;
//! ckt.add_resistor("R1", inp, out, 1e3)?;
//! ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-12)?;
//!
//! let opts = WavePipeOptions::new(Scheme::Backward, 2);
//! let report = run_wavepipe(&ckt, 0.1e-9, 200e-9, &opts)?;
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `wavepipe-bench` for the
//! harness regenerating every table and figure of the paper's evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Sparse linear algebra substrate (re-export of `wavepipe-sparse`).
pub use wavepipe_sparse as sparse;

/// Circuit description substrate (re-export of `wavepipe-circuit`).
pub use wavepipe_circuit as circuit;

/// Serial SPICE transient engine with its operating point and waveform
/// measurements (re-export of `wavepipe-engine`).
pub use wavepipe_engine as engine;

/// WavePipe parallel schemes (re-export of `wavepipe-core`).
pub use wavepipe_core as core;

/// Batched many-scenario simulation: compile once, run many parameter
/// instances over a shared pattern and stamp plan (re-export of
/// `wavepipe-batch`).
pub use wavepipe_batch as batch;

/// Structured event tracing, histograms, and trace exporters (re-export of
/// `wavepipe-telemetry`).
pub use wavepipe_telemetry as telemetry;

/// The everyday names, importable in one line: `use wavepipe::prelude::*;`.
///
/// Covers building a circuit ([`Circuit`], [`Waveform`]), configuring a run
/// ([`SimOptions`], [`WavePipeOptions`], [`Scheme`]), running it
/// ([`run_transient`], [`run_wavepipe`]), handling failures
/// ([`EngineError`]), and the fault-tolerant entry points that keep the
/// accepted waveform prefix on deadline/cancellation
/// ([`run_transient_recoverable`], [`run_wavepipe_recoverable`],
/// [`CancelToken`], [`FaultPlan`]), and batched many-scenario sweeps over a
/// pluggable solver backend with per-instance fault isolation
/// ([`BatchSim`], [`BatchRun`], [`QuarantineReport`],
/// [`ParamKind`], [`SolverBackend`], [`SolverHandle`]), plus the iterative
/// Krylov solver path ([`GmresBackend`], [`GmresConfig`]).
///
/// [`Circuit`]: prelude::Circuit
/// [`Waveform`]: prelude::Waveform
/// [`SimOptions`]: prelude::SimOptions
/// [`WavePipeOptions`]: prelude::WavePipeOptions
/// [`Scheme`]: prelude::Scheme
/// [`run_transient`]: prelude::run_transient
/// [`run_wavepipe`]: prelude::run_wavepipe
/// [`EngineError`]: prelude::EngineError
/// [`run_transient_recoverable`]: prelude::run_transient_recoverable
/// [`run_wavepipe_recoverable`]: prelude::run_wavepipe_recoverable
/// [`CancelToken`]: prelude::CancelToken
/// [`FaultPlan`]: prelude::FaultPlan
/// [`BatchSim`]: prelude::BatchSim
/// [`BatchRun`]: prelude::BatchRun
/// [`QuarantineReport`]: prelude::QuarantineReport
/// [`ParamKind`]: prelude::ParamKind
/// [`SolverBackend`]: prelude::SolverBackend
/// [`SolverHandle`]: prelude::SolverHandle
/// [`GmresBackend`]: prelude::GmresBackend
/// [`GmresConfig`]: prelude::GmresConfig
pub mod prelude {
    pub use wavepipe_batch::{BatchError, BatchRun, BatchSim, ParamKind, QuarantineReport};
    pub use wavepipe_circuit::{Circuit, Waveform};
    pub use wavepipe_core::{
        run_wavepipe, run_wavepipe_recoverable, RunOutcome, Scheme, WavePipeOptions,
    };
    pub use wavepipe_engine::{
        run_transient, run_transient_recoverable, CancelToken, EngineError, FaultPlan,
        GmresBackend, GmresConfig, KrylovStats, SimOptions, SolverBackend, SolverHandle,
        TransientOutcome,
    };
}
