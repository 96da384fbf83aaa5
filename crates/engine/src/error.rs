//! Engine error types.

use std::any::Any;
use std::fmt;
use std::time::Duration;
use wavepipe_sparse::SparseError;

/// Renders a caught panic payload (`catch_unwind`'s or `join`'s `Err`) as
/// the cause of an [`EngineError::WorkerLost`]. Pass the payload itself,
/// `&*boxed`: a `&Box<dyn Any>` would coerce to the box, not its contents.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// One rung of the transient convergence recovery ladder (see
/// `crate::recovery`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRung {
    /// Rung 1: retry with the solver caches invalidated and disabled
    /// (bypass masks, chord LU key, companion cache).
    CacheRollback,
    /// Rung 2: cut the step below the LTE controller's floor.
    DeepCut,
    /// Rung 3: local gmin/gshunt continuation ramp at the failing point.
    GminRamp,
}

impl RecoveryRung {
    /// Stable machine-readable name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RecoveryRung::CacheRollback => "cache_rollback",
            RecoveryRung::DeepCut => "deep_cut",
            RecoveryRung::GminRamp => "gmin_ramp",
        }
    }
}

/// Forensic detail attached to [`EngineError::NoConvergence`]: where the
/// residual was worst when Newton gave up, how the iteration budget was
/// spent, and which recovery rungs were tried before the error escaped.
///
/// Boxed inside the error so the happy path never pays for its size.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergenceReport {
    /// Name of the unknown with the largest final residual magnitude.
    pub worst_node: Option<String>,
    /// Final residual infinity norm at that unknown.
    pub residual: Option<f64>,
    /// Newton iterations spent per attempt: the original failing solve
    /// first, then one entry per recovery-ladder solve.
    pub iterations_history: Vec<usize>,
    /// Recovery rungs tried before giving up, in order.
    pub rungs_tried: Vec<RecoveryRung>,
}

impl fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.worst_node, self.residual) {
            (Some(node), Some(r)) => write!(f, "worst residual {r:.3e} at node {node}")?,
            (Some(node), None) => write!(f, "worst residual at node {node}")?,
            (None, Some(r)) => write!(f, "worst residual {r:.3e}")?,
            (None, None) => write!(f, "no residual detail")?,
        }
        if !self.rungs_tried.is_empty() {
            write!(f, "; rungs tried:")?;
            for rung in &self.rungs_tried {
                write!(f, " {}", rung.name())?;
            }
        }
        Ok(())
    }
}

/// Error produced by DC or transient analysis.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a fallthrough
/// arm so new failure modes (worker loss, budgets, ...) are not semver
/// breaks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The linear solver failed (singular matrix, dimension bug, ...).
    Linear(SparseError),
    /// Newton–Raphson did not converge within the iteration limit even after
    /// every continuation strategy (gmin stepping, source stepping).
    NoConvergence {
        /// Analysis time at which convergence failed (0 for DC).
        time: f64,
        /// Iterations spent in the final attempt.
        iterations: usize,
        /// Forensic detail: worst-residual node, iteration history, and the
        /// recovery rungs tried before the error escaped.
        report: Box<ConvergenceReport>,
    },
    /// The circuit failed structural validation.
    Circuit(wavepipe_circuit::CircuitError),
    /// An invalid analysis parameter (e.g. `tstop <= 0`).
    BadParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A non-finite value appeared in the solution vector.
    NumericalBlowup {
        /// Time at which the blowup occurred.
        time: f64,
    },
    /// A pool worker died (panicked or disappeared) while holding a
    /// task. The runtime drains the round, retires the worker, and continues
    /// on the surviving lanes; this error only escapes when the *lead* lane
    /// is the one that died.
    WorkerLost {
        /// Lane (0 = lead/serial, 1.. = pool workers) that was lost.
        lane: u32,
        /// Stringified panic payload, or a description of the disappearance.
        cause: String,
    },
    /// The wall-clock budget set via `SimOptions::with_deadline` expired.
    /// The accepted prefix of the waveform is recoverable through the
    /// `*_recoverable` entry points.
    DeadlineExceeded {
        /// Simulated time reached when the budget ran out.
        time: f64,
        /// The budget that was configured.
        budget: Duration,
    },
    /// The run was cancelled through its `CancelToken`.
    Cancelled {
        /// Simulated time reached when cancellation was observed.
        time: f64,
    },
    /// An internal scheduling invariant was violated — a scheme-logic bug,
    /// reported as a typed error instead of a release-mode panic.
    Internal {
        /// Description of the violated invariant.
        context: String,
    },
    /// A circuit offered for value-only recompilation
    /// (`MnaSystem::with_values_from`) does not share the frozen topology:
    /// differing node/device counts, kinds, or connectivity.
    TopologyMismatch {
        /// What differed between the compiled system and the new circuit.
        context: String,
    },
}

impl EngineError {
    /// True for the cooperative-budget errors ([`EngineError::Cancelled`],
    /// [`EngineError::DeadlineExceeded`]): retry ladders must propagate
    /// these immediately instead of trying another strategy — the caller
    /// asked the run to stop.
    pub fn is_budget(&self) -> bool {
        matches!(self, EngineError::Cancelled { .. } | EngineError::DeadlineExceeded { .. })
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Linear(e) => write!(f, "linear solve failed: {e}"),
            EngineError::NoConvergence { time, iterations, report } => {
                write!(
                    f,
                    "newton failed to converge at t={time:.3e} after {iterations} iterations"
                )?;
                if report.worst_node.is_some() || report.residual.is_some() {
                    write!(f, " ({report})")?;
                }
                Ok(())
            }
            EngineError::Circuit(e) => write!(f, "invalid circuit: {e}"),
            EngineError::BadParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            EngineError::NumericalBlowup { time } => {
                write!(f, "non-finite solution at t={time:.3e}")
            }
            EngineError::WorkerLost { lane, cause } => {
                write!(f, "worker on lane {lane} lost: {cause}")
            }
            EngineError::DeadlineExceeded { time, budget } => {
                write!(f, "deadline of {budget:?} exceeded at t={time:.3e}")
            }
            EngineError::Cancelled { time } => {
                write!(f, "run cancelled at t={time:.3e}")
            }
            EngineError::Internal { context } => {
                write!(f, "internal invariant violated: {context}")
            }
            EngineError::TopologyMismatch { context } => {
                write!(f, "circuit topology differs from the compiled system: {context}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Linear(e) => Some(e),
            EngineError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for EngineError {
    fn from(e: SparseError) -> Self {
        EngineError::Linear(e)
    }
}

impl From<wavepipe_circuit::CircuitError> for EngineError {
    fn from(e: wavepipe_circuit::CircuitError) -> Self {
        EngineError::Circuit(e)
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_time() {
        let e = EngineError::NoConvergence { time: 1e-9, iterations: 50, report: Box::default() };
        assert!(e.to_string().contains("1.000e-9"));
    }

    #[test]
    fn convergence_report_enriches_display() {
        let report = ConvergenceReport {
            worst_node: Some("out".to_string()),
            residual: Some(2.5e-3),
            iterations_history: vec![40, 40],
            rungs_tried: vec![RecoveryRung::CacheRollback, RecoveryRung::GminRamp],
        };
        let e = EngineError::NoConvergence { time: 1e-9, iterations: 40, report: Box::new(report) };
        let msg = e.to_string();
        assert!(msg.contains("node out"), "{msg}");
        assert!(msg.contains("2.500e-3"), "{msg}");
        assert!(msg.contains("cache_rollback"), "{msg}");
        assert!(msg.contains("gmin_ramp"), "{msg}");
        // An empty report leaves the classic message untouched.
        let bare =
            EngineError::NoConvergence { time: 1e-9, iterations: 40, report: Box::default() };
        assert!(!bare.to_string().contains('('), "{bare}");
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + std::error::Error>() {}
        check::<EngineError>();
    }

    #[test]
    fn from_sparse_error() {
        let e: EngineError = SparseError::Singular { column: 2 }.into();
        assert!(matches!(e, EngineError::Linear(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn fault_tolerance_variants_format_usefully() {
        let samples = [
            EngineError::WorkerLost { lane: 3, cause: "boom".into() },
            EngineError::DeadlineExceeded { time: 1e-9, budget: Duration::from_millis(5) },
            EngineError::Cancelled { time: 2e-9 },
            EngineError::Internal { context: "too many tasks".into() },
        ];
        for e in samples {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
        let e = EngineError::WorkerLost { lane: 3, cause: "boom".into() };
        assert!(e.to_string().contains("lane 3"));
        assert!(e.to_string().contains("boom"));
    }
}
