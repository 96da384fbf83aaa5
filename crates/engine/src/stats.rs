//! Work accounting for simulations.
//!
//! Besides the usual SPICE counters (steps, Newton iterations, rejections),
//! the stats carry a *work* measure in abstract cost units and in measured
//! nanoseconds. WavePipe's critical-path work is summed from these: on a
//! p-thread round, the critical-path cost is the maximum of the concurrent
//! tasks' costs, which is what an otherwise-idle p-core machine realises.
//! It is a model, read only by `benchmark/` as a cross-check beside the
//! measured wall clock.

use std::ops::{Add, AddAssign};
use wavepipe_telemetry::EventKind;

/// Counters accumulated during an analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Accepted time points.
    pub steps_accepted: usize,
    /// Time points rejected by the LTE test.
    pub steps_rejected_lte: usize,
    /// Time points abandoned because Newton failed to converge.
    pub steps_rejected_newton: usize,
    /// Total Newton iterations (each is one stamp + refactor + solve).
    pub newton_iterations: usize,
    /// Numeric factorization passes of any kind (fresh pivot search *or*
    /// frozen-pivot refactorization). Chord/modified-Newton iterations that
    /// reuse an existing LU do not count here.
    pub factorizations: usize,
    /// The subset of [`SimStats::factorizations`] that were fast
    /// frozen-pivot refactorizations (no pivot search), the checked pass of a
    /// pipeline lane over the plan it adopted among them (see
    /// [`crate::solver::DirectLu`]).
    pub refactorizations: usize,
    /// Triangular solves.
    pub solves: usize,
    /// Individual device evaluations (bypassed devices are not counted).
    pub device_evals: usize,
    /// Nonlinear device evaluations skipped by the SPICE3-style bypass
    /// (cached stamp entries replayed instead).
    pub bypass_hits: usize,
    /// Newton iterations that reused the previous LU factors (chord /
    /// modified-Newton steps) instead of factoring.
    pub jacobian_reuses: usize,
    /// Linear-stamp assemblies skipped because the step-size-keyed
    /// companion cache matched.
    pub companion_hits: usize,
    /// GMRES iterations (Arnoldi steps) on the Krylov solver path. Zero on
    /// direct backends.
    pub krylov_iterations: usize,
    /// Preconditioner (re)builds on the Krylov path — ILU(0) factorizations
    /// or frozen-LU adoptions.
    pub precond_refreshes: usize,
    /// Krylov solves that fell back to direct LU (stagnation, iteration
    /// budget exhaustion, or forced fallback).
    pub solver_fallbacks: usize,
    /// Wall-clock time spent, nanoseconds.
    pub wall_ns: u128,
    /// Wall-clock time spent inside `MnaSystem::stamp_lane`, nanoseconds.
    pub stamp_ns: u128,
}

impl SimStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        SimStats::default()
    }

    /// Adds the fact an event records to the counters it feeds — the one map
    /// from a fact to the run's counters ([`crate::SimOptions::tally`] counts
    /// and emits it in one call). Kinds no counter carries add nothing;
    /// `solves`, the Krylov counters and the clocks are kept directly.
    #[inline]
    pub(crate) fn count(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::NewtonIter { .. } => self.newton_iterations += 1,
            EventKind::Factorization => self.factorizations += 1,
            EventKind::Refactorization => self.refactorizations += 1,
            EventKind::JacobianReuse => self.jacobian_reuses += 1,
            EventKind::StampPass { evals, bypassed, companion_hit } => {
                self.device_evals += evals as usize;
                self.bypass_hits += bypassed as usize;
                self.companion_hits += usize::from(companion_hit);
            }
            EventKind::PointAccepted { .. } => self.steps_accepted += 1,
            EventKind::StepRetry { newton: true } => self.steps_rejected_newton += 1,
            EventKind::StepRetry { newton: false } => self.steps_rejected_lte += 1,
            _ => {}
        }
    }

    /// Abstract work units: one unit per device evaluation plus a fixed
    /// charge per matrix operation. This is the hardware-independent cost
    /// model behind the critical-path work.
    pub fn work_units(&self) -> u64 {
        const FACTOR_COST: u64 = 40;
        const REFACTOR_COST: u64 = 12;
        const SOLVE_COST: u64 = 4;
        // `refactorizations` is a subset of `factorizations`: charge the
        // fresh-pivot passes at full cost and the frozen-pivot passes at the
        // cheaper rate.
        let fresh = (self.factorizations - self.refactorizations) as u64;
        self.device_evals as u64
            + FACTOR_COST * fresh
            + REFACTOR_COST * self.refactorizations as u64
            + SOLVE_COST * self.solves as u64
    }

    /// Total rejected points.
    pub fn steps_rejected(&self) -> usize {
        self.steps_rejected_lte + self.steps_rejected_newton
    }

    /// Mean Newton iterations per accepted point.
    pub fn newton_per_step(&self) -> f64 {
        if self.steps_accepted == 0 {
            0.0
        } else {
            self.newton_iterations as f64 / self.steps_accepted as f64
        }
    }
}

impl Add for SimStats {
    type Output = SimStats;

    fn add(self, rhs: SimStats) -> SimStats {
        SimStats {
            steps_accepted: self.steps_accepted + rhs.steps_accepted,
            steps_rejected_lte: self.steps_rejected_lte + rhs.steps_rejected_lte,
            steps_rejected_newton: self.steps_rejected_newton + rhs.steps_rejected_newton,
            newton_iterations: self.newton_iterations + rhs.newton_iterations,
            factorizations: self.factorizations + rhs.factorizations,
            refactorizations: self.refactorizations + rhs.refactorizations,
            solves: self.solves + rhs.solves,
            device_evals: self.device_evals + rhs.device_evals,
            bypass_hits: self.bypass_hits + rhs.bypass_hits,
            jacobian_reuses: self.jacobian_reuses + rhs.jacobian_reuses,
            companion_hits: self.companion_hits + rhs.companion_hits,
            krylov_iterations: self.krylov_iterations + rhs.krylov_iterations,
            precond_refreshes: self.precond_refreshes + rhs.precond_refreshes,
            solver_fallbacks: self.solver_fallbacks + rhs.solver_fallbacks,
            wall_ns: self.wall_ns + rhs.wall_ns,
            stamp_ns: self.stamp_ns + rhs.stamp_ns,
        }
    }
}

impl AddAssign for SimStats {
    fn add_assign(&mut self, rhs: SimStats) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_units_monotone_in_counters() {
        let a = SimStats { device_evals: 10, solves: 1, ..SimStats::new() };
        let b = SimStats { device_evals: 10, solves: 2, ..SimStats::new() };
        assert!(b.work_units() > a.work_units());
    }

    #[test]
    fn add_accumulates() {
        let a = SimStats { steps_accepted: 3, newton_iterations: 9, ..SimStats::new() };
        let b = SimStats { steps_accepted: 2, newton_iterations: 4, ..SimStats::new() };
        let c = a + b;
        assert_eq!(c.steps_accepted, 5);
        assert_eq!(c.newton_iterations, 13);
        assert!((c.newton_per_step() - 13.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn newton_per_step_handles_zero() {
        assert_eq!(SimStats::new().newton_per_step(), 0.0);
    }

    #[test]
    fn stamp_timings_accumulate() {
        let a = SimStats { stamp_ns: 100, ..SimStats::new() };
        let b = SimStats { stamp_ns: 50, ..SimStats::new() };
        assert_eq!((a + b).stamp_ns, 150);
    }

    #[test]
    fn frozen_pivot_passes_are_charged_cheaper() {
        // `refactorizations` is the frozen-pivot subset of `factorizations`.
        let fresh = SimStats { factorizations: 2, ..SimStats::new() };
        let frozen = SimStats { factorizations: 2, refactorizations: 2, ..SimStats::new() };
        assert!(frozen.work_units() < fresh.work_units());
    }

    #[test]
    fn caching_counters_accumulate() {
        let a =
            SimStats { bypass_hits: 5, jacobian_reuses: 2, companion_hits: 1, ..SimStats::new() };
        let b =
            SimStats { bypass_hits: 1, jacobian_reuses: 3, companion_hits: 4, ..SimStats::new() };
        let c = a + b;
        assert_eq!(c.bypass_hits, 6);
        assert_eq!(c.jacobian_reuses, 5);
        assert_eq!(c.companion_hits, 5);
    }

    #[test]
    fn krylov_counters_accumulate() {
        let a = SimStats {
            krylov_iterations: 7,
            precond_refreshes: 2,
            solver_fallbacks: 1,
            ..SimStats::new()
        };
        let b = SimStats { krylov_iterations: 3, precond_refreshes: 1, ..SimStats::new() };
        let c = a + b;
        assert_eq!(c.krylov_iterations, 10);
        assert_eq!(c.precond_refreshes, 3);
        assert_eq!(c.solver_fallbacks, 1);
    }

    #[test]
    fn count_maps_each_fact_to_its_counter() {
        let mut s = SimStats::new();
        for kind in [
            EventKind::NewtonIter { iteration: 1 },
            EventKind::Factorization,
            EventKind::Factorization,
            EventKind::Refactorization,
            EventKind::JacobianReuse,
            EventKind::StampPass { evals: 7, bypassed: 3, companion_hit: true },
            EventKind::PointAccepted { h: 1e-9 },
            EventKind::StepRetry { newton: false },
            EventKind::StepRetry { newton: true },
            EventKind::SolveEnd { iterations: 2, converged: true },
        ] {
            s.count(&kind);
        }
        let want = SimStats {
            newton_iterations: 1,
            factorizations: 2,
            refactorizations: 1,
            jacobian_reuses: 1,
            device_evals: 7,
            bypass_hits: 3,
            companion_hits: 1,
            steps_accepted: 1,
            steps_rejected_lte: 1,
            steps_rejected_newton: 1,
            ..SimStats::new()
        };
        assert_eq!(s, want);
    }

    #[test]
    fn rejected_sums_both_kinds() {
        let s = SimStats { steps_rejected_lte: 2, steps_rejected_newton: 3, ..SimStats::new() };
        assert_eq!(s.steps_rejected(), 5);
    }
}
