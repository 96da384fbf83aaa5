//! Deterministic fault injection for exercising the fault-tolerant runtime.
//!
//! A [`FaultPlan`] decides, as a pure function of *where* a solve happens
//! (lane, per-solver solve index) and *nothing else*, whether to inject a
//! fault and which kind. Two modes compose:
//!
//! * **Targeted rules** ([`FaultPlan::with_solve_fault`]) pin a specific
//!   fault to a specific lane/solve — the tool the regression tests use to
//!   reproduce one failure exactly.
//! * **Seeded chaos** ([`FaultPlan::seeded`], env-selectable via
//!   `WAVEPIPE_FAULT_SEED`) sprays rare pseudo-random faults across the whole
//!   suite. Chaos deliberately injects only *soft* faults the runtime
//!   retries through (forced singular factorizations anywhere, NaN solutions
//!   on speculative lanes only): worker panics would permanently shrink
//!   pools and defeat the suite's critical-path assertions, and a NaN on lane 0
//!   ends the run. Targeted rules have no such restriction.
//!
//! **The one rule for a non-finite point.** A converged but non-finite
//! solution of the point the serial engine would have attempted — the serial
//! loop's point, slot 0 of every pipelined round (lane 0's base solve) — is
//! a terminal [`crate::EngineError::NumericalBlowup`] with the accepted
//! prefix kept, in both tiers alike: shrinking the step cannot repair it. On
//! any other slot the point was speculative and is merely discarded
//! ([`crate::Commit::NonFinite`]).
//!
//! Determinism matters: the same plan against the same binary injects the
//! same faults at the same points, so a chaos-leg failure in CI reproduces
//! locally by exporting the same seed.

use crate::env;
use std::sync::{Arc, OnceLock};

/// What to inject at a chosen solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Panic on the solving thread (exercises `catch_unwind` isolation and
    /// pool respawn/shrink).
    PanicWorker,
    /// Report the linear system as singular: the solve returns unconverged,
    /// as if factorization had failed, and the step-control machinery
    /// retries at a smaller step.
    SingularMatrix,
    /// Let the solve converge, then overwrite the solution with NaN
    /// (exercises the non-finite rejection path).
    NanSolution,
    /// Sleep before solving (exercises deadline enforcement and straggler
    /// behaviour) — the solution itself is untouched.
    SlowSolve {
        /// Artificial delay in milliseconds.
        millis: u64,
    },
    /// Report the solve as unconverged regardless of the actual Newton
    /// outcome (exercises the convergence recovery ladder: step shrink down
    /// to the floor, then cache rollback / deep cut / gmin ramp). Recovery
    /// solves are exempt from fault injection, so a rescue always succeeds
    /// under this fault.
    ForceNonConvergence,
}

#[derive(Debug, Clone, PartialEq)]
struct SolveRule {
    lane: u32,
    /// `None` matches every solve on the lane (a persistently faulty lane).
    solve: Option<u64>,
    kind: FaultKind,
}

/// A deterministic schedule of injected faults. Inert by default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: Option<u64>,
    /// When set, seeded chaos also draws [`FaultKind::ForceNonConvergence`]
    /// (opt-in: the classic chaos legs pin soft singular/NaN faults only).
    nc_chaos: bool,
    solve_rules: Vec<SolveRule>,
}

/// splitmix64-style avalanche of (seed, lane, solve) into a chaos draw.
fn mix(seed: u64, lane: u64, solve: u64) -> u64 {
    let mut z =
        seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ solve.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Chaos injection rate: one solve in this many draws a fault.
const CHAOS_PERIOD: u64 = 512;

impl FaultPlan {
    /// An empty, inert plan. Attaching it explicitly *overrides* any
    /// environment-selected chaos plan — useful for pinning a baseline run.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A chaos plan: rare pseudo-random soft faults, fully determined by
    /// `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed: Some(seed), ..FaultPlan::default() }
    }

    /// A chaos plan that additionally draws
    /// [`FaultKind::ForceNonConvergence`]: the convergence-fault leg that
    /// exercises the recovery ladder across the whole suite.
    pub fn seeded_with_nonconvergence(seed: u64) -> Self {
        FaultPlan { seed: Some(seed), nc_chaos: true, ..FaultPlan::default() }
    }

    /// Reads `WAVEPIPE_FAULT_SEED` and builds the corresponding chaos plan,
    /// or `None` when the variable is unset or blank. A truthy
    /// `WAVEPIPE_FAULT_NC` additionally enables forced-non-convergence
    /// chaos draws (the recovery-ladder CI leg).
    ///
    /// # Panics
    ///
    /// When the seed is not a `u64`: a chaos run must not go fault-free
    /// without a word.
    pub(crate) fn from_env() -> Option<Self> {
        let seed = env::number("WAVEPIPE_FAULT_SEED")?;
        if env::flag("WAVEPIPE_FAULT_NC", false) {
            Some(FaultPlan::seeded_with_nonconvergence(seed))
        } else {
            Some(FaultPlan::seeded(seed))
        }
    }

    /// Builder: injects `kind` on `lane` at the solver's `solve`-th call
    /// (`None` = every call on that lane).
    #[must_use]
    pub fn with_solve_fault(mut self, lane: u32, solve: Option<u64>, kind: FaultKind) -> Self {
        self.solve_rules.push(SolveRule { lane, solve, kind });
        self
    }

    /// True when the plan can never fire.
    pub(crate) fn is_inert(&self) -> bool {
        self.seed.is_none() && self.solve_rules.is_empty()
    }

    /// The fault (if any) for the `solve`-th point solve on `lane`.
    /// Targeted rules win over chaos.
    pub(crate) fn solve_fault(&self, lane: u32, solve: u64) -> Option<FaultKind> {
        for r in &self.solve_rules {
            if r.lane == lane && r.solve.is_none_or(|s| s == solve) {
                return Some(r.kind);
            }
        }
        let seed = self.seed?;
        let h = mix(seed, u64::from(lane), solve);
        if !h.is_multiple_of(CHAOS_PERIOD) {
            return None;
        }
        // Soft faults only (see module docs): singular anywhere; NaN only on
        // speculative lanes, where a discarded solution costs nothing. With
        // nc_chaos, a third of the draws force a non-converged outcome
        // instead, sending the solve through the recovery ladder.
        if self.nc_chaos && (h >> 33) & 3 == 1 {
            return Some(FaultKind::ForceNonConvergence);
        }
        if lane >= 1 && (h >> 32) & 1 == 1 {
            Some(FaultKind::NanSolution)
        } else {
            Some(FaultKind::SingularMatrix)
        }
    }
}

/// Shared handle threading a [`FaultPlan`] through solvers,
/// mirroring [`wavepipe_telemetry::ProbeHandle`]: an inert handle is a
/// single branch per solve, and `with_lane` tags each pipeline lane's copy
/// so injection sites know where they run.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    plan: Option<Arc<FaultPlan>>,
    lane: u32,
}

impl FaultHandle {
    /// A handle that never injects.
    pub(crate) fn none() -> Self {
        FaultHandle { plan: None, lane: 0 }
    }

    /// Wraps a plan (inert plans collapse to [`FaultHandle::none`], keeping
    /// the fast path branch-only).
    pub(crate) fn new(plan: FaultPlan) -> Self {
        if plan.is_inert() {
            FaultHandle::none()
        } else {
            FaultHandle { plan: Some(Arc::new(plan)), lane: 0 }
        }
    }

    /// The environment-selected chaos handle (`WAVEPIPE_FAULT_SEED`),
    /// computed once per process so every `SimOptions::default()` shares one
    /// allocation.
    pub(crate) fn from_env_cached() -> Self {
        static CACHE: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
        let plan = CACHE.get_or_init(|| FaultPlan::from_env().map(Arc::new)).clone();
        FaultHandle { plan, lane: 0 }
    }

    /// A copy of this handle tagged with `lane`.
    #[must_use]
    pub fn with_lane(&self, lane: u32) -> Self {
        FaultHandle { plan: self.plan.clone(), lane }
    }

    /// The lane this handle is tagged with.
    pub(crate) fn lane(&self) -> u32 {
        self.lane
    }

    /// True when a plan is attached.
    #[cfg(test)]
    pub(crate) fn enabled(&self) -> bool {
        self.plan.is_some()
    }

    /// The fault (if any) for this lane's `solve`-th point solve.
    #[inline]
    pub(crate) fn solve_fault(&self, solve: u64) -> Option<FaultKind> {
        self.plan.as_ref()?.solve_fault(self.lane, solve)
    }
}

impl PartialEq for FaultHandle {
    fn eq(&self, other: &Self) -> bool {
        self.lane == other.lane
            && match (&self.plan, &other.plan) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let h = FaultHandle::new(FaultPlan::new());
        assert!(!h.enabled());
        for s in 0..1000 {
            assert_eq!(h.solve_fault(s), None);
        }
    }

    #[test]
    fn targeted_rule_fires_exactly_once() {
        let h =
            FaultHandle::new(FaultPlan::new().with_solve_fault(2, Some(7), FaultKind::PanicWorker))
                .with_lane(2);
        assert_eq!(h.solve_fault(6), None);
        assert_eq!(h.solve_fault(7), Some(FaultKind::PanicWorker));
        assert_eq!(h.solve_fault(8), None);
        assert_eq!(h.with_lane(1).solve_fault(7), None);
    }

    #[test]
    fn lane_wide_rule_fires_on_every_solve() {
        let h =
            FaultHandle::new(FaultPlan::new().with_solve_fault(1, None, FaultKind::SingularMatrix))
                .with_lane(1);
        for s in 0..32 {
            assert_eq!(h.solve_fault(s), Some(FaultKind::SingularMatrix));
        }
    }

    #[test]
    fn chaos_is_deterministic_rare_and_soft() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        let mut fired = 0u32;
        for lane in 0..4u32 {
            for solve in 0..4000u64 {
                let fa = a.solve_fault(lane, solve);
                assert_eq!(fa, b.solve_fault(lane, solve), "determinism");
                if let Some(kind) = fa {
                    fired += 1;
                    match kind {
                        FaultKind::SingularMatrix => {}
                        FaultKind::NanSolution => {
                            assert!(lane >= 1, "NaN chaos must spare lane 0")
                        }
                        other => panic!("chaos injected hard fault {other:?}"),
                    }
                }
            }
        }
        assert!(fired > 0, "chaos never fired in 16000 draws");
        assert!(fired < 160, "chaos fired implausibly often: {fired}");
    }

    #[test]
    fn nonconvergence_chaos_is_opt_in_and_deterministic() {
        let plain = FaultPlan::seeded(42);
        let nc = FaultPlan::seeded_with_nonconvergence(42);
        let nc2 = FaultPlan::seeded_with_nonconvergence(42);
        let mut forced = 0u32;
        for lane in 0..4u32 {
            for solve in 0..4000u64 {
                let f = nc.solve_fault(lane, solve);
                assert_eq!(f, nc2.solve_fault(lane, solve), "determinism");
                if f == Some(FaultKind::ForceNonConvergence) {
                    forced += 1;
                    // The plain chaos plan never draws this kind.
                    assert_ne!(plain.solve_fault(lane, solve), f);
                }
            }
        }
        assert!(forced > 0, "nc chaos never fired in 16000 draws");
        assert!(forced < 160, "nc chaos fired implausibly often: {forced}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1);
        let b = FaultPlan::seeded(2);
        let same = (0..20_000u64).all(|s| a.solve_fault(1, s) == b.solve_fault(1, s));
        assert!(!same, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn handle_equality_is_identity() {
        let p = FaultPlan::seeded(9);
        let a = FaultHandle::new(p.clone());
        let b = FaultHandle::new(p);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_ne!(a, a.with_lane(3));
        assert_eq!(FaultHandle::none(), FaultHandle::none());
    }
}
