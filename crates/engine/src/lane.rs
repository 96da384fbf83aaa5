//! The lane-packed batch execution tier: up to [`MAX_LANES`] transient
//! instances advanced together, sharing one pass over the LU index structure
//! per linear solve while every instance keeps its **own** step controller.
//!
//! # How it stays bit-identical
//!
//! The classic per-instance path is `run_transient_recoverable_compiled`:
//! DC solve, then a step loop of propose → predict → stamp → factor/solve →
//! converge → commit. Two parts of that loop are not re-implemented here at
//! all: the DC solve runs on the classic [`PointSolver`], and every *step
//! decision* — the proposal with its clamping and breakpoint snapping, the
//! Newton-reject shrink, the LTE accept/reject with its backward-Euler
//! escape, the accept, the restart after a corner — is taken by the same
//! [`StepController`] the classic loop runs on, one per lane. What this
//! module does re-implement is the *Newton iteration* between proposal and
//! commit, spread over ticks so lanes can share bulk kernels: every numeric
//! kernel in it is either the identical function
//! ([`MnaSystem::stamp_lane`], [`crate::HistoryWindow`] predict,
//! [`MnaSystem::cap_currents_after`]) or a lane-packed kernel proven
//! bit-equal to its scalar counterpart ([`LanePackedLu::refactor_lanes`] /
//! [`LanePackedLu::solve_lanes`] vs [`SparseLu::refactor`] /
//! `solve_with_scratch` — see [`wavepipe_sparse::lanes`]). Each lane keeps a
//! private controller, Newton iterate and chord key, so control flow per
//! lane follows the classic loop decision for decision; lanes only
//! *synchronize* on bulk kernels, never on decisions.
//!
//! Two escape hatches preserve identity on the paths this module does not
//! mirror:
//!
//! * a lane whose frozen pivot *structure* diverges from the pack (threshold
//!   pivoting is value-dependent) runs its linear algebra through a private
//!   [`SparseLu`] inside the same tick loop — packed stamping, scalar
//!   solves;
//! * a lane that reaches any unmirrored path — the controller reporting the
//!   step below the floor (where the classic loop enters the recovery
//!   ladder), a non-finite point or step, a failed DC solve, a linearization
//!   whose key the classic path would find in its *spare* factor set (the
//!   pack keeps one set per lane; the lane drives the classic path's own
//!   `FactorKeys`, so it knows) — is **ejected**:
//!   the batch layer reruns it through the classic path from scratch, which
//!   *is* the reference. Ejection can cost wall-clock, never bits.

use std::sync::Arc;
use std::time::Instant;

use wavepipe_sparse::lanes::{LanePackedLu, LaneSolve, MAX_LANES};
use wavepipe_sparse::vector::{all_finite, norm_inf};
use wavepipe_sparse::{CscMatrix, LuOptions, Permutation, SparseError, SparseLu};
use wavepipe_telemetry::{Counter, MetricsHandle};

use crate::integrate::{IntegCoeffs, Method};
use crate::mna::{LinKey, MnaSystem, MnaWorkspace, StampInput};
use crate::newton::{solve_verified, FactorKeys, KeyTurn};
use crate::options::{CacheCtl, SimOptions};
use crate::result::TransientResult;
use crate::stats::SimStats;
use crate::stepctl::{Commit, StepController};
use crate::transient::{state_coeffs, PointSolution, PointSolver};

/// Engine-facing name for the lane-packed direct backend: K instances'
/// numeric LU factors interleaved over one shared symbolic structure, with
/// the factorization and triangular-solve inner loops shared across lanes.
/// See [`wavepipe_sparse::lanes`] for the kernel and its bit-identity
/// contract; [`run_lane_group`] is the driver that feeds it.
pub use wavepipe_sparse::lanes::LanePackedLu as SimdBatchedLu;

/// Per-instance outcome of [`run_lane_group`].
#[derive(Debug)]
pub enum LaneOutcome {
    /// The lane ran cleanly to `tstop`; the result is bit-identical to the
    /// classic single-instance run.
    Completed(Box<TransientResult>),
    /// The lane hit a path the packed tier does not mirror (failed DC,
    /// recovery-ladder entry, numerical blowup). The caller must rerun the
    /// instance through the classic path, which reproduces the exact classic
    /// behaviour — including its error.
    Ejected,
}

/// Where a lane's current LU factors live.
enum Factors {
    /// Values adopted into the shared [`LanePackedLu`] at this lane's slot.
    Packed,
    /// Private factors (pivot structure diverged from the pack).
    Scalar(Box<SparseLu>),
    /// Unfactored (mirror of an invalidated backend).
    None,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Propose the next time point (or finish).
    Begin,
    /// Mid-Newton on the current point.
    Iter,
    /// Clean run to `tstop`.
    Finished,
    /// Handed back to the classic path.
    Ejected,
}

/// Per-tick role in the shared linear phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Off,
    /// Stamped, waiting for the linear phase.
    Stamped,
    /// Chord-eligible, factors in the pack.
    ChordPacked,
    /// Chord-eligible, private factors.
    ChordScalar,
    /// Needs a (re)factorization this iteration.
    Refactor,
    /// Packed refactor succeeded; solve through the pack.
    PackedRefOk,
    /// Scalar refactor / fresh factor succeeded; solve through `Scalar`.
    ScalarRefOk,
    /// Linear phase finished for this tick (`x_new` valid iff solved).
    Done {
        solved: bool,
    },
}

struct Lane {
    sys: Arc<MnaSystem>,
    ws: MnaWorkspace,
    /// Every step decision (and the history, waveform and counters they
    /// act on) — the classic loop's own controller, one per lane.
    ctl: StepController,
    /// Stats snapshot taken after DC: the classic DC path publishes its own
    /// live metrics, so the group-end aggregate publishes only the delta.
    dc_stats: SimStats,
    factors: Factors,
    /// The classic cache's key bookkeeping, spare included: the lane holds
    /// one numeric set, but parks and un-parks keys exactly as
    /// `LinearCache` would, and ejects on a spare hit.
    keys: FactorKeys,
    last_dx: Option<f64>,
    /// Current Newton iterate.
    x: Vec<f64>,
    x_new: Vec<f64>,
    scratch: Vec<f64>,
    resid: Vec<f64>,
    rowsum: Vec<f64>,
    phase: Phase,
    // Current point.
    t_new: f64,
    on_horizon: bool,
    method: Method,
    coeffs: IntegCoeffs,
    it: usize,
    tick_key: LinKey,
    /// Whether the current iteration's factorization was fresh (pivot
    /// re-search) — controls the verify-retry, mirroring `factor_and_solve`.
    fresh: bool,
}

impl Lane {
    fn factored(&self) -> bool {
        !matches!(self.factors, Factors::None)
    }

    /// Mirror of the classic `EngineError::Linear` arm of `solve_point`:
    /// drop the (possibly poisoned) factorization and report the point
    /// unconverged so the step controller backs off.
    fn linear_error(&mut self, pack: &mut Option<LanePackedLu>, idx: usize) {
        if matches!(self.factors, Factors::Packed) {
            if let Some(p) = pack.as_mut() {
                p.evict(idx);
            }
        }
        self.factors = Factors::None;
        self.keys = FactorKeys::default();
        self.last_dx = None;
    }

    /// Installs freshly pivoted factors: back into the pack when the
    /// structure still matches, else as private scalar factors.
    fn install_fresh(&mut self, lu: SparseLu, pack: &mut Option<LanePackedLu>, idx: usize) {
        let adopted = pack.as_mut().is_some_and(|p| p.adopt(idx, &lu));
        self.factors = if adopted { Factors::Packed } else { Factors::Scalar(Box::new(lu)) };
    }
}

/// Shared per-group context (identical across lanes by construction — the
/// batch layer hands every instance the same options).
struct GroupCtx {
    opts: SimOptions,
    ctl: CacheCtl,
    lu_opts: LuOptions,
    ordering: Arc<Permutation>,
}

/// Runs up to [`MAX_LANES`] compiled instances to `tstop` through the
/// lane-packed tier. `systems` share one MNA pattern (the batch compile
/// guarantees this); `ordering` is the shared fill-reducing ordering the
/// batched solver handle was built from.
///
/// Returns one [`LaneOutcome`] per instance, in order. Completed lanes are
/// bit-identical to the classic single run; ejected lanes must be rerun
/// classically by the caller (see the [module docs](self)).
///
/// The caller is responsible for eligibility: no probe, no fault injection,
/// no deadline/cancel token, no UIC, serial stamping. Metrics are supported
/// (scalar counters are published as exact aggregates at group end; series,
/// gauges, and labeled families are not mirrored by this tier).
///
/// # Panics
///
/// Panics if `systems` is empty or holds more than [`MAX_LANES`] entries.
pub fn run_lane_group(
    systems: &[Arc<MnaSystem>],
    tstep: f64,
    tstop: f64,
    opts: &SimOptions,
    ordering: &Arc<Permutation>,
) -> Vec<LaneOutcome> {
    let k = systems.len();
    assert!((1..=MAX_LANES).contains(&k), "lane group of {k} outside 1..={MAX_LANES}");
    debug_assert!(!opts.probe.enabled(), "lane tier does not mirror probe events");
    debug_assert!(!opts.faults.enabled(), "lane tier does not mirror fault injection");
    debug_assert_eq!(opts.stamp_workers, 0, "lane tier stamps serially");
    let group_start = Instant::now();
    let g = GroupCtx {
        opts: opts.clone(),
        ctl: opts.cache_ctl(),
        lu_opts: LuOptions::default(),
        ordering: Arc::clone(ordering),
    };
    // The controllers publish nothing: this tier reports exact aggregates
    // for completed lanes at group end, and an ejected lane's steps are
    // published by its classic rerun.
    let quiet = SimOptions { metrics: MetricsHandle::none(), ..opts.clone() };

    // --- DC phase: the classic solver IS the DC path (bit-identity for
    // free); afterwards each lane inherits its workspace, factors, chord
    // key, and buffers, exactly as the classic loop would have.
    let mut lanes: Vec<Option<Lane>> = Vec::with_capacity(k);
    let mut pack: Option<LanePackedLu> = None;
    let mut ejected = 0u64;
    let mut packed_solves = 0u64;
    for sys in systems {
        let mut solver = PointSolver::new(Arc::clone(sys), g.opts.clone());
        // A failed DC solve (or a window the classic path rejects with
        // `BadParameter`): let the rerun produce that exact error.
        let Ok(ctl) = StepController::start(&mut solver, tstep, tstop, &quiet) else {
            lanes.push(None);
            ejected += 1;
            continue;
        };
        let (ws, cache) = solver.into_lane_parts();
        let (lu, keys, last_dx, x_new, scratch, resid) = cache.into_lane_seed();
        let Some(lu) = lu else {
            // Backend without extractable direct factors: not lane-packable.
            lanes.push(None);
            ejected += 1;
            continue;
        };
        let n = sys.n_unknowns();
        let h = ctl.h();
        let mut lane = Lane {
            sys: Arc::clone(sys),
            ws,
            dc_stats: *ctl.stats(),
            ctl,
            factors: Factors::Scalar(Box::new(lu)),
            keys,
            last_dx,
            x: Vec::new(),
            x_new,
            scratch,
            resid,
            rowsum: Vec::new(),
            phase: Phase::Begin,
            t_new: 0.0,
            on_horizon: false,
            method: g.opts.method,
            coeffs: IntegCoeffs::new(g.opts.method, h, h),
            it: 0,
            tick_key: LinKey::of(&StampInput {
                time: 0.0,
                coeffs: None,
                x_prev: &[],
                x_prev2: &[],
                cap_currents: &[],
                gmin: 0.0,
                gshunt: 0.0,
                source_scale: 1.0,
                ic_mode: false,
            }),
            fresh: false,
        };
        lane.x_new.resize(n, 0.0);
        lane.scratch.resize(n, 0.0);
        lane.resid.resize(n, 0.0);
        lanes.push(Some(lane));
    }
    // Seed the pack from the first live lane's DC factors; lanes whose pivot
    // structure diverged stay scalar.
    for (i, slot) in lanes.iter_mut().enumerate() {
        let Some(lane) = slot else { continue };
        let Factors::Scalar(lu) = std::mem::replace(&mut lane.factors, Factors::None) else {
            continue;
        };
        if pack.is_none() {
            pack = Some(LanePackedLu::from_structure(k, &lu));
        }
        lane.install_fresh(*lu, &mut pack, i);
    }

    // --- The tick loop: one Newton iteration per live lane per tick.
    while lanes.iter().flatten().any(|l| matches!(l.phase, Phase::Begin | Phase::Iter)) {
        packed_solves += tick(&mut lanes, &mut pack, &g);
    }

    // --- Metrics: exact scalar-counter aggregates for completed lanes plus
    // the lane-occupancy counters (ejected lanes are republished in full by
    // their classic rerun, so their transient portion is not counted here).
    let wall = group_start.elapsed().as_nanos();
    for slot in lanes.iter().flatten() {
        if slot.phase == Phase::Ejected {
            ejected += 1;
        }
    }
    if g.opts.metrics.enabled() {
        let m = &g.opts.metrics;
        m.inc(Counter::LaneGroups);
        m.add(Counter::LanePackedSolves, packed_solves);
        m.add(Counter::LaneEjections, ejected);
        for slot in lanes.iter().flatten() {
            if slot.phase != Phase::Finished {
                continue;
            }
            let (s, b) = (slot.ctl.stats(), &slot.dc_stats);
            let d = |tot: usize, base: usize| (tot - base) as u64;
            m.add(Counter::NewtonIterations, d(s.newton_iterations, b.newton_iterations));
            m.add(Counter::DeviceEvals, d(s.device_evals, b.device_evals));
            m.add(Counter::BypassedDevices, d(s.bypass_hits, b.bypass_hits));
            m.add(Counter::CompanionHits, d(s.companion_hits, b.companion_hits));
            m.add(Counter::Factorizations, d(s.factorizations, b.factorizations));
            m.add(Counter::Refactorizations, d(s.refactorizations, b.refactorizations));
            m.add(Counter::JacobianReuses, d(s.jacobian_reuses, b.jacobian_reuses));
            m.add(Counter::PointsAccepted, d(s.steps_accepted, b.steps_accepted));
            m.add(Counter::LteRejects, d(s.steps_rejected_lte, b.steps_rejected_lte));
            m.add(Counter::NewtonRejects, d(s.steps_rejected_newton, b.steps_rejected_newton));
            // One classic point-solve per accepted or rejected step.
            m.add(
                Counter::Solves,
                d(s.steps_accepted, b.steps_accepted)
                    + d(s.steps_rejected_lte, b.steps_rejected_lte)
                    + d(s.steps_rejected_newton, b.steps_rejected_newton),
            );
        }
    }

    lanes
        .into_iter()
        .map(|slot| match slot {
            Some(lane) if lane.phase == Phase::Finished => {
                // Lanes run interleaved, so per-lane wall clock is the group
                // wall clock; stamp_ns stays 0 (no timers in the hot path).
                LaneOutcome::Completed(Box::new(lane.ctl.finish(wall)))
            }
            _ => LaneOutcome::Ejected,
        })
        .collect()
}

/// One tick: every live lane advances exactly one Newton iteration (lanes in
/// `Begin` first propose their next point, mirroring the classic loop head).
/// Returns the number of lane-solves served by packed sweeps this tick.
fn tick(lanes: &mut [Option<Lane>], pack: &mut Option<LanePackedLu>, g: &GroupCtx) -> u64 {
    let mut packed_solves = 0u64;
    let mut role = [Role::Off; MAX_LANES];

    // Phase 0: point proposal (classic loop head + solve_point head).
    for lane in lanes.iter_mut().flatten() {
        if lane.phase == Phase::Begin {
            begin_point(lane, g);
        }
    }

    // Phase 1: stamp one Newton iteration per iterating lane.
    for (i, slot) in lanes.iter_mut().enumerate() {
        let Some(lane) = slot else { continue };
        if lane.phase != Phase::Iter {
            continue;
        }
        lane.it += 1;
        lane.ctl.stats_mut().newton_iterations += 1;
        let hw = lane.ctl.history();
        let x_prev2: &[f64] =
            if hw.solutions().len() >= 2 { &hw.solutions()[1] } else { &hw.solutions()[0] };
        let input = StampInput {
            time: lane.t_new,
            coeffs: Some(lane.coeffs),
            x_prev: hw.x(),
            x_prev2,
            cap_currents: hw.cap_currents(),
            gmin: g.opts.gmin,
            gshunt: 0.0,
            source_scale: 1.0,
            ic_mode: false,
        };
        lane.tick_key = LinKey::of(&input);
        let sres = lane.sys.stamp_lane(&mut lane.ws, &input, &lane.x, &g.ctl, lane.it == 1);
        lane.ctl.stats_mut().device_evals += sres.evals;
        lane.ctl.stats_mut().bypass_hits += sres.bypassed;
        if sres.companion_hit {
            lane.ctl.stats_mut().companion_hits += 1;
        }
        role[i] = if all_finite(&lane.ws.rhs) {
            Role::Stamped
        } else {
            // Non-finite excitation: give up on this point (classic Newton
            // returns unconverged before touching the matrix).
            Role::Done { solved: false }
        };
    }

    // Phase 2: chord attempt (factor_and_solve's reuse path). Eligibility
    // and the residual are per lane; the triangular solve is packed for
    // pack-resident lanes.
    for (i, slot) in lanes.iter_mut().enumerate() {
        let Some(lane) = slot else { continue };
        if role[i] != Role::Stamped {
            continue;
        }
        let mut hit = false;
        if g.opts.chord_newton && lane.factored() {
            // `factor_and_solve`'s look at the spare set. The lane has none:
            // parking is bookkeeping only (a refactorization lands the same
            // bits in either set), reuse of parked factors is not mirrored.
            match lane.keys.turn(lane.tick_key) {
                KeyTurn::SpareHit => {
                    lane.phase = Phase::Ejected;
                    role[i] = Role::Off;
                    continue;
                }
                turn @ KeyTurn::Park => lane.keys.swapped(turn),
                KeyTurn::Hit => hit = true,
                KeyTurn::Miss => {}
            }
        }
        if !hit || lane.ws.limited {
            role[i] = Role::Refactor;
            continue;
        }
        if lane.ws.matrix.residual_into(&lane.x, &lane.ws.rhs, &mut lane.resid).is_err() {
            lane.linear_error(pack, i);
            role[i] = Role::Done { solved: false };
            continue;
        }
        role[i] = match lane.factors {
            Factors::Packed => Role::ChordPacked,
            Factors::Scalar(_) => Role::ChordScalar,
            Factors::None => unreachable!("factored() checked"),
        };
    }
    if role.contains(&Role::ChordPacked) {
        let p = pack.as_mut().expect("packed lanes imply a pack");
        let kk = p.lane_count();
        let mut reqs: [Option<LaneSolve<'_>>; MAX_LANES] = core::array::from_fn(|_| None);
        for (i, slot) in lanes.iter_mut().enumerate() {
            if let Some(lane) = slot {
                if role[i] == Role::ChordPacked {
                    reqs[i] = Some(LaneSolve { b: &lane.resid, x: &mut lane.x_new });
                }
            }
        }
        packed_solves += reqs.iter().flatten().count() as u64;
        p.solve_lanes(&mut reqs[..kk]);
    }
    for (i, slot) in lanes.iter_mut().enumerate() {
        let Some(lane) = slot else { continue };
        if role[i] == Role::ChordScalar {
            let Factors::Scalar(lu) = &lane.factors else { unreachable!() };
            if lu.solve_with_scratch(&lane.resid, &mut lane.x_new, &mut lane.scratch).is_err() {
                lane.linear_error(pack, i);
                role[i] = Role::Done { solved: false };
                continue;
            }
        }
        if matches!(role[i], Role::ChordPacked | Role::ChordScalar) {
            lane.ctl.stats_mut().solves += 1;
            let dxn = norm_inf(&lane.x_new);
            let contracting = match lane.last_dx {
                None => true,
                Some(prev) => dxn <= g.opts.chord_theta * prev,
            };
            // As in the classic chord step: `norm_inf` drops NaN.
            if all_finite(&lane.x_new) && contracting {
                for (xn, &xi) in lane.x_new.iter_mut().zip(&lane.x) {
                    *xn += xi;
                }
                lane.last_dx = Some(dxn);
                lane.ctl.stats_mut().jacobian_reuses += 1;
                role[i] = Role::Done { solved: true };
            } else {
                // Contraction stalled: pay for a factorization this tick.
                role[i] = Role::Refactor;
            }
        }
    }

    // Phase 3: (re)factorization attempt 0. Pack-resident lanes refactor in
    // one packed sweep; scalar and unfactored lanes go through their own
    // factors. Per-lane fallout (degraded pivots → fresh pivot search,
    // other errors → the classic Linear arm) is handled individually.
    let any_packed_ref = lanes.iter().enumerate().any(|(i, slot)| {
        matches!(slot, Some(lane) if role[i] == Role::Refactor && matches!(lane.factors, Factors::Packed))
    });
    let mut ref_errs: [Option<SparseError>; MAX_LANES] = core::array::from_fn(|_| None);
    if any_packed_ref {
        let p = pack.as_mut().expect("packed lanes imply a pack");
        let kk = p.lane_count();
        let mut mats: [Option<&CscMatrix>; MAX_LANES] = [None; MAX_LANES];
        for (i, slot) in lanes.iter().enumerate() {
            if let Some(lane) = slot {
                if role[i] == Role::Refactor && matches!(lane.factors, Factors::Packed) {
                    mats[i] = Some(&lane.ws.matrix);
                }
            }
        }
        p.refactor_lanes(&mats[..kk], &mut ref_errs[..kk]);
    }
    for (i, slot) in lanes.iter_mut().enumerate() {
        let Some(lane) = slot else { continue };
        if role[i] != Role::Refactor {
            continue;
        }
        lane.fresh = false;
        match &mut lane.factors {
            Factors::Packed => match ref_errs[i].take() {
                None => {
                    lane.ctl.stats_mut().factorizations += 1;
                    lane.ctl.stats_mut().refactorizations += 1;
                    role[i] = Role::PackedRefOk;
                }
                Some(SparseError::PivotDegraded { .. }) => {
                    // refactor_lanes already evicted the lane.
                    lane.factors = Factors::None;
                    role[i] = fresh_factor(lane, pack, i, g);
                }
                Some(_) => {
                    lane.factors = Factors::None;
                    lane.linear_error(pack, i);
                    role[i] = Role::Done { solved: false };
                }
            },
            Factors::Scalar(lu) => match lu.refactor(&lane.ws.matrix) {
                Ok(()) => {
                    lane.ctl.stats_mut().factorizations += 1;
                    lane.ctl.stats_mut().refactorizations += 1;
                    role[i] = Role::ScalarRefOk;
                }
                Err(SparseError::PivotDegraded { .. }) => {
                    role[i] = fresh_factor(lane, pack, i, g);
                }
                Err(_) => {
                    lane.linear_error(pack, i);
                    role[i] = Role::Done { solved: false };
                }
            },
            Factors::None => {
                role[i] = fresh_factor(lane, pack, i, g);
            }
        }
    }
    // Packed solve sweep for the lanes whose packed refactor succeeded.
    if role.contains(&Role::PackedRefOk) {
        let p = pack.as_mut().expect("packed lanes imply a pack");
        let kk = p.lane_count();
        let mut reqs: [Option<LaneSolve<'_>>; MAX_LANES] = core::array::from_fn(|_| None);
        for (i, slot) in lanes.iter_mut().enumerate() {
            if let Some(lane) = slot {
                if role[i] == Role::PackedRefOk {
                    reqs[i] = Some(LaneSolve { b: &lane.ws.rhs, x: &mut lane.x_new });
                }
            }
        }
        packed_solves += reqs.iter().flatten().count() as u64;
        p.solve_lanes(&mut reqs[..kk]);
    }
    // Scalar solves, verification, and the verify-fail retry.
    for (i, slot) in lanes.iter_mut().enumerate() {
        let Some(lane) = slot else { continue };
        match role[i] {
            Role::ScalarRefOk => {
                let Factors::Scalar(lu) = &lane.factors else { unreachable!() };
                if lu.solve_with_scratch(&lane.ws.rhs, &mut lane.x_new, &mut lane.scratch).is_err()
                {
                    lane.linear_error(pack, i);
                    role[i] = Role::Done { solved: false };
                    continue;
                }
            }
            Role::PackedRefOk => {}
            _ => continue,
        }
        lane.ctl.stats_mut().solves += 1;
        role[i] = Role::Done { solved: verify_or_retry(lane, pack, i, g) };
    }

    // Phase 4: Newton convergence test and point tail.
    for (i, slot) in lanes.iter_mut().enumerate() {
        let Some(lane) = slot else { continue };
        let solved = match role[i] {
            Role::Done { solved } => solved,
            Role::Off => continue,
            other => unreachable!("unresolved lane role {other:?}"),
        };
        let mut point_done: Option<bool> = None;
        if !solved || !all_finite(&lane.x_new) {
            point_done = Some(false);
        } else {
            let n_nodes = lane.sys.n_nodes();
            let mut converged = !lane.ws.limited;
            for (kk, (&xn, &xo)) in lane.x_new.iter().zip(&lane.x).enumerate() {
                if !converged {
                    break;
                }
                let tol = if kk < n_nodes {
                    g.opts.vntol + g.opts.reltol * xn.abs().max(xo.abs())
                } else {
                    g.opts.abstol + g.opts.reltol * xn.abs().max(xo.abs())
                };
                if (xn - xo).abs() > tol {
                    converged = false;
                    break;
                }
            }
            lane.x.copy_from_slice(&lane.x_new);
            if converged {
                point_done = Some(true);
            } else if lane.it >= g.opts.max_newton_iters {
                point_done = Some(false);
            }
        }
        if let Some(converged) = point_done {
            finish_point(lane, converged);
        }
    }
    packed_solves
}

/// Fresh pivot search for one lane (the classic `backend.factor` fallback),
/// mirroring `DirectLu::factor` under a shared ordering. On success the factors are
/// re-adopted into the pack when the new structure matches, else kept
/// scalar. Returns the lane's next role.
fn fresh_factor(
    lane: &mut Lane,
    pack: &mut Option<LanePackedLu>,
    idx: usize,
    g: &GroupCtx,
) -> Role {
    lane.fresh = true;
    lane.keys.fresh_plan();
    match SparseLu::factor_with_ordering(&lane.ws.matrix, &g.lu_opts, (*g.ordering).clone()) {
        Ok(lu) => {
            lane.ctl.stats_mut().factorizations += 1;
            lane.install_fresh(lu, pack, idx);
            match lane.factors {
                Factors::Packed => Role::PackedRefOk,
                _ => Role::ScalarRefOk,
            }
        }
        Err(_) => {
            lane.linear_error(pack, idx);
            Role::Done { solved: false }
        }
    }
}

/// Backward-error verification of `x_new`, with the classic one-shot retry:
/// a failed verify after a frozen-pivot refactor pays for a fresh pivot
/// search and re-verifies; a failed verify after a fresh factorization is
/// final (`Ok(false)` in the classic code — point unconverged).
fn verify_or_retry(
    lane: &mut Lane,
    pack: &mut Option<LanePackedLu>,
    idx: usize,
    g: &GroupCtx,
) -> bool {
    for attempt in 0..2 {
        let Ok(verified) = solve_verified(
            &lane.ws.matrix,
            &lane.x_new,
            &lane.ws.rhs,
            &mut lane.resid,
            &mut lane.rowsum,
        ) else {
            lane.linear_error(pack, idx);
            return false;
        };
        if verified {
            lane.keys.factored(lane.tick_key);
            let mut dxn = 0.0f64;
            for (&xn, &xi) in lane.x_new.iter().zip(&lane.x) {
                dxn = dxn.max((xn - xi).abs());
            }
            lane.last_dx = dxn.is_finite().then_some(dxn);
            return true;
        }
        if lane.fresh || attempt > 0 {
            lane.keys.clear_active();
            return false;
        }
        // Retry with a fresh factorization (classic attempt 1). Solve
        // through the local factors before installing them — the packed and
        // scalar solves are bit-identical, so placement doesn't matter.
        lane.keys.fresh_plan();
        match SparseLu::factor_with_ordering(&lane.ws.matrix, &g.lu_opts, (*g.ordering).clone()) {
            Ok(lu) => {
                lane.ctl.stats_mut().factorizations += 1;
                if lu.solve_with_scratch(&lane.ws.rhs, &mut lane.x_new, &mut lane.scratch).is_err()
                {
                    lane.linear_error(pack, idx);
                    return false;
                }
                lane.ctl.stats_mut().solves += 1;
                lane.fresh = true;
                lane.install_fresh(lu, pack, idx);
            }
            Err(_) => {
                lane.linear_error(pack, idx);
                return false;
            }
        }
    }
    lane.keys.clear_active();
    false
}

/// The lane's share of a point's head: the controller proposes the target
/// (finish / eject checks, step clamping, breakpoint snapping), the lane
/// sets up what `solve_point` would — integration coefficients, predictor.
fn begin_point(lane: &mut Lane, g: &GroupCtx) {
    if lane.ctl.done() {
        lane.phase = Phase::Finished;
        return;
    }
    let Ok((t_new, on_horizon)) = lane.ctl.propose() else {
        // Classic: NumericalBlowup — not mirrored; rerun classically.
        lane.phase = Phase::Ejected;
        return;
    };
    let hw = lane.ctl.history();
    let h = t_new - hw.t();
    let method = hw.effective_method(g.opts.method);
    let h_prev = hw.h_prev().unwrap_or(h);
    lane.coeffs = IntegCoeffs::new(method, h, h_prev);
    lane.method = method;
    lane.t_new = t_new;
    lane.on_horizon = on_horizon;
    lane.x = hw.predict(t_new);
    lane.it = 0;
    lane.last_dx = None; // begin_solve()
    lane.phase = Phase::Iter;
}

/// The lane's share of a point's tail: what `solve_point` would hand back
/// (capacitor currents, the rejection note to the chord cache), then the
/// controller's verdict. Where the classic loop would rescue or end the run
/// — the step below the floor, a non-finite point — the lane ejects.
fn finish_point(lane: &mut Lane, converged: bool) {
    let h_attempt = lane.coeffs.h;
    if !converged {
        // note_rejection(): chord reuse must re-qualify.
        lane.keys.clear_active();
        lane.last_dx = None;
        // Below the floor the classic loop enters the recovery ladder (or
        // ends with TimestepTooSmall) — not mirrored; the classic rerun
        // reproduces it exactly.
        lane.phase = if lane.ctl.newton_reject(h_attempt) { Phase::Ejected } else { Phase::Begin };
        return;
    }
    let hw = lane.ctl.history();
    let x_prev2: &[f64] =
        if hw.solutions().len() >= 2 { &hw.solutions()[1] } else { &hw.solutions()[0] };
    let sc = state_coeffs(hw, lane.t_new);
    let cap_currents =
        lane.sys.cap_currents_after(&sc, &lane.x, hw.x(), x_prev2, hw.cap_currents());
    let sol = PointSolution {
        t: lane.t_new,
        // The iterate is dead from here on: `begin_point` replaces it.
        x: std::mem::take(&mut lane.x),
        method: lane.method,
        coeffs: lane.coeffs,
        converged: true,
        iterations: lane.it,
        cap_currents,
        stats: SimStats::new(),
    };
    lane.phase = Phase::Begin;
    match lane.ctl.try_commit(&sol) {
        Commit::Accepted { .. } => {
            if lane.on_horizon {
                lane.ctl.land_on_breakpoint();
            }
        }
        Commit::RejectedLte { h_retry } => lane.ctl.base_lte_reject(h_attempt, h_retry),
        // Classic: NumericalBlowup. (`RejectedNewton` cannot come back for a
        // point handed over as converged.)
        Commit::NonFinite | Commit::RejectedNewton => lane.phase = Phase::Ejected,
    }
}
