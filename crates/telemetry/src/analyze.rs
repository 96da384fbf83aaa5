//! Critical-path trace analysis: turns a recorded event stream (from a
//! [`crate::RecordingProbe`] or a parsed JSONL file) into the bottleneck
//! answers a human otherwise squints out of a Chrome trace.
//!
//! The analysis is split in two deliberately:
//!
//! * [`Counts`] — everything derived from event *counts*: speculation
//!   accounting, Newton breakdown, cache hit rates, per-lane and per-class
//!   tallies. `Counts::add` is the one incremental fold. For a fixed seed
//!   and thread count these are bit-reproducible, so the stable section of
//!   [`TraceAnalysis::report`] is **byte-stable** across identical runs —
//!   the auditability hook the determinism tests pin.
//! * [`Timing`] — everything derived from timestamps: per-lane
//!   busy/idle/blocked fractions and the critical-path decomposition of
//!   wall time. Real nanoseconds differ run to run, so this section is
//!   rendered separately and never enters the stable report.
//!
//! Ratios in the stable report are quantized to 0.1% by *integer*
//! arithmetic (per-mille, truncated), so no floating-point formatting
//! variance can leak into the stable bytes.

use crate::event::{DeviceClass, DiscardReason, Event, EventKind, FactorLayer};
use crate::histogram::Histogram;
use crate::json;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Declares [`Counts`]: each scalar is written once, and its field name is
/// its wire name — zero-initialisation, [`Counts::scalars`] (hence the JSON
/// encoding and the by-name lookup) all come from this one list.
macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident,)+) => {
        /// Count-derived run statistics (byte-reproducible for a fixed seed
        /// and thread count).
        #[derive(Debug, Clone, PartialEq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)+
            /// Solves per lane.
            pub lane_solves: BTreeMap<u32, u64>,
            /// Committed points per lane.
            pub lane_points: BTreeMap<u32, u64>,
            /// `(evaluated, bypassed)` nonlinear devices per device class,
            /// indexed by `DeviceClass as usize`.
            pub class_evals: [(u64, u64); DeviceClass::ALL.len()],
            /// Newton iterations per solve (from SolveEnd).
            pub newton_iters: Histogram,
            /// Integration strides of accepted points, seconds.
            pub step_sizes: Histogram,
            /// Discarded leads and speculations per reason, indexed by
            /// `DiscardReason as usize`.
            discards: [u64; DiscardReason::ALL.len()],
        }

        impl Counts {
            /// Nothing counted yet.
            fn zero() -> Self {
                Counts {
                    $($field: 0,)+
                    lane_solves: BTreeMap::new(),
                    lane_points: BTreeMap::new(),
                    class_evals: [(0, 0); DeviceClass::ALL.len()],
                    newton_iters: Histogram::integer(20),
                    step_sizes: Histogram::log10(-15, 0, 2),
                    discards: [0; DiscardReason::ALL.len()],
                }
            }

            /// `(wire name, value)` of every scalar, in declaration order.
            pub fn scalars(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)+]
            }
        }
    };
}

counts! {
    /// Pipelined rounds (RoundStart events).
    rounds,
    /// Committed points.
    points_accepted,
    /// Steps the run retried because the LTE test failed
    /// (`SimStats::steps_rejected_lte`).
    lte_rejects,
    /// Steps the run retried because Newton failed
    /// (`SimStats::steps_rejected_newton`).
    newton_rejects,
    /// Point-solves finished (SolveEnd events).
    solves,
    /// Solves that ended unconverged.
    solves_unconverged,
    /// Newton iterations: every `NewtonIter` event, the operating point's
    /// (emitted before any solve span) included — the same quantity as
    /// `SimStats::newton_iterations`. The per-solve distribution is
    /// [`Counts::newton_iters`].
    newton_iterations,
    /// Failed LTE tests (`LteReject` events), the tests that threw away a
    /// lead or a speculation included. *Not* the step-rejection count: that
    /// is [`Counts::lte_rejects`], which counts only the rejections that made
    /// the run retry a step.
    lte_tests_failed,
    /// Backward leads committed.
    lead_accepted,
    /// Backward leads discarded.
    lead_discarded,
    /// Forward speculations committed.
    speculation_accepted,
    /// Forward speculations discarded.
    speculation_discarded,
    /// Stamp passes (one per Newton iteration).
    stamp_passes,
    /// Device evaluations, linear ones included (`SimStats::device_evals`).
    device_evals,
    /// Numeric factorization passes of any kind.
    factorizations,
    /// Frozen-pivot refactorizations (subset of `factorizations`).
    refactorizations,
    /// Chord iterations that reused the previous LU.
    jacobian_reuses,
    /// Nonlinear device evaluations skipped by the bypass.
    bypassed_devices,
    /// Linear stamps replayed from the companion cache.
    companion_hits,
    /// Chord steps taken on factors that were parked.
    parked_hits,
    /// New linear-stamp keys no parked set was kept for.
    parked_misses,
    /// Chord steps taken on the factor set of a near key.
    near_hits,
    /// Chord steps on a near key's set that stalled into a refactorization.
    near_misses,
    /// Adopted LU plans that passed their pivot check.
    plan_hits,
    /// Adopted LU plans that failed it.
    plan_misses,
    /// Worker threads lost to panics.
    workers_lost,
    /// Serial-fallback transitions.
    serial_fallbacks,
    /// Wall-clock budget expirations.
    deadline_hits,
    /// Convergence recovery ladders engaged.
    recovery_attempts,
    /// Recovery rungs that produced a converged point.
    recovery_rescues,
    /// Solver-cache invalidations forced by the recovery ladder.
    cache_rollbacks,
    /// Linear solves through the Krylov (GMRES) path.
    krylov_solves,
    /// GMRES iterations summed over those solves.
    krylov_iterations,
    /// Preconditioner (re)builds on the Krylov path.
    precond_refreshes,
    /// Krylov solves completed by the direct-LU fallback.
    solver_fallbacks,
}

impl Counts {
    /// Scalar by wire name (`None` for a name [`Counts::scalars`] lacks).
    pub fn scalar(&self, name: &str) -> Option<u64> {
        self.scalars().into_iter().find(|&(n, _)| n == name).map(|(_, v)| v)
    }

    /// Solves whose result was thrown away (discarded leads plus discarded
    /// speculations).
    pub(crate) fn wasted_solves(&self) -> u64 {
        self.lead_discarded + self.speculation_discarded
    }

    /// Discard reasons across leads and speculations, descending by count
    /// then name.
    pub(crate) fn discard_reasons(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = DiscardReason::ALL
            .into_iter()
            .map(|r| (r.name(), self.discards[r as usize]))
            .filter(|&(_, n)| n > 0)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }

    /// `(class, evaluated, bypassed)` for every device class that counted
    /// either, ascending by name: the rows of [`class_cache_table`].
    pub(crate) fn class_rows(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows: Vec<_> = DeviceClass::ALL
            .into_iter()
            .map(|d| {
                let (evals, bypassed) = self.class_evals[d as usize];
                (d.name(), evals, bypassed)
            })
            .filter(|&(_, evals, bypassed)| evals + bypassed > 0)
            .collect();
        rows.sort_unstable();
        rows
    }

    /// `(layer, hits, misses)` for every solver cache layer that counted
    /// either: a bypassed device against an evaluated nonlinear one, a chord
    /// reuse against a factorization, a companion replay against any other
    /// stamp pass, and the parked, near and plan layers' own lookups. The rows of
    /// [`class_cache_table`].
    pub(crate) fn cache_rows(&self) -> Vec<(&'static str, u64, u64)> {
        let nonlinear_evals = self.class_evals.iter().map(|e| e.0).sum();
        [
            ("bypass", self.bypassed_devices, nonlinear_evals),
            ("chord", self.jacobian_reuses, self.factorizations),
            ("companion", self.companion_hits, self.stamp_passes - self.companion_hits),
            ("parked", self.parked_hits, self.parked_misses),
            ("near", self.near_hits, self.near_misses),
            ("plan", self.plan_hits, self.plan_misses),
        ]
        .into_iter()
        .filter(|&(_, hits, misses)| hits + misses > 0)
        .collect()
    }

    /// Folds one event into the counts: the one incremental fold behind
    /// [`analyze()`].
    pub(crate) fn add(&mut self, ev: &Event) {
        match ev.kind {
            EventKind::RoundStart { .. } => self.rounds += 1,
            EventKind::SolveEnd { iterations, converged } => {
                self.solves += 1;
                self.solves_unconverged += u64::from(!converged);
                self.newton_iters.observe(f64::from(iterations));
                *self.lane_solves.entry(ev.lane).or_insert(0) += 1;
            }
            EventKind::NewtonIter { .. } => self.newton_iterations += 1,
            EventKind::Factorization => self.factorizations += 1,
            EventKind::Refactorization => self.refactorizations += 1,
            EventKind::JacobianReuse => self.jacobian_reuses += 1,
            EventKind::FactorLookup { layer, hit } => {
                *match (layer, hit) {
                    (FactorLayer::Parked, true) => &mut self.parked_hits,
                    (FactorLayer::Parked, false) => &mut self.parked_misses,
                    (FactorLayer::Near, true) => &mut self.near_hits,
                    (FactorLayer::Near, false) => &mut self.near_misses,
                    (FactorLayer::Plan, true) => &mut self.plan_hits,
                    (FactorLayer::Plan, false) => &mut self.plan_misses,
                } += 1;
            }
            EventKind::StampPass { evals, bypassed, companion_hit } => {
                self.stamp_passes += 1;
                self.device_evals += u64::from(evals);
                self.bypassed_devices += u64::from(bypassed);
                self.companion_hits += u64::from(companion_hit);
            }
            EventKind::ClassEvals { class, evals, bypassed } => {
                let cell = &mut self.class_evals[class as usize];
                cell.0 += u64::from(evals);
                cell.1 += u64::from(bypassed);
            }
            EventKind::LteReject { .. } => self.lte_tests_failed += 1,
            EventKind::PointAccepted { h } => {
                self.points_accepted += 1;
                self.step_sizes.observe(h);
                *self.lane_points.entry(ev.lane).or_insert(0) += 1;
            }
            EventKind::StepRetry { newton: true } => self.newton_rejects += 1,
            EventKind::StepRetry { newton: false } => self.lte_rejects += 1,
            EventKind::LeadAccepted => self.lead_accepted += 1,
            EventKind::LeadDiscarded { reason } => {
                self.lead_discarded += 1;
                self.discards[reason as usize] += 1;
            }
            EventKind::SpeculationAccepted => self.speculation_accepted += 1,
            EventKind::SpeculationDiscarded { reason } => {
                self.speculation_discarded += 1;
                self.discards[reason as usize] += 1;
            }
            EventKind::WorkerLost { .. } => self.workers_lost += 1,
            EventKind::FallbackSerial => self.serial_fallbacks += 1,
            EventKind::DeadlineHit => self.deadline_hits += 1,
            EventKind::RecoveryAttempt { .. } => self.recovery_attempts += 1,
            EventKind::RecoveryRung { success, .. } => self.recovery_rescues += u64::from(success),
            EventKind::CachePoisonRollback => self.cache_rollbacks += 1,
            EventKind::KrylovSolve { iterations, precond_refreshes, fallback, .. } => {
                self.krylov_solves += 1;
                self.krylov_iterations += u64::from(iterations);
                self.precond_refreshes += u64::from(precond_refreshes);
                self.solver_fallbacks += u64::from(fallback);
            }
            EventKind::RoundEnd { .. }
            | EventKind::SolveStart { .. }
            | EventKind::StepSizeChosen { .. }
            | EventKind::LeadEma { .. } => {}
        }
    }
}

/// Per-lane wall-time accounting, nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneTiming {
    /// Lane id.
    pub lane: u32,
    /// Sum of solve spans (execution start → end; queue wait excluded).
    pub busy_ns: u64,
    /// Sum of dispatch-to-execution gaps (a task was assigned but had not
    /// started running — the lane was blocked on scheduling).
    pub blocked_ns: u64,
}

/// Timestamp-derived run statistics. **Not** byte-stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// First-to-last event timestamp, nanoseconds.
    pub wall_ns: u64,
    /// Per-lane busy/blocked accounting, ascending by lane.
    pub lanes: Vec<LaneTiming>,
    /// Busy time on lane 0 — the lead/commit lane that also runs base
    /// solves and speculative refinements.
    pub lead_ns: u64,
    /// Busy time on lanes 1.. — the speculative pool solves.
    pub speculative_ns: u64,
    /// Sum over rounds of the solve-phase span (first solve start to last
    /// solve end): the parallel part of the critical path.
    pub solve_phase_ns: u64,
    /// Sum over rounds of the tail between the last solve end and the
    /// round end: commit, LTE bookkeeping, and scheduling.
    pub commit_ns: u64,
    /// Sum over rounds of the head between the round start and the first
    /// solve start: task construction and dispatch.
    pub launch_ns: u64,
    /// Wall time inside rounds altogether.
    pub rounds_ns: u64,
    /// Sum over rounds of the *longest* concurrent solve — the solve part of
    /// the critical path.
    pub critical_solve_ns: u64,
    /// Sum over rounds of *all* concurrent solves — the machine work.
    pub total_solve_ns: u64,
}

impl Timing {
    /// Achieved solve concurrency: machine solve time over critical-path
    /// solve time (1.0 = no overlap, `p` = perfect `p`-wide pipelining).
    pub(crate) fn solve_overlap(&self) -> f64 {
        if self.critical_solve_ns == 0 {
            return 1.0;
        }
        self.total_solve_ns as f64 / self.critical_solve_ns as f64
    }

    /// The dominant wall-time component as a `(label, fraction)` pair —
    /// the headline of a doctor report — or `None` for a trace without
    /// rounds (a serial run), which has no round phases to rank.
    pub(crate) fn dominant(&self) -> Option<(&'static str, f64)> {
        if self.rounds_ns == 0 {
            return None;
        }
        let wall = self.wall_ns.max(1) as f64;
        let outside = self.wall_ns.saturating_sub(self.rounds_ns);
        let cands = [
            ("solve phase", self.solve_phase_ns),
            ("commit tail", self.commit_ns),
            ("round launch", self.launch_ns),
            ("outside rounds", outside),
        ];
        let (label, ns) = cands.iter().max_by_key(|(_, ns)| *ns).copied().unwrap_or(("idle", 0));
        Some((label, ns as f64 / wall))
    }
}

/// The full analysis: stable counts plus unstable timing.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Count-derived statistics (byte-reproducible).
    pub counts: Counts,
    /// Timestamp-derived statistics (vary run to run).
    pub timing: Timing,
}

/// Truncating per-mille ratio rendered as `"12.3%"` — integer arithmetic
/// only, so equal counts always render equal bytes.
pub(crate) fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        return "n/a".to_string();
    }
    let pm = num.saturating_mul(1000) / den;
    format!("{}.{}%", pm / 10, pm % 10)
}

/// Analyzes a recorded event stream (in record order, as produced by
/// [`crate::RecordingProbe::events`] or [`crate::jsonl::parse_jsonl`]).
pub fn analyze(events: &[Event]) -> TraceAnalysis {
    let mut c = Counts::zero();

    // Timing state. Solve spans use last-start-wins (dispatch stamps a
    // SolveStart, execution stamps another; busy time must exclude the
    // queue wait, which is tracked separately as `blocked`).
    #[derive(Default, Clone, Copy)]
    struct RoundAgg {
        start: u64,
        end: u64,
        first_solve_start: u64,
        last_solve_end: u64,
        longest_solve: u64,
        solve_sum: u64,
    }
    let mut open_solve: HashMap<u32, (u64, u64)> = HashMap::new(); // lane -> (first, last) start
    let mut lanes: BTreeMap<u32, LaneTiming> = BTreeMap::new();
    let mut rounds: HashMap<u64, RoundAgg> = HashMap::new();
    let (mut ts_min, mut ts_max) = (u64::MAX, 0u64);

    for ev in events {
        c.add(ev);
        ts_min = ts_min.min(ev.ts_ns);
        ts_max = ts_max.max(ev.ts_ns);
        match ev.kind {
            EventKind::RoundStart { .. } => {
                let agg = rounds.entry(ev.round).or_default();
                agg.start = ev.ts_ns;
                agg.first_solve_start = u64::MAX;
            }
            EventKind::RoundEnd { .. } => {
                rounds.entry(ev.round).or_default().end = ev.ts_ns;
            }
            EventKind::SolveStart { .. } => {
                let entry = open_solve.entry(ev.lane).or_insert((ev.ts_ns, ev.ts_ns));
                entry.1 = ev.ts_ns;
                let agg = rounds.entry(ev.round).or_default();
                if agg.first_solve_start == 0 {
                    agg.first_solve_start = u64::MAX;
                }
                agg.first_solve_start = agg.first_solve_start.min(ev.ts_ns);
            }
            EventKind::SolveEnd { .. } => {
                if let Some((first, last)) = open_solve.remove(&ev.lane) {
                    let busy = ev.ts_ns.saturating_sub(last);
                    let lane = lanes.entry(ev.lane).or_insert(LaneTiming {
                        lane: ev.lane,
                        busy_ns: 0,
                        blocked_ns: 0,
                    });
                    lane.busy_ns += busy;
                    lane.blocked_ns += last.saturating_sub(first);
                    let agg = rounds.entry(ev.round).or_default();
                    agg.last_solve_end = agg.last_solve_end.max(ev.ts_ns);
                    agg.longest_solve = agg.longest_solve.max(busy);
                    agg.solve_sum += busy;
                }
            }
            _ => {}
        }
    }

    // Fold the per-round spans into the wall-time decomposition.
    let (mut solve_phase, mut commit, mut launch, mut rounds_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut critical_solve_ns, mut total_solve_ns) = (0u64, 0u64);
    for agg in rounds.values() {
        if agg.end <= agg.start {
            continue; // no round (a serial run's round 0) or never closed
        }
        rounds_ns += agg.end - agg.start;
        critical_solve_ns += agg.longest_solve;
        total_solve_ns += agg.solve_sum;
        if agg.first_solve_start != u64::MAX && agg.last_solve_end > 0 {
            let first = agg.first_solve_start.max(agg.start);
            let last = agg.last_solve_end.clamp(first, agg.end);
            launch += first - agg.start;
            solve_phase += last - first;
            commit += agg.end - last;
        }
    }
    let lanes: Vec<LaneTiming> = lanes.into_values().collect();
    let lead_ns = lanes.iter().filter(|l| l.lane == 0).map(|l| l.busy_ns).sum();
    let speculative_ns = lanes.iter().filter(|l| l.lane != 0).map(|l| l.busy_ns).sum();
    let timing = Timing {
        wall_ns: if ts_min == u64::MAX { 0 } else { ts_max - ts_min },
        lanes,
        lead_ns,
        speculative_ns,
        solve_phase_ns: solve_phase,
        commit_ns: commit,
        launch_ns: launch,
        rounds_ns,
        critical_solve_ns,
        total_solve_ns,
    };
    TraceAnalysis { counts: c, timing }
}

impl TraceAnalysis {
    /// The count-derived section: byte-stable across identical seeded runs
    /// at a fixed thread count.
    pub(crate) fn stable_report(&self, title: &str) -> String {
        let c = &self.counts;
        let mut out = String::new();
        let _ = writeln!(out, "wavepipe doctor: {title}");
        let _ = writeln!(out, "== stable (count-derived; byte-reproducible) ==");
        let _ = writeln!(out, "  rounds                    {:>10}", c.rounds);
        let _ = writeln!(out, "  points accepted           {:>10}", c.points_accepted);
        let _ = writeln!(
            out,
            "  solves                    {:>10}  ({} unconverged)",
            c.solves, c.solves_unconverged
        );
        for (&lane, &n) in &c.lane_solves {
            let _ = writeln!(
                out,
                "    lane {lane:<3} solves         {:>10}  ({} of all solves)",
                n,
                pct(n, c.solves)
            );
        }
        let _ = writeln!(
            out,
            "  newton iterations         {:>10}  (p50 {} / p99 {} per solve)",
            c.newton_iterations,
            quant(&c.newton_iters, 0.5),
            quant(&c.newton_iters, 0.99)
        );
        let _ = writeln!(out, "  lte tests failed          {:>10}", c.lte_tests_failed);
        let lead_issued = c.lead_accepted + c.lead_discarded;
        let spec_issued = c.speculation_accepted + c.speculation_discarded;
        let _ = writeln!(
            out,
            "  leads issued              {:>10}  (accepted {}, discarded {})",
            lead_issued, c.lead_accepted, c.lead_discarded
        );
        let _ = writeln!(
            out,
            "  speculations issued       {:>10}  (accepted {}, discarded {})",
            spec_issued, c.speculation_accepted, c.speculation_discarded
        );
        let _ = writeln!(
            out,
            "  speculation waste         {:>10}  of all solves ({} wasted)",
            pct(c.wasted_solves(), c.solves),
            c.wasted_solves()
        );
        let reasons = c.discard_reasons();
        if !reasons.is_empty() {
            let _ = write!(out, "  discard reasons          ");
            for (name, n) in reasons {
                let _ = write!(out, " {name}={n}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "  -- solver caches --");
        let _ = writeln!(
            out,
            "  chord LU reuse            {:>10}  of linear solves ({} reuses / {} factor)",
            pct(c.jacobian_reuses, c.jacobian_reuses + c.factorizations),
            c.jacobian_reuses,
            c.factorizations
        );
        let _ = writeln!(
            out,
            "  frozen-pivot refactor     {:>10}  of factorizations ({} of {})",
            pct(c.refactorizations, c.factorizations),
            c.refactorizations,
            c.factorizations
        );
        let _ = writeln!(
            out,
            "  companion replay          {:>10}  of newton stamps ({} hits)",
            pct(c.companion_hits, c.stamp_passes),
            c.companion_hits
        );
        let _ = writeln!(out, "  bypassed device evals     {:>10}", c.bypassed_devices);
        if c.krylov_solves > 0 {
            let _ = writeln!(
                out,
                "  krylov solves             {:>10}  ({} iterations / {} precond refreshes)",
                c.krylov_solves, c.krylov_iterations, c.precond_refreshes
            );
            let _ = writeln!(
                out,
                "  krylov direct fallback    {:>10}  of krylov solves ({} fallbacks)",
                pct(c.solver_fallbacks, c.krylov_solves),
                c.solver_fallbacks
            );
        }
        if c.workers_lost + c.serial_fallbacks + c.deadline_hits > 0 {
            let _ = writeln!(
                out,
                "  faults                    {:>10}  workers lost / {} fallbacks / {} deadlines",
                c.workers_lost, c.serial_fallbacks, c.deadline_hits
            );
        }
        if c.recovery_attempts + c.cache_rollbacks > 0 {
            let _ = writeln!(
                out,
                "  recovery                  {:>10}  ladders / {} rescued / {} cache rollbacks",
                c.recovery_attempts, c.recovery_rescues, c.cache_rollbacks
            );
        }
        out
    }

    /// The timestamp-derived section: per-lane utilization and the
    /// critical-path decomposition. **Not** byte-stable across runs.
    pub(crate) fn timing_report(&self) -> String {
        let t = &self.timing;
        let wall = t.wall_ns.max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(out, "== timing (wall-clock; varies run to run) ==");
        let ms = t.wall_ns as f64 / 1e6;
        let _ = match t.dominant() {
            Some((label, frac)) => writeln!(
                out,
                "  bottleneck: {label} is {:.0}% of wall time ({ms:.3} ms total)",
                frac * 100.0
            ),
            None => writeln!(
                out,
                "  bottleneck: no rounds in this trace (a serial run); solves are {:.0}% of wall \
                 time ({ms:.3} ms total)",
                (t.lead_ns + t.speculative_ns) as f64 / wall * 100.0
            ),
        };
        // A trace without rounds has no round phases to decompose.
        if t.rounds_ns > 0 {
            let _ = writeln!(
                out,
                "  critical path: launch {:.1}%  solve phase {:.1}%  commit tail {:.1}%  \
                 outside rounds {:.1}%",
                t.launch_ns as f64 / wall * 100.0,
                t.solve_phase_ns as f64 / wall * 100.0,
                t.commit_ns as f64 / wall * 100.0,
                t.wall_ns.saturating_sub(t.rounds_ns) as f64 / wall * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "  solve time: lead lane {:.3} ms, speculative lanes {:.3} ms",
            t.lead_ns as f64 / 1e6,
            t.speculative_ns as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "  solve overlap: {:.2}x (all solves over the longest solve of each round)",
            t.solve_overlap()
        );
        for l in &t.lanes {
            let busy = l.busy_ns as f64 / wall;
            let blocked = l.blocked_ns as f64 / wall;
            let idle = (1.0 - busy - blocked).max(0.0);
            let _ = writeln!(
                out,
                "  lane {:<3} busy {:>5.1}%  blocked {:>5.1}%  idle {:>5.1}%",
                l.lane,
                busy * 100.0,
                blocked * 100.0,
                idle * 100.0
            );
        }
        out
    }

    /// The report: the stable section with its per-class / per-cache
    /// table, then — unless `stable_only` — the accepted-step-size
    /// distribution (count-derived too, but too long for the stable section)
    /// and the timing section. `title` names the run (circuit, scheme,
    /// threads) and must itself be deterministic.
    pub fn report(&self, title: &str, stable_only: bool) -> String {
        let mut out = self.stable_report(title);
        out.push_str(&class_cache_table(&self.counts));
        if stable_only {
            return out;
        }
        if self.counts.step_sizes.count() > 0 {
            let _ = write!(out, "  accepted step sizes (s):\n{}", self.counts.step_sizes);
        }
        out.push_str(&self.timing_report());
        out
    }

    /// JSON encoding: a `stable` object always, plus a `timing` object
    /// unless `stable_only` is set.
    pub fn to_json(&self, stable_only: bool) -> String {
        let c = &self.counts;
        let mut out = String::from("{\"stable\":{");
        for (i, (name, v)) in c.scalars().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str(",\"lane_solves\":[");
        for (i, (&lane, &n)) in c.lane_solves.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"lane\":{lane},\"solves\":{n}}}");
        }
        out.push_str("],\"lane_points\":[");
        for (i, (&lane, &n)) in c.lane_points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"lane\":{lane},\"points\":{n}}}");
        }
        out.push_str("],\"discard_reasons\":[");
        for (i, (name, n)) in c.discard_reasons().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"reason\":\"{}\",\"count\":{n}}}", json::escape(name));
        }
        out.push_str("],\"classes\":[");
        for (i, (class, evals, bypassed)) in c.class_rows().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ =
                write!(out, "{{\"class\":\"{class}\",\"evals\":{evals},\"bypassed\":{bypassed}}}");
        }
        out.push_str("],\"caches\":[");
        for (i, (cache, hits, misses)) in c.cache_rows().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"cache\":\"{cache}\",\"hits\":{hits},\"misses\":{misses}}}");
        }
        out.push_str("]}");
        if !stable_only {
            let t = &self.timing;
            let _ = write!(
                out,
                ",\"timing\":{{\"wall_ns\":{},\"solve_phase_ns\":{},\"commit_ns\":{},\
                 \"launch_ns\":{},\"rounds_ns\":{},\"lead_ns\":{},\"speculative_ns\":{},\
                 \"critical_solve_ns\":{},\"total_solve_ns\":{},\
                 \"lanes\":[",
                t.wall_ns,
                t.solve_phase_ns,
                t.commit_ns,
                t.launch_ns,
                t.rounds_ns,
                t.lead_ns,
                t.speculative_ns,
                t.critical_solve_ns,
                t.total_solve_ns
            );
            for (i, l) in t.lanes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"lane\":{},\"busy_ns\":{},\"blocked_ns\":{}}}",
                    l.lane, l.busy_ns, l.blocked_ns
                );
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}

/// Renders the per-device-class and per-cache-layer rows of `counts` as a
/// stable table (counts only, deterministic).
fn class_cache_table(counts: &Counts) -> String {
    let mut out = String::new();
    let classes = counts.class_rows();
    if !classes.is_empty() {
        let _ = writeln!(out, "  -- per device class --");
    }
    for (class, evals, byp) in classes {
        let _ = writeln!(
            out,
            "  {class:<10} evals {evals:>10}  bypassed {byp:>10}  ({} bypass rate)",
            pct(byp, byp + evals)
        );
    }
    let caches = counts.cache_rows();
    if !caches.is_empty() {
        let _ = writeln!(out, "  -- per cache layer --");
    }
    for (cache, hits, misses) in caches {
        let _ = writeln!(
            out,
            "  {cache:<10} hits  {hits:>10}  misses   {misses:>10}  ({} hit rate)",
            pct(hits, hits + misses)
        );
    }
    out
}

/// Deterministic rendering of a histogram quantile for the stable report:
/// the quantile interpolation is pure arithmetic on counts, so equal count
/// vectors give equal strings.
fn quant(h: &Histogram, q: f64) -> String {
    match h.quantile(q) {
        Some(v) => format!("{v:.1}"),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DiscardReason;

    fn ev(ts_ns: u64, round: u64, lane: u32, kind: EventKind) -> Event {
        Event { ts_ns, round, lane, t_sim: 0.0, kind }
    }

    /// A two-round synthetic stream with dispatch+execution SolveStarts.
    fn sample_stream() -> Vec<Event> {
        vec![
            ev(0, 1, 0, EventKind::RoundStart { width: 2 }),
            ev(5, 1, 1, EventKind::SolveStart { h: 1e-9 }), // dispatch
            ev(10, 1, 0, EventKind::SolveStart { h: 1e-9 }),
            ev(15, 1, 1, EventKind::SolveStart { h: 2e-9 }), // execution
            ev(50, 1, 0, EventKind::SolveEnd { iterations: 3, converged: true }),
            ev(80, 1, 1, EventKind::SolveEnd { iterations: 5, converged: true }),
            ev(85, 1, 0, EventKind::PointAccepted { h: 1e-9 }),
            ev(88, 1, 0, EventKind::LeadAccepted),
            ev(95, 1, 0, EventKind::LeadDiscarded { reason: DiscardReason::LteRejected }),
            ev(100, 1, 0, EventKind::RoundEnd { committed: 1 }),
            ev(110, 2, 0, EventKind::RoundStart { width: 1 }),
            ev(112, 2, 0, EventKind::SolveStart { h: 1e-9 }),
            ev(160, 2, 0, EventKind::SolveEnd { iterations: 4, converged: false }),
            ev(170, 2, 0, EventKind::RoundEnd { committed: 0 }),
        ]
    }

    #[test]
    fn counts_aggregate_and_lane_tables_sort() {
        let a = analyze(&sample_stream());
        let c = &a.counts;
        assert_eq!(c.rounds, 2);
        assert_eq!(c.points_accepted, 1);
        assert_eq!(c.solves, 3);
        assert_eq!(c.solves_unconverged, 1);
        assert_eq!(c.newton_iters.sum(), 12.0);
        assert_eq!(c.step_sizes.count(), 1);
        assert_eq!(c.lane_solves, BTreeMap::from([(0, 2), (1, 1)]));
        assert_eq!(c.lane_points, BTreeMap::from([(0, 1)]));
        assert_eq!(c.lead_accepted, 1);
        assert_eq!(c.lead_discarded, 1);
        assert_eq!(c.wasted_solves(), 1);
        assert_eq!(c.discard_reasons(), vec![("lte_rejected", 1)]);
    }

    #[test]
    fn timing_decomposes_rounds_and_tracks_blocked_time() {
        let a = analyze(&sample_stream());
        let t = &a.timing;
        assert_eq!(t.wall_ns, 170);
        // Round 1: launch 5 (start 0 -> first solve start 5), solve phase
        // 75 (5 -> 80), commit 20 (80 -> 100). Round 2: launch 2, solve
        // phase 48, commit 10.
        assert_eq!(t.launch_ns, 7);
        assert_eq!(t.solve_phase_ns, 123);
        assert_eq!(t.commit_ns, 30);
        assert_eq!(t.rounds_ns, 160);
        // Lane 1 was dispatched at 5 and started at 15: 10 ns blocked,
        // 65 ns busy. Lane 0 never re-started: no blocked time.
        let lane1 = t.lanes.iter().find(|l| l.lane == 1).unwrap();
        assert_eq!(lane1.blocked_ns, 10);
        assert_eq!(lane1.busy_ns, 65);
        let lane0 = t.lanes.iter().find(|l| l.lane == 0).unwrap();
        assert_eq!(lane0.blocked_ns, 0);
        assert_eq!(lane0.busy_ns, 40 + 48);
        assert_eq!(t.lead_ns, 88);
        assert_eq!(t.speculative_ns, 65);
        // Longest solve per round 65 + 48, all solves 40 + 65 + 48.
        assert_eq!(t.critical_solve_ns, 113);
        assert_eq!(t.total_solve_ns, 153);
        assert!((t.solve_overlap() - 153.0 / 113.0).abs() < 1e-12);
        // A serial stream has no rounds, hence nothing to overlap.
        assert_eq!(analyze(&[]).timing.solve_overlap(), 1.0);
    }

    #[test]
    fn a_trace_without_rounds_reports_its_solve_share() {
        // A serial run: solves on lane 0, no round events.
        let serial = [
            ev(0, 0, 0, EventKind::SolveStart { h: 1e-9 }),
            ev(60, 0, 0, EventKind::SolveEnd { iterations: 3, converged: true }),
            ev(70, 0, 0, EventKind::PointAccepted { h: 1e-9 }),
            ev(80, 0, 0, EventKind::SolveStart { h: 1e-9 }),
            ev(95, 0, 0, EventKind::SolveEnd { iterations: 2, converged: true }),
            ev(100, 0, 0, EventKind::PointAccepted { h: 1e-9 }),
        ];
        let a = analyze(&serial);
        assert_eq!((a.timing.rounds_ns, a.timing.lead_ns), (0, 75));
        assert_eq!(a.timing.dominant(), None);
        let timing = a.timing_report();
        assert!(
            timing.contains("bottleneck: no rounds in this trace (a serial run); solves are 75%"),
            "{timing}"
        );
        assert!(!timing.contains("outside rounds is"), "{timing}");
        assert!(!timing.contains("critical path"), "no rounds to decompose: {timing}");
        // A pipelined trace still ranks its round phases.
        assert_eq!(analyze(&sample_stream()).timing.dominant().map(|d| d.0), Some("solve phase"));
    }

    /// One or two events of every kind that feeds a scalar the sample stream
    /// leaves at zero.
    fn counter_stream() -> Vec<Event> {
        let krylov = |iterations, precond_refreshes, fallback| EventKind::KrylovSolve {
            iterations,
            restarts: 1,
            precond_refreshes,
            fallback,
        };
        [
            EventKind::NewtonIter { iteration: 1 },
            EventKind::NewtonIter { iteration: 2 },
            EventKind::Factorization,
            EventKind::Factorization,
            EventKind::Refactorization,
            EventKind::JacobianReuse,
            EventKind::StampPass { evals: 5, bypassed: 7, companion_hit: false },
            EventKind::StampPass { evals: 4, bypassed: 2, companion_hit: true },
            EventKind::ClassEvals { class: DeviceClass::Bjt, evals: 3, bypassed: 9 },
            EventKind::FactorLookup { layer: FactorLayer::Parked, hit: true },
            EventKind::FactorLookup { layer: FactorLayer::Near, hit: true },
            EventKind::FactorLookup { layer: FactorLayer::Near, hit: false },
            EventKind::FactorLookup { layer: FactorLayer::Plan, hit: false },
            EventKind::LteReject { ratio: 2.0, h_retry: 1e-10 },
            EventKind::StepRetry { newton: false },
            EventKind::StepRetry { newton: true },
            EventKind::StepRetry { newton: true },
            EventKind::SpeculationAccepted,
            EventKind::SpeculationDiscarded { reason: DiscardReason::ChainBroken },
            EventKind::WorkerLost { lane: 2 },
            EventKind::WorkerLost { lane: 1 },
            EventKind::FallbackSerial,
            EventKind::DeadlineHit,
            EventKind::RecoveryAttempt { h: 1e-15 },
            EventKind::CachePoisonRollback,
            EventKind::RecoveryRung { rung: 1, success: false },
            EventKind::RecoveryRung { rung: 2, success: true },
            krylov(12, 1, false),
            krylov(30, 0, true),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| ev(10 * i as u64, 1, 0, kind))
        .collect()
    }

    #[test]
    fn every_count_feeding_kind_lands_in_its_scalar() {
        let a = analyze(&counter_stream());
        let want = [
            ("newton_iterations", 2),
            ("factorizations", 2),
            ("refactorizations", 1),
            ("jacobian_reuses", 1),
            ("stamp_passes", 2),
            ("device_evals", 9),
            ("bypassed_devices", 9),
            ("companion_hits", 1),
            ("parked_hits", 1),
            ("near_hits", 1),
            ("near_misses", 1),
            ("plan_misses", 1),
            ("lte_tests_failed", 1),
            ("lte_rejects", 1),
            ("newton_rejects", 2),
            ("speculation_accepted", 1),
            ("speculation_discarded", 1),
            ("workers_lost", 2),
            ("serial_fallbacks", 1),
            ("deadline_hits", 1),
            ("recovery_attempts", 1),
            ("recovery_rescues", 1),
            ("cache_rollbacks", 1),
            ("krylov_solves", 2),
            ("krylov_iterations", 42),
            ("precond_refreshes", 1),
            ("solver_fallbacks", 1),
        ];
        for (name, v) in want {
            assert_eq!(a.counts.scalar(name), Some(v), "{name}");
        }
        assert_eq!(a.counts.class_evals[DeviceClass::Bjt as usize], (3, 9));
        assert_eq!(a.counts.scalar("no_such_count"), None);
        let stable = a.stable_report("t");
        for line in ["krylov solves", "faults", "recovery"] {
            assert!(stable.contains(line), "{line}: {stable}");
        }
        // A stream without those events prints none of the optional lines.
        let clean = analyze(&sample_stream()).stable_report("t");
        for line in ["krylov solves", "faults", "recovery"] {
            assert!(!clean.contains(line), "{line}: {clean}");
        }
    }

    #[test]
    fn every_scalar_appears_in_the_json() {
        let a = analyze(&counter_stream());
        let doc = json::parse(&a.to_json(true)).expect("doctor json parses");
        let stable = doc.get("stable").expect("stable object");
        let scalars = a.counts.scalars();
        assert!(scalars.len() >= 25);
        for (name, v) in scalars {
            let got = stable.get(name).and_then(|j| j.as_f64());
            assert_eq!(got, Some(v as f64), "`{name}` missing from the JSON");
        }
    }

    #[test]
    fn stable_report_is_identical_for_identical_counts() {
        let a = analyze(&sample_stream());
        let b = analyze(&sample_stream());
        assert_eq!(a.stable_report("test"), b.stable_report("test"));
        // Shifting every timestamp changes timing but not the stable bytes.
        let shifted: Vec<Event> = sample_stream()
            .into_iter()
            .map(|mut e| {
                e.ts_ns = e.ts_ns * 3 + 17;
                e
            })
            .collect();
        let s = analyze(&shifted);
        assert_eq!(a.stable_report("test"), s.stable_report("test"));
        assert_ne!(a.timing, s.timing);
    }

    #[test]
    fn reports_render_expected_lines() {
        let a = analyze(&sample_stream());
        let stable = a.stable_report("rc_ladder, backward x2");
        assert!(stable.contains("wavepipe doctor: rc_ladder, backward x2"));
        assert!(stable.contains("speculation waste"));
        assert!(stable.contains("33.3%"), "1 wasted of 3 solves: {stable}");
        let timing = a.timing_report();
        assert!(timing.contains("bottleneck:"));
        assert!(timing.contains("lane 0"));
        assert!(timing.contains("solve overlap: 1.35x"), "{timing}");
        let full = a.report("t", false);
        assert!(full.starts_with(&a.stable_report("t")) && full.ends_with(&timing));
        assert!(full.contains("accepted step sizes (s):\n"), "{full}");
        assert!(!analyze(&[]).report("t", false).contains("accepted step sizes"));
        let json_doc = a.to_json(false);
        let parsed = json::parse(&json_doc).expect("doctor json parses");
        assert_eq!(
            parsed.get("stable").and_then(|s| s.get("solves")).and_then(|v| v.as_f64()),
            Some(3.0)
        );
        assert!(parsed.get("timing").is_some());
        let stable_only = json::parse(&a.to_json(true)).expect("stable json parses");
        assert!(stable_only.get("timing").is_none());
    }

    #[test]
    fn pct_is_integer_quantized() {
        assert_eq!(pct(1, 3), "33.3%");
        assert_eq!(pct(2, 3), "66.6%"); // truncated, never rounded up
        assert_eq!(pct(0, 5), "0.0%");
        assert_eq!(pct(5, 5), "100.0%");
        assert_eq!(pct(1, 0), "n/a");
    }

    #[test]
    fn class_cache_table_renders_families() {
        let mut kinds =
            vec![EventKind::ClassEvals { class: DeviceClass::Mos, evals: 90, bypassed: 10 }];
        kinds.extend([EventKind::JacobianReuse; 3]);
        kinds.push(EventKind::Factorization);
        let events: Vec<Event> = kinds.into_iter().map(|k| ev(0, 0, 0, k)).collect();
        let table = class_cache_table(&analyze(&events).counts);
        assert!(table.contains("mos"));
        assert!(table.contains("10.0% bypass rate"), "{table}");
        assert!(table.contains("75.0% hit rate"), "{table}");
    }
}
