//! The typed event taxonomy every instrumented layer emits, declared once:
//! the [`event_kinds!`] table below is the only place a kind's variant, wire
//! name and payload fields are written, and [`EventKind`], its `name()`, its
//! `SAMPLES` and the JSONL payload codec are all derived from it.

use crate::json::{self, JsonValue};
use std::fmt::Write as _;

named_enum! {
    /// Why a speculative or leading solve was thrown away.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DiscardReason {
        /// The speculative Newton solve itself did not converge.
        Unconverged = "unconverged",
        /// The predicted history was too far from the truth to warm-start from.
        PredictionFar = "prediction_far",
        /// The warm-start refinement did not converge within its iteration budget.
        RefineBudget = "refine_budget",
        /// The refined point failed the LTE accept test.
        LteRejected = "lte_rejected",
        /// The refined point failed the Newton/finiteness commit test.
        NewtonRejected = "newton_rejected",
        /// An earlier link of the speculative chain broke, invalidating this one.
        ChainBroken = "chain_broken",
        /// The worker holding the solve died; the task's result never arrived.
        WorkerLost = "worker_lost",
    }
}

named_enum! {
    /// The kind of a compiled device, as the per-class tallies name it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[allow(missing_docs)] // the names are the documentation
    pub enum DeviceClass {
        Resistor = "resistor",
        Cap = "cap",
        Jcap = "jcap",
        Ind = "ind",
        Vsrc = "vsrc",
        Isrc = "isrc",
        Diode = "diode",
        Mos = "mos",
        Bjt = "bjt",
        Vcvs = "vcvs",
        Vccs = "vccs",
    }
}

named_enum! {
    /// A factor-level solver cache consulted once per lookup.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FactorLayer {
        /// A new linear-stamp key's turn at the parked factor sets: a hit is
        /// a chord step on factors that were parked (a factorization saved),
        /// a miss a key no set was kept for.
        Parked = "parked",
        /// A key no twin holds took the factor set of the nearest key within
        /// a sixteenth of its `a0` (where a refactorization costs several
        /// solves): a hit is a chord step on that set, a miss one that
        /// stalled into a refactorization.
        Near = "near",
        /// An adopted LU plan's pivot check: a hit is a refactorization where
        /// the lane would have pivoted afresh, a miss the private
        /// factorization a failed check pays.
        Plan = "plan",
    }
}

/// A type a wire field can have: how it is written into a JSONL object and
/// how it is checked back out of one. The importer reads files from outside
/// the program, so `decode` accepts exactly the values `encode` can produce.
pub(crate) trait Field: Copy {
    /// The value [`EventKind::SAMPLES`] carries in fields of this type.
    const SAMPLE: Self;

    /// Appends the JSON rendering of the value.
    fn encode(self, out: &mut String);

    /// Reads the value back; `Err` says what was expected instead.
    fn decode(v: &JsonValue) -> Result<Self, &'static str>;
}

/// Integers are integral, non-negative and no larger than `max`. (JSON
/// numbers parse as `f64`, so `u64` values above 2^53 come back rounded and
/// `u64::MAX` arrives as 2^64 = `max`, which the caller's cast saturates.)
fn decode_uint(v: &JsonValue, max: f64) -> Option<f64> {
    v.as_f64().filter(|x| (0.0..=max).contains(x) && x.fract() == 0.0)
}

impl Field for u32 {
    const SAMPLE: Self = 3;

    fn encode(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn decode(v: &JsonValue) -> Result<Self, &'static str> {
        decode_uint(v, f64::from(u32::MAX)).map(|x| x as u32).ok_or("an integer in 0..=4294967295")
    }
}

impl Field for u64 {
    const SAMPLE: Self = 3;

    fn encode(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn decode(v: &JsonValue) -> Result<Self, &'static str> {
        decode_uint(v, u64::MAX as f64).map(|x| x as u64).ok_or("an integer in 0..=2^64-1")
    }
}

impl Field for f64 {
    const SAMPLE: Self = 2.5e-9;

    fn encode(self, out: &mut String) {
        out.push_str(&json::fmt_f64(self));
    }

    fn decode(v: &JsonValue) -> Result<Self, &'static str> {
        v.as_f64().ok_or("a number")
    }
}

impl Field for bool {
    const SAMPLE: Self = true;

    fn encode(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn decode(v: &JsonValue) -> Result<Self, &'static str> {
        v.as_bool().ok_or("true or false")
    }
}

/// Named enums travel as their wire name.
macro_rules! named_fields {
    ($($ty:ident = $sample:expr, $want:literal;)+) => {$(
        impl Field for $ty {
            const SAMPLE: Self = $sample;

            fn encode(self, out: &mut String) {
                let _ = write!(out, "\"{}\"", self.name());
            }

            fn decode(v: &JsonValue) -> Result<Self, &'static str> {
                v.as_str().and_then($ty::from_name).ok_or($want)
            }
        }
    )+};
}

named_fields! {
    DiscardReason = DiscardReason::LteRejected, "a discard reason name";
    DeviceClass = DeviceClass::Mos, "a device class name";
    FactorLayer = FactorLayer::Plan, "a factor layer name";
}

/// Reads field `key` of the JSONL object `obj`; the error names the field.
pub(crate) fn read_field<T: Field>(obj: &JsonValue, key: &str) -> Result<T, String> {
    let v = obj.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
    T::decode(v).map_err(|want| format!("field `{key}`: expected {want}"))
}

/// A field's wire key: its name unless the table gives another.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The event table. One entry per kind: doc, variant, wire name, and the
/// typed payload fields (`name: type`, with `= "key"` where the wire key is
/// not the field name).
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $wire:literal $({$(
            $(#[$fdoc:meta])*
            $field:ident: $ty:ty $(= $key:literal)?,
        )+})?,
    )+) => {
        /// What happened. Every variant is cheap to construct (`Copy`, no heap).
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum EventKind {
            $($(#[$doc])* $variant $({$($(#[$fdoc])* $field: $ty,)+})?,)+
        }

        impl EventKind {
            /// One event of every kind, in declaration order, each field
            /// holding its type's fixed sample value — what the codec tests
            /// iterate so that a new kind is covered without being listed.
            pub const SAMPLES: [EventKind; [$($wire),+].len()] =
                [$(EventKind::$variant $({$($field: <$ty as Field>::SAMPLE,)+})?,)+];

            /// Stable machine-readable name of the variant.
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$variant $({$($field: _,)+})? => $wire,)+
                }
            }

            /// Appends the payload as `,"key":value` pairs in field order.
            pub(crate) fn encode_payload(&self, out: &mut String) {
                match *self {
                    $(EventKind::$variant $({$($field,)+})? => {$($(
                        out.push_str(concat!(",\"", wire_key!($field $($key)?), "\":"));
                        $field.encode(out);
                    )+)?})+
                }
            }

            /// Rebuilds the kind named `name` from the payload fields of the
            /// JSONL object `obj`.
            pub(crate) fn decode(name: &str, obj: &JsonValue) -> Result<Self, String> {
                Ok(match name {
                    $($wire => EventKind::$variant $({$(
                        $field: read_field(obj, wire_key!($field $($key)?))?,
                    )+})?,)+
                    other => return Err(format!("unknown kind `{other}`")),
                })
            }
        }
    };
}

event_kinds! {
    /// A pipelined round began; `width` concurrent solves were launched.
    RoundStart = "round_start" {
        /// Number of concurrent point-solve tasks in the round.
        width: u32,
    },
    /// The round (solves + commits) finished with `committed` accepted points.
    RoundEnd = "round_end" {
        /// Points committed by the round.
        committed: u32,
    },
    /// A point-solve started on some lane; `h` is the integration stride.
    SolveStart = "solve_start" {
        /// Integration stride of the attempt.
        h: f64,
    },
    /// The point-solve on this lane finished.
    SolveEnd = "solve_end" {
        /// Newton iterations spent.
        iterations: u32,
        /// Whether Newton converged.
        converged: bool,
    },
    /// One Newton iteration (stamp + factor + solve) completed.
    NewtonIter = "newton_iter" {
        /// 1-based iteration index within the solve.
        iteration: u32,
    },
    /// A numeric factorization pass of any kind (fresh pivot search or
    /// frozen-pivot refactorization).
    Factorization = "factorization",
    /// A fast refactorization on the frozen pivot order (a subset of the
    /// [`EventKind::Factorization`] passes — both events are emitted).
    Refactorization = "refactorization",
    /// A chord/modified-Newton iteration reused the previous LU factors
    /// without any numeric factorization pass.
    JacobianReuse = "jacobian_reuse",
    /// A factor-level cache was consulted: a parked-set turn, a near key's
    /// set or an adopted plan's pivot check.
    FactorLookup = "factor_lookup" {
        /// Which cache.
        layer: FactorLayer,
        /// Whether it served the lookup.
        hit: bool,
    },
    /// One stamp pass assembled the Newton system.
    StampPass = "stamp_pass" {
        /// Devices evaluated, linear ones included (bypassed ones not).
        evals: u32,
        /// Nonlinear devices replayed from their bypass caches.
        bypassed: u32,
        /// Whether the linear matrix was replayed from the step-size-keyed
        /// companion cache instead of being re-stamped.
        companion_hit: bool,
    },
    /// One stamp pass's nonlinear devices of one class (emitted per class
    /// present, beside [`EventKind::StampPass`]).
    ClassEvals = "class_evals" {
        /// The device class.
        class: DeviceClass,
        /// Devices of the class whose model was evaluated.
        evals: u32,
        /// Devices of the class replayed from their bypass caches.
        bypassed: u32,
    },
    /// The LTE test rejected a candidate point.
    LteReject = "lte_reject" {
        /// Weighted error ratio (> 1).
        ratio: f64,
        /// Suggested retry stride.
        h_retry: f64,
    },
    /// The LTE test accepted a candidate and proposed the next step.
    StepSizeChosen = "step_size_chosen" {
        /// Proposed next stride.
        h: f64,
        /// Weighted error ratio (<= 1).
        ratio: f64,
    },
    /// A candidate point was committed to the waveform.
    PointAccepted = "point_accepted" {
        /// Stride the point was integrated with.
        h: f64,
    },
    /// The run retries a step: its base point (or a speculative point
    /// refined against the true history) failed the LTE test or Newton. A
    /// failed test that only threw away a lead or a speculation is not one.
    StepRetry = "step_retry" {
        /// `true` for a Newton failure, `false` for an LTE rejection.
        newton: bool,
    },
    /// A backward-pipelined lead point survived its commit tests.
    LeadAccepted = "lead_accepted",
    /// A backward-pipelined lead point was discarded.
    LeadDiscarded = "lead_discarded" {
        /// Why the lead was thrown away.
        reason: DiscardReason,
    },
    /// A pipelined run folded a lead outcome into its accept-rate EMA.
    LeadEma = "lead_ema" {
        /// The EMA of the backward-lead accept rate (0..1).
        ema: f64,
        /// Whether the EMA currently justifies deep ladders and speculation.
        deep: bool,
    },
    /// A forward-pipelined speculative point was refined and committed.
    SpeculationAccepted = "speculation_accepted",
    /// A forward-pipelined speculative point was discarded.
    SpeculationDiscarded = "speculation_discarded" {
        /// Why the speculation was thrown away.
        reason: DiscardReason,
    },
    /// A pool lane's worker thread panicked or disappeared and was retired
    /// from service.
    WorkerLost = "worker_lost" {
        /// Lane the lost worker served (`lost_lane` on the wire, where `lane`
        /// is the envelope's emitting lane).
        lane: u32 = "lost_lane",
    },
    /// The lane pool shrank to the coordinating thread: the run continues
    /// on its serial path.
    FallbackSerial = "fallback_serial",
    /// The wall-clock budget expired; the run is stopping at the accepted
    /// prefix.
    DeadlineHit = "deadline_hit",
    /// Newton failed at a timepoint below the step floor; the convergence
    /// recovery ladder engaged instead of aborting the run.
    RecoveryAttempt = "recovery_attempt" {
        /// The stride of the failing attempt.
        h: f64,
    },
    /// One rung of the recovery ladder finished.
    RecoveryRung = "recovery_rung" {
        /// 1-based rung index (1 = cache rollback, 2 = deep step cut,
        /// 3 = local gmin ramp).
        rung: u32,
        /// Whether the rung produced a converged point.
        success: bool,
    },
    /// The recovery ladder invalidated the solver caches (bypass masks,
    /// chord LU key, companion cache) suspecting a poisoned entry.
    CachePoisonRollback = "cache_poison_rollback",
    /// One linear solve went through the iterative (Krylov) solver path.
    KrylovSolve = "krylov_solve" {
        /// GMRES iterations (Arnoldi steps) spent on the solve.
        iterations: u32,
        /// Restart cycles beyond the first.
        restarts: u32,
        /// Preconditioner (re)builds charged to the solve.
        precond_refreshes: u32,
        /// Whether the solve completed on the direct-LU fallback.
        fallback: bool,
    },
}

/// One recorded telemetry event.
///
/// `ts_ns` is nanoseconds since the recording probe was created (a per-run
/// epoch), `round` the 1-based pipelined round it belongs to (0 before the
/// first round), `lane` the logical solver lane (0 = the coordinating /
/// serial thread, 1.. = pool workers), and `t_sim` the simulated time the
/// event refers to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Nanoseconds since the probe's epoch.
    pub ts_ns: u64,
    /// Pipelined round id (1-based; 0 = pre-round work such as the DC solve).
    pub round: u64,
    /// Logical solver lane.
    pub lane: u32,
    /// Simulated time the event refers to, seconds.
    pub t_sim: f64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let names: std::collections::HashSet<&str> =
            EventKind::SAMPLES.iter().map(EventKind::name).collect();
        assert_eq!(names.len(), EventKind::SAMPLES.len());
        assert_eq!(names.len(), 27);
    }

    #[test]
    fn discard_reason_round_trips() {
        for r in DiscardReason::ALL {
            assert_eq!(DiscardReason::from_name(r.name()), Some(r));
        }
        assert_eq!(DiscardReason::from_name("nope"), None);
    }
}
