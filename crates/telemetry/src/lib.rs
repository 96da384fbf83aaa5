//! Zero-overhead-when-disabled instrumentation for WavePipe.
//!
//! The simulation layers (`wavepipe-engine`, `wavepipe-core`) emit typed
//! [`EventKind`]s through a [`ProbeHandle`] carried on their options structs.
//! With no probe attached (the default) an emit is a single branch; with a
//! [`RecordingProbe`] attached every event is stamped with a per-run
//! nanosecond timestamp, the pipelined round id, and the logical solver
//! lane, and can then be consumed three ways:
//!
//! * [`jsonl`] — one JSON object per event, for machine analysis;
//! * [`chrome`] — Chrome trace-event JSON (`chrome://tracing` / Perfetto)
//!   rendering rounds and point-solves as per-lane duration spans, making
//!   pipelining overlap visible;
//! * [`analyze()`] — the one fold over the stream: the counts, histograms
//!   and wall-time decomposition that `wavepipe-doctor` and
//!   `netlist_runner` print. [`RecordingProbe::events`] is safe to call
//!   while the run goes, so a mid-run view is the same fold over the events
//!   so far.
//!
//! Each of these reads the schema from one place. The event kinds — variant,
//! wire name, typed payload fields — are one table in `event.rs`, from which
//! [`EventKind`], [`EventKind::name`], [`EventKind::SAMPLES`] and the JSONL
//! payload codec are derived; [`analyze::Counts`]' scalars declare their
//! names once. Adding an event is one entry in that table and an arm in
//! `analyze::Counts::add` (the match is exhaustive), plus an arm in
//! [`chrome`] only if it opens or closes a span or should stay off the
//! timeline.
//!
//! Telemetry never feeds back into the simulation: probes only observe, so
//! a recorded run is bit-identical to an unrecorded one.
//!
//! # Example
//!
//! ```
//! use wavepipe_telemetry::{EventKind, ProbeHandle, RecordingProbe};
//!
//! let probe = RecordingProbe::shared();
//! let handle = ProbeHandle::new(probe.clone());
//! handle.emit(0.0, EventKind::RoundStart { width: 2 });
//! handle.with_lane(1).emit(1e-9, EventKind::SolveStart { h: 1e-9 });
//! handle.with_lane(1).emit(1e-9, EventKind::SolveEnd { iterations: 3, converged: true });
//! handle.emit(0.0, EventKind::RoundEnd { committed: 1 });
//!
//! let events = probe.events();
//! assert_eq!(events.len(), 4);
//! let jsonl = events.iter().map(wavepipe_telemetry::jsonl::event_to_json)
//!     .collect::<Vec<_>>().join("\n");
//! assert!(jsonl.contains("\"kind\":\"solve_end\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Declares a fieldless enum whose variants each carry a stable wire name:
/// the enum, `ALL` and `name()` all come from the one list.
macro_rules! named_enum {
    ($(#[$meta:meta])* pub enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident = $wire:literal,)+
    }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (= stable exposition) order.
            pub const ALL: [$name; [$($wire),+].len()] = [$($name::$variant),+];

            /// Stable machine-readable name.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $wire,)+
                }
            }

            /// Inverse of `name`.
            pub(crate) fn from_name(s: &str) -> Option<Self> {
                Self::ALL.into_iter().find(|v| v.name() == s)
            }
        }
    };
}

pub mod analyze;
pub mod chrome;
mod event;
mod histogram;
pub mod json;
pub mod jsonl;
mod probe;

pub use analyze::{analyze, TraceAnalysis};
pub use event::{DeviceClass, DiscardReason, Event, EventKind, FactorLayer};
pub use histogram::Histogram;
pub use probe::{ProbeHandle, RecordingProbe};
