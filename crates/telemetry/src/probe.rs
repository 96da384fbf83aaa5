//! The recording probe and the lane-tagged handle that carries it.

use crate::event::{Event, EventKind};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An in-memory recorder: every event is stamped with nanoseconds since the
/// probe's creation and the current round id, then pushed under a mutex.
///
/// The lock is held only for the push (the buffer is pre-grown), which keeps
/// contention negligible next to a sparse factorization.
#[derive(Debug)]
pub struct RecordingProbe {
    epoch: Instant,
    round: AtomicU64,
    events: Mutex<Vec<Event>>,
}

impl RecordingProbe {
    /// A fresh recorder whose epoch is *now*.
    pub(crate) fn new() -> Self {
        RecordingProbe {
            epoch: Instant::now(),
            round: AtomicU64::new(0),
            events: Mutex::new(Vec::with_capacity(4096)),
        }
    }

    /// Convenience: a new recorder already wrapped for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// A copy of every event recorded so far, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("telemetry buffer poisoned").clone()
    }

    /// Drains the recorded events, leaving the probe empty (epoch and round
    /// counter are kept).
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("telemetry buffer poisoned"))
    }

    /// Number of events recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.events.lock().expect("telemetry buffer poisoned").len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records one event emitted on `lane` at simulated time `t_sim`. The
    /// probe — not the emitter — stamps the wall-clock timestamp and the
    /// round id, so disabled runs pay nothing for either.
    pub(crate) fn record(&self, lane: u32, t_sim: f64, kind: EventKind) {
        // Rounds are strictly sequential (the round executor joins all lanes
        // before returning), so a relaxed counter is race-free in practice:
        // every in-round event is recorded between its RoundStart and the
        // next one.
        let round = match kind {
            EventKind::RoundStart { .. } => self.round.fetch_add(1, Ordering::Relaxed) + 1,
            _ => self.round.load(Ordering::Relaxed),
        };
        let ev = Event {
            ts_ns: u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            round,
            lane,
            t_sim,
            kind,
        };
        self.events.lock().expect("telemetry buffer poisoned").push(ev);
    }
}

impl Default for RecordingProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// A cloneable, lane-tagged handle to an optional probe.
///
/// This is the type carried by `SimOptions`: `ProbeHandle::none()` (the
/// default) makes every emit a single branch; an attached probe receives
/// events tagged with this handle's lane. Cloning is an `Arc` bump.
#[derive(Clone, Default)]
pub struct ProbeHandle {
    probe: Option<Arc<RecordingProbe>>,
    lane: u32,
}

impl ProbeHandle {
    /// The disabled handle (no probe attached).
    pub fn none() -> Self {
        ProbeHandle::default()
    }

    /// A handle delivering to `probe`, initially on lane 0.
    pub fn new(probe: Arc<RecordingProbe>) -> Self {
        ProbeHandle { probe: Some(probe), lane: 0 }
    }

    /// The same probe, tagged with a different lane. Used when handing a
    /// solver to a worker thread.
    pub fn with_lane(&self, lane: u32) -> Self {
        ProbeHandle { probe: self.probe.clone(), lane }
    }

    /// Whether a probe is attached (i.e. emits are observable).
    pub fn enabled(&self) -> bool {
        self.probe.is_some()
    }

    /// Emits one event. With no probe attached this is a branch and nothing
    /// else — no timestamp, no allocation, no lock.
    #[inline]
    pub fn emit(&self, t_sim: f64, kind: EventKind) {
        if let Some(p) = &self.probe {
            p.record(self.lane, t_sim, kind);
        }
    }
}

impl fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeHandle")
            .field("enabled", &self.enabled())
            .field("lane", &self.lane)
            .finish()
    }
}

/// Handles compare equal when they point at the *same* probe (or both at
/// none) on the same lane — options equality stays meaningful without
/// requiring probes themselves to be comparable.
impl PartialEq for ProbeHandle {
    fn eq(&self, other: &Self) -> bool {
        self.lane == other.lane
            && match (&self.probe, &other.probe) {
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
    fn disabled_handle_emits_nothing_and_compares_equal() {
        let h = ProbeHandle::none();
        assert!(!h.enabled());
        h.emit(0.0, EventKind::Factorization); // must be a no-op
        assert_eq!(h, ProbeHandle::default());
    }

    #[test]
    fn recording_probe_stamps_rounds_and_lanes() {
        let rec = RecordingProbe::shared();
        let h = ProbeHandle::new(rec.clone());
        h.emit(0.0, EventKind::Factorization); // pre-round
        h.emit(0.0, EventKind::RoundStart { width: 2 });
        h.with_lane(1).emit(1e-9, EventKind::NewtonIter { iteration: 1 });
        h.emit(0.0, EventKind::RoundEnd { committed: 1 });
        h.emit(0.0, EventKind::RoundStart { width: 1 });
        let evs = rec.events();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].round, 0);
        assert_eq!(evs[1].round, 1);
        assert_eq!(evs[2].round, 1);
        assert_eq!(evs[2].lane, 1);
        assert_eq!(evs[3].round, 1);
        assert_eq!(evs[4].round, 2);
        // Timestamps are monotone non-decreasing in record order.
        for w in evs.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn handle_equality_is_pointer_identity() {
        let a = RecordingProbe::shared();
        let b = RecordingProbe::shared();
        let ha = ProbeHandle::new(a.clone());
        assert_eq!(ha, ha.clone());
        assert_ne!(ha, ProbeHandle::new(b));
        assert_ne!(ha, ha.with_lane(3));
        assert_ne!(ha, ProbeHandle::none());
    }

    #[test]
    fn take_events_drains() {
        let rec = RecordingProbe::new();
        rec.record(0, 0.0, EventKind::Factorization);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.take_events().len(), 1);
        assert!(rec.is_empty());
    }
}
