//! Lock-light live metrics: atomic counters, gauges, and streaming
//! histograms, snapshot-able while a simulation runs.
//!
//! The registry is the second observability layer, between the raw event
//! stream ([`crate::Probe`]) and the offline trace analysis
//! ([`mod@crate::analyze`]): instrumented sites publish *both* — events carry
//! the full story for replay, the registry answers "how is the run going
//! right now" without draining or re-walking the event buffer.
//!
//! Design rules, mirroring [`crate::ProbeHandle`]:
//!
//! * the disabled path ([`MetricsHandle::none`], the default) is a single
//!   `Option` branch per call site — no atomics, no locks, no formatting;
//! * scalar counters and gauges are relaxed atomics (lock-free, any lane);
//! * labeled families and histograms sit behind a mutex but are only
//!   touched at per-solve granularity (never per device or per matrix
//!   entry), so contention stays negligible next to a factorization;
//! * metrics never feed back into the simulation — like probes, they only
//!   observe, so an instrumented run is bit-identical to a bare one.
//!
//! [`MetricsRegistry::snapshot`] can be called concurrently with the run
//! (the sampler thread behind `netlist_runner --metrics-every` does exactly
//! that); the result is a consistent-enough point-in-time [`Snapshot`] with
//! a [`Snapshot::diff`] API and Prometheus / JSON / pretty encoders.

use crate::histogram::Histogram;
use crate::json;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

named_enum! {
    /// Monotonic event counters, one atomic cell each. The wire name is also
    /// the Prometheus metric stem.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[allow(missing_docs)] // the names are the documentation
    pub enum Counter {
        Rounds = "rounds",
        PointsAccepted = "points_accepted",
        /// Steps the run had to retry because the LTE test failed on the base
        /// point or on a speculative point re-solved against the true history
        /// (`SimStats::steps_rejected_lte`). A failed test that only threw
        /// away a lead or a speculation is not one — the trace analysis
        /// counts those too, as `lte_tests_failed`.
        LteRejects = "lte_rejects",
        NewtonRejects = "newton_rejects",
        Solves = "solves",
        /// Every Newton iteration, the operating point's included
        /// (`SimStats::newton_iterations`).
        NewtonIterations = "newton_iterations",
        Factorizations = "factorizations",
        Refactorizations = "refactorizations",
        JacobianReuses = "jacobian_reuses",
        DeviceEvals = "device_evals",
        BypassedDevices = "bypassed_devices",
        CompanionHits = "companion_hits",
        LeadAccepted = "lead_accepted",
        LeadDiscarded = "lead_discarded",
        SpeculationAccepted = "speculation_accepted",
        SpeculationDiscarded = "speculation_discarded",
        WorkersLost = "workers_lost",
        SerialFallbacks = "serial_fallbacks",
        DeadlineHits = "deadline_hits",
        RecoveryAttempts = "recovery_attempts",
        RecoveryRescues = "recovery_rescues",
        CacheRollbacks = "cache_rollbacks",
        KrylovIterations = "krylov_iterations",
        PrecondRefreshes = "precond_refreshes",
        SolverFallbacks = "solver_fallbacks",
    }
}

named_enum! {
    /// Instantaneous values (last write wins), stored as `f64` bits in an
    /// atomic cell.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Gauge {
        /// EMA of the backward-lead accept rate (0..1).
        LeadAcceptEma = "lead_accept_ema",
        /// Whether the combined scheme is currently speculating (0 or 1).
        DeepMode = "deep_mode",
        /// Current integration stride, seconds.
        CurrentH = "current_h",
        /// Width of the most recent pipelined round.
        RoundWidth = "round_width",
        /// Lanes observed active so far (max lane + 1).
        ActiveLanes = "active_lanes",
    }
}

named_enum! {
    /// Labeled counter families: the same few stories broken down by lane,
    /// device class, or cache layer. The wire name is also the
    /// Prometheus metric stem.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Family {
        /// Point-solves per pipeline lane (`lane="0"`, ...).
        SolvesByLane = "lane_solves",
        /// Committed points per pipeline lane.
        PointsByLane = "lane_points",
        /// Nonlinear model evaluations per device class (`class="mos"`, ...).
        EvalsByClass = "class_evals",
        /// Bypassed (cache-replayed) nonlinear devices per device class.
        BypassByClass = "class_bypassed",
        /// Hits per solver cache layer
        /// (`cache="bypass"|"chord"|"companion"|"parked"|"plan"`).
        CacheHits = "cache_hits",
        /// Misses per solver cache layer.
        CacheMisses = "cache_misses",
    }
}

impl Family {
    /// The label key this family is broken down by.
    pub fn label_key(self) -> &'static str {
        match self {
            Family::SolvesByLane | Family::PointsByLane => "lane",
            Family::EvalsByClass | Family::BypassByClass => "class",
            Family::CacheHits | Family::CacheMisses => "cache",
        }
    }
}

named_enum! {
    /// Streaming histogram series kept by the registry.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Series {
        /// Newton iterations per point-solve.
        NewtonItersPerSolve = "newton_iters_per_solve",
        /// Accepted step sizes, seconds.
        StepSize = "step_size",
        /// Point-solve wall time, microseconds (timing — excluded from
        /// anything that promises byte-stability).
        SolveMicros = "solve_us",
    }
}

impl Series {
    fn fresh(self) -> Histogram {
        match self {
            Series::NewtonItersPerSolve => Histogram::integer(16),
            Series::StepSize => Histogram::log10(-15, -3, 2),
            Series::SolveMicros => Histogram::log10(0, 6, 3),
        }
    }
}

/// Pre-rendered lane labels so the per-solve hot path never formats.
const LANE_LABELS: [&str; 16] =
    ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15"];

fn lane_label(lane: u32) -> &'static str {
    LANE_LABELS.get(lane as usize).copied().unwrap_or("16+")
}

/// The live metrics registry. Create one with [`MetricsRegistry::shared`],
/// hand a [`MetricsHandle`] to the simulation options, and call
/// [`MetricsRegistry::snapshot`] whenever — including mid-run.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    labeled: Mutex<BTreeMap<Family, BTreeMap<String, u64>>>,
    series: Mutex<Vec<Histogram>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0f64.to_bits())),
            labeled: Mutex::new(BTreeMap::new()),
            series: Mutex::new(Series::ALL.iter().map(|s| s.fresh()).collect()),
        }
    }

    /// Convenience: a new registry already wrapped for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Adds `n` to a counter (relaxed; callable from any lane).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Sets a gauge (last write wins).
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: f64) {
        self.gauges[g as usize].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises a gauge to at least `v` (used for high-water marks such as
    /// [`Gauge::ActiveLanes`]).
    pub fn raise_gauge(&self, g: Gauge, v: f64) {
        let cell = &self.gauges[g as usize];
        let mut cur = cell.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value of a gauge.
    pub fn gauge(&self, g: Gauge) -> f64 {
        f64::from_bits(self.gauges[g as usize].load(Ordering::Relaxed))
    }

    /// Adds `n` to one label cell of a family.
    pub fn add_labeled(&self, f: Family, label: &str, n: u64) {
        let mut map = self.labeled.lock().expect("metrics labeled map poisoned");
        let inner = map.entry(f).or_default();
        match inner.get_mut(label) {
            Some(cell) => *cell += n,
            None => {
                inner.insert(label.to_string(), n);
            }
        }
    }

    /// Records one observation into a histogram series.
    pub fn observe(&self, s: Series, v: f64) {
        self.series.lock().expect("metrics series poisoned")[s as usize].observe(v);
    }

    /// A point-in-time snapshot of everything the registry holds. Safe (and
    /// intended) to call while the simulation is still running.
    pub fn snapshot(&self) -> Snapshot {
        let counters = Counter::ALL.iter().map(|&c| (c.name(), self.get(c))).collect();
        let gauges = Gauge::ALL.iter().map(|&g| (g.name(), self.gauge(g))).collect();
        let labeled = {
            let map = self.labeled.lock().expect("metrics labeled map poisoned");
            let mut out = Vec::new();
            for &f in &Family::ALL {
                if let Some(inner) = map.get(&f) {
                    for (label, &value) in inner {
                        out.push(LabeledValue {
                            family: f.name(),
                            key: f.label_key(),
                            label: label.clone(),
                            value,
                        });
                    }
                }
            }
            out
        };
        let series = {
            let hs = self.series.lock().expect("metrics series poisoned");
            Series::ALL.iter().map(|&s| (s.name(), hs[s as usize].clone())).collect()
        };
        Snapshot { counters, gauges, labeled, series }
    }
}

/// One cell of a labeled counter family, e.g. `cache_hits{cache="chord"}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledValue {
    /// Family name, e.g. `cache_hits`.
    pub family: &'static str,
    /// Label key, e.g. `cache`.
    pub key: &'static str,
    /// Label value, e.g. `chord`.
    pub label: String,
    /// The count.
    pub value: u64,
}

/// A point-in-time view of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, f64)>,
    /// Every populated labeled cell, family-major, labels sorted.
    pub labeled: Vec<LabeledValue>,
    /// `(name, histogram)` for every series, in [`Series::ALL`] order.
    pub series: Vec<(&'static str, Histogram)>,
}

impl Snapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }

    /// Labeled cell value by family and label (0 when absent).
    pub fn labeled_value(&self, family: &str, label: &str) -> u64 {
        self.labeled
            .iter()
            .find(|lv| lv.family == family && lv.label == label)
            .map_or(0, |lv| lv.value)
    }

    /// The delta since `earlier`: counters and labeled families are
    /// subtracted (saturating, so a mismatched pair degrades to zeros
    /// rather than wrapping); gauges and histograms are instantaneous
    /// levels and keep their current values.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|&(name, v)| (name, v.saturating_sub(earlier.counter(name))))
            .collect();
        let labeled = self
            .labeled
            .iter()
            .map(|lv| LabeledValue {
                value: lv.value.saturating_sub(earlier.labeled_value(lv.family, &lv.label)),
                label: lv.label.clone(),
                ..*lv
            })
            .collect();
        Snapshot { counters, gauges: self.gauges.clone(), labeled, series: self.series.clone() }
    }

    /// Prometheus text exposition (0.0.4): counters and labeled families as
    /// `wavepipe_*_total`, gauges as `wavepipe_*`, histograms with
    /// cumulative `_bucket{le=...}` lines plus `_sum` / `_count`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &(name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE wavepipe_{name}_total counter");
            let _ = writeln!(out, "wavepipe_{name}_total {v}");
        }
        let mut last_family = "";
        for lv in &self.labeled {
            if lv.family != last_family {
                let _ = writeln!(out, "# TYPE wavepipe_{}_total counter", lv.family);
                last_family = lv.family;
            }
            let _ = writeln!(
                out,
                "wavepipe_{}_total{{{}=\"{}\"}} {}",
                lv.family,
                lv.key,
                json::escape(&lv.label),
                lv.value
            );
        }
        for &(name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE wavepipe_{name} gauge");
            let _ = writeln!(out, "wavepipe_{name} {}", json::fmt_f64(v));
        }
        for (name, h) in &self.series {
            let _ = writeln!(out, "# TYPE wavepipe_{name} histogram");
            for (le, cum) in h.cumulative_buckets() {
                let le = if le.is_infinite() { "+Inf".to_string() } else { json::fmt_f64(le) };
                let _ = writeln!(out, "wavepipe_{name}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "wavepipe_{name}_sum {}", json::fmt_f64(h.sum()));
            let _ = writeln!(out, "wavepipe_{name}_count {}", h.count());
        }
        out
    }

    /// A single JSON object with `counters`, `gauges`, `labeled`, and
    /// `series` sections (histograms as count / mean / quantiles).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":{");
        for (i, &(name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, &(name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", json::fmt_f64(v));
        }
        out.push_str("},\"labeled\":[");
        for (i, lv) in self.labeled.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"family\":\"{}\",\"{}\":\"{}\",\"value\":{}}}",
                lv.family,
                lv.key,
                json::escape(&lv.label),
                lv.value
            );
        }
        out.push_str("],\"series\":{");
        for (i, (name, h)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"count\":{}", h.count());
            if let (Some(mean), Some(p50), Some(p99)) =
                (h.mean(), h.quantile(0.5), h.quantile(0.99))
            {
                let _ = write!(
                    out,
                    ",\"mean\":{},\"p50\":{},\"p99\":{}",
                    json::fmt_f64(mean),
                    json::fmt_f64(p50),
                    json::fmt_f64(p99)
                );
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Human-readable table: non-zero counters, gauges, labeled cells, and
    /// series summaries.
    pub fn to_pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("metrics snapshot\n");
        for &(name, v) in &self.counters {
            if v > 0 {
                let _ = writeln!(out, "  {name:<26} {v:>12}");
            }
        }
        for lv in &self.labeled {
            let cell = format!("{}{{{}={}}}", lv.family, lv.key, lv.label);
            let _ = writeln!(out, "  {cell:<26} {:>12}", lv.value);
        }
        for &(name, v) in &self.gauges {
            if v != 0.0 {
                let _ = writeln!(out, "  {name:<26} {:>12}", json::fmt_f64(v));
            }
        }
        for (name, h) in &self.series {
            if h.count() > 0 {
                let _ = writeln!(
                    out,
                    "  {name:<26} n={} mean={:.3e} p50={:.3e} p99={:.3e}",
                    h.count(),
                    h.mean().unwrap_or(0.0),
                    h.quantile(0.5).unwrap_or(0.0),
                    h.quantile(0.99).unwrap_or(0.0),
                );
            }
        }
        out
    }
}

/// A cloneable, lane-tagged handle to an optional [`MetricsRegistry`] —
/// the exact shape of [`crate::ProbeHandle`], carried next to it on the
/// simulation options. With no registry attached (the default) every
/// publishing call is a single branch.
#[derive(Clone, Default)]
pub struct MetricsHandle {
    reg: Option<Arc<MetricsRegistry>>,
    lane: u32,
}

impl MetricsHandle {
    /// The disabled handle (no registry attached).
    pub fn none() -> Self {
        MetricsHandle::default()
    }

    /// A handle publishing into `reg`, initially on lane 0.
    pub fn new(reg: Arc<MetricsRegistry>) -> Self {
        MetricsHandle { reg: Some(reg), lane: 0 }
    }

    /// The same registry, tagged with a different lane. Used when handing a
    /// solver to a worker thread.
    pub fn with_lane(&self, lane: u32) -> Self {
        MetricsHandle { reg: self.reg.clone(), lane }
    }

    /// This handle's lane tag.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Whether a registry is attached (i.e. publishes are observable).
    /// `#[inline]` so the disabled-path check folds to one predictable
    /// branch inside cross-crate hot loops.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.reg.is_some()
    }

    /// The attached registry, if any (for snapshotting from the driver side).
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.reg.as_ref()
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn inc(&self, c: Counter) {
        if let Some(r) = &self.reg {
            r.add(c, 1);
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(r) = &self.reg {
            r.add(c, n);
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: f64) {
        if let Some(r) = &self.reg {
            r.set_gauge(g, v);
        }
    }

    /// Adds `n` to one label cell of a family.
    #[inline]
    pub fn add_labeled(&self, f: Family, label: &str, n: u64) {
        if let Some(r) = &self.reg {
            r.add_labeled(f, label, n);
        }
    }

    /// Adds `n` to this handle's lane cell of a per-lane family, and keeps
    /// the [`Gauge::ActiveLanes`] high-water mark current.
    #[inline]
    pub fn add_lane(&self, f: Family, n: u64) {
        if let Some(r) = &self.reg {
            r.add_labeled(f, lane_label(self.lane), n);
            r.raise_gauge(Gauge::ActiveLanes, f64::from(self.lane) + 1.0);
        }
    }

    /// Records one observation into a histogram series.
    #[inline]
    pub fn observe(&self, s: Series, v: f64) {
        if let Some(r) = &self.reg {
            r.observe(s, v);
        }
    }

    /// A snapshot of the attached registry, if any.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.reg.as_ref().map(|r| r.snapshot())
    }
}

impl fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsHandle")
            .field("enabled", &self.enabled())
            .field("lane", &self.lane)
            .finish()
    }
}

/// Handles compare equal when they point at the *same* registry (or both
/// at none) on the same lane — mirrors [`crate::ProbeHandle`]'s equality
/// so options structs stay `PartialEq`.
impl PartialEq for MetricsHandle {
    fn eq(&self, other: &Self) -> bool {
        self.lane == other.lane
            && match (&self.reg, &other.reg) {
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
    fn disabled_handle_is_inert_and_compares_equal() {
        let h = MetricsHandle::none();
        assert!(!h.enabled());
        h.inc(Counter::Solves);
        h.add_lane(Family::SolvesByLane, 3);
        h.observe(Series::StepSize, 1e-9);
        assert!(h.snapshot().is_none());
        assert_eq!(h, MetricsHandle::default());
    }

    #[test]
    fn counters_gauges_and_families_round_trip() {
        let reg = MetricsRegistry::shared();
        let h = MetricsHandle::new(reg.clone());
        h.inc(Counter::PointsAccepted);
        h.add(Counter::NewtonIterations, 5);
        h.set_gauge(Gauge::CurrentH, 2.5e-9);
        h.add_labeled(Family::CacheHits, "chord", 7);
        h.with_lane(2).add_lane(Family::SolvesByLane, 4);
        h.observe(Series::NewtonItersPerSolve, 3.0);

        let s = reg.snapshot();
        assert_eq!(s.counter("points_accepted"), 1);
        assert_eq!(s.counter("newton_iterations"), 5);
        assert_eq!(s.labeled_value("cache_hits", "chord"), 7);
        assert_eq!(s.labeled_value("lane_solves", "2"), 4);
        assert_eq!(reg.gauge(Gauge::CurrentH), 2.5e-9);
        assert_eq!(reg.gauge(Gauge::ActiveLanes), 3.0);
        let (name, hist) = &s.series[0];
        assert_eq!(*name, "newton_iters_per_solve");
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_labels() {
        let reg = MetricsRegistry::shared();
        let h = MetricsHandle::new(reg.clone());
        h.add(Counter::Solves, 10);
        h.add_labeled(Family::CacheHits, "bypass", 4);
        let early = reg.snapshot();
        h.add(Counter::Solves, 7);
        h.add_labeled(Family::CacheHits, "bypass", 2);
        h.set_gauge(Gauge::RoundWidth, 3.0);
        let late = reg.snapshot();
        let d = late.diff(&early);
        assert_eq!(d.counter("solves"), 7);
        assert_eq!(d.labeled_value("cache_hits", "bypass"), 2);
        // Gauges are levels, not deltas.
        assert_eq!(d.gauges.iter().find(|(n, _)| *n == "round_width").unwrap().1, 3.0);
    }

    #[test]
    fn encoders_emit_every_section() {
        let reg = MetricsRegistry::shared();
        let h = MetricsHandle::new(reg.clone());
        h.add(Counter::PointsAccepted, 42);
        h.add_labeled(Family::CacheHits, "companion", 9);
        h.set_gauge(Gauge::LeadAcceptEma, 0.75);
        h.observe(Series::StepSize, 1e-9);
        let s = reg.snapshot();

        let prom = s.to_prometheus();
        assert!(prom.contains("wavepipe_points_accepted_total 42"));
        assert!(prom.contains("wavepipe_cache_hits_total{cache=\"companion\"} 9"));
        assert!(prom.contains("wavepipe_lead_accept_ema 0.75"));
        assert!(prom.contains("wavepipe_step_size_count 1"));
        assert!(prom.contains("le=\"+Inf\""));

        let js = s.to_json();
        let parsed = json::parse(&js).expect("snapshot json parses");
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("points_accepted")).and_then(|v| v.as_f64()),
            Some(42.0)
        );
        assert_eq!(
            parsed
                .get("series")
                .and_then(|s| s.get("step_size"))
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_f64()),
            Some(1.0)
        );

        let pretty = s.to_pretty();
        assert!(pretty.contains("points_accepted"));
        assert!(pretty.contains("cache_hits{cache=companion}"));
    }

    #[test]
    fn snapshot_is_safe_while_publishing() {
        let reg = MetricsRegistry::shared();
        let h = MetricsHandle::new(reg.clone());
        let publisher = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                h.inc(Counter::Solves);
                if i % 64 == 0 {
                    h.add_labeled(Family::CacheHits, "chord", 1);
                }
            }
        });
        let mut last = 0;
        for _ in 0..50 {
            let s = reg.snapshot();
            let v = s.counter("solves");
            assert!(v >= last, "counters are monotone under concurrent snapshots");
            last = v;
        }
        publisher.join().expect("publisher thread");
        assert_eq!(reg.snapshot().counter("solves"), 10_000);
    }
}
