//! The live metrics registry: a [`Probe`] that folds the event stream as it
//! arrives, so counters, labeled families, gauges and histograms can be
//! snapshotted while a simulation runs.
//!
//! The registry is not a second instrument. Its counts are [`Counts`] — the
//! fold [`mod@crate::analyze`] runs over a recorded stream — kept current one
//! event at a time, so a counter, a labeled cell or a histogram of a live
//! snapshot is exactly what a replay of the same events reports. Attach it
//! like any probe (`ProbeHandle::new(registry)`), or
//! [`MetricsRegistry::replay`] a recorded stream into a fresh one.
//!
//! * The disabled path is the probe's: with no probe attached an emit is a
//!   single `Option` branch.
//! * The fold sits behind one mutex, touched once per event.
//! * Like every probe, the registry only observes, so an instrumented run is
//!   bit-identical to a bare one.
//!
//! [`MetricsRegistry::snapshot`] can be called concurrently with the run
//! (the sampler thread behind `netlist_runner --metrics-every` does exactly
//! that); the result is a consistent point-in-time [`Snapshot`] with a
//! [`Snapshot::diff`] API and Prometheus / JSON / pretty encoders.

use crate::analyze::Counts;
use crate::event::{DeviceClass, Event, EventKind};
use crate::histogram::Histogram;
use crate::json;
use crate::probe::Probe;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

named_enum! {
    /// Instantaneous values (last write wins).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Gauge {
        /// EMA of the backward-lead accept rate (0..1).
        LeadAcceptEma = "lead_accept_ema",
        /// Whether the combined scheme is currently speculating (0 or 1).
        DeepMode = "deep_mode",
        /// Stride of the latest accepted point, seconds.
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
        /// Newton iterations per point-solve ([`Counts::newton_iters`]).
        NewtonItersPerSolve = "newton_iters_per_solve",
        /// Accepted step sizes, seconds ([`Counts::step_sizes`]).
        StepSize = "step_size",
        /// Point-solve wall time, microseconds (timing — excluded from
        /// anything that promises byte-stability).
        SolveMicros = "solve_us",
    }
}

/// What the registry folds: the shared counts, plus the levels and timings
/// only a live view wants.
#[derive(Debug)]
struct Live {
    counts: Counts,
    gauges: [f64; Gauge::ALL.len()],
    /// Per lane, the latest `SolveStart` timestamp of the open solve.
    solve_started: BTreeMap<u32, u64>,
    solve_us: Histogram,
}

/// The live metrics registry. Create one with [`MetricsRegistry::shared`],
/// attach it as (or beside) the run's probe, and call
/// [`MetricsRegistry::snapshot`] whenever — including mid-run.
#[derive(Debug)]
pub struct MetricsRegistry {
    epoch: Instant,
    live: Mutex<Live>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry whose clock starts now.
    pub fn new() -> Self {
        MetricsRegistry {
            epoch: Instant::now(),
            live: Mutex::new(Live {
                counts: Counts::zero(),
                gauges: [0.0; Gauge::ALL.len()],
                solve_started: BTreeMap::new(),
                solve_us: Histogram::log10(0, 6, 3),
            }),
        }
    }

    /// Convenience: a new registry already wrapped for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// A registry holding the fold of a recorded stream — the same state a
    /// registry attached to the run would have ended with.
    pub fn replay(events: &[Event]) -> Self {
        let reg = Self::new();
        for ev in events {
            reg.fold(ev);
        }
        reg
    }

    /// Folds one event: live from [`Probe::record`], or replayed.
    fn fold(&self, ev: &Event) {
        let mut live = self.live.lock().expect("metrics registry poisoned");
        live.counts.add(ev);
        match ev.kind {
            EventKind::LeadEma { ema, deep } => {
                live.gauges[Gauge::LeadAcceptEma as usize] = ema;
                live.gauges[Gauge::DeepMode as usize] = f64::from(u8::from(deep));
            }
            EventKind::PointAccepted { h } => live.gauges[Gauge::CurrentH as usize] = h,
            EventKind::RoundStart { width } => {
                live.gauges[Gauge::RoundWidth as usize] = f64::from(width);
            }
            EventKind::SolveStart { .. } => {
                live.solve_started.insert(ev.lane, ev.ts_ns);
            }
            EventKind::SolveEnd { .. } => {
                if let Some(start) = live.solve_started.remove(&ev.lane) {
                    live.solve_us.observe(ev.ts_ns.saturating_sub(start) as f64 / 1e3);
                }
            }
            _ => {}
        }
    }

    /// A point-in-time snapshot of everything the registry holds. Safe (and
    /// intended) to call while the simulation is still running.
    pub fn snapshot(&self) -> Snapshot {
        let live = self.live.lock().expect("metrics registry poisoned");
        let c = &live.counts;
        let lanes = c.lane_solves.keys().chain(c.lane_points.keys());
        let active_lanes = lanes.max().map_or(0.0, |&l| f64::from(l) + 1.0);
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| match g {
                Gauge::ActiveLanes => (g.name(), active_lanes),
                _ => (g.name(), live.gauges[g as usize]),
            })
            .collect();
        let series = vec![
            (Series::NewtonItersPerSolve.name(), c.newton_iters.clone()),
            (Series::StepSize.name(), c.step_sizes.clone()),
            (Series::SolveMicros.name(), live.solve_us.clone()),
        ];
        Snapshot { counters: c.scalars(), gauges, labeled: labeled(c), series }
    }
}

impl Probe for MetricsRegistry {
    fn record(&self, lane: u32, t_sim: f64, kind: EventKind) {
        let ts_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.fold(&Event { ts_ns, round: 0, lane, t_sim, kind });
    }
}

/// The labeled families of `c`: every non-zero cell, family-major, labels
/// sorted.
fn labeled(c: &Counts) -> Vec<LabeledValue> {
    let lanes = |m: &BTreeMap<u32, u64>| m.iter().map(|(l, &n)| (l.to_string(), n)).collect();
    let classes = |pick: fn((u64, u64)) -> u64| {
        DeviceClass::ALL
            .iter()
            .map(|&d| (d.name().to_string(), pick(c.class_evals[d as usize])))
            .collect()
    };
    let nonlinear_evals: u64 = c.class_evals.iter().map(|e| e.0).sum();
    let caches = |cells: [u64; 5]| {
        ["bypass", "chord", "companion", "parked", "plan"]
            .into_iter()
            .zip(cells)
            .map(|(name, n)| (name.to_string(), n))
            .collect()
    };
    let families: [(Family, Vec<(String, u64)>); 6] = [
        (Family::SolvesByLane, lanes(&c.lane_solves)),
        (Family::PointsByLane, lanes(&c.lane_points)),
        (Family::EvalsByClass, classes(|e| e.0)),
        (Family::BypassByClass, classes(|e| e.1)),
        (
            Family::CacheHits,
            caches([
                c.bypassed_devices,
                c.jacobian_reuses,
                c.companion_hits,
                c.parked_hits,
                c.plan_hits,
            ]),
        ),
        (
            Family::CacheMisses,
            caches([
                nonlinear_evals,
                c.factorizations,
                c.stamp_passes - c.companion_hits,
                c.parked_misses,
                c.plan_misses,
            ]),
        ),
    ];
    let mut out = Vec::new();
    for (family, mut cells) in families {
        cells.retain(|&(_, n)| n > 0);
        cells.sort();
        out.extend(cells.into_iter().map(|(label, value)| LabeledValue {
            family: family.name(),
            key: family.label_key(),
            label,
            value,
        }));
    }
    out
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
    /// `(name, value)` for every counter, in [`Counts::scalars`] order.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FactorLayer;

    fn replay(kinds: &[(u32, EventKind)]) -> MetricsRegistry {
        let events: Vec<Event> = kinds
            .iter()
            .enumerate()
            .map(|(i, &(lane, kind))| Event {
                ts_ns: 10 * i as u64,
                round: 0,
                lane,
                t_sim: 0.0,
                kind,
            })
            .collect();
        MetricsRegistry::replay(&events)
    }

    #[test]
    fn counters_gauges_and_families_round_trip() {
        let reg = replay(&[
            (2, EventKind::SolveStart { h: 1e-9 }),
            (2, EventKind::SolveEnd { iterations: 3, converged: true }),
            (0, EventKind::PointAccepted { h: 2.5e-9 }),
            (0, EventKind::NewtonIter { iteration: 1 }),
            (0, EventKind::StampPass { evals: 9, bypassed: 4, companion_hit: true }),
            (0, EventKind::ClassEvals { class: DeviceClass::Mos, evals: 5, bypassed: 4 }),
            (0, EventKind::JacobianReuse),
            (0, EventKind::FactorLookup { layer: FactorLayer::Parked, hit: false }),
            (0, EventKind::LeadEma { ema: 0.5, deep: true }),
        ]);
        let s = reg.snapshot();
        assert_eq!(s.counter("points_accepted"), 1);
        assert_eq!(s.counter("newton_iterations"), 1);
        assert_eq!(s.counter("device_evals"), 9);
        assert_eq!(s.labeled_value("lane_solves", "2"), 1);
        assert_eq!(s.labeled_value("class_evals", "mos"), 5);
        assert_eq!(s.labeled_value("cache_hits", "bypass"), 4);
        assert_eq!(s.labeled_value("cache_misses", "bypass"), 5);
        assert_eq!(s.labeled_value("cache_hits", "chord"), 1);
        assert_eq!(s.labeled_value("cache_hits", "companion"), 1);
        assert_eq!(s.labeled_value("cache_misses", "parked"), 1);
        // Cells that never counted are absent, not zero.
        assert!(!s.labeled.iter().any(|lv| lv.label == "plan" || lv.value == 0));
        let gauge = |g: Gauge| s.gauges[g as usize].1;
        assert_eq!(gauge(Gauge::CurrentH), 2.5e-9);
        assert_eq!(gauge(Gauge::ActiveLanes), 3.0);
        assert_eq!(gauge(Gauge::LeadAcceptEma), 0.5);
        assert_eq!(gauge(Gauge::DeepMode), 1.0);
        let (name, hist) = &s.series[0];
        assert_eq!(*name, "newton_iters_per_solve");
        assert_eq!(hist.count(), 1);
        assert_eq!(s.series[2].1.count(), 1, "one timed solve");
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_labels() {
        let reg = MetricsRegistry::new();
        let solve = EventKind::SolveEnd { iterations: 2, converged: true };
        let bypass = EventKind::StampPass { evals: 1, bypassed: 4, companion_hit: false };
        for _ in 0..10 {
            reg.record(0, 0.0, solve);
        }
        reg.record(0, 0.0, bypass);
        let early = reg.snapshot();
        for _ in 0..7 {
            reg.record(0, 0.0, solve);
        }
        reg.record(0, 0.0, bypass);
        reg.record(0, 0.0, EventKind::RoundStart { width: 3 });
        let d = reg.snapshot().diff(&early);
        assert_eq!(d.counter("solves"), 7);
        assert_eq!(d.labeled_value("cache_hits", "bypass"), 4);
        // Gauges are levels, not deltas.
        assert_eq!(d.gauges.iter().find(|(n, _)| *n == "round_width").unwrap().1, 3.0);
    }

    #[test]
    fn encoders_emit_every_section() {
        let reg = replay(&[
            (0, EventKind::PointAccepted { h: 1e-9 }),
            (0, EventKind::StampPass { evals: 0, bypassed: 0, companion_hit: true }),
            (0, EventKind::LeadEma { ema: 0.75, deep: false }),
        ]);
        let s = reg.snapshot();

        let prom = s.to_prometheus();
        assert!(prom.contains("wavepipe_points_accepted_total 1"));
        assert!(prom.contains("wavepipe_cache_hits_total{cache=\"companion\"} 1"));
        assert!(prom.contains("wavepipe_lead_accept_ema 0.75"));
        assert!(prom.contains("wavepipe_step_size_count 1"));
        assert!(prom.contains("le=\"+Inf\""));

        let js = s.to_json();
        let parsed = json::parse(&js).expect("snapshot json parses");
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("points_accepted")).and_then(|v| v.as_f64()),
            Some(1.0)
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
        let lane = Arc::clone(&reg);
        let publisher = std::thread::spawn(move || {
            for _ in 0..10_000u64 {
                lane.record(1, 0.0, EventKind::SolveEnd { iterations: 1, converged: true });
            }
        });
        let mut last = 0;
        for _ in 0..50 {
            let v = reg.snapshot().counter("solves");
            assert!(v >= last, "counters are monotone under concurrent snapshots");
            last = v;
        }
        publisher.join().expect("publisher thread");
        assert_eq!(reg.snapshot().counter("solves"), 10_000);
    }
}
