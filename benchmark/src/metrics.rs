//! The metric names this benchmark defines. `BENCHMARK.json` lists the same
//! names, units, directions and bounds; `tests/quick.rs` checks the two
//! against each other.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// the change counts as a regression.
    pub bound: f64,
    /// Listed in `BENCHMARK.json` and in the result line the driver reads.
    /// The driver refuses a benchmark whose metric spreads wider than its
    /// bound over ten runs, and no bound may exceed 0.25; a metric that
    /// cannot hold that on a shared two-core host is printed, stored and
    /// judged by `compare`, but not listed. See README.md, "Bounds".
    pub gated: bool,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 6] = [
    // The contract asks for the largest bound on set-up time.
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, gated: true },
    EndToEnd { name: "pass_s", unit: "s", better: Lower, bound: 0.10, gated: false },
    EndToEnd { name: "pass_tail_s", unit: "s", better: Lower, bound: 0.10, gated: false },
    EndToEnd { name: "pass_best_s", unit: "s", better: Lower, bound: 0.25, gated: true },
    EndToEnd { name: "rms_dev", unit: "1", better: Lower, bound: 0.001, gated: true },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Lower, bound: 0.05, gated: true },
];

/// Absolute slack on `rms_dev` when `compare` judges it: it is deterministic,
/// so any larger increase is a real loss of accuracy.
pub const RMS_DEV_SLACK: f64 = 1e-9;

/// A job whose waveform deviates from the reference by more than this has
/// failed (the repository's E5 accuracy bound).
pub const RMS_DEV_LIMIT: f64 = 2e-2;

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count made by the program that must repeat exactly for one seed;
    /// `compare` checks these by equality.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Lower, exact: false }
}

const fn ratio(name: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit: "1", better, exact: false }
}

const fn count(name: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit: "count", better, exact: true }
}

pub const PER_LAYER: [PerLayer; 61] = [
    // circuit
    timing("circuit.generate_s", "s"),
    timing("circuit.parse_us_per_line", "us"),
    // engine::mna
    timing("mna.compile_s", "s"),
    timing("mna.stamp_s", "s"),
    ratio("mna.stamp_share", Lower),
    count("mna.device_evals", Lower),
    ratio("mna.bypass_hit_ratio", Higher),
    ratio("mna.companion_hit_ratio", Higher),
    timing("mna.stamp_call_us", "us"),
    timing("mna.stamp_cached_call_us", "us"),
    timing("mna.stamp_lane_call_us", "us"),
    // engine::parstamp
    ratio("parstamp.pass_ratio_w2", Lower),
    // engine::newton / dcop / transient
    count("newton.iterations", Lower),
    ratio("newton.iters_per_point", Lower),
    timing("newton.us_per_iter", "us"),
    ratio("newton.jacobian_reuse_ratio", Higher),
    timing("dcop.solve_s", "s"),
    count("dcop.iterations", Lower),
    count("transient.points", Lower),
    count("transient.rejected_lte", Lower),
    count("transient.rejected_newton", Lower),
    ratio("transient.accept_ratio", Higher),
    // sparse::lu / engine::solver
    count("lu.fresh_factorizations", Lower),
    count("lu.refactorizations", Lower),
    count("lu.solves", Lower),
    ratio("lu.fill_ratio", Lower),
    timing("lu.factor_us", "us"),
    timing("lu.refactor_us", "us"),
    timing("lu.solve_us", "us"),
    // sparse::gmres / ilu / engine::krylov
    count("gmres.iterations", Lower),
    ratio("gmres.iters_per_solve", Lower),
    count("gmres.precond_refreshes", Lower),
    count("gmres.fallbacks", Lower),
    timing("ilu.factor_us", "us"),
    timing("gmres.solve_us", "us"),
    // sparse::lanes
    timing("lanes.refactor_us_per_lane", "us"),
    timing("lanes.solve_us_per_lane", "us"),
    // core
    count("core.rounds", Lower),
    ratio("core.lead_accept_ratio", Higher),
    ratio("core.work_ratio", Lower),
    timing("core.critical_s", "s"),
    timing("core.overhead_s", "s"),
    ratio("core.modeled_speedup", Higher),
    ratio("core.measured_speedup", Higher),
    ratio("core.model_error", Lower),
    count("core.workers_lost", Lower),
    // batch
    timing("batch.prep_s", "s"),
    timing("batch.run_s", "s"),
    PerLayer { name: "batch.instances_per_s", unit: "1/s", better: Higher, exact: false },
    count("batch.lane_width", Higher),
    count("batch.quarantined", Lower),
    ratio("batch.simd_speedup", Higher),
    ratio("batch.speedup_vs_loop", Higher),
    // ledger
    timing("ledger.stamp_s", "s"),
    timing("ledger.factor_s_est", "s"),
    timing("ledger.solve_s_est", "s"),
    timing("ledger.other_s", "s"),
    ratio("ledger.coverage", Higher),
    // telemetry / tracing
    ratio("telemetry.probe_overhead_ratio", Lower),
    count("telemetry.events", Lower),
    ratio("trace.overhead_ratio", Lower),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// What one run measured. A per-layer metric that does not apply to the
/// workload is absent here and reported as 0.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    /// Raw samples behind a median, for `compare` to take quartiles from.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "{name} is not a defined metric");
        self.values.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.values.values().all(|v| v.is_finite())
    }
}
