//! Run reports: counts, work accounting and the hand-off ledger.

use crate::options::Scheme;
use wavepipe_engine::{EngineError, Result, SimStats, TransientResult};

/// Outcome of a WavePipe run: the waveform plus parallel work accounting.
///
/// Two cost views are reported:
///
/// * **total** — work summed over every thread (what the machine did);
/// * **critical path** — per round, only the *maximum* concurrent task cost
///   counts, plus any sequential commit/refinement work. On an
///   otherwise-idle machine with at least `threads` cores, wall-clock time
///   is proportional to the critical path. It is a model, and is printed
///   nowhere but in `benchmark/`, as a cross-check beside the measured wall
///   clock.
///
/// What the model leaves out is in the **hand-off ledger**: `dispatch_ns`,
/// `lead_ns`, `wait_ns` and `commit_ns` are four laps of one clock per round,
/// so together they are the wall time of the stepping loop (everything in
/// `total.wall_ns` after compile, DC solve and pool start-up).
#[derive(Debug, Clone)]
pub struct WavePipeReport {
    /// The simulated waveform (accepted points only).
    pub result: TransientResult,
    /// The scheme that produced it.
    pub scheme: Scheme,
    /// Threads configured, one pipeline lane each (`1` for a
    /// [`Scheme::Serial`] run).
    pub threads: usize,
    /// Parallel rounds executed.
    pub rounds: usize,
    /// Work summed across all threads.
    pub total: SimStats,
    /// Critical-path work in abstract units (see [`SimStats::work_units`]).
    pub critical_work: u64,
    /// Critical-path wall time in nanoseconds.
    pub critical_ns: u128,
    /// Ledger: from the previous round's end until this round's tasks are
    /// with their lanes — ladder, history snapshot, channel sends. All four
    /// ledger parts are zero for [`Scheme::Serial`], whose step loop has no
    /// rounds to time.
    pub dispatch_ns: u128,
    /// Ledger: the coordinating lane's own solve of the round's base point.
    pub lead_ns: u128,
    /// Ledger: from the end of that solve until the last worker's reply is
    /// in — the sync-wait. Exactly zero when no round dispatched a task
    /// (width 1).
    pub wait_ns: u128,
    /// Ledger: from the last reply to the round's end — work accounting,
    /// LTE tests and commits, sequential refinements, worker respawns.
    pub commit_ns: u128,
    /// Backward pipelining: leading points accepted / rejected.
    pub lead_accepted: usize,
    /// Backward pipelining: leading points discarded (LTE or Newton).
    pub lead_rejected: usize,
    /// Forward pipelining: speculative solves whose prediction was accepted
    /// and refined.
    pub speculation_accepted: usize,
    /// Forward pipelining: speculative solves discarded.
    pub speculation_rejected: usize,
    /// Pool workers lost to panics during the run (each loss of a respawned
    /// worker counts again). Worker loss never affects the waveform — lost
    /// tasks are speculative and are simply discarded.
    pub workers_lost: usize,
}

impl WavePipeReport {
    /// Leading and speculative solves the run played, paid off or not.
    fn pipelined_solves(&self) -> usize {
        self.lead_accepted
            + self.lead_rejected
            + self.speculation_accepted
            + self.speculation_rejected
    }

    /// Fraction of speculative / leading solves that paid off.
    pub fn accept_rate(&self) -> f64 {
        match self.pipelined_solves() {
            0 => 1.0,
            n => (self.lead_accepted + self.speculation_accepted) as f64 / n as f64,
        }
    }

    /// One-line human-readable summary: counts, the measured wall time, and
    /// the accept rate when the run played any leading or speculative solve.
    pub fn summary(&self) -> String {
        let accept = if self.pipelined_solves() > 0 {
            format!(", accept {:.0}%", self.accept_rate() * 100.0)
        } else {
            String::new()
        };
        let faults = if self.workers_lost > 0 {
            format!(", {} workers lost", self.workers_lost)
        } else {
            String::new()
        };
        let handoff = self.handoff_ledger().map_or_else(String::new, |l| format!(", {l}"));
        format!(
            "{} x{}: {} pts, {} rounds, {} newton iters, wall {:.2} ms{}{}{}",
            self.scheme,
            self.threads,
            self.result.len(),
            self.rounds,
            self.total.newton_iterations,
            self.total.wall_ns as f64 / 1e6,
            accept,
            faults,
            handoff
        )
    }

    /// The hand-off ledger as one printable clause; `None` for
    /// [`Scheme::Serial`], whose step loop has no rounds and so no ledger.
    pub fn handoff_ledger(&self) -> Option<String> {
        let ms = |ns: u128| ns as f64 / 1e6;
        (self.scheme != Scheme::Serial).then(|| {
            format!(
                "hand-off dispatch/lead/wait/commit {:.2}/{:.2}/{:.2}/{:.2} ms",
                ms(self.dispatch_ns),
                ms(self.lead_ns),
                ms(self.wait_ns),
                ms(self.commit_ns)
            )
        })
    }
}

/// Outcome of a fault-tolerant WavePipe run
/// ([`crate::run_wavepipe_recoverable`]): the report built from every point
/// accepted before the run ended, together with the terminal error if any —
/// a deadline hit or cancellation mid-run keeps the waveform prefix instead
/// of discarding the whole analysis.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Report over the accepted prefix (the full run when `error` is `None`).
    pub report: WavePipeReport,
    /// `None` for a clean run to `tstop`; otherwise the terminal error.
    pub error: Option<EngineError>,
}

impl RunOutcome {
    /// Collapses to the classic all-or-nothing view: the full report on a
    /// clean run, the terminal error (partial report dropped) otherwise.
    ///
    /// # Errors
    ///
    /// Returns the terminal error of a partial run.
    pub fn into_result(self) -> Result<WavePipeReport> {
        match self.error {
            None => Ok(self.report),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> WavePipeReport {
        WavePipeReport {
            result: TransientResult::new(1, vec!["a".into()]),
            scheme: Scheme::Backward,
            threads: 2,
            rounds: 10,
            total: SimStats { newton_iterations: 40, wall_ns: 2_500_000, ..SimStats::new() },
            critical_work: 50,
            critical_ns: 1_000_000,
            dispatch_ns: 100_000,
            lead_ns: 800_000,
            wait_ns: 300_000,
            commit_ns: 50_000,
            lead_accepted: 8,
            lead_rejected: 2,
            speculation_accepted: 0,
            speculation_rejected: 0,
            workers_lost: 0,
        }
    }

    #[test]
    fn accept_rate_counts_both_kinds() {
        let mut r = dummy_report();
        r.speculation_accepted = 5;
        r.speculation_rejected = 5;
        assert!((r.accept_rate() - 13.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn summary_contains_scheme_and_ledger() {
        let s = dummy_report().summary();
        assert!(s.contains("backward x2:"), "{s}");
        assert!(s.contains("10 rounds, 40 newton iters, wall 2.50 ms, accept 80%"), "{s}");
        assert!(s.contains("dispatch/lead/wait/commit 0.10/0.80/0.30/0.05 ms"), "{s}");
        // A serial run has no ledger, and no leads to accept.
        let serial = WavePipeReport {
            scheme: Scheme::Serial,
            lead_accepted: 0,
            lead_rejected: 0,
            ..dummy_report()
        };
        assert_eq!(serial.handoff_ledger(), None);
        assert!(!serial.summary().contains("hand-off") && !serial.summary().contains("accept"));
    }

    #[test]
    fn summary_reports_lost_workers_only_when_any() {
        let mut r = dummy_report();
        assert!(!r.summary().contains("workers lost"));
        r.workers_lost = 2;
        assert!(r.summary().contains("2 workers lost"), "{}", r.summary());
    }

    #[test]
    fn outcome_into_result_round_trips() {
        let clean = RunOutcome { report: dummy_report(), error: None };
        assert!(clean.into_result().is_ok());
        let partial = RunOutcome {
            report: dummy_report(),
            error: Some(EngineError::Cancelled { time: 1e-9 }),
        };
        assert!(matches!(partial.into_result(), Err(EngineError::Cancelled { .. })));
    }
}
