//! WavePipe configuration.

use wavepipe_engine::SimOptions;

/// Which waveform-pipelining scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheme {
    /// Plain serial simulation (the baseline; single thread).
    Serial,
    /// Backward pipelining: concurrent solves at the leading point and the
    /// backward intermediate points, enlarging the per-round time stride.
    #[default]
    Backward,
    /// Forward pipelining: speculative Newton at future points from
    /// predicted history, refined once the true history lands.
    Forward,
    /// Backward pipelining plus one forward speculative point.
    Combined,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::Serial => write!(f, "serial"),
            Scheme::Backward => write!(f, "backward"),
            Scheme::Forward => write!(f, "forward"),
            Scheme::Combined => write!(f, "combined"),
        }
    }
}

/// Options controlling a WavePipe run.
///
/// The embedded [`SimOptions`] are shared verbatim with the serial baseline,
/// which is what makes the accuracy-equivalence property meaningful: every
/// scheme applies the same Newton tolerances and LTE test to every accepted
/// point.
#[derive(Debug, Clone, PartialEq)]
pub struct WavePipeOptions {
    /// Pipelining scheme.
    pub scheme: Scheme,
    /// Total thread budget (including the coordinating thread): one
    /// pipeline lane each. Clamped to at least 1; `Serial` ignores it.
    pub threads: usize,
    /// Engine options (tolerances, method, step limits).
    pub sim: SimOptions,
}

impl Default for WavePipeOptions {
    fn default() -> Self {
        WavePipeOptions { scheme: Scheme::default(), threads: 2, sim: SimOptions::default() }
    }
}

impl WavePipeOptions {
    /// Convenience constructor for a scheme at a thread count.
    pub fn new(scheme: Scheme, threads: usize) -> Self {
        WavePipeOptions { scheme, threads: threads.max(1), ..WavePipeOptions::default() }
    }

    /// Sets the total thread budget (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Inert: the stamp-worker layer this sized is deleted, and every lane
    /// stamps through the one serial kernel whatever is passed. Kept because
    /// `benchmark/`, which a code change may not edit, calls it; it goes
    /// with ROADMAP's benchmark-only follow-up.
    #[doc(hidden)]
    #[must_use]
    pub fn with_stamp_workers(self, _: usize) -> Self {
        self
    }

    /// Replaces the embedded engine options.
    #[must_use]
    pub fn with_sim(mut self, sim: SimOptions) -> Self {
        self.sim = sim;
        self
    }

    /// Attaches a telemetry probe to the embedded engine options.
    #[must_use]
    pub fn with_probe(mut self, probe: wavepipe_engine::ProbeHandle) -> Self {
        self.sim.probe = probe;
        self
    }

    /// Gives the run a wall-clock deadline (armed when stepping starts, after
    /// the DC solve). See [`SimOptions::with_deadline`].
    #[must_use]
    pub fn with_deadline(mut self, budget: std::time::Duration) -> Self {
        self.sim = self.sim.with_deadline(budget);
        self
    }

    /// Attaches a cooperative cancellation token checked at round boundaries
    /// and inside Newton. See [`SimOptions::with_cancel_token`].
    #[must_use]
    pub fn with_cancel_token(mut self, token: wavepipe_engine::CancelToken) -> Self {
        self.sim = self.sim.with_cancel_token(token);
        self
    }

    /// Installs a deterministic fault-injection plan (testing aid). See
    /// [`SimOptions::with_faults`].
    #[must_use]
    pub fn with_faults(mut self, plan: wavepipe_engine::FaultPlan) -> Self {
        self.sim = self.sim.with_faults(plan);
        self
    }

    /// Enables or disables SPICE3-style device bypass in every lane's
    /// solver. See [`SimOptions::with_bypass`].
    #[must_use]
    pub fn with_bypass(mut self, on: bool) -> Self {
        self.sim = self.sim.with_bypass(on);
        self
    }

    /// Enables or disables chord/modified-Newton LU reuse in every lane's
    /// solver. See [`SimOptions::with_chord_newton`].
    #[must_use]
    pub fn with_chord_newton(mut self, on: bool) -> Self {
        self.sim = self.sim.with_chord_newton(on);
        self
    }

    /// Enables or disables the step-size-keyed companion (linear-stamp)
    /// cache. See [`SimOptions::with_companion_cache`].
    #[must_use]
    pub fn with_companion_cache(mut self, on: bool) -> Self {
        self.sim = self.sim.with_companion_cache(on);
        self
    }

    /// Number of concurrent point-solves a round may issue.
    pub fn width(&self) -> usize {
        match self.scheme {
            Scheme::Serial => 1,
            _ => self.threads.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_backward_two_threads() {
        let o = WavePipeOptions::default();
        assert_eq!(o.scheme, Scheme::Backward);
        assert_eq!(o.threads, 2);
    }

    #[test]
    fn new_clamps_threads() {
        let o = WavePipeOptions::new(Scheme::Forward, 0);
        assert_eq!(o.threads, 1);
    }

    #[test]
    fn width_is_one_for_serial() {
        assert_eq!(WavePipeOptions::new(Scheme::Serial, 8).width(), 1);
        assert_eq!(WavePipeOptions::new(Scheme::Backward, 3).width(), 3);
    }

    #[test]
    fn builders_chain() {
        let o = WavePipeOptions::new(Scheme::Forward, 2).with_threads(6);
        assert_eq!(o.scheme, Scheme::Forward);
        assert_eq!(o.threads, 6);
    }

    #[test]
    fn scheme_display() {
        assert_eq!(Scheme::Backward.to_string(), "backward");
        assert_eq!(Scheme::Combined.to_string(), "combined");
    }
}
