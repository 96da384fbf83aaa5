//! Batched many-scenario transient simulation for WavePipe.
//!
//! Corner sweeps, Monte Carlo runs, and parameter studies all simulate the
//! *same topology* many times with different element values. The classic
//! loop — build a circuit, [`MnaSystem::compile`] it, run it, repeat — pays
//! for circuit validation, pattern construction and stamp planning once
//! **per instance**, even though none of those depend on element values.
//!
//! [`BatchSim`] amortises all of that across the batch (the linear solver of
//! each instance is built, and orders its matrix, exactly as in a solo run):
//!
//! * **One compile.** The base circuit is compiled once; every instance is
//!   derived through [`MnaSystem::with_values_from`], which re-lowers only
//!   the element *values* and reuses the frozen sparse pattern, slot table,
//!   and stamp plan by reference.
//! * **Structure-of-arrays parameters.** Instance values are stored as one
//!   contiguous column per parameter ([`BatchSim::add_instance`] appends a
//!   row across all columns), keeping the sweep definition compact and the
//!   per-instance patch loop cache-friendly.
//! * **Thread-striped dispatch.** [`BatchSim::run`] distributes instances
//!   over [`BatchSim::with_threads`] batch workers.
//! * **Streaming.** [`BatchSim::run_each`] delivers each instance's result
//!   through a callback as it completes; `run` is the collecting wrapper
//!   over it.
//! * **Fault isolation.** Every instance runs under panic containment with
//!   one degraded-cache retry; a failure quarantines that instance only.
//!   [`BatchSim::run_each`] streams each completed waveform or structured
//!   [`QuarantineReport`], while [`BatchSim::run`] is the abort-mode view
//!   that collapses any quarantine into [`BatchError::InstanceFailed`]
//!   (carrying *all* failing indices).
//!
//! # Determinism
//!
//! Each batched instance is **bit-identical** to running the classic
//! single-run API on the same patched circuit with the same
//! [`SimOptions`]: value re-lowering uses the same device-construction code
//! path as a fresh compile, and every instance builds its linear-solver
//! backend from the options' [`SolverHandle`](wavepipe_engine::SolverHandle)
//! exactly as its solo run would. Every instance runs the engine's one
//! serial loop, so its [`wavepipe_engine::SimStats`] counters are its solo
//! run's too. This is pinned by the property tests in
//! `tests/bit_identity.rs` and, in the root package, by
//! `tests/stamp_kernel.rs` and `tests/spare_factors.rs`.
//!
//! # Example
//!
//! ```
//! use wavepipe_batch::{BatchSim, ParamKind};
//! use wavepipe_circuit::{Circuit, Waveform};
//!
//! # fn main() -> Result<(), wavepipe_batch::BatchError> {
//! let mut ckt = Circuit::new("rc");
//! let a = ckt.node("a");
//! let b = ckt.node("b");
//! ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
//! ckt.add_resistor("R1", a, b, 1e3).unwrap();
//! ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-9).unwrap();
//!
//! let mut batch = BatchSim::compile(&ckt, 1e-8, 2e-6)?.with_threads(2);
//! batch.param("R1", ParamKind::Resistance)?;
//! batch.param("C1", ParamKind::Capacitance)?;
//! for (r, c) in [(0.9e3, 1e-9), (1e3, 1e-9), (1.1e3, 1.2e-9)] {
//!     batch.add_instance(&[r, c])?;
//! }
//! let run = batch.run()?;
//! assert_eq!(run.results().len(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wavepipe_circuit::{Circuit, Element, Waveform};
use wavepipe_engine::transient::run_transient_recoverable_compiled;
use wavepipe_engine::{panic_message, EngineError, MnaSystem, SimOptions, TransientResult};

/// Which value of a named element a batch parameter column drives.
///
/// The kind is validated against the element when the column is registered
/// ([`BatchSim::param`]), so a mismatch is a setup-time error rather than a
/// mid-batch surprise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParamKind {
    /// Resistance of a `Resistor`, in ohms.
    Resistance,
    /// Capacitance of a `Capacitor`, in farads.
    Capacitance,
    /// Inductance of an `Inductor`, in henries.
    Inductance,
    /// DC value of a `VoltageSource` or `CurrentSource`; replaces the
    /// waveform with [`Waveform::Dc`].
    SourceDc,
    /// Zero-bias threshold voltage `VTO` of a `Mosfet` model, in volts.
    MosVt0,
    /// Transconductance parameter `KP` of a `Mosfet` model, in A/V².
    MosKp,
    /// Channel width `W` of a `Mosfet` model, in meters.
    MosW,
    /// Channel length `L` of a `Mosfet` model, in meters.
    MosL,
    /// Saturation current `IS` of a `Diode` model, in amperes.
    DiodeIs,
    /// Junction temperature of a `Diode` model, in °C (scales the thermal
    /// voltage; see `DiodeModel::temp_c`).
    Temperature,
    /// Delay `TD` of a source's `PULSE` waveform, in seconds. The source
    /// must already carry a [`Waveform::Pulse`].
    PulseDelay,
    /// Rise time `TR` of a source's `PULSE` waveform, in seconds.
    PulseRise,
    /// Fall time `TF` of a source's `PULSE` waveform, in seconds.
    PulseFall,
    /// Time coordinate of the `i`-th point of a source's `PWL` waveform, in
    /// seconds. The index is validated against the waveform's point count at
    /// registration; keeping the swept times strictly increasing across
    /// instances is the caller's responsibility (the waveform evaluates
    /// deterministically either way, but out-of-order points follow
    /// last-segment-wins semantics rather than erroring).
    PwlTime(usize),
}

impl fmt::Display for ParamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParamKind::Resistance => "resistance",
            ParamKind::Capacitance => "capacitance",
            ParamKind::Inductance => "inductance",
            ParamKind::SourceDc => "source DC value",
            ParamKind::MosVt0 => "MOSFET vt0",
            ParamKind::MosKp => "MOSFET kp",
            ParamKind::MosW => "MOSFET width",
            ParamKind::MosL => "MOSFET length",
            ParamKind::DiodeIs => "diode is",
            ParamKind::Temperature => "junction temperature",
            ParamKind::PulseDelay => "pulse delay",
            ParamKind::PulseRise => "pulse rise time",
            ParamKind::PulseFall => "pulse fall time",
            ParamKind::PwlTime(k) => return write!(f, "PWL point {k} time"),
        };
        f.write_str(s)
    }
}

impl ParamKind {
    /// Whether this kind can drive the given element.
    fn accepts(self, elem: &Element) -> bool {
        match (self, elem) {
            (ParamKind::Resistance, Element::Resistor { .. })
            | (ParamKind::Capacitance, Element::Capacitor { .. })
            | (ParamKind::Inductance, Element::Inductor { .. })
            | (ParamKind::SourceDc, Element::VoltageSource { .. })
            | (ParamKind::SourceDc, Element::CurrentSource { .. })
            | (ParamKind::MosVt0, Element::Mosfet { .. })
            | (ParamKind::MosKp, Element::Mosfet { .. })
            | (ParamKind::MosW, Element::Mosfet { .. })
            | (ParamKind::MosL, Element::Mosfet { .. })
            | (ParamKind::DiodeIs, Element::Diode { .. })
            | (ParamKind::Temperature, Element::Diode { .. }) => true,
            (
                ParamKind::PulseDelay | ParamKind::PulseRise | ParamKind::PulseFall,
                Element::VoltageSource { waveform, .. } | Element::CurrentSource { waveform, .. },
            ) => matches!(waveform, Waveform::Pulse { .. }),
            (
                ParamKind::PwlTime(k),
                Element::VoltageSource { waveform, .. } | Element::CurrentSource { waveform, .. },
            ) => matches!(waveform, Waveform::Pwl(pts) if k < pts.len()),
            _ => false,
        }
    }

    /// Write `value` into the element. Caller has already validated the
    /// kind/element pairing via [`ParamKind::accepts`].
    fn apply(self, elem: &mut Element, value: f64) {
        match (self, elem) {
            (ParamKind::Resistance, Element::Resistor { resistance, .. }) => *resistance = value,
            (ParamKind::Capacitance, Element::Capacitor { capacitance, .. }) => {
                *capacitance = value;
            }
            (ParamKind::Inductance, Element::Inductor { inductance, .. }) => *inductance = value,
            (ParamKind::SourceDc, Element::VoltageSource { waveform, .. })
            | (ParamKind::SourceDc, Element::CurrentSource { waveform, .. }) => {
                *waveform = Waveform::Dc(value);
            }
            (ParamKind::MosVt0, Element::Mosfet { model, .. }) => model.vt0 = value,
            (ParamKind::MosKp, Element::Mosfet { model, .. }) => model.kp = value,
            (ParamKind::MosW, Element::Mosfet { model, .. }) => model.w = value,
            (ParamKind::MosL, Element::Mosfet { model, .. }) => model.l = value,
            (ParamKind::DiodeIs, Element::Diode { model, .. }) => model.is = value,
            (ParamKind::Temperature, Element::Diode { model, .. }) => model.temp_c = value,
            (
                ParamKind::PulseDelay,
                Element::VoltageSource { waveform: Waveform::Pulse { td, .. }, .. }
                | Element::CurrentSource { waveform: Waveform::Pulse { td, .. }, .. },
            ) => *td = value,
            (
                ParamKind::PulseRise,
                Element::VoltageSource { waveform: Waveform::Pulse { tr, .. }, .. }
                | Element::CurrentSource { waveform: Waveform::Pulse { tr, .. }, .. },
            ) => *tr = value,
            (
                ParamKind::PulseFall,
                Element::VoltageSource { waveform: Waveform::Pulse { tf, .. }, .. }
                | Element::CurrentSource { waveform: Waveform::Pulse { tf, .. }, .. },
            ) => *tf = value,
            (
                ParamKind::PwlTime(k),
                Element::VoltageSource { waveform: Waveform::Pwl(pts), .. }
                | Element::CurrentSource { waveform: Waveform::Pwl(pts), .. },
            ) => pts[k].0 = value,
            _ => unreachable!("param kind validated at registration"),
        }
    }
}

/// Error from batch setup or execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BatchError {
    /// Compiling the base circuit, or deriving an instance system, failed.
    Engine(EngineError),
    /// A parameter column referenced an element that does not exist in the
    /// base circuit.
    UnknownElement {
        /// The missing element name.
        name: String,
    },
    /// A parameter column referenced an element of the wrong kind (e.g.
    /// [`ParamKind::Resistance`] on a capacitor).
    WrongKind {
        /// The element name.
        name: String,
        /// The requested parameter kind.
        kind: ParamKind,
    },
    /// [`BatchSim::add_instance`] was given the wrong number of values for
    /// the registered parameter columns.
    ParamCountMismatch {
        /// Registered parameter columns.
        expected: usize,
        /// Values supplied.
        found: usize,
    },
    /// [`BatchSim::run`] was called with no instances added.
    NoInstances,
    /// One or more instances of the batch failed. Every instance still runs
    /// to completion (quarantine-and-continue); this error is the abort-mode
    /// summary [`BatchSim::run`] assembles afterwards.
    InstanceFailed {
        /// Lowest failing instance index (the order of
        /// [`BatchSim::add_instance`] calls) — kept as the headline so the
        /// report is deterministic regardless of worker interleaving.
        index: usize,
        /// *All* failing instance indices, ascending. Always contains
        /// `index` as its first element.
        indices: Vec<usize>,
        /// The underlying engine failure of the lowest failing instance.
        source: EngineError,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Engine(e) => write!(f, "batch compile failed: {e}"),
            BatchError::UnknownElement { name } => {
                write!(f, "no element named {name} in the base circuit")
            }
            BatchError::WrongKind { name, kind } => {
                write!(f, "element {name} cannot take a {kind} parameter")
            }
            BatchError::ParamCountMismatch { expected, found } => {
                write!(f, "instance has {found} values but {expected} parameter columns")
            }
            BatchError::NoInstances => write!(f, "batch has no instances to run"),
            BatchError::InstanceFailed { index, indices, source } => {
                write!(f, "instance {index} failed: {source}")?;
                if indices.len() > 1 {
                    write!(f, " ({} instances failed in total: {indices:?})", indices.len())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Engine(e) | BatchError::InstanceFailed { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for BatchError {
    fn from(e: EngineError) -> Self {
        BatchError::Engine(e)
    }
}

/// One registered parameter column: which element, which value.
#[derive(Debug, Clone)]
struct ParamSpec {
    element: String,
    kind: ParamKind,
}

/// A batched many-scenario transient simulation.
///
/// Built with [`BatchSim::compile`] (one compile of the base circuit),
/// configured with the builder-style `with_*` methods, populated with
/// [`BatchSim::param`] / [`BatchSim::add_instance`], and executed with
/// [`BatchSim::run`]. See the [crate docs](crate) for what is shared across
/// instances and the determinism contract.
#[derive(Debug, Clone)]
pub struct BatchSim {
    sys: Arc<MnaSystem>,
    base: Circuit,
    tstep: f64,
    tstop: f64,
    sim: SimOptions,
    threads: usize,
    params: Vec<ParamSpec>,
    /// SoA storage: `columns[p][i]` is the value of parameter column `p`
    /// for instance `i`. All columns always have the same length.
    columns: Vec<Vec<f64>>,
    n_instances: usize,
}

impl BatchSim {
    /// Compile the base circuit once and set the shared analysis window.
    ///
    /// # Errors
    ///
    /// [`BatchError::Engine`] when the circuit fails validation or MNA
    /// compilation.
    pub fn compile(circuit: &Circuit, tstep: f64, tstop: f64) -> Result<Self, BatchError> {
        let sys = Arc::new(MnaSystem::compile(circuit)?);
        Ok(BatchSim {
            sys,
            base: circuit.clone(),
            tstep,
            tstop,
            sim: SimOptions::default(),
            threads: 1,
            params: Vec::new(),
            columns: Vec::new(),
            n_instances: 0,
        })
    }

    /// Thread budget for the batch (default 1): instances are striped over
    /// that many batch workers.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Per-instance simulation options (tolerances, integration method,
    /// caches, probes, solver handle), applied verbatim to every instance:
    /// each one runs as [`wavepipe_engine::run_transient`] would with the
    /// same options.
    #[must_use]
    pub fn with_sim(mut self, sim: SimOptions) -> Self {
        self.sim = sim;
        self
    }

    /// Inert: the lane-packed tier this switched is deleted, and a batch
    /// has one path whatever is passed. Kept because `benchmark/`, which a
    /// code change may not edit, calls it; it goes with ROADMAP's
    /// benchmark-only follow-up.
    #[doc(hidden)]
    #[must_use]
    pub fn with_simd(self, _: bool) -> Self {
        self
    }

    /// Register a parameter column driving `kind` of the named element
    /// (case-insensitive, like every name lookup in WavePipe). Returns the
    /// column index, which is also the position the value takes in each
    /// [`BatchSim::add_instance`] row.
    ///
    /// # Errors
    ///
    /// [`BatchError::UnknownElement`] when no element has that name;
    /// [`BatchError::WrongKind`] when the element cannot take that
    /// parameter. Columns cannot be registered once instances exist
    /// ([`BatchError::ParamCountMismatch`] — the existing rows would be
    /// short).
    pub fn param(&mut self, element: &str, kind: ParamKind) -> Result<usize, BatchError> {
        if self.n_instances > 0 {
            return Err(BatchError::ParamCountMismatch {
                expected: self.params.len() + 1,
                found: self.params.len(),
            });
        }
        let elem = self
            .base
            .element(element)
            .ok_or_else(|| BatchError::UnknownElement { name: element.to_string() })?;
        if !kind.accepts(elem) {
            return Err(BatchError::WrongKind { name: element.to_string(), kind });
        }
        self.params.push(ParamSpec { element: element.to_string(), kind });
        self.columns.push(Vec::new());
        Ok(self.params.len() - 1)
    }

    /// Append one instance: `values[p]` goes to parameter column `p`.
    /// Returns the instance index.
    ///
    /// # Errors
    ///
    /// [`BatchError::ParamCountMismatch`] when `values.len()` differs from
    /// the number of registered columns.
    pub fn add_instance(&mut self, values: &[f64]) -> Result<usize, BatchError> {
        if values.len() != self.params.len() {
            return Err(BatchError::ParamCountMismatch {
                expected: self.params.len(),
                found: values.len(),
            });
        }
        for (col, &v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
        self.n_instances += 1;
        Ok(self.n_instances - 1)
    }

    /// The shared compiled system all instances derive from.
    pub fn system(&self) -> &Arc<MnaSystem> {
        &self.sys
    }

    /// Build the patched circuit for one instance (base circuit with every
    /// registered column's value written in).
    fn instance_circuit(&self, index: usize) -> Circuit {
        let mut ckt = self.base.clone();
        for (spec, col) in self.params.iter().zip(&self.columns) {
            let elem =
                ckt.element_mut(&spec.element).expect("validated at registration: element exists");
            spec.kind.apply(elem, col[index]);
        }
        ckt
    }

    /// Solve one instance against the shared system.
    fn run_instance(
        &self,
        index: usize,
        opts: &SimOptions,
    ) -> Result<TransientResult, EngineError> {
        let ckt = self.instance_circuit(index);
        let sys = Arc::new(self.sys.with_values_from(&ckt)?);
        run_transient_recoverable_compiled(&sys, self.tstep, self.tstop, opts)
            .and_then(|o| o.into_result())
    }

    /// Per-instance options: a configured deadline is a *per-instance*
    /// budget, so each instance (and each retry) gets a fresh private token
    /// — one slow instance must not spend its siblings' budget or cancel
    /// them when it expires. A caller-owned cancel token *without* a
    /// deadline stays shared: cancelling it stops the whole batch.
    fn instance_opts(&self, base: &SimOptions) -> SimOptions {
        let mut opts = base.clone();
        if let Some(budget) = opts.deadline {
            opts.cancel = None;
            opts = opts.with_deadline(budget);
        }
        opts
    }

    /// One fault-isolated instance: panic containment, quarantine on
    /// failure, and a single retry with degraded caches.
    ///
    /// The retry pins every value-reuse optimisation off (device bypass,
    /// chord Newton, companion cache) — if the first failure was a
    /// poisoned cache or a convergence cliff the caches papered over, the
    /// degraded re-run is the rollback that clears it. Budget errors
    /// (cancellation, expired per-instance deadline) quarantine immediately
    /// without a retry: the caller asked this instance to stop.
    fn run_instance_isolated(
        &self,
        index: usize,
        base: &SimOptions,
    ) -> Result<TransientResult, QuarantineReport> {
        let attempt = |opts: &SimOptions| -> Result<TransientResult, (EngineError, bool)> {
            catch_unwind(AssertUnwindSafe(|| self.run_instance(index, opts)))
                .map_err(|p| {
                    (
                        EngineError::WorkerLost { lane: index as u32, cause: panic_message(&*p) },
                        true,
                    )
                })?
                .map_err(|e| (e, false))
        };

        let (error, panicked) = match attempt(&self.instance_opts(base)) {
            Ok(r) => return Ok(r),
            Err(e) => e,
        };
        if !panicked && error.is_budget() {
            return Err(QuarantineReport { index, error, retried: false, panicked });
        }
        let degraded = self
            .instance_opts(base)
            .with_bypass(false)
            .with_chord_newton(false)
            .with_companion_cache(false);
        match attempt(&degraded) {
            Ok(r) => Ok(r),
            Err((error, p2)) => {
                Err(QuarantineReport { index, error, retried: true, panicked: panicked || p2 })
            }
        }
    }

    /// Run every instance, **streaming** each per-instance result through
    /// `on_result` as it completes instead of collecting the whole batch in
    /// memory first. This is the execution core; [`BatchSim::run`] is the
    /// collecting wrapper over it.
    ///
    /// Instances are striped round-robin over the batch workers. A failing
    /// (or panicking) instance is **quarantined**: it is retried once with
    /// degraded caches (device bypass, chord Newton, and the companion
    /// cache pinned off), and if the retry also fails its
    /// [`QuarantineReport`] is streamed while every other instance still
    /// runs to completion. No-fault instances are bit-identical to a
    /// fault-free run: isolation only changes what happens on the error
    /// path.
    ///
    /// `on_result` receives `(instance_index, result)` exactly once per
    /// instance, in **completion order** (not index order) — workers race.
    /// Calls are serialized (the callback is behind a mutex), so it may
    /// mutate captured state freely; keep it cheap, since a slow callback
    /// backpressures every worker.
    ///
    /// # Errors
    ///
    /// [`BatchError::NoInstances`] for an empty batch. Per-instance failures
    /// are streamed as `Err(QuarantineReport)`.
    pub fn run_each<F>(&self, on_result: F) -> Result<BatchDispatch, BatchError>
    where
        F: FnMut(usize, Result<TransientResult, QuarantineReport>) + Send,
    {
        if self.n_instances == 0 {
            return Err(BatchError::NoInstances);
        }
        let start = Instant::now();
        let workers = self.threads.min(self.n_instances);
        let prep_ns = start.elapsed().as_nanos();

        let sink = Mutex::new(on_result);
        let run_one = |i: usize| {
            let r = self.run_instance_isolated(i, &self.sim);
            (sink.lock().expect("result sink poisoned"))(i, r);
        };
        if workers <= 1 {
            for i in 0..self.n_instances {
                run_one(i);
            }
        } else {
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let run_one = &run_one;
                    scope.spawn(move || {
                        let mut i = w;
                        while i < self.n_instances {
                            run_one(i);
                            i += workers;
                        }
                    });
                }
            });
        }
        Ok(BatchDispatch { workers, lane_width: 0, prep_ns, wall_ns: start.elapsed().as_nanos() })
    }

    /// Run every instance and collect the results in instance order,
    /// aborting (after the full batch has run) if any instance failed.
    ///
    /// This is [`BatchSim::run_each`] collected: the same fault-isolated
    /// execution, so every instance runs to completion before any failure
    /// is reported. Failures are deterministic — the lowest-index
    /// quarantined instance is the headline and the error carries every
    /// quarantined index.
    ///
    /// # Errors
    ///
    /// [`BatchError::NoInstances`] for an empty batch;
    /// [`BatchError::InstanceFailed`] when an instance cannot be derived or
    /// does not converge (even after its degraded-cache retry).
    pub fn run(&self) -> Result<BatchRun, BatchError> {
        let mut slots: Vec<Option<TransientResult>> = vec![None; self.n_instances];
        let mut quarantined = Vec::new();
        let dispatch = self.run_each(|i, r| match r {
            Ok(r) => slots[i] = Some(r),
            Err(q) => quarantined.push(q),
        })?;
        quarantined.sort_by_key(|q: &QuarantineReport| q.index);
        if let Some(first) = quarantined.first() {
            return Err(BatchError::InstanceFailed {
                index: first.index,
                indices: quarantined.iter().map(|q| q.index).collect(),
                source: first.error.clone(),
            });
        }
        Ok(BatchRun {
            results: slots
                .into_iter()
                .map(|r| r.expect("no quarantine: every slot filled"))
                .collect(),
            workers: dispatch.workers,
            prep_ns: dispatch.prep_ns,
            wall_ns: dispatch.wall_ns,
        })
    }
}

/// How a [`BatchSim::run_each`] dispatch was executed: worker count and the
/// shared-preparation / total wall times.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct BatchDispatch {
    /// Batch workers that executed the run.
    pub workers: usize,
    /// Lane width of the SIMD tier, or `0` when the classic per-instance
    /// path ran. That path is the only one left, so this always reads `0`;
    /// the field stays because `benchmark/` reads it and goes with
    /// [`BatchSim::with_simd`].
    pub lane_width: usize,
    /// Wall nanoseconds spent on shared preparation before any instance ran
    /// (the compile is [`BatchSim::compile`]'s, so this is dispatch set-up
    /// only).
    pub prep_ns: u128,
    /// Total wall nanoseconds for the whole batch, preparation included.
    pub wall_ns: u128,
}

/// The outcome of [`BatchSim::run`]: one [`TransientResult`] per instance,
/// in the order the instances were added.
#[derive(Debug, Clone)]
pub struct BatchRun {
    results: Vec<TransientResult>,
    workers: usize,
    prep_ns: u128,
    wall_ns: u128,
}

impl BatchRun {
    /// Per-instance results, in [`BatchSim::add_instance`] order.
    pub fn results(&self) -> &[TransientResult] {
        &self.results
    }

    /// Consume the run and take ownership of the per-instance results.
    pub fn into_results(self) -> Vec<TransientResult> {
        self.results
    }

    /// Batch workers that executed the run.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Wall nanoseconds spent on shared preparation before any instance
    /// ran (see [`BatchDispatch::prep_ns`]).
    pub fn prep_ns(&self) -> u128 {
        self.prep_ns
    }

    /// Total wall nanoseconds for the whole batch, preparation included.
    pub fn wall_ns(&self) -> u128 {
        self.wall_ns
    }
}

/// Structured report for one quarantined batch instance: which row failed,
/// how, and what the isolation machinery tried before giving up.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QuarantineReport {
    /// Instance index (the order of [`BatchSim::add_instance`] calls).
    pub index: usize,
    /// The failure of the **last** attempt. A panic is reported as
    /// [`EngineError::WorkerLost`] with the stringified panic payload and
    /// the instance index as the lane.
    pub error: EngineError,
    /// Whether the degraded-cache retry ran (and also failed). `false`
    /// means the first failure was a budget error (cancellation or an
    /// expired per-instance deadline), which is never retried.
    pub retried: bool,
    /// Whether any attempt panicked (as opposed to returning a typed
    /// engine error). The panic was contained to this instance.
    pub panicked: bool,
}

impl fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instance {} quarantined", self.index)?;
        if self.panicked {
            f.write_str(" (panicked)")?;
        }
        if self.retried {
            f.write_str(" after degraded-cache retry")?;
        }
        write!(f, ": {}", self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe_engine::{FaultPlan, GmresConfig, SolverHandle};

    /// Every counter; the wall-clock fields are the only ones that may differ.
    fn counts(s: &wavepipe_engine::SimStats) -> wavepipe_engine::SimStats {
        wavepipe_engine::SimStats { wall_ns: 0, stamp_ns: 0, ..*s }
    }

    /// [`BatchSim::run_each`] collected per instance: `Some` waveform or
    /// `None`, and the quarantine reports ascending by index.
    fn outcome(batch: &BatchSim) -> (Vec<Option<TransientResult>>, Vec<QuarantineReport>) {
        let mut slots = vec![None; batch.n_instances];
        let mut quarantined = Vec::new();
        batch
            .run_each(|i, r| match r {
                Ok(r) => slots[i] = Some(r),
                Err(q) => quarantined.push(q),
            })
            .unwrap();
        quarantined.sort_by_key(|q: &QuarantineReport| q.index);
        (slots, quarantined)
    }

    fn rc_circuit() -> Circuit {
        let mut ckt = Circuit::new("rc");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-9).unwrap();
        ckt
    }

    #[test]
    fn unknown_element_is_a_setup_error() {
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6).unwrap();
        let err = batch.param("R99", ParamKind::Resistance).unwrap_err();
        assert_eq!(err, BatchError::UnknownElement { name: "R99".into() });
    }

    #[test]
    fn wrong_kind_is_a_setup_error() {
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6).unwrap();
        let err = batch.param("C1", ParamKind::Resistance).unwrap_err();
        assert_eq!(err, BatchError::WrongKind { name: "C1".into(), kind: ParamKind::Resistance });
        // Error message names both sides of the mismatch.
        assert!(err.to_string().contains("C1"));
        assert!(err.to_string().contains("resistance"));
    }

    #[test]
    fn element_lookup_is_case_insensitive() {
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6).unwrap();
        assert_eq!(batch.param("r1", ParamKind::Resistance).unwrap(), 0);
    }

    #[test]
    fn value_count_mismatch_is_rejected() {
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6).unwrap();
        batch.param("R1", ParamKind::Resistance).unwrap();
        let err = batch.add_instance(&[1e3, 2e3]).unwrap_err();
        assert_eq!(err, BatchError::ParamCountMismatch { expected: 1, found: 2 });
        assert_eq!(batch.run().unwrap_err(), BatchError::NoInstances);
    }

    #[test]
    fn params_are_frozen_once_instances_exist() {
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6).unwrap();
        batch.param("R1", ParamKind::Resistance).unwrap();
        batch.add_instance(&[1e3]).unwrap();
        assert!(matches!(
            batch.param("C1", ParamKind::Capacitance),
            Err(BatchError::ParamCountMismatch { .. })
        ));
    }

    #[test]
    fn empty_batch_refuses_to_run() {
        let batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6).unwrap();
        assert_eq!(batch.run().unwrap_err(), BatchError::NoInstances);
    }

    /// Runs three R/C corners through a two-worker batch under `sim` and
    /// holds each instance to its solo `run_transient` under the same
    /// options, bit for bit. Returns the `(instance, solo)` pairs.
    fn batch_against_solo(sim: &SimOptions) -> Vec<(TransientResult, TransientResult)> {
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 2e-6)
            .unwrap()
            .with_threads(2)
            .with_sim(sim.clone());
        batch.param("R1", ParamKind::Resistance).unwrap();
        batch.param("C1", ParamKind::Capacitance).unwrap();
        let corners = [(0.5e3, 1e-9), (1e3, 1e-9), (2e3, 2e-9)];
        for (r, c) in corners {
            batch.add_instance(&[r, c]).unwrap();
        }
        let run = batch.run().unwrap();
        // Three instances striped over two threads.
        assert_eq!(run.workers(), 2);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        corners
            .iter()
            .zip(run.into_results())
            .map(|(&(r, c), got)| {
                let mut ckt = rc_circuit();
                if let Some(Element::Resistor { resistance, .. }) = ckt.element_mut("R1") {
                    *resistance = r;
                }
                if let Some(Element::Capacitor { capacitance, .. }) = ckt.element_mut("C1") {
                    *capacitance = c;
                }
                let want = wavepipe_engine::run_transient(&ckt, 1e-8, 2e-6, sim).unwrap();
                assert_eq!(got.times(), want.times(), "time grids diverged at R={r} C={c}");
                for k in 0..want.len() {
                    assert_eq!(
                        bits(got.solution(k)),
                        bits(want.solution(k)),
                        "R={r} C={c} point {k}"
                    );
                }
                (got, want)
            })
            .collect()
    }

    #[test]
    fn batch_matches_single_runs() {
        // The reference runs under the batch's own options, so the check
        // holds on every CI env leg (both sides solve through GMRES under
        // `WAVEPIPE_SOLVER=gmres`).
        assert_eq!(batch_against_solo(&SimOptions::default()).len(), 3);
    }

    #[test]
    fn a_gmres_batch_runs_each_instance_as_its_solo_gmres_run() {
        // The caller's solver handle reaches every instance: a batch must
        // not quietly solve through direct LU where its options say GMRES.
        let sim = SimOptions::default()
            .with_solver(SolverHandle::gmres(GmresConfig::default()))
            .with_faults(FaultPlan::new());
        for (got, want) in batch_against_solo(&sim) {
            assert!(want.stats().krylov_iterations > 0, "the solo run never iterated");
            assert_eq!(counts(got.stats()), counts(want.stats()));
        }
    }

    #[test]
    fn with_simd_is_inert() {
        let run = |simd: bool| {
            let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 2e-6).unwrap().with_simd(simd);
            batch.param("R1", ParamKind::Resistance).unwrap();
            for r in [0.5e3, 1e3, 2e3] {
                batch.add_instance(&[r]).unwrap();
            }
            let mut results = vec![None; 3];
            let dispatch = batch.run_each(|i, r| results[i] = Some(r.unwrap())).unwrap();
            assert_eq!(dispatch.lane_width, 0);
            results
        };
        for (on, off) in run(true).into_iter().zip(run(false)) {
            let (on, off) = (on.unwrap(), off.unwrap());
            assert_eq!(on.times(), off.times());
            for k in 0..on.len() {
                assert_eq!(on.solution(k), off.solution(k), "point {k}");
            }
            assert_eq!(counts(on.stats()), counts(off.stats()));
        }
    }

    #[test]
    fn failing_instance_reports_its_index() {
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6).unwrap();
        batch.param("R1", ParamKind::Resistance).unwrap();
        batch.add_instance(&[1e3]).unwrap();
        batch.add_instance(&[f64::NAN]).unwrap(); // poisons the matrix
        let err = batch.run().unwrap_err();
        assert!(
            matches!(err, BatchError::InstanceFailed { index: 1, .. }),
            "expected instance 1 to fail, got {err:?}"
        );
    }

    #[test]
    fn quarantine_keeps_siblings_and_reports_structure() {
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6).unwrap();
        batch.param("R1", ParamKind::Resistance).unwrap();
        batch.add_instance(&[1e3]).unwrap();
        batch.add_instance(&[f64::NAN]).unwrap(); // poisons the matrix
        batch.add_instance(&[2e3]).unwrap();
        let (results, quarantined) = outcome(&batch);
        assert_eq!(results.iter().flatten().count(), 2);
        assert!(results[0].is_some() && results[2].is_some());
        assert!(results[1].is_none());
        let [q] = &quarantined[..] else { panic!("expected one quarantine") };
        assert_eq!(q.index, 1);
        assert!(q.retried, "an engine failure must get its degraded-cache retry");
        assert!(!q.panicked);
        assert!(q.to_string().contains("instance 1 quarantined"), "{q}");
        // Abort mode: lowest index is the headline, all indices attached.
        match batch.run().unwrap_err() {
            BatchError::InstanceFailed { index, indices, .. } => {
                assert_eq!(index, 1);
                assert_eq!(indices, vec![1]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn abort_mode_carries_all_failed_indices() {
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6).unwrap();
        batch.param("R1", ParamKind::Resistance).unwrap();
        for r in [f64::NAN, 1e3, f64::NAN, 2e3] {
            batch.add_instance(&[r]).unwrap();
        }
        match batch.run().unwrap_err() {
            BatchError::InstanceFailed { index, indices, .. } => {
                assert_eq!(index, 0);
                assert_eq!(indices, vec![0, 2]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn hundred_instance_sweep_quarantines_only_the_poisoned() {
        // The acceptance scenario: 100 instances, 3 poisoned. The 97 clean
        // ones complete bit-identical to single runs; the 3 poisoned come
        // back as structured quarantine reports instead of erroring.
        let sim = SimOptions::default();
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6)
            .unwrap()
            .with_threads(4)
            .with_sim(sim.clone());
        batch.param("R1", ParamKind::Resistance).unwrap();
        let poisoned = [7usize, 41, 88];
        for i in 0..100 {
            let r = if poisoned.contains(&i) { f64::NAN } else { 0.5e3 + 10.0 * i as f64 };
            batch.add_instance(&[r]).unwrap();
        }
        let (results, quarantined) = outcome(&batch);
        assert_eq!(results.iter().flatten().count(), 97);
        let qidx: Vec<usize> = quarantined.iter().map(|q| q.index).collect();
        assert_eq!(qidx, poisoned);
        for i in [0usize, 25, 50, 99] {
            let mut ckt = rc_circuit();
            if let Some(Element::Resistor { resistance, .. }) = ckt.element_mut("R1") {
                *resistance = 0.5e3 + 10.0 * i as f64;
            }
            // Same options on both sides: see `batch_matches_single_runs`.
            let want = wavepipe_engine::run_transient(&ckt, 1e-8, 1e-6, &sim).unwrap();
            let got = results[i].as_ref().expect("clean instance completed");
            assert_eq!(got.times(), want.times(), "time grids diverged at instance {i}");
            for k in 0..want.len() {
                assert_eq!(got.solution(k), want.solution(k), "instance {i} point {k}");
            }
        }
    }

    #[test]
    fn cancelled_batch_quarantines_without_retry() {
        let token = wavepipe_engine::CancelToken::new();
        token.cancel();
        let mut batch = BatchSim::compile(&rc_circuit(), 1e-8, 1e-6)
            .unwrap()
            .with_sim(SimOptions::default().with_cancel_token(token));
        batch.param("R1", ParamKind::Resistance).unwrap();
        batch.add_instance(&[1e3]).unwrap();
        let (_, quarantined) = outcome(&batch);
        let [q] = &quarantined[..] else { panic!("expected one quarantine") };
        assert!(q.error.is_budget(), "expected a budget error, got {:?}", q.error);
        assert!(!q.retried, "budget errors must not be retried");
    }
}
