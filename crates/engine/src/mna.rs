//! Modified nodal analysis: circuit compilation, pattern construction, and
//! per-iteration stamping.
//!
//! A [`Circuit`] is compiled once into an [`MnaSystem`]: a flat device list,
//! the fixed sparse matrix pattern, and a *slot table* mapping every stamp
//! emission to its position in the CSC value array. Each Newton iteration
//! then restamps values with zero symbolic work. The system itself is
//! immutable and shareable across threads; each solver owns an
//! [`MnaWorkspace`] (matrix values, RHS, junction-limiting state).

use crate::devices::{
    bjt_eval, depletion_charge, diode_eval, junction_vcrit, mos_eval, pnjlim, MosParams, VT,
};
use crate::error::Result;
use crate::integrate::IntegCoeffs;
use crate::options::CacheCtl;
use std::ops::Range;
use std::sync::Arc;
use wavepipe_circuit::{Circuit, Element, MosPolarity, Node, Waveform};
use wavepipe_sparse::{CooMatrix, CscMatrix};
use wavepipe_telemetry::{DeviceClass, EventKind};

/// Sentinel unknown index for the ground node.
const GND: usize = usize::MAX;

/// Stiff conductance used to enforce capacitor initial conditions in `UIC`
/// solves (1 MS: a forced node reaches its IC to within microvolts against
/// any realistic surrounding network).
const GIC: f64 = 1e6;

/// Absolute bypass tolerance on a device's controlling voltages, volts: the
/// default `VNTOL`. E11 measured device bypass at these two tolerances (with
/// the other cache layers, off against on); no other value was swept.
const BYPASS_VABS: f64 = 1e-6;

/// Relative bypass tolerance on a device's controlling voltages: two decades
/// tighter than the default `RELTOL` (E11, as [`BYPASS_VABS`]).
const BYPASS_VREL: f64 = 1e-5;

fn unknown_of(node: Node) -> usize {
    if node.is_ground() {
        GND
    } else {
        node.index() - 1
    }
}

/// A device compiled to unknown indices and pre-derived model constants.
#[derive(Debug, Clone)]
enum Dev {
    Conductance {
        p: usize,
        n: usize,
        g: f64,
    },
    Cap {
        p: usize,
        n: usize,
        c: f64,
        state: usize,
        ic: Option<f64>,
    },
    /// Nonlinear depletion capacitance (pn-junction): `q(v)` companion.
    Jcap {
        p: usize,
        n: usize,
        cj0: f64,
        vj: f64,
        m: f64,
        fc: f64,
        state: usize,
    },
    Ind {
        p: usize,
        n: usize,
        l: f64,
        branch: usize,
        ic: Option<f64>,
    },
    Vsrc {
        p: usize,
        n: usize,
        branch: usize,
        wave: Waveform,
    },
    Isrc {
        p: usize,
        n: usize,
        wave: Waveform,
    },
    Diode {
        p: usize,
        n: usize,
        is: f64,
        nvt: f64,
        vcrit: f64,
        jct: usize,
    },
    Mos {
        d: usize,
        g: usize,
        s: usize,
        b: usize,
        params: MosParams,
    },
    Bjt {
        c: usize,
        b: usize,
        e: usize,
        sign: f64,
        is: f64,
        bf: f64,
        br: f64,
        jct_be: usize,
        jct_bc: usize,
    },
    Vcvs {
        p: usize,
        n: usize,
        cp: usize,
        cn: usize,
        gain: f64,
        branch: usize,
    },
    Vccs {
        p: usize,
        n: usize,
        cp: usize,
        cn: usize,
        gm: f64,
    },
}

impl Dev {
    /// Whether this device's stamp depends on the Newton iterate `x` (and so
    /// must be emitted in the nonlinear phase).
    fn is_nonlinear(&self) -> bool {
        matches!(self, Dev::Diode { .. } | Dev::Mos { .. } | Dev::Bjt { .. } | Dev::Jcap { .. })
    }

    /// Whether two compiled devices share kind, terminals, and state slots —
    /// the structural identity under which they emit the *same* matrix/RHS
    /// position sequence (emission order and count are value-independent),
    /// so a system compiled from one can stamp values derived from the
    /// other. Waveforms, model constants, and initial conditions are
    /// deliberately ignored: those are the values a sweep varies.
    fn same_shape(a: &Dev, b: &Dev) -> bool {
        match (a, b) {
            (Dev::Conductance { p, n, .. }, Dev::Conductance { p: p2, n: n2, .. }) => {
                (p, n) == (p2, n2)
            }
            (Dev::Cap { p, n, state, .. }, Dev::Cap { p: p2, n: n2, state: s2, .. }) => {
                (p, n, state) == (p2, n2, s2)
            }
            (Dev::Jcap { p, n, state, .. }, Dev::Jcap { p: p2, n: n2, state: s2, .. }) => {
                (p, n, state) == (p2, n2, s2)
            }
            (Dev::Ind { p, n, branch, .. }, Dev::Ind { p: p2, n: n2, branch: b2, .. }) => {
                (p, n, branch) == (p2, n2, b2)
            }
            (Dev::Vsrc { p, n, branch, .. }, Dev::Vsrc { p: p2, n: n2, branch: b2, .. }) => {
                (p, n, branch) == (p2, n2, b2)
            }
            (Dev::Isrc { p, n, .. }, Dev::Isrc { p: p2, n: n2, .. }) => (p, n) == (p2, n2),
            (Dev::Diode { p, n, jct, .. }, Dev::Diode { p: p2, n: n2, jct: j2, .. }) => {
                (p, n, jct) == (p2, n2, j2)
            }
            (Dev::Mos { d, g, s, b, .. }, Dev::Mos { d: d2, g: g2, s: s2, b: b2, .. }) => {
                (d, g, s, b) == (d2, g2, s2, b2)
            }
            (
                Dev::Bjt { c, b, e, jct_be, jct_bc, .. },
                Dev::Bjt { c: c2, b: b2, e: e2, jct_be: be2, jct_bc: bc2, .. },
            ) => (c, b, e, jct_be, jct_bc) == (c2, b2, e2, be2, bc2),
            (
                Dev::Vcvs { p, n, cp, cn, branch, .. },
                Dev::Vcvs { p: p2, n: n2, cp: cp2, cn: cn2, branch: b2, .. },
            ) => (p, n, cp, cn, branch) == (p2, n2, cp2, cn2, b2),
            (Dev::Vccs { p, n, cp, cn, .. }, Dev::Vccs { p: p2, n: n2, cp: cp2, cn: cn2, .. }) => {
                (p, n, cp, cn) == (p2, n2, cp2, cn2)
            }
            _ => false,
        }
    }

    /// The device's class, as the per-class tallies name it.
    pub(crate) fn class(&self) -> DeviceClass {
        match self {
            Dev::Conductance { .. } => DeviceClass::Resistor,
            Dev::Cap { .. } => DeviceClass::Cap,
            Dev::Jcap { .. } => DeviceClass::Jcap,
            Dev::Ind { .. } => DeviceClass::Ind,
            Dev::Vsrc { .. } => DeviceClass::Vsrc,
            Dev::Isrc { .. } => DeviceClass::Isrc,
            Dev::Diode { .. } => DeviceClass::Diode,
            Dev::Mos { .. } => DeviceClass::Mos,
            Dev::Bjt { .. } => DeviceClass::Bjt,
            Dev::Vcvs { .. } => DeviceClass::Vcvs,
            Dev::Vccs { .. } => DeviceClass::Vccs,
        }
    }

    /// Appends the controlling terminal unknowns of a *bypassable* device
    /// (ground encoded as `u32::MAX`) and reports whether the device is
    /// bypassable at all. `Jcap` is deliberately not bypassable: its stamp
    /// also depends on the integration coefficients and the charge history,
    /// not just the iterate.
    fn push_ctrl_terminals(&self, out: &mut Vec<u32>) -> bool {
        let enc = |u: usize| if u == GND { u32::MAX } else { u as u32 };
        match *self {
            Dev::Diode { p, n, .. } => {
                out.extend([enc(p), enc(n)]);
                true
            }
            Dev::Mos { d, g, s, b, .. } => {
                out.extend([enc(d), enc(g), enc(s), enc(b)]);
                true
            }
            Dev::Bjt { c, b, e, .. } => {
                out.extend([enc(c), enc(b), enc(e)]);
                true
            }
            _ => false,
        }
    }
}

/// Inputs to a stamping pass: the time point, discretisation, history, and
/// continuation knobs.
#[derive(Debug, Clone, Copy)]
pub struct StampInput<'a> {
    /// Time of the point being solved (0 for DC).
    pub time: f64,
    /// Integration coefficients, or `None` for DC (capacitors open,
    /// inductors short).
    pub coeffs: Option<IntegCoeffs>,
    /// Solution at the previous accepted time point.
    pub x_prev: &'a [f64],
    /// Solution two accepted points back (used by Gear2).
    pub x_prev2: &'a [f64],
    /// Capacitor currents at the previous accepted point (used by TRAP).
    pub cap_currents: &'a [f64],
    /// Junction minimum conductance.
    pub gmin: f64,
    /// Extra conductance from every node to ground (gmin-stepping
    /// continuation; 0 in normal operation).
    pub gshunt: f64,
    /// Scale factor on independent sources (source-stepping continuation;
    /// 1 in normal operation).
    pub source_scale: f64,
    /// Initial-condition (`UIC`) solve: capacitors with an `IC=` are forced
    /// to their initial voltage through a stiff Norton source, capacitors
    /// without are open, and inductor branch currents are pinned to their
    /// initial values. Only meaningful together with `coeffs: None`.
    pub ic_mode: bool,
}

/// Mutable per-solver state: matrix values, right-hand side, junction
/// voltage memory for `pnjlim`, and the solver caches.
#[derive(Debug, Clone)]
pub struct MnaWorkspace {
    /// The MNA matrix (fixed pattern, values restamped each call).
    pub matrix: CscMatrix,
    /// Right-hand side vector.
    pub rhs: Vec<f64>,
    /// Last-used junction voltages (NPN/diode-equivalent frame).
    pub junction_state: Vec<f64>,
    /// Whether the last stamp had to limit any junction voltage. While
    /// limiting is active the linearisation point differs from the iterate,
    /// so Newton must NOT declare convergence — otherwise bias circuits
    /// falsely converge with dead junctions (tiny currents below the delta
    /// tolerance while the limiter is still climbing).
    pub limited: bool,
    /// Device-bypass and companion caches (see [`StampCaches`]).
    pub(crate) caches: StampCaches,
}

impl MnaWorkspace {
    /// Invalidates every solver cache in this workspace: per-device bypass
    /// state, the current bypass mask, and the companion (linear-matrix)
    /// cache. The cache-poisoning rollback rung of the recovery ladder calls
    /// this so the retry solve cannot replay any possibly-corrupt cached
    /// stamp.
    pub(crate) fn reset_caches(&mut self) {
        self.caches.valid.fill(false);
        self.caches.mask.fill(false);
        self.caches.lin_key = None;
    }
}

/// Key identifying which assembled *linear* matrix (node shunts, resistors,
/// sources, reactive companion conductances) a cached copy corresponds to.
/// Everything else a linear stamp's matrix entries depend on is compile-time
/// constant; the RHS (time, history, `source_scale`) is always re-emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinKey {
    /// DC stamp (capacitors open, inductors short).
    dc: bool,
    /// Bit pattern of the leading integration coefficient `a0` (the only
    /// coefficient that reaches matrix entries: `geq = c*a0`, `leq = l*a0`).
    a0: u64,
    /// Bit pattern of the continuation node shunt.
    gshunt: u64,
    /// `UIC` initial-condition stamp.
    ic: bool,
}

impl LinKey {
    /// The key the given stamp inputs select.
    pub(crate) fn of(input: &StampInput<'_>) -> Self {
        LinKey {
            dc: input.coeffs.is_none(),
            a0: input.coeffs.map_or(0, |c| c.a0.to_bits()),
            gshunt: input.gshunt.to_bits(),
            ic: input.ic_mode,
        }
    }
}

/// Per-workspace solver caches: SPICE3-style device bypass state plus the
/// step-size-keyed companion (linear-matrix) cache.
///
/// The bypass decision is a pure function of the iterate and this state, and
/// the state itself only changes on actual device evaluations, so two runs
/// with the same options take the same decisions.
#[derive(Debug, Clone)]
pub(crate) struct StampCaches {
    /// Per-device: the cached stamp may be replayed (the device was
    /// evaluated, its junction limiter did not fire, and `gmin` has not
    /// changed since).
    valid: Vec<bool>,
    /// Per-device bypass decision of the current stamp pass (recomputed from
    /// `valid` + the iterate, device by device).
    pub(crate) mask: Vec<bool>,
    /// Controlling terminal voltages at the last actual evaluation, flat in
    /// `MnaSystem::ctrl_span` order. Updated *only* on evaluation — updating
    /// on bypassed passes would silently drift the linearisation reference.
    ctrl: Vec<f64>,
    /// Cached matrix emissions of every device, dense in emission-cursor
    /// space (same length as the slot table).
    mat: Vec<f64>,
    /// Cached RHS emissions (same length as `StampPlan::rhs_targets`).
    rhs: Vec<f64>,
    /// Junction `gmin` the cached evaluations used.
    gmin: f64,
    /// Which assembled linear matrix `lin_mat` holds (`None` = invalid).
    lin_key: Option<LinKey>,
    /// Matrix values snapshot taken after the prologue + linear phase
    /// (nonlinear slots still zero), replayed on a key hit.
    lin_mat: Vec<f64>,
    /// RHS snapshot taken after the linear phase of the most recent stamp
    /// pass that walked it. Linear-device RHS contributions depend only on
    /// the companion key's inputs plus the previous-point solutions and
    /// capacitor currents — never on the Newton iterate — so within one
    /// Newton point iterations after the first replay this snapshot instead
    /// of re-walking the linear devices.
    lin_rhs: Vec<f64>,
}

impl StampCaches {
    /// Start-of-pass check: a changed junction `gmin` invalidates every
    /// cached device evaluation.
    fn sync_gmin(&mut self, gmin: f64) {
        if gmin != self.gmin {
            self.valid.fill(false);
            self.gmin = gmin;
        }
    }
}

/// What one stamping pass did, for work accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StampResult {
    /// Devices actually evaluated (linear + non-bypassed nonlinear).
    pub evals: usize,
    /// Nonlinear devices replayed from their bypass cache.
    pub bypassed: usize,
    /// Whether the linear matrix was replayed from the companion cache.
    pub companion_hit: bool,
}

/// A compiled circuit: fixed MNA structure ready for repeated stamping.
#[derive(Debug, Clone)]
pub struct MnaSystem {
    devices: Vec<Dev>,
    n_nodes: usize,
    n_unknowns: usize,
    n_cap_states: usize,
    n_junctions: usize,
    pattern: CscMatrix,
    slots: Vec<usize>,
    node_names: Vec<String>,
    branch_names: Vec<(String, usize)>,
    source_waves: Vec<Waveform>,
    plan: StampPlan,
    /// Linear devices (stamp independent of the iterate), element order.
    lin_elem: Vec<u32>,
    /// Nonlinear devices, element order.
    nl_elem: Vec<u32>,
    /// Devices that own a capacitor state (`Cap`, `Jcap`), element order:
    /// what [`MnaSystem::cap_currents_after`] walks at every solved point.
    /// Structure, not values: systems rebuilt by
    /// [`MnaSystem::with_values_from`] share it.
    cap_elem: Arc<[u32]>,
    /// Controlling terminal unknowns of bypassable devices, flat
    /// (`u32::MAX` = ground).
    ctrl_nodes: Vec<u32>,
    /// Per-device `[start, end)` into `ctrl_nodes` (empty span = device is
    /// not bypassable).
    ctrl_span: Vec<(u32, u32)>,
}

/// Per-device emission spans, frozen at compile time: where each device's
/// matrix and RHS emissions sit in emission order, which is how the bypass
/// cache finds a device's stamp to replay.
#[derive(Debug, Clone, Default)]
struct StampPlan {
    /// Per-device `[start, end)` of matrix emissions, in emission-cursor
    /// space (indices into `MnaSystem::slots`; the node-shunt prologue
    /// occupies cursors `0..n_nodes`).
    mat_span: Vec<(u32, u32)>,
    /// Per-device `[start, end)` into `rhs_targets`.
    rhs_span: Vec<(u32, u32)>,
    /// Unknown index of every non-ground RHS emission, in emission order.
    rhs_targets: Vec<u32>,
}

/// Emission target for [`MnaSystem::emit_device`]. Every implementation
/// applies the same ground-skip rule, so the emission *sequence* (and hence
/// the slot table and the per-device spans) is identical across sinks. Each
/// sink is a concrete type, so the whole device evaluation is monomorphized
/// per sink and no per-emission dispatch survives inlining.
pub(crate) trait EmitSink {
    fn mat(&mut self, r: usize, c: usize, v: f64);
    fn rhs(&mut self, u: usize, v: f64);
}

/// Pattern pass: records matrix positions and RHS target unknowns.
struct RecordSink {
    mat: Vec<(usize, usize)>,
    rhs: Vec<u32>,
}

impl EmitSink for RecordSink {
    #[inline]
    fn mat(&mut self, r: usize, c: usize, _v: f64) {
        if r == GND || c == GND {
            return;
        }
        self.mat.push((r, c));
    }

    #[inline]
    fn rhs(&mut self, u: usize, _v: f64) {
        if u == GND {
            return;
        }
        self.rhs.push(u as u32);
    }
}

/// Companion-cache hit: the matrix was already replayed wholesale, so
/// matrix emissions are dropped and only the (time/history-dependent) RHS
/// is re-emitted, exactly as [`WriteSink`] would.
struct RhsOnlySink<'a> {
    rhs: &'a mut [f64],
}

impl EmitSink for RhsOnlySink<'_> {
    #[inline]
    fn mat(&mut self, _r: usize, _c: usize, _v: f64) {}

    #[inline]
    fn rhs(&mut self, u: usize, v: f64) {
        if u == GND {
            return;
        }
        self.rhs[u] += v;
    }
}

/// Full linear restamp: scatters through the slot table into the workspace
/// in emission-cursor order.
struct WriteSink<'a> {
    values: &'a mut [f64],
    slots: &'a [usize],
    cursor: usize,
    rhs: &'a mut [f64],
}

impl EmitSink for WriteSink<'_> {
    #[inline]
    fn mat(&mut self, r: usize, c: usize, v: f64) {
        if r == GND || c == GND {
            return;
        }
        self.values[self.slots[self.cursor]] += v;
        self.cursor += 1;
    }

    #[inline]
    fn rhs(&mut self, u: usize, v: f64) {
        if u == GND {
            return;
        }
        self.rhs[u] += v;
    }
}

/// Fresh serial nonlinear evaluation: stores each emission into the
/// device's bypass-cache span (replay on a later bypass hit needs it) and
/// scatters it into the matrix/RHS in the same pass. The per-slot addition
/// order equals the replay scatter's, which walks the cache span in
/// emission order; `slots`/`cmat` are pre-sliced to the device's span so
/// the cursor is span-relative.
struct FusedNlSink<'a> {
    cmat: &'a mut [f64],
    crhs: &'a mut [f64],
    slots: &'a [usize],
    values: &'a mut [f64],
    rhs: &'a mut [f64],
    mc: usize,
    rc: usize,
}

impl EmitSink for FusedNlSink<'_> {
    #[inline]
    fn mat(&mut self, r: usize, c: usize, v: f64) {
        if r == GND || c == GND {
            return;
        }
        self.cmat[self.mc] = v;
        self.values[self.slots[self.mc]] += v;
        self.mc += 1;
    }

    #[inline]
    fn rhs(&mut self, u: usize, v: f64) {
        if u == GND {
            return;
        }
        self.crhs[self.rc] = v;
        self.rhs[u] += v;
        self.rc += 1;
    }
}

#[inline]
fn volt(x: &[f64], u: usize) -> f64 {
    if u == GND {
        0.0
    } else {
        x[u]
    }
}

/// The value-bearing half of a compiled system: everything `compile` derives
/// from element parameters, separated from the frozen structural half
/// (pattern, slot table, emission spans) so a parameter sweep can rebuild
/// only this part. Built by [`MnaSystem::build_devices`], the single derivation
/// path shared by [`MnaSystem::compile`] and
/// [`MnaSystem::with_values_from`] — sharing the code is what makes the
/// derived constants (`g = 1/R`, `beta`, `vt0_eq`, ...) bit-identical
/// between a fresh compile and a value-only rebuild.
struct DeviceTables {
    devices: Vec<Dev>,
    branch_names: Vec<(String, usize)>,
    source_waves: Vec<Waveform>,
    n_unknowns: usize,
    n_cap_states: usize,
    n_junctions: usize,
    lin_elem: Vec<u32>,
    nl_elem: Vec<u32>,
    ctrl_nodes: Vec<u32>,
    ctrl_span: Vec<(u32, u32)>,
}

impl MnaSystem {
    /// Compiles a circuit into a stamping-ready MNA system.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::Circuit`] if the netlist fails validation.
    pub fn compile(circuit: &Circuit) -> Result<Self> {
        circuit.validate()?;
        let n_nodes = circuit.node_count();
        let t = Self::build_devices(circuit);
        let node_names: Vec<String> = circuit.signal_node_names().map(str::to_string).collect();
        let cap_elem = (0..t.devices.len() as u32)
            .filter(|&d| matches!(t.devices[d as usize], Dev::Cap { .. } | Dev::Jcap { .. }))
            .collect();
        let mut sys = MnaSystem {
            devices: t.devices,
            n_nodes,
            n_unknowns: t.n_unknowns,
            n_cap_states: t.n_cap_states,
            n_junctions: t.n_junctions,
            pattern: CscMatrix::zeros(0, 0),
            slots: Vec::new(),
            node_names,
            branch_names: t.branch_names,
            source_waves: t.source_waves,
            plan: StampPlan::default(),
            lin_elem: t.lin_elem,
            nl_elem: t.nl_elem,
            cap_elem,
            ctrl_nodes: t.ctrl_nodes,
            ctrl_span: t.ctrl_span,
        };
        sys.build_pattern();
        Ok(sys)
    }

    /// Lowers every element of a validated circuit into the compiled device
    /// tables (unknown indices, derived model constants, name maps, the
    /// linear/nonlinear partition, and the bypass control-terminal table).
    fn build_devices(circuit: &Circuit) -> DeviceTables {
        let n_nodes = circuit.node_count();
        let mut devices = Vec::new();
        let mut branch_names = Vec::new();
        let mut source_waves = Vec::new();
        let mut next_branch = n_nodes;
        let mut next_cap = 0usize;
        let mut next_jct = 0usize;

        for el in circuit.elements() {
            match el {
                Element::Resistor { p, n, resistance, .. } => {
                    devices.push(Dev::Conductance {
                        p: unknown_of(*p),
                        n: unknown_of(*n),
                        g: 1.0 / resistance,
                    });
                }
                Element::Capacitor { p, n, capacitance, initial_voltage, .. } => {
                    devices.push(Dev::Cap {
                        p: unknown_of(*p),
                        n: unknown_of(*n),
                        c: *capacitance,
                        state: next_cap,
                        ic: *initial_voltage,
                    });
                    next_cap += 1;
                }
                Element::Inductor { name, p, n, inductance, initial_current, .. } => {
                    branch_names.push((name.clone(), next_branch));
                    devices.push(Dev::Ind {
                        p: unknown_of(*p),
                        n: unknown_of(*n),
                        l: *inductance,
                        branch: next_branch,
                        ic: *initial_current,
                    });
                    next_branch += 1;
                }
                Element::VoltageSource { name, p, n, waveform } => {
                    branch_names.push((name.clone(), next_branch));
                    source_waves.push(waveform.clone());
                    devices.push(Dev::Vsrc {
                        p: unknown_of(*p),
                        n: unknown_of(*n),
                        branch: next_branch,
                        wave: waveform.clone(),
                    });
                    next_branch += 1;
                }
                Element::CurrentSource { p, n, waveform, .. } => {
                    source_waves.push(waveform.clone());
                    devices.push(Dev::Isrc {
                        p: unknown_of(*p),
                        n: unknown_of(*n),
                        wave: waveform.clone(),
                    });
                }
                Element::Diode { p, n, model, .. } => {
                    // Thermal voltage scales linearly with absolute
                    // temperature. The literal `1.0` branch (not a computed
                    // ratio that happens to equal one) keeps the default
                    // 27 °C lowering bit-identical to the pre-temperature
                    // model: `273.15 + 27.0` need not round to `300.15`.
                    let t_ratio =
                        if model.temp_c == 27.0 { 1.0 } else { (273.15 + model.temp_c) / 300.15 };
                    let nvt = model.n * VT * t_ratio;
                    devices.push(Dev::Diode {
                        p: unknown_of(*p),
                        n: unknown_of(*n),
                        is: model.is,
                        nvt,
                        vcrit: junction_vcrit(model.is, nvt),
                        jct: next_jct,
                    });
                    next_jct += 1;
                    if model.cj0 > 0.0 {
                        devices.push(Dev::Jcap {
                            p: unknown_of(*p),
                            n: unknown_of(*n),
                            cj0: model.cj0,
                            vj: model.vj,
                            m: model.m,
                            fc: model.fc,
                            state: next_cap,
                        });
                        next_cap += 1;
                    }
                }
                Element::Mosfet { d, g, s, b, model, .. } => {
                    let sign = match model.polarity {
                        MosPolarity::Nmos => 1.0,
                        MosPolarity::Pmos => -1.0,
                    };
                    devices.push(Dev::Mos {
                        d: unknown_of(*d),
                        g: unknown_of(*g),
                        s: unknown_of(*s),
                        b: unknown_of(*b),
                        params: MosParams {
                            sign,
                            vt0_eq: sign * model.vt0,
                            beta: model.beta(),
                            lambda: model.lambda,
                            gamma: model.gamma,
                            phi: model.phi,
                        },
                    });
                    for (a, b, c) in [(*g, *s, model.cgs), (*g, *d, model.cgd)] {
                        if c > 0.0 {
                            devices.push(Dev::Cap {
                                p: unknown_of(a),
                                n: unknown_of(b),
                                c,
                                state: next_cap,
                                ic: None,
                            });
                            next_cap += 1;
                        }
                    }
                }
                Element::Bjt { c, b, e, model, .. } => {
                    devices.push(Dev::Bjt {
                        c: unknown_of(*c),
                        b: unknown_of(*b),
                        e: unknown_of(*e),
                        sign: if model.npn { 1.0 } else { -1.0 },
                        is: model.is,
                        bf: model.bf,
                        br: model.br,
                        jct_be: next_jct,
                        jct_bc: next_jct + 1,
                    });
                    next_jct += 2;
                }
                Element::Vcvs { name, p, n, cp, cn, gain } => {
                    branch_names.push((name.clone(), next_branch));
                    devices.push(Dev::Vcvs {
                        p: unknown_of(*p),
                        n: unknown_of(*n),
                        cp: unknown_of(*cp),
                        cn: unknown_of(*cn),
                        gain: *gain,
                        branch: next_branch,
                    });
                    next_branch += 1;
                }
                Element::Vccs { p, n, cp, cn, gm, .. } => {
                    devices.push(Dev::Vccs {
                        p: unknown_of(*p),
                        n: unknown_of(*n),
                        cp: unknown_of(*cp),
                        cn: unknown_of(*cn),
                        gm: *gm,
                    });
                }
            }
        }
        // Linear/nonlinear partition (element order within each class) and
        // the controlling-terminal table for device bypass.
        let mut lin_elem = Vec::new();
        let mut nl_elem = Vec::new();
        let mut ctrl_nodes = Vec::new();
        let mut ctrl_span = Vec::with_capacity(devices.len());
        for (d, dev) in devices.iter().enumerate() {
            if dev.is_nonlinear() {
                nl_elem.push(d as u32);
            } else {
                lin_elem.push(d as u32);
            }
            let c0 = ctrl_nodes.len() as u32;
            dev.push_ctrl_terminals(&mut ctrl_nodes);
            ctrl_span.push((c0, ctrl_nodes.len() as u32));
        }

        DeviceTables {
            devices,
            branch_names,
            source_waves,
            n_unknowns: next_branch,
            n_cap_states: next_cap,
            n_junctions: next_jct,
            lin_elem,
            nl_elem,
            ctrl_nodes,
            ctrl_span,
        }
    }

    /// Recompiles only the *values* of `circuit` against this system's
    /// frozen structure: the device list is rebuilt through the same
    /// derivation path as [`MnaSystem::compile`], while the pattern, slot
    /// table, and emission spans are shared from `self`.
    ///
    /// This is the compile-once half of batched sweeps: the emission
    /// sequence of every device is value-independent (kind and terminals
    /// alone fix it), so a circuit with identical topology but different
    /// parameter values stamps through the existing structure — and the
    /// resulting system is bit-identical to a fresh
    /// `MnaSystem::compile(circuit)`, which would rebuild the identical
    /// pattern from the identical emission sequence.
    ///
    /// # Errors
    ///
    /// * [`crate::EngineError::Circuit`] if the netlist fails validation.
    /// * [`crate::EngineError::TopologyMismatch`] if the circuit's node
    ///   count, device count, device kinds, or connectivity differ from the
    ///   compiled system (including value changes with structural effects,
    ///   e.g. zeroing a MOS gate capacitance or a diode's `cj0`, which
    ///   add/remove companion devices).
    pub fn with_values_from(&self, circuit: &Circuit) -> Result<Self> {
        circuit.validate()?;
        let mismatch = |context: String| crate::EngineError::TopologyMismatch { context };
        if circuit.node_count() != self.n_nodes {
            return Err(mismatch(format!(
                "node count {} != compiled {}",
                circuit.node_count(),
                self.n_nodes
            )));
        }
        let t = Self::build_devices(circuit);
        if t.devices.len() != self.devices.len() {
            return Err(mismatch(format!(
                "device count {} != compiled {} (a structural parameter changed?)",
                t.devices.len(),
                self.devices.len()
            )));
        }
        for (i, (new, old)) in t.devices.iter().zip(&self.devices).enumerate() {
            if !Dev::same_shape(new, old) {
                return Err(mismatch(format!(
                    "device {i} is a {} on different terminals or a {}",
                    new.class().name(),
                    old.class().name()
                )));
            }
        }
        debug_assert_eq!(t.n_unknowns, self.n_unknowns);
        debug_assert_eq!(t.n_cap_states, self.n_cap_states);
        debug_assert_eq!(t.n_junctions, self.n_junctions);
        debug_assert_eq!(t.lin_elem, self.lin_elem);
        Ok(MnaSystem {
            devices: t.devices,
            n_nodes: self.n_nodes,
            n_unknowns: self.n_unknowns,
            n_cap_states: self.n_cap_states,
            n_junctions: self.n_junctions,
            pattern: self.pattern.clone(),
            slots: self.slots.clone(),
            node_names: circuit.signal_node_names().map(str::to_string).collect(),
            branch_names: t.branch_names,
            source_waves: t.source_waves,
            plan: self.plan.clone(),
            lin_elem: t.lin_elem,
            nl_elem: t.nl_elem,
            cap_elem: Arc::clone(&self.cap_elem),
            ctrl_nodes: t.ctrl_nodes,
            ctrl_span: t.ctrl_span,
        })
    }

    /// Emission pass that records every matrix position a stamp can touch,
    /// then freezes the CSC pattern, the per-emission slot table, and the
    /// per-device emission spans.
    fn build_pattern(&mut self) {
        let zeros = vec![0.0_f64; self.n_unknowns];
        let caps = vec![0.0_f64; self.n_cap_states];
        let mut junction = vec![0.0_f64; self.n_junctions];
        let mut limited = false;
        let input = StampInput {
            time: 0.0,
            coeffs: None,
            x_prev: &zeros,
            x_prev2: &zeros,
            cap_currents: &caps,
            gmin: 0.0,
            gshunt: 0.0,
            source_scale: 1.0,
            ic_mode: false,
        };
        let mut mat_span = vec![(0u32, 0u32); self.devices.len()];
        let mut rhs_span = vec![(0u32, 0u32); self.devices.len()];
        let mut sink = RecordSink { mat: Vec::new(), rhs: Vec::new() };
        // Shunt prologue occupies emission cursors 0..n_nodes, exactly as
        // in the stamp's linear phase.
        for i in 0..self.n_nodes {
            sink.mat(i, i, 0.0);
        }
        // Stamp emission order: prologue, linear devices, nonlinear
        // devices (element order within each class). Keeping the record
        // pass and every numeric path on this one order is what keeps the
        // slot table and the per-device spans valid everywhere.
        for &d in self.lin_elem.iter().chain(&self.nl_elem) {
            let (m0, r0) = (sink.mat.len() as u32, sink.rhs.len() as u32);
            Self::emit_device(
                &self.devices[d as usize],
                &input,
                &zeros,
                &mut junction,
                &mut limited,
                &mut sink,
            );
            mat_span[d as usize] = (m0, sink.mat.len() as u32);
            rhs_span[d as usize] = (r0, sink.rhs.len() as u32);
        }
        let RecordSink { mat: entries, rhs: rhs_targets } = sink;
        let n = self.n_unknowns;
        let mut coo = CooMatrix::with_capacity(n, n, entries.len());
        for &(r, c) in &entries {
            coo.push(r, c, 0.0).expect("pattern entry in range");
        }
        let pattern = coo.to_csc();
        self.slots = entries
            .iter()
            .map(|&(r, c)| pattern.find_index(r, c).expect("entry present in pattern"))
            .collect();
        self.pattern = pattern;
        self.plan = StampPlan { mat_span, rhs_span, rhs_targets };
    }

    /// Number of MNA unknowns (node voltages + branch currents).
    pub fn n_unknowns(&self) -> usize {
        self.n_unknowns
    }

    /// Number of signal nodes (unknowns `0..n_nodes` are node voltages).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of capacitor state slots (one per physical or model capacitor).
    pub fn cap_state_count(&self) -> usize {
        self.n_cap_states
    }

    /// The frozen matrix pattern with zero values (clone into a workspace).
    pub fn pattern(&self) -> &CscMatrix {
        &self.pattern
    }

    /// Creates a fresh workspace for this system.
    pub fn new_workspace(&self) -> MnaWorkspace {
        let nd = self.devices.len();
        MnaWorkspace {
            matrix: self.pattern.clone(),
            rhs: vec![0.0; self.n_unknowns],
            junction_state: vec![0.0; self.n_junctions],
            limited: false,
            caches: StampCaches {
                valid: vec![false; nd],
                mask: vec![false; nd],
                ctrl: vec![0.0; self.ctrl_nodes.len()],
                mat: vec![0.0; self.slots.len()],
                rhs: vec![0.0; self.plan.rhs_targets.len()],
                gmin: 0.0,
                lin_key: None,
                lin_mat: vec![0.0; self.pattern.nnz()],
                lin_rhs: vec![0.0; self.n_unknowns],
            },
        }
    }

    /// Hands `emit` one [`EventKind::ClassEvals`] per nonlinear device class
    /// present: its devices evaluated and bypassed by the stamp pass that
    /// left `mask` (the pass's bypass mask). Purely observational — the
    /// Newton loop calls it only with a probe attached.
    pub(crate) fn class_evals(&self, mask: &[bool], mut emit: impl FnMut(EventKind)) {
        let mut tally = [(0u32, 0u32); DeviceClass::ALL.len()];
        for &d in &self.nl_elem {
            let cell = &mut tally[self.devices[d as usize].class() as usize];
            if mask.get(d as usize).copied().unwrap_or(false) {
                cell.1 += 1;
            } else {
                cell.0 += 1;
            }
        }
        for (class, (evals, bypassed)) in DeviceClass::ALL.into_iter().zip(tally) {
            if evals + bypassed > 0 {
                emit(EventKind::ClassEvals { class, evals, bypassed });
            }
        }
    }

    /// Unknown index of the named node, if it exists and is not ground.
    pub fn node_unknown(&self, name: &str) -> Option<usize> {
        self.node_names.iter().position(|n| n == name)
    }

    /// Name of the node whose voltage is unknown `unknown`.
    ///
    /// # Panics
    ///
    /// Panics if `unknown >= n_nodes()`.
    pub(crate) fn node_name_of(&self, unknown: usize) -> &str {
        &self.node_names[unknown]
    }

    /// All signal-node names in unknown order.
    pub(crate) fn node_names(&self) -> &[String] {
        &self.node_names
    }

    /// All branch-current element names with their unknown indices.
    pub(crate) fn branch_names(&self) -> &[(String, usize)] {
        &self.branch_names
    }

    /// Union of all source-waveform breakpoints in `[0, tstop]`, sorted and
    /// deduplicated.
    pub(crate) fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        let mut bp: Vec<f64> =
            self.source_waves.iter().flat_map(|w| w.breakpoints(tstop)).collect();
        bp.push(tstop);
        bp.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        bp.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
        bp.retain(|&t| t > 0.0);
        bp
    }

    /// Stamps the linearised system at iterate `x_iter` into `ws` with every
    /// solver cache off. Equivalent to
    /// `stamp_with(ws, input, x_iter, &CacheCtl::disabled())`; returns the
    /// number of device evaluations performed (for work accounting).
    pub fn stamp(&self, ws: &mut MnaWorkspace, input: &StampInput<'_>, x_iter: &[f64]) -> usize {
        self.stamp_lane(ws, input, x_iter, &CacheCtl::disabled(), true).evals
    }

    /// Stamps the linearised system at iterate `x_iter` into `ws`, using the
    /// workspace's solver caches as `ctl` allows: [`MnaSystem::stamp_lane`]
    /// for a caller that has no Newton iteration count to offer (every call
    /// is treated as the first iteration of its point).
    pub fn stamp_with(
        &self,
        ws: &mut MnaWorkspace,
        input: &StampInput<'_>,
        x_iter: &[f64],
        ctl: &CacheCtl,
    ) -> StampResult {
        self.stamp_lane(ws, input, x_iter, ctl, true)
    }

    /// The stamping kernel — every path (serial engine, pipelining lanes,
    /// batch instances) stamps through it; the name dates from the
    /// lane-packed batch tier that first called it, since deleted, and stays
    /// because `benchmark/` times the kernel by this name. The linear phase
    /// may replay the companion-cached matrix, and nonlinear devices whose
    /// controlling voltages are within the bypass tolerance replay their
    /// cached stamp.
    ///
    /// The emission order is fixed (node-shunt prologue, linear devices in
    /// element order, nonlinear devices in element order) for every `ctl`
    /// setting, and every cache decision is a deterministic function of the
    /// iterate and the workspace state — so two runs with the same options
    /// produce bitwise-identical results.
    ///
    /// `first_iter` marks the first Newton iteration of the current time
    /// point. On later iterations of the same point every input of the
    /// linear phase other than the iterate — time, integration
    /// coefficients, previous-point solutions, capacitor currents — is
    /// unchanged, and linear devices never read the iterate, so the linear
    /// RHS snapshot taken on the first iteration is replayed by `memcpy`
    /// (the exact bits the device walk would reproduce).
    pub fn stamp_lane(
        &self,
        ws: &mut MnaWorkspace,
        input: &StampInput<'_>,
        x_iter: &[f64],
        ctl: &CacheCtl,
        first_iter: bool,
    ) -> StampResult {
        ws.caches.sync_gmin(input.gmin);
        let companion_hit = self.stamp_linear_phase(ws, input, x_iter, ctl, first_iter);
        let (nl_evals, bypassed) = self.stamp_nonlinear_fused(ws, input, x_iter, ctl);
        StampResult { evals: self.lin_elem.len() + nl_evals, bypassed, companion_hit }
    }

    // `inline(always)` on the four per-device helpers below is measured, not
    // habit: under plain `#[inline]` they stayed out of line in the kernel's
    // nonlinear loop and a fully-bypassed stamp of an 80-stage inverter
    // chain cost ~12 % more (benchmark metric `mna.stamp_lane_call_us`).

    /// Device `d`'s `[start, end)` emission ranges: matrix cursors (indices
    /// into the slot table and the bypass matrix cache) and RHS cursors.
    #[inline(always)]
    fn spans(&self, d: usize) -> (Range<usize>, Range<usize>) {
        let (m0, m1) = self.plan.mat_span[d];
        let (r0, r1) = self.plan.rhs_span[d];
        (m0 as usize..m1 as usize, r0 as usize..r1 as usize)
    }

    /// The bypass predicate: device `d`'s cached stamp may be replayed when
    /// the cache is valid (evaluated, unlimited, same `gmin`) and every
    /// controlling terminal voltage is within
    /// `BYPASS_VABS + BYPASS_VREL * max(|v|, |v_ref|)` of the evaluation
    /// reference.
    #[inline(always)]
    fn may_bypass(
        &self,
        d: usize,
        valid: &[bool],
        ctrl: &[f64],
        x: &[f64],
        ctl: &CacheCtl,
    ) -> bool {
        let (c0, c1) = self.ctrl_span[d];
        let mut ok = ctl.bypass && valid[d] && c0 != c1;
        for k in c0..c1 {
            if !ok {
                break;
            }
            let t = self.ctrl_nodes[k as usize];
            let v = if t == u32::MAX { 0.0 } else { x[t as usize] };
            let vref = ctrl[k as usize];
            let tol = BYPASS_VABS + BYPASS_VREL * v.abs().max(vref.abs());
            // NaN-safe: a non-finite iterate never bypasses.
            ok = (v - vref).abs() <= tol;
        }
        ok
    }

    /// Books a fresh evaluation of bypassable device `d` at iterate `x`:
    /// the cache is replayable unless the junction limiter fired, and `x`
    /// becomes the tolerance reference.
    #[inline(always)]
    fn note_evaluated(
        &self,
        d: usize,
        dev_limited: bool,
        valid: &mut [bool],
        ctrl: &mut [f64],
        x: &[f64],
    ) {
        let (c0, c1) = self.ctrl_span[d];
        if c0 != c1 {
            valid[d] = !dev_limited;
            for k in c0..c1 {
                let t = self.ctrl_nodes[k as usize];
                ctrl[k as usize] = if t == u32::MAX { 0.0 } else { x[t as usize] };
            }
        }
    }

    /// Scatters device `d`'s cached emissions through the slot table, in
    /// emission order — the per-slot addition order of a fresh evaluation.
    #[inline(always)]
    fn scatter_cached(
        &self,
        d: usize,
        cmat: &[f64],
        crhs: &[f64],
        values: &mut [f64],
        rhs: &mut [f64],
    ) {
        let (m, r) = self.spans(d);
        for (&slot, &v) in self.slots[m.clone()].iter().zip(&cmat[m]) {
            values[slot] += v;
        }
        for (&u, &v) in self.plan.rhs_targets[r.clone()].iter().zip(&crhs[r]) {
            rhs[u as usize] += v;
        }
    }

    /// Linear phase: zeroes the workspace, applies the node-shunt prologue,
    /// and stamps every linear device — replaying the assembled matrix from
    /// the companion cache when the step-size key matches, and on iterations
    /// after the first of a point (`first_iter` false) the linear RHS as
    /// well. Returns whether the cache hit.
    fn stamp_linear_phase(
        &self,
        ws: &mut MnaWorkspace,
        input: &StampInput<'_>,
        x: &[f64],
        ctl: &CacheCtl,
        first_iter: bool,
    ) -> bool {
        ws.limited = false;
        let key = LinKey::of(input);
        let MnaWorkspace { matrix, rhs, junction_state, limited, caches } = ws;
        let hit = ctl.companion && caches.lin_key == Some(key);
        if hit && !first_iter {
            // Same point, same key: both the linear matrix and the linear
            // RHS are replays of the first iteration's snapshots. Linear
            // devices never touch `limited` or the junction state, so
            // skipping their walk leaves every other output of this phase
            // exactly as the walk would.
            matrix.values_mut().copy_from_slice(&caches.lin_mat);
            rhs.copy_from_slice(&caches.lin_rhs);
            return true;
        }
        rhs.fill(0.0);
        if hit {
            // One memcpy restores prologue + linear matrix (and zeroes the
            // nonlinear slots, which were zero in the snapshot); the RHS
            // carries the time- and history-dependent terms, so it is
            // re-emitted.
            matrix.values_mut().copy_from_slice(&caches.lin_mat);
            let (a1, a2, b1) = match input.coeffs {
                Some(c) => (c.a1, c.a2, c.b1),
                None => (0.0, 0.0, 0.0),
            };
            let transient = input.coeffs.is_some() && !input.ic_mode;
            let mut sink = RhsOnlySink { rhs };
            for &d in &self.lin_elem {
                // Capacitors dominate the linear re-emission on MOS
                // circuits (two parasitic caps per FET plus loads), so the
                // common transient case gets a dedicated body: `ieq` is the
                // identical expression as `emit_device`'s Cap arm (same op
                // order, same bits), and `geq` is skipped outright — it
                // only feeds matrix emissions the hit path drops.
                if let Dev::Cap { p, n, c, state, .. } = self.devices[d as usize] {
                    if transient {
                        let u_prev = volt(input.x_prev, p) - volt(input.x_prev, n);
                        let u_prev2 = volt(input.x_prev2, p) - volt(input.x_prev2, n);
                        let ieq = c * (a1 * u_prev + a2 * u_prev2) + b1 * input.cap_currents[state];
                        sink.rhs(p, -ieq);
                        sink.rhs(n, ieq);
                        continue;
                    }
                }
                Self::emit_device(
                    &self.devices[d as usize],
                    input,
                    x,
                    junction_state,
                    limited,
                    &mut sink,
                );
            }
        } else {
            matrix.set_values_zero();
            {
                let values = matrix.values_mut();
                for i in 0..self.n_nodes {
                    values[self.slots[i]] += input.gshunt;
                }
                let mut sink = WriteSink { values, slots: &self.slots, cursor: self.n_nodes, rhs };
                for &d in &self.lin_elem {
                    Self::emit_device(
                        &self.devices[d as usize],
                        input,
                        x,
                        junction_state,
                        limited,
                        &mut sink,
                    );
                }
            }
            caches.lin_mat.copy_from_slice(matrix.values());
            caches.lin_key = if ctl.companion { Some(key) } else { None };
        }
        caches.lin_rhs.copy_from_slice(rhs);
        hit
    }

    /// Serial nonlinear phase: element order, each device either replayed
    /// from its bypass cache or evaluated into it and scattered in the same
    /// sweep. The bypass decision is taken at the device's own turn (nothing
    /// this loop writes is read by a later device's predicate) and recorded
    /// in `caches.mask` for the per-class tallies. Returns
    /// `(evaluated, bypassed)` counts.
    fn stamp_nonlinear_fused(
        &self,
        ws: &mut MnaWorkspace,
        input: &StampInput<'_>,
        x: &[f64],
        ctl: &CacheCtl,
    ) -> (usize, usize) {
        let MnaWorkspace { matrix, rhs, junction_state, limited, caches } = ws;
        let StampCaches { valid, mask, ctrl, mat: cmat, rhs: crhs, .. } = caches;
        let values = matrix.values_mut();
        let mut bypassed = 0usize;
        for &d in &self.nl_elem {
            let du = d as usize;
            let bypass = self.may_bypass(du, valid, ctrl, x, ctl);
            mask[du] = bypass;
            if bypass {
                bypassed += 1;
                self.scatter_cached(du, cmat, crhs, values, rhs);
                continue;
            }
            let (m, r) = self.spans(du);
            let mut dev_limited = false;
            let mut sink = FusedNlSink {
                cmat: &mut cmat[m.clone()],
                crhs: &mut crhs[r],
                slots: &self.slots[m],
                values: &mut *values,
                rhs: rhs.as_mut_slice(),
                mc: 0,
                rc: 0,
            };
            Self::emit_device(
                &self.devices[du],
                input,
                x,
                junction_state,
                &mut dev_limited,
                &mut sink,
            );
            *limited |= dev_limited;
            self.note_evaluated(du, dev_limited, valid, ctrl, x);
        }
        (self.nl_elem.len() - bypassed, bypassed)
    }

    /// Capacitor currents at the newly accepted point, for the next step's
    /// TRAP companion.
    pub(crate) fn cap_currents_after(
        &self,
        coeffs: &IntegCoeffs,
        x_new: &[f64],
        x_prev: &[f64],
        x_prev2: &[f64],
        cap_prev: &[f64],
    ) -> Vec<f64> {
        let mut out = vec![0.0; self.n_cap_states];
        for &d in self.cap_elem.iter() {
            match self.devices[d as usize] {
                Dev::Cap { p, n, c, state, .. } => {
                    let u_new = volt(x_new, p) - volt(x_new, n);
                    let u_prev = volt(x_prev, p) - volt(x_prev, n);
                    let u_prev2 = volt(x_prev2, p) - volt(x_prev2, n);
                    let dq = coeffs.derivative(u_new, u_prev, u_prev2, cap_prev[state] / c);
                    out[state] = c * dq;
                }
                Dev::Jcap { p, n, cj0, vj, m, fc, state } => {
                    let q_at =
                        |xx: &[f64]| depletion_charge(volt(xx, p) - volt(xx, n), cj0, vj, m, fc).0;
                    out[state] = coeffs.derivative(
                        q_at(x_new),
                        q_at(x_prev),
                        q_at(x_prev2),
                        cap_prev[state],
                    );
                }
                _ => {}
            }
        }
        out
    }

    /// Evaluates and emits one device. Emission order and count are
    /// value-independent, which is what keeps the slot table and the
    /// per-device spans valid for every stamp.
    fn emit_device<S: EmitSink>(
        dev: &Dev,
        input: &StampInput<'_>,
        x: &[f64],
        junction: &mut [f64],
        limited: &mut bool,
        sink: &mut S,
    ) {
        let (a0, a1, a2, b1) = match input.coeffs {
            Some(c) => (c.a0, c.a1, c.a2, c.b1),
            None => (0.0, 0.0, 0.0, 0.0),
        };
        let dc = input.coeffs.is_none();
        {
            match *dev {
                Dev::Conductance { p, n, g } => {
                    sink.mat(p, p, g);
                    sink.mat(p, n, -g);
                    sink.mat(n, p, -g);
                    sink.mat(n, n, g);
                }
                Dev::Cap { p, n, c, state, ic } => {
                    let (geq, ieq) = if input.ic_mode {
                        match ic {
                            // Stiff Norton source forcing u = v0.
                            Some(v0) => (GIC, -GIC * v0),
                            None => (0.0, 0.0),
                        }
                    } else if dc {
                        (0.0, 0.0)
                    } else {
                        let u_prev = volt(input.x_prev, p) - volt(input.x_prev, n);
                        let u_prev2 = volt(input.x_prev2, p) - volt(input.x_prev2, n);
                        let geq = c * a0;
                        let ieq = c * (a1 * u_prev + a2 * u_prev2) + b1 * input.cap_currents[state];
                        (geq, ieq)
                    };
                    sink.mat(p, p, geq);
                    sink.mat(p, n, -geq);
                    sink.mat(n, p, -geq);
                    sink.mat(n, n, geq);
                    sink.rhs(p, -ieq);
                    sink.rhs(n, ieq);
                }
                Dev::Jcap { p, n, cj0, vj, m, fc, state } => {
                    // Nonlinear charge companion: i = dq/dt with
                    // q = q_dep(u). Newton-linearised at the iterate:
                    // geq = a0*c(u_k), ieq = a0*(q(u_k) - c(u_k)*u_k)
                    //       + a1*q(u_prev) + a2*q(u_prev2) + b1*i_prev.
                    let (geq, ieq) = if dc {
                        (0.0, 0.0)
                    } else {
                        let u_k = volt(x, p) - volt(x, n);
                        let u_prev = volt(input.x_prev, p) - volt(input.x_prev, n);
                        let u_prev2 = volt(input.x_prev2, p) - volt(input.x_prev2, n);
                        let (q_k, c_k) = depletion_charge(u_k, cj0, vj, m, fc);
                        let (q_prev, _) = depletion_charge(u_prev, cj0, vj, m, fc);
                        let (q_prev2, _) = depletion_charge(u_prev2, cj0, vj, m, fc);
                        let geq = a0 * c_k;
                        let ieq = a0 * (q_k - c_k * u_k)
                            + a1 * q_prev
                            + a2 * q_prev2
                            + b1 * input.cap_currents[state];
                        (geq, ieq)
                    };
                    sink.mat(p, p, geq);
                    sink.mat(p, n, -geq);
                    sink.mat(n, p, -geq);
                    sink.mat(n, n, geq);
                    sink.rhs(p, -ieq);
                    sink.rhs(n, ieq);
                }
                Dev::Ind { p, n, l, branch, ic } => {
                    // KCL contributions of the branch current.
                    sink.mat(p, branch, 1.0);
                    sink.mat(n, branch, -1.0);
                    if input.ic_mode {
                        // Branch equation replaced by i = i0.
                        sink.mat(branch, p, 0.0);
                        sink.mat(branch, n, 0.0);
                        sink.mat(branch, branch, -1.0);
                        sink.rhs(branch, -ic.unwrap_or(0.0));
                        return;
                    }
                    // Branch equation: v_p - v_n - L*di/dt = 0.
                    sink.mat(branch, p, 1.0);
                    sink.mat(branch, n, -1.0);
                    let (leq, rhs_b) = if dc {
                        (0.0, 0.0)
                    } else {
                        let i_prev = volt(input.x_prev, branch);
                        let i_prev2 = volt(input.x_prev2, branch);
                        let u_prev = volt(input.x_prev, p) - volt(input.x_prev, n);
                        (l * a0, l * (a1 * i_prev + a2 * i_prev2) + b1 * u_prev)
                    };
                    sink.mat(branch, branch, -leq);
                    sink.rhs(branch, rhs_b);
                }
                Dev::Vsrc { p, n, branch, ref wave, .. } => {
                    sink.mat(p, branch, 1.0);
                    sink.mat(n, branch, -1.0);
                    sink.mat(branch, p, 1.0);
                    sink.mat(branch, n, -1.0);
                    sink.rhs(branch, wave.value(input.time) * input.source_scale);
                }
                Dev::Isrc { p, n, ref wave, .. } => {
                    let i = wave.value(input.time) * input.source_scale;
                    sink.rhs(p, -i);
                    sink.rhs(n, i);
                }
                Dev::Diode { p, n, is, nvt, vcrit, jct } => {
                    let u_raw = volt(x, p) - volt(x, n);
                    let u = pnjlim(u_raw, junction[jct], nvt, vcrit);
                    if (u - u_raw).abs() > 1e-10 {
                        *limited = true;
                    }
                    junction[jct] = u;
                    let (i_d, g_d) = diode_eval(u, is, nvt);
                    let g = g_d + input.gmin;
                    sink.mat(p, p, g);
                    sink.mat(p, n, -g);
                    sink.mat(n, p, -g);
                    sink.mat(n, n, g);
                    let ieq = i_d - g_d * u;
                    sink.rhs(p, -ieq);
                    sink.rhs(n, ieq);
                }
                Dev::Mos { d, g, s, b, ref params } => {
                    let (vd, vg, vs, vb) = (volt(x, d), volt(x, g), volt(x, s), volt(x, b));
                    let e = mos_eval(vd, vg, vs, vb, params);
                    // Drain row.
                    sink.mat(d, d, e.g_dd);
                    sink.mat(d, g, e.g_dg);
                    sink.mat(d, s, e.g_ds);
                    sink.mat(d, b, e.g_db);
                    // Source row (current conservation: i_s = -i_d; the bulk
                    // carries no current in this model).
                    sink.mat(s, d, -e.g_dd);
                    sink.mat(s, g, -e.g_dg);
                    sink.mat(s, s, -e.g_ds);
                    sink.mat(s, b, -e.g_db);
                    // Convergence aid: gmin across the channel.
                    sink.mat(d, d, input.gmin);
                    sink.mat(d, s, -input.gmin);
                    sink.mat(s, d, -input.gmin);
                    sink.mat(s, s, input.gmin);
                    let ieq = e.id - (e.g_dd * vd + e.g_dg * vg + e.g_ds * vs + e.g_db * vb);
                    sink.rhs(d, -ieq);
                    sink.rhs(s, ieq);
                }
                Dev::Bjt { c, b, e, sign, is, bf, br, jct_be, jct_bc } => {
                    let (vc, vb, ve) = (volt(x, c), volt(x, b), volt(x, e));
                    let nvt = VT;
                    let vcrit = junction_vcrit(is, nvt);
                    let vbe_raw = sign * (vb - ve);
                    let vbc_raw = sign * (vb - vc);
                    let vbe = pnjlim(vbe_raw, junction[jct_be], nvt, vcrit);
                    let vbc = pnjlim(vbc_raw, junction[jct_bc], nvt, vcrit);
                    if (vbe - vbe_raw).abs() > 1e-10 || (vbc - vbc_raw).abs() > 1e-10 {
                        *limited = true;
                    }
                    junction[jct_be] = vbe;
                    junction[jct_bc] = vbc;
                    let ev = bjt_eval(vbe, vbc, sign, is, bf, br);
                    // Reconstruct limited node voltages for the equivalent
                    // currents: the linearisation point is (vbe, vbc) in the
                    // device frame; express ieq via raw voltages consistent
                    // with the derivatives.
                    let vb_l = vb;
                    let ve_l = vb - sign * vbe;
                    let vc_l = vb - sign * vbc;
                    // Collector row.
                    sink.mat(c, c, ev.g_cc);
                    sink.mat(c, b, ev.g_cb);
                    sink.mat(c, e, ev.g_ce);
                    // Base row.
                    sink.mat(b, c, ev.g_bc);
                    sink.mat(b, b, ev.g_bb);
                    sink.mat(b, e, ev.g_be);
                    // Emitter row: i_e = -(i_c + i_b).
                    sink.mat(e, c, -(ev.g_cc + ev.g_bc));
                    sink.mat(e, b, -(ev.g_cb + ev.g_bb));
                    sink.mat(e, e, -(ev.g_ce + ev.g_be));
                    // gmin across both junctions.
                    sink.mat(b, b, 2.0 * input.gmin);
                    sink.mat(b, e, -input.gmin);
                    sink.mat(e, b, -input.gmin);
                    sink.mat(e, e, input.gmin);
                    sink.mat(b, c, -input.gmin);
                    sink.mat(c, b, -input.gmin);
                    sink.mat(c, c, input.gmin);
                    let ieq_c = ev.ic - (ev.g_cc * vc_l + ev.g_cb * vb_l + ev.g_ce * ve_l);
                    let ieq_b = ev.ib - (ev.g_bc * vc_l + ev.g_bb * vb_l + ev.g_be * ve_l);
                    sink.rhs(c, -ieq_c);
                    sink.rhs(b, -ieq_b);
                    sink.rhs(e, ieq_c + ieq_b);
                }
                Dev::Vcvs { p, n, cp, cn, gain, branch } => {
                    sink.mat(p, branch, 1.0);
                    sink.mat(n, branch, -1.0);
                    sink.mat(branch, p, 1.0);
                    sink.mat(branch, n, -1.0);
                    sink.mat(branch, cp, -gain);
                    sink.mat(branch, cn, gain);
                }
                Dev::Vccs { p, n, cp, cn, gm } => {
                    sink.mat(p, cp, gm);
                    sink.mat(p, cn, -gm);
                    sink.mat(n, cp, -gm);
                    sink.mat(n, cn, gm);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::Method;
    use wavepipe_circuit::Waveform as W;

    fn dc_input<'a>(x_prev: &'a [f64], caps: &'a [f64]) -> StampInput<'a> {
        StampInput {
            time: 0.0,
            coeffs: None,
            x_prev,
            x_prev2: x_prev,
            cap_currents: caps,
            gmin: 1e-12,
            gshunt: 0.0,
            source_scale: 1.0,
            ic_mode: false,
        }
    }

    fn divider() -> Circuit {
        let mut ckt = Circuit::new("divider");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, W::dc(10.0)).unwrap();
        ckt.add_resistor("R1", a, b, 1000.0).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1000.0).unwrap();
        ckt
    }

    #[test]
    fn compile_counts() {
        let sys = MnaSystem::compile(&divider()).unwrap();
        assert_eq!(sys.n_nodes(), 2);
        assert_eq!(sys.n_unknowns(), 3);
        assert_eq!(sys.cap_state_count(), 0);
        assert!(sys.pattern().nnz() > 0);
    }

    #[test]
    fn stamp_and_solve_divider_dc() {
        let sys = MnaSystem::compile(&divider()).unwrap();
        let mut ws = sys.new_workspace();
        let x = vec![0.0; 3];
        let caps: Vec<f64> = vec![];
        sys.stamp(&mut ws, &dc_input(&x, &caps), &x);
        let lu = wavepipe_sparse::SparseLu::factor(&ws.matrix, &Default::default()).unwrap();
        let sol = lu.solve(&ws.rhs).unwrap();
        let a = sys.node_unknown("a").unwrap();
        let b = sys.node_unknown("b").unwrap();
        assert!((sol[a] - 10.0).abs() < 1e-9, "v(a) = {}", sol[a]);
        assert!((sol[b] - 5.0).abs() < 1e-9, "v(b) = {}", sol[b]);
        // Source current = -10/2k (flows out of the + terminal).
        let [(name, br)] = sys.branch_names() else { panic!("one branch unknown") };
        assert_eq!(name, "V1");
        let br = *br;
        assert!((sol[br] + 0.005).abs() < 1e-9, "i(V1) = {}", sol[br]);
    }

    #[test]
    fn stamping_twice_gives_same_values() {
        let sys = MnaSystem::compile(&divider()).unwrap();
        let mut ws = sys.new_workspace();
        let x = vec![0.0; 3];
        let caps: Vec<f64> = vec![];
        sys.stamp(&mut ws, &dc_input(&x, &caps), &x);
        let v1 = ws.matrix.values().to_vec();
        let r1 = ws.rhs.clone();
        sys.stamp(&mut ws, &dc_input(&x, &caps), &x);
        assert_eq!(ws.matrix.values(), &v1[..]);
        assert_eq!(ws.rhs, r1);
    }

    #[test]
    fn capacitor_open_in_dc_shorted_dynamically() {
        let mut ckt = Circuit::new("rc");
        let a = ckt.node("a");
        ckt.add_isource("I1", Circuit::GROUND, a, W::dc(1e-3)).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", a, Circuit::GROUND, 1e-9).unwrap();
        let sys = MnaSystem::compile(&ckt).unwrap();
        let mut ws = sys.new_workspace();
        let x = vec![0.0; 1];
        let caps = vec![0.0; 1];
        // DC: only R matters -> v = 1 V.
        sys.stamp(&mut ws, &dc_input(&x, &caps), &x);
        let lu = wavepipe_sparse::SparseLu::factor(&ws.matrix, &Default::default()).unwrap();
        let sol = lu.solve(&ws.rhs).unwrap();
        assert!((sol[0] - 1.0).abs() < 1e-9);
        // Transient with huge geq (tiny step): cap holds its previous 0 V.
        let coeffs = IntegCoeffs::new(Method::BackwardEuler, 1e-15, 1e-15);
        let tr = StampInput { coeffs: Some(coeffs), time: 1e-15, ..dc_input(&x, &caps) };
        sys.stamp(&mut ws, &tr, &x);
        let lu = wavepipe_sparse::SparseLu::factor(&ws.matrix, &Default::default()).unwrap();
        let sol = lu.solve(&ws.rhs).unwrap();
        assert!(sol[0].abs() < 1e-4, "cap pins the node, v = {}", sol[0]);
    }

    #[test]
    fn breakpoints_include_sources_and_tstop() {
        let mut ckt = Circuit::new("t");
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, W::pulse(0.0, 1.0, 1e-9, 1e-9, 1e-9, 2e-9, 0.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 50.0).unwrap();
        let sys = MnaSystem::compile(&ckt).unwrap();
        let bp = sys.breakpoints(10e-9);
        assert!(bp.iter().any(|&t| (t - 1e-9).abs() < 1e-18));
        assert_eq!(*bp.last().unwrap(), 10e-9);
        assert!(bp.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn vccs_stamp_produces_transconductance() {
        let mut ckt = Circuit::new("g");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("V1", inp, Circuit::GROUND, W::dc(2.0)).unwrap();
        ckt.add_vccs("G1", out, Circuit::GROUND, inp, Circuit::GROUND, 1e-3).unwrap();
        ckt.add_resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        ckt.add_resistor("Rb", inp, out, 1e9).unwrap(); // connectivity bond
        let sys = MnaSystem::compile(&ckt).unwrap();
        let mut ws = sys.new_workspace();
        let x = vec![0.0; sys.n_unknowns()];
        let caps: Vec<f64> = vec![];
        sys.stamp(&mut ws, &dc_input(&x, &caps), &x);
        let lu = wavepipe_sparse::SparseLu::factor(&ws.matrix, &Default::default()).unwrap();
        let sol = lu.solve(&ws.rhs).unwrap();
        // i = gm*vin = 2 mA out of `out` node -> v(out) = -2 V across 1k.
        let out_i = sys.node_unknown("out").unwrap();
        assert!((sol[out_i] + 2.0).abs() < 1e-4, "v(out) = {}", sol[out_i]);
    }
}
