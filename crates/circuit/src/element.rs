//! Circuit elements (devices) and their model parameter sets.
//!
//! Elements reference circuit nodes by [`Node`] id; node 0 is ground. The
//! numerical behaviour (stamps, companion models, linearisation) lives in
//! `wavepipe-engine`; this module is the pure description.

use crate::waveform::Waveform;
use std::fmt;

/// A circuit node identifier. `Node::GROUND` (index 0) is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Node(pub(crate) usize);

impl Node {
    /// The ground (reference) node.
    pub(crate) const GROUND: Node = Node(0);

    /// Raw index of this node (0 = ground; signal nodes start at 1).
    pub fn index(self) -> usize {
        self.0
    }

    /// Returns `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ground() {
            write!(f, "0")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Diode model parameters (Shockley model with optional nonlinear
/// depletion capacitance).
#[derive(Debug, Clone, PartialEq)]
pub struct DiodeModel {
    /// Saturation current `IS` (A). Default `1e-14`.
    pub is: f64,
    /// Emission coefficient `N`. Default `1.0`.
    pub n: f64,
    /// Zero-bias junction capacitance `CJ0` (F). When nonzero the junction
    /// carries the standard voltage-dependent depletion capacitance
    /// `CJ0 / (1 - v/VJ)^M` (with the usual forward-bias linear extension
    /// beyond `FC*VJ`). Default `0.0` (no capacitance).
    pub cj0: f64,
    /// Junction built-in potential `VJ` (V). Default `1.0`.
    pub vj: f64,
    /// Grading coefficient `M`. Default `0.5` (abrupt junction).
    pub m: f64,
    /// Forward-bias depletion-capacitance coefficient `FC`. Default `0.5`.
    pub fc: f64,
    /// Junction temperature in °C. Scales the thermal voltage
    /// `Vt = n·k·T/q` linearly with absolute temperature relative to the
    /// nominal 27 °C (saturation-current temperature dependence is not
    /// modeled). Default `27.0` — at the default the lowered device is
    /// bit-identical to the pre-temperature model.
    pub temp_c: f64,
}

impl Default for DiodeModel {
    fn default() -> Self {
        DiodeModel { is: 1e-14, n: 1.0, cj0: 0.0, vj: 1.0, m: 0.5, fc: 0.5, temp_c: 27.0 }
    }
}

/// MOSFET channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// Level-1 (Shichman–Hodges) MOSFET model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage `VTO` (V); positive for NMOS,
    /// negative for PMOS. Default `0.7` / `-0.7`.
    pub vt0: f64,
    /// Transconductance parameter `KP` (A/V^2). Default `2e-5`.
    pub kp: f64,
    /// Channel-length modulation `LAMBDA` (1/V). Default `0.0`.
    pub lambda: f64,
    /// Channel width (m). Default `10e-6`.
    pub w: f64,
    /// Channel length (m). Default `1e-6`.
    pub l: f64,
    /// Gate-source capacitance (F), stamped as a linear capacitor.
    /// Default `1e-15`.
    pub cgs: f64,
    /// Gate-drain capacitance (F), stamped as a linear capacitor.
    /// Default `1e-15`.
    pub cgd: f64,
    /// Body-effect coefficient `GAMMA` (V^0.5). `0` disables the body
    /// effect. Default `0.0`.
    pub gamma: f64,
    /// Surface potential `PHI` (V). Default `0.65`.
    pub phi: f64,
}

impl MosModel {
    /// Default NMOS model.
    pub fn nmos() -> Self {
        MosModel {
            polarity: MosPolarity::Nmos,
            vt0: 0.7,
            kp: 2e-5,
            lambda: 0.0,
            w: 10e-6,
            l: 1e-6,
            cgs: 1e-15,
            cgd: 1e-15,
            gamma: 0.0,
            phi: 0.65,
        }
    }

    /// Default PMOS model.
    pub fn pmos() -> Self {
        MosModel { polarity: MosPolarity::Pmos, vt0: -0.7, ..MosModel::nmos() }
    }

    /// Effective transconductance factor `beta = KP * W / L`.
    pub fn beta(&self) -> f64 {
        self.kp * self.w / self.l
    }
}

/// Ebers–Moll BJT model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BjtModel {
    /// `true` for NPN, `false` for PNP.
    pub npn: bool,
    /// Transport saturation current `IS` (A). Default `1e-16`.
    pub is: f64,
    /// Forward beta `BF`. Default `100.0`.
    pub bf: f64,
    /// Reverse beta `BR`. Default `1.0`.
    pub br: f64,
}

impl Default for BjtModel {
    fn default() -> Self {
        BjtModel { npn: true, is: 1e-16, bf: 100.0, br: 1.0 }
    }
}

/// A circuit element. Two-terminal conventions: current flows from `p`
/// (positive) to `n` (negative) through the element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor.
    Resistor {
        /// Instance name (e.g. `R1`).
        name: String,
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Resistance in ohms (must be > 0).
        resistance: f64,
    },
    /// Linear capacitor.
    Capacitor {
        /// Instance name.
        name: String,
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Capacitance in farads (must be > 0).
        capacitance: f64,
        /// Optional initial voltage for `UIC`-style startup.
        initial_voltage: Option<f64>,
    },
    /// Linear inductor (adds one branch-current unknown).
    Inductor {
        /// Instance name.
        name: String,
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Inductance in henries (must be > 0).
        inductance: f64,
        /// Optional initial current.
        initial_current: Option<f64>,
    },
    /// Independent voltage source (adds one branch-current unknown).
    VoltageSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Time-dependent value (V).
        waveform: Waveform,
    },
    /// Independent current source; current flows from `p` through the source
    /// to `n` (i.e. it *pulls* current out of node `p`).
    CurrentSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Time-dependent value (A).
        waveform: Waveform,
    },
    /// Semiconductor diode; anode `p`, cathode `n`.
    Diode {
        /// Instance name.
        name: String,
        /// Anode.
        p: Node,
        /// Cathode.
        n: Node,
        /// Model parameters.
        model: DiodeModel,
    },
    /// Level-1 MOSFET with explicit bulk terminal.
    Mosfet {
        /// Instance name.
        name: String,
        /// Drain.
        d: Node,
        /// Gate.
        g: Node,
        /// Source.
        s: Node,
        /// Bulk (substrate). Tie to the source for a 3-terminal device.
        b: Node,
        /// Model parameters.
        model: MosModel,
    },
    /// Ebers–Moll BJT.
    Bjt {
        /// Instance name.
        name: String,
        /// Collector.
        c: Node,
        /// Base.
        b: Node,
        /// Emitter.
        e: Node,
        /// Model parameters.
        model: BjtModel,
    },
    /// Voltage-controlled voltage source `E` (adds one branch unknown).
    Vcvs {
        /// Instance name.
        name: String,
        /// Positive output terminal.
        p: Node,
        /// Negative output terminal.
        n: Node,
        /// Positive controlling node.
        cp: Node,
        /// Negative controlling node.
        cn: Node,
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source `G`.
    Vccs {
        /// Instance name.
        name: String,
        /// Positive output terminal (current exits here).
        p: Node,
        /// Negative output terminal.
        n: Node,
        /// Positive controlling node.
        cp: Node,
        /// Negative controlling node.
        cn: Node,
        /// Transconductance (A/V).
        gm: f64,
    },
}

impl Element {
    /// Instance name of the element.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::Inductor { name, .. }
            | Element::VoltageSource { name, .. }
            | Element::CurrentSource { name, .. }
            | Element::Diode { name, .. }
            | Element::Mosfet { name, .. }
            | Element::Bjt { name, .. }
            | Element::Vcvs { name, .. }
            | Element::Vccs { name, .. } => name,
        }
    }

    /// All nodes this element touches (with repetition preserved).
    pub(crate) fn nodes(&self) -> Vec<Node> {
        match *self {
            Element::Resistor { p, n, .. }
            | Element::Capacitor { p, n, .. }
            | Element::Inductor { p, n, .. }
            | Element::VoltageSource { p, n, .. }
            | Element::CurrentSource { p, n, .. }
            | Element::Diode { p, n, .. } => vec![p, n],
            Element::Mosfet { d, g, s, b, .. } => vec![d, g, s, b],
            Element::Bjt { c, b, e, .. } => vec![c, b, e],
            Element::Vcvs { p, n, cp, cn, .. } | Element::Vccs { p, n, cp, cn, .. } => {
                vec![p, n, cp, cn]
            }
        }
    }

    /// Returns `true` if the element's current-voltage relation is nonlinear
    /// (i.e. it participates in Newton linearisation).
    pub(crate) fn is_nonlinear(&self) -> bool {
        matches!(self, Element::Diode { .. } | Element::Mosfet { .. } | Element::Bjt { .. })
    }

    /// Returns `true` if the element introduces an extra MNA branch-current
    /// unknown (group-2 element).
    pub(crate) fn has_branch_current(&self) -> bool {
        matches!(
            self,
            Element::VoltageSource { .. } | Element::Inductor { .. } | Element::Vcvs { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_properties() {
        assert!(Node::GROUND.is_ground());
        assert_eq!(Node::GROUND.index(), 0);
        assert_eq!(Node::GROUND.to_string(), "0");
    }

    #[test]
    fn element_nodes_and_names() {
        let r =
            Element::Resistor { name: "R1".into(), p: Node(1), n: Node::GROUND, resistance: 1e3 };
        assert_eq!(r.name(), "R1");
        assert_eq!(r.nodes(), vec![Node(1), Node::GROUND]);
        assert!(!r.is_nonlinear());
        assert!(!r.has_branch_current());
    }

    #[test]
    fn branch_current_elements() {
        let v = Element::VoltageSource {
            name: "V1".into(),
            p: Node(1),
            n: Node::GROUND,
            waveform: Waveform::dc(1.0),
        };
        let l = Element::Inductor {
            name: "L1".into(),
            p: Node(1),
            n: Node(2),
            inductance: 1e-9,
            initial_current: None,
        };
        assert!(v.has_branch_current());
        assert!(l.has_branch_current());
    }

    #[test]
    fn nonlinear_flags() {
        let d = Element::Diode {
            name: "D1".into(),
            p: Node(1),
            n: Node::GROUND,
            model: DiodeModel::default(),
        };
        assert!(d.is_nonlinear());
    }

    #[test]
    fn mos_model_defaults() {
        let n = MosModel::nmos();
        assert_eq!(n.polarity, MosPolarity::Nmos);
        assert!(n.vt0 > 0.0);
        let p = MosModel::pmos();
        assert_eq!(p.polarity, MosPolarity::Pmos);
        assert!(p.vt0 < 0.0);
        assert!((n.beta() - 2e-5 * 10.0).abs() < 1e-18);
    }
}
