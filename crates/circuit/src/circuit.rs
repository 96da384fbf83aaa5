//! The circuit netlist container and its builder API.

use crate::element::{BjtModel, DiodeModel, Element, MosModel, Node};
use crate::waveform::Waveform;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// Error produced while building or validating a [`Circuit`].
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// An element value (R, C, L) must be positive and finite.
    InvalidValue {
        /// Element instance name.
        element: String,
        /// The offending value.
        value: f64,
    },
    /// Two elements share the same instance name (names compare
    /// case-insensitively, as in SPICE).
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// A node has no conductive path to ground (the MNA matrix would be
    /// singular).
    FloatingNode {
        /// Name of the unreachable node.
        node: String,
    },
    /// A loop of ideal voltage sources (and/or inductors) short-circuits the
    /// MNA formulation.
    VoltageLoop {
        /// Name of one element in the loop.
        element: String,
    },
    /// The circuit has no elements.
    Empty,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidValue { element, value } => {
                write!(f, "element {element} has invalid value {value}")
            }
            CircuitError::DuplicateName { name } => {
                write!(f, "duplicate element name {name}")
            }
            CircuitError::FloatingNode { node } => {
                write!(f, "node {node} has no path to ground")
            }
            CircuitError::VoltageLoop { element } => {
                write!(f, "loop of ideal voltage sources involving {element}")
            }
            CircuitError::Empty => write!(f, "circuit has no elements"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// Index from element name to position in [`Circuit::elements`]: an
/// open-addressing table of positions, probed from the hash of the
/// ASCII-lowercased name and confirmed against the element's own name, so no
/// name is stored a second time. Nothing is ever removed, which keeps linear
/// probing trivially correct.
#[derive(Debug, Clone, Default)]
struct NameIndex {
    /// [`NameIndex::EMPTY`] or a position in `elements`; the length is zero
    /// or a power of two and at most half the slots are taken.
    slots: Vec<u32>,
    /// Per-circuit hash keys: names come from netlists, so probe sequences
    /// must not be predictable.
    keys: RandomState,
}

impl NameIndex {
    const EMPTY: u32 = u32::MAX;

    /// The slot a probe for `name` starts at (`slots` must not be empty).
    fn home(&self, name: &str) -> usize {
        let mut h = self.keys.build_hasher();
        let mut buf = [0u8; 16];
        for chunk in name.as_bytes().chunks(buf.len()) {
            let folded = &mut buf[..chunk.len()];
            folded.copy_from_slice(chunk);
            folded.make_ascii_lowercase();
            h.write(folded);
        }
        // Truncation keeps the low bits, which is all the mask uses.
        h.finish() as usize & (self.slots.len() - 1)
    }

    /// Position of the element whose name equals `name` ignoring ASCII case.
    fn find(&self, elements: &[Element], name: &str) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(name);
        while self.slots[at] != Self::EMPTY {
            let i = self.slots[at] as usize;
            if elements[i].name().eq_ignore_ascii_case(name) {
                return Some(i);
            }
            at = (at + 1) & mask;
        }
        None
    }

    /// Enters `elements[i]`, whose name must not be present yet.
    fn place(&mut self, elements: &[Element], i: usize) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(elements[i].name());
        while self.slots[at] != Self::EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = u32::try_from(i).expect("element positions fit the index's u32 slots");
    }

    /// Enters the last of `elements`, doubling the table first when it would
    /// pass half full.
    fn push_last(&mut self, elements: &[Element]) {
        if elements.len() * 2 > self.slots.len() {
            self.slots.clear();
            self.slots.resize((elements.len() * 2).next_power_of_two().max(16), Self::EMPTY);
            for i in 0..elements.len() - 1 {
                self.place(elements, i);
            }
        }
        self.place(elements, elements.len() - 1);
    }
}

/// A circuit netlist: a set of named nodes plus a list of [`Element`]s.
///
/// Build programmatically with the `add_*` methods, or parse a SPICE-style
/// deck with [`crate::parse_netlist`].
///
/// ```
/// use wavepipe_circuit::{Circuit, Waveform};
///
/// # fn main() -> Result<(), wavepipe_circuit::CircuitError> {
/// let mut ckt = Circuit::new("rc lowpass");
/// let inp = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.add_vsource("V1", inp, Circuit::GROUND, Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1e-6, 0.0))?;
/// ckt.add_resistor("R1", inp, out, 1e3)?;
/// ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-9)?;
/// ckt.validate()?;
/// assert_eq!(ckt.node_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    title: String,
    /// node name -> id (ground is implicit id 0).
    node_names: HashMap<String, Node>,
    /// id -> name, index 0 is ground.
    node_list: Vec<String>,
    elements: Vec<Element>,
    /// Where each element name sits in `elements`; every push goes through
    /// [`Circuit::push_element`] to keep the two in step.
    names: NameIndex,
}

impl Circuit {
    /// The ground node, shared by every circuit.
    pub const GROUND: Node = Node::GROUND;

    /// Creates an empty circuit with the given title.
    pub fn new(title: impl Into<String>) -> Self {
        Circuit {
            title: title.into(),
            node_names: HashMap::new(),
            node_list: vec!["0".to_string()],
            elements: Vec::new(),
            names: NameIndex::default(),
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"`, `"gnd"` and `"GND"` map to ground.
    pub fn node(&mut self, name: &str) -> Node {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Node::GROUND;
        }
        if let Some(&n) = self.node_names.get(name) {
            return n;
        }
        let id = Node(self.node_list.len());
        self.node_list.push(name.to_string());
        self.node_names.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name without creating it: the probe the
    /// unit tests read a built circuit's nodes with.
    #[cfg(test)]
    pub(crate) fn find_node(&self, name: &str) -> Option<Node> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(Node::GROUND);
        }
        self.node_names.get(name).copied()
    }

    /// Number of signal (non-ground) nodes.
    pub fn node_count(&self) -> usize {
        self.node_list.len() - 1
    }

    /// Names of the signal nodes in id order (node id 1, 2, ...), i.e. the
    /// order in which MNA assigns voltage unknowns.
    pub fn signal_node_names(&self) -> impl Iterator<Item = &str> {
        self.node_list[1..].iter().map(String::as_str)
    }

    /// The elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// The named element, if present. The lookup is case-insensitive,
    /// matching netlist conventions.
    pub fn element(&self, name: &str) -> Option<&Element> {
        self.names.find(&self.elements, name).map(|i| &self.elements[i])
    }

    /// Mutable access to the named element (case-insensitive), for patching
    /// parameter values between compiles — the per-instance edit a batched
    /// sweep applies. Structure (terminals, element kind) is fixed by the
    /// element's variant; only its value fields can change through this.
    ///
    /// Do not rename the element through the returned reference: the name
    /// index is keyed by the name an element was added under, so a renamed
    /// element would be found under neither name and its new name would not
    /// count as taken.
    pub fn element_mut(&mut self, name: &str) -> Option<&mut Element> {
        self.names.find(&self.elements, name).map(|i| &mut self.elements[i])
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Number of elements that are nonlinear devices.
    pub fn nonlinear_count(&self) -> usize {
        self.elements.iter().filter(|e| e.is_nonlinear()).count()
    }

    /// Number of MNA unknowns: signal nodes + branch currents.
    pub fn unknown_count(&self) -> usize {
        self.node_count() + self.elements.iter().filter(|e| e.has_branch_current()).count()
    }

    /// Names are taken case-insensitively, by the same comparison
    /// [`Circuit::element`] looks them up with.
    fn check_name(&self, name: &str) -> Result<(), CircuitError> {
        if self.names.find(&self.elements, name).is_some() {
            return Err(CircuitError::DuplicateName { name: name.to_string() });
        }
        Ok(())
    }

    /// Appends an element whose name passed [`Circuit::check_name`].
    fn push_element(&mut self, element: Element) {
        self.elements.push(element);
        self.names.push_last(&self.elements);
    }

    fn check_positive(name: &str, value: f64) -> Result<(), CircuitError> {
        if !(value.is_finite() && value > 0.0) {
            return Err(CircuitError::InvalidValue { element: name.to_string(), value });
        }
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidValue`] unless `0 < r < inf`;
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub fn add_resistor(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        r: f64,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        Self::check_positive(name, r)?;
        self.push_element(Element::Resistor { name: name.to_string(), p, n, resistance: r });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::add_resistor`].
    pub fn add_capacitor(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        c: f64,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        Self::check_positive(name, c)?;
        self.push_element(Element::Capacitor {
            name: name.to_string(),
            p,
            n,
            capacitance: c,
            initial_voltage: None,
        });
        Ok(())
    }

    /// Adds a capacitor with an initial-condition voltage.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::add_resistor`].
    pub fn add_capacitor_ic(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        c: f64,
        v0: f64,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        Self::check_positive(name, c)?;
        self.push_element(Element::Capacitor {
            name: name.to_string(),
            p,
            n,
            capacitance: c,
            initial_voltage: Some(v0),
        });
        Ok(())
    }

    /// Adds an inductor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::add_resistor`].
    pub fn add_inductor(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        l: f64,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        Self::check_positive(name, l)?;
        self.push_element(Element::Inductor {
            name: name.to_string(),
            p,
            n,
            inductance: l,
            initial_current: None,
        });
        Ok(())
    }

    /// Adds an independent voltage source.
    ///
    /// # Errors
    ///
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub fn add_vsource(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        waveform: Waveform,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        self.push_element(Element::VoltageSource { name: name.to_string(), p, n, waveform });
        Ok(())
    }

    /// Adds an independent current source (current pulled from `p` into `n`).
    ///
    /// # Errors
    ///
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub fn add_isource(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        waveform: Waveform,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        self.push_element(Element::CurrentSource { name: name.to_string(), p, n, waveform });
        Ok(())
    }

    /// Adds a diode (anode `p`, cathode `n`).
    ///
    /// # Errors
    ///
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub fn add_diode(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        model: DiodeModel,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        self.push_element(Element::Diode { name: name.to_string(), p, n, model });
        Ok(())
    }

    /// Adds a level-1 MOSFET (drain, gate, source) with the bulk tied to
    /// the source.
    ///
    /// # Errors
    ///
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub fn add_mosfet(
        &mut self,
        name: &str,
        d: Node,
        g: Node,
        s: Node,
        model: MosModel,
    ) -> Result<(), CircuitError> {
        self.add_mosfet4(name, d, g, s, s, model)
    }

    /// Adds a level-1 MOSFET with an explicit bulk terminal (body effect
    /// active when `model.gamma > 0` and the bulk is not at source
    /// potential).
    ///
    /// # Errors
    ///
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub fn add_mosfet4(
        &mut self,
        name: &str,
        d: Node,
        g: Node,
        s: Node,
        b: Node,
        model: MosModel,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        self.push_element(Element::Mosfet { name: name.to_string(), d, g, s, b, model });
        Ok(())
    }

    /// Adds an Ebers–Moll BJT (collector, base, emitter).
    ///
    /// # Errors
    ///
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub fn add_bjt(
        &mut self,
        name: &str,
        c: Node,
        b: Node,
        e: Node,
        model: BjtModel,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        self.push_element(Element::Bjt { name: name.to_string(), c, b, e, model });
        Ok(())
    }

    /// Adds a voltage-controlled voltage source.
    ///
    /// # Errors
    ///
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub(crate) fn add_vcvs(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        cp: Node,
        cn: Node,
        gain: f64,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        self.push_element(Element::Vcvs { name: name.to_string(), p, n, cp, cn, gain });
        Ok(())
    }

    /// Adds a voltage-controlled current source.
    ///
    /// # Errors
    ///
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub fn add_vccs(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        cp: Node,
        cn: Node,
        gm: f64,
    ) -> Result<(), CircuitError> {
        self.check_name(name)?;
        self.push_element(Element::Vccs { name: name.to_string(), p, n, cp, cn, gm });
        Ok(())
    }

    /// Validates the netlist: non-empty, every node reachable from ground
    /// through element connectivity, and no loop of voltage-defined branches.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::Empty`] for an element-free circuit.
    /// * [`CircuitError::FloatingNode`] if some node is disconnected from
    ///   ground.
    /// * [`CircuitError::VoltageLoop`] naming the first element that closes
    ///   a loop of independent voltage sources, VCVS outputs and inductors
    ///   (shorts at DC): the MNA matrix would be singular.
    pub fn validate(&self) -> Result<(), CircuitError> {
        if self.elements.is_empty() {
            return Err(CircuitError::Empty);
        }
        // Union-find over nodes through element connectivity.
        let n = self.node_list.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for e in &self.elements {
            let nodes = e.nodes();
            // Controlled sources: controlling pins sense voltage but conduct
            // no current; only output pins (first two) bond for connectivity.
            let bonded: &[Node] = match e {
                Element::Vcvs { .. } | Element::Vccs { .. } => &nodes[..2],
                _ => &nodes,
            };
            for w in bonded.windows(2) {
                let a = find(&mut parent, w[0].index());
                let b = find(&mut parent, w[1].index());
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let groot = find(&mut parent, 0);
        for id in 1..n {
            if find(&mut parent, id) != groot {
                return Err(CircuitError::FloatingNode { node: self.node_list[id].clone() });
            }
        }
        // Union-find over the voltage-defined branches alone: a branch whose
        // ends are already joined closes a loop that fixes no current.
        parent.iter_mut().enumerate().for_each(|(i, p)| *p = i);
        for e in &self.elements {
            let (p, n) = match *e {
                Element::VoltageSource { p, n, .. }
                | Element::Vcvs { p, n, .. }
                | Element::Inductor { p, n, .. } => (p, n),
                _ => continue,
            };
            let a = find(&mut parent, p.index());
            let b = find(&mut parent, n.index());
            if a == b {
                return Err(CircuitError::VoltageLoop { element: e.name().to_string() });
            }
            parent[a] = b;
        }
        Ok(())
    }

    /// A one-line summary for reports: title, node/element/nonlinear counts.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} nodes, {} unknowns, {} elements ({} nonlinear)",
            self.title,
            self.node_count(),
            self.unknown_count(),
            self.element_count(),
            self.nonlinear_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc() -> Circuit {
        let mut ckt = Circuit::new("rc");
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        let b = ckt.node("b");
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-9).unwrap();
        ckt
    }

    #[test]
    fn node_interning_is_stable() {
        let mut ckt = Circuit::new("t");
        let a1 = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a1, a2);
        assert_eq!(ckt.node("0"), Circuit::GROUND);
        assert_eq!(ckt.node("GND"), Circuit::GROUND);
        assert_eq!(ckt.node_count(), 1);
    }

    #[test]
    fn find_node_does_not_create() {
        let mut ckt = Circuit::new("t");
        assert!(ckt.find_node("x").is_none());
        let x = ckt.node("x");
        assert_eq!(ckt.find_node("x"), Some(x));
        assert_eq!(ckt.find_node("gnd"), Some(Circuit::GROUND));
    }

    #[test]
    fn unknown_count_includes_branches() {
        let ckt = rc();
        // 2 nodes + 1 vsource branch.
        assert_eq!(ckt.unknown_count(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut ckt = rc();
        let a = ckt.node("a");
        assert!(matches!(
            ckt.add_resistor("R1", a, Circuit::GROUND, 1.0),
            Err(CircuitError::DuplicateName { .. })
        ));
    }

    #[test]
    fn names_differing_only_in_case_are_duplicates() {
        // `element("r1")` finds `R1`, so accepting both would leave the
        // second unreachable by name.
        let mut ckt = rc();
        let a = ckt.node("a");
        assert_eq!(
            ckt.add_resistor("r1", a, Circuit::GROUND, 1.0),
            Err(CircuitError::DuplicateName { name: "r1".to_string() })
        );
        assert_eq!(ckt.element_count(), 3);
        assert!(
            matches!(ckt.element("r1"), Some(Element::Resistor { resistance, .. }) if *resistance == 1e3)
        );
    }

    #[test]
    fn invalid_values_rejected() {
        let mut ckt = Circuit::new("t");
        let a = ckt.node("a");
        assert!(ckt.add_resistor("R1", a, Circuit::GROUND, 0.0).is_err());
        assert!(ckt.add_resistor("R2", a, Circuit::GROUND, -5.0).is_err());
        assert!(ckt.add_capacitor("C1", a, Circuit::GROUND, f64::NAN).is_err());
        assert!(ckt.add_inductor("L1", a, Circuit::GROUND, f64::INFINITY).is_err());
    }

    #[test]
    fn validate_accepts_connected() {
        rc().validate().unwrap();
    }

    #[test]
    fn validate_rejects_floating_node() {
        let mut ckt = rc();
        let f1 = ckt.node("float1");
        let f2 = ckt.node("float2");
        ckt.add_resistor("Rf", f1, f2, 1.0).unwrap();
        assert!(matches!(ckt.validate(), Err(CircuitError::FloatingNode { .. })));
    }

    #[test]
    fn validate_rejects_empty() {
        let ckt = Circuit::new("empty");
        assert_eq!(ckt.validate(), Err(CircuitError::Empty));
    }

    #[test]
    fn validate_rejects_parallel_voltage_sources() {
        // V1 a 0 DC 1 / V2 a 0 DC 2 / R1 a 0 1k
        let mut ckt = Circuit::new("t");
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        ckt.add_vsource("V2", a, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        assert_eq!(ckt.validate(), Err(CircuitError::VoltageLoop { element: "V2".to_string() }));
    }

    #[test]
    fn validate_rejects_an_inductor_across_a_voltage_source() {
        // V1 a 0 DC 1 / L1 a 0 1u / R1 a 0 1k: the inductor is a short at DC.
        let mut ckt = Circuit::new("t");
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        ckt.add_inductor("L1", a, Circuit::GROUND, 1e-6).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        assert_eq!(ckt.validate(), Err(CircuitError::VoltageLoop { element: "L1".to_string() }));
    }

    #[test]
    fn validate_accepts_voltage_sources_in_series() {
        // A chain of sources and an inductor to ground closes no loop.
        let mut ckt = Circuit::new("t");
        let (a, b, c) = (ckt.node("a"), ckt.node("b"), ckt.node("c"));
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        ckt.add_vsource("V2", b, a, Waveform::dc(1.0)).unwrap();
        ckt.add_inductor("L1", c, b, 1e-6).unwrap();
        ckt.add_resistor("R1", c, Circuit::GROUND, 1e3).unwrap();
        ckt.validate().unwrap();
    }

    #[test]
    fn vccs_control_pins_do_not_bond() {
        let mut ckt = Circuit::new("t");
        let a = ckt.node("a");
        let c = ckt.node("ctl");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        ckt.add_vccs("G1", a, Circuit::GROUND, c, Circuit::GROUND, 1e-3).unwrap();
        // `ctl` is floating: sensing alone does not connect it.
        assert!(matches!(ckt.validate(), Err(CircuitError::FloatingNode { .. })));
    }

    #[test]
    fn summary_mentions_counts() {
        let s = rc().summary();
        assert!(s.contains("2 nodes"));
        assert!(s.contains("3 elements"));
    }

    #[test]
    fn nonlinear_count_counts_devices() {
        let mut ckt = rc();
        let b = ckt.find_node("b").unwrap();
        ckt.add_diode("D1", b, Circuit::GROUND, DiodeModel::default()).unwrap();
        assert_eq!(ckt.nonlinear_count(), 1);
    }
}
