//! SPICE-style netlist parser.
//!
//! Supports the classic deck subset the benchmark circuits need:
//!
//! ```text
//! demo circuit          <- first line is the title
//! V1 in 0 PULSE(0 5 0 1n 1n 10n 20n)
//! R1 in out 1k
//! C1 out 0 10p
//! D1 out 0 DFAST
//! M1 vdd a out NTYPE
//! .model DFAST D (IS=1e-14 N=1.05 CJ0=1p)
//! .model NTYPE NMOS (VTO=0.7 KP=100u W=10u L=1u)
//! .tran 1n 100n
//! .end
//! ```
//!
//! Comment lines start with `*`; `;` begins a trailing comment; a leading
//! `+` continues the previous line. Everything is case-insensitive.
//!
//! `.tran` is the one analysis: `.ac` and `.dc` are unknown directives. A
//! source value beyond its form's parameter list is an error, not dropped.

use crate::circuit::{Circuit, CircuitError};
use crate::element::{BjtModel, DiodeModel, MosModel, MosPolarity, Node};
use crate::units::parse_value;
use crate::waveform::Waveform;
use std::collections::HashMap;
use std::fmt;

/// `.tran tstep tstop [tstart]` analysis request found in a deck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranSpec {
    /// Suggested output/reporting step (also the initial step hint).
    pub tstep: f64,
    /// Stop time.
    pub tstop: f64,
    /// Start of output recording (simulation always starts at 0), in
    /// `[0, tstop)`.
    pub tstart: f64,
}

/// Result of parsing a deck: the circuit plus its `.tran` directive.
#[derive(Debug, Clone)]
pub struct ParsedDeck {
    /// The parsed circuit.
    pub circuit: Circuit,
    /// The `.tran` directive, if present.
    pub tran: Option<TranSpec>,
}

/// Error raised while parsing a netlist, with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseNetlistError {
    line: usize,
    message: String,
}

impl ParseNetlistError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseNetlistError { line, message: message.into() }
    }

    /// 1-based line number of the error.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseNetlistError {}

impl From<CircuitError> for ParseNetlistError {
    fn from(e: CircuitError) -> Self {
        ParseNetlistError { line: 0, message: e.to_string() }
    }
}

#[derive(Debug, Clone)]
enum ModelCard {
    Diode(DiodeModel),
    Mos(MosModel),
    Bjt(BjtModel),
}

/// Parses a SPICE-style netlist into a circuit and its `.tran` directive.
///
/// ```
/// # fn main() -> Result<(), wavepipe_circuit::ParseNetlistError> {
/// let deck = "\
/// rc divider
/// V1 in 0 5
/// R1 in out 1k
/// R2 out 0 1k
/// .tran 1n 10n
/// .end";
/// let parsed = wavepipe_circuit::parse_netlist(deck)?;
/// assert_eq!(parsed.circuit.element_count(), 3);
/// assert!(parsed.tran.is_some());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`ParseNetlistError`] with the offending line on any syntax or
/// semantic problem (unknown element letter, missing nodes, bad value,
/// undefined model, duplicate names).
pub fn parse_netlist(text: &str) -> Result<ParsedDeck, ParseNetlistError> {
    // --- Physical-line preprocessing: comments and continuations. ---
    let mut logical: Vec<(usize, String)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = match raw.find(';') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let trimmed = line.trim();
        if lineno == 1 {
            // Title line (ignored content-wise).
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('+') {
            match logical.last_mut() {
                Some((_, prev)) => {
                    prev.push(' ');
                    prev.push_str(rest);
                }
                None => {
                    return Err(ParseNetlistError::new(
                        lineno,
                        "continuation with no previous line",
                    ))
                }
            }
        } else {
            logical.push((lineno, trimmed.to_string()));
        }
    }

    // --- Partition `.subckt` ... `.ends` definitions from top-level lines.
    let mut subckts: HashMap<String, SubcktDef> = HashMap::new();
    let mut top: Vec<(usize, String)> = Vec::new();
    // The definition being collected, with the line of its `.subckt`.
    let mut current: Option<(usize, SubcktDef)> = None;
    for (lineno, line) in &logical {
        let toks = tokenize(line);
        match toks.first().map(String::as_str) {
            Some(".subckt") => {
                if current.is_some() {
                    return Err(ParseNetlistError::new(
                        *lineno,
                        "nested .subckt definitions are not supported (nested X instances are)",
                    ));
                }
                if toks.len() < 3 {
                    return Err(ParseNetlistError::new(*lineno, ".subckt needs a name and ports"));
                }
                current = Some((
                    *lineno,
                    SubcktDef {
                        name: toks[1].clone(),
                        ports: toks[2..].to_vec(),
                        body: Vec::new(),
                    },
                ));
            }
            Some(".ends") => match current.take() {
                Some((_, def)) => {
                    subckts.insert(def.name.clone(), def);
                }
                None => return Err(ParseNetlistError::new(*lineno, ".ends without .subckt")),
            },
            _ => match &mut current {
                Some((_, def)) => def.body.push((*lineno, line.clone())),
                None => top.push((*lineno, line.clone())),
            },
        }
    }
    if let Some((line, def)) = current {
        return Err(ParseNetlistError::new(line, format!("unterminated .subckt {}", def.name)));
    }

    // --- Pass 1: model cards (global, including inside subcircuits). ---
    let mut models: HashMap<String, ModelCard> = HashMap::new();
    for (lineno, line) in logical.iter() {
        let toks = tokenize(line);
        if toks.first().map(String::as_str) == Some(".model") {
            let (name, card) = parse_model(*lineno, &toks)?;
            models.insert(name, card);
        }
    }

    // --- Pass 2: elements and directives. ---
    let title = text.lines().next().unwrap_or("untitled").trim().to_string();
    let mut circuit = Circuit::new(if title.is_empty() { "untitled".to_string() } else { title });
    let mut tran = None;

    let root_scope = Scope::root();
    for (lineno, line) in &top {
        let lineno = *lineno;
        let toks = tokenize(line);
        let Some(head) = toks.first() else { continue };
        if head.starts_with('.') {
            match head.as_str() {
                ".model" => {} // handled in pass 1
                ".end" => break,
                ".tran" => {
                    if toks.len() < 3 {
                        return Err(ParseNetlistError::new(lineno, ".tran needs tstep and tstop"));
                    }
                    let tstep = num(lineno, &toks[1])?;
                    let tstop = num(lineno, &toks[2])?;
                    for (name, v) in [("tstep", tstep), ("tstop", tstop)] {
                        if v <= 0.0 {
                            return Err(ParseNetlistError::new(
                                lineno,
                                format!(".tran {name} {v:e} is not positive"),
                            ));
                        }
                    }
                    let tstart = if toks.len() > 3 { num(lineno, &toks[3])? } else { 0.0 };
                    if !(0.0..tstop).contains(&tstart) {
                        return Err(ParseNetlistError::new(
                            lineno,
                            format!(".tran tstart {tstart:e} is outside [0, tstop = {tstop:e})"),
                        ));
                    }
                    tran = Some(TranSpec { tstep, tstop, tstart });
                }
                ".ic" | ".options" | ".op" | ".print" | ".plot" | ".probe" => {
                    // Recognised but intentionally ignored directives.
                }
                other => {
                    return Err(ParseNetlistError::new(
                        lineno,
                        format!("unknown directive {other}"),
                    ));
                }
            }
            continue;
        }
        parse_element(lineno, &toks, &mut circuit, &models, &subckts, &root_scope, 0)
            .map_err(|e| if e.line == 0 { ParseNetlistError::new(lineno, e.message) } else { e })?;
    }

    Ok(ParsedDeck { circuit, tran })
}

/// Lowercases and splits a line on whitespace, commas, and parentheses.
fn tokenize(line: &str) -> Vec<String> {
    line.to_ascii_lowercase()
        .replace(['(', ')', ','], " ")
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

fn num(line: usize, tok: &str) -> Result<f64, ParseNetlistError> {
    parse_value(tok).map_err(|e| ParseNetlistError::new(line, e.to_string()))
}

/// Parses `key=value` pairs from tokens (already split so `key=val` is one token).
fn params(line: usize, toks: &[String]) -> Result<HashMap<String, f64>, ParseNetlistError> {
    let mut out = HashMap::new();
    for t in toks {
        let Some((k, v)) = t.split_once('=') else {
            return Err(ParseNetlistError::new(line, format!("expected key=value, got `{t}`")));
        };
        out.insert(k.to_string(), num(line, v)?);
    }
    Ok(out)
}

fn parse_model(line: usize, toks: &[String]) -> Result<(String, ModelCard), ParseNetlistError> {
    if toks.len() < 3 {
        return Err(ParseNetlistError::new(line, ".model needs a name and a type"));
    }
    let name = toks[1].clone();
    let kind = toks[2].as_str();
    let p = params(line, &toks[3..])?;
    let get = |key: &str, default: f64| p.get(key).copied().unwrap_or(default);
    let card = match kind {
        "d" => ModelCard::Diode(DiodeModel {
            is: get("is", 1e-14),
            n: get("n", 1.0),
            cj0: get("cj0", 0.0),
            vj: get("vj", 1.0),
            m: get("m", 0.5),
            fc: get("fc", 0.5),
            temp_c: get("temp", 27.0),
        }),
        "nmos" | "pmos" => {
            let polarity = if kind == "nmos" { MosPolarity::Nmos } else { MosPolarity::Pmos };
            let default_vt0 = if kind == "nmos" { 0.7 } else { -0.7 };
            ModelCard::Mos(MosModel {
                polarity,
                vt0: get("vto", default_vt0),
                kp: get("kp", 2e-5),
                lambda: get("lambda", 0.0),
                w: get("w", 10e-6),
                l: get("l", 1e-6),
                cgs: get("cgs", 1e-15),
                cgd: get("cgd", 1e-15),
                gamma: get("gamma", 0.0),
                phi: get("phi", 0.65),
            })
        }
        "npn" | "pnp" => ModelCard::Bjt(BjtModel {
            npn: kind == "npn",
            is: get("is", 1e-16),
            bf: get("bf", 100.0),
            br: get("br", 1.0),
        }),
        other => {
            return Err(ParseNetlistError::new(line, format!("unknown model type {other}")));
        }
    };
    Ok((name, card))
}

/// Parses the waveform tokens after the node list of a V/I source (at
/// least one). Each form takes at most its own parameter list: a surplus
/// value is an error naming it, so a deck never simulates a waveform other
/// than the one it wrote.
fn parse_waveform(line: usize, toks: &[String]) -> Result<Waveform, ParseNetlistError> {
    let (form, args) = match toks[0].as_str() {
        form @ ("dc" | "pulse" | "sin" | "exp" | "sffm" | "pwl") => (form, &toks[1..]),
        _ => ("dc", toks),
    };
    let (least, most, takes) = match form {
        "dc" => (1, 1, "one value"),
        "pulse" => (2, 7, "v1 v2 [td tr tf pw per]"),
        "sin" => (3, 5, "vo va freq [td theta]"),
        "exp" => (6, 6, "v1 v2 td1 tau1 td2 tau2"),
        "sffm" => (5, 5, "vo va fc mdi fs"),
        _ => (2, usize::MAX, "t,v pairs"),
    };
    if let Some(surplus) = args.get(most) {
        return Err(ParseNetlistError::new(
            line,
            format!("{form} takes {takes}; surplus value `{surplus}`"),
        ));
    }
    let v: Vec<f64> = args.iter().map(|t| num(line, t)).collect::<Result<_, _>>()?;
    if v.len() < least {
        return Err(ParseNetlistError::new(line, format!("{form} needs {takes}")));
    }
    let g = |i: usize| v.get(i).copied().unwrap_or(0.0);
    match form {
        "dc" => Ok(Waveform::Dc(v[0])),
        "pulse" => Ok(Waveform::Pulse {
            v1: v[0],
            v2: v[1],
            td: g(2),
            tr: g(3),
            tf: g(4),
            pw: g(5),
            per: g(6),
        }),
        "sin" => Ok(Waveform::Sin { vo: v[0], va: v[1], freq: v[2], td: g(3), theta: g(4) }),
        "exp" => {
            Ok(Waveform::Exp { v1: v[0], v2: v[1], td1: v[2], tau1: v[3], td2: v[4], tau2: v[5] })
        }
        "sffm" => Ok(Waveform::Sffm { vo: v[0], va: v[1], fc: v[2], mdi: v[3], fs: v[4] }),
        _ => {
            if !v.len().is_multiple_of(2) {
                return Err(ParseNetlistError::new(line, format!("{form} needs {takes}")));
            }
            let pts: Vec<(f64, f64)> = v.chunks(2).map(|c| (c[0], c[1])).collect();
            for w in pts.windows(2) {
                if w[0].0 >= w[1].0 {
                    return Err(ParseNetlistError::new(line, "pwl times must increase"));
                }
            }
            Ok(Waveform::Pwl(pts))
        }
    }
}

/// A `.subckt` definition: interface ports and raw body lines.
#[derive(Debug, Clone)]
struct SubcktDef {
    name: String,
    ports: Vec<String>,
    body: Vec<(usize, String)>,
}

/// Name-resolution scope for hierarchical flattening: instance prefix plus
/// the port-name -> parent-node bindings.
#[derive(Debug, Clone)]
struct Scope {
    prefix: String,
    ports: HashMap<String, Node>,
}

impl Scope {
    fn root() -> Self {
        Scope { prefix: String::new(), ports: HashMap::new() }
    }

    /// Resolves a node token within this scope: ground stays ground, ports
    /// map to the parent's nodes, everything else becomes an instance-local
    /// node (`x1.node`).
    fn node(&self, ckt: &mut Circuit, tok: &str) -> Node {
        if tok == "0" || tok.eq_ignore_ascii_case("gnd") {
            return Circuit::GROUND;
        }
        if let Some(&n) = self.ports.get(tok) {
            return n;
        }
        if self.prefix.is_empty() {
            ckt.node(tok)
        } else {
            ckt.node(&format!("{}{}", self.prefix, tok))
        }
    }

    /// Instance-qualifies an element name (`x1.r3`).
    fn elem(&self, raw: &str) -> String {
        format!("{}{}", self.prefix, raw)
    }
}

/// Hard limit on instantiation depth (catches recursive subcircuits).
const MAX_SUBCKT_DEPTH: usize = 32;

/// Flattens one `X` instance: binds its ports and parses the definition
/// body into the parent circuit under an instance-qualified scope.
#[allow(clippy::too_many_arguments)] // flattening context is deliberately explicit
fn expand_subckt(
    line: usize,
    inst_name: &str,
    node_toks: &[String],
    def: &SubcktDef,
    ckt: &mut Circuit,
    models: &HashMap<String, ModelCard>,
    subckts: &HashMap<String, SubcktDef>,
    parent: &Scope,
    depth: usize,
) -> Result<(), ParseNetlistError> {
    if depth >= MAX_SUBCKT_DEPTH {
        return Err(ParseNetlistError::new(
            line,
            format!("subcircuit nesting deeper than {MAX_SUBCKT_DEPTH} (recursive definition?)"),
        ));
    }
    if node_toks.len() != def.ports.len() {
        return Err(ParseNetlistError::new(
            line,
            format!(
                "{inst_name}: subckt {} has {} ports, {} nodes given",
                def.name,
                def.ports.len(),
                node_toks.len()
            ),
        ));
    }
    let mut ports = HashMap::new();
    for (port, tok) in def.ports.iter().zip(node_toks) {
        ports.insert(port.clone(), parent.node(ckt, tok));
    }
    let scope = Scope { prefix: format!("{}{}.", parent.prefix, inst_name), ports };
    for (body_line, text) in &def.body {
        let toks = tokenize(text);
        if toks.is_empty() || toks[0].starts_with('.') {
            // Directives inside subcircuits (other than models, which were
            // collected globally) are ignored.
            continue;
        }
        parse_element(*body_line, &toks, ckt, models, subckts, &scope, depth + 1)?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)] // flattening context is deliberately explicit
fn parse_element(
    line: usize,
    toks: &[String],
    ckt: &mut Circuit,
    models: &HashMap<String, ModelCard>,
    subckts: &HashMap<String, SubcktDef>,
    scope: &Scope,
    depth: usize,
) -> Result<(), ParseNetlistError> {
    let name = scope.elem(&toks[0]);
    // Dispatch on the RAW instance letter — the scope prefix (`x1.`) must
    // not influence the element kind.
    let letter = toks[0].chars().next().expect("non-empty token");
    let need = |count: usize| -> Result<(), ParseNetlistError> {
        if toks.len() < count {
            Err(ParseNetlistError::new(line, format!("{name}: expected at least {} fields", count)))
        } else {
            Ok(())
        }
    };
    let node = |ckt: &mut Circuit, tok: &String| -> Node { scope.node(ckt, tok) };
    match letter {
        'r' => {
            need(4)?;
            let (p, n) = (node(ckt, &toks[1]), node(ckt, &toks[2]));
            ckt.add_resistor(&name, p, n, num(line, &toks[3])?)?;
        }
        'c' => {
            need(4)?;
            let (p, n) = (node(ckt, &toks[1]), node(ckt, &toks[2]));
            let c = num(line, &toks[3])?;
            // Optional IC=v0.
            let ic = toks[4..]
                .iter()
                .find_map(|t| t.strip_prefix("ic=").map(|v| num(line, v)))
                .transpose()?;
            match ic {
                Some(v0) => ckt.add_capacitor_ic(&name, p, n, c, v0)?,
                None => ckt.add_capacitor(&name, p, n, c)?,
            }
        }
        'l' => {
            need(4)?;
            let (p, n) = (node(ckt, &toks[1]), node(ckt, &toks[2]));
            ckt.add_inductor(&name, p, n, num(line, &toks[3])?)?;
        }
        'v' => {
            need(4)?;
            let (p, n) = (node(ckt, &toks[1]), node(ckt, &toks[2]));
            ckt.add_vsource(&name, p, n, parse_waveform(line, &toks[3..])?)?;
        }
        'i' => {
            need(4)?;
            let (p, n) = (node(ckt, &toks[1]), node(ckt, &toks[2]));
            ckt.add_isource(&name, p, n, parse_waveform(line, &toks[3..])?)?;
        }
        'd' => {
            need(4)?;
            let (p, n) = (node(ckt, &toks[1]), node(ckt, &toks[2]));
            let model = match models.get(&toks[3]) {
                Some(ModelCard::Diode(m)) => m.clone(),
                Some(_) => {
                    return Err(ParseNetlistError::new(
                        line,
                        format!("{}: model is not a diode", toks[3]),
                    ))
                }
                None => {
                    return Err(ParseNetlistError::new(
                        line,
                        format!("undefined model {}", toks[3]),
                    ))
                }
            };
            ckt.add_diode(&name, p, n, model)?;
        }
        'm' => {
            need(5)?;
            // `M d g s model` (3-terminal, bulk tied to source) or
            // `M d g s b model` (explicit bulk).
            let four_terminal = toks.len() >= 6;
            let model_tok = if four_terminal { &toks[5] } else { &toks[4] };
            let model = match models.get(model_tok) {
                Some(ModelCard::Mos(m)) => m.clone(),
                Some(_) => {
                    return Err(ParseNetlistError::new(
                        line,
                        format!("{model_tok}: model is not a mosfet"),
                    ))
                }
                None => {
                    return Err(ParseNetlistError::new(
                        line,
                        format!("undefined model {model_tok}"),
                    ))
                }
            };
            let (d, g, s) = (node(ckt, &toks[1]), node(ckt, &toks[2]), node(ckt, &toks[3]));
            if four_terminal {
                let b = node(ckt, &toks[4]);
                ckt.add_mosfet4(&name, d, g, s, b, model)?;
            } else {
                ckt.add_mosfet(&name, d, g, s, model)?;
            }
        }
        'q' => {
            need(5)?;
            let (c, b, e) = (node(ckt, &toks[1]), node(ckt, &toks[2]), node(ckt, &toks[3]));
            let model = match models.get(&toks[4]) {
                Some(ModelCard::Bjt(m)) => m.clone(),
                Some(_) => {
                    return Err(ParseNetlistError::new(
                        line,
                        format!("{}: model is not a bjt", toks[4]),
                    ))
                }
                None => {
                    return Err(ParseNetlistError::new(
                        line,
                        format!("undefined model {}", toks[4]),
                    ))
                }
            };
            ckt.add_bjt(&name, c, b, e, model)?;
        }
        'e' => {
            need(6)?;
            let (p, n, cp, cn) = (
                node(ckt, &toks[1]),
                node(ckt, &toks[2]),
                node(ckt, &toks[3]),
                node(ckt, &toks[4]),
            );
            ckt.add_vcvs(&name, p, n, cp, cn, num(line, &toks[5])?)?;
        }
        'g' => {
            need(6)?;
            let (p, n, cp, cn) = (
                node(ckt, &toks[1]),
                node(ckt, &toks[2]),
                node(ckt, &toks[3]),
                node(ckt, &toks[4]),
            );
            ckt.add_vccs(&name, p, n, cp, cn, num(line, &toks[5])?)?;
        }
        'x' => {
            need(3)?;
            // `X<name> node1 ... nodeN subcktname` — the last token names
            // the definition.
            let subckt_name = toks.last().expect("need(3) checked");
            let Some(def) = subckts.get(subckt_name) else {
                return Err(ParseNetlistError::new(
                    line,
                    format!("undefined subcircuit {subckt_name}"),
                ));
            };
            let node_toks = &toks[1..toks.len() - 1];
            expand_subckt(line, &toks[0], node_toks, def, ckt, models, subckts, scope, depth)?;
        }
        other => {
            return Err(ParseNetlistError::new(line, format!("unknown element letter `{other}`")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;

    #[test]
    fn parses_rc_divider() {
        let deck = "divider\nV1 in 0 5\nR1 in out 1k\nR2 out 0 2k\n.tran 1n 10n\n.end";
        let d = parse_netlist(deck).unwrap();
        assert_eq!(d.circuit.element_count(), 3);
        assert_eq!(d.circuit.node_count(), 2);
        let t = d.tran.unwrap();
        assert_eq!(t.tstep, 1e-9);
        assert_eq!(t.tstop, 10e-9);
    }

    #[test]
    fn parses_pulse_source() {
        let deck = "t\nV1 a 0 PULSE(0 5 1n 2n 2n 10n 30n)\nR1 a 0 1k\n.end";
        let d = parse_netlist(deck).unwrap();
        match &d.circuit.elements()[0] {
            Element::VoltageSource { waveform: Waveform::Pulse { v2, td, per, .. }, .. } => {
                assert_eq!(*v2, 5.0);
                assert!((*td - 1e-9).abs() < 1e-18);
                assert!((*per - 30e-9).abs() < 1e-18);
            }
            other => panic!("expected pulse source, got {other:?}"),
        }
    }

    #[test]
    fn parses_models_and_devices() {
        let deck = "\
mixed
V1 vdd 0 3.3
D1 vdd mid DX
M1 mid g 0 NX
Q1 vdd g mid QX
R1 g 0 1k
.model DX D (IS=2e-14 N=1.1 CJ0=1p)
.model NX NMOS (VTO=0.6 KP=50u W=20u L=2u)
.model QX NPN (IS=1e-15 BF=80)
.end";
        let d = parse_netlist(deck).unwrap();
        assert_eq!(d.circuit.nonlinear_count(), 3);
        match &d.circuit.elements()[1] {
            Element::Diode { model, .. } => {
                assert_eq!(model.is, 2e-14);
                assert!((model.cj0 - 1e-12).abs() < 1e-21);
            }
            other => panic!("expected diode, got {other:?}"),
        }
        match &d.circuit.elements()[2] {
            Element::Mosfet { model, .. } => {
                assert_eq!(model.vt0, 0.6);
                assert!((model.w - 20e-6).abs() < 1e-15);
            }
            other => panic!("expected mosfet, got {other:?}"),
        }
    }

    #[test]
    fn continuation_lines_join() {
        let deck = "t\nV1 a 0 PULSE(0 5\n+ 1n 2n 2n 10n 30n)\nR1 a 0 1k\n.end";
        let d = parse_netlist(deck).unwrap();
        assert_eq!(d.circuit.element_count(), 2);
    }

    #[test]
    fn comments_are_skipped() {
        let deck = "t\n* a comment\nR1 a 0 1k ; trailing\nV1 a 0 1\n.end";
        let d = parse_netlist(deck).unwrap();
        assert_eq!(d.circuit.element_count(), 2);
    }

    #[test]
    fn undefined_model_is_an_error() {
        let deck = "t\nD1 a 0 NOPE\n.end";
        let e = parse_netlist(deck).unwrap_err();
        assert!(e.message().contains("undefined model"));
        assert_eq!(e.line(), 2);
    }

    #[test]
    fn unknown_element_letter_rejected() {
        let deck = "t\nX1 a 0 thing\n.end";
        assert!(parse_netlist(deck).is_err());
    }

    #[test]
    fn pwl_source_parses() {
        let deck = "t\nI1 0 a PWL(0 0 1n 1m 2n 0)\nR1 a 0 1k\n.end";
        let d = parse_netlist(deck).unwrap();
        match &d.circuit.elements()[0] {
            Element::CurrentSource { waveform: Waveform::Pwl(pts), .. } => {
                assert_eq!(pts.len(), 3);
                assert_eq!(pts[1], (1e-9, 1e-3));
            }
            other => panic!("expected pwl isource, got {other:?}"),
        }
    }

    #[test]
    fn sffm_source_parses() {
        let deck = "t\nV1 a 0 SFFM(0 1 1meg 2 100k)\nR1 a 0 50\n.end";
        let d = parse_netlist(deck).unwrap();
        match &d.circuit.elements()[0] {
            Element::VoltageSource { waveform: Waveform::Sffm { fc, mdi, .. }, .. } => {
                assert_eq!(*fc, 1e6);
                assert_eq!(*mdi, 2.0);
            }
            other => panic!("expected sffm source, got {other:?}"),
        }
    }

    #[test]
    fn capacitor_ic_parses() {
        let deck = "t\nC1 a 0 1n IC=2.5\nR1 a 0 1k\n.end";
        let d = parse_netlist(deck).unwrap();
        match &d.circuit.elements()[0] {
            Element::Capacitor { initial_voltage, .. } => {
                assert_eq!(*initial_voltage, Some(2.5));
            }
            other => panic!("expected capacitor, got {other:?}"),
        }
    }

    #[test]
    fn bad_value_reports_line() {
        let deck = "t\nR1 a 0 1k\nR2 a 0 zzz\n.end";
        let e = parse_netlist(deck).unwrap_err();
        assert_eq!(e.line(), 3);
    }

    #[test]
    fn stops_at_end_directive() {
        let deck = "t\nR1 a 0 1k\nV1 a 0 1\n.end\ngarbage that would fail";
        assert!(parse_netlist(deck).is_ok());
    }

    #[test]
    fn ac_and_dc_directives_are_rejected_at_their_line() {
        for directive in [".ac dec 10 1k 1meg", ".dc V1 0 1 0.1"] {
            let deck = format!("t\nV1 in 0 1\nR1 in 0 1k\n{directive}\n.end");
            let e = parse_netlist(&deck).unwrap_err();
            assert_eq!(e.line(), 4, "{directive}: {e}");
            assert!(e.message().contains("unknown directive"), "{directive}: {e}");
        }
    }

    #[test]
    fn four_terminal_mosfet_parses() {
        let deck = "t\nV1 d 0 1\nM1 d g s b NX\nR1 g 0 1k\nR2 s 0 1k\nR3 b 0 1k\nR4 d g 1k\n.model NX NMOS (GAMMA=0.4 PHI=0.7)\n.end";
        let d = parse_netlist(deck).unwrap();
        match &d.circuit.elements()[1] {
            Element::Mosfet { b, s, model, .. } => {
                assert_ne!(b, s, "bulk is its own node");
                assert_eq!(model.gamma, 0.4);
                assert_eq!(model.phi, 0.7);
            }
            other => panic!("expected mosfet, got {other:?}"),
        }
    }

    #[test]
    fn diode_depletion_parameters_parse() {
        let deck =
            "t\nD1 a 0 DX\nR1 a 0 1k\nV1 a 0 1\n.model DX D (CJ0=2p VJ=0.8 M=0.33 FC=0.4)\n.end";
        let d = parse_netlist(deck).unwrap();
        match &d.circuit.elements()[0] {
            Element::Diode { model, .. } => {
                assert!((model.cj0 - 2e-12).abs() < 1e-21);
                assert_eq!(model.vj, 0.8);
                assert_eq!(model.m, 0.33);
                assert_eq!(model.fc, 0.4);
            }
            other => panic!("expected diode, got {other:?}"),
        }
    }

    #[test]
    fn controlled_sources_parse() {
        let deck = "t\nV1 in 0 1\nE1 o 0 in 0 2.5\nG1 o2 0 in 0 1m\nR1 o 0 1k\nR2 o2 0 1k\nR3 in o 1k\n.end";
        let d = parse_netlist(deck).unwrap();
        assert_eq!(d.circuit.element_count(), 6);
        d.circuit.validate().unwrap();
    }
}

#[cfg(test)]
mod subckt_tests {
    use super::*;

    #[test]
    fn flat_subcircuit_instantiates() {
        let deck = "\
divider as subckt
.subckt DIV top out bot
R1 top out 1k
R2 out bot 1k
.ends
V1 in 0 10
X1 in mid 0 DIV
R3 mid 0 1meg
.end";
        let d = parse_netlist(deck).unwrap();
        d.circuit.validate().unwrap();
        // V1, x1.r1, x1.r2, R3.
        assert_eq!(d.circuit.element_count(), 4);
        assert!(d.circuit.find_node("mid").is_some());
        assert!(d.circuit.find_node("x1.out").is_none(), "port mapped, not local");
        assert!(d.circuit.elements().iter().any(|e| e.name() == "x1.r1"));
    }

    #[test]
    fn internal_nodes_are_instance_scoped() {
        let deck = "\
two instances with internal nodes
.subckt RCSTAGE a b
R1 a m 1k
C1 m 0 1p
R2 m b 1k
.ends
V1 in 0 1
X1 in n1 RCSTAGE
X2 n1 out RCSTAGE
R9 out 0 1k
.end";
        let d = parse_netlist(deck).unwrap();
        d.circuit.validate().unwrap();
        assert!(d.circuit.find_node("x1.m").is_some());
        assert!(d.circuit.find_node("x2.m").is_some());
        assert_ne!(d.circuit.find_node("x1.m"), d.circuit.find_node("x2.m"));
    }

    #[test]
    fn nested_instantiation_flattens() {
        let deck = "\
nested
.subckt INNER p q
R1 p q 100
.ends
.subckt OUTER a b
X1 a m INNER
X2 m b INNER
.ends
V1 top 0 1
X9 top 0 OUTER
.end";
        let d = parse_netlist(deck).unwrap();
        d.circuit.validate().unwrap();
        assert!(d.circuit.elements().iter().any(|e| e.name() == "x9.x1.r1"));
        assert!(d.circuit.elements().iter().any(|e| e.name() == "x9.x2.r1"));
        assert!(d.circuit.find_node("x9.m").is_some());
    }

    #[test]
    fn models_inside_subckts_are_global() {
        let deck = "\
model in subckt
.subckt CLAMP a
D1 a 0 DX
.model DX D (IS=3e-14)
.ends
V1 n 0 1
R1 n 0 1k
X1 n CLAMP
D9 n 0 DX
.end";
        let d = parse_netlist(deck).unwrap();
        assert_eq!(d.circuit.nonlinear_count(), 2);
    }

    #[test]
    fn port_count_mismatch_reports() {
        let deck = "t\n.subckt S a b\nR1 a b 1\n.ends\nV1 x 0 1\nX1 x S\n.end";
        let e = parse_netlist(deck).unwrap_err();
        assert!(e.message().contains("ports"), "{e}");
    }

    #[test]
    fn undefined_subckt_reports() {
        let deck = "t\nV1 a 0 1\nX1 a NOPE\n.end";
        let e = parse_netlist(deck).unwrap_err();
        assert!(e.message().contains("undefined subcircuit"));
    }

    #[test]
    fn unterminated_subckt_reports() {
        let deck = "t\n.subckt S a\nR1 a 0 1\nV1 a 0 1\n.end";
        let e = parse_netlist(deck).unwrap_err();
        assert_eq!(e.line(), 2, "reported at the .subckt it leaves open: {e}");
    }

    #[test]
    fn ground_inside_subckt_stays_global() {
        let deck = "\
gnd passthrough
.subckt G a
R1 a 0 1k
.ends
V1 n 0 1
X1 n G
.end";
        let d = parse_netlist(deck).unwrap();
        d.circuit.validate().unwrap();
        // Only node `n` exists besides ground.
        assert_eq!(d.circuit.node_count(), 1);
    }

    #[test]
    fn duplicate_instance_names_rejected() {
        let deck = "t\n.subckt S a\nR1 a 0 1\n.ends\nV1 n 0 1\nX1 n S\nX1 n S\n.end";
        let e = parse_netlist(deck).unwrap_err();
        assert!(e.message().contains("duplicate"), "{e}");
    }

    #[test]
    fn subckt_with_sources_and_fets() {
        // A full inverter cell instantiated twice.
        let deck = "\
inverter cell library
.subckt INV in out vdd
Mp out in vdd P1
Mn out in 0 N1
CL out 0 10f
.ends
.model P1 PMOS (VTO=-0.7 KP=50u W=20u)
.model N1 NMOS (VTO=0.7 KP=100u W=10u)
Vdd vdd 0 3.3
Vin a 0 PULSE(0 3.3 1n 0.1n 0.1n 5n 12n)
X1 a b vdd INV
X2 b c vdd INV
.tran 0.05n 25n
.end";
        let d = parse_netlist(deck).unwrap();
        d.circuit.validate().unwrap();
        assert_eq!(d.circuit.nonlinear_count(), 4);
        assert!(d.tran.is_some());
    }
}
