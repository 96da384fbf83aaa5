//! Circuit substrate for the WavePipe simulator.
//!
//! This crate is the pure *description* layer: netlists, device elements and
//! their model parameters, independent-source waveforms, a SPICE-style
//! netlist parser, and parameterised benchmark-circuit generators. The
//! numerical semantics (MNA stamps, companion models, Newton linearisation)
//! live in `wavepipe-engine`.
//!
//! # Example
//!
//! Build an RC low-pass filter programmatically:
//!
//! ```
//! use wavepipe_circuit::{Circuit, Waveform};
//!
//! # fn main() -> Result<(), wavepipe_circuit::CircuitError> {
//! let mut ckt = Circuit::new("rc lowpass");
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_vsource("V1", inp, Circuit::GROUND, Waveform::sin(0.0, 1.0, 1e6))?;
//! ckt.add_resistor("R1", inp, out, 1e3)?;
//! ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-9)?;
//! ckt.validate()?;
//! # Ok(())
//! # }
//! ```
//!
//! or parse the same thing from a SPICE deck with [`parse_netlist`]:
//!
//! ```
//! # fn main() -> Result<(), wavepipe_circuit::ParseNetlistError> {
//! let deck = "rc lowpass\nV1 in 0 SIN(0 1 1meg)\nR1 in out 1k\nC1 out 0 1n\n.tran 1n 5u\n.end";
//! let parsed = wavepipe_circuit::parse_netlist(deck)?;
//! assert_eq!(parsed.circuit.node_count(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod circuit;
mod element;
pub mod generators;
mod parser;
mod units;
mod waveform;

pub use circuit::{Circuit, CircuitError};
pub use element::{BjtModel, DiodeModel, Element, MosModel, MosPolarity, Node};
pub use parser::{parse_netlist, ParseNetlistError, ParsedDeck, TranSpec};
pub use waveform::Waveform;
