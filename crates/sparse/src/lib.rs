//! Sparse linear algebra substrate for the WavePipe circuit simulator.
//!
//! A SPICE-class transient simulator spends most of its time assembling and
//! solving the sparse modified-nodal-analysis (MNA) system, so this crate
//! provides exactly the kernels that loop needs — written from scratch, with
//! the split that matters for Newton iteration:
//!
//! * [`CooMatrix`] — triplet assembly with MNA "stamping" semantics
//!   (duplicates are summed, cancelled entries stay in the pattern).
//! * [`CscMatrix`] — compressed sparse column storage, residual and
//!   backward-error kernels, pattern queries.
//! * [`SparseLu`] — Gilbert–Peierls LU with threshold partial pivoting and a
//!   KLU-style numeric-only [`SparseLu::refactor`] fast path that replays the
//!   recorded pivot order and elimination pattern.
//! * [`ordering`] — the minimum-degree fill-reducing ordering.
//! * [`SparseOperator`] / [`Preconditioner`] — the matrix-free abstractions
//!   Krylov methods iterate against.
//! * [`gmres()`](fn@crate::gmres) — restarted GMRES(m) with Givens-rotation least-squares and
//!   right preconditioning.
//! * [`Ilu0`] — the zero-fill ILU(0) preconditioner.
//! * [`vector`] — dense vector kernels including the weighted-RMS error norm
//!   used by local-truncation-error control.
//!
//! # Example
//!
//! ```
//! use wavepipe_sparse::{CooMatrix, LuOptions, SparseLu};
//!
//! # fn main() -> Result<(), wavepipe_sparse::SparseError> {
//! // Assemble a small conductance matrix by stamping.
//! let mut g = CooMatrix::new(3, 3);
//! for i in 0..3 {
//!     g.push(i, i, 2.0)?;
//! }
//! g.push(0, 1, -1.0)?;
//! g.push(1, 0, -1.0)?;
//! g.push(1, 2, -1.0)?;
//! g.push(2, 1, -1.0)?;
//! let a = g.to_csc();
//!
//! // Factor once, then solve (and refactor cheaply when values change).
//! let lu = SparseLu::factor(&a, &LuOptions::default())?;
//! let b = [1.0, 0.0, 0.0];
//! let x = lu.solve(&b)?;
//! let mut r = vec![0.0; 3];
//! a.residual_into(&x, &b, &mut r)?;
//! assert!(r.iter().all(|ri| ri.abs() < 1e-12));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod coo;
mod csc;
#[cfg(test)]
mod dense;
mod error;
mod gmres;
mod ilu;
mod lanes;
mod lu;
mod operator;
pub mod ordering;
pub mod vector;

pub use coo::CooMatrix;
pub use csc::{BackwardError, CscMatrix};
pub use error::{Result, SparseError};
pub use gmres::{gmres, GmresOptions, GmresOutcome};
pub use ilu::Ilu0;
pub use lanes::{LanePackedLu, LaneSolve};
pub use lu::{LuOptions, SharedPlan, SparseLu};
pub use operator::{Preconditioner, SparseOperator};
pub use ordering::Permutation;
