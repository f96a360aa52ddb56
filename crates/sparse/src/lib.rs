//! `rsparse` — sparse linear-algebra substrate for the CCA-LISI
//! reproduction.
//!
//! The LISI interface (paper §5.3, §7.2) accepts assembled linear systems
//! in several storage formats — COO, CSR, MSR, VBR and FEM element
//! contributions — and each underlying solver package keeps its own native
//! structure. This crate provides:
//!
//! * the matrix types the packages compute with ([`CsrMatrix`],
//!   [`CscMatrix`], and [`CooMatrix`] for assembly), and the ingest layer
//!   ([`convert`]): one decoder per input format from a rank's port arrays
//!   to its CSR block, and the MSR / VBR encoders an application needs;
//! * dense kernels ([`dense`]) used by every solver: dot products, axpy,
//!   norms, and a small dense LU for reference solutions;
//! * sparse kernels: SpMV, transpose, sparse×sparse products (needed for
//!   Galerkin coarse grids), matrix addition and scaling;
//! * level-ordered sparse triangular sweeps ([`schedule`]): a [`LevelTri`]
//!   stores one triangle of a factor in dependency-level order, each level
//!   cut into strided runs (rows at a fixed stride reading fixed offsets,
//!   no index arrays) and indexed slots, every index checked once when it
//!   is built, and sweeps it unchecked, bit-identical to the natural-order
//!   loop;
//! * one structural digest ([`digest`]) for every cache key: 8-byte
//!   words into eight independent lanes, each word through a folded
//!   128-bit product;
//! * MatrixMarket I/O ([`io`]);
//! * the distributed layer ([`partition`], [`dist`]): block-row partitioned
//!   matrices and vectors over an [`rcomm`] communicator, with an
//!   automatically constructed halo-exchange plan for parallel SpMV, and
//!   reductions for parallel dot products/norms — exactly the data
//!   distribution LISI assumes (paper §5.4);
//! * reproducible random test-matrix generators ([`generate`]).

#![warn(missing_docs)]

mod compact;
pub mod convert;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod digest;
pub mod dist;
pub mod error;
pub mod generate;
pub mod io;
mod lanes;
pub mod ops;
pub mod partition;
pub mod schedule;

// Per-format checks of the `convert` decoders and encoders.
#[cfg(test)]
#[path = "format_tests/fem.rs"]
mod fem;
#[cfg(test)]
#[path = "format_tests/msr.rs"]
mod msr;
#[cfg(test)]
#[path = "format_tests/vbr.rs"]
mod vbr;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use dist::{DistCsrMatrix, DistVector};
pub use error::{SparseError, SparseResult};
pub use partition::BlockRowPartition;
pub use schedule::{LevelTri, Triangle};
