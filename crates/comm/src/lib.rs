//! `rcomm` — an in-process message-passing runtime modelled on MPI.
//!
//! The CCA-LISI paper runs its experiments as SPMD programs over MPI on a
//! distributed-memory cluster. This crate reproduces that substrate inside a
//! single process: [`Universe::run`] spawns one OS thread per *rank*, and the
//! ranks communicate **only** through their [`Communicator`] — typed
//! point-to-point messages with MPI matching semantics (source, tag and
//! context; FIFO per pair) plus the usual collective operations (barrier,
//! broadcast, all-reduce, gather(v), scatter, all-gather(v), all-to-all).
//! Three shared-memory transports carry the traffic: every collective
//! meets on one board per communicator, a point-to-point message waits in
//! its destination rank's inbox in a FIFO queue per `(context, source,
//! tag)`, and halo exchanges ride persistent one-way [`Line`]s.
//!
//! Because all inter-rank traffic flows through this API, code written
//! against it has the same *structure* as the MPI original: block-row data
//! distribution, halo exchange, reductions inside dot products, gathers of
//! solution vectors. Only the transport differs (shared memory instead of a
//! network), which is irrelevant for the paper's measurements — both the
//! CCA and the non-CCA call paths run on the identical substrate.
//!
//! # Example
//!
//! ```
//! use rcomm::Universe;
//!
//! // Sum rank ids across 4 ranks with an all-reduce.
//! let results = Universe::run(4, |comm| {
//!     comm.allreduce(comm.rank() as i64, |a, b| a + b).unwrap()
//! });
//! assert_eq!(results, vec![6, 6, 6, 6]);
//! ```

#![warn(missing_docs)]

mod board;
mod comm;
mod envelope;
mod error;
mod line;
mod reduce;
mod stats;
mod universe;

pub mod cohort;
pub mod collectives;
pub mod fault;

pub use cohort::CohortView;
pub use comm::Communicator;
pub use error::{CommError, CommResult};
pub use fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
pub use line::Line;
pub use reduce::{max, sum};
pub use stats::CommStats;
pub use universe::Universe;

/// Message tag type (MPI uses `int`; only non-negative tags are valid).
pub type Tag = i32;
