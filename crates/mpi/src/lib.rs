//! # home-mpi — a simulated MPI library
//!
//! A from-scratch MPI implementation over [`home_sched`] virtual threads,
//! built so the HOME checker can exercise real MPI *semantics* without a
//! cluster:
//!
//! * point-to-point messaging with envelope matching
//!   (`MPI_ANY_SOURCE`/`MPI_ANY_TAG` wildcards, per-channel non-overtaking);
//! * nonblocking operations (`Isend`/`Irecv`/`Wait`/`Test`/`Waitall`);
//! * probing (`Probe`/`Iprobe`);
//! * collectives (`Barrier`, `Bcast`, `Reduce`, `Allreduce`, `Gather`,
//!   `Scatter`, `Allgather`, `Alltoall`) via ordered per-communicator slots;
//! * communicator management (`Comm_dup`, `Comm_split`);
//! * the four `MPI_THREAD_*` support levels of `MPI_Init_thread`;
//! * a virtual-time network model (latency + bandwidth + per-call CPU cost).
//!
//! The simulator is deliberately *permissive*: misuse that real MPI leaves
//! undefined (concurrent collectives by threads of one process, shared
//! request completion, same-tag thread races) executes and produces its
//! observable consequences — mismatch errors, nondeterministic matching, or
//! deadlocks caught by the scheduler — so the checkers have something real
//! to detect.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod collective;
mod comm;
mod config;
mod error;
mod msg;
mod process;
mod reqs;
mod world;

pub use collective::ReduceOp;
pub use comm::{CommInfo, CommTable};
pub use config::{LatencyModel, MpiConfig};
pub use error::{MpiError, MpiResult};
pub use msg::{payload, Message, Payload, SrcSpec, Status, TagSpec, ANY_SOURCE, ANY_TAG};
pub use process::Process;
pub use world::World;
