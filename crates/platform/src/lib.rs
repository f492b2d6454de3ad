//! # phi-platform — the simulated Xeon Phi server
//!
//! This crate is the hardware substitution layer of the Snapify
//! reproduction (the real Knights Corner cards and their MPSS stack are
//! discontinued). It models, on top of [`simkernel`]'s virtual clock:
//!
//! * [`SimNode`] — the host and each coprocessor: core counts and compute
//!   rates, a physical [`MemPool`], a single-threaded memcpy engine, and a
//!   node file system;
//! * [`SimFs`] — the host's disk-backed file system (write-back cache with
//!   asynchronous flush) and the Phi's RAM-backed file system (file bytes
//!   charge the card's memory pool — the root cause of the paper's
//!   snapshot-storage problem);
//! * [`PcieLink`] — per-card PCIe gen2 x16 links with distinct message and
//!   RDMA cost models;
//! * [`PhiServer`] / [`Cluster`] — assembled topologies, including the
//!   4-node cluster of the MPI experiments;
//! * [`Payload`] — simulated data that supports paper-scale sizes without
//!   materializing gigabytes, with chunking-invariant digests for
//!   end-to-end integrity checks;
//! * [`PlatformParams`] — every calibrated constant, in one place,
//!   printed by every benchmark;
//! * [`FaultPlane`] / [`FaultSchedule`] — the deterministic chaos plane:
//!   declarative `(virtual time, target, fault)` schedules injected at
//!   world boot and consumed at bus/fs/memory operation sites.

#![warn(missing_docs)]

pub mod bus;
pub mod data;
pub mod domains;
pub mod fault;
pub mod fs;
pub mod memory;
pub mod node;
pub mod params;
pub mod server;

pub use bus::{LinkTransfer, PcieLink};
pub use data::{Payload, Segment};
pub use domains::{cluster_lookahead, DomainPlacement};
pub use fault::{FaultEntry, FaultKind, FaultPlane, FaultSchedule, FaultTarget};
pub use fs::{FsConfig, FsError, SimFs};
pub use memory::{MemAlloc, MemPool, OutOfMemory};
pub use node::{NodeId, NodeKind, SimNode};
pub use params::{PlatformParams, GB, KB, MB};
pub use server::{Cluster, PhiServer};
