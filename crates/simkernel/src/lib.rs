//! # simkernel — deterministic virtual-time simulation kernel
//!
//! The foundation of the Snapify reproduction: a cooperative scheduler in
//! which every *simulated thread* has a stack of its own, all of a kernel's
//! run on one OS thread, one at a time, under a single virtual clock. See
//! [`kernel`] for the execution model and its determinism guarantees.
//!
//! The crate provides:
//!
//! * [`Kernel`] / [`spawn`] / [`sleep`] / [`now`] — thread and clock control;
//! * [`SimMutex`], [`SimCondvar`], [`Semaphore`], [`Barrier`] — virtual-time
//!   synchronization (the same shapes Snapify's pause protocol uses);
//! * [`SimChannel`] — message channels with latency, capacity, and an
//!   observable *drained* predicate;
//! * [`BandwidthResource`] — FIFO-serialized transports with
//!   latency + bandwidth cost models (PCIe links, disks);
//! * [`Kernel::spawn_stepped`] and the `poll_*` cores of the primitives
//!   ([`wait`]) — services that run on the dispatcher, with no stack.
//!
//! ## Example
//!
//! ```
//! use simkernel::{Kernel, spawn, sleep, now, time::ms, SimChannel};
//!
//! let total = Kernel::run_root(|| {
//!     let ch = SimChannel::unbounded("work");
//!     let tx = ch.clone();
//!     spawn("producer", move || {
//!         for i in 0..3u64 {
//!             sleep(ms(10));
//!             tx.send(i).unwrap();
//!         }
//!         tx.close();
//!     });
//!     let mut total = 0;
//!     while let Ok(v) = ch.recv() {
//!         total += v;
//!     }
//!     assert_eq!(now().as_nanos(), 30_000_000); // 30ms of virtual time
//!     total
//! });
//! assert_eq!(total, 3);
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod domain;
pub mod kernel;
pub mod resource;
pub mod sync;
pub mod time;
pub mod wait;

/// Deterministic observability: typed spans, metrics, and trace/summary
/// exporters, stamped with this kernel's virtual clock.
///
/// This is a re-export of the `snapify-obs` crate with the virtual
/// clock pre-installed: every [`Kernel`] construction registers
/// `simkernel::now()` + the current [`Tid`] as the timestamp source, so
/// `simkernel::obs::span!("phase")` records begin/end at virtual time
/// with per-thread nesting. Recording is off by default and costs one
/// relaxed atomic load per event until [`obs::enable`](snapify_obs::enable)
/// is called.
pub mod obs {
    pub use snapify_obs::*;
}

pub use channel::{RecvError, SendError, SimChannel};
pub use domain::{DomainId, MultiDomainConfig, MultiKernel, PortRx, PortTx};
pub use kernel::{
    current, in_simulation, now, sleep, sleep_poll, spawn, yield_now, JoinHandle, Kernel,
    SchedPolicy, Tid, TraceEvent,
};
pub use resource::{Bandwidth, BandwidthResource};
pub use sync::{Barrier, Semaphore, SimCondvar, SimMutex, SimMutexGuard};
pub use time::{ms, secs, us, SimDuration, SimTime};
pub use wait::{block_on, Polled, Step, Tick, Wait};
