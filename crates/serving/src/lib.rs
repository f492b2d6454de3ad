//! # serving — FaaS-style multi-tenant serving over swapped tenants
//!
//! The paper pitches swap-out/swap-in as a way to time-share a Phi card
//! among more offload tenants than fit in device memory (§6). This
//! crate turns that pitch into a measurable serving scenario:
//!
//! * [`traffic`] — deterministic open-loop arrival processes (Poisson
//!   and bursty) over a Zipf-skewed tenant population, replayable from
//!   a single `u64` seed;
//! * [`policy`] — pluggable eviction policies (LRU, popularity-aware,
//!   cost-aware on per-tenant swap-size estimates) deciding which
//!   resident tenants yield device memory and which chunks the
//!   snapstore restore cache keeps;
//! * [`engine`] — the request-driven serving layer above
//!   `SwapScheduler`: requests for a swapped-out tenant trigger an
//!   on-demand swap-in, resident tenants serve warm;
//! * [`report`] — per-class cold/warm time-to-first-compute
//!   percentiles, SLO breaches, and a byte-stable summary string.

#![warn(missing_docs)]

pub mod engine;
pub mod policy;
pub mod report;
pub mod traffic;

pub use engine::{run_scenario, run_scenario_with_faults, ServingConfig, TenantClass};
pub use policy::EvictionPolicy;
pub use report::{ServingReport, StartStats};
pub use traffic::{generate, Arrival, ArrivalProcess, TrafficConfig};
