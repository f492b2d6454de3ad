//! Shared hardware resources with bandwidth/latency cost models.
//!
//! A [`BandwidthResource`] models a serial transport (a PCIe link, a disk,
//! a memory-copy engine): each operation of `n` bytes occupies the resource
//! for `per_op_latency + n / bandwidth` of virtual time, and concurrent
//! users are serialized FIFO. This captures the two effects the paper's
//! evaluation turns on: *small operations are latency-bound* (NFS's many
//! small writes, Table 4) and *large operations are bandwidth-bound and
//! interfere* (competing RDMA transfers on one PCIe link).

use std::sync::Arc;

use crate::kernel::current;
use crate::sync::SimMutex;
use crate::time::{SimDuration, SimTime};

/// Throughput in bytes per second of virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// Megabytes (1e6 bytes) per second.
    pub fn mb_per_sec(v: f64) -> Bandwidth {
        Bandwidth(v * 1e6)
    }

    /// Gigabytes (1e9 bytes) per second.
    pub fn gb_per_sec(v: f64) -> Bandwidth {
        Bandwidth(v * 1e9)
    }

    /// Time to move `bytes` at this bandwidth.
    pub fn time_for(self, bytes: u64) -> SimDuration {
        assert!(self.0 > 0.0, "bandwidth must be positive");
        SimDuration::from_secs_f64(bytes as f64 / self.0)
    }
}

struct ResState {
    /// Virtual time at which the resource becomes free.
    available_at: SimTime,
    /// Cumulative bytes moved (for reports).
    total_bytes: u64,
    /// Cumulative operations (for reports).
    total_ops: u64,
}

/// A FIFO-serialized bandwidth resource. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct BandwidthResource {
    inner: Arc<BwInner>,
}

struct BwInner {
    name: String,
    bandwidth: Bandwidth,
    per_op_latency: SimDuration,
    state: SimMutex<ResState>,
}

impl BandwidthResource {
    /// Create a resource with a given bandwidth and fixed per-operation
    /// latency (seek/doorbell/RPC overhead).
    pub fn new(
        name: impl Into<String>,
        bandwidth: Bandwidth,
        per_op_latency: SimDuration,
    ) -> BandwidthResource {
        let name = name.into();
        BandwidthResource {
            inner: Arc::new(BwInner {
                state: SimMutex::new(
                    format!("resource '{name}'"),
                    ResState {
                        available_at: SimTime::ZERO,
                        total_bytes: 0,
                        total_ops: 0,
                    },
                ),
                name,
                bandwidth,
                per_op_latency,
            }),
        }
    }

    /// Occupy the resource for one operation of `bytes` bytes: blocks the
    /// calling simulated thread until the operation completes, i.e. until
    /// `max(now, available) + per_op_latency + bytes/bandwidth`.
    ///
    /// Returns the operation's duration as experienced by the caller
    /// (including queueing delay).
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        self.transfer_with_extra(bytes, SimDuration::ZERO)
    }

    /// Charge `bytes` as if issued in `ops` separate operations (each
    /// paying the per-op latency) in one simulation event. Models e.g. a
    /// checkpointer that writes page-by-page without costing one event per
    /// page.
    pub fn transfer_as_ops(&self, bytes: u64, ops: u64) -> SimDuration {
        let extra = self.inner.per_op_latency * ops.saturating_sub(1);
        self.transfer_with_extra(bytes, extra)
    }

    /// Like [`BandwidthResource::transfer`], but adds `extra` service time
    /// to the operation (e.g. a cipher cost that occupies the link).
    pub fn transfer_with_extra(&self, bytes: u64, extra: SimDuration) -> SimDuration {
        let (kernel, _) = current();
        let start = kernel.now();
        let completion = self.occupy(bytes, extra);
        // Users are served in the order they occupied the resource; the
        // sleep below then charges each its own completion time.
        if completion > start {
            kernel.sleep(completion - start);
        }
        kernel.now() - start
    }

    /// Pure cost-model query: the service time (ignoring queueing) for an
    /// operation of `bytes` bytes. Does not occupy the resource.
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        self.inner.per_op_latency + self.inner.bandwidth.time_for(bytes)
    }

    /// Enqueue an operation on the resource *without waiting* for it:
    /// models asynchronous work (e.g. a write-back cache flushing to disk
    /// in the background). Returns the virtual time at which the scheduled
    /// operation will complete.
    pub fn schedule(&self, bytes: u64) -> SimTime {
        self.occupy(bytes, SimDuration::ZERO)
    }

    /// The one place the resource is occupied: queue one operation of
    /// `bytes` (plus `extra` service time) behind whatever is scheduled
    /// and return its completion time.
    fn occupy(&self, bytes: u64, extra: SimDuration) -> SimTime {
        let mut st = self.inner.state.lock();
        let begin = st.available_at.max(crate::kernel::now());
        let service = self.inner.per_op_latency + self.inner.bandwidth.time_for(bytes) + extra;
        st.available_at = begin + service;
        st.total_bytes += bytes;
        st.total_ops += 1;
        st.available_at
    }

    /// Block until all scheduled work has completed (an `fsync`).
    pub fn wait_idle(&self) {
        let (kernel, _) = current();
        let target = self.inner.state.lock().available_at;
        let now = kernel.now();
        if target > now {
            kernel.sleep(target - now);
        }
    }

    /// Cumulative `(bytes, operations)` served.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.inner.state.lock();
        (st.total_bytes, st.total_ops)
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Configured per-operation latency.
    pub fn per_op_latency(&self) -> SimDuration {
        self.inner.per_op_latency
    }
}

impl std::fmt::Debug for BandwidthResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandwidthResource")
            .field("name", &self.inner.name)
            .field("bytes_per_sec", &self.inner.bandwidth.0)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{now, sleep, spawn, Kernel};
    use crate::time::{ms, secs, SimTime};

    #[test]
    fn bandwidth_time_for() {
        let bw = Bandwidth::mb_per_sec(100.0);
        assert_eq!(bw.time_for(100_000_000), secs(1));
        assert_eq!(bw.time_for(0), SimDuration::ZERO);
    }

    #[test]
    fn single_transfer_takes_latency_plus_bytes_over_bw() {
        Kernel::run_root(|| {
            let r = BandwidthResource::new("link", Bandwidth::mb_per_sec(10.0), ms(2));
            let d = r.transfer(10_000_000); // 1s at 10 MB/s
            assert_eq!(d, secs(1) + ms(2));
            assert_eq!(now(), SimTime::ZERO + secs(1) + ms(2));
        });
    }

    #[test]
    fn concurrent_transfers_serialize() {
        Kernel::run_root(|| {
            let r = BandwidthResource::new("link", Bandwidth::mb_per_sec(1.0), SimDuration::ZERO);
            let mut handles = Vec::new();
            for i in 0..3 {
                let r = r.clone();
                handles.push(spawn(format!("t{i}"), move || {
                    r.transfer(1_000_000); // 1s each
                    now()
                }));
            }
            let mut ends: Vec<SimTime> = handles.into_iter().map(|h| h.join()).collect();
            ends.sort();
            assert_eq!(
                ends,
                vec![
                    SimTime::ZERO + secs(1),
                    SimTime::ZERO + secs(2),
                    SimTime::ZERO + secs(3),
                ]
            );
        });
    }

    #[test]
    fn idle_resource_does_not_backlog() {
        Kernel::run_root(|| {
            let r = BandwidthResource::new("link", Bandwidth::mb_per_sec(1.0), SimDuration::ZERO);
            r.transfer(1_000_000); // finishes at 1s
            sleep(secs(10)); // resource idle 9s
            let d = r.transfer(1_000_000);
            assert_eq!(d, secs(1)); // no queueing delay
            assert_eq!(now(), SimTime::ZERO + secs(12));
        });
    }

    #[test]
    fn extra_service_time_is_charged() {
        Kernel::run_root(|| {
            let r = BandwidthResource::new("link", Bandwidth::gb_per_sec(1.0), SimDuration::ZERO);
            let d = r.transfer_with_extra(1_000_000_000, secs(2));
            assert_eq!(d, secs(3));
        });
    }

    #[test]
    fn stats_accumulate() {
        Kernel::run_root(|| {
            let r = BandwidthResource::new("link", Bandwidth::gb_per_sec(1.0), SimDuration::ZERO);
            r.transfer(10);
            r.transfer(20);
            assert_eq!(r.stats(), (30, 2));
        });
    }

    #[test]
    fn service_time_is_pure() {
        Kernel::run_root(|| {
            let r = BandwidthResource::new("link", Bandwidth::mb_per_sec(1.0), ms(5));
            let t0 = now();
            assert_eq!(r.service_time(2_000_000), secs(2) + ms(5));
            assert_eq!(now(), t0);
            assert_eq!(r.stats(), (0, 0));
        });
    }
}
