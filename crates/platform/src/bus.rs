//! The PCIe interconnect between the host and the coprocessors.
//!
//! Each Xeon Phi card has its own PCIe gen2 x16 link to the host. A link
//! carries two traffic classes with different cost models, mirroring SCIF:
//!
//! * **messages** (`scif_send`/`scif_recv`): driver-mediated small
//!   transfers — latency-dominated, modest bandwidth;
//! * **RDMA** (`scif_(v)readfrom`/`scif_(v)writeto`): DMA-engine
//!   transfers — high bandwidth, fixed setup cost per operation.
//!
//! Both classes of one link share the physical wires; for simplicity each
//! class is its own FIFO resource (the DMA engine and the message path do
//! not contend in this model — acceptable because the paper's protocol
//! never saturates both at once).

use std::fmt;
use std::sync::Arc;

use simkernel::{block_on, obs, BandwidthResource, Polled, SimDuration, SimTime, Wait};

use crate::fault::{FaultHook, FaultKind, FaultPlane, FaultTarget};
use crate::node::NodeId;
use crate::params::PlatformParams;

struct LinkInner {
    /// The device end of the link.
    device: NodeId,
    /// DMA engine, host↔device (full duplex is NOT modeled: one engine).
    rdma: BandwidthResource,
    /// Message path.
    msg: BandwidthResource,
    msg_latency: SimDuration,
    /// Chaos-plane hookup (inert until wired at world boot).
    faults: FaultHook,
}

/// One PCIe link between the host and a coprocessor. Cheap to clone.
#[derive(Clone)]
pub struct PcieLink {
    inner: Arc<LinkInner>,
}

impl PcieLink {
    /// Build the link for coprocessor `device` from platform parameters.
    pub fn new(params: &PlatformParams, device: NodeId) -> PcieLink {
        assert!(!device.is_host());
        PcieLink {
            inner: Arc::new(LinkInner {
                device,
                rdma: BandwidthResource::new(
                    format!("pcie-{device}-rdma"),
                    params.pcie_rdma_bw,
                    params.pcie_rdma_latency,
                ),
                msg: BandwidthResource::new(
                    format!("pcie-{device}-msg"),
                    params.scif_msg_bw,
                    params.scif_msg_latency,
                ),
                msg_latency: params.scif_msg_latency,
                faults: FaultHook::new(),
            }),
        }
    }

    /// Wire this link to a fault plane as `bus<device_index>` (done once
    /// at world boot; later calls are ignored).
    pub fn attach_faults(&self, plane: &FaultPlane) {
        let idx = self
            .inner
            .device
            .device_index()
            .expect("link has a device end");
        self.inner.faults.attach(plane, FaultTarget::Bus(idx));
    }

    /// The coprocessor this link attaches.
    pub fn device(&self) -> NodeId {
        self.inner.device
    }

    /// Perform an RDMA transfer of `bytes` (blocks for the DMA time).
    pub fn rdma_transfer(&self, bytes: u64) -> SimDuration {
        let mut op = LinkTransfer::new(bytes);
        block_on(|| self.poll_transfer(&self.inner.rdma, &mut op))
    }

    /// Send a message of `bytes` over the message path (blocks for the
    /// wire time; delivery latency is handled by the channel layer).
    pub fn message_transfer(&self, bytes: u64) -> SimDuration {
        let mut op = LinkTransfer::new(bytes);
        block_on(|| self.poll_message_transfer(&mut op))
    }

    /// The non-blocking core of [`PcieLink::message_transfer`]: advance
    /// `op` as far as it goes without waiting. `Ready` carries the time the
    /// transfer took, fault included.
    pub fn poll_message_transfer(&self, op: &mut LinkTransfer) -> Polled<SimDuration> {
        self.poll_transfer(&self.inner.msg, op)
    }

    /// One transfer on `res`, resumable at each point it waits. First a
    /// due bus fault is consumed and paid for: a CRC error replays the
    /// transfer once at link level (the PCIe contract — callers never see
    /// it, only the latency); a delay spike stalls. Then the transfer
    /// itself occupies the resource; then it is over.
    fn poll_transfer(&self, res: &BandwidthResource, op: &mut LinkTransfer) -> Polled<SimDuration> {
        loop {
            let until = match op.stage {
                Stage::Fault => {
                    op.stage = Stage::Transfer;
                    match self.inner.faults.take() {
                        Some(FaultKind::BusError) => {
                            obs::counter_add("chaos.bus.replays", 1);
                            res.schedule(op.bytes)
                        }
                        Some(FaultKind::BusDelay(d)) => {
                            obs::counter_add("chaos.bus.delays", 1);
                            return Polled::Wait(Wait::sleep(d));
                        }
                        _ => continue,
                    }
                }
                Stage::Transfer => {
                    op.stage = Stage::Done;
                    res.schedule(op.bytes)
                }
                Stage::Done => return Polled::Ready(simkernel::now() - op.started),
            };
            let now = simkernel::now();
            if until > now {
                return Polled::Wait(Wait::sleep(until - now));
            }
        }
    }

    /// One-way small-message latency of this link.
    pub fn msg_latency(&self) -> SimDuration {
        self.inner.msg_latency
    }

    /// Cumulative (bytes, ops) moved by the DMA engine.
    pub fn rdma_stats(&self) -> (u64, u64) {
        self.inner.rdma.stats()
    }

    /// Cost-model query: RDMA time for `bytes`, ignoring queueing.
    pub fn rdma_time(&self, bytes: u64) -> SimDuration {
        self.inner.rdma.service_time(bytes)
    }
}

/// One transfer over a [`PcieLink`] in progress: what
/// [`PcieLink::poll_message_transfer`] resumes.
pub struct LinkTransfer {
    bytes: u64,
    started: SimTime,
    stage: Stage,
}

/// What a [`LinkTransfer`] does next.
enum Stage {
    /// Consume a due bus fault and pay for it (a replay, or a stall).
    Fault,
    /// Occupy the link for the transfer proper.
    Transfer,
    /// Nothing: report the time taken.
    Done,
}

impl LinkTransfer {
    /// A transfer of `bytes` starting now (callable only from a simulated
    /// thread).
    pub fn new(bytes: u64) -> LinkTransfer {
        LinkTransfer {
            bytes,
            started: simkernel::now(),
            stage: Stage::Fault,
        }
    }
}

impl fmt::Debug for PcieLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PcieLink")
            .field("device", &self.inner.device)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::{now, spawn, Kernel, SimTime};

    #[test]
    fn rdma_is_bandwidth_bound() {
        let params = PlatformParams::default();
        Kernel::run_root(move || {
            let link = PcieLink::new(&params, NodeId::device(0));
            let d = link.rdma_transfer(6_000_000_000);
            // ~1 s at 6 GB/s plus 20 us setup.
            assert!((d.as_secs_f64() - 1.00002).abs() < 1e-4);
        });
    }

    #[test]
    fn messages_are_latency_bound() {
        let params = PlatformParams::default();
        Kernel::run_root(move || {
            let link = PcieLink::new(&params, NodeId::device(0));
            let d = link.message_transfer(64);
            // Dominated by the 15 us per-op latency.
            assert!(d.as_nanos() >= 15_000);
            assert!(d.as_nanos() < 20_000);
        });
    }

    #[test]
    fn concurrent_rdma_serializes_on_one_link() {
        let params = PlatformParams::default();
        Kernel::run_root(move || {
            let link = PcieLink::new(&params, NodeId::device(0));
            let l2 = link.clone();
            let h = spawn("second", move || {
                l2.rdma_transfer(6_000_000_000);
                now()
            });
            link.rdma_transfer(6_000_000_000);
            let first_done = now();
            let second_done = h.join();
            assert!(second_done > first_done);
            assert!(second_done >= SimTime::ZERO + simkernel::secs(2));
        });
    }

    #[test]
    fn injected_bus_error_is_replayed_transparently() {
        use crate::fault::{FaultPlane, FaultSchedule};
        let params = PlatformParams::default();
        Kernel::run_root(move || {
            let link = PcieLink::new(&params, NodeId::device(0));
            let plane = FaultPlane::new(FaultSchedule::none().with(
                SimTime::ZERO,
                FaultTarget::Bus(0),
                FaultKind::BusError,
            ));
            link.attach_faults(&plane);
            let clean = link.rdma_time(6_000_000_000);
            let d = link.rdma_transfer(6_000_000_000);
            assert!(d >= clean * 2, "CRC replay must roughly double the time");
            // One-shot: the next transfer is clean again.
            let d2 = link.rdma_transfer(6_000_000_000);
            assert!(d2 < clean * 2);
            assert_eq!(plane.fired_count(), 1);
        });
    }

    #[test]
    fn injected_bus_delay_stalls_one_transfer() {
        use crate::fault::{FaultPlane, FaultSchedule};
        let params = PlatformParams::default();
        Kernel::run_root(move || {
            let link = PcieLink::new(&params, NodeId::device(0));
            let plane = FaultPlane::new(FaultSchedule::none().with(
                SimTime::ZERO,
                FaultTarget::Bus(0),
                FaultKind::BusDelay(simkernel::ms(3)),
            ));
            link.attach_faults(&plane);
            let clean = link.message_transfer(64);
            // The *first* transfer consumed the fault already, so issue a
            // fresh pair on a second link to compare.
            assert!(clean >= simkernel::ms(3), "delay spike must be paid");
            let next = link.message_transfer(64);
            assert!(next < simkernel::ms(3));
        });
    }

    #[test]
    fn separate_links_do_not_contend() {
        let params = PlatformParams::default();
        Kernel::run_root(move || {
            let l0 = PcieLink::new(&params, NodeId::device(0));
            let l1 = PcieLink::new(&params, NodeId::device(1));
            let h = spawn("on-l1", move || {
                l1.rdma_transfer(6_000_000_000);
                now()
            });
            l0.rdma_transfer(6_000_000_000);
            let t0 = now();
            let t1 = h.join();
            // Both finish at ~1 s: independent DMA engines.
            assert_eq!(t0.as_secs_f64().round() as i64, 1);
            assert_eq!(t1.as_secs_f64().round() as i64, 1);
        });
    }
}
