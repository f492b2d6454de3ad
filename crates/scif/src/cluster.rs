//! Cross-domain cluster links: node-to-node [`Payload`] transport for
//! multi-domain simulations.
//!
//! When a cluster is partitioned node-per-domain (see
//! `phi_platform::domains`), SCIF endpoints and PCIe DMA stay inside
//! their domain and keep working unchanged — but traffic between
//! *nodes* crosses time domains and must flow through the conservative
//! sync layer. [`cluster_link`] is that path: a unidirectional SPSC
//! message link carrying [`Payload`]s with the platform's node-to-node
//! network latency, built on `simkernel::domain`'s [`PortTx`]/[`PortRx`]
//! so deliveries are timestamped and merged deterministically at window
//! barriers.
//!
//! The same constructor works when both endpoints land in the same
//! domain (fewer domains than nodes, or `domains = 1`): the port then
//! delivers directly, with identical virtual timing, so cluster
//! topologies are domain-count-agnostic.

use phi_platform::domains::cluster_lookahead;
use phi_platform::{Payload, PlatformParams};
use simkernel::domain::{DomainId, MultiKernel, PortRx, PortTx};
use simkernel::{obs, RecvError, SendError, SimTime};

/// Sending half of a cluster link (lives in the source node's domain).
pub struct ClusterTx {
    tx: PortTx<Payload>,
}

/// Receiving half of a cluster link (lives in the destination node's
/// domain).
pub struct ClusterRx {
    rx: PortRx<Payload>,
}

/// Create a node-to-node link from a node in domain `src` to a node in
/// domain `dst`. The link delay is the platform's network latency, or
/// the multi-kernel's lookahead if that is larger (a cross-domain link
/// may never undercut the sync bound).
pub fn cluster_link(
    mk: &MultiKernel,
    name: impl Into<String>,
    src: DomainId,
    dst: DomainId,
    params: &PlatformParams,
) -> (ClusterTx, ClusterRx) {
    let delay = cluster_lookahead(params).max(mk.lookahead());
    let (tx, rx) = mk.port::<Payload>(name, src, dst, delay);
    (ClusterTx { tx }, ClusterRx { rx })
}

impl ClusterTx {
    /// Send a payload down the link (arrives one network latency
    /// later). Never blocks; counted as `cluster.msgs_sent` /
    /// `cluster.bytes_sent` when observability recording is on.
    pub fn send(&self, msg: Payload) -> Result<(), SendError> {
        if obs::is_enabled() {
            obs::counter_add("cluster.msgs_sent", 1);
            obs::counter_add("cluster.bytes_sent", msg.len());
        }
        self.tx.send(msg)
    }

    /// Close the link; the close marker travels with the link latency.
    pub fn close(&self) {
        self.tx.close();
    }
}

impl ClusterRx {
    /// Receive the next payload, blocking in virtual time.
    pub fn recv(&self) -> Result<Payload, RecvError> {
        self.rx.recv()
    }

    /// Receive with a virtual-time deadline (`Ok(None)` = timed out).
    pub fn recv_deadline(&self, deadline: SimTime) -> Result<Option<Payload>, RecvError> {
        self.rx.recv_deadline(deadline)
    }

    /// Cumulative `(arrived, received)` counters.
    pub fn stats(&self) -> (u64, u64) {
        self.rx.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::domain::MultiDomainConfig;
    use simkernel::time::us;
    use simkernel::SimTime;

    #[test]
    fn payloads_cross_domains_with_net_latency() {
        let params = PlatformParams::default();
        let mk = MultiKernel::new(MultiDomainConfig::new(2, cluster_lookahead(&params)));
        let (tx, rx) = cluster_link(&mk, "n0-n1", 0, 1, &params);
        let h = mk.domain(1).spawn("rx", move || {
            let p = rx.recv().unwrap();
            (p.digest(), simkernel::now())
        });
        let sent = Payload::synthetic(7, 4096);
        let want = sent.digest();
        mk.domain(0).spawn("tx", move || {
            tx.send(sent).unwrap();
            tx.close();
        });
        mk.run();
        let (digest, at) = h.take_result().unwrap();
        assert_eq!(digest, want, "payload must survive the crossing intact");
        assert_eq!(at, SimTime::ZERO + params.net_latency);
    }

    #[test]
    fn same_domain_link_has_identical_timing() {
        let params = PlatformParams::default();
        let arrival = |domains: u32| {
            let mk = MultiKernel::new(MultiDomainConfig::new(domains, cluster_lookahead(&params)));
            let dst = domains - 1;
            let (tx, rx) = cluster_link(&mk, "n0-n1", 0, dst, &params);
            let h = mk.domain(dst).spawn("rx", move || {
                rx.recv().unwrap();
                simkernel::now()
            });
            mk.domain(0).spawn("tx", move || {
                simkernel::sleep(us(30));
                tx.send(Payload::synthetic(1, 64)).unwrap();
            });
            mk.run();
            h.take_result().unwrap()
        };
        assert_eq!(
            arrival(1),
            arrival(2),
            "domain count must not change link timing"
        );
    }
}
