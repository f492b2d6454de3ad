//! Time-domain placement and lookahead extraction.
//!
//! The multi-domain simkernel (`simkernel::domain`) synchronizes its
//! parallel time domains conservatively: a domain may only advance to
//! `min(neighbor clocks) + lookahead`, where the lookahead is the
//! minimum latency of any link that *crosses* a domain boundary. This
//! module derives that bound from [`PlatformParams`] for the
//! partitioning the workspace uses, which is node-granular: every
//! cluster node — a host plus its coprocessors — is one domain, so the
//! only cross-domain links are node-to-node network hops
//! ([`PlatformParams::net_latency`]). SCIF messages and PCIe DMA stay
//! *inside* a domain and impose no sync cost, which is why this
//! partitioning parallelizes well.
//!
//! Placement is a pure function of `(node index, domain count)` so a
//! topology keeps identical per-domain schedules across runs.

use simkernel::time::SimDuration;
use simkernel::DomainId;

use crate::params::PlatformParams;

/// Lookahead for the node-granular partitioning: each cluster node is
/// one time domain, so the minimum cross-domain link latency is the
/// node-to-node network latency.
pub fn cluster_lookahead(params: &PlatformParams) -> SimDuration {
    params.net_latency
}

/// Static placement of cluster nodes onto time domains.
///
/// Round-robin by node index: with `nodes >= domains` every domain gets
/// `⌈nodes/domains⌉` or `⌊nodes/domains⌋` nodes, and `domains = 1`
/// collapses everything onto domain 0 (the serial compatibility mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DomainPlacement {
    domains: u32,
}

impl DomainPlacement {
    /// Placement over `domains` time domains (≥ 1).
    pub fn new(domains: u32) -> DomainPlacement {
        assert!(domains >= 1, "need at least one domain");
        DomainPlacement { domains }
    }

    /// Number of time domains.
    pub fn domains(&self) -> u32 {
        self.domains
    }

    /// The domain hosting cluster node `node`.
    pub fn node_domain(&self, node: usize) -> DomainId {
        (node as u32) % self.domains
    }

    /// Whether a link between two nodes crosses a domain boundary (and
    /// therefore must respect the lookahead).
    pub fn crosses(&self, a: usize, b: usize) -> bool {
        self.node_domain(a) != self.node_domain(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::time::us;

    #[test]
    fn cluster_lookahead_is_net_latency() {
        let p = PlatformParams::default();
        assert_eq!(cluster_lookahead(&p), p.net_latency);
        assert_eq!(cluster_lookahead(&p), us(50));
    }

    #[test]
    fn placement_round_robins_and_collapses_to_one() {
        let p = DomainPlacement::new(4);
        assert_eq!(
            (0..8).map(|n| p.node_domain(n)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 0, 1, 2, 3]
        );
        assert!(p.crosses(0, 1));
        assert!(!p.crosses(0, 4));
        let serial = DomainPlacement::new(1);
        assert!((0..8).all(|n| serial.node_domain(n) == 0));
        assert!(!serial.crosses(0, 7));
    }
}
