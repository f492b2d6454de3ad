//! Multi-node cluster on parallel time domains.
//!
//! [`MultiNodeCluster`] is the top-level harness for simulations that
//! span several Phi servers: it places cluster nodes onto the
//! multi-domain simkernel (`simkernel::domain`) using the node-granular
//! partitioning from `phi_platform::domains`, and hands out
//! [`cluster_link`]s whose endpoints live in the right domains. Each
//! node's entire software stack — [`SnapifyWorld`], COI daemons,
//! Snapify-IO — runs inside that node's time domain; only node-to-node
//! network traffic crosses domains, so the conservative sync lookahead
//! is the (comparatively large) network latency and domains spend most
//! of their time running undisturbed.
//!
//! Domain count is a pure performance knob: `domains = 1` collapses to
//! the classic serial kernel, and any workload whose cross-node
//! interactions flow through cluster links observes identical virtual
//! timing at every domain count (the links never undercut the
//! lookahead, and conservative sync delivers at exact timestamps).

use std::sync::Arc;

use crate::SnapifyError;
use phi_platform::{DomainPlacement, PlatformParams};
use scif_sim::{cluster_link, ClusterRx, ClusterTx};
use simkernel::domain::{MultiDomainConfig, MultiKernel};
use simkernel::{JoinHandle, SchedPolicy};

/// A cluster of simulated Phi servers spread across parallel time
/// domains, node-granular: node `n` lives in domain `n % domains`.
#[derive(Clone)]
pub struct MultiNodeCluster {
    mk: MultiKernel,
    placement: DomainPlacement,
    params: Arc<PlatformParams>,
    nodes: usize,
}

impl MultiNodeCluster {
    /// A `nodes`-node cluster over `domains` time domains under the
    /// default FIFO policy. The sync lookahead is the platform's
    /// node-to-node network latency.
    pub fn new(nodes: usize, domains: u32, params: PlatformParams) -> MultiNodeCluster {
        MultiNodeCluster::new_with_policy(nodes, domains, params, SchedPolicy::Fifo)
    }

    /// [`MultiNodeCluster::new`] with an explicit scheduling policy
    /// (e.g. `SchedPolicy::Random(seed)` for chaos runs).
    pub fn new_with_policy(
        nodes: usize,
        domains: u32,
        params: PlatformParams,
        policy: SchedPolicy,
    ) -> MultiNodeCluster {
        assert!(nodes >= 1, "need at least one node");
        let lookahead = phi_platform::cluster_lookahead(&params);
        let mk = MultiKernel::new(MultiDomainConfig::new(domains, lookahead).with_policy(policy));
        MultiNodeCluster {
            mk,
            placement: DomainPlacement::new(domains),
            params: Arc::new(params),
            nodes,
        }
    }

    /// The underlying multi-domain kernel.
    pub fn kernel(&self) -> &MultiKernel {
        &self.mk
    }

    /// Node-to-domain placement.
    pub fn placement(&self) -> DomainPlacement {
        self.placement
    }

    /// The platform parameters shared by every node.
    pub fn params(&self) -> &PlatformParams {
        &self.params
    }

    /// Number of cluster nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// A unidirectional network link from node `src` to node `dst`,
    /// with the endpoints placed in the nodes' respective domains.
    ///
    /// Referencing a node outside `0..nodes` returns
    /// [`SnapifyError::NodeOutOfRange`] (it used to panic, which took
    /// the whole simulation down from inside library code). `src == dst`
    /// is a valid *loopback* link: both endpoints land in the same
    /// domain and traffic still pays the full network latency — exactly
    /// what a node talking to its own co-located fleet agent observes,
    /// and what a one-node ring degenerates to.
    pub fn link(&self, src: usize, dst: usize) -> Result<(ClusterTx, ClusterRx), SnapifyError> {
        for node in [src, dst] {
            if node >= self.nodes {
                return Err(SnapifyError::NodeOutOfRange {
                    node,
                    nodes: self.nodes,
                });
            }
        }
        Ok(cluster_link(
            &self.mk,
            format!("n{src}-n{dst}"),
            self.placement.node_domain(src),
            self.placement.node_domain(dst),
            &self.params,
        ))
    }

    /// Spawn node `node`'s body in its domain. The closure runs as a
    /// simulated thread of that domain's kernel, so everything it boots
    /// ([`SnapifyWorld`], channels, daemons) lands in the same domain.
    ///
    /// [`SnapifyWorld`]: crate::SnapifyWorld
    pub fn spawn_node<T, F>(&self, node: usize, name: &str, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        assert!(node < self.nodes, "node out of range");
        self.mk
            .domain(self.placement.node_domain(node))
            .spawn(format!("n{node}:{name}"), f)
    }

    /// Run the cluster to completion (panics with a cross-domain dump
    /// on deadlock or failure, like `Kernel::run`).
    pub fn run(&self) {
        self.mk.run();
    }

    /// Merged deterministic fingerprint of the run (requires tracing;
    /// see `MultiKernel::fingerprint`).
    pub fn fingerprint(&self) -> (usize, u64) {
        self.mk.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{api, SnapifyWorld};
    use coi_sim::{DeviceBinary, FunctionRegistry};
    use phi_platform::Payload;
    use simkernel::now;

    fn registry() -> FunctionRegistry {
        let reg = FunctionRegistry::new();
        reg.register(
            DeviceBinary::new("app.so", 1 << 20, 8 << 20).simple_function("fill", |ctx| {
                let n = ctx.buffer_len(0);
                ctx.compute(1e9, 60);
                ctx.write_buffer(0, Payload::bytes(vec![9u8; n as usize]));
                Vec::new()
            }),
        );
        reg
    }

    /// Links forming a unidirectional ring `0 → 1 → … → n-1 → 0`;
    /// entry `i` is the link *from* node `i` to node `(i+1) % n`.
    fn ring(cluster: &MultiNodeCluster) -> Vec<(ClusterTx, ClusterRx)> {
        (0..cluster.nodes)
            .map(|i| cluster.link(i, (i + 1) % cluster.nodes).unwrap())
            .collect()
    }

    /// Each node boots a full Snapify world in its own domain, offloads
    /// a fill, snapshots the process, then passes its snapshot size
    /// around a ring of cross-domain links. Returns per-node
    /// `(snapshot bytes, neighbor's snapshot bytes, finish time)`.
    fn ring_run(nodes: usize, domains: u32) -> Vec<(u64, u64, u64)> {
        let cluster = MultiNodeCluster::new(nodes, domains, PlatformParams::default());
        // tx[i] sends i→i+1; after the rotate, rx[i] receives (i-1)→i.
        let (txs, mut rxs): (Vec<_>, Vec<_>) = ring(&cluster).into_iter().unzip();
        rxs.rotate_right(1);

        let joins: Vec<_> = txs
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(i, (tx, rx))| {
                cluster.spawn_node(i, "main", move || {
                    let world = SnapifyWorld::boot(registry());
                    let host = world.coi().create_host_process("app");
                    let h = world.coi().create_process(&host, 0, "app.so").unwrap();
                    let buf = h.create_buffer(64 << 10).unwrap();
                    h.buffer_write(&buf, Payload::synthetic(i as u64, 64 << 10))
                        .unwrap();
                    h.run_sync("fill", Vec::new(), &[&buf]).unwrap();

                    let snap = api::SnapifyT::new(&h, format!("/snap/n{i}"));
                    api::snapify_pause(&snap).unwrap();
                    api::snapify_capture(&snap, false).unwrap();
                    let bytes = api::snapify_wait(&snap).unwrap();
                    api::snapify_resume(&snap).unwrap();
                    h.destroy().unwrap();

                    tx.send(Payload::synthetic(bytes, 8)).unwrap();
                    tx.close();
                    let neighbor = rx.recv().unwrap().digest();
                    (bytes, neighbor, now().as_nanos())
                })
            })
            .collect();
        cluster.run();
        joins
            .into_iter()
            .map(|j| j.take_result().unwrap())
            .collect()
    }

    #[test]
    fn four_node_ring_is_identical_across_domain_counts() {
        let serial = ring_run(4, 1);
        let two = ring_run(4, 2);
        let four = ring_run(4, 4);
        assert_eq!(serial, two, "2 domains must not change observable results");
        assert_eq!(serial, four, "4 domains must not change observable results");
        // Every node's neighbor value is a real snapshot digest.
        for (i, (bytes, neighbor, _)) in serial.iter().enumerate() {
            assert!(*bytes > 0, "node {i} captured an empty snapshot");
            let prev = (i + serial.len() - 1) % serial.len();
            assert_eq!(
                *neighbor,
                Payload::synthetic(serial[prev].0, 8).digest(),
                "node {i} must hold node {prev}'s snapshot-size digest"
            );
        }
    }

    #[test]
    fn multi_domain_cluster_runs_are_deterministic() {
        assert_eq!(ring_run(4, 2), ring_run(4, 2));
    }

    /// Regression: `link` used to `assert!` on out-of-range nodes,
    /// panicking from inside library code. It now reports which index
    /// was bad and how big the cluster is.
    #[test]
    fn link_out_of_range_is_a_typed_error() {
        let cluster = MultiNodeCluster::new(3, 1, PlatformParams::default());
        match cluster.link(0, 3) {
            Err(SnapifyError::NodeOutOfRange { node: 3, nodes: 3 }) => {}
            Err(other) => panic!("expected NodeOutOfRange for dst, got {other:?}"),
            Ok(_) => panic!("out-of-range dst must not produce a link"),
        }
        match cluster.link(7, 0) {
            Err(SnapifyError::NodeOutOfRange { node: 7, nodes: 3 }) => {}
            Err(other) => panic!("expected NodeOutOfRange for src, got {other:?}"),
            Ok(_) => panic!("out-of-range src must not produce a link"),
        }
        let msg = match cluster.link(0, 3) {
            Err(e) => e.to_string(),
            Ok(_) => unreachable!(),
        };
        assert!(msg.contains("node 3"), "{msg}");
        assert!(msg.contains("3-node"), "{msg}");
        cluster.kernel().domain(0).spawn("noop", || {});
        cluster.run();
    }

    /// `src == dst` is defined behaviour: a loopback link that still
    /// pays the network latency. A 1-node ring degenerates to exactly
    /// this, and messages round-trip through it.
    #[test]
    fn self_link_is_a_valid_loopback() {
        let cluster = MultiNodeCluster::new(1, 1, PlatformParams::default());
        let (tx, rx) = cluster.link(0, 0).expect("loopback link is valid");
        cluster.spawn_node(0, "loop", move || {
            let t0 = now();
            tx.send(Payload::synthetic(1, 64)).unwrap();
            tx.close();
            let got = rx.recv().unwrap();
            assert_eq!(got.digest(), Payload::synthetic(1, 64).digest());
            assert!(now() > t0, "loopback still pays network latency");
        });
        cluster.run();
    }
}
