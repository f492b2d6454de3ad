//! Simulated compute nodes (the host and the Xeon Phi coprocessors).

use std::fmt;
use std::sync::Arc;

use simkernel::{BandwidthResource, SimDuration};

use crate::fs::{FsConfig, SimFs};
use crate::memory::MemPool;
use crate::params::PlatformParams;

/// SCIF-style node numbering: the host is node 0; coprocessors are 1..=N.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The host node.
    pub const HOST: NodeId = NodeId(0);

    /// Whether this is the host node.
    pub fn is_host(self) -> bool {
        self.0 == 0
    }

    /// The zero-based coprocessor index, if this is a coprocessor node.
    pub fn device_index(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0 as usize - 1)
        }
    }

    /// Node id of coprocessor `index` (zero-based).
    pub fn device(index: usize) -> NodeId {
        NodeId(index as u16 + 1)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_host() {
            write!(f, "host")
        } else {
            write!(f, "mic{}", self.0 - 1)
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The kind of a simulated node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// The host processor.
    Host,
    /// A Xeon Phi coprocessor.
    Phi,
}

struct NodeInner {
    id: NodeId,
    kind: NodeKind,
    name: String,
    mem: MemPool,
    fs: SimFs,
    cores: u32,
    flops_per_core: f64,
    /// Single-threaded memory-copy engine (socket copies, buffer staging).
    memcpy: BandwidthResource,
    parallel_overhead: SimDuration,
}

/// A simulated node. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct SimNode {
    inner: Arc<NodeInner>,
}

impl SimNode {
    /// Build the host node from platform parameters.
    pub fn host(params: &PlatformParams) -> SimNode {
        let mem = MemPool::new("host", params.host_mem);
        let fs = SimFs::new(
            "host-fs",
            FsConfig::disk(
                params.host_cache_bw,
                params.host_disk_bw,
                params.host_fs_latency,
            ),
            None, // host fs is disk-backed; it does not charge host RAM
        );
        SimNode {
            inner: Arc::new(NodeInner {
                id: NodeId::HOST,
                kind: NodeKind::Host,
                name: "host".to_string(),
                mem,
                fs,
                cores: params.host_cores,
                flops_per_core: params.host_gflops_per_core * 1e9,
                memcpy: BandwidthResource::new(
                    "host-memcpy",
                    params.host_memcpy_bw,
                    SimDuration::ZERO,
                ),
                parallel_overhead: params.parallel_region_overhead,
            }),
        }
    }

    /// Build coprocessor node `index` from platform parameters. The RAM
    /// file system charges the card's memory pool.
    pub fn phi(params: &PlatformParams, index: usize) -> SimNode {
        let id = NodeId::device(index);
        let name = format!("mic{index}");
        let mem = MemPool::new(&name, params.phi_mem);
        let fs = SimFs::new(
            format!("{name}-ramfs"),
            FsConfig::ram(params.phi_ramfs_bw, params.phi_ramfs_latency),
            Some(mem.clone()),
        );
        SimNode {
            inner: Arc::new(NodeInner {
                id,
                kind: NodeKind::Phi,
                mem,
                fs,
                cores: params.phi_cores,
                flops_per_core: params.phi_gflops_per_core * 1e9,
                memcpy: BandwidthResource::new(
                    format!("{name}-memcpy"),
                    params.phi_memcpy_bw,
                    SimDuration::ZERO,
                ),
                parallel_overhead: params.parallel_region_overhead,
                name,
            }),
        }
    }

    /// SCIF node id.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// Node kind.
    pub fn kind(&self) -> NodeKind {
        self.inner.kind
    }

    /// Node name (`"host"`, `"mic0"`, …).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Physical memory pool.
    pub fn mem(&self) -> &MemPool {
        &self.inner.mem
    }

    /// The node's file system (host: disk-backed; Phi: RAM-backed).
    pub fn fs(&self) -> &SimFs {
        &self.inner.fs
    }

    /// Core count.
    pub fn cores(&self) -> u32 {
        self.inner.cores
    }

    /// Time to execute `flops` of perfectly-parallel work on `threads`
    /// threads (capped at the core count), including the parallel-region
    /// entry overhead.
    pub fn parallel_compute_time(&self, flops: f64, threads: u32) -> SimDuration {
        let eff_threads = threads.min(self.inner.cores).max(1);
        let rate = eff_threads as f64 * self.inner.flops_per_core;
        self.inner.parallel_overhead + SimDuration::from_secs_f64(flops / rate)
    }

    /// Execute (block for) a parallel compute region.
    pub fn parallel_compute(&self, flops: f64, threads: u32) {
        simkernel::sleep(self.parallel_compute_time(flops, threads));
    }

    /// Perform a memory copy of `bytes` on this node (occupies the node's
    /// copy engine; concurrent copies serialize).
    pub fn memcpy(&self, bytes: u64) {
        self.inner.memcpy.transfer(bytes);
    }
}

impl fmt::Debug for SimNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNode")
            .field("id", &self.inner.id)
            .field("kind", &self.inner.kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GB;
    use simkernel::{now, Kernel, SimTime};

    #[test]
    fn node_ids() {
        assert!(NodeId::HOST.is_host());
        assert_eq!(NodeId::HOST.device_index(), None);
        assert_eq!(NodeId::device(0), NodeId(1));
        assert_eq!(NodeId::device(1).device_index(), Some(1));
        assert_eq!(format!("{}", NodeId::HOST), "host");
        assert_eq!(format!("{}", NodeId::device(1)), "mic1");
    }

    #[test]
    fn phi_node_has_ram_fs_charging_memory() {
        Kernel::run_root(|| {
            let params = PlatformParams::default();
            let phi = SimNode::phi(&params, 0);
            assert_eq!(phi.mem().capacity(), 8 * GB);
            phi.fs()
                .append("/tmp/f", crate::data::Payload::synthetic(1, GB))
                .unwrap();
            assert_eq!(phi.mem().used(), GB);
        });
    }

    #[test]
    fn host_fs_does_not_charge_host_ram() {
        Kernel::run_root(|| {
            let params = PlatformParams::default();
            let host = SimNode::host(&params);
            host.fs()
                .append("/snap/f", crate::data::Payload::synthetic(1, GB))
                .unwrap();
            assert_eq!(host.mem().used(), 0);
        });
    }

    #[test]
    fn parallel_compute_scales_with_threads() {
        let params = PlatformParams::default();
        Kernel::run_root(move || {
            let phi = SimNode::phi(&params, 0);
            let t1 = phi.parallel_compute_time(1e12, 1);
            let t60 = phi.parallel_compute_time(1e12, 60);
            let t240 = phi.parallel_compute_time(1e12, 240); // capped at 60 cores
            assert!(t1 > t60 * 50);
            assert_eq!(t60, t240);
        });
    }

    #[test]
    fn compute_blocks_for_modeled_time() {
        let params = PlatformParams::default();
        Kernel::run_root(move || {
            let phi = SimNode::phi(&params, 0);
            let expect = phi.parallel_compute_time(1e12, 60);
            phi.parallel_compute(1e12, 60);
            assert_eq!(now() - SimTime::ZERO, expect);
        });
    }

    #[test]
    fn memcpy_occupies_engine() {
        let params = PlatformParams::default();
        Kernel::run_root(move || {
            let host = SimNode::host(&params);
            let t0 = now();
            host.memcpy(6_000_000_000); // 1s at 6 GB/s
            assert_eq!((now() - t0).as_secs_f64().round() as i64, 1);
        });
    }
}
