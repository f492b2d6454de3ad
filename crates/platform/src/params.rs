//! Calibrated platform parameters.
//!
//! These model the testbed in Table 2 of the paper: a dual-socket Xeon
//! E5-2630 host with 32 GB of RAM and two Xeon Phi 5110P coprocessors
//! (60 cores / 240 threads, 8 GB in the evaluation configuration) attached
//! over PCIe gen2 x16, running MPSS 2.1.
//!
//! Absolute magnitudes are calibrated so that the reproduction lands in the
//! ranges the paper reports (checkpoint 3–21 s, Snapify-IO ≈6× NFS write at
//! 1 GB, …); the *structure* of the model — what is latency-bound, what is
//! bandwidth-bound, what overlaps with what — is taken from the paper's own
//! explanations. Every benchmark harness prints the parameter set it ran
//! with.

use std::fmt;

use simkernel::time::{ms, us};
use simkernel::{Bandwidth, SimDuration};

/// Sizes in convenient units.
pub const KB: u64 = 1 << 10;
/// 1 MiB.
pub const MB: u64 = 1 << 20;
/// 1 GiB.
pub const GB: u64 = 1 << 30;

/// The full parameter set for a simulated Xeon Phi server.
#[derive(Clone, Debug)]
pub struct PlatformParams {
    // ----- topology -----
    /// Host name of this server — distinguishes nodes in a multi-node
    /// cluster so host-side scratch paths (e.g. migration staging
    /// directories) never collide across machines that happen to hand
    /// out the same pids.
    pub hostname: String,
    /// Number of Xeon Phi coprocessors per server.
    pub num_devices: usize,
    /// Host physical memory in bytes.
    pub host_mem: u64,
    /// Xeon Phi physical memory in bytes (8 GB in the evaluation setup).
    pub phi_mem: u64,

    // ----- compute -----
    /// Host cores (one socket's worth used for the sequential part).
    pub host_cores: u32,
    /// Host double-precision GFLOPS per core.
    pub host_gflops_per_core: f64,
    /// Xeon Phi cores.
    pub phi_cores: u32,
    /// Xeon Phi double-precision GFLOPS per core (vector unit).
    pub phi_gflops_per_core: f64,
    /// Fork/join overhead of entering an offload/parallel region.
    pub parallel_region_overhead: SimDuration,

    // ----- memory copies -----
    /// Single-threaded memcpy bandwidth on the host.
    pub host_memcpy_bw: Bandwidth,
    /// Single-threaded memcpy bandwidth on a Phi core (in-order, slow).
    pub phi_memcpy_bw: Bandwidth,

    // ----- PCIe -----
    /// RDMA (DMA engine) bandwidth of one PCIe gen2 x16 link.
    pub pcie_rdma_bw: Bandwidth,
    /// Setup latency per RDMA operation (descriptor + doorbell).
    pub pcie_rdma_latency: SimDuration,
    /// Latency of a small SCIF message.
    pub scif_msg_latency: SimDuration,
    /// Bandwidth of the SCIF message path (driver-mediated copies).
    pub scif_msg_bw: Bandwidth,

    // ----- storage -----
    /// Host page-cache (memory) bandwidth seen by file writers/readers.
    pub host_cache_bw: Bandwidth,
    /// Host secondary-storage bandwidth (async flush target).
    pub host_disk_bw: Bandwidth,
    /// Host per-file-op latency.
    pub host_fs_latency: SimDuration,
    /// Phi RAM-fs bandwidth (memcpy bound on a Phi core).
    pub phi_ramfs_bw: Bandwidth,
    /// Phi RAM-fs per-op latency.
    pub phi_ramfs_latency: SimDuration,

    // ----- cluster interconnect (for MPI) -----
    /// Node-to-node network bandwidth (10 GbE).
    pub net_bw: Bandwidth,
    /// Node-to-node message latency.
    pub net_latency: SimDuration,

    // ----- OS / runtime fixed costs -----
    /// Cost of delivering a signal to a process.
    pub signal_latency: SimDuration,
    /// Cost of a local pipe/unix-socket message.
    pub pipe_latency: SimDuration,
    /// Cost of spawning a process (fork+exec on the Phi).
    pub process_spawn: SimDuration,
    /// Cost of loading the offload shared library into a process.
    pub library_load: SimDuration,
}

impl Default for PlatformParams {
    fn default() -> PlatformParams {
        PlatformParams {
            hostname: "host0".into(),
            num_devices: 2,
            host_mem: 32 * GB,
            phi_mem: 8 * GB,

            host_cores: 6,
            host_gflops_per_core: 18.4, // E5-2630 @ 2.3 GHz, AVX
            phi_cores: 60,
            phi_gflops_per_core: 16.8, // 5110P ≈ 1.01 TFLOPS DP
            parallel_region_overhead: us(30),

            host_memcpy_bw: Bandwidth::gb_per_sec(6.0),
            phi_memcpy_bw: Bandwidth::gb_per_sec(1.7),

            pcie_rdma_bw: Bandwidth::gb_per_sec(6.0),
            pcie_rdma_latency: us(20),
            scif_msg_latency: us(15),
            scif_msg_bw: Bandwidth::mb_per_sec(600.0),

            host_cache_bw: Bandwidth::gb_per_sec(4.0),
            host_disk_bw: Bandwidth::mb_per_sec(450.0),
            host_fs_latency: us(60),
            phi_ramfs_bw: Bandwidth::gb_per_sec(1.5),
            phi_ramfs_latency: us(10),

            net_bw: Bandwidth::gb_per_sec(1.25),
            net_latency: us(50),

            signal_latency: us(50),
            pipe_latency: us(8),
            process_spawn: ms(120),
            library_load: ms(180),
        }
    }
}

impl PlatformParams {
    /// Effective parallel compute throughput of one Phi card, in FLOPS.
    pub fn phi_flops(&self) -> f64 {
        self.phi_cores as f64 * self.phi_gflops_per_core * 1e9
    }

    /// Render the configuration as a Table 2-style block (printed in every
    /// benchmark header).
    pub fn table2(&self) -> String {
        format!(
            "Simulated testbed (paper Table 2 equivalent):\n\
             \x20 Host     : {} cores @ {:.1} GFLOPS/core, {} GB RAM, disk {:.0} MB/s\n\
             \x20 Phi (x{}) : {} cores @ {:.1} GFLOPS/core, {} GB RAM (RAM-fs)\n\
             \x20 PCIe     : RDMA {:.1} GB/s (+{} setup), SCIF msg {} lat\n\
             \x20 Network  : {:.2} GB/s, {} lat",
            self.host_cores,
            self.host_gflops_per_core,
            self.host_mem / GB,
            self.host_disk_bw.0 / 1e6,
            self.num_devices,
            self.phi_cores,
            self.phi_gflops_per_core,
            self.phi_mem / GB,
            self.pcie_rdma_bw.0 / 1e9,
            self.pcie_rdma_latency,
            self.scif_msg_latency,
            self.net_bw.0 / 1e9,
            self.net_latency,
        )
    }
}

impl fmt::Display for PlatformParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let p = PlatformParams::default();
        assert_eq!(p.num_devices, 2);
        assert_eq!(p.phi_cores, 60);
        assert_eq!(p.phi_mem, 8 * GB);
        assert_eq!(p.host_mem, 32 * GB);
        // 5110P is ~1 TFLOP DP.
        assert!((p.phi_flops() - 1.008e12).abs() < 1e10);
    }

    #[test]
    fn table2_renders() {
        let s = PlatformParams::default().table2();
        assert!(s.contains("60 cores"));
        assert!(s.contains("8 GB"));
    }

    #[test]
    fn unit_constants() {
        assert_eq!(KB, 1024);
        assert_eq!(MB, 1024 * 1024);
        assert_eq!(GB, 1024 * 1024 * 1024);
    }
}
