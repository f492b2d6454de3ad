//! Calibrated cost-model parameters for the snapshot transports.

use simkernel::time::{ms, us};
use simkernel::{Bandwidth, SimDuration};

/// Retry policy for transient transport faults (NFS timeouts, scp
/// connection resets — injected by the chaos plane or, on real
/// hardware, just Tuesday).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries allowed after the initial attempt. `0` surfaces the
    /// first transient error to the caller.
    pub max_retries: u32,
    /// Backoff slept before the first retry; doubles on each further
    /// retry (capped at `backoff * 1024`).
    pub backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff: ms(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (chaos-explorer bug-demo knob).
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff: SimDuration::ZERO,
        }
    }

    /// Exponential backoff before retry number `attempt` (0-based).
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        self.backoff * (1u64 << attempt.min(10))
    }
}

/// Snapify-IO configuration (§6).
#[derive(Clone, Debug)]
pub struct SnapifyIoConfig {
    /// Size of the registered RDMA staging buffer per connection. "To
    /// balance between the requirement of minimizing memory footprint and
    /// the need of shorter transfer latency, the buffer size is set at
    /// 4 MB" (§6).
    pub buffer_size: u64,
    /// One-time cost of `snapifyio_open`: UNIX-socket connect, SCIF
    /// connect, and registering the staging buffer (page pinning).
    pub open_overhead: SimDuration,
    /// Size of the chunk-ready notification message (`scif_send`).
    pub notify_bytes: u64,
    /// Effective number of device-side copies per byte (user↔socket and
    /// socket↔staging buffer; the second copy partially overlaps the DMA,
    /// hence the fractional default).
    pub socket_copies: f64,
}

impl Default for SnapifyIoConfig {
    fn default() -> SnapifyIoConfig {
        SnapifyIoConfig {
            buffer_size: 4 << 20,
            open_overhead: ms(9),
            notify_bytes: 64,
            socket_copies: 1.5,
        }
    }
}

/// NFS mount configuration (the host fs exported to the coprocessors).
#[derive(Clone, Debug)]
pub struct NfsConfig {
    /// Maximum bytes per write RPC.
    pub wsize: u64,
    /// Maximum bytes per read RPC.
    pub rsize: u64,
    /// Per-RPC overhead (request/response processing + round trip).
    pub rpc_latency: SimDuration,
    /// Wire bandwidth of the NFS transport (virtio network over PCIe).
    pub wire_bw: Bandwidth,
    /// Per-logical-`write(2)` client-side cost (syscall + NFS client page
    /// handling) — the "high latency of small writes" (§6): a checkpointer
    /// writing 4 KiB pages pays this for every page unless a buffering
    /// layer coalesces first.
    pub write_syscall_cost: SimDuration,
    /// Coalescing chunk of the modified-BLCR kernel buffer.
    pub kernel_buffer_chunk: u64,
    /// Coalescing chunk of the user-space buffering utility.
    pub user_buffer_chunk: u64,
    /// Per-logical-write cost of the user-space utility (pipe copy
    /// overhead; much cheaper than an NFS RPC but not free).
    pub user_pipe_cost: SimDuration,
    /// Per-`read(2)`-call client cost (attribute revalidation, readahead
    /// miss). Dominant for BLCR's small restart reads; negligible for the
    /// large reads of a file copy.
    pub read_call_cost: SimDuration,
    /// Retry policy for RPC timeouts (soft-mount semantics with bounded
    /// retransmits).
    pub retry: RetryPolicy,
}

impl Default for NfsConfig {
    fn default() -> NfsConfig {
        NfsConfig {
            wsize: 64 << 10,
            rsize: 96 << 10,
            rpc_latency: us(270),
            wire_bw: Bandwidth::mb_per_sec(600.0),
            write_syscall_cost: us(9),
            kernel_buffer_chunk: 1 << 20,
            user_buffer_chunk: 1 << 20,
            user_pipe_cost: us(2),
            read_call_cost: us(400),
            retry: RetryPolicy::default(),
        }
    }
}

/// scp (ssh streaming copy) configuration.
#[derive(Clone, Debug)]
pub struct ScpConfig {
    /// Cipher + protocol throughput on a single in-order Phi core — the
    /// bottleneck that makes scp 20–30× slower than Snapify-IO.
    pub cipher_bw: Bandwidth,
    /// Connection setup (ssh handshake).
    pub setup: SimDuration,
    /// Stream chunking.
    pub chunk: u64,
    /// Retry policy for connection resets. A retry reconnects (paying
    /// `setup` again) and resumes from the last fully-shipped chunk.
    pub retry: RetryPolicy,
}

impl Default for ScpConfig {
    fn default() -> ScpConfig {
        ScpConfig {
            cipher_bw: Bandwidth::mb_per_sec(34.0),
            setup: ms(180),
            chunk: 256 << 10,
            retry: RetryPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = SnapifyIoConfig::default();
        assert_eq!(c.buffer_size, 4 << 20, "the paper fixes the buffer at 4MB");
        let n = NfsConfig::default();
        assert!(n.wsize >= 32 << 10);
        let s = ScpConfig::default();
        assert!(s.cipher_bw.0 < 100e6, "scp must be cipher-bound");
    }
}
