//! NFS-based snapshot storage: the paper's baseline and its two buffered
//! optimizations (§6 "NFS").
//!
//! Three write paths are modeled:
//!
//! * [`NfsMode::Plain`] — the stock NFS mount: every logical `write(2)`
//!   pays client-side cost, data moves in serial `wsize` RPCs, and
//!   sub-page writes degenerate to synchronous read-modify-write RPC
//!   pairs. This is what makes BLCR (a page-at-a-time, small-preamble
//!   writer) slow in Table 4;
//! * [`NfsMode::BufferedKernel`] — the paper's modified BLCR kernel module
//!   that coalesces writes into large chunks before they reach NFS; the
//!   coalesced stream keeps multiple RPCs in flight, so it runs at wire
//!   bandwidth plus one RPC latency per chunk;
//! * [`NfsMode::BufferedUser`] — the user-space utility that buffers
//!   BLCR's output through a pipe: same coalescing, plus one extra copy
//!   and a small per-write pipe cost.
//!
//! Reads are identical in all modes (buffering "does not apply to the
//! cases of restarting or restoring", §7): serial `rsize` RPCs against the
//! host file system.

use std::sync::Arc;

use phi_platform::{FaultKind, FaultTarget, NodeId, Payload, PhiServer};
use simkernel::obs;
use simkernel::{BandwidthResource, SimMutex};
use simproc::{ByteSink, ByteSource, IoError};

use crate::config::NfsConfig;
use crate::storage::SnapshotStorage;

/// Which NFS write path to model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NfsMode {
    /// Stock NFS mount.
    Plain,
    /// Kernel-level write coalescing (modified BLCR module).
    BufferedKernel,
    /// User-level write coalescing (stdout redirection utility).
    BufferedUser,
}

impl NfsMode {
    /// Benchmark label.
    pub fn label(self) -> &'static str {
        match self {
            NfsMode::Plain => "NFS",
            NfsMode::BufferedKernel => "NFS-buffered (kernel)",
            NfsMode::BufferedUser => "NFS-buffered (user)",
        }
    }
}

struct NfsInner {
    server: PhiServer,
    config: NfsConfig,
    mode: NfsMode,
    /// One RPC pipe per SCIF node (the per-mount transport).
    mounts: SimMutex<Vec<Option<BandwidthResource>>>,
}

/// An NFS mount of the host file system on every coprocessor.
#[derive(Clone)]
pub struct Nfs {
    inner: Arc<NfsInner>,
}

impl Nfs {
    /// Create the mount model.
    pub fn new(server: &PhiServer, config: NfsConfig, mode: NfsMode) -> Nfs {
        let slots = server.num_devices() + 1;
        Nfs {
            inner: Arc::new(NfsInner {
                server: server.clone(),
                config,
                mode,
                mounts: SimMutex::new("nfs mounts", (0..slots).map(|_| None).collect()),
            }),
        }
    }

    /// The write-path mode.
    pub fn mode(&self) -> NfsMode {
        self.inner.mode
    }

    /// Consume any due chaos-plane NFS faults before `op`, modeling
    /// soft-mount retransmit semantics: each due
    /// [`FaultKind::NfsTimeout`] stalls the caller for the timeout
    /// window, then either retransmits (with exponential backoff, while
    /// the [`crate::config::RetryPolicy`] budget lasts) or surfaces
    /// [`IoError::Timeout`] to the caller.
    fn absorb_faults(&self, op: &str) -> Result<(), IoError> {
        let retry = self.inner.config.retry;
        // Label with the verb only ("write", not "write /path"): paths
        // would explode label cardinality.
        let verb = op.split_whitespace().next().unwrap_or(op);
        let mut attempt = 0u32;
        while let Some(fault) = self.inner.server.faults().take(FaultTarget::Nfs) {
            let stall = match fault {
                FaultKind::NfsTimeout(d) => d,
                // Other kinds aimed at the NFS target have no NFS
                // failure mode to model; consume them, but count the
                // drop so a misconfigured schedule is visible.
                other => {
                    obs::counter_add_labeled("chaos.nfs.ignored", &[("fault", other.label())], 1);
                    continue;
                }
            };
            simkernel::sleep(stall);
            let labels = [("op", verb), ("transport", "nfs")];
            obs::counter_add_labeled("io.timeouts", &labels, 1);
            if attempt >= retry.max_retries {
                obs::counter_add_labeled("chaos.surfaced", &labels, 1);
                return Err(IoError::Timeout(format!(
                    "nfs {op}: no server response after {} attempt(s)",
                    attempt + 1
                )));
            }
            obs::counter_add_labeled("chaos.retried", &labels, 1);
            simkernel::sleep(retry.backoff_for(attempt));
            attempt += 1;
        }
        Ok(())
    }

    fn mount(&self, node: NodeId) -> BandwidthResource {
        let mut mounts = self.inner.mounts.lock();
        let slot = node.0 as usize;
        if mounts[slot].is_none() {
            mounts[slot] = Some(BandwidthResource::new(
                format!("nfs-mount-{node}"),
                self.inner.config.wire_bw,
                self.inner.config.rpc_latency,
            ));
        }
        mounts[slot].clone().unwrap()
    }
}

/// Sink writing `path` on the host through an NFS mount on `local`.
pub struct NfsSink {
    nfs: Nfs,
    local: NodeId,
    path: String,
    granularity: Option<u64>,
    closed: bool,
}

impl ByteSink for NfsSink {
    fn write(&mut self, data: Payload) -> Result<(), IoError> {
        // Typed error, not a panic: chaos repros replay error-path
        // double-writes, and the simulated world must survive them.
        if self.closed {
            return Err(IoError::Closed);
        }
        let cfg = &self.nfs.inner.config;
        let len = data.len();
        if len == 0 {
            return Ok(());
        }
        // Chaos plane: absorb (or surface) any due RPC timeout before
        // side effects, so a surfaced error leaves no partial append.
        self.nfs.absorb_faults(&format!("write {}", self.path))?;
        let t0 = simkernel::now();
        let server = &self.nfs.inner.server;
        let logical = self.granularity.unwrap_or(len).min(len).max(1);
        match self.nfs.inner.mode {
            NfsMode::Plain => {
                // Client-side per-write cost.
                let writes = len.div_ceil(logical);
                simkernel::sleep(cfg.write_syscall_cost * writes);
                // Sub-page writes: synchronous read-modify-write RPC pairs.
                // Page-or-larger sequential writes coalesce up to wsize.
                let ops = if logical < 4096 {
                    writes * 2
                } else {
                    len.div_ceil(cfg.wsize)
                };
                if !self.local.is_host() {
                    obs::counter_add("nfs.write_rpcs", ops);
                    self.nfs.mount(self.local).transfer_as_ops(len, ops);
                }
            }
            NfsMode::BufferedKernel | NfsMode::BufferedUser => {
                if self.nfs.inner.mode == NfsMode::BufferedUser {
                    // Extra copy through the buffering process's pipe.
                    let writes = len.div_ceil(logical);
                    simkernel::sleep(cfg.user_pipe_cost * writes);
                    server.node(self.local).memcpy(len);
                }
                // Coalesced, pipelined stream: wire-bound, one RPC latency
                // per buffered chunk.
                if !self.local.is_host() {
                    let chunk = match self.nfs.inner.mode {
                        NfsMode::BufferedKernel => cfg.kernel_buffer_chunk,
                        _ => cfg.user_buffer_chunk,
                    };
                    let ops = len.div_ceil(chunk.max(1)).max(1);
                    // Pipelined: latency amortized to one per chunk *batch*;
                    // approximate by charging the wire plus a single
                    // latency per call, independent of ops.
                    obs::counter_add("nfs.write_rpcs", ops);
                    self.nfs.mount(self.local).transfer(len);
                }
            }
        }
        // Server-side write-back (asynchronous, like any NFS server).
        server.host().fs().append_async(&self.path, data)?;
        obs::counter_add(&format!("io.{}.bytes_written", self.nfs.label()), len);
        if obs::is_enabled() {
            obs::sketch_observe_labeled(
                "io.write_ns",
                &[("op", "write"), ("transport", "nfs")],
                (simkernel::now() - t0).as_nanos(),
            );
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), IoError> {
        // Close-to-open consistency: an NFS close commits outstanding
        // writes to the server before returning. A timeout due at close
        // time still stalls (or surfaces), and the server's asynchronous
        // write-back is drained so the file really is durable when the
        // caller sees Ok.
        self.nfs.absorb_faults(&format!("close {}", self.path))?;
        self.nfs.inner.server.host().fs().sync();
        self.closed = true;
        Ok(())
    }

    fn set_write_granularity(&mut self, granularity: Option<u64>) {
        self.granularity = granularity;
    }
}

/// Source reading `path` on the host through an NFS mount on `local`.
pub struct NfsSource {
    nfs: Nfs,
    local: NodeId,
    path: String,
    offset: u64,
}

impl ByteSource for NfsSource {
    fn read(&mut self, max: u64) -> Result<Option<Payload>, IoError> {
        // Chaos plane: a due RPC timeout stalls (and may fail) the read
        // before any data moves — the offset only advances on success.
        self.nfs.absorb_faults(&format!("read {}", self.path))?;
        let cfg = &self.nfs.inner.config;
        let fs = self.nfs.inner.server.host().fs();
        let size = fs.len(&self.path)?;
        if self.offset >= size {
            return Ok(None);
        }
        let take = max.min(size - self.offset);
        let chunk = fs.read(&self.path, self.offset, take)?;
        self.offset += take;
        if !self.local.is_host() {
            simkernel::sleep(cfg.read_call_cost);
            let ops = take.div_ceil(cfg.rsize).max(1);
            obs::counter_add("nfs.read_rpcs", ops);
            self.nfs.mount(self.local).transfer_as_ops(take, ops);
        }
        obs::counter_add(&format!("io.{}.bytes_read", self.nfs.label()), take);
        Ok(Some(chunk))
    }
}

impl SnapshotStorage for Nfs {
    fn sink(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSink>, IoError> {
        self.inner.server.host().fs().create_or_truncate(path);
        Ok(Box::new(NfsSink {
            nfs: self.clone(),
            local,
            path: path.to_string(),
            granularity: None,
            closed: false,
        }))
    }

    fn source(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSource>, IoError> {
        if !self.inner.server.host().fs().exists(path) {
            return Err(IoError::Fs(phi_platform::FsError::NotFound(
                path.to_string(),
            )));
        }
        Ok(Box::new(NfsSource {
            nfs: self.clone(),
            local,
            path: path.to_string(),
            offset: 0,
        }))
    }

    fn label(&self) -> &'static str {
        self.inner.mode.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_platform::{GB, MB};
    use simkernel::{now, Kernel};

    fn write_with(nfs: &Nfs, data: &Payload, granularity: Option<u64>) -> f64 {
        let mut sink = nfs.sink(NodeId::device(0), "/snap/f").unwrap();
        sink.set_write_granularity(granularity);
        let t0 = now();
        for chunk in data.chunks(8 << 20) {
            sink.write(chunk).unwrap();
        }
        sink.close().unwrap();
        (now() - t0).as_secs_f64()
    }

    #[test]
    fn plain_write_is_rpc_bound() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let t = write_with(&nfs, &Payload::synthetic(1, GB), None);
            // ~170 MB/s → roughly 5.5–7.5 s per GiB.
            assert!(t > 4.5 && t < 8.5, "t = {t}");
        });
    }

    #[test]
    fn page_granular_writes_hurt_plain_nfs() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let big = write_with(&nfs, &Payload::synthetic(1, 256 * MB), None);
            let paged = write_with(&nfs, &Payload::synthetic(2, 256 * MB), Some(4096));
            assert!(paged > big * 1.2, "paged={paged} big={big}");
        });
    }

    #[test]
    fn kernel_buffering_beats_plain_for_paged_writes() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let plain = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let kbuf = Nfs::new(&server, NfsConfig::default(), NfsMode::BufferedKernel);
            let ubuf = Nfs::new(&server, NfsConfig::default(), NfsMode::BufferedUser);
            let data = Payload::synthetic(1, 256 * MB);
            let t_plain = write_with(&plain, &data, Some(4096));
            let t_kbuf = write_with(&kbuf, &data, Some(4096));
            let t_ubuf = write_with(&ubuf, &data, Some(4096));
            // Paper: kernel buffering boosts NFS "to a large degree",
            // user-space buffering "to a lesser degree".
            assert!(t_kbuf < t_plain / 2.0, "kbuf={t_kbuf} plain={t_plain}");
            assert!(t_ubuf < t_plain, "ubuf={t_ubuf} plain={t_plain}");
            assert!(t_kbuf < t_ubuf, "kbuf={t_kbuf} ubuf={t_ubuf}");
        });
    }

    #[test]
    fn sub_page_writes_degenerate_to_sync_rpcs() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let mut sink = nfs.sink(NodeId::device(0), "/snap/meta").unwrap();
            let t0 = now();
            for _ in 0..96 {
                sink.write(Payload::synthetic(0, 256)).unwrap();
            }
            sink.close().unwrap();
            let t = (now() - t0).as_secs_f64();
            // 96 × 2 sync RPCs at 270 us ≈ 52 ms.
            assert!(t > 0.04 && t < 0.09, "t = {t}");
        });
    }

    #[test]
    fn read_is_identical_across_modes() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let plain = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let kbuf = Nfs::new(&server, NfsConfig::default(), NfsMode::BufferedKernel);
            server
                .host()
                .fs()
                .append("/snap/r", Payload::synthetic(1, 64 * MB))
                .unwrap();
            let read_time = |nfs: &Nfs| {
                let mut src = nfs.source(NodeId::device(0), "/snap/r").unwrap();
                let t0 = now();
                while src.read(8 << 20).unwrap().is_some() {}
                (now() - t0).as_secs_f64()
            };
            let t1 = read_time(&plain);
            let t2 = read_time(&kbuf);
            assert!((t1 - t2).abs() / t1 < 0.05, "t1={t1} t2={t2}");
        });
    }

    #[test]
    fn roundtrip_preserves_content() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let data = Payload::bytes((0..200u8).collect::<Vec<_>>());
            let mut sink = nfs.sink(NodeId::device(0), "/snap/rt").unwrap();
            sink.write(data.clone()).unwrap();
            sink.close().unwrap();
            let mut src = nfs.source(NodeId::device(0), "/snap/rt").unwrap();
            let mut out = Payload::empty();
            while let Some(c) = src.read(64).unwrap() {
                out.append(c);
            }
            assert_eq!(out.to_bytes(), data.to_bytes());
        });
    }

    #[test]
    fn missing_file_read_fails() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            assert!(nfs.source(NodeId::device(0), "/nope").is_err());
        });
    }

    #[test]
    fn nfs_timeout_is_retried_transparently() {
        use phi_platform::{FaultSchedule, PlatformParams};
        use simkernel::time::{ms, SimTime};
        Kernel::run_root(|| {
            let schedule = FaultSchedule::none().with(
                SimTime::ZERO,
                FaultTarget::Nfs,
                FaultKind::NfsTimeout(ms(50)),
            );
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let data = Payload::synthetic(7, MB);
            let t0 = now();
            let mut sink = nfs.sink(NodeId::device(0), "/snap/retry").unwrap();
            sink.write(data.clone()).unwrap();
            sink.close().unwrap();
            // The one-shot timeout stalled us at least the timeout window.
            assert!((now() - t0).as_secs_f64() >= 0.05);
            assert_eq!(server.faults().fired_count(), 1);
            // No silent corruption: the round trip is intact.
            let mut src = nfs.source(NodeId::device(0), "/snap/retry").unwrap();
            let mut out = Payload::empty();
            while let Some(c) = src.read(1 << 20).unwrap() {
                out.append(c);
            }
            assert_eq!(out.digest(), data.digest());
        });
    }

    #[test]
    fn nfs_timeout_surfaces_typed_error_when_budget_exhausted() {
        use crate::config::RetryPolicy;
        use phi_platform::{FaultSchedule, PlatformParams};
        use simkernel::time::{ms, SimTime};
        Kernel::run_root(|| {
            let schedule = FaultSchedule::none().with(
                SimTime::ZERO,
                FaultTarget::Nfs,
                FaultKind::NfsTimeout(ms(50)),
            );
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let config = NfsConfig {
                retry: RetryPolicy::disabled(),
                ..NfsConfig::default()
            };
            let nfs = Nfs::new(&server, config, NfsMode::Plain);
            let mut sink = nfs.sink(NodeId::device(0), "/snap/hard").unwrap();
            let err = sink.write(Payload::synthetic(7, MB)).unwrap_err();
            assert!(matches!(err, IoError::Timeout(_)), "got {err}");
            assert!(err.is_transient());
            // Failed before side effects: nothing was appended.
            let fs = server.host().fs();
            assert_eq!(fs.len("/snap/hard").unwrap(), 0);
        });
    }

    #[test]
    fn write_after_close_is_typed_error() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let mut sink = nfs.sink(NodeId::device(0), "/snap/wc").unwrap();
            sink.write(Payload::synthetic(1, MB)).unwrap();
            sink.close().unwrap();
            let err = sink.write(Payload::synthetic(1, MB)).unwrap_err();
            assert_eq!(err, IoError::Closed);
        });
    }

    #[test]
    fn non_timeout_faults_are_consumed_and_counted() {
        use phi_platform::{FaultSchedule, PlatformParams};
        use simkernel::time::SimTime;
        Kernel::run_root(|| {
            // An Oom aimed at the NFS target has no NFS failure mode to
            // model. It must be consumed (not left due forever) and the
            // drop recorded under chaos.nfs.ignored, not swallowed.
            let schedule =
                FaultSchedule::none().with(SimTime::ZERO, FaultTarget::Nfs, FaultKind::Oom);
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let data = Payload::synthetic(7, MB);
            let mut sink = nfs.sink(NodeId::device(0), "/snap/ig").unwrap();
            sink.write(data.clone()).unwrap();
            sink.close().unwrap();
            assert_eq!(server.faults().fired_count(), 1, "fault was consumed");
            // The write itself was unaffected.
            assert_eq!(server.host().fs().len("/snap/ig").unwrap(), data.len());
        });
    }

    #[test]
    fn timeout_between_last_write_and_close_surfaces() {
        use crate::config::RetryPolicy;
        use phi_platform::{FaultSchedule, PlatformParams};
        use simkernel::time::{ms, SimTime};
        Kernel::run_root(|| {
            // Same durability window as the scp sink: the old no-op close
            // ignored faults due after the last write, reporting the file
            // durable with the server unreachable.
            let schedule = FaultSchedule::none().with(
                SimTime(ms(500).as_nanos()),
                FaultTarget::Nfs,
                FaultKind::NfsTimeout(ms(50)),
            );
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let config = NfsConfig {
                retry: RetryPolicy::disabled(),
                ..NfsConfig::default()
            };
            let nfs = Nfs::new(&server, config, NfsMode::Plain);
            let mut sink = nfs.sink(NodeId::device(0), "/snap/latec").unwrap();
            sink.write(Payload::synthetic(7, MB)).unwrap();
            simkernel::sleep(ms(600));
            let err = sink.close().unwrap_err();
            assert!(matches!(err, IoError::Timeout(_)), "got {err}");
            assert_eq!(server.faults().fired_count(), 1, "close saw the timeout");
        });
    }

    #[test]
    fn nfs_read_timeout_does_not_advance_offset() {
        use phi_platform::{FaultSchedule, PlatformParams};
        use simkernel::time::{us, SimTime};
        Kernel::run_root(|| {
            // Four back-to-back timeouts exhaust the default 3-retry
            // budget on the first read; the next read call then succeeds
            // from the same offset.
            let mut schedule = FaultSchedule::none();
            for _ in 0..4 {
                schedule = schedule.with(
                    SimTime::ZERO,
                    FaultTarget::Nfs,
                    FaultKind::NfsTimeout(us(100)),
                );
            }
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let data = Payload::synthetic(3, MB);
            server.host().fs().append("/snap/ro", data.clone()).unwrap();
            let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let mut src = nfs.source(NodeId::device(0), "/snap/ro").unwrap();
            let err = src.read(1 << 20).unwrap_err();
            assert!(matches!(err, IoError::Timeout(_)), "got {err}");
            let mut out = Payload::empty();
            while let Some(c) = src.read(1 << 20).unwrap() {
                out.append(c);
            }
            assert_eq!(out.digest(), data.digest(), "retry resumed cleanly");
        });
    }
}
