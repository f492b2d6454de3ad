//! The Snapify-IO remote file access service (§6).
//!
//! Snapify-IO gives a process on any SCIF node a plain file descriptor
//! that reads or writes a file on another node, moving the bytes with
//! SCIF RDMA through a reusable registered staging buffer:
//!
//! * **write** (device → host): the user's bytes are copied through the
//!   UNIX socket into the staging buffer (one device-side memcpy); when
//!   the buffer fills, the local daemon notifies the remote daemon
//!   (`scif_send`), which pulls the data with `scif_vreadfrom` (PCIe DMA)
//!   and appends it to the target file **asynchronously** — the host-side
//!   file write overlaps the next chunk's staging, which is why this
//!   direction is the fastest (§7);
//! * **read** (host → device): the remote daemon reads the file
//!   (synchronously — it cannot RDMA data it has not read), pushes it into
//!   the staging buffer with `scif_vwriteto`, and the local daemon copies
//!   it to the user's socket.
//!
//! The staging buffer is charged against *both* nodes' physical memory
//! for the lifetime of the descriptor, and the per-open cost (socket +
//! SCIF connect + buffer registration) is what lets NFS win at 1 MB in
//! Table 3.

use std::sync::Arc;

use phi_platform::{FaultKind, FaultTarget, MemAlloc, NodeId, Payload, PhiServer};
use simkernel::obs;
use simproc::{ByteSink, ByteSource, IoError};

use crate::config::SnapifyIoConfig;

/// The Snapify-IO service for one server (conceptually: one daemon per
/// SCIF node). Cheap to clone.
#[derive(Clone)]
pub struct SnapifyIo {
    inner: Arc<IoInner>,
}

struct IoInner {
    server: PhiServer,
    config: SnapifyIoConfig,
}

impl SnapifyIo {
    /// Start the service on `server` with the given configuration.
    pub fn new(server: &PhiServer, config: SnapifyIoConfig) -> SnapifyIo {
        SnapifyIo {
            inner: Arc::new(IoInner {
                server: server.clone(),
                config,
            }),
        }
    }

    /// Start with the default (paper) configuration.
    pub fn new_default(server: &PhiServer) -> SnapifyIo {
        SnapifyIo::new(server, SnapifyIoConfig::default())
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SnapifyIoConfig {
        &self.inner.config
    }

    /// `snapifyio_open` in write mode: returns a sink writing `path` on
    /// `target`'s file system, callable from `local`.
    pub fn open_write(
        &self,
        local: NodeId,
        target: NodeId,
        path: &str,
    ) -> Result<SnapifyIoSink, IoError> {
        let (local_buf, remote_buf) = self.open_common(local, target)?;
        let fs = self.inner.server.node(target).fs();
        fs.create_or_truncate(path);
        Ok(SnapifyIoSink {
            io: self.clone(),
            local,
            target,
            path: path.to_string(),
            _local_buf: local_buf,
            _remote_buf: remote_buf,
            closed: false,
        })
    }

    /// `snapifyio_open` in read mode: returns a source reading `path` on
    /// `target`'s file system, callable from `local`.
    pub fn open_read(
        &self,
        local: NodeId,
        target: NodeId,
        path: &str,
    ) -> Result<SnapifyIoSource, IoError> {
        let fs = self.inner.server.node(target).fs();
        if !fs.exists(path) {
            return Err(IoError::Fs(phi_platform::FsError::NotFound(
                path.to_string(),
            )));
        }
        let (local_buf, remote_buf) = self.open_common(local, target)?;
        Ok(SnapifyIoSource {
            io: self.clone(),
            local,
            target,
            path: path.to_string(),
            offset: 0,
            _local_buf: local_buf,
            _remote_buf: remote_buf,
        })
    }

    /// Socket + SCIF connection setup and staging-buffer registration on
    /// both daemons. The sequence mirrors `snapifyio_open`: UNIX socket
    /// to the local daemon, local staging buffer, SCIF connect to the
    /// remote daemon, remote staging buffer. Any failure after the local
    /// registration must release the charged memory on the way out —
    /// each allocation is held in a [`MemAlloc`] RAII guard, so every
    /// `?` below unwinds to baseline instead of leaking node memory.
    fn open_common(
        &self,
        local: NodeId,
        target: NodeId,
    ) -> Result<(Option<MemAlloc>, Option<MemAlloc>), IoError> {
        simkernel::sleep(self.inner.config.open_overhead);
        let alloc = |node: NodeId| -> Result<Option<MemAlloc>, IoError> {
            MemAlloc::new(
                self.inner.server.node(node).mem(),
                self.inner.config.buffer_size,
            )
            .map(Some)
            .map_err(|e| IoError::Other(e.to_string()))
        };
        let local_buf = alloc(local)?;
        if local != target {
            // The socket is up and the local buffer is registered; the
            // SCIF connect is the step the chaos plane can fault.
            self.scif_connect(local, target)?;
        }
        let remote_buf = alloc(target)?;
        Ok((local_buf, remote_buf))
    }

    /// The SCIF connect leg of an open, consulting the chaos plane on
    /// the PCIe link it crosses: a CRC error replays the handshake (the
    /// link-level contract — callers only see latency), a delay spike
    /// stalls it, and a connection reset surfaces as a typed error (the
    /// remote daemon never picked up).
    fn scif_connect(&self, local: NodeId, target: NodeId) -> Result<(), IoError> {
        let device_end = if local.is_host() { target } else { local };
        let idx = device_end
            .device_index()
            .expect("one end of a cross-node open is a device");
        match self.inner.server.faults().take(FaultTarget::Bus(idx)) {
            Some(FaultKind::ConnReset) => {
                obs::counter_add_labeled(
                    "chaos.surfaced",
                    &[("op", "open"), ("transport", "snapify-io")],
                    1,
                );
                Err(IoError::ConnReset(format!(
                    "snapify-io open {local}->{target}: scif connect reset"
                )))
            }
            Some(FaultKind::BusError) => {
                obs::counter_add("chaos.bus.replays", 1);
                simkernel::sleep(self.inner.config.open_overhead);
                Ok(())
            }
            Some(FaultKind::BusDelay(d)) => {
                obs::counter_add("chaos.bus.delays", 1);
                simkernel::sleep(d);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// One write-path chunk cycle: local staging copy, notification, DMA,
    /// asynchronous remote file append.
    fn write_chunk(
        &self,
        local: NodeId,
        target: NodeId,
        path: &str,
        chunk: Payload,
    ) -> Result<(), IoError> {
        let server = &self.inner.server;
        let t0 = simkernel::now();
        // Copy through the UNIX socket into the registered buffer.
        server
            .node(local)
            .memcpy((chunk.len() as f64 * self.inner.config.socket_copies) as u64);
        if local != target {
            // Chunk-ready notification + DMA pull by the remote daemon.
            server
                .link_between(local, target)
                .message_transfer(self.inner.config.notify_bytes);
            server.rdma_between(local, target, chunk.len());
        }
        // The remote daemon appends asynchronously; the writer does not
        // wait for the file system (§7: the host flush runs in parallel).
        obs::counter_add("io.Snapify-IO.bytes_written", chunk.len());
        obs::counter_add("io.Snapify-IO.chunks_written", 1);
        server.node(target).fs().append_async(path, chunk)?;
        if obs::is_enabled() {
            obs::sketch_observe_labeled(
                "io.chunk_ns",
                &[("op", "write"), ("transport", "snapify-io")],
                (simkernel::now() - t0).as_nanos(),
            );
        }
        Ok(())
    }

    /// One read-path chunk cycle: synchronous remote file read, DMA push,
    /// local socket copy.
    fn read_chunk(
        &self,
        local: NodeId,
        target: NodeId,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Result<Payload, IoError> {
        let server = &self.inner.server;
        let t0 = simkernel::now();
        let chunk = server.node(target).fs().read(path, offset, len)?;
        if local != target {
            // Mirror of the write path: notification + DMA push.
            server
                .link_between(local, target)
                .message_transfer(self.inner.config.notify_bytes);
            server.rdma_between(target, local, chunk.len());
        }
        server
            .node(local)
            .memcpy((chunk.len() as f64 * self.inner.config.socket_copies) as u64);
        obs::counter_add("io.Snapify-IO.bytes_read", chunk.len());
        obs::counter_add("io.Snapify-IO.chunks_read", 1);
        if obs::is_enabled() {
            obs::sketch_observe_labeled(
                "io.chunk_ns",
                &[("op", "read"), ("transport", "snapify-io")],
                (simkernel::now() - t0).as_nanos(),
            );
        }
        Ok(chunk)
    }
}

/// Writable Snapify-IO descriptor (the fd handed to BLCR for a capture).
pub struct SnapifyIoSink {
    io: SnapifyIo,
    local: NodeId,
    target: NodeId,
    path: String,
    _local_buf: Option<MemAlloc>,
    _remote_buf: Option<MemAlloc>,
    closed: bool,
}

impl ByteSink for SnapifyIoSink {
    fn write(&mut self, data: Payload) -> Result<(), IoError> {
        // Typed error, not a panic: chaos repros replay error-path
        // double-writes, and the simulated world must survive them.
        if self.closed {
            return Err(IoError::Closed);
        }
        for chunk in data.chunks(self.io.inner.config.buffer_size) {
            self.io
                .write_chunk(self.local, self.target, &self.path, chunk)?;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), IoError> {
        // Intentionally does NOT drain the remote append queue: §7's
        // measured asymmetry (writes beat reads) comes from the host
        // flush overlapping the next operation, and the capture protocol
        // has its own completion barrier. This differs from the scp/NFS
        // sinks, whose transports promise durability at close.
        self.closed = true;
        Ok(())
    }
    // Write granularity is irrelevant: the socket buffers the stream.
}

/// Readable Snapify-IO descriptor (the fd BLCR restores from).
pub struct SnapifyIoSource {
    io: SnapifyIo,
    local: NodeId,
    target: NodeId,
    path: String,
    offset: u64,
    _local_buf: Option<MemAlloc>,
    _remote_buf: Option<MemAlloc>,
}

impl ByteSource for SnapifyIoSource {
    fn read(&mut self, max: u64) -> Result<Option<Payload>, IoError> {
        let fs = self.io.inner.server.node(self.target).fs();
        let size = fs.len(&self.path)?;
        if self.offset >= size {
            return Ok(None);
        }
        let take = max
            .min(size - self.offset)
            .min(self.io.inner.config.buffer_size);
        let chunk = self
            .io
            .read_chunk(self.local, self.target, &self.path, self.offset, take)?;
        self.offset += take;
        Ok(Some(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_platform::{GB, MB};
    use simkernel::{now, Kernel};

    fn setup() -> (SnapifyIo, PhiServer) {
        let server = PhiServer::default_server();
        (SnapifyIo::new_default(&server), server)
    }

    fn write_all(io: &SnapifyIo, from: NodeId, to: NodeId, path: &str, data: &Payload) {
        let mut sink = io.open_write(from, to, path).unwrap();
        for chunk in data.chunks(8 << 20) {
            sink.write(chunk).unwrap();
        }
        sink.close().unwrap();
    }

    fn read_all(io: &SnapifyIo, from: NodeId, to: NodeId, path: &str) -> Payload {
        let mut src = io.open_read(from, to, path).unwrap();
        let mut out = Payload::empty();
        while let Some(c) = src.read(8 << 20).unwrap() {
            out.append(c);
        }
        out
    }

    #[test]
    fn roundtrip_preserves_content() {
        Kernel::run_root(|| {
            let (io, _) = setup();
            let dev = NodeId::device(0);
            let data = Payload::synthetic(7, 64 * MB);
            write_all(&io, dev, NodeId::HOST, "/snap/f", &data);
            let back = read_all(&io, dev, NodeId::HOST, "/snap/f");
            assert_eq!(back.digest(), data.digest());
        });
    }

    #[test]
    fn roundtrip_real_bytes() {
        Kernel::run_root(|| {
            let (io, _) = setup();
            let dev = NodeId::device(0);
            let data = Payload::bytes((0..=255u8).cycle().take(10_000).collect::<Vec<_>>());
            write_all(&io, dev, NodeId::HOST, "/snap/b", &data);
            let back = read_all(&io, dev, NodeId::HOST, "/snap/b");
            assert_eq!(back.to_bytes(), data.to_bytes());
        });
    }

    #[test]
    fn write_is_faster_than_read_at_1gb() {
        Kernel::run_root(|| {
            let (io, _) = setup();
            let dev = NodeId::device(0);
            let data = Payload::synthetic(1, GB);
            let t0 = now();
            write_all(&io, dev, NodeId::HOST, "/snap/w", &data);
            let write_time = now() - t0;
            let t1 = now();
            let _ = read_all(&io, dev, NodeId::HOST, "/snap/w");
            let read_time = now() - t1;
            // The asynchronous host-side flush makes writes faster (§7).
            assert!(
                write_time < read_time,
                "write {write_time} vs read {read_time}"
            );
            // Both land around 1 GB/s (0.7–1.6s for 1 GiB).
            assert!(write_time.as_secs_f64() > 0.5 && write_time.as_secs_f64() < 1.6);
            assert!(read_time.as_secs_f64() < 2.5);
        });
    }

    #[test]
    fn open_overhead_dominates_tiny_files() {
        Kernel::run_root(|| {
            let (io, _) = setup();
            let dev = NodeId::device(0);
            let t0 = now();
            write_all(
                &io,
                dev,
                NodeId::HOST,
                "/snap/tiny",
                &Payload::synthetic(1, MB),
            );
            let elapsed = now() - t0;
            // Mostly the 9 ms open overhead, not the 1 MB of data.
            assert!(elapsed.as_millis_f64() > 8.0);
            assert!(elapsed.as_millis_f64() < 15.0);
        });
    }

    #[test]
    fn staging_buffers_charge_both_nodes() {
        Kernel::run_root(|| {
            let (io, server) = setup();
            let dev = NodeId::device(0);
            let sink = io.open_write(dev, NodeId::HOST, "/snap/f").unwrap();
            assert_eq!(server.device(0).mem().used(), 4 << 20);
            assert_eq!(server.host().mem().used(), 4 << 20);
            drop(sink);
            assert_eq!(server.device(0).mem().used(), 0);
            assert_eq!(server.host().mem().used(), 0);
        });
    }

    #[test]
    fn faulted_scif_connect_fails_open_and_releases_staging_memory() {
        use phi_platform::{FaultKind, FaultSchedule, FaultTarget, PlatformParams};
        use simkernel::time::SimTime;
        Kernel::run_root(|| {
            // Socket ok, local buffer registered, then the SCIF connect
            // is reset. The open must fail typed and the already-charged
            // local staging buffer must be released — before the fix the
            // open never consulted the fault plane at all, so this
            // schedule produced a successful open.
            let schedule = FaultSchedule::none().with(
                SimTime::ZERO,
                FaultTarget::Bus(0),
                FaultKind::ConnReset,
            );
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let io = SnapifyIo::new_default(&server);
            let dev = NodeId::device(0);
            let err = io.open_write(dev, NodeId::HOST, "/snap/f").err().unwrap();
            assert!(matches!(err, IoError::ConnReset(_)), "got {err}");
            assert_eq!(server.faults().fired_count(), 1);
            assert_eq!(server.device(0).mem().used(), 0, "local buffer leaked");
            assert_eq!(server.host().mem().used(), 0);
        });
    }

    #[test]
    fn oom_on_remote_buffer_releases_local_buffer() {
        Kernel::run_root(|| {
            let (io, server) = setup();
            let dev = NodeId::device(0);
            // Fill the host so the remote staging buffer cannot register.
            let baseline_dev = server.device(0).mem().used();
            let _filler = MemAlloc::new(server.host().mem(), server.host().mem().available());
            let err = io.open_write(dev, NodeId::HOST, "/snap/f").err().unwrap();
            assert!(matches!(err, IoError::Other(_)), "got {err}");
            assert_eq!(
                server.device(0).mem().used(),
                baseline_dev,
                "local buffer must be released when the remote alloc fails"
            );
        });
    }

    #[test]
    fn bus_error_during_connect_is_transparent() {
        use phi_platform::{FaultKind, FaultSchedule, FaultTarget, PlatformParams};
        use simkernel::time::SimTime;
        Kernel::run_root(|| {
            let schedule =
                FaultSchedule::none().with(SimTime::ZERO, FaultTarget::Bus(0), FaultKind::BusError);
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let io = SnapifyIo::new_default(&server);
            let dev = NodeId::device(0);
            let data = Payload::synthetic(7, MB);
            let t0 = now();
            write_all(&io, dev, NodeId::HOST, "/snap/f", &data);
            // The replayed handshake pays the open overhead twice.
            assert!((now() - t0).as_millis_f64() > 17.0);
            assert_eq!(server.faults().fired_count(), 1);
            let back = read_all(&io, dev, NodeId::HOST, "/snap/f");
            assert_eq!(back.digest(), data.digest());
        });
    }

    #[test]
    fn write_after_close_is_typed_error() {
        Kernel::run_root(|| {
            let (io, _) = setup();
            let mut sink = io
                .open_write(NodeId::device(0), NodeId::HOST, "/snap/wc")
                .unwrap();
            sink.write(Payload::synthetic(1, MB)).unwrap();
            sink.close().unwrap();
            let err = sink.write(Payload::synthetic(1, MB)).unwrap_err();
            assert_eq!(err, IoError::Closed);
        });
    }

    #[test]
    fn read_missing_file_fails() {
        Kernel::run_root(|| {
            let (io, _) = setup();
            assert!(io
                .open_read(NodeId::device(0), NodeId::HOST, "/nope")
                .is_err());
        });
    }

    #[test]
    fn device_to_device_transfer_works() {
        Kernel::run_root(|| {
            let (io, server) = setup();
            let data = Payload::synthetic(3, 32 * MB);
            write_all(&io, NodeId::device(0), NodeId::device(1), "/tmp/p2p", &data);
            // Stored on device 1's RAM fs, charging its memory.
            assert!(server.device(1).mem().used() >= 32 * MB);
            let back = read_all(&io, NodeId::device(0), NodeId::device(1), "/tmp/p2p");
            assert_eq!(back.digest(), data.digest());
        });
    }

    #[test]
    fn host_local_access_skips_pcie() {
        Kernel::run_root(|| {
            let (io, server) = setup();
            let data = Payload::synthetic(9, 16 * MB);
            write_all(&io, NodeId::HOST, NodeId::HOST, "/snap/l", &data);
            assert_eq!(server.link(0).rdma_stats().0, 0);
            assert_eq!(server.link(1).rdma_stats().0, 0);
        });
    }
}
