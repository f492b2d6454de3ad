//! scp baseline: streaming copy over ssh (Table 3's slowest method).
//!
//! The bottleneck is the cipher running on a single in-order Xeon Phi
//! core: the stream is encrypted/decrypted at ~34 MB/s regardless of the
//! PCIe link's capability, which is why Snapify-IO beats scp by 20–30×.

use std::sync::Arc;

use phi_platform::{FaultKind, FaultTarget, NodeId, Payload, PhiServer};
use simkernel::obs;
use simkernel::{BandwidthResource, SimDuration, SimMutex};
use simproc::{ByteSink, ByteSource, IoError};

use crate::config::ScpConfig;
use crate::storage::SnapshotStorage;

struct ScpInner {
    server: PhiServer,
    config: ScpConfig,
    /// One cipher engine per node (a single busy core).
    ciphers: SimMutex<Vec<Option<BandwidthResource>>>,
}

/// The scp transport.
#[derive(Clone)]
pub struct Scp {
    inner: Arc<ScpInner>,
}

impl Scp {
    /// Create the scp model for `server`.
    pub fn new(server: &PhiServer, config: ScpConfig) -> Scp {
        let slots = server.num_devices() + 1;
        Scp {
            inner: Arc::new(ScpInner {
                server: server.clone(),
                config,
                ciphers: SimMutex::new("scp ciphers", (0..slots).map(|_| None).collect()),
            }),
        }
    }

    fn cipher(&self, node: NodeId) -> BandwidthResource {
        let mut ciphers = self.inner.ciphers.lock();
        let slot = node.0 as usize;
        if ciphers[slot].is_none() {
            ciphers[slot] = Some(BandwidthResource::new(
                format!("scp-cipher-{node}"),
                self.inner.config.cipher_bw,
                SimDuration::ZERO,
            ));
        }
        ciphers[slot].clone().unwrap()
    }

    /// Consume any due chaos-plane connection resets, reconnecting
    /// (another ssh handshake, with exponential backoff) while the
    /// retry budget lasts. `resets` carries the reset count across one
    /// logical operation so the budget is per-call, not per-chunk; a
    /// surfaced failure returns [`IoError::ConnReset`] tagged with
    /// `context`. Chunks already shipped before the reset stand — the
    /// caller resumes from the last fully-shipped chunk.
    fn absorb_resets(&self, resets: &mut u32, context: &str) -> Result<(), IoError> {
        let retry = self.inner.config.retry;
        // Label with the verb only ("push", not "push /path"): paths
        // would explode label cardinality.
        let verb = context.split_whitespace().next().unwrap_or(context);
        loop {
            match self.inner.server.faults().take(FaultTarget::Scp) {
                Some(FaultKind::ConnReset) => {
                    let labels = [("op", verb), ("transport", "scp")];
                    obs::counter_add_labeled("io.resets", &labels, 1);
                    if *resets >= retry.max_retries {
                        obs::counter_add_labeled("chaos.surfaced", &labels, 1);
                        return Err(IoError::ConnReset(format!(
                            "scp {context}: connection reset, retry budget exhausted"
                        )));
                    }
                    obs::counter_add_labeled("chaos.retried", &labels, 1);
                    simkernel::sleep(retry.backoff_for(*resets));
                    // Reconnect: pay the ssh handshake again.
                    simkernel::sleep(self.inner.config.setup);
                    obs::counter_add("chaos.scp.reconnects", 1);
                    *resets += 1;
                }
                // Other kinds aimed at the scp target have no scp
                // failure mode to model; consume them, but count the
                // drop so a misconfigured schedule is visible.
                Some(other) => {
                    obs::counter_add_labeled("chaos.scp.ignored", &[("fault", other.label())], 1);
                }
                None => return Ok(()),
            }
        }
    }

    fn stream_cost(&self, local: NodeId, bytes: u64) {
        // Encrypt on the slow side, ship over the virtio network path.
        self.cipher(local).transfer(bytes);
        if !local.is_host() {
            self.inner
                .server
                .link_between(local, NodeId::HOST)
                .message_transfer(bytes);
        }
    }
}

/// scp push (local → host file).
pub struct ScpSink {
    scp: Scp,
    local: NodeId,
    path: String,
    closed: bool,
}

impl ByteSink for ScpSink {
    fn write(&mut self, data: Payload) -> Result<(), IoError> {
        // Typed error, not a panic: chaos repros replay error-path
        // double-writes, and the simulated world must survive them.
        if self.closed {
            return Err(IoError::Closed);
        }
        let total = data.len();
        let t0 = simkernel::now();
        let mut shipped = 0u64;
        let mut resets = 0u32;
        for chunk in data.chunks(self.scp.inner.config.chunk) {
            // Chaos plane: a due reset drops the stream *before* this
            // chunk ships; everything appended so far stands, and a
            // successful reconnect resumes from this chunk (partial
            // transfer + resume, never silent corruption).
            self.scp.absorb_resets(
                &mut resets,
                &format!("push {} at byte {shipped} of {total}", self.path),
            )?;
            let chunk_len = chunk.len();
            self.scp.stream_cost(self.local, chunk_len);
            self.scp
                .inner
                .server
                .host()
                .fs()
                .append_async(&self.path, chunk)?;
            shipped += chunk_len;
            obs::counter_add("io.scp.bytes_written", chunk_len);
        }
        if obs::is_enabled() {
            obs::sketch_observe_labeled(
                "io.write_ns",
                &[("op", "write"), ("transport", "scp")],
                (simkernel::now() - t0).as_nanos(),
            );
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), IoError> {
        // The writes above append asynchronously on the host; scp only
        // reports success once the remote side acknowledges the final
        // exchange. Model that: a reset landing between the last append
        // and the close still costs a reconnect (or surfaces), and the
        // host-side appends are drained before we report the file
        // durable. Without this, a snapshot could be declared complete
        // with appends still in flight.
        let mut resets = 0u32;
        self.scp
            .absorb_resets(&mut resets, &format!("close {}", self.path))?;
        self.scp.inner.server.host().fs().sync();
        self.closed = true;
        Ok(())
    }
}

/// scp pull (host file → local).
pub struct ScpSource {
    scp: Scp,
    local: NodeId,
    path: String,
    offset: u64,
}

impl ByteSource for ScpSource {
    fn read(&mut self, max: u64) -> Result<Option<Payload>, IoError> {
        // Chaos plane: a reset before the chunk moves costs a reconnect
        // (or surfaces); the offset only advances on success, so a
        // later read resumes exactly where the stream broke.
        let mut resets = 0u32;
        self.scp.absorb_resets(
            &mut resets,
            &format!("pull {} at byte {}", self.path, self.offset),
        )?;
        let fs = self.scp.inner.server.host().fs();
        let size = fs.len(&self.path)?;
        if self.offset >= size {
            return Ok(None);
        }
        let take = max.min(size - self.offset).min(self.scp.inner.config.chunk);
        let chunk = fs.read(&self.path, self.offset, take)?;
        self.offset += take;
        self.scp.stream_cost(self.local, take);
        obs::counter_add("io.scp.bytes_read", take);
        Ok(Some(chunk))
    }
}

impl SnapshotStorage for Scp {
    fn sink(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSink>, IoError> {
        simkernel::sleep(self.inner.config.setup);
        self.inner.server.host().fs().create_or_truncate(path);
        Ok(Box::new(ScpSink {
            scp: self.clone(),
            local,
            path: path.to_string(),
            closed: false,
        }))
    }

    fn source(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSource>, IoError> {
        if !self.inner.server.host().fs().exists(path) {
            return Err(IoError::Fs(phi_platform::FsError::NotFound(
                path.to_string(),
            )));
        }
        simkernel::sleep(self.inner.config.setup);
        Ok(Box::new(ScpSource {
            scp: self.clone(),
            local,
            path: path.to_string(),
            offset: 0,
        }))
    }

    fn label(&self) -> &'static str {
        "scp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_platform::GB;
    use simkernel::{now, Kernel};

    #[test]
    fn scp_is_cipher_bound() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let scp = Scp::new(&server, ScpConfig::default());
            let mut sink = scp.sink(NodeId::device(0), "/snap/f").unwrap();
            let t0 = now();
            for chunk in Payload::synthetic(1, GB).chunks(8 << 20) {
                sink.write(chunk).unwrap();
            }
            sink.close().unwrap();
            let t = (now() - t0).as_secs_f64();
            // ≈ 1 GiB / 34 MB/s ≈ 31 s.
            assert!(t > 25.0 && t < 40.0, "t = {t}");
        });
    }

    #[test]
    fn scp_read_roughly_matches_write() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let scp = Scp::new(&server, ScpConfig::default());
            server
                .host()
                .fs()
                .append("/snap/r", Payload::synthetic(1, 256 << 20))
                .unwrap();
            let mut src = scp.source(NodeId::device(0), "/snap/r").unwrap();
            let t0 = now();
            while src.read(8 << 20).unwrap().is_some() {}
            let read = (now() - t0).as_secs_f64();
            assert!(read > 6.0 && read < 12.0, "read = {read}");
        });
    }

    #[test]
    fn conn_reset_mid_transfer_is_resumed_after_reconnect() {
        use phi_platform::{FaultSchedule, PlatformParams};
        use simkernel::time::{ms, SimTime};
        Kernel::run_root(|| {
            // Fire a reset 500 ms in — mid-way through the multi-chunk
            // push, after some chunks have already landed on the host.
            let schedule = FaultSchedule::none().with(
                SimTime(ms(500).as_nanos()),
                FaultTarget::Scp,
                FaultKind::ConnReset,
            );
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let scp = Scp::new(&server, ScpConfig::default());
            let data = Payload::synthetic(5, 64 << 20);
            let mut sink = scp.sink(NodeId::device(0), "/snap/resume").unwrap();
            let t0 = now();
            for chunk in data.chunks(8 << 20) {
                sink.write(chunk).unwrap();
            }
            sink.close().unwrap();
            let t = (now() - t0).as_secs_f64();
            assert_eq!(server.faults().fired_count(), 1, "reset fired");
            // The reconnect pays the ssh handshake again.
            assert!(t > 64.0 / 34.0 + 0.17, "t = {t} should include a reconnect");
            // Partial transfer resumed, not restarted: content intact.
            let mut src = scp.source(NodeId::device(0), "/snap/resume").unwrap();
            let mut out = Payload::empty();
            while let Some(c) = src.read(8 << 20).unwrap() {
                out.append(c);
            }
            assert_eq!(out.digest(), data.digest());
        });
    }

    #[test]
    fn conn_reset_surfaces_typed_error_when_retries_disabled() {
        use crate::config::RetryPolicy;
        use phi_platform::{FaultSchedule, PlatformParams};
        use simkernel::time::SimTime;
        Kernel::run_root(|| {
            let schedule =
                FaultSchedule::none().with(SimTime::ZERO, FaultTarget::Scp, FaultKind::ConnReset);
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let config = ScpConfig {
                retry: RetryPolicy::disabled(),
                ..ScpConfig::default()
            };
            let scp = Scp::new(&server, config);
            let mut sink = scp.sink(NodeId::device(0), "/snap/hard").unwrap();
            let err = sink.write(Payload::synthetic(5, 1 << 20)).unwrap_err();
            assert!(matches!(err, IoError::ConnReset(_)), "got {err}");
            assert!(err.is_transient());
            assert!(err.to_string().contains("at byte 0"), "err = {err}");
            // The reset hit before the first chunk shipped.
            assert_eq!(server.host().fs().len("/snap/hard").unwrap(), 0);
        });
    }

    #[test]
    fn reset_between_last_append_and_close_surfaces() {
        use crate::config::RetryPolicy;
        use phi_platform::{FaultSchedule, PlatformParams};
        use simkernel::time::{ms, SimTime};
        Kernel::run_root(|| {
            // The reset becomes due *after* every write returned but
            // *before* close. The old no-op close never looked at the
            // fault plane (or the in-flight appends), so the snapshot
            // was reported durable with the connection already dead:
            // fired_count() stayed 0 and close returned Ok.
            let schedule = FaultSchedule::none().with(
                SimTime(ms(800).as_nanos()),
                FaultTarget::Scp,
                FaultKind::ConnReset,
            );
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let config = ScpConfig {
                retry: RetryPolicy::disabled(),
                ..ScpConfig::default()
            };
            let scp = Scp::new(&server, config);
            let mut sink = scp.sink(NodeId::device(0), "/snap/late").unwrap();
            sink.write(Payload::synthetic(5, 8 << 20)).unwrap();
            // All writes done (≈ 8 MiB / 34 MB/s ≈ 0.24 s); let the
            // scheduled reset come due before the close handshake.
            simkernel::sleep(ms(1000));
            let err = sink.close().unwrap_err();
            assert!(matches!(err, IoError::ConnReset(_)), "got {err}");
            assert!(err.to_string().contains("close"), "err = {err}");
            assert_eq!(server.faults().fired_count(), 1, "close saw the reset");
        });
    }

    #[test]
    fn close_drains_async_appends_before_reporting_durable() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let scp = Scp::new(&server, ScpConfig::default());
            let mut sink = scp.sink(NodeId::device(0), "/snap/drain").unwrap();
            sink.write(Payload::synthetic(5, 64 << 20)).unwrap();
            let before = now();
            sink.close().unwrap();
            // The host-side flush of 64 MiB at 450 MB/s mostly overlaps
            // the slow cipher, but close must still wait out the tail
            // rather than return instantly.
            assert!(now() > before, "close waited for the host-side flush");
        });
    }

    #[test]
    fn write_after_close_is_typed_error() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let scp = Scp::new(&server, ScpConfig::default());
            let mut sink = scp.sink(NodeId::device(0), "/snap/wc").unwrap();
            sink.write(Payload::synthetic(5, 1 << 20)).unwrap();
            sink.close().unwrap();
            let err = sink.write(Payload::synthetic(5, 1 << 20)).unwrap_err();
            assert_eq!(err, IoError::Closed);
        });
    }

    #[test]
    fn ignored_fault_kinds_are_counted() {
        use phi_platform::{FaultSchedule, PlatformParams};
        use simkernel::time::SimTime;
        Kernel::run_root(|| {
            // A DiskFull aimed at the scp target has no scp failure mode;
            // it must be consumed (not left to fire forever) and counted.
            let schedule =
                FaultSchedule::none().with(SimTime::ZERO, FaultTarget::Scp, FaultKind::DiskFull);
            let server = PhiServer::new_with_faults(PlatformParams::default(), schedule);
            let scp = Scp::new(&server, ScpConfig::default());
            let mut sink = scp.sink(NodeId::device(0), "/snap/ig").unwrap();
            sink.write(Payload::synthetic(5, 1 << 20)).unwrap();
            sink.close().unwrap();
            assert_eq!(server.faults().fired_count(), 1, "fault was consumed");
        });
    }

    #[test]
    fn roundtrip_content() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let scp = Scp::new(&server, ScpConfig::default());
            let data = Payload::bytes(vec![9u8; 1000]);
            let mut sink = scp.sink(NodeId::device(1), "/snap/rt").unwrap();
            sink.write(data.clone()).unwrap();
            sink.close().unwrap();
            let mut src = scp.source(NodeId::device(1), "/snap/rt").unwrap();
            let mut out = Payload::empty();
            while let Some(c) = src.read(512).unwrap() {
                out.append(c);
            }
            assert_eq!(out.to_bytes(), data.to_bytes());
        });
    }
}
