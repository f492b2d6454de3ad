//! # blcr-sim — Berkeley Lab Checkpoint/Restart, simulated
//!
//! BLCR is the application-transparent single-process checkpointer that
//! both MPSS (for native Xeon Phi applications) and Snapify (for offload
//! processes, §4.1 "Capture") delegate to. This crate reproduces the three
//! behaviours Snapify and the paper's evaluation depend on:
//!
//! 1. **streamed process images through an arbitrary file descriptor** —
//!    [`checkpoint`] serializes a quiesced [`SimProcess`] into any
//!    [`ByteSink`]; [`restart`] rebuilds the process from any
//!    [`ByteSource`]. Snapify-IO's whole point is that BLCR cannot tell a
//!    local file from an RDMA socket;
//! 2. **the small-write preamble** — real BLCR issues many small writes
//!    (thread/fd/vm metadata) before the page loop, and then writes memory
//!    *page by page*; this is exactly what makes plain NFS slow in
//!    Table 4. What matters of the preamble is its writes' count and size,
//!    so each is the next slice of one synthetic extent, never bytes in
//!    memory. The simulated checkpointer declares its 4 KiB write
//!    granularity to the sink via [`ByteSink::set_write_granularity`];
//! 3. **restart rebuilds, never resumes** — the restarted process is a new
//!    process (new pid) whose memory image and opaque runtime state match
//!    the captured one; the runtime (COI/Snapify) is responsible for
//!    reconnecting channels, exactly as in the paper (§4.3).
//!
//! # Fidelity note
//!
//! Real BLCR captures arbitrary mid-instruction thread states with kernel
//! support. Here snapshots are only taken at *quiesced points* — which is
//! not a loss of generality for Snapify, whose pause protocol guarantees
//! quiescence before capture — and each checkpointed runtime stores the
//! state it needs to resume as the opaque `runtime_state` blob.

#![warn(missing_docs)]

pub mod stream;

use phi_platform::{Payload, SimNode};
use simkernel::obs;
use simkernel::time::{ms, us};
use simkernel::SimDuration;
use simproc::{ByteSink, ByteSource, IoError, PidAllocator, SimProcess};
use stream::{FrameReader, FrameWriter};

/// Snapshot stream magic.
const MAGIC: &[u8; 8] = b"BLCRSIM1";

/// Tag of the synthetic extent the preamble's records are slices of
/// ("BLCRPRE" and a version byte).
const PREAMBLE_TAG: u64 = u64::from_le_bytes(*b"BLCRPRE1");

/// The preamble's content: `preamble_writes` records of
/// `preamble_write_size` bytes, opaque, the same in every image.
fn preamble(config: &BlcrConfig) -> Payload {
    let len = u64::from(config.preamble_writes) * config.preamble_write_size;
    Payload::synthetic(PREAMBLE_TAG, len)
}

/// The page size at which BLCR dumps memory (drives NFS op pricing).
pub const PAGE_SIZE: u64 = 4096;

/// Cost model of the checkpointer itself (not of the I/O path).
#[derive(Clone, Debug)]
pub struct BlcrConfig {
    /// Fixed setup cost of a checkpoint (quiesce, vm walk).
    pub checkpoint_setup: SimDuration,
    /// Fixed setup cost of a restart (process creation, vm rebuild).
    pub restart_setup: SimDuration,
    /// Number of small metadata writes in the preamble.
    pub preamble_writes: u32,
    /// Size of each preamble write.
    pub preamble_write_size: u64,
    /// Per-region bookkeeping cost.
    pub per_region_cost: SimDuration,
    /// Granularity of restart-time `read(2)` calls (BLCR pulls the image
    /// in smallish reads, which is what makes NFS restarts slow).
    pub restart_read_chunk: u64,
}

impl Default for BlcrConfig {
    fn default() -> BlcrConfig {
        BlcrConfig {
            checkpoint_setup: ms(120),
            restart_setup: ms(200),
            preamble_writes: 96,
            preamble_write_size: 256,
            per_region_cost: us(200),
            restart_read_chunk: 128 << 10,
        }
    }
}

/// Errors from checkpoint/restart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlcrError {
    /// I/O failure on the snapshot stream.
    Io(IoError),
    /// The snapshot stream is corrupt or of the wrong format.
    BadImage(String),
    /// The target node cannot hold the process image.
    OutOfMemory(phi_platform::OutOfMemory),
}

impl std::fmt::Display for BlcrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlcrError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            BlcrError::BadImage(s) => write!(f, "bad snapshot image: {s}"),
            BlcrError::OutOfMemory(e) => write!(f, "restart failed: {e}"),
        }
    }
}

impl std::error::Error for BlcrError {}

impl From<IoError> for BlcrError {
    fn from(e: IoError) -> BlcrError {
        BlcrError::Io(e)
    }
}

/// Summary of a completed checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Total bytes written to the sink (snapshot file size).
    pub snapshot_bytes: u64,
    /// Number of memory regions captured.
    pub regions: usize,
    /// Digest of the captured memory image.
    pub image_digest: u64,
    /// Region-content bytes satisfied from the sink's cache of the prior
    /// snapshot (clean regions an O(dirty) capture never read or hashed).
    pub clean_bytes: u64,
    /// Region-content bytes actually streamed through the sink.
    pub dirty_bytes: u64,
}

/// Checkpoint `proc` into `sink`.
///
/// `runtime_state` is the opaque blob in which the owning runtime (COI /
/// the workload framework) records whatever it needs to resume its threads
/// from their quiesced points — the simulated stand-in for the kernel-level
/// thread context BLCR captures.
///
/// The process must be quiesced by the caller (Snapify's pause does this);
/// the checkpointer does not stop threads itself.
pub fn checkpoint(
    config: &BlcrConfig,
    proc: &SimProcess,
    runtime_state: &[u8],
    sink: &mut dyn ByteSink,
) -> Result<CheckpointStats, BlcrError> {
    checkpoint_impl(config, proc, runtime_state, sink, &|_| true, false)
}

/// Like [`checkpoint`], but captures only the regions for which
/// `include(region_name)` is true — COI uses this to exclude file-backed
/// local-store mappings (saved separately by Snapify's pause) from the
/// process image, as real BLCR skips shared file-backed mappings — and
/// O(dirty): regions whose dirty flag is clear are offered to the sink
/// as *cached records* ([`ByteSink::write_cached_record`]) keyed by
/// name + content digest. A record-aware sink (the content-addressed
/// snapshot store) that still holds the prior snapshot's chunks for that
/// region emits them without the region ever being read, chunked, or hashed;
/// any other sink — or a changed region — falls back to plain streaming,
/// so the produced image is byte-equivalent to a full [`checkpoint`] of
/// the same regions in every case.
pub fn checkpoint_incremental(
    config: &BlcrConfig,
    proc: &SimProcess,
    runtime_state: &[u8],
    sink: &mut dyn ByteSink,
    include: &dyn Fn(&str) -> bool,
) -> Result<CheckpointStats, BlcrError> {
    checkpoint_impl(config, proc, runtime_state, sink, include, true)
}

fn checkpoint_impl(
    config: &BlcrConfig,
    proc: &SimProcess,
    runtime_state: &[u8],
    sink: &mut dyn ByteSink,
    include: &dyn Fn(&str) -> bool,
    incremental: bool,
) -> Result<CheckpointStats, BlcrError> {
    let _span = obs::span!("blcr.checkpoint", pid = proc.pid());
    simkernel::sleep(config.checkpoint_setup);
    sink.set_write_granularity(Some(PAGE_SIZE));

    let regions: Vec<(String, Payload, bool)> = proc
        .memory()
        .snapshot_regions_dirty()
        .into_iter()
        .filter(|(name, _, _)| include(name))
        .collect();
    let image_digest = {
        let mut combined = Payload::empty();
        for (name, content, _) in &regions {
            combined.append(Payload::bytes(name.as_bytes().to_vec()));
            combined.append(content.clone());
        }
        combined.digest()
    };

    let mut w = FrameWriter::new(sink);
    let mut total: u64 = 0;
    let mut clean_bytes: u64 = 0;
    let mut dirty_bytes: u64 = 0;

    // Preamble: many small metadata writes (the NFS killer).
    w.write_bytes(MAGIC)?;
    total += MAGIC.len() as u64;
    let (preamble, size) = (preamble(config), config.preamble_write_size);
    for i in 0..u64::from(config.preamble_writes) {
        w.sink().write(preamble.slice(i * size, size))?;
    }
    total += preamble.len();

    w.write_string(proc.name())?;
    total += 8 + proc.name().len() as u64;
    w.write_u64(runtime_state.len() as u64)?;
    w.write_bytes(runtime_state)?;
    total += 8 + runtime_state.len() as u64;

    w.write_u64(regions.len() as u64)?;
    total += 8;
    for (name, content, dirty) in &regions {
        simkernel::sleep(config.per_region_cost);
        let record_bytes = 8 + name.len() as u64 + 8 + content.len();
        if incremental {
            // `Payload::digest` is free in virtual time — it stands in
            // for the dirty-bit hardware a real tracker would consult.
            let digest = content.digest();
            if !*dirty && w.sink().write_cached_record(name, digest, content.len())? {
                total += record_bytes;
                clean_bytes += content.len();
                continue;
            }
            w.sink().begin_record(name, digest, content.len());
        }
        w.write_string(name)?;
        total += 8 + name.len() as u64;
        w.write_payload(content)?;
        total += 8 + content.len();
        dirty_bytes += content.len();
    }
    if incremental {
        // Terminate the last record: the trailing digest differs
        // between captures and must not ride inside a reusable record.
        w.sink().begin_record("", 0, 0);
    }
    w.write_u64(image_digest)?;
    total += 8;

    sink.close()?;
    if incremental {
        // Only the regions this capture covered become clean; filtered
        // ones (COI local-store buffers) are captured — and marked —
        // by their own path.
        for (name, _, _) in &regions {
            let _ = proc.memory().mark_region_captured(name);
        }
        obs::counter_add("snapify.capture.clean_bytes", clean_bytes);
        obs::counter_add("snapify.capture.dirty_bytes", dirty_bytes);
    }
    obs::counter_add("blcr.checkpoints", 1);
    obs::counter_add("blcr.snapshot_bytes", total);
    obs::counter_add("blcr.pages_written", total.div_ceil(PAGE_SIZE));
    obs::histogram_observe("blcr.snapshot_image_bytes", total);
    Ok(CheckpointStats {
        snapshot_bytes: total,
        regions: regions.len(),
        image_digest,
        clean_bytes,
        dirty_bytes,
    })
}

/// Size in bytes that a checkpoint of `proc` would produce (pure query —
/// used by planners and benchmark reporting).
pub fn image_size(config: &BlcrConfig, proc: &SimProcess, runtime_state_len: u64) -> u64 {
    let regions = proc.memory().snapshot_regions();
    let mut total = MAGIC.len() as u64
        + config.preamble_writes as u64 * config.preamble_write_size
        + 8
        + proc.name().len() as u64
        + 8
        + runtime_state_len
        + 8
        + 8;
    for (name, content) in &regions {
        total += 8 + name.len() as u64 + 8 + content.len();
    }
    total
}

/// The result of a successful [`restart`].
#[derive(Debug)]
pub struct RestartedProcess {
    /// The rebuilt process (a *new* process, on `node`).
    pub proc: SimProcess,
    /// The opaque runtime state captured at checkpoint time.
    pub runtime_state: Vec<u8>,
    /// Digest of the restored memory image (verified against the stream).
    pub image_digest: u64,
}

/// Restart a process from a snapshot stream onto `node`.
///
/// Fails with [`BlcrError::OutOfMemory`] if the node cannot hold the
/// image — the exact failure mode of Table 4's `Local` column at 4 GB.
pub fn restart(
    config: &BlcrConfig,
    node: &SimNode,
    pids: &PidAllocator,
    src: &mut dyn ByteSource,
) -> Result<RestartedProcess, BlcrError> {
    let _span = obs::span!("blcr.restart");
    obs::counter_add("blcr.restarts", 1);
    simkernel::sleep(config.restart_setup);
    let mut r = FrameReader::with_chunk(src, config.restart_read_chunk);

    let magic = r.read_bytes(8)?;
    if magic != MAGIC {
        return Err(BlcrError::BadImage("bad magic".to_string()));
    }
    let expected = preamble(config);
    if r.read_opaque(expected.len())?.normalize() != expected {
        return Err(BlcrError::BadImage("bad preamble".to_string()));
    }
    let name = r.read_string()?;
    let state_len = r.read_u64()?;
    let runtime_state = r.read_bytes(state_len)?;

    let proc = SimProcess::new(pids.alloc(), name, node);
    match rebuild(config, &mut r, &proc) {
        Ok(image_digest) => {
            // The rebuilt regions are byte-identical to the snapshot they
            // came from: start the restored process clean so its next
            // incremental capture only pays for what it writes after the
            // restore.
            proc.memory().mark_captured();
            Ok(RestartedProcess {
                proc,
                runtime_state,
                image_digest,
            })
        }
        Err(e) => {
            proc.exit(); // release what was mapped so far
            Err(e)
        }
    }
}

/// Map the image's regions into `proc`, then check the rebuilt memory
/// against the stream's digest; returns the digest.
fn rebuild(
    config: &BlcrConfig,
    r: &mut FrameReader<'_>,
    proc: &SimProcess,
) -> Result<u64, BlcrError> {
    let nregions = r.read_u64()?;
    for _ in 0..nregions {
        simkernel::sleep(config.per_region_cost);
        let rname = r.read_string()?;
        let content = r.read_payload()?;
        if proc.memory().has_region(&rname) {
            return Err(BlcrError::BadImage(format!("region '{rname}' twice")));
        }
        proc.memory()
            .map_region(&rname, content)
            .map_err(BlcrError::OutOfMemory)?;
    }
    let expect_digest = r.read_u64()?;
    let got_digest = proc.memory().digest();
    if expect_digest != got_digest {
        return Err(BlcrError::BadImage(format!(
            "image digest mismatch: stream says {expect_digest:#x}, rebuilt {got_digest:#x}"
        )));
    }
    Ok(got_digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_platform::{PlatformParams, SimNode, GB, MB};
    use simkernel::{now, Kernel};
    use simproc::{FsSink, FsSource, PayloadSource, Pid, VecSink};

    fn phi() -> SimNode {
        SimNode::phi(&PlatformParams::default(), 0)
    }

    fn sample_proc(node: &SimNode) -> SimProcess {
        let p = SimProcess::new(Pid(1), "offload_proc", node);
        p.memory()
            .map_region("heap", Payload::synthetic(11, 64 * MB))
            .unwrap();
        p.memory()
            .map_region("stack", Payload::bytes(vec![7u8; 4096]))
            .unwrap();
        p.memory()
            .map_region("coi_buf_0", Payload::synthetic(12, 16 * MB))
            .unwrap();
        p
    }

    #[test]
    fn checkpoint_restart_roundtrip_preserves_image() {
        Kernel::run_root(|| {
            let cfg = BlcrConfig::default();
            let node = phi();
            let proc = sample_proc(&node);
            let digest_before = proc.memory().digest();

            let mut sink = VecSink::new();
            let stats = checkpoint(&cfg, &proc, b"pc=42", &mut sink).unwrap();
            assert_eq!(stats.regions, 3);
            assert_eq!(stats.image_digest, digest_before);
            assert_eq!(sink.payload().len(), stats.snapshot_bytes);

            proc.exit();
            let pids = PidAllocator::new();
            let node2 = phi();
            let mut src = PayloadSource::new(sink.payload());
            let restored = restart(&cfg, &node2, &pids, &mut src).unwrap();
            assert_eq!(restored.runtime_state, b"pc=42");
            assert_eq!(restored.image_digest, digest_before);
            assert_eq!(restored.proc.memory().digest(), digest_before);
            assert_eq!(restored.proc.name(), "offload_proc");
            assert_eq!(
                restored.proc.memory().region("stack").unwrap().to_bytes(),
                vec![7u8; 4096]
            );
        });
    }

    #[test]
    fn image_size_matches_actual() {
        Kernel::run_root(|| {
            let cfg = BlcrConfig::default();
            let node = phi();
            let proc = sample_proc(&node);
            let predicted = image_size(&cfg, &proc, 5);
            let mut sink = VecSink::new();
            let stats = checkpoint(&cfg, &proc, b"pc=42", &mut sink).unwrap();
            assert_eq!(predicted, stats.snapshot_bytes);
        });
    }

    #[test]
    fn restart_on_full_node_fails_with_oom() {
        Kernel::run_root(|| {
            let cfg = BlcrConfig::default();
            let node = phi();
            let proc = SimProcess::new(Pid(1), "big", &node);
            proc.memory()
                .map_region("heap", Payload::synthetic(1, 4 * GB))
                .unwrap();
            let mut sink = VecSink::new();
            checkpoint(&cfg, &proc, &[], &mut sink).unwrap();

            // Target node already has 5 GB in use: 4 GB image cannot fit.
            let node2 = phi();
            node2.mem().alloc(5 * GB).unwrap();
            let pids = PidAllocator::new();
            let mut src = PayloadSource::new(sink.payload());
            let err = restart(&cfg, &node2, &pids, &mut src).unwrap_err();
            assert!(matches!(err, BlcrError::OutOfMemory(_)));
            // Partial mappings were rolled back.
            assert_eq!(node2.mem().used(), 5 * GB);
        });
    }

    #[test]
    fn corrupt_magic_rejected() {
        Kernel::run_root(|| {
            let cfg = BlcrConfig::default();
            let pids = PidAllocator::new();
            let node = phi();
            let mut src = PayloadSource::new(Payload::bytes(vec![0u8; 64]));
            let err = restart(&cfg, &node, &pids, &mut src).unwrap_err();
            assert!(matches!(err, BlcrError::BadImage(_)));
        });
    }

    #[test]
    fn truncated_image_rejected() {
        Kernel::run_root(|| {
            let cfg = BlcrConfig::default();
            let node = phi();
            let proc = sample_proc(&node);
            let mut sink = VecSink::new();
            checkpoint(&cfg, &proc, &[], &mut sink).unwrap();
            let full = sink.payload();
            let truncated = full.slice(0, full.len() - 100);
            let pids = PidAllocator::new();
            let node2 = phi();
            let before = node2.mem().used();
            let mut src = PayloadSource::new(truncated);
            let err = restart(&cfg, &node2, &pids, &mut src).unwrap_err();
            assert!(matches!(err, BlcrError::Io(_) | BlcrError::BadImage(_)));
            // The regions mapped before the stream ran out were released.
            assert_eq!(node2.mem().used(), before);
        });
    }

    /// An image whose preamble is anything but the one synthetic extent —
    /// the filler bytes earlier versions wrote, another extent, a shifted
    /// slice of this one — is not an image this checkpointer wrote.
    #[test]
    fn a_preamble_other_than_the_extent_is_a_bad_image() {
        Kernel::run_root(|| {
            let cfg = BlcrConfig::default();
            let mut sink = VecSink::new();
            checkpoint(&cfg, &sample_proc(&phi()), b"pc=42", &mut sink).unwrap();
            let image = sink.payload();
            let (start, len) = (MAGIC.len() as u64, preamble(&cfg).len());
            let with_preamble = |pre: Payload| {
                let mut out = image.slice(0, start);
                out.append(pre);
                out.append(image.slice(start + len, image.len() - start - len));
                out
            };
            let size = cfg.preamble_write_size as usize;
            let filler =
                (0..cfg.preamble_writes).map(|i| Payload::bytes(vec![(i % 251) as u8; size]));
            let shifted = Payload::synthetic(PREAMBLE_TAG, len + 1).slice(1, len);
            for pre in [
                Payload::concat(filler),
                Payload::synthetic(PREAMBLE_TAG ^ 1, len),
                shifted,
            ] {
                let node = phi();
                let mut src = PayloadSource::new(with_preamble(pre));
                let err = restart(&cfg, &node, &PidAllocator::new(), &mut src).unwrap_err();
                assert_eq!(err, BlcrError::BadImage("bad preamble".into()));
                assert_eq!(node.mem().used(), 0);
            }
            // The splice itself is sound: the image's own preamble restarts.
            let mut src = PayloadSource::new(with_preamble(preamble(&cfg)));
            assert!(restart(&cfg, &phi(), &PidAllocator::new(), &mut src).is_ok());
        });
    }

    /// The preamble costs what it did as filler — one sink write per
    /// record, the same sizes — and holds no bytes in memory.
    #[test]
    fn the_preamble_is_counted_writes_of_one_extent() {
        Kernel::run_root(|| {
            let cfg = BlcrConfig::default();
            let mut sink = VecSink::new();
            checkpoint(&cfg, &sample_proc(&phi()), &[], &mut sink).unwrap();
            let records = &sink.chunks[1..=cfg.preamble_writes as usize];
            assert!(records.iter().all(|r| r.len() == cfg.preamble_write_size));
            assert_eq!(
                Payload::concat(records.iter().cloned()).normalize(),
                preamble(&cfg)
            );
            assert_eq!(sink.chunks[1 + cfg.preamble_writes as usize].len(), 8);
        });
    }

    #[test]
    fn checkpoint_to_local_ramfs_charges_device_memory() {
        Kernel::run_root(|| {
            // The Table-4 "Local" scenario: snapshot saved on the Phi's own
            // RAM fs competes with the process for physical memory.
            let cfg = BlcrConfig::default();
            let node = phi();
            let proc = SimProcess::new(Pid(1), "native", &node);
            proc.memory()
                .map_region("malloc", Payload::synthetic(1, 5 * GB))
                .unwrap();
            let mut sink = FsSink::create(node.fs(), "/tmp/ckpt");
            // 5 GB process + 5 GB snapshot > 8 GB card: must OOM.
            let err = checkpoint(&cfg, &proc, &[], &mut sink).unwrap_err();
            assert!(matches!(
                err,
                BlcrError::Io(IoError::Fs(phi_platform::FsError::OutOfMemory(_)))
            ));
        });
    }

    #[test]
    fn restart_from_local_ramfs_roundtrip() {
        Kernel::run_root(|| {
            let cfg = BlcrConfig::default();
            let node = phi();
            let proc = SimProcess::new(Pid(1), "native", &node);
            proc.memory()
                .map_region("malloc", Payload::synthetic(1, 512 * MB))
                .unwrap();
            let digest = proc.memory().digest();
            let mut sink = FsSink::create(node.fs(), "/tmp/ckpt");
            checkpoint(&cfg, &proc, &[], &mut sink).unwrap();
            proc.exit();

            let pids = PidAllocator::new();
            let mut src = FsSource::open(node.fs(), "/tmp/ckpt").unwrap();
            let restored = restart(&cfg, &node, &pids, &mut src).unwrap();
            assert_eq!(restored.proc.memory().digest(), digest);
        });
    }

    #[test]
    fn checkpoint_takes_nonzero_virtual_time() {
        Kernel::run_root(|| {
            let cfg = BlcrConfig::default();
            let node = phi();
            let proc = sample_proc(&node);
            let t0 = now();
            let mut sink = VecSink::new();
            checkpoint(&cfg, &proc, &[], &mut sink).unwrap();
            assert!(now() - t0 >= cfg.checkpoint_setup);
        });
    }
}
