//! Restore side, the capture path reversed: fetch the manifest through
//! the backend, verify the reassembled image against its digest
//! (corruption is rejected, never silently restored), then serve the
//! stream through the **restore fast path**: chunks still *warm* on the
//! restoring node (they survived there since the last swap-out, tracked
//! by a bounded, refcount-aware per-node cache) are satisfied with a
//! local memcpy and never cross the transport again; cold chunks are
//! staged and fetched through the backend, a prefetch stage fetching
//! chunk `k+1` while chunk `k` replays into BLCR. Cold chunks are
//! digest-verified on arrival and then enter the node's warm cache.

use phi_platform::{NodeId, Payload};
use simkernel::{now, obs, SimDuration, SimTime};
use simproc::{ByteSource, IoError};

use crate::manifest::Manifest;
use crate::{ChunkKey, Dedup, Lane, Stage, CHUNK_SIZE};

/// One chunk of the restore plan: warm chunks carry their content
/// (served with a local memcpy); cold chunks are fetched in plan order.
struct RestoreStep {
    key: ChunkKey,
    warm: Option<Payload>,
}

/// Restore-side source: replays the manifest's chunk sequence, serving
/// warm chunks from the restoring node's cache and cold chunks through
/// the backend transport. Dropped — drained or not — it joins its
/// prefetcher and deletes its staging file.
struct DedupSource {
    store: Dedup,
    local: NodeId,
    path: String,
    staging: Option<String>,
    steps: std::vec::IntoIter<RestoreStep>,
    /// The staging stream cold chunks arrive on. Piped, the transport
    /// of chunk `k+1` overlaps the replay of `k`. `None` = fully-warm
    /// restore: nothing crosses the transport.
    fetch: Option<Lane<Box<dyn ByteSource>>>,
    /// Bytes from completed steps not yet handed to the caller.
    pending: Payload,
    opened_at: SimTime,
    /// Time spent waiting on the prefetch queue (the un-overlapped
    /// remainder of the cold transport).
    stalled: SimDuration,
}

pub(crate) fn open(
    store: &Dedup,
    local: NodeId,
    path: &str,
) -> Result<Box<dyn ByteSource>, IoError> {
    // 1. Fetch the manifest through the backend (missing snapshot =
    //    backend's NotFound; a non-manifest file = typed corruption).
    //    A local miss in a fleet falls back to the shared pool: import
    //    the snapshot from whichever nodes hold it, then retry.
    let msrc = match store.backend().source(local, path) {
        Ok(s) => s,
        Err(e) => match &store.inner.pool {
            Some(att) if att.import(store, local, path)? => store.backend().source(local, path)?,
            _ => return Err(e),
        },
    };
    let manifest = Manifest::read(msrc, path)?;

    // 2. Build the restore plan under the index lock: for each chunk,
    //    decide warm (still materialized on `local` — serve with a
    //    memcpy) vs cold (must cross the transport again), and
    //    reassemble the image for structural verification.
    let mut image = Payload::empty();
    let mut plan = Vec::with_capacity(manifest.chunks.len());
    let mut warm_bytes = 0u64;
    let mut cold = Vec::new();
    {
        let idx = store.index();
        for key in &manifest.chunks {
            let (content, warm) = idx.lookup(local, key).ok_or_else(|| {
                IoError::Other(format!(
                    "snapstore {path}: chunk {:#x}+{} missing from store (collected?)",
                    key.0, key.1
                ))
            })?;
            image.append(content.clone());
            let warm = if warm {
                warm_bytes += key.1;
                Some(content)
            } else {
                cold.push(content);
                None
            };
            plan.push(RestoreStep { key: *key, warm });
        }
    }
    let cold_bytes = manifest.total - warm_bytes;

    // 3. Verify the reassembled image against the manifest before
    //    handing out a single byte (the incremental-chain discipline:
    //    reject, never silently restore). This is the free structural
    //    check; the metered digest pass is paid per cold chunk on
    //    arrival — warm chunks were verified when they entered the
    //    cache.
    if image.len() != manifest.total {
        return Err(IoError::Other(format!(
            "snapstore {path}: image length mismatch: manifest says {}, rebuilt {}",
            manifest.total,
            image.len()
        )));
    }
    let got = image.digest();
    if got != manifest.image_digest {
        return Err(IoError::Other(format!(
            "snapstore {path}: image digest mismatch: manifest says {:#x}, rebuilt {got:#x}",
            manifest.image_digest
        )));
    }
    let _g = obs::span!(
        "snapify.restore.fetch",
        chunks = plan.len(),
        warm_bytes = warm_bytes,
        cold_bytes = cold_bytes,
    );

    // 4. Cold chunks cross the transport: materialize a staging file of
    //    this source's own holding ONLY the cold bytes (content lands
    //    immediately, the write-back overlaps the reads) and fetch it
    //    back through the wrapped backend on a prefetch stage. The file
    //    dies with the source, which exists from here on so a failed
    //    open cleans up too. A fully-warm restore opens no stream.
    let mut source = DedupSource {
        store: store.clone(),
        local,
        path: path.to_string(),
        staging: None,
        steps: plan.into_iter(),
        fetch: None,
        pending: Payload::empty(),
        opened_at: now(),
        stalled: SimDuration::ZERO,
    };
    if cold_bytes > 0 {
        let spath = store.index().staging_name(path);
        let fs = store.storage_fs();
        fs.create_or_truncate(&spath);
        source.staging = Some(spath.clone());
        for content in &cold {
            for chunk in content.chunks(CHUNK_SIZE) {
                fs.append_async(&spath, chunk)?;
            }
        }
        let st = store.clone();
        let open = move |spath: &str| st.backend().source(local, spath);
        source.fetch = Some(if store.inner.config.restore_pipelined {
            let cold_lens: Vec<u64> = cold.iter().map(|c| c.len()).collect();
            Lane::Piped(Stage::spawn(
                format!("snapstore-restore:{path}"),
                format!("snapstore-restore-pipe:{path}"),
                move |queue| {
                    let mut src = open(&spath)?;
                    for len in cold_lens {
                        let chunk = read_exact(src.as_mut(), len, &spath)?;
                        if queue.send(chunk).is_err() {
                            // The reader went away mid-restore.
                            break;
                        }
                    }
                    Ok(())
                },
            ))
        } else {
            Lane::Inline(open(&spath)?)
        });
        source.opened_at = now();
    }
    Ok(Box::new(source))
}

/// Read exactly `len` bytes from `src` (backends may return short
/// reads); fewer means the staging stream was truncated underneath us.
fn read_exact(src: &mut dyn ByteSource, len: u64, path: &str) -> Result<Payload, IoError> {
    let mut got = Payload::empty();
    while got.len() < len {
        match src.read(len - got.len())? {
            Some(c) => got.append(c),
            None => {
                return Err(IoError::Other(format!(
                    "snapstore {path}: staging truncated at {}/{len}",
                    got.len()
                )))
            }
        }
    }
    Ok(got)
}

impl DedupSource {
    /// Complete the next plan step, appending its bytes to `pending`.
    fn replay_step(&mut self, step: RestoreStep) -> Result<(), IoError> {
        let (digest, len) = step.key;
        if let Some(content) = step.warm {
            // Warm hit: the store still holds a pinned, verified copy
            // of these bytes — one host memcpy feeds them into the
            // replay stream; no backend transport, no re-hash (the
            // cached copy was verified when it entered the cache).
            self.store.server().host().memcpy(len);
            self.store.index().warm_hit(self.local, step.key);
            self.pending.append(content);
            return Ok(());
        }
        let chunk = match &mut self.fetch {
            Some(Lane::Piped(stage)) => {
                // A prefetcher that closed the queue with cold steps
                // outstanding has failed: `recv` surfaces its error.
                let t0 = now();
                let got = stage.recv();
                self.stalled += now() - t0;
                got?
            }
            Some(Lane::Inline(inner)) => {
                let staging = self.staging.as_deref().unwrap_or(&self.path);
                read_exact(inner.as_mut(), len, staging)?
            }
            None => {
                return Err(IoError::Other(format!(
                    "snapstore {}: cold chunk in a fully-warm plan",
                    self.path
                )))
            }
        };
        // Verify on arrival (the digest pass runs on the restoring
        // node's core, overlapping the prefetch of the next chunk),
        // then the chunk is warm here.
        self.store.hasher(self.local).transfer(len);
        if chunk.len() != len || chunk.digest() != digest {
            return Err(IoError::Other(format!(
                "snapstore {}: cold chunk {digest:#x}+{len} corrupted in transit",
                self.path
            )));
        }
        self.store.index().cold_arrival(self.local, step.key);
        self.pending.append(chunk);
        Ok(())
    }
}

impl ByteSource for DedupSource {
    fn read(&mut self, max: u64) -> Result<Option<Payload>, IoError> {
        while self.pending.is_empty() {
            match self.steps.next() {
                Some(step) => self.replay_step(step)?,
                None => return Ok(None),
            }
        }
        let n = max.min(self.pending.len());
        let out = self.pending.slice(0, n);
        self.pending = self.pending.slice(n, self.pending.len() - n);
        Ok(Some(out))
    }
}

impl Drop for DedupSource {
    fn drop(&mut self) {
        if let Some(Lane::Piped(stage)) = &mut self.fetch {
            // Wait the prefetcher out so the staging file is not
            // deleted while it still reads.
            let _ = stage.finish();
            let elapsed = now() - self.opened_at;
            if elapsed.as_secs_f64() > 0.0 {
                let overlap_pct = 100u64.saturating_sub(
                    (100.0 * self.stalled.as_secs_f64() / elapsed.as_secs_f64()) as u64,
                );
                obs::histogram_observe("snapify.restore.overlap_pct", overlap_pct);
            }
        }
        if let Some(staging) = &self.staging {
            let _ = self.store.storage_fs().delete(staging);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::*;
    use crate::DedupConfig;
    use phi_platform::PhiServer;
    use simproc::SnapshotStorage;

    #[test]
    fn collected_chunk_is_a_typed_restore_error() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let data = Payload::synthetic(4, 8 * MB);
            write_stream(&st, "/snap/gone", std::slice::from_ref(&data));
            // Corrupt the store: drop the manifest's refs behind its back
            // by deleting it, then re-write only the manifest file.
            let manifest_bytes = server.host().fs().read_all("/snap/gone").unwrap();
            st.delete_snapshot("/snap/gone");
            server.host().fs().create_or_truncate("/snap/gone");
            server
                .host()
                .fs()
                .append("/snap/gone", manifest_bytes)
                .unwrap();
            let err = st.source(NodeId::device(0), "/snap/gone").err().unwrap();
            assert!(err.to_string().contains("missing from store"), "{err}");
        });
    }

    #[test]
    fn warm_restore_avoids_the_transport() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let data = Payload::synthetic(21, 64 * MB);
            // Capture from device 0 warms device 0's cache.
            write_stream(&st, "/snap/warm", std::slice::from_ref(&data));
            assert_eq!(read_stream(&st, "/snap/warm").digest(), data.digest());
            let s = st.stats();
            assert_eq!(s.restore_bytes_avoided, 64 * MB, "{s:?}");
            assert_eq!(s.restore_bytes_fetched, 0, "{s:?}");
            // A different node holds nothing warm: same manifest, all
            // cold — and the fetch warms *that* node for next time.
            let d1 = NodeId::device(1);
            assert_eq!(
                read_stream_from(&st, d1, "/snap/warm").digest(),
                data.digest()
            );
            assert_eq!(st.stats().restore_bytes_fetched, 64 * MB);
            assert_eq!(
                read_stream_from(&st, d1, "/snap/warm").digest(),
                data.digest()
            );
            assert_eq!(
                st.stats().restore_bytes_fetched,
                64 * MB,
                "second read is warm"
            );
        });
    }

    #[test]
    fn disabled_cache_restores_everything_cold() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(
                &server,
                DedupConfig {
                    restore_cache_bytes: 0,
                    ..DedupConfig::default()
                },
            );
            let data = Payload::synthetic(22, 32 * MB);
            write_stream(&st, "/snap/cold", std::slice::from_ref(&data));
            assert_eq!(read_stream(&st, "/snap/cold").digest(), data.digest());
            let s = st.stats();
            assert_eq!(s.restore_bytes_avoided, 0, "{s:?}");
            assert_eq!(s.restore_bytes_fetched, 32 * MB, "{s:?}");
        });
    }

    #[test]
    fn restore_pipelining_overlaps_fetch_with_replay() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let data = Payload::synthetic(25, 128 * MB);
            let timed = |restore_pipelined: bool, path: &str| {
                let st = store(
                    &server,
                    DedupConfig {
                        restore_cache_bytes: 0,
                        restore_pipelined,
                        ..DedupConfig::default()
                    },
                );
                write_stream(&st, path, std::slice::from_ref(&data));
                let t0 = now();
                assert_eq!(read_stream(&st, path).digest(), data.digest());
                (now() - t0).as_secs_f64()
            };
            let serial = timed(false, "/snap/rserial");
            let piped = timed(true, "/snap/rpiped");
            assert!(
                piped < serial,
                "pipelined restore overlaps fetch and replay: piped={piped} serial={serial}"
            );
        });
    }

    #[test]
    fn warm_restore_is_faster_than_cold() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let data = Payload::synthetic(26, 128 * MB);
            write_stream(&st, "/snap/wf", std::slice::from_ref(&data));
            let t0 = now();
            assert_eq!(read_stream(&st, "/snap/wf").digest(), data.digest());
            let warm = (now() - t0).as_secs_f64();
            let t0 = now();
            assert_eq!(
                read_stream_from(&st, NodeId::device(1), "/snap/wf").digest(),
                data.digest()
            );
            let cold = (now() - t0).as_secs_f64();
            assert!(
                warm * 2.0 < cold,
                "warm restore skips the transport: warm={warm} cold={cold}"
            );
        });
    }

    /// Regression: both restores used to stage in `<path>.restore`; the
    /// first to finish deleted the file under the other's reader.
    #[test]
    fn overlapping_restores_of_one_snapshot_stage_apart() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let config = DedupConfig {
                restore_cache_bytes: 0,
                ..DedupConfig::default()
            };
            let st = store(&server, config);
            let data = Payload::synthetic(27, 32 * MB);
            write_stream(&st, "/snap/two", std::slice::from_ref(&data));
            let mut a = st.source(NodeId::device(0), "/snap/two").unwrap();
            let mut got_a = a.read(4 << 20).unwrap().unwrap();
            let mut b = st.source(NodeId::device(1), "/snap/two").unwrap();
            while let Some(c) = a.read(8 << 20).unwrap() {
                got_a.append(c);
            }
            drop(a);
            let mut got_b = Payload::empty();
            while let Some(c) = b.read(8 << 20).unwrap() {
                got_b.append(c);
            }
            drop(b);
            assert_eq!(got_a.digest(), data.digest());
            assert_eq!(got_b.digest(), data.digest());
            let staged = server.host().fs().list("/snap/two.restore");
            assert_eq!(staged, Vec::<String>::new());
        });
    }

    #[test]
    fn staging_read_failure_surfaces_and_leaves_nothing_behind() {
        for restore_pipelined in [true, false] {
            Kernel::run_root(move || {
                let server = PhiServer::default_server();
                let backend = Flaky {
                    fs: HostFs(server.clone()),
                    fail_pack_write: None,
                    fail_staging_read: Some(2),
                };
                let config = DedupConfig {
                    restore_cache_bytes: 0,
                    restore_pipelined,
                    ..DedupConfig::default()
                };
                let st = Dedup::new(&server, std::sync::Arc::new(backend), config);
                let data = Payload::synthetic(28, 32 * MB);
                write_stream(&st, "/snap/rf", std::slice::from_ref(&data));
                let mut src = st.source(NodeId::device(0), "/snap/rf").unwrap();
                let err = loop {
                    match src.read(8 << 20) {
                        Ok(Some(_)) => {}
                        Ok(None) => panic!("restore finished despite the failed read"),
                        Err(e) => break e,
                    }
                };
                assert!(err.to_string().contains("injected"), "{err}");
                drop(src);
                let staged = server.host().fs().list("/snap/rf.restore");
                assert_eq!(staged, Vec::<String>::new());
            });
        }
    }
}
