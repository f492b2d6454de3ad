//! Capture side: cut the stream into chunks, digest and classify each,
//! ship the novel ones into a pack, and commit the manifest. Capture is
//! *pipelined*: the writer digests and deduplicates chunk `k+1` while a
//! shipper stage pushes chunk `k` through the backend transport, so
//! hashing overlaps the transfer instead of serializing with it.

use std::collections::HashMap;

use phi_platform::{NodeId, Payload};
use simproc::{ByteSink, IoError};

use crate::index::{Captured, Install, RegionSpan, Spans};
use crate::manifest::Manifest;
use crate::{ChunkKey, Dedup, Lane, Stage, CHUNK_SIZE};

/// Capture-side sink: chunks, digests, dedups and ships the stream.
/// Dropped before a successful `close`, it stops its shipper and
/// discards the partial pack — an abandoned capture leaves nothing.
pub(crate) struct DedupSink {
    store: Dedup,
    local: NodeId,
    path: String,
    /// Bytes accumulated toward the next chunk cut.
    pending: Payload,
    /// Ordered chunk references — the manifest body.
    refs: Vec<ChunkKey>,
    /// Chunks novel in this snapshot, held until commit.
    fresh: HashMap<ChunkKey, Payload>,
    /// The whole stream (cheap handles), for the final image digest.
    image: Payload,
    /// The pack stream novel chunks go to. Piped, the transfer of chunk
    /// `k` overlaps the digest of `k+1`. Opened lazily: a
    /// fully-deduplicated snapshot never ships.
    ship: Option<Lane<Box<dyn ByteSink>>>,
    /// The pack `ship` writes, from its reservation to commit or discard.
    pack: Option<u64>,
    /// A failure recorded by the infallible `mark_boundary` hint,
    /// surfaced by the next fallible call.
    failed: Option<IoError>,
    closed: bool,
    /// The prior snapshot's record ledger at this path, if one exists
    /// and the delta chain is not due for a rebase. What
    /// `write_cached_record` replays from.
    prior_spans: Option<Spans>,
    /// The ledger this capture is building (installed at commit).
    next_spans: Spans,
    /// The record currently being streamed: name, advertised content
    /// digest/len, and where in `refs` its chunks start.
    current_span: Option<(String, u64, u64, usize)>,
    /// Whether any record was replayed from the prior ledger (decides
    /// whether the committed ledger extends the delta chain).
    reused: bool,
}

impl DedupSink {
    pub(crate) fn open(store: &Dedup, local: NodeId, path: &str) -> DedupSink {
        let rebase_every = store.inner.config.incremental_rebase_every;
        DedupSink {
            store: store.clone(),
            local,
            path: path.to_string(),
            pending: Payload::empty(),
            refs: Vec::new(),
            fresh: HashMap::new(),
            image: Payload::empty(),
            ship: None,
            pack: None,
            failed: None,
            closed: false,
            prior_spans: store.index().offered_spans(path, rebase_every),
            next_spans: HashMap::new(),
            current_span: None,
            reused: false,
        }
    }

    fn process_chunk(&mut self, chunk: Payload) -> Result<(), IoError> {
        // Canonicalise once, where the chunk is cut: `image`, `fresh`,
        // the pack file, the index and whoever the index shares content
        // with all end up holding handles to this one buffer.
        let chunk = chunk.normalize();
        let len = chunk.len();
        // The digest pass occupies a capture-side core; the shipper
        // thread (if any) moves the previous chunk meanwhile.
        self.store.hasher(self.local).transfer(len);
        let key = (chunk.digest(), len);
        self.refs.push(key);
        self.image.append(chunk.clone());
        let held = self.fresh.contains_key(&key);
        if self.store.index().classify(self.local, key, held) {
            return Ok(());
        }
        self.fresh.insert(key, chunk.clone());
        self.ship_chunk(chunk).inspect_err(|_| self.discard())
    }

    fn ship_chunk(&mut self, chunk: Payload) -> Result<(), IoError> {
        if self.ship.is_none() {
            self.ship = Some(self.open_shipper()?);
        }
        match self.ship.as_mut().expect("opened above") {
            Lane::Piped(stage) => stage.send(chunk),
            Lane::Inline(sink) => sink.write(chunk),
        }
    }

    /// Reserve a pack and open its stream through the backend — on the
    /// stage's worker when pipelined, here and now when serial.
    fn open_shipper(&mut self) -> Result<Lane<Box<dyn ByteSink>>, IoError> {
        let (pack, pack_path) = self.store.index().new_pack(&self.path);
        self.pack = Some(pack);
        let (store, local) = (self.store.clone(), self.local);
        let open = move || store.backend().sink(local, &pack_path);
        if !self.store.inner.config.pipelined {
            return Ok(Lane::Inline(open()?));
        }
        Ok(Lane::Piped(Stage::spawn(
            format!("snapstore-ship:{}", self.path),
            format!("snapstore-pipe:{}", self.path),
            move |queue| {
                let mut sink = open()?;
                while let Ok(chunk) = queue.recv() {
                    sink.write(chunk)?;
                }
                sink.close()
            },
        )))
    }

    /// Give up on the pack: stop the shipper (a dropped stage closes
    /// and joins), forget the pack and delete its partial file.
    fn discard(&mut self) {
        self.ship = None;
        if let Some(pack) = self.pack.take() {
            let file = self.store.index().forget_pack(pack);
            self.store.delete_files(file);
        }
    }

    /// Not closed, and holding no failure an infallible hint left.
    fn writable(&mut self) -> Result<(), IoError> {
        if self.closed {
            return Err(IoError::Closed);
        }
        self.failed.take().map_or(Ok(()), Err)
    }

    /// Run the fallible part of an infallible hint, if the stream is
    /// still good: a failure is remembered and surfaced by the next
    /// write or close. `true` = it ran and succeeded.
    fn hint(&mut self, op: impl FnOnce(&mut Self) -> Result<(), IoError>) -> bool {
        if self.closed || self.failed.is_some() {
            return false;
        }
        self.failed = op(self).err();
        self.failed.is_none()
    }

    /// Terminate the record in progress: cut the pending tail so the
    /// record's bytes occupy whole chunks, then (if the capture named
    /// the record) remember its chunk run in the ledger being built.
    fn close_span(&mut self) -> Result<(), IoError> {
        self.cut_pending(true)?;
        if let Some((name, digest, len, start)) = self.current_span.take() {
            if !name.is_empty() && start <= self.refs.len() {
                self.next_spans.insert(
                    name,
                    RegionSpan {
                        digest,
                        len,
                        chunks: self.refs[start..].to_vec(),
                    },
                );
            }
        }
        Ok(())
    }

    fn cut_pending(&mut self, boundary: bool) -> Result<(), IoError> {
        while self.pending.len() >= CHUNK_SIZE {
            let chunk = self.pending.slice(0, CHUNK_SIZE);
            self.pending = self
                .pending
                .slice(CHUNK_SIZE, self.pending.len() - CHUNK_SIZE);
            self.process_chunk(chunk)?;
        }
        if boundary && !self.pending.is_empty() {
            let tail = std::mem::replace(&mut self.pending, Payload::empty());
            self.process_chunk(tail)?;
        }
        Ok(())
    }

    /// Finish the pack, store the manifest — the durable artifact the
    /// backend keeps under the snapshot path — and commit.
    fn commit(&mut self) -> Result<(), IoError> {
        self.close_span()?;
        match self.ship.take() {
            Some(Lane::Piped(mut stage)) => stage.finish()?,
            Some(Lane::Inline(mut sink)) => sink.close()?,
            None => {}
        }
        let manifest = Manifest {
            chunks: self.refs.clone(),
            total: self.image.len(),
            image_digest: self.image.digest(),
        };
        let manifest_len = manifest.write(self.store.backend(), self.local, &self.path)?;
        self.store.commit(Install {
            path: &self.path,
            node: self.local,
            manifest: &manifest,
            novel: std::mem::take(&mut self.fresh),
            pack: self.pack.take(),
            // Everything the capture just streamed is materialized on
            // the capturing node right now: warm it for the swap-in.
            warm: &manifest.chunks,
            captured: Some(Captured {
                spans: std::mem::take(&mut self.next_spans),
                reused: self.reused,
                manifest_len,
            }),
        });
        self.closed = true;
        Ok(())
    }
}

impl ByteSink for DedupSink {
    fn write(&mut self, data: Payload) -> Result<(), IoError> {
        self.writable()?;
        self.pending.append(data);
        self.cut_pending(false)
    }

    fn mark_boundary(&mut self) {
        // A record boundary: cut the tail so the next record starts a
        // fresh chunk, keeping identical regions aligned even when
        // earlier content shifted.
        self.hint(|sink| sink.cut_pending(true));
    }

    fn begin_record(&mut self, name: &str, digest: u64, len: u64) {
        if self.hint(Self::close_span) && !name.is_empty() {
            self.current_span = Some((name.to_string(), digest, len, self.refs.len()));
        }
    }

    fn write_cached_record(&mut self, name: &str, digest: u64, len: u64) -> Result<bool, IoError> {
        self.writable()?;
        self.close_span()?;
        let span = match self.prior_spans.as_ref().and_then(|s| s.get(name)) {
            Some(s) if s.digest == digest && s.len == len => s.clone(),
            _ => return Ok(false),
        };
        // No read, no chunking, no digest pass, no transport: the whole
        // record costs index metadata only. That is the O(dirty) claim.
        if !self.store.index().replay_span(&span, &mut self.image) {
            return Ok(false);
        }
        self.refs.extend_from_slice(&span.chunks);
        self.next_spans.insert(name.to_string(), span);
        self.reused = true;
        Ok(true)
    }

    fn close(&mut self) -> Result<(), IoError> {
        if self.closed {
            return Ok(());
        }
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        self.commit().inspect_err(|_| self.discard())
    }
}

impl Drop for DedupSink {
    fn drop(&mut self) {
        if !self.closed {
            self.discard();
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
    fn second_identical_snapshot_ships_almost_nothing() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let data = Payload::synthetic(7, 64 * MB);
            write_stream(&st, "/snap/a", std::slice::from_ref(&data));
            let cold = st.stats().bytes_shipped;
            write_stream(&st, "/snap/b", std::slice::from_ref(&data));
            let warm = st.stats().bytes_shipped - cold;
            assert!(cold >= 64 * MB, "cold run ships the image: {cold}");
            assert!(
                warm * 5 < cold,
                "warm run ships only the manifest: warm={warm} cold={cold}"
            );
            assert_eq!(st.stats().chunks_hit, st.stats().chunks_miss);
            // Both snapshots restore bit-identically.
            assert_eq!(read_stream(&st, "/snap/a").digest(), data.digest());
            assert_eq!(read_stream(&st, "/snap/b").digest(), data.digest());
        });
    }

    #[test]
    fn boundary_marks_keep_shifted_regions_aligned() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            // Snapshot 2 prepends a small header before the same two big
            // regions. With boundary cuts the big regions dedup even
            // though their byte offsets shifted.
            let big1 = Payload::synthetic(1, 16 * MB);
            let big2 = Payload::synthetic(2, 16 * MB);
            write_stream(&st, "/snap/s1", &[big1.clone(), big2.clone()]);
            let cold = st.stats().bytes_shipped;
            let header = Payload::bytes(vec![9u8; 4096]);
            write_stream(&st, "/snap/s2", &[header, big1, big2]);
            let warm = st.stats().bytes_shipped - cold;
            assert!(
                warm < MB,
                "only the header and manifest ship on the shifted snapshot: {warm}"
            );
        });
    }

    #[test]
    fn incremental_capture_reuses_clean_records_and_restores_identically() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let a = Payload::synthetic(1, 32 * MB);
            let b1 = Payload::synthetic(2, 32 * MB);
            let b2 = Payload::synthetic(3, 32 * MB);
            let v1 = [("a", a.clone(), false), ("b", b1, false)];
            write_records(&st, "/snap/inc", &v1, b"t1");
            let s1 = st.stats();
            assert_eq!(s1.capture_dirty_bytes, 64 * MB + 2);
            assert_eq!(s1.capture_clean_bytes, 0);
            assert_eq!(
                read_stream(&st, "/snap/inc").digest(),
                image_of(&v1, b"t1").digest()
            );

            // Second capture: `a` untouched, `b` rewritten. Only `b` and
            // the new trailer enter the chunk/digest pipeline; `a` is
            // rebuilt from the prior snapshot's chunks.
            let v2 = [("a", a, true), ("b", b2, false)];
            let hits = write_records(&st, "/snap/inc", &v2, b"t2");
            assert_eq!(hits, vec![true, false]);
            let s2 = st.stats();
            assert_eq!(s2.capture_clean_bytes, 32 * MB);
            assert_eq!(s2.capture_dirty_bytes - s1.capture_dirty_bytes, 32 * MB + 2);
            assert_eq!(
                read_stream(&st, "/snap/inc").digest(),
                image_of(&v2, b"t2").digest()
            );
        });
    }

    #[test]
    fn cached_record_with_changed_content_falls_back_to_streaming() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let v1 = [("a", Payload::synthetic(1, 16 * MB), false)];
            write_records(&st, "/snap/chg", &v1, b"t");
            // Same name, different bytes: the ledger's digest check
            // rejects the replay and the record streams in full.
            let v2 = [("a", Payload::synthetic(2, 16 * MB), true)];
            assert_eq!(write_records(&st, "/snap/chg", &v2, b"t"), vec![false]);
            assert_eq!(
                read_stream(&st, "/snap/chg").digest(),
                image_of(&v2, b"t").digest()
            );
        });
    }

    #[test]
    fn failed_incremental_capture_leaves_prior_snapshot_restorable() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(
                &server,
                DedupConfig {
                    pipelined: false,
                    ..DedupConfig::default()
                },
            );
            let a = Payload::synthetic(5, 16 * MB);
            let b = Payload::synthetic(6, 16 * MB);
            let v1 = [("a", a.clone(), false), ("b", b.clone(), false)];
            write_records(&st, "/snap/fail", &v1, b"t1");

            // A capture that dies after replaying the clean record and
            // streaming half the dirty one: nothing was committed, so
            // the prior manifest, its chunks and its ledger survive.
            {
                let mut sink = st.sink(NodeId::device(0), "/snap/fail").unwrap();
                assert!(sink.write_cached_record("a", a.digest(), a.len()).unwrap());
                sink.begin_record("b", 7, 8 * MB);
                sink.write(Payload::synthetic(7, 8 * MB)).unwrap();
                // Dropped without close(): the failure path.
            }
            assert_eq!(st.stats().manifests, 1);
            assert_eq!(
                read_stream(&st, "/snap/fail").digest(),
                image_of(&v1, b"t1").digest()
            );

            // The chain was not corrupted: the next capture still goes
            // O(dirty) and restores bit-identically.
            let v2 = [("a", a, true), ("b", b, true)];
            assert_eq!(
                write_records(&st, "/snap/fail", &v2, b"t1"),
                vec![true, true]
            );
            assert_eq!(
                read_stream(&st, "/snap/fail").digest(),
                image_of(&v2, b"t1").digest()
            );
        });
    }

    #[test]
    fn write_after_close_is_typed_error() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let mut sink = st.sink(NodeId::device(0), "/snap/wc").unwrap();
            sink.write(Payload::synthetic(1, MB)).unwrap();
            sink.close().unwrap();
            let err = sink.write(Payload::synthetic(1, MB)).unwrap_err();
            assert_eq!(err, IoError::Closed);
        });
    }

    #[test]
    fn pipelining_overlaps_digest_with_shipping() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let data = Payload::synthetic(11, 128 * MB);
            let timed = |pipelined: bool, path: &str| {
                let st = store(
                    &server,
                    DedupConfig {
                        pipelined,
                        ..DedupConfig::default()
                    },
                );
                let t0 = now();
                write_stream(&st, path, std::slice::from_ref(&data));
                (now() - t0).as_secs_f64()
            };
            let serial = timed(false, "/snap/serial");
            let piped = timed(true, "/snap/piped");
            assert!(
                piped < serial,
                "pipelined capture overlaps hash and transfer: piped={piped} serial={serial}"
            );
        });
    }

    /// Regression: a capture abandoned between two writes used to leave
    /// its shipper blocked on the queue forever (the run ended in a
    /// deadlock) and its pack registered and on disk, in either mode.
    #[test]
    fn abandoned_capture_leaves_nothing_behind() {
        for pipelined in [true, false] {
            Kernel::run_root(move || {
                let server = PhiServer::default_server();
                let config = DedupConfig {
                    pipelined,
                    ..DedupConfig::default()
                };
                let st = store(&server, config);
                let abandon = |tag: u64| {
                    let mut sink = st.sink(NodeId::device(0), "/snap/drop").unwrap();
                    sink.write(Payload::synthetic(tag, 16 * MB)).unwrap();
                    drop(sink);
                };
                abandon(9);
                assert_eq!(st.index().pack_count(), 0);
                assert_eq!(server.host().fs().list("/snap/drop"), Vec::<String>::new());
                // With a snapshot already at the path, that snapshot
                // (and only it) survives a second abandoned capture...
                let prior = Payload::synthetic(8, 16 * MB);
                write_stream(&st, "/snap/drop", std::slice::from_ref(&prior));
                abandon(10);
                assert_eq!(st.index().pack_count(), 1);
                assert_eq!(server.host().fs().list("/snap/drop.pack").len(), 1);
                assert_eq!(read_stream(&st, "/snap/drop").digest(), prior.digest());
                // ...and the next capture there succeeds.
                let next = Payload::synthetic(11, 16 * MB);
                write_stream(&st, "/snap/drop", std::slice::from_ref(&next));
                assert_eq!(read_stream(&st, "/snap/drop").digest(), next.digest());
            });
        }
    }

    #[test]
    fn pack_write_failure_surfaces_and_leaves_nothing_behind() {
        for pipelined in [true, false] {
            Kernel::run_root(move || {
                let server = PhiServer::default_server();
                let backend = Flaky {
                    fs: HostFs(server.clone()),
                    fail_pack_write: Some(2),
                    fail_staging_read: None,
                };
                let config = DedupConfig {
                    pipelined,
                    ..DedupConfig::default()
                };
                let st = Dedup::new(&server, std::sync::Arc::new(backend), config);
                let mut sink = st.sink(NodeId::device(0), "/snap/wf").unwrap();
                let chunks = Payload::synthetic(12, 64 * MB).chunks(8 << 20);
                let wrote = chunks.into_iter().try_for_each(|c| sink.write(c));
                let err = wrote.and_then(|_| sink.close()).unwrap_err();
                assert!(err.to_string().contains("injected"), "{err}");
                drop(sink);
                assert_eq!(st.index().pack_count(), 0);
                assert_eq!(server.host().fs().list("/snap/wf"), Vec::<String>::new());
                assert_eq!(st.stats().manifests, 0);
            });
        }
    }
}
