//! Content-addressed snapshot store with dedup and pipelined shipping.
//!
//! The paper's evaluation (§7, Fig 10/Table 4) shows snapshot time is
//! dominated by moving image bytes off the card, and the swap scheduler
//! (§5 Remark) re-ships a near-identical image every time-slice. This
//! crate stops resending bytes the store already holds: it sits between
//! BLCR's stream framing and a [`SnapshotStorage`] backend, cuts the
//! capture stream into fixed-size, boundary-aligned chunks, digests each
//! with the platform's deterministic hash, and ships only chunks the
//! refcounted index has never seen. The ordered chunk references plus the
//! final image digest form a small *manifest*, which is what the backend
//! durably stores under the snapshot path — the manifest is the snapshot
//! artifact. Capture (`sink.rs`) and restore (`source.rs`) are both
//! pipelined through the one `Stage` below.
//!
//! Garbage collection is refcount-based: deleting a snapshot releases
//! its manifest's references; chunks that hit zero are dropped (and
//! evicted from every warm cache) and pack files whose chunks are all
//! dead are deleted from the backing fs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use phi_platform::{NodeId, Payload, PhiServer, SimFs};
use simkernel::{Bandwidth, BandwidthResource, JoinHandle, SimChannel, SimDuration};
use simproc::{ByteSink, ByteSource, IoError, SnapshotStorage};

mod index;
mod manifest;
pub mod pool;
mod sink;
mod source;

pub use pool::{ClusterPool, PoolStats};

use index::{Index, Install};
use pool::PoolAttachment;

/// Identity of a chunk: (content digest, length). The length guards the
/// (already unlikely) digest collision across different-size chunks.
pub type ChunkKey = (u64, u64);

/// Eviction policy, shared by the per-node warm chunk caches here and
/// the serving layer's choice of which resident tenant yields its
/// device (`serving::EvictionPolicy` is this enum). Ticks are unique
/// per cache, so every policy's victim choice is deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Evict the least-recently-touched entry (for a chunk: capture,
    /// restore hit and cold arrival all count as touches).
    #[default]
    Lru,
    /// Evict the least-touched entry; ties fall back to LRU. Under Zipf
    /// skew this keeps what hot tenants restore over and over, even
    /// when a burst of one-off tenants sweeps through.
    Popularity,
    /// Evict the entry whose retention avoids the least transport:
    /// touches × size, ties falling back to LRU. A big chunk restored
    /// twice outranks a small chunk restored three times.
    CostAware,
}

impl CachePolicy {
    /// All policies, in bench/report order.
    pub const ALL: [CachePolicy; 3] = [
        CachePolicy::Lru,
        CachePolicy::Popularity,
        CachePolicy::CostAware,
    ];

    /// Stable label used in reports, bench rows and repro lines.
    pub fn label(self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Popularity => "popularity",
            CachePolicy::CostAware => "cost",
        }
    }

    /// Parse a [`CachePolicy::label`] back.
    pub fn parse(s: &str) -> Option<CachePolicy> {
        CachePolicy::ALL.into_iter().find(|p| p.label() == s)
    }

    /// Eviction rank of an entry touched `touches` times, `bytes` big,
    /// last touched at `tick` — the smallest score goes first. The tick
    /// tie-break makes the choice total and deterministic.
    pub fn score(self, touches: u64, bytes: u64, tick: u64) -> (u128, u64) {
        match self {
            CachePolicy::Lru => (0, tick),
            CachePolicy::Popularity => (touches as u128, tick),
            CachePolicy::CostAware => (touches as u128 * bytes as u128, tick),
        }
    }
}

/// Fixed chunk size the capture stream is cut into (boundary marks from
/// the frame writer cut shorter chunks early, keeping regions aligned
/// across snapshots).
const CHUNK_SIZE: u64 = 4 << 20;
/// Digest throughput of one capture-side core (the digest pass the
/// store pays per chunk): 2 GB/s.
const HASH_BW: Bandwidth = Bandwidth(2e9);
/// Bounded depth of a [`Stage`]'s queue: capture → shipper and prefetch
/// → replay alike.
const STAGE_DEPTH: usize = 4;

/// Store configuration.
#[derive(Clone, Debug)]
pub struct DedupConfig {
    /// Whether novel chunks ship on a dedicated sim thread, overlapping
    /// the digest/lookup of the next chunk. `false` = ship inline
    /// (serial baseline, used by the bench to measure the overlap gain).
    pub pipelined: bool,
    /// Byte budget of each node's warm chunk cache (restore fast path).
    /// Chunks a node captured or restored stay "warm" there until
    /// evicted (LRU) or collected; a warm chunk is restored with a
    /// local memcpy instead of crossing the transport. `0` disables the
    /// cache — every restore is cold.
    pub restore_cache_bytes: u64,
    /// Whether cold chunks are prefetched on a dedicated sim thread so
    /// the transport of chunk `k+1` overlaps the digest/replay of chunk
    /// `k`. `false` = fetch inline (serial baseline for the bench).
    pub restore_pipelined: bool,
    /// Which chunks the warm caches keep when over budget.
    pub cache_policy: CachePolicy,
    /// Rebase period of the *incremental capture* fast path. An
    /// incremental capture (driven by the caller through
    /// [`ByteSink::write_cached_record`]) reconstructs clean regions
    /// from the previous snapshot's chunks at the same path, skipping
    /// the read + chunk + digest work entirely. Every such reuse
    /// lengthens the logical delta chain; every `incremental_rebase_every`
    /// captures the store withholds the prior snapshot's region ledger,
    /// forcing a full re-stream that resets the chain. `1` makes every
    /// capture full (the no-incremental baseline); `0` never rebases.
    pub incremental_rebase_every: u32,
}

impl Default for DedupConfig {
    fn default() -> DedupConfig {
        DedupConfig {
            pipelined: true,
            restore_cache_bytes: 4 << 30,
            restore_pipelined: true,
            cache_policy: CachePolicy::default(),
            incremental_rebase_every: 16,
        }
    }
}

/// A point-in-time copy of the store's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Chunks satisfied by the index (not shipped).
    pub chunks_hit: u64,
    /// Novel chunks shipped through the backend.
    pub chunks_miss: u64,
    /// Bytes the index absorbed (would have shipped without dedup).
    pub bytes_deduped: u64,
    /// Bytes that actually crossed the backend transport (novel chunks
    /// plus manifests).
    pub bytes_shipped: u64,
    /// Live (referenced) chunk bytes currently held by the store.
    pub bytes_stored: u64,
    /// Manifests currently live.
    pub manifests: u64,
    /// Chunks freed by GC so far.
    pub chunks_freed: u64,
    /// Pack files deleted by GC so far.
    pub packs_deleted: u64,
    /// Restored chunks satisfied by a node's warm cache (local memcpy,
    /// no transport).
    pub restore_chunks_warm: u64,
    /// Restored chunks fetched cold through the backend transport.
    pub restore_chunks_cold: u64,
    /// Restore bytes that never crossed the transport (warm hits).
    pub restore_bytes_avoided: u64,
    /// Restore bytes that crossed the transport (cold fetches).
    pub restore_bytes_fetched: u64,
    /// Capture bytes that entered the chunk/digest pipeline (the dirty
    /// portion of incremental captures; everything, for full captures).
    pub capture_dirty_bytes: u64,
    /// Capture bytes reconstructed from the prior snapshot's ledger
    /// without being read, chunked or digested (clean regions of
    /// incremental captures).
    pub capture_clean_bytes: u64,
}

struct StoreInner {
    server: PhiServer,
    backend: Arc<dyn SnapshotStorage>,
    config: DedupConfig,
    /// Metadata only — never held across a simulated-time operation.
    index: Mutex<Index>,
    /// Per-node digest engines, created lazily.
    hashers: Mutex<HashMap<NodeId, BandwidthResource>>,
    /// Shared cross-node pool, if this store joined a fleet.
    pool: Option<PoolAttachment>,
}

/// The content-addressed store, wrapping a [`SnapshotStorage`] backend.
/// Cheap to clone; all clones share one chunk index.
#[derive(Clone)]
pub struct Dedup {
    inner: Arc<StoreInner>,
}

impl Dedup {
    /// Wrap `backend` with dedup on `server`.
    pub fn new(
        server: &PhiServer,
        backend: Arc<dyn SnapshotStorage>,
        config: DedupConfig,
    ) -> Dedup {
        Dedup::build(server, backend, config, None)
    }

    /// [`Dedup::new`] as a member of a fleet: every manifest this store
    /// commits is published to `pool` under fleet node `cluster_node`,
    /// deletions release the node's pool holds, and a restore that
    /// misses locally imports the snapshot from the pool — paying the
    /// cluster network only for chunks this store has never seen. Must
    /// be called from a sim thread (it builds the cluster NIC).
    pub fn with_pool(
        server: &PhiServer,
        backend: Arc<dyn SnapshotStorage>,
        config: DedupConfig,
        pool: &ClusterPool,
        cluster_node: usize,
    ) -> Dedup {
        let attachment = PoolAttachment::new(pool, cluster_node, server.params());
        Dedup::build(server, backend, config, Some(attachment))
    }

    fn build(
        server: &PhiServer,
        backend: Arc<dyn SnapshotStorage>,
        config: DedupConfig,
        pool: Option<PoolAttachment>,
    ) -> Dedup {
        Dedup {
            inner: Arc::new(StoreInner {
                server: server.clone(),
                backend,
                index: Mutex::new(Index::new(&config)),
                config,
                hashers: Mutex::new(HashMap::new()),
                pool,
            }),
        }
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        self.index().stats()
    }

    /// The server this store runs on.
    pub fn server(&self) -> &PhiServer {
        &self.inner.server
    }

    fn index(&self) -> MutexGuard<'_, Index> {
        self.inner.index.lock().expect("index lock poisoned")
    }

    /// The fs the wrapped backend materializes files on: pack files and
    /// restore staging live on the host.
    fn storage_fs(&self) -> &SimFs {
        self.server().host().fs()
    }

    fn backend(&self) -> &dyn SnapshotStorage {
        &*self.inner.backend
    }

    fn hasher(&self, node: NodeId) -> BandwidthResource {
        let mut hashers = self.inner.hashers.lock().unwrap();
        hashers
            .entry(node)
            .or_insert_with(|| {
                BandwidthResource::new(format!("snapstore-hash-{node}"), HASH_BW, SimDuration::ZERO)
            })
            .clone()
    }

    /// Commit a completed capture: install it in the index, delete the
    /// files that died with the manifest it replaced, and (in a fleet)
    /// publish it to the shared cross-node pool.
    fn commit(&self, capture: Install<'_>) {
        let (path, manifest) = (capture.path, capture.manifest);
        let pool = self.inner.pool.as_ref();
        let (dead_files, contents) = {
            let mut idx = self.index();
            let dead_files = idx.install(capture);
            (dead_files, pool.map(|_| idx.contents(&manifest.chunks)))
        };
        self.delete_files(dead_files);
        if let Some((att, contents)) = pool.zip(contents) {
            att.published(path, manifest, &contents);
        }
    }

    /// Delete one snapshot's manifest from the store, releasing its
    /// chunk references. Returns `true` if the manifest existed.
    pub fn delete_snapshot(&self, path: &str) -> bool {
        let Some(dead_files) = self.index().remove(path) else {
            return false;
        };
        self.delete_files(dead_files);
        if let Some(att) = &self.inner.pool {
            att.released(path);
        }
        true
    }

    /// Delete every snapshot whose manifest path starts with `prefix`
    /// (a swap directory, say). Returns how many manifests were dropped.
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let paths = self.index().paths_under(prefix);
        for p in &paths {
            self.delete_snapshot(p);
        }
        paths.len()
    }

    fn delete_files(&self, files: impl IntoIterator<Item = String>) {
        for path in files {
            let _ = self.storage_fs().delete(&path);
        }
    }
}

impl SnapshotStorage for Dedup {
    fn sink(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSink>, IoError> {
        Ok(Box::new(sink::DedupSink::open(self, local, path)))
    }

    fn source(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSource>, IoError> {
        source::open(self, local, path)
    }

    fn label(&self) -> &'static str {
        "dedup"
    }
}

/// A backend stream at the far end of a [`Stage`] or, for the serial
/// baselines, in hand: the same calls, inline.
enum Lane<S> {
    Piped(Stage),
    Inline(S),
}

/// One pipeline stage: a worker sim thread on the far side of a bounded
/// queue of chunks — the capture shipper (the sink feeds, the worker
/// writes the pack) and the restore prefetcher (the worker reads the
/// staging file, the source drains). The serial baselines run the
/// worker's loop body inline instead.
///
/// Life cycle: the worker closes the queue when it exits, so the other
/// side never blocks on a dead worker; [`Stage::finish`] closes the
/// queue, joins the worker and returns its result; dropping the stage
/// does the same — an abandoned stream leaves no thread behind.
struct Stage {
    queue: SimChannel<Payload>,
    worker: Option<JoinHandle<Result<(), IoError>>>,
}

impl Stage {
    /// Start `body` on a sim thread named `thread`, handing it the
    /// worker's end of the queue.
    fn spawn(
        thread: String,
        queue: String,
        body: impl FnOnce(&SimChannel<Payload>) -> Result<(), IoError> + Send + 'static,
    ) -> Stage {
        let queue = SimChannel::bounded(queue, STAGE_DEPTH);
        let far = queue.clone();
        let worker = Some(simkernel::spawn(thread, move || {
            let out = body(&far);
            far.close();
            out
        }));
        Stage { queue, worker }
    }

    /// Hand the worker a chunk, waiting while the queue is full.
    fn send(&mut self, chunk: Payload) -> Result<(), IoError> {
        self.queue.send(chunk).or_else(|_| self.worker_gone())
    }

    /// Take the worker's next chunk, waiting while the queue is empty.
    fn recv(&mut self) -> Result<Payload, IoError> {
        self.queue.recv().or_else(|_| self.worker_gone())
    }

    /// The queue closed under `send`/`recv`: the worker died, and its
    /// error is what the stream failed with.
    fn worker_gone<T>(&mut self) -> Result<T, IoError> {
        Err(self.finish().err().unwrap_or(IoError::Closed))
    }

    /// Close the queue, wait the worker out and return how it ended
    /// ([`IoError::Closed`] if that was already collected).
    fn finish(&mut self) -> Result<(), IoError> {
        let worker = self.worker.take().ok_or(IoError::Closed)?;
        self.queue.close();
        worker.join()
    }
}

impl Drop for Stage {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    pub(crate) use phi_platform::MB;
    pub(crate) use simkernel::{now, Kernel};
    use simproc::{FsSink, FsSource};

    /// Minimal backend: files on the host fs, no transport cost beyond
    /// the fs model itself.
    pub(crate) struct HostFs(pub(crate) PhiServer);

    impl SnapshotStorage for HostFs {
        fn sink(&self, _local: NodeId, path: &str) -> Result<Box<dyn ByteSink>, IoError> {
            Ok(Box::new(FsSink::create(self.0.host().fs(), path)))
        }
        fn source(&self, _local: NodeId, path: &str) -> Result<Box<dyn ByteSource>, IoError> {
            Ok(Box::new(FsSource::open(self.0.host().fs(), path)?))
        }
        fn label(&self) -> &'static str {
            "hostfs"
        }
    }

    pub(crate) fn store(server: &PhiServer, config: DedupConfig) -> Dedup {
        Dedup::new(server, Arc::new(HostFs(server.clone())), config)
    }

    pub(crate) fn fleet_store(server: &PhiServer, pool: &ClusterPool, node: usize) -> Dedup {
        let backend = Arc::new(HostFs(server.clone()));
        Dedup::with_pool(server, backend, DedupConfig::default(), pool, node)
    }

    pub(crate) fn write_stream(store: &Dedup, path: &str, parts: &[Payload]) {
        let mut sink = store.sink(NodeId::device(0), path).unwrap();
        for p in parts {
            sink.mark_boundary();
            for chunk in p.chunks(8 << 20) {
                sink.write(chunk).unwrap();
            }
        }
        sink.close().unwrap();
    }

    pub(crate) fn read_stream(store: &Dedup, path: &str) -> Payload {
        read_stream_from(store, NodeId::device(0), path)
    }

    pub(crate) fn read_stream_from(store: &Dedup, local: NodeId, path: &str) -> Payload {
        let mut src = store.source(local, path).unwrap();
        let mut out = Payload::empty();
        while let Some(c) = src.read(8 << 20).unwrap() {
            out.append(c);
        }
        out
    }

    /// Capture `records` through the incremental record API: a record
    /// flagged clean tries the prior snapshot's ledger first, anything
    /// else streams. `trailer` rides after the final record cut (the
    /// stream's image-digest position). Returns which records were
    /// replayed from the ledger.
    pub(crate) fn write_records(
        st: &Dedup,
        path: &str,
        records: &[(&str, Payload, bool)],
        trailer: &[u8],
    ) -> Vec<bool> {
        let mut sink = st.sink(NodeId::device(0), path).unwrap();
        let mut cached = Vec::new();
        for (name, content, clean) in records {
            let hit = *clean
                && sink
                    .write_cached_record(name, content.digest(), content.len())
                    .unwrap();
            if !hit {
                sink.begin_record(name, content.digest(), content.len());
                for chunk in content.chunks(8 << 20) {
                    sink.write(chunk).unwrap();
                }
            }
            cached.push(hit);
        }
        sink.begin_record("", 0, 0);
        sink.write(Payload::bytes(trailer.to_vec())).unwrap();
        sink.close().unwrap();
        cached
    }

    /// The image `write_records` produces for `records` + `trailer`.
    pub(crate) fn image_of(records: &[(&str, Payload, bool)], trailer: &[u8]) -> Payload {
        let mut p = Payload::empty();
        for (_, content, _) in records {
            p.append(content.clone());
        }
        p.append(Payload::bytes(trailer.to_vec()));
        p
    }

    /// [`HostFs`] with one injected stream failure: the `fail_pack_write`-th
    /// write (from 0) to a pack file, or the `fail_staging_read`-th read
    /// of a restore staging file.
    pub(crate) struct Flaky {
        pub(crate) fs: HostFs,
        pub(crate) fail_pack_write: Option<usize>,
        pub(crate) fail_staging_read: Option<usize>,
    }

    /// A stream that fails its `fail_at`-th operation.
    struct FailAt<S> {
        inner: S,
        fail_at: usize,
        ops: usize,
    }

    impl<S> FailAt<S> {
        fn op(&mut self) -> Result<&mut S, IoError> {
            self.ops += 1;
            if self.ops - 1 == self.fail_at {
                return Err(IoError::Other("injected stream failure".into()));
            }
            Ok(&mut self.inner)
        }
    }

    impl ByteSink for FailAt<Box<dyn ByteSink>> {
        fn write(&mut self, data: Payload) -> Result<(), IoError> {
            self.op()?.write(data)
        }
        fn close(&mut self) -> Result<(), IoError> {
            self.inner.close()
        }
    }

    impl ByteSource for FailAt<Box<dyn ByteSource>> {
        fn read(&mut self, max: u64) -> Result<Option<Payload>, IoError> {
            self.op()?.read(max)
        }
    }

    impl SnapshotStorage for Flaky {
        fn sink(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSink>, IoError> {
            let inner = self.fs.sink(local, path)?;
            Ok(
                match self.fail_pack_write.filter(|_| path.contains(".pack")) {
                    Some(fail_at) => Box::new(FailAt {
                        inner,
                        fail_at,
                        ops: 0,
                    }),
                    None => inner,
                },
            )
        }
        fn source(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSource>, IoError> {
            let inner = self.fs.source(local, path)?;
            Ok(
                match self.fail_staging_read.filter(|_| path.contains(".restore")) {
                    Some(fail_at) => Box::new(FailAt {
                        inner,
                        fail_at,
                        ops: 0,
                    }),
                    None => inner,
                },
            )
        }
        fn label(&self) -> &'static str {
            "flaky"
        }
    }

    #[test]
    fn policy_label_round_trips() {
        for p in CachePolicy::ALL {
            assert_eq!(CachePolicy::parse(p.label()), Some(p));
        }
        assert_eq!(CachePolicy::parse("nope"), None);
    }

    #[test]
    fn roundtrip_preserves_content() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let data = Payload::synthetic(3, 20 * MB);
            write_stream(&st, "/snap/rt", std::slice::from_ref(&data));
            assert_eq!(read_stream(&st, "/snap/rt").digest(), data.digest());
        });
    }

    #[test]
    fn roundtrip_real_bytes() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let data = Payload::bytes((0..=255u8).cycle().take(10_000).collect::<Vec<_>>());
            write_stream(&st, "/snap/rb", std::slice::from_ref(&data));
            assert_eq!(read_stream(&st, "/snap/rb").to_bytes(), data.to_bytes());
        });
    }

    #[test]
    fn delete_prefix_collects_a_whole_snapshot_directory() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            write_stream(
                &st,
                "/swap/job1/device_snapshot",
                &[Payload::synthetic(1, 8 * MB)],
            );
            write_stream(
                &st,
                "/swap/job1/local_store/buf_0",
                &[Payload::synthetic(2, 8 * MB)],
            );
            write_stream(
                &st,
                "/swap/job2/device_snapshot",
                &[Payload::synthetic(3, 8 * MB)],
            );
            assert_eq!(st.delete_prefix("/swap/job1/"), 2);
            assert_eq!(st.stats().bytes_stored, 8 * MB);
            assert_eq!(st.stats().manifests, 1);
        });
    }

    #[test]
    fn missing_snapshot_propagates_backend_not_found() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            assert!(st.source(NodeId::device(0), "/snap/nope").is_err());
        });
    }

    /// A pool-less store behaves exactly as before (no publications, no
    /// import fallback).
    #[test]
    fn store_without_pool_misses_stay_misses() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            assert!(st.source(NodeId::device(0), "/nope").is_err());
        });
    }
}
