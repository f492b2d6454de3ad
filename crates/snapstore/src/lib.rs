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
//! artifact.
//!
//! Capture is *pipelined*: the writer digests and deduplicates chunk
//! `k+1` while a dedicated shipper thread pushes chunk `k` through the
//! backend transport, so hashing overlaps the transfer instead of
//! serializing with it.
//!
//! Restore reverses the path: fetch the manifest through the backend,
//! verify the reassembled image against the manifest digest (the
//! `incremental.rs` chain-verification discipline — corruption is
//! rejected, never silently restored), then serve the stream through a
//! **restore fast path**: chunks still *warm* on the restoring node
//! (they survived there since the last swap-out, tracked by a bounded,
//! refcount-aware per-node cache) are satisfied with a local memcpy and
//! never cross the transport again; cold chunks are staged and fetched
//! through the backend, with fetch of chunk `k+1` pipelined against the
//! BLCR stream replay of chunk `k` — the mirror image of the capture
//! pipeline. Cold chunks are digest-verified on arrival and then enter
//! the restoring node's warm cache.
//!
//! Garbage collection is refcount-based: deleting a snapshot releases
//! its manifest's references; chunks that hit zero are dropped (and
//! evicted from every warm cache) and pack files whose chunks are all
//! dead are deleted from the backing fs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use phi_platform::{FaultKind, FaultTarget, NodeId, Payload, PhiServer, SimFs};
use simkernel::obs;
use simkernel::{now, Bandwidth, BandwidthResource, SimChannel, SimDuration, SimTime};
use simproc::{ByteSink, ByteSource, IoError, SnapshotStorage};

pub mod pool;

pub use pool::{ClusterPool, PoolManifestInfo, PoolStats};

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
}

/// Fixed chunk size the capture stream is cut into (boundary marks from
/// the frame writer cut shorter chunks early, keeping regions aligned
/// across snapshots).
const CHUNK_SIZE: u64 = 4 << 20;
/// Digest throughput of one capture-side core (the FNV pass the store
/// pays per chunk): 2 GB/s.
const HASH_BW: Bandwidth = Bandwidth(2e9);
/// Bounded depth of the capture → shipper queue.
const PIPELINE_DEPTH: usize = 4;
/// Bounded depth of the prefetch → replay queue.
const RESTORE_PREFETCH_DEPTH: usize = 4;

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

struct ChunkEntry {
    content: Payload,
    refs: u64,
    pack: u64,
}

struct PackInfo {
    path: String,
    live: u64,
}

/// One record's slice of a snapshot stream, as cut by the capture-side
/// `begin_record` boundaries: every chunk from the record's cut to the
/// next one (name header, length prefix and payload — a deterministic
/// function of the record's name and content). `digest`/`len` identify
/// the record *content* the caller advertised, which is what a later
/// capture matches against before replaying the chunks.
#[derive(Clone)]
struct RegionSpan {
    digest: u64,
    len: u64,
    chunks: Vec<ChunkKey>,
}

/// Per-path record ledger: which spans the snapshot currently stored at
/// a path is made of, plus how many consecutive incremental captures
/// led to it (the logical delta-chain length, reset by a rebase).
struct Ledger {
    age: u64,
    spans: HashMap<String, RegionSpan>,
}

/// One warm chunk's bookkeeping: recency for LRU, touch count for the
/// popularity/cost policies.
#[derive(Clone, Copy)]
struct WarmEntry {
    tick: u64,
    hits: u64,
}

/// Which chunks are still materialized on one node since it last
/// captured or restored them. Holds *keys only* (plus per-entry ticks
/// and touch counts) — the content lives in the refcounted chunk index,
/// and no node memory is charged for cache membership.
#[derive(Default)]
struct WarmCache {
    chunks: HashMap<ChunkKey, WarmEntry>,
    bytes: u64,
    tick: u64,
}

impl WarmCache {
    /// Touch or insert `key`, then evict the policy's victims until the
    /// cache fits `cap`. Ticks are unique, so every policy's eviction
    /// order is deterministic (ties break toward least-recently-used).
    fn insert(&mut self, key: ChunkKey, cap: u64, policy: CachePolicy) {
        if key.1 > cap {
            return;
        }
        self.tick += 1;
        let entry = self.chunks.entry(key).or_insert_with(|| {
            self.bytes += key.1;
            WarmEntry { tick: 0, hits: 0 }
        });
        entry.tick = self.tick;
        entry.hits += 1;
        while self.bytes > cap {
            let victim = *self
                .chunks
                .iter()
                .min_by_key(|(key, e)| WarmCache::score(key, e, policy))
                .expect("bytes > 0 implies entries")
                .0;
            self.chunks.remove(&victim);
            self.bytes -= victim.1;
        }
    }

    /// Eviction rank — the smallest score goes first. The tick
    /// tie-break makes the choice total and deterministic.
    fn score(key: &ChunkKey, e: &WarmEntry, policy: CachePolicy) -> (u128, u64) {
        match policy {
            CachePolicy::Lru => (0, e.tick),
            CachePolicy::Popularity => (e.hits as u128, e.tick),
            CachePolicy::CostAware => (e.hits as u128 * key.1 as u128, e.tick),
        }
    }

    fn remove(&mut self, key: &ChunkKey) {
        if self.chunks.remove(key).is_some() {
            self.bytes -= key.1;
        }
    }
}

#[derive(Default)]
struct Index {
    chunks: HashMap<ChunkKey, ChunkEntry>,
    packs: HashMap<u64, PackInfo>,
    /// Live manifests: path → the chunk keys it references, in order.
    manifests: HashMap<String, Vec<ChunkKey>>,
    /// Per-path record ledgers (incremental capture fast path).
    ledgers: HashMap<String, Ledger>,
    next_pack: u64,
    stats: StoreStats,
    /// Per-node warm chunk caches (restore fast path).
    warm: HashMap<NodeId, WarmCache>,
}

impl Index {
    /// Mark `key` warm on `node`: the node holds a verified copy of the
    /// chunk's content right now (it just captured or restored it).
    fn warm_insert(&mut self, node: NodeId, key: ChunkKey, config: &DedupConfig) {
        let cap = config.restore_cache_bytes;
        if cap == 0 {
            return;
        }
        debug_assert!(self.chunks.contains_key(&key), "warm chunk must be live");
        self.warm
            .entry(node)
            .or_default()
            .insert(key, cap, config.cache_policy);
    }

    fn is_warm(&self, node: NodeId, key: &ChunkKey) -> bool {
        self.warm
            .get(&node)
            .is_some_and(|c| c.chunks.contains_key(key))
    }

    /// Install `refs` as the manifest at `path`, replacing any manifest
    /// already there: reference every chunk (content the index lacks
    /// moves out of `novel` into `pack`), mark `warm` as held by `node`,
    /// then release the replaced manifest. Returns the files that died.
    #[allow(clippy::too_many_arguments)]
    fn install_manifest(
        &mut self,
        path: &str,
        node: NodeId,
        refs: &[ChunkKey],
        novel: &mut HashMap<ChunkKey, Payload>,
        pack: Option<u64>,
        warm: &[ChunkKey],
        config: &DedupConfig,
    ) -> Vec<String> {
        let mut dead_files = Vec::new();
        // Install the new manifest's references BEFORE releasing the
        // one it replaces: re-snapshotting unchanged content to the
        // same path dedups against the old manifest's chunks, and
        // releasing first would free exactly the chunks the new
        // manifest is about to reference.
        let old = self.manifests.remove(path);
        for key in refs {
            if let Some(entry) = self.chunks.get_mut(key) {
                entry.refs += 1;
                continue;
            }
            let content = novel
                .remove(key)
                .expect("novel chunk content retained until install");
            let pack = pack.expect("novel chunks imply a pack");
            self.chunks.insert(
                *key,
                ChunkEntry {
                    content,
                    refs: 1,
                    pack,
                },
            );
            self.packs.get_mut(&pack).expect("pack registered").live += 1;
            self.stats.bytes_stored += key.1;
        }
        for key in warm {
            self.warm_insert(node, *key, config);
        }
        if let Some(old) = old {
            release_manifest(self, old, &mut dead_files);
        }
        // A pack that ended up with no surviving novel chunks (every
        // "fresh" chunk was committed by a concurrent capture first)
        // is dead on arrival.
        if let Some(pack) = pack {
            if self.packs.get(&pack).map(|p| p.live) == Some(0) {
                let info = self.packs.remove(&pack).unwrap();
                dead_files.push(info.path);
            }
        }
        self.manifests.insert(path.to_string(), refs.to_vec());
        self.stats.manifests = self.manifests.len() as u64;
        dead_files
    }

    /// A chunk died (refcount hit zero): no warm cache may keep serving
    /// it — its backing content is gone from the store.
    fn warm_evict_all(&mut self, key: &ChunkKey) {
        for cache in self.warm.values_mut() {
            cache.remove(key);
        }
    }
}

/// Membership of this store in a fleet: the shared pool, this node's
/// fleet index, and the cluster NIC the imports are priced on.
struct PoolAttachment {
    pool: ClusterPool,
    node: usize,
    nic: BandwidthResource,
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
        let params = server.params();
        let nic = BandwidthResource::new(
            format!("snapstore-nic{cluster_node}"),
            params.net_bw,
            params.net_latency,
        );
        let attachment = PoolAttachment {
            pool: pool.clone(),
            node: cluster_node,
            nic,
        };
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
                config,
                index: Mutex::new(Index::default()),
                hashers: Mutex::new(HashMap::new()),
                pool,
            }),
        }
    }

    /// The store configuration.
    pub fn config(&self) -> &DedupConfig {
        &self.inner.config
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.index.lock().unwrap().stats
    }

    /// The server this store runs on.
    pub fn server(&self) -> &PhiServer {
        &self.inner.server
    }

    /// The fs the wrapped backend materializes files on: pack files and
    /// restore staging live on the host.
    fn storage_fs(&self) -> &SimFs {
        self.inner.server.host().fs()
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

    fn has_chunk(&self, key: &ChunkKey) -> bool {
        self.inner.index.lock().unwrap().chunks.contains_key(key)
    }

    fn note_hit(&self, node: NodeId, len: u64) {
        let mut idx = self.inner.index.lock().unwrap();
        idx.stats.chunks_hit += 1;
        idx.stats.bytes_deduped += len;
        idx.stats.capture_dirty_bytes += len;
        drop(idx);
        if obs::is_enabled() {
            let n = node.to_string();
            obs::counter_add_labeled("store.chunks_hit", &[("node", &n)], 1);
            obs::counter_add_labeled("store.bytes_deduped", &[("node", &n)], len);
        }
    }

    fn note_miss(&self, node: NodeId, len: u64) {
        let mut idx = self.inner.index.lock().unwrap();
        idx.stats.chunks_miss += 1;
        idx.stats.bytes_shipped += len;
        idx.stats.capture_dirty_bytes += len;
        drop(idx);
        if obs::is_enabled() {
            let n = node.to_string();
            obs::counter_add_labeled("store.chunks_miss", &[("node", &n)], 1);
            obs::counter_add_labeled("store.bytes_shipped", &[("node", &n)], len);
        }
    }

    /// Reserve a pack id + path for a snapshot's novel chunks.
    fn new_pack(&self, manifest_path: &str) -> (u64, String) {
        let mut idx = self.inner.index.lock().unwrap();
        let id = idx.next_pack;
        idx.next_pack += 1;
        let path = format!("{manifest_path}.pack{id}");
        idx.packs.insert(
            id,
            PackInfo {
                path: path.clone(),
                live: 0,
            },
        );
        (id, path)
    }

    /// Drop a pack whose shipping failed: forget it and best-effort
    /// delete the partial file.
    fn discard_pack(&self, id: u64) {
        let info = self.inner.index.lock().unwrap().packs.remove(&id);
        if let Some(info) = info {
            let _ = self.storage_fs().delete(&info.path);
        }
    }

    /// Commit a completed snapshot: install novel chunks, bump refs for
    /// every manifest entry, and (if the path is being re-snapshotted)
    /// release the manifest it replaces. In a fleet, the committed
    /// manifest is then published to the shared cross-node pool.
    #[allow(clippy::too_many_arguments)]
    fn commit(
        &self,
        path: &str,
        node: NodeId,
        pack: Option<u64>,
        refs: &[ChunkKey],
        fresh: &mut HashMap<ChunkKey, Payload>,
        manifest_len: u64,
        total: u64,
        image_digest: u64,
        spans: HashMap<String, RegionSpan>,
        reused: bool,
    ) {
        let mut pool_contents: Vec<Payload> = Vec::new();
        let dead_files = {
            let mut idx = self.inner.index.lock().unwrap();
            // Everything the capture just streamed is materialized on
            // the capturing node right now: warm it for the swap-in.
            let dead_files =
                idx.install_manifest(path, node, refs, fresh, pack, refs, &self.inner.config);
            // Install the new ledger: a capture that reused prior spans
            // lengthens the logical delta chain; one that streamed
            // everything is a fresh base. A capture with no record
            // boundaries at all leaves no ledger (and drops any stale
            // one) — the next capture at this path streams in full.
            let prior_age = idx.ledgers.get(path).map_or(0, |l| l.age);
            if spans.is_empty() {
                idx.ledgers.remove(path);
            } else {
                let age = if reused { prior_age + 1 } else { 0 };
                idx.ledgers.insert(path.to_string(), Ledger { age, spans });
            }
            idx.stats.bytes_shipped += manifest_len;
            if self.inner.pool.is_some() {
                pool_contents = refs.iter().map(|k| idx.chunks[k].content.clone()).collect();
            }
            dead_files
        };
        obs::counter_add("store.bytes_shipped", manifest_len);
        self.delete_files(dead_files);
        if let Some(att) = &self.inner.pool {
            att.pool
                .publish(path, att.node, refs, &pool_contents, total, image_digest);
        }
    }

    /// Delete one snapshot's manifest from the store, releasing its
    /// chunk references. Returns `true` if the manifest existed.
    pub fn delete_snapshot(&self, path: &str) -> bool {
        let mut dead_files = Vec::new();
        let existed = {
            let mut idx = self.inner.index.lock().unwrap();
            match idx.manifests.remove(path) {
                Some(old) => {
                    idx.ledgers.remove(path);
                    dead_files.push(path.to_string());
                    release_manifest(&mut idx, old, &mut dead_files);
                    idx.stats.manifests = idx.manifests.len() as u64;
                    true
                }
                None => false,
            }
        };
        self.delete_files(dead_files);
        if existed {
            if let Some(att) = &self.inner.pool {
                att.pool.release(path, att.node);
            }
        }
        existed
    }

    /// Delete every snapshot whose manifest path starts with `prefix`
    /// (a swap directory, say). Returns how many manifests were dropped.
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let mut paths: Vec<String> = {
            let idx = self.inner.index.lock().unwrap();
            idx.manifests
                .keys()
                .filter(|p| p.starts_with(prefix))
                .cloned()
                .collect()
        };
        // HashMap iteration order is unstable; keep fs operations (and
        // thus the simulated world) deterministic.
        paths.sort();
        let n = paths.len();
        for p in &paths {
            self.delete_snapshot(p);
        }
        n
    }

    fn delete_files(&self, files: Vec<String>) {
        for path in files {
            let _ = self.storage_fs().delete(&path);
        }
    }

    fn backend(&self) -> &Arc<dyn SnapshotStorage> {
        &self.inner.backend
    }

    /// Bytes currently tracked by `node`'s warm cache (test hook).
    #[cfg(test)]
    fn warm_bytes(&self, node: NodeId) -> u64 {
        let idx = self.inner.index.lock().unwrap();
        idx.warm.get(&node).map_or(0, |c| c.bytes)
    }
}

/// Release one manifest's references; dead chunks and dead packs are
/// removed from the index and the packs' files queued on `dead_files`.
fn release_manifest(idx: &mut Index, old: Vec<ChunkKey>, dead_files: &mut Vec<String>) {
    for key in &old {
        let entry = idx.chunks.get_mut(key).expect("referenced chunk exists");
        entry.refs -= 1;
        if entry.refs > 0 {
            continue;
        }
        let entry = idx.chunks.remove(key).unwrap();
        idx.warm_evict_all(key);
        idx.stats.bytes_stored -= key.1;
        idx.stats.chunks_freed += 1;
        obs::counter_add("store.gc.chunks_freed", 1);
        let pack = idx.packs.get_mut(&entry.pack).expect("chunk's pack exists");
        pack.live -= 1;
        if pack.live == 0 {
            let info = idx.packs.remove(&entry.pack).unwrap();
            idx.stats.packs_deleted += 1;
            obs::counter_add("store.gc.packs_deleted", 1);
            dead_files.push(info.path);
        }
    }
}

impl SnapshotStorage for Dedup {
    fn sink(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSink>, IoError> {
        // Offer the prior snapshot's record ledger to the new capture —
        // unless the delta chain is due for a rebase, in which case the
        // ledger is withheld and every record streams in full.
        let prior_spans = {
            let idx = self.inner.index.lock().unwrap();
            idx.ledgers.get(path).and_then(|ledger| {
                let rebase = u64::from(self.inner.config.incremental_rebase_every);
                if rebase > 0 && ledger.age + 1 >= rebase {
                    None
                } else {
                    Some(ledger.spans.clone())
                }
            })
        };
        Ok(Box::new(DedupSink {
            store: self.clone(),
            local,
            path: path.to_string(),
            pending: Payload::empty(),
            refs: Vec::new(),
            fresh: HashMap::new(),
            image: Payload::empty(),
            ship: None,
            failed: None,
            closed: false,
            prior_spans,
            next_spans: HashMap::new(),
            current_span: None,
            reused: false,
        }))
    }

    fn source(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSource>, IoError> {
        self.open_source(local, path)
    }

    fn label(&self) -> &'static str {
        "dedup"
    }
}

impl Dedup {
    fn open_source(&self, local: NodeId, path: &str) -> Result<Box<dyn ByteSource>, IoError> {
        // 1. Fetch the manifest through the backend (missing snapshot =
        //    backend's NotFound; a non-manifest file = typed corruption).
        //    A local miss in a fleet falls back to the shared pool:
        //    import the snapshot from whichever nodes hold it, then
        //    retry.
        let mut msrc = match self.backend().source(local, path) {
            Ok(s) => s,
            Err(e) => {
                if self.pool_import(local, path)? {
                    self.backend().source(local, path)?
                } else {
                    return Err(e);
                }
            }
        };
        let mut bytes = Vec::new();
        while let Some(c) = msrc.read(64 << 10)? {
            bytes.extend_from_slice(&c.to_bytes());
        }
        let manifest = Manifest::decode(&bytes)
            .map_err(|e| IoError::Other(format!("snapstore {path}: {e}")))?;

        // 2. Build the restore plan under the index lock: for each
        //    chunk, decide warm (still materialized on `local` — serve
        //    with a memcpy) vs cold (must cross the transport again),
        //    and reassemble the image for structural verification.
        let mut image = Payload::empty();
        let mut plan = Vec::with_capacity(manifest.chunks.len());
        let mut warm_bytes = 0u64;
        let mut cold = Vec::new();
        {
            let idx = self.inner.index.lock().unwrap();
            for key in &manifest.chunks {
                let entry = idx.chunks.get(key).ok_or_else(|| {
                    IoError::Other(format!(
                        "snapstore {path}: chunk {:#x}+{} missing from store (collected?)",
                        key.0, key.1
                    ))
                })?;
                image.append(entry.content.clone());
                if idx.is_warm(local, key) {
                    warm_bytes += key.1;
                    plan.push(RestoreStep {
                        key: *key,
                        warm: Some(entry.content.clone()),
                    });
                } else {
                    cold.push(entry.content.clone());
                    plan.push(RestoreStep {
                        key: *key,
                        warm: None,
                    });
                }
            }
        }
        let cold_bytes = manifest.total - warm_bytes;

        // 3. Verify the reassembled image against the manifest before
        //    handing out a single byte (the incremental-chain
        //    discipline: reject, never silently restore). This is the
        //    free structural check; the metered digest pass is paid per
        //    cold chunk on arrival — warm chunks were verified when
        //    they entered the cache.
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

        // 4. Cold chunks cross the transport: materialize a staging
        //    file holding ONLY the cold bytes (content lands
        //    immediately, the write-back overlaps the reads) and fetch
        //    it back through the wrapped backend — pipelined on a
        //    dedicated prefetch thread so the transport of chunk `k+1`
        //    overlaps the replay of chunk `k`. The staging file dies
        //    with the source. A fully-warm restore opens no stream at
        //    all.
        let fs = self.storage_fs().clone();
        let mut staging = None;
        let fetch = if cold_bytes == 0 {
            ColdFetch::None
        } else {
            let spath = format!("{path}.restore");
            fs.create_or_truncate(&spath);
            for content in &cold {
                for chunk in content.chunks(CHUNK_SIZE) {
                    fs.append_async(&spath, chunk)?;
                }
            }
            staging = Some(spath.clone());
            if self.inner.config.restore_pipelined {
                let tx: SimChannel<Payload> = SimChannel::bounded(
                    format!("snapstore-restore-pipe:{path}"),
                    RESTORE_PREFETCH_DEPTH,
                );
                let rx = tx.clone();
                let store = self.clone();
                let cold_lens: Vec<u64> = cold.iter().map(|c| c.len()).collect();
                let handle = simkernel::spawn(format!("snapstore-restore:{path}"), move || {
                    let run = || -> Result<(), IoError> {
                        let mut src = store.backend().source(local, &spath)?;
                        for len in cold_lens {
                            let chunk = read_exact(src.as_mut(), len, &spath)?;
                            if tx.send(chunk).is_err() {
                                // The reader went away mid-restore.
                                return Ok(());
                            }
                        }
                        Ok(())
                    };
                    let out = run();
                    // Done or dead: unblock the reader either way.
                    tx.close();
                    out
                });
                ColdFetch::Pipelined {
                    rx,
                    handle: Some(handle),
                }
            } else {
                ColdFetch::Serial {
                    inner: self.backend().source(local, &spath)?,
                }
            }
        };
        Ok(Box::new(DedupSource {
            store: self.clone(),
            local,
            path: path.to_string(),
            fs,
            staging,
            steps: plan.into_iter(),
            fetch,
            pending: Payload::empty(),
            opened_at: now(),
            stalled: SimDuration::ZERO,
        }))
    }

    /// Import `path` from the shared cross-node pool into this store:
    /// pin the manifest's chunks for the duration of the transfer (so
    /// no other node's GC can collect them mid-flight), fetch the
    /// chunks this store has never seen over the cluster NIC, install
    /// everything locally (manifest artifact, chunk index entries,
    /// warm-cache membership for the bytes that just landed), and
    /// register this node as a pool holder so the content outlives the
    /// original publisher. Returns `Ok(false)` when there is no pool or
    /// the pool has no visible manifest at `path` — the caller's local
    /// miss then stands.
    fn pool_import(&self, local: NodeId, path: &str) -> Result<bool, IoError> {
        let Some(att) = &self.inner.pool else {
            return Ok(false);
        };
        let Some(pm) = att.pool.manifest(path) else {
            return Ok(false);
        };
        let _span = obs::span!(
            "snapstore.pool.import",
            path = path,
            chunks = pm.chunks.len(),
        );
        // The satellite GC-race fix: pins keep every referenced chunk
        // alive for the whole import, however long the transfer takes
        // and whoever releases the manifest meanwhile.
        let pins = att.pool.pin(&pm.chunks).map_err(|key| {
            IoError::Other(format!(
                "snapstore {path}: cluster pool chunk {:#x}+{} collected before import",
                key.0, key.1
            ))
        })?;
        let mut unique: Vec<ChunkKey> = Vec::new();
        for key in &pm.chunks {
            if !unique.contains(key) {
                unique.push(*key);
            }
        }
        let mut fetched: HashMap<ChunkKey, Payload> = HashMap::new();
        let mut fetched_bytes = 0u64;
        let mut avoided_bytes = 0u64;
        for key in &unique {
            if self.inner.index.lock().unwrap().chunks.contains_key(key) {
                // This node already holds the content — the whole point
                // of a content-addressed fleet pool: nothing ships.
                avoided_bytes += key.1;
                continue;
            }
            // The transfer rides this node's cluster NIC; the chaos
            // plane can fault it like any other transport.
            match self.inner.server.faults().take(FaultTarget::Net(att.node)) {
                Some(FaultKind::ConnReset) => {
                    return Err(IoError::Other(format!(
                        "snapstore {path}: cluster fetch reset by peer (net{})",
                        att.node
                    )));
                }
                Some(FaultKind::NfsTimeout(d)) => {
                    simkernel::sleep(d);
                    return Err(IoError::Other(format!(
                        "snapstore {path}: cluster fetch timed out (net{})",
                        att.node
                    )));
                }
                Some(FaultKind::BusDelay(d)) => simkernel::sleep(d),
                _ => {}
            }
            att.nic.transfer(key.1);
            let content = att.pool.chunk(key).ok_or_else(|| {
                IoError::Other(format!(
                    "snapstore {path}: cluster pool chunk {:#x}+{} vanished while pinned",
                    key.0, key.1
                ))
            })?;
            fetched_bytes += key.1;
            fetched.insert(*key, content);
        }
        // The manifest artifact itself crosses the network too, and
        // becomes this node's durable copy through the backend.
        let manifest = Manifest {
            chunks: pm.chunks.clone(),
            total: pm.total,
            image_digest: pm.image_digest,
        };
        let bytes = manifest.encode();
        fetched_bytes += bytes.len() as u64;
        let mut msink = self.backend().sink(local, path)?;
        msink
            .write(Payload::bytes(bytes))
            .and_then(|_| msink.close())?;
        let pack = if fetched.is_empty() {
            None
        } else {
            Some(self.new_pack(path).0)
        };
        // Fetched bytes just landed on the importing node: they are
        // warm for the restore about to replay them. Chunks the node
        // merely indexes elsewhere stay cold.
        let warm: Vec<ChunkKey> = pm
            .chunks
            .iter()
            .filter(|key| fetched.contains_key(key))
            .copied()
            .collect();
        let dead_files = self.inner.index.lock().unwrap().install_manifest(
            path,
            local,
            &pm.chunks,
            &mut fetched,
            pack,
            &warm,
            &self.inner.config,
        );
        self.delete_files(dead_files);
        // This node now holds the manifest: its pool references keep
        // the chunks alive after the publisher releases its own.
        att.pool.add_holder(path, att.node);
        att.pool.note_import(fetched_bytes, avoided_bytes);
        drop(pins);
        obs::counter_add("snapstore.pool.bytes_fetched", fetched_bytes);
        obs::counter_add("snapstore.pool.bytes_avoided", avoided_bytes);
        Ok(true)
    }
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

// ---------------------------------------------------------------------------
// Capture side
// ---------------------------------------------------------------------------

enum Shipper {
    /// Dedicated sim thread pulling novel chunks off a bounded queue.
    Pipelined {
        tx: SimChannel<Payload>,
        handle: simkernel::JoinHandle<Result<u64, IoError>>,
        pack: u64,
    },
    /// Inline shipping (serial baseline).
    Serial {
        sink: Box<dyn ByteSink>,
        pack: u64,
        shipped: u64,
    },
}

/// Capture-side sink: chunks, digests, dedups and ships the stream.
pub struct DedupSink {
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
    ship: Option<Shipper>,
    /// A failure recorded by the infallible `mark_boundary` hint,
    /// surfaced by the next fallible call.
    failed: Option<IoError>,
    closed: bool,
    /// The prior snapshot's record ledger at this path, if one exists
    /// and the delta chain is not due for a rebase. What
    /// `write_cached_record` replays from.
    prior_spans: Option<HashMap<String, RegionSpan>>,
    /// The ledger this capture is building (installed at commit).
    next_spans: HashMap<String, RegionSpan>,
    /// The record currently being streamed: name, advertised content
    /// digest/len, and where in `refs` its chunks start.
    current_span: Option<(String, u64, u64, usize)>,
    /// Whether any record was replayed from the prior ledger (decides
    /// whether the committed ledger extends the delta chain).
    reused: bool,
}

impl DedupSink {
    fn process_chunk(&mut self, chunk: Payload) -> Result<(), IoError> {
        // Canonicalise once, where the chunk is cut: `image`, `fresh`,
        // the pack file, the index and the cluster pool all end up
        // holding handles to this one buffer.
        let chunk = chunk.normalize();
        let len = chunk.len();
        // The digest pass occupies a capture-side core; the shipper
        // thread (if any) moves the previous chunk meanwhile.
        self.store.hasher(self.local).transfer(len);
        let key = (chunk.digest(), len);
        self.refs.push(key);
        self.image.append(chunk.clone());
        if self.fresh.contains_key(&key) || self.store.has_chunk(&key) {
            self.store.note_hit(self.local, len);
            return Ok(());
        }
        self.store.note_miss(self.local, len);
        self.fresh.insert(key, chunk.clone());
        self.ship_chunk(chunk)
    }

    fn ship_chunk(&mut self, chunk: Payload) -> Result<(), IoError> {
        if self.ship.is_none() {
            self.ship = Some(self.start_shipper()?);
        }
        match self.ship.as_mut().unwrap() {
            Shipper::Pipelined { tx, .. } => {
                if tx.send(chunk).is_err() {
                    // The shipper died mid-stream; surface its error.
                    return Err(self
                        .finish_shipper()
                        .expect_err("dead shipper has an error"));
                }
                Ok(())
            }
            Shipper::Serial { sink, shipped, .. } => {
                let len = chunk.len();
                sink.write(chunk)?;
                *shipped += len;
                Ok(())
            }
        }
    }

    /// Open the pack stream (lazily: a fully-warm snapshot never opens
    /// one). Pipelined mode hands the backend sink to a dedicated
    /// thread fed by a bounded queue.
    fn start_shipper(&mut self) -> Result<Shipper, IoError> {
        let (pack, pack_path) = self.store.new_pack(&self.path);
        if !self.store.inner.config.pipelined {
            match self.store.backend().sink(self.local, &pack_path) {
                Ok(sink) => {
                    return Ok(Shipper::Serial {
                        sink,
                        pack,
                        shipped: 0,
                    })
                }
                Err(e) => {
                    self.store.discard_pack(pack);
                    return Err(e);
                }
            }
        }
        let tx: SimChannel<Payload> =
            SimChannel::bounded(format!("snapstore-pipe:{}", self.path), PIPELINE_DEPTH);
        let rx = tx.clone();
        let store = self.store.clone();
        let local = self.local;
        let handle = simkernel::spawn(format!("snapstore-ship:{}", self.path), move || {
            let run = || -> Result<u64, IoError> {
                let mut sink = store.backend().sink(local, &pack_path)?;
                let mut shipped = 0u64;
                while let Ok(chunk) = rx.recv() {
                    let len = chunk.len();
                    sink.write(chunk)?;
                    shipped += len;
                }
                sink.close()?;
                Ok(shipped)
            };
            let out = run();
            if out.is_err() {
                // Unblock a sender stuck on the bounded queue.
                rx.close();
            }
            out
        });
        Ok(Shipper::Pipelined { tx, handle, pack })
    }

    /// Close the pack stream and collect how many bytes it shipped.
    /// On error the partial pack is discarded.
    fn finish_shipper(&mut self) -> Result<(Option<u64>, u64), IoError> {
        match self.ship.take() {
            None => Ok((None, 0)),
            Some(Shipper::Serial {
                mut sink,
                pack,
                shipped,
            }) => match sink.close() {
                Ok(()) => Ok((Some(pack), shipped)),
                Err(e) => {
                    self.store.discard_pack(pack);
                    Err(e)
                }
            },
            Some(Shipper::Pipelined { tx, handle, pack }) => {
                tx.close();
                match handle.join() {
                    Ok(shipped) => Ok((Some(pack), shipped)),
                    Err(e) => {
                        self.store.discard_pack(pack);
                        Err(e)
                    }
                }
            }
        }
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
}

impl ByteSink for DedupSink {
    fn write(&mut self, data: Payload) -> Result<(), IoError> {
        if self.closed {
            return Err(IoError::Closed);
        }
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        self.pending.append(data);
        self.cut_pending(false)
    }

    fn mark_boundary(&mut self) {
        // A record boundary: cut the tail so the next record starts a
        // fresh chunk, keeping identical regions aligned even when
        // earlier content shifted. The hint is infallible, so a failure
        // is remembered and surfaced by the next write or close.
        if self.closed || self.failed.is_some() {
            return;
        }
        if let Err(e) = self.cut_pending(true) {
            self.failed = Some(e);
        }
    }

    fn begin_record(&mut self, name: &str, digest: u64, len: u64) {
        if self.closed || self.failed.is_some() {
            return;
        }
        if let Err(e) = self.close_span() {
            self.failed = Some(e);
            return;
        }
        if !name.is_empty() {
            self.current_span = Some((name.to_string(), digest, len, self.refs.len()));
        }
    }

    fn write_cached_record(&mut self, name: &str, digest: u64, len: u64) -> Result<bool, IoError> {
        if self.closed {
            return Err(IoError::Closed);
        }
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        self.close_span()?;
        let span = match self.prior_spans.as_ref().and_then(|s| s.get(name)) {
            Some(s) if s.digest == digest && s.len == len => s.clone(),
            _ => return Ok(false),
        };
        // Replay the prior snapshot's chunk run for this record. Every
        // chunk must still be live in the index — the prior manifest at
        // this path pins them until commit, but a ledger can outlive
        // content in edge cases (concurrent deletes), and a stale span
        // must fall back to streaming, never fabricate bytes.
        {
            let mut idx = self.store.inner.index.lock().unwrap();
            if !span.chunks.iter().all(|k| idx.chunks.contains_key(k)) {
                return Ok(false);
            }
            let mut bytes = 0u64;
            for key in &span.chunks {
                let entry = &idx.chunks[key];
                self.image.append(entry.content.clone());
                self.refs.push(*key);
                bytes += key.1;
            }
            idx.stats.capture_clean_bytes += bytes;
        }
        // No read, no chunking, no digest pass, no transport: the whole
        // record costs index metadata only. That is the O(dirty) claim.
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
        self.close_span()?;
        let (pack, _shipped) = self.finish_shipper()?;
        // The manifest is the durable artifact the backend stores under
        // the snapshot path.
        let manifest = Manifest {
            chunks: self.refs.clone(),
            total: self.image.len(),
            image_digest: self.image.digest(),
        };
        let bytes = manifest.encode();
        let manifest_len = bytes.len() as u64;
        let mut msink = match self.store.backend().sink(self.local, &self.path) {
            Ok(s) => s,
            Err(e) => {
                if let Some(pack) = pack {
                    self.store.discard_pack(pack);
                }
                return Err(e);
            }
        };
        if let Err(e) = msink
            .write(Payload::bytes(bytes))
            .and_then(|_| msink.close())
        {
            if let Some(pack) = pack {
                self.store.discard_pack(pack);
            }
            return Err(e);
        }
        self.store.commit(
            &self.path,
            self.local,
            pack,
            &self.refs,
            &mut self.fresh,
            manifest_len,
            manifest.total,
            manifest.image_digest,
            std::mem::take(&mut self.next_spans),
            self.reused,
        );
        self.closed = true;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Restore side
// ---------------------------------------------------------------------------

/// One chunk of the restore plan: warm chunks carry their content
/// (served with a local memcpy); cold chunks are fetched in plan order.
struct RestoreStep {
    key: ChunkKey,
    warm: Option<Payload>,
}

/// How cold chunks reach the restoring node.
enum ColdFetch {
    /// Dedicated prefetch thread pushing cold chunks through a bounded
    /// queue — transport of chunk `k+1` overlaps the replay of `k`.
    Pipelined {
        rx: SimChannel<Payload>,
        handle: Option<simkernel::JoinHandle<Result<(), IoError>>>,
    },
    /// Inline fetch (serial baseline).
    Serial { inner: Box<dyn ByteSource> },
    /// Fully-warm restore: nothing crosses the transport.
    None,
}

/// Restore-side source: replays the manifest's chunk sequence, serving
/// warm chunks from the restoring node's cache and cold chunks through
/// the backend transport. Deletes its staging file when dropped.
struct DedupSource {
    store: Dedup,
    local: NodeId,
    path: String,
    fs: SimFs,
    staging: Option<String>,
    steps: std::vec::IntoIter<RestoreStep>,
    fetch: ColdFetch,
    /// Bytes from completed steps not yet handed to the caller.
    pending: Payload,
    opened_at: SimTime,
    /// Time spent waiting on the prefetch queue (the un-overlapped
    /// remainder of the cold transport).
    stalled: SimDuration,
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
            let mut idx = self.store.inner.index.lock().unwrap();
            idx.warm_insert(self.local, step.key, &self.store.inner.config);
            idx.stats.restore_chunks_warm += 1;
            idx.stats.restore_bytes_avoided += len;
            drop(idx);
            if obs::is_enabled() {
                let n = self.local.to_string();
                obs::counter_add_labeled("snapify.restore.cache_hits", &[("node", &n)], 1);
                obs::counter_add_labeled("snapify.restore.bytes_avoided", &[("node", &n)], len);
            }
            self.pending.append(content);
            return Ok(());
        }
        let chunk = match &mut self.fetch {
            ColdFetch::Pipelined { rx, handle } => {
                let t0 = now();
                let got = rx.recv();
                self.stalled += now() - t0;
                match got {
                    Ok(c) => c,
                    Err(_) => {
                        // The prefetcher closed the queue with cold
                        // steps outstanding: surface its error.
                        return Err(match handle.take() {
                            Some(h) => match h.join() {
                                Err(e) => e,
                                Ok(()) => IoError::Other(format!(
                                    "snapstore {}: restore prefetch ended early",
                                    self.path
                                )),
                            },
                            None => IoError::Closed,
                        });
                    }
                }
            }
            ColdFetch::Serial { inner } => {
                let staging = self.staging.as_deref().unwrap_or(&self.path);
                read_exact(inner.as_mut(), len, staging)?
            }
            ColdFetch::None => {
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
        let mut idx = self.store.inner.index.lock().unwrap();
        if idx.chunks.contains_key(&step.key) {
            idx.warm_insert(self.local, step.key, &self.store.inner.config);
        }
        idx.stats.restore_chunks_cold += 1;
        idx.stats.restore_bytes_fetched += len;
        drop(idx);
        if obs::is_enabled() {
            let n = self.local.to_string();
            obs::counter_add_labeled("snapify.restore.bytes_fetched", &[("node", &n)], len);
        }
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
        if let ColdFetch::Pipelined { rx, handle } = &mut self.fetch {
            // Unblock a prefetcher stuck on the bounded queue, then
            // wait it out so the staging file is not deleted while it
            // still reads.
            rx.close();
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
            let elapsed = now() - self.opened_at;
            if elapsed.as_secs_f64() > 0.0 {
                let overlap_pct = 100u64.saturating_sub(
                    (100.0 * self.stalled.as_secs_f64() / elapsed.as_secs_f64()) as u64,
                );
                obs::histogram_observe("snapify.restore.overlap_pct", overlap_pct);
            }
        }
        if let Some(staging) = &self.staging {
            let _ = self.fs.delete(staging);
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest format
// ---------------------------------------------------------------------------

const MANIFEST_MAGIC: &[u8; 8] = b"SNAPSTO1";

/// The durable snapshot artifact: ordered chunk references plus the
/// final image digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Ordered chunk references.
    pub chunks: Vec<ChunkKey>,
    /// Total image length in bytes.
    pub total: u64,
    /// Digest of the whole reassembled image.
    pub image_digest: u64,
}

impl Manifest {
    /// Serialize: magic, chunk count, (digest, len) pairs, total length,
    /// image digest — all u64 little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 + self.chunks.len() * 16 + 16);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        for (digest, len) in &self.chunks {
            out.extend_from_slice(&digest.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&self.total.to_le_bytes());
        out.extend_from_slice(&self.image_digest.to_le_bytes());
        out
    }

    /// Parse a serialized manifest; rejects anything malformed.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, String> {
        let mut off = 0usize;
        let take = |off: &mut usize, n: usize| -> Result<&[u8], String> {
            let s = bytes
                .get(*off..*off + n)
                .ok_or_else(|| format!("manifest truncated at byte {}", *off))?;
            *off += n;
            Ok(s)
        };
        let u64_at = |off: &mut usize| -> Result<u64, String> {
            Ok(u64::from_le_bytes(take(off, 8)?.try_into().unwrap()))
        };
        if take(&mut off, 8)? != MANIFEST_MAGIC {
            return Err("bad manifest magic".into());
        }
        let n = u64_at(&mut off)?;
        if n > (bytes.len() as u64) / 16 {
            return Err(format!("manifest chunk count {n} exceeds file size"));
        }
        let mut chunks = Vec::with_capacity(n as usize);
        let mut sum = 0u64;
        for _ in 0..n {
            let digest = u64_at(&mut off)?;
            let len = u64_at(&mut off)?;
            sum = sum
                .checked_add(len)
                .ok_or("manifest chunk lengths overflow u64")?;
            chunks.push((digest, len));
        }
        let total = u64_at(&mut off)?;
        let image_digest = u64_at(&mut off)?;
        if off != bytes.len() {
            return Err(format!(
                "{} trailing bytes after manifest",
                bytes.len() - off
            ));
        }
        if sum != total {
            return Err(format!(
                "manifest chunk lengths sum to {sum}, header says {total}"
            ));
        }
        Ok(Manifest {
            chunks,
            total,
            image_digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_platform::MB;
    use simkernel::{now, Kernel};
    use simproc::{FsSink, FsSource};

    /// Minimal backend: files on the host fs, no transport cost beyond
    /// the fs model itself.
    struct HostFs(PhiServer);

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

    fn store(server: &PhiServer, config: DedupConfig) -> Dedup {
        Dedup::new(server, Arc::new(HostFs(server.clone())), config)
    }

    fn fleet_store(server: &PhiServer, pool: &ClusterPool, node: usize) -> Dedup {
        let backend = Arc::new(HostFs(server.clone()));
        Dedup::with_pool(server, backend, DedupConfig::default(), pool, node)
    }

    fn write_stream(store: &Dedup, path: &str, parts: &[Payload]) {
        let mut sink = store.sink(NodeId::device(0), path).unwrap();
        for p in parts {
            sink.mark_boundary();
            for chunk in p.chunks(8 << 20) {
                sink.write(chunk).unwrap();
            }
        }
        sink.close().unwrap();
    }

    fn read_stream(store: &Dedup, path: &str) -> Payload {
        read_stream_from(store, NodeId::device(0), path)
    }

    fn read_stream_from(store: &Dedup, local: NodeId, path: &str) -> Payload {
        let mut src = store.source(local, path).unwrap();
        let mut out = Payload::empty();
        while let Some(c) = src.read(8 << 20).unwrap() {
            out.append(c);
        }
        out
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
    fn index_and_pack_file_hold_one_buffer_per_chunk() {
        use phi_platform::Segment;
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            // BLCR's preamble shape: many small real-byte writes that
            // end up in one chunk.
            let mut sink = st.sink(NodeId::device(0), "/snap/one").unwrap();
            for i in 0..96u8 {
                sink.write(Payload::bytes(vec![i; 256])).unwrap();
            }
            sink.close().unwrap();
            let (indexed, pack_path) = {
                let idx = st.inner.index.lock().unwrap();
                assert_eq!(idx.chunks.len(), 1);
                let entry = idx.chunks.values().next().unwrap();
                (entry.content.clone(), idx.packs[&entry.pack].path.clone())
            };
            let on_disk = server.host().fs().read_all(&pack_path).unwrap();
            match (indexed.segments(), on_disk.segments()) {
                ([Segment::Bytes(a)], [Segment::Bytes(b)]) => {
                    assert_eq!(a.len(), 96 * 256);
                    assert_eq!((a.as_ptr(), a.len()), (b.as_ptr(), b.len()));
                }
                other => panic!("expected one byte segment each, got {other:?}"),
            }
        });
    }

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
    fn resnapshot_to_same_path_releases_old_refs() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let v1 = Payload::synthetic(1, 16 * MB);
            let v2 = Payload::synthetic(2, 16 * MB);
            write_stream(&st, "/snap/r", std::slice::from_ref(&v1));
            assert_eq!(st.stats().bytes_stored, 16 * MB);
            write_stream(&st, "/snap/r", std::slice::from_ref(&v2));
            // v1's chunks died with the manifest they belonged to.
            assert_eq!(st.stats().bytes_stored, 16 * MB);
            assert!(st.stats().chunks_freed > 0);
            assert_eq!(st.stats().manifests, 1);
            assert_eq!(read_stream(&st, "/snap/r").digest(), v2.digest());
        });
    }

    #[test]
    fn resnapshot_same_path_same_content_keeps_chunks_live() {
        Kernel::run_root(|| {
            // The warm-swap shape: a tenant swaps out twice to the same
            // path with unchanged state. The second commit must bump refs
            // before releasing the manifest it replaces, or it would free
            // the very chunks it dedup'd against.
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let data = Payload::synthetic(6, 32 * MB);
            write_stream(&st, "/snap/rs", std::slice::from_ref(&data));
            let cold = st.stats().bytes_shipped;
            write_stream(&st, "/snap/rs", std::slice::from_ref(&data));
            let warm = st.stats().bytes_shipped - cold;
            assert!(warm * 5 < cold, "warm={warm} cold={cold}");
            assert_eq!(st.stats().bytes_stored, 32 * MB);
            assert_eq!(read_stream(&st, "/snap/rs").digest(), data.digest());
        });
    }

    #[test]
    fn gc_frees_unshared_chunks_and_keeps_shared_ones() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let shared = Payload::synthetic(1, 16 * MB);
            let only_a = Payload::synthetic(2, 8 * MB);
            write_stream(&st, "/snap/ga", &[shared.clone(), only_a]);
            write_stream(&st, "/snap/gb", std::slice::from_ref(&shared));
            assert_eq!(st.stats().bytes_stored, 24 * MB);
            assert!(st.delete_snapshot("/snap/ga"));
            // The shared region survives for /snap/gb.
            assert_eq!(st.stats().bytes_stored, 16 * MB);
            assert_eq!(read_stream(&st, "/snap/gb").digest(), shared.digest());
            assert!(st.delete_snapshot("/snap/gb"));
            assert_eq!(st.stats().bytes_stored, 0);
            assert!(!st.delete_snapshot("/snap/gb"), "second delete is a no-op");
            // Manifest and pack files are gone from the fs.
            assert!(!server.host().fs().exists("/snap/ga"));
            assert!(st.stats().packs_deleted >= 1);
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

    /// Capture `records` through the incremental record API: a record
    /// flagged clean tries the prior snapshot's ledger first, anything
    /// else streams. `trailer` rides after the final record cut (the
    /// stream's image-digest position). Returns which records were
    /// replayed from the ledger.
    fn write_records(
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
    fn image_of(records: &[(&str, Payload, bool)], trailer: &[u8]) -> Payload {
        let mut p = Payload::empty();
        for (_, content, _) in records {
            p.append(content.clone());
        }
        p.append(Payload::bytes(trailer.to_vec()));
        p
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
    fn rebase_period_forces_a_full_restream() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(
                &server,
                DedupConfig {
                    incremental_rebase_every: 2,
                    ..DedupConfig::default()
                },
            );
            let recs = [("a", Payload::synthetic(4, 16 * MB), true)];
            // Base, delta, rebase (ledger withheld), delta again.
            assert_eq!(write_records(&st, "/snap/rb", &recs, b"t"), vec![false]);
            assert_eq!(write_records(&st, "/snap/rb", &recs, b"t"), vec![true]);
            assert_eq!(write_records(&st, "/snap/rb", &recs, b"t"), vec![false]);
            assert_eq!(write_records(&st, "/snap/rb", &recs, b"t"), vec![true]);
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
    fn plain_capture_at_a_path_drops_its_ledger() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let a = Payload::synthetic(8, 16 * MB);
            write_records(&st, "/snap/pl", &[("a", a.clone(), false)], b"t");
            // A capture with no record boundaries (old-style stream)
            // invalidates the ledger: the next cached attempt must fall
            // back rather than resurrect records of a replaced snapshot.
            write_stream(&st, "/snap/pl", std::slice::from_ref(&a));
            assert_eq!(
                write_records(&st, "/snap/pl", &[("a", a, true)], b"t"),
                vec![false]
            );
        });
    }

    #[test]
    fn delete_snapshot_purges_the_ledger() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let a = Payload::synthetic(9, 16 * MB);
            write_records(&st, "/snap/dl", &[("a", a.clone(), false)], b"t");
            assert!(st.delete_snapshot("/snap/dl"));
            assert_eq!(
                write_records(&st, "/snap/dl", &[("a", a, true)], b"t"),
                vec![false]
            );
        });
    }

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
    fn corrupt_manifest_is_rejected() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            server
                .host()
                .fs()
                .append("/snap/junk", Payload::bytes(vec![0x5a; 64]))
                .unwrap();
            let err = st.source(NodeId::device(0), "/snap/junk").err().unwrap();
            assert!(err.to_string().contains("bad manifest magic"), "{err}");
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
    fn warm_cache_respects_its_byte_budget() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(
                &server,
                DedupConfig {
                    restore_cache_bytes: 8 * MB,
                    ..DedupConfig::default()
                },
            );
            let data = Payload::synthetic(23, 32 * MB);
            write_stream(&st, "/snap/lru", std::slice::from_ref(&data));
            assert!(st.warm_bytes(NodeId::device(0)) <= 8 * MB);
            // However the restore goes, at most the budget is avoided.
            assert_eq!(read_stream(&st, "/snap/lru").digest(), data.digest());
            assert!(st.stats().restore_bytes_avoided <= 8 * MB);
            assert!(st.warm_bytes(NodeId::device(0)) <= 8 * MB);
        });
    }

    #[test]
    fn gc_evicts_dead_chunks_from_warm_caches() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            let data = Payload::synthetic(24, 16 * MB);
            write_stream(&st, "/snap/wgc", std::slice::from_ref(&data));
            assert_eq!(st.warm_bytes(NodeId::device(0)), 16 * MB);
            assert!(st.delete_snapshot("/snap/wgc"));
            // The chunks died with their last reference; no cache may
            // keep accounting for them.
            assert_eq!(st.warm_bytes(NodeId::device(0)), 0);
        });
    }

    #[test]
    fn cache_policies_pick_distinct_deterministic_victims() {
        let keys = |c: &WarmCache| {
            let mut v: Vec<ChunkKey> = c.chunks.keys().copied().collect();
            v.sort_unstable();
            v
        };
        // Three 4-byte chunks under a 8-byte budget: A touched three
        // times long ago, B touched once recently, then C arrives.
        let fill = |policy: CachePolicy| {
            let mut c = WarmCache::default();
            for _ in 0..3 {
                c.insert((0xa, 4), 8, policy);
            }
            c.insert((0xb, 4), 8, policy);
            c.insert((0xc, 4), 8, policy);
            c
        };
        // LRU keeps the two most recent (B, C)...
        assert_eq!(keys(&fill(CachePolicy::Lru)), vec![(0xb, 4), (0xc, 4)]);
        // ...popularity keeps thrice-touched A and evicts B (C survives
        // its own insert: one touch like B, but a later tick).
        assert_eq!(
            keys(&fill(CachePolicy::Popularity)),
            vec![(0xa, 4), (0xc, 4)]
        );
        // Cost-aware weighs touches by size: a big once-touched chunk
        // outranks a small twice-touched one.
        let mut c = WarmCache::default();
        c.insert((0xd, 2), 10, CachePolicy::CostAware);
        c.insert((0xd, 2), 10, CachePolicy::CostAware); // 2 hits × 2 B = 4
        c.insert((0xe, 6), 10, CachePolicy::CostAware); // 1 hit × 6 B = 6
        c.insert((0xf, 4), 10, CachePolicy::CostAware); // evicts D, not E
        assert_eq!(keys(&c), vec![(0xe, 6), (0xf, 4)]);
        // An entry re-inserted after eviction starts its count over —
        // and when that insert itself overflows the budget, ties on the
        // fresh count spare the newcomer (later tick).
        let mut c = fill(CachePolicy::Popularity);
        c.insert((0xb, 4), 8, CachePolicy::Popularity);
        assert_eq!(c.chunks[&(0xb, 4)].hits, 1);
        assert_eq!(keys(&c), vec![(0xa, 4), (0xb, 4)]);
        // Replayed histories land in the same state (determinism).
        assert_eq!(
            keys(&fill(CachePolicy::Popularity)),
            keys(&fill(CachePolicy::Popularity))
        );
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

    /// Two fleet stores sharing one pool: node 1 restores a snapshot it
    /// never held by importing it from the pool, paying the cluster
    /// network for the bytes.
    #[test]
    fn pool_import_restores_across_nodes() {
        Kernel::run_root(|| {
            use simkernel::time::{ms, us};
            let server_a = PhiServer::default_server();
            let server_b = PhiServer::default_server();
            let pool = ClusterPool::new(us(50));
            let sa = fleet_store(&server_a, &pool, 0);
            let sb = fleet_store(&server_b, &pool, 1);
            let data = Payload::synthetic(31, 32 * MB);
            write_stream(&sa, "/fleet/t0/img", std::slice::from_ref(&data));
            simkernel::sleep(ms(1)); // past the publication delay
            let t0 = now();
            assert_eq!(read_stream(&sb, "/fleet/t0/img").digest(), data.digest());
            assert!(now() > t0);
            let st = pool.stats();
            assert!(
                st.bytes_fetched_remote >= 32 * MB,
                "a cold import ships the image: {}",
                st.bytes_fetched_remote
            );
            // A second import-shaped restore on node 1 is free: the
            // content is local now.
            assert_eq!(read_stream(&sb, "/fleet/t0/img").digest(), data.digest());
            assert_eq!(pool.stats().bytes_fetched_remote, st.bytes_fetched_remote);
        });
    }

    /// A node that already holds most of a snapshot's content (the
    /// shared base image) imports only the novel chunks.
    #[test]
    fn pool_import_ships_only_chunks_the_node_lacks() {
        Kernel::run_root(|| {
            use simkernel::time::ms;
            use simkernel::time::us;
            let server_a = PhiServer::default_server();
            let server_b = PhiServer::default_server();
            let pool = ClusterPool::new(us(50));
            let sa = fleet_store(&server_a, &pool, 0);
            let sb = fleet_store(&server_b, &pool, 1);
            let base = Payload::synthetic(0xBA5E, 48 * MB);
            let unique = Payload::synthetic(41, 4 * MB);
            // Node 1 captures its own tenant sharing the base region…
            write_stream(&sb, "/fleet/warm/seed", std::slice::from_ref(&base));
            // …and node 0 captures the tenant about to migrate.
            write_stream(&sa, "/fleet/t1/img", &[base.clone(), unique.clone()]);
            simkernel::sleep(ms(1));
            let mut want = base.clone();
            want.append(unique);
            assert_eq!(read_stream(&sb, "/fleet/t1/img").digest(), want.digest());
            let st = pool.stats();
            assert!(
                st.bytes_avoided_remote >= 48 * MB,
                "the shared base never ships: avoided={}",
                st.bytes_avoided_remote
            );
            assert!(
                st.bytes_fetched_remote < 5 * MB,
                "only the unique region ships: fetched={}",
                st.bytes_fetched_remote
            );
            assert!(st.saved_fraction() > 0.8, "{:?}", st);
        });
    }

    /// Regression (cross-node GC race): node 0 deletes its manifest
    /// while node 1's import is still streaming the chunks. Before
    /// restore pins, the release collected the pool entries mid-flight
    /// and node 1's restore died with "collected before import" /
    /// "missing from store (collected?)"; the pins now hold every
    /// referenced chunk for the whole transfer.
    #[test]
    fn cross_node_release_does_not_collect_an_in_flight_import() {
        Kernel::run_root(|| {
            use simkernel::time::{ms, us};
            let server_a = PhiServer::default_server();
            let server_b = PhiServer::default_server();
            let pool = ClusterPool::new(us(50));
            let sa = fleet_store(&server_a, &pool, 0);
            let sb = fleet_store(&server_b, &pool, 1);
            let data = Payload::synthetic(51, 64 * MB);
            write_stream(&sa, "/fleet/race/img", std::slice::from_ref(&data));
            simkernel::sleep(ms(1));
            // 64 MB over a 1.25 GB/s NIC ≈ 50 ms of transfer: plenty of
            // window for the race.
            let sb2 = sb.clone();
            let restore = simkernel::spawn("import-b", move || {
                read_stream_from(&sb2, NodeId::device(0), "/fleet/race/img").digest()
            });
            simkernel::sleep(ms(5));
            // Mid-transfer, the publisher deletes the only snapshot
            // referencing these chunks — far more than one grace period
            // before the import finishes.
            assert!(sa.delete_snapshot("/fleet/race/img"));
            assert_eq!(restore.join(), data.digest());
            // Node 1's imported copy holds the chunks now…
            assert!(pool.live_chunks() > 0, "importer's holds keep chunks live");
            assert_eq!(pool.live_manifests(), 1);
            // …and releasing it really does collect them.
            assert!(sb.delete_snapshot("/fleet/race/img"));
            assert_eq!(pool.live_chunks(), 0);
            assert_eq!(pool.live_manifests(), 0);
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

    #[test]
    fn manifest_encoding_round_trips() {
        let m = Manifest {
            chunks: vec![(0xdead, 4096), (0xbeef, 123)],
            total: 4219,
            image_digest: 0x1234_5678,
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        assert!(Manifest::decode(b"short").is_err());
        let mut trailing = m.encode();
        trailing.push(0);
        assert!(Manifest::decode(&trailing).is_err());
        let mut bad_sum = m.encode();
        let n = bad_sum.len();
        bad_sum[n - 17] ^= 1; // flip a bit in `total`
        assert!(Manifest::decode(&bad_sum).is_err());
    }

    /// 64 bytes, `n = 2` passes the `n > len / 16` guard, and the two
    /// lengths sum past `u64::MAX`.
    #[test]
    fn manifest_length_overflow_is_an_error() {
        let mut bytes = MANIFEST_MAGIC.to_vec();
        for word in [2, 1, u64::MAX, 2, u64::MAX, 0, 0] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(bytes.len(), 64);
        let err = Manifest::decode(&bytes).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn manifest_decode_inverts_encode(
            chunks in prop::collection::vec((any::<u64>(), 0u64..(1 << 40)), 0..32),
            image_digest in any::<u64>(),
        ) {
            let m = Manifest {
                total: chunks.iter().map(|(_, len)| len).sum(),
                chunks,
                image_digest,
            };
            prop_assert_eq!(Manifest::decode(&m.encode()), Ok(m));
        }

        #[test]
        fn manifest_decode_never_panics(
            words in prop::collection::vec(prop_oneof![0u64..4, any::<u64>()], 0..12),
            tail in prop::collection::vec(any::<u8>(), 0..8),
            magic in any::<bool>(),
        ) {
            // Raw noise dies on the magic; a real magic and small words
            // drive the count guard, the length sum and the tail checks.
            let mut bytes = if magic { MANIFEST_MAGIC.to_vec() } else { Vec::new() };
            for w in words {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            bytes.extend_from_slice(&tail);
            let _ = Manifest::decode(&bytes);
        }
    }
}
