//! The store's metadata — refcounted chunk index, packs, per-path
//! record ledgers, per-node warm caches — and the one place every store
//! event is counted: a method that records an event updates
//! [`StoreStats`] and emits the matching obs counter together.

use std::collections::{BTreeSet, HashMap};

use phi_platform::{NodeId, Payload};
use simkernel::obs;

use crate::manifest::Manifest;
use crate::{CachePolicy, ChunkKey, DedupConfig, StoreStats};

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
pub(crate) struct RegionSpan {
    pub digest: u64,
    pub len: u64,
    pub chunks: Vec<ChunkKey>,
}

/// A path's ledger: record name → the span it occupies.
pub(crate) type Spans = HashMap<String, RegionSpan>;

/// Per-path record ledger: which spans the snapshot currently stored at
/// a path is made of, plus how many consecutive incremental captures
/// led to it (the logical delta-chain length, reset by a rebase).
struct Ledger {
    age: u64,
    spans: Spans,
}

/// One warm chunk's bookkeeping: recency for LRU, touch count for the
/// popularity/cost policies.
#[derive(Clone, Copy, Debug, PartialEq)]
struct WarmEntry {
    tick: u64,
    hits: u64,
}

/// Which chunks are still materialized on one node since it last
/// captured or restored them. Holds *keys only* (plus per-entry ticks
/// and touch counts) — the content lives in the refcounted chunk index,
/// and no node memory is charged for cache membership.
///
/// Invariant: `order` holds exactly one `(policy.score(hits, len,
/// tick), key)` per entry of `chunks`. A score ends in the entry's
/// tick and every touch takes a fresh one, so no two elements compare
/// equal on the score alone: the order is total, and its first element
/// is the policy's one victim (ties break toward least-recently-used).
#[derive(Default)]
struct WarmCache {
    chunks: HashMap<ChunkKey, WarmEntry>,
    order: BTreeSet<((u128, u64), ChunkKey)>,
    bytes: u64,
    tick: u64,
}

impl WarmCache {
    /// Touch or insert `key`, then evict the policy's victims until the
    /// cache fits `cap`. The newcomer is admitted *before* the victims
    /// are picked, so a first-touch chunk can be the victim of its own
    /// insert when every resident outscores it.
    fn insert(&mut self, key: ChunkKey, cap: u64, policy: CachePolicy) {
        if key.1 > cap {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        let hits = self.remove(&key, policy).map_or(0, |e| e.hits) + 1;
        self.chunks.insert(key, WarmEntry { tick, hits });
        self.order.insert((policy.score(hits, key.1, tick), key));
        self.bytes += key.1;
        while self.bytes > cap {
            let (_, victim) = self.order.pop_first().expect("bytes > 0 implies entries");
            self.chunks.remove(&victim);
            self.bytes -= victim.1;
        }
    }

    /// Take `key` out of the cache — entry, score and bytes together.
    fn remove(&mut self, key: &ChunkKey, policy: CachePolicy) -> Option<WarmEntry> {
        let entry = self.chunks.remove(key)?;
        self.order
            .remove(&(policy.score(entry.hits, key.1, entry.tick), *key));
        self.bytes -= key.1;
        Some(entry)
    }
}

/// What a capture commit or a pool import hands [`Index::install`].
pub(crate) struct Install<'a> {
    pub path: &'a str,
    /// The node the snapshot was captured from / imported onto.
    pub node: NodeId,
    pub manifest: &'a Manifest,
    /// Content of the manifest's chunks the index may not hold yet.
    pub novel: HashMap<ChunkKey, Payload>,
    /// The pack the novel chunks were written to, if any were.
    pub pack: Option<u64>,
    /// The chunks materialized on `node` right now.
    pub warm: &'a [ChunkKey],
    /// `None` for an import: it leaves the path's ledger alone and its
    /// manifest bytes are the pool's to count.
    pub captured: Option<Captured>,
}

/// What only a capture installs.
pub(crate) struct Captured {
    /// The record ledger the capture built.
    pub spans: Spans,
    /// Whether any record was replayed from the prior ledger.
    pub reused: bool,
    /// Manifest bytes shipped through the backend.
    pub manifest_len: u64,
}

/// Emit the per-node obs twins of a [`StoreStats`] update.
fn count_on(node: NodeId, counters: &[(&str, u64)]) {
    if obs::is_enabled() {
        let n = node.to_string();
        for (name, delta) in counters {
            obs::counter_add_labeled(name, &[("node", &n)], *delta);
        }
    }
}

#[derive(Default)]
pub(crate) struct Index {
    chunks: HashMap<ChunkKey, ChunkEntry>,
    packs: HashMap<u64, PackInfo>,
    /// Live manifests: path → the chunk keys it references, in order.
    manifests: HashMap<String, Vec<ChunkKey>>,
    /// Per-path record ledgers (incremental capture fast path).
    ledgers: HashMap<String, Ledger>,
    next_pack: u64,
    next_staging: u64,
    stats: StoreStats,
    /// Per-node warm chunk caches (restore fast path).
    warm: HashMap<NodeId, WarmCache>,
    /// `DedupConfig::{restore_cache_bytes, cache_policy}`.
    warm_cap: u64,
    policy: CachePolicy,
}

impl Index {
    pub(crate) fn new(config: &DedupConfig) -> Index {
        Index {
            warm_cap: config.restore_cache_bytes,
            policy: config.cache_policy,
            ..Index::default()
        }
    }

    pub(crate) fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Whether the index holds `key`'s content.
    pub(crate) fn holds(&self, key: &ChunkKey) -> bool {
        self.chunks.contains_key(key)
    }

    /// The content of every chunk in `refs` (all live), in order.
    pub(crate) fn contents(&self, refs: &[ChunkKey]) -> Vec<Payload> {
        refs.iter()
            .map(|k| self.chunks[k].content.clone())
            .collect()
    }

    /// Live manifest paths starting with `prefix`, sorted: `HashMap`
    /// iteration order is unstable, and the fs operations that follow
    /// (and thus the simulated world) must stay deterministic.
    pub(crate) fn paths_under(&self, prefix: &str) -> Vec<String> {
        let mut paths: Vec<String> = self
            .manifests
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        paths.sort();
        paths
    }

    /// Reserve a pack id + path for a snapshot's novel chunks.
    pub(crate) fn new_pack(&mut self, manifest_path: &str) -> (u64, String) {
        let id = self.next_pack;
        self.next_pack += 1;
        let path = format!("{manifest_path}.pack{id}");
        self.packs.insert(
            id,
            PackInfo {
                path: path.clone(),
                live: 0,
            },
        );
        (id, path)
    }

    /// Forget a pack; its file, if the pack was still registered.
    pub(crate) fn forget_pack(&mut self, id: u64) -> Option<String> {
        self.packs.remove(&id).map(|info| info.path)
    }

    /// A staging file name no other restore of `path` shares.
    pub(crate) fn staging_name(&mut self, path: &str) -> String {
        let id = self.next_staging;
        self.next_staging += 1;
        format!("{path}.restore{id}")
    }

    /// The prior snapshot's record ledger at `path`, offered to a new
    /// capture — unless the delta chain is due for a rebase, in which
    /// case it is withheld and every record streams in full.
    pub(crate) fn offered_spans(&self, path: &str, rebase_every: u32) -> Option<Spans> {
        let ledger = self.ledgers.get(path)?;
        let rebase = u64::from(rebase_every);
        (rebase == 0 || ledger.age + 1 < rebase).then(|| ledger.spans.clone())
    }

    /// Classify one cut chunk of a capture on `node`: a hit (nothing
    /// ships) if the capture itself already `holds` it or the index
    /// does, a miss (the chunk is novel and ships) otherwise.
    pub(crate) fn classify(&mut self, node: NodeId, key: ChunkKey, held: bool) -> bool {
        let hit = held || self.chunks.contains_key(&key);
        let (len, stats) = (key.1, &mut self.stats);
        stats.capture_dirty_bytes += len;
        let (chunks, bytes, names) = if hit {
            let names = ("store.chunks_hit", "store.bytes_deduped");
            (&mut stats.chunks_hit, &mut stats.bytes_deduped, names)
        } else {
            let names = ("store.chunks_miss", "store.bytes_shipped");
            (&mut stats.chunks_miss, &mut stats.bytes_shipped, names)
        };
        *chunks += 1;
        *bytes += len;
        count_on(node, &[(names.0, 1), (names.1, len)]);
        hit
    }

    /// Replay a clean record's chunk run from the prior snapshot onto
    /// `image`. Every chunk must still be live — the prior manifest at
    /// the path pins them until commit, but a ledger can outlive
    /// content in edge cases (concurrent deletes), and a stale span
    /// must fall back to streaming (`false`), never fabricate bytes.
    pub(crate) fn replay_span(&mut self, span: &RegionSpan, image: &mut Payload) -> bool {
        if !span.chunks.iter().all(|k| self.chunks.contains_key(k)) {
            return false;
        }
        for key in &span.chunks {
            image.append(self.chunks[key].content.clone());
            self.stats.capture_clean_bytes += key.1;
        }
        true
    }

    /// One step of a restore plan on `node`: the chunk's content and
    /// whether it is still warm there. `None` = not in the store.
    pub(crate) fn lookup(&self, node: NodeId, key: &ChunkKey) -> Option<(Payload, bool)> {
        let entry = self.chunks.get(key)?;
        let warm = self
            .warm
            .get(&node)
            .is_some_and(|c| c.chunks.contains_key(key));
        Some((entry.content.clone(), warm))
    }

    /// A restore on `node` served `key` from its warm cache.
    pub(crate) fn warm_hit(&mut self, node: NodeId, key: ChunkKey) {
        self.warm_insert(node, key);
        self.stats.restore_chunks_warm += 1;
        self.stats.restore_bytes_avoided += key.1;
        count_on(
            node,
            &[
                ("snapify.restore.cache_hits", 1),
                ("snapify.restore.bytes_avoided", key.1),
            ],
        );
    }

    /// A cold chunk arrived on `node`, verified: it is warm there now
    /// (unless it was collected while in flight).
    pub(crate) fn cold_arrival(&mut self, node: NodeId, key: ChunkKey) {
        if self.chunks.contains_key(&key) {
            self.warm_insert(node, key);
        }
        self.stats.restore_chunks_cold += 1;
        self.stats.restore_bytes_fetched += key.1;
        count_on(node, &[("snapify.restore.bytes_fetched", key.1)]);
    }

    /// Mark `key` warm on `node`: the node holds a verified copy of the
    /// chunk's content right now (it just captured or restored it).
    fn warm_insert(&mut self, node: NodeId, key: ChunkKey) {
        if self.warm_cap == 0 {
            return;
        }
        debug_assert!(self.chunks.contains_key(&key), "warm chunk must be live");
        self.warm
            .entry(node)
            .or_default()
            .insert(key, self.warm_cap, self.policy);
    }

    /// Install `what`, replacing any manifest already at its path:
    /// reference every chunk (content the index lacks moves out of
    /// `novel` into `pack`), warm the node, release the replaced
    /// manifest, swap in a capture's ledger. Returns the files that died.
    pub(crate) fn install(&mut self, mut what: Install<'_>) -> Vec<String> {
        let (path, pack) = (what.path, what.pack);
        let mut dead_files = Vec::new();
        // Install the new manifest's references BEFORE releasing the
        // one it replaces: re-snapshotting unchanged content to the
        // same path dedups against the old manifest's chunks, and
        // releasing first would free exactly the chunks the new
        // manifest is about to reference.
        let old = self.manifests.remove(path);
        for key in &what.manifest.chunks {
            if let Some(entry) = self.chunks.get_mut(key) {
                entry.refs += 1;
                continue;
            }
            let content = what.novel.remove(key);
            let content = content.expect("novel chunk content retained until install");
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
        for key in what.warm {
            self.warm_insert(what.node, *key);
        }
        if let Some(old) = old {
            self.release(old, &mut dead_files);
        }
        // A pack that ended up with no surviving novel chunks (every
        // "fresh" chunk was committed by a concurrent capture first)
        // is dead on arrival.
        if let Some(pack) = pack {
            if self.packs.get(&pack).map(|p| p.live) == Some(0) {
                dead_files.extend(self.forget_pack(pack));
            }
        }
        self.manifests
            .insert(path.to_string(), what.manifest.chunks.clone());
        self.stats.manifests = self.manifests.len() as u64;
        if let Some(captured) = what.captured {
            // A capture that reused prior spans lengthens the logical
            // delta chain; one that streamed everything is a fresh
            // base. A capture with no record boundaries at all leaves
            // no ledger (and drops any stale one) — the next capture at
            // this path streams in full.
            let prior_age = self.ledgers.get(path).map_or(0, |l| l.age);
            if captured.spans.is_empty() {
                self.ledgers.remove(path);
            } else {
                let age = if captured.reused { prior_age + 1 } else { 0 };
                let spans = captured.spans;
                self.ledgers.insert(path.to_string(), Ledger { age, spans });
            }
            self.stats.bytes_shipped += captured.manifest_len;
            obs::counter_add("store.bytes_shipped", captured.manifest_len);
        }
        dead_files
    }

    /// Drop the manifest at `path` with its ledger, releasing its chunk
    /// references. Returns the files that died (the manifest's own
    /// first), or `None` if there was no such manifest.
    pub(crate) fn remove(&mut self, path: &str) -> Option<Vec<String>> {
        let old = self.manifests.remove(path)?;
        self.ledgers.remove(path);
        let mut dead_files = vec![path.to_string()];
        self.release(old, &mut dead_files);
        self.stats.manifests = self.manifests.len() as u64;
        Some(dead_files)
    }

    /// Release one manifest's references; dead chunks and dead packs
    /// are removed from the index (and the chunks from every node's
    /// warm cache — a warm hit must never resurrect collected content)
    /// and the packs' files queued on `dead_files`.
    fn release(&mut self, old: Vec<ChunkKey>, dead_files: &mut Vec<String>) {
        for key in &old {
            let entry = self.chunks.get_mut(key).expect("referenced chunk exists");
            entry.refs -= 1;
            if entry.refs > 0 {
                continue;
            }
            let entry = self.chunks.remove(key).unwrap();
            for cache in self.warm.values_mut() {
                cache.remove(key, self.policy);
            }
            self.stats.bytes_stored -= key.1;
            self.stats.chunks_freed += 1;
            obs::counter_add("store.gc.chunks_freed", 1);
            let pack = self
                .packs
                .get_mut(&entry.pack)
                .expect("chunk's pack exists");
            pack.live -= 1;
            if pack.live == 0 {
                dead_files.extend(self.forget_pack(entry.pack));
                self.stats.packs_deleted += 1;
                obs::counter_add("store.gc.packs_deleted", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::*;
    use crate::Dedup;
    use phi_platform::PhiServer;
    use proptest::prelude::*;
    use simproc::SnapshotStorage;

    impl Index {
        /// Packs registered, committed or not.
        pub(crate) fn pack_count(&self) -> usize {
            self.packs.len()
        }
    }

    impl Dedup {
        /// Bytes currently tracked by `node`'s warm cache.
        fn warm_bytes(&self, node: NodeId) -> u64 {
            let idx = self.index();
            idx.warm.get(&node).map_or(0, |c| c.bytes)
        }
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

    fn keys(c: &WarmCache) -> Vec<ChunkKey> {
        let mut v: Vec<ChunkKey> = c.chunks.keys().copied().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn cache_policies_pick_distinct_deterministic_victims() {
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

    /// The cache as it was before the ordered set — one scan of every
    /// entry per victim — kept as the oracle.
    #[derive(Default)]
    struct ScanCache {
        chunks: HashMap<ChunkKey, WarmEntry>,
        bytes: u64,
        tick: u64,
    }

    impl ScanCache {
        fn victim(&self, policy: CachePolicy) -> Option<ChunkKey> {
            let score = |(key, e): &(&ChunkKey, &WarmEntry)| policy.score(e.hits, key.1, e.tick);
            self.chunks.iter().min_by_key(score).map(|(key, _)| *key)
        }

        fn evict(&mut self, key: &ChunkKey) {
            if self.chunks.remove(key).is_some() {
                self.bytes -= key.1;
            }
        }

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
                let victim = self.victim(policy).expect("bytes > 0 implies entries");
                self.evict(&victim);
            }
        }
    }

    proptest! {
        /// Any history of inserts, re-touches and GC releases leaves the
        /// ordered cache with the scan's members, bytes and — emptied
        /// one victim at a time — the scan's eviction order.
        #[test]
        fn ordered_eviction_matches_the_scan(
            ops in prop::collection::vec((0u8..5, 0u64..64), 0..200),
            cap in 1u64..160,
        ) {
            const LENS: [u64; 7] = [1, 2, 3, 5, 8, 21, 55];
            for policy in CachePolicy::ALL {
                let (mut cache, mut scan) = (WarmCache::default(), ScanCache::default());
                for &(op, id) in &ops {
                    let key = (id, LENS[(id % 7) as usize]);
                    if op == 0 {
                        cache.remove(&key, policy);
                        scan.evict(&key);
                    } else {
                        cache.insert(key, cap, policy);
                        scan.insert(key, cap, policy);
                    }
                    prop_assert_eq!(&cache.chunks, &scan.chunks);
                    prop_assert_eq!(cache.bytes, scan.bytes);
                    prop_assert_eq!(cache.order.len(), cache.chunks.len());
                }
                for (_, next) in &cache.order {
                    prop_assert_eq!(Some(*next), scan.victim(policy));
                    scan.evict(next);
                }
                prop_assert_eq!(scan.bytes, 0);
            }
        }
    }

    #[test]
    fn one_big_chunk_evicts_several_residents_in_policy_order() {
        // Five 2-byte residents under a 10-byte budget, touched 1, 1, 3,
        // 2 and 1 times in that order (equal sizes: cost-aware ranks them
        // as popularity does); a 6-byte chunk then needs three gone.
        let survivors = |policy: CachePolicy| {
            let mut c = WarmCache::default();
            for (id, touches) in [(1, 1), (2, 1), (3, 3), (4, 2), (5, 1)] {
                for _ in 0..touches {
                    c.insert((id, 2), 10, policy);
                }
            }
            c.insert((9, 6), 10, policy);
            assert_eq!((c.bytes, c.order.len()), (10, 3));
            keys(&c).iter().map(|k| k.0).collect::<Vec<u64>>()
        };
        // The three least recent go...
        assert_eq!(survivors(CachePolicy::Lru), vec![4, 5, 9]);
        // ...or the three touched once, the newcomer (latest tick) spared.
        assert_eq!(survivors(CachePolicy::Popularity), vec![3, 4, 9]);
        assert_eq!(survivors(CachePolicy::CostAware), vec![3, 4, 9]);
    }

    #[test]
    fn a_first_touch_chunk_can_be_the_victim_of_its_own_insert() {
        for policy in [CachePolicy::Popularity, CachePolicy::CostAware] {
            let mut c = WarmCache::default();
            for key in [(0xa, 4), (0xb, 4), (0xa, 4), (0xb, 4)] {
                c.insert(key, 8, policy);
            }
            // Both residents were touched twice; the newcomer's one
            // touch scores lowest and it is admitted before the victims.
            c.insert((0xc, 4), 8, policy);
            assert_eq!(keys(&c), vec![(0xa, 4), (0xb, 4)]);
            assert_eq!((c.bytes, c.order.len()), (8, 2));
        }
    }
}
