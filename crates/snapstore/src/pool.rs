//! Shared cross-node snapstore pool: the cluster chunk directory.
//!
//! A fleet of Phi servers each runs its own [`Dedup`] store, but tenants
//! migrate between servers — and a migrated tenant's snapshot is mostly
//! chunks some node already holds (the shared base image, the common
//! process image). The [`ClusterPool`] is the fleet-wide rendezvous for
//! that content: every store attached to the pool publishes the
//! manifests it commits (chunk references plus cheap content handles),
//! and a store that misses a snapshot locally imports it from the pool,
//! paying the cluster network only for chunks its own index has never
//! seen. The pool is thus a *directory with teeth*: it both locates
//! content and hands it over.
//!
//! # Determinism under parallel time domains
//!
//! The pool is shared mutable state reached from several time domains
//! at once, so it is guarded by a plain `std::sync::Mutex` (sim
//! primitives cannot cross kernels) and every observable answer must be
//! a pure function of *virtual* time, never of wall-clock lock order.
//! Three rules make that hold, given the conservative-sync invariant
//! that concurrently-executing domains are always within one lookahead
//! window `L` of each other:
//!
//! 1. **Publication delay.** An entry published at virtual time `T`
//!    becomes visible at `T + L`; queries only see entries with
//!    `visible_at <= now()`. A publish racing a query in the same
//!    window can never newly satisfy the filter (its `visible_at`
//!    lands strictly past the window), and re-publication merges with
//!    `min`, which is order-independent. Any node that learns of a
//!    snapshot through a cluster-link message (delay >= `L`) finds it
//!    visible.
//! 2. **Grace period.** When an entry's last reference dies at `T` it
//!    stays fetchable until `T + L`. A release racing a query in the
//!    same window therefore cannot change the query's answer — both
//!    lock orders say "alive".
//! 3. **Restore pins.** An importer pins the chunks it is about to
//!    fetch for the whole transfer (which takes far longer than `L`);
//!    a pinned chunk is never collected no matter who releases it.
//!    This is also the cross-node GC-race fix: without pins, one
//!    node's `delete_snapshot` could free chunks another node's
//!    in-flight restore was still streaming.
//!
//! [`Dedup`]: crate::Dedup

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use phi_platform::{FaultKind, FaultTarget, NodeId, Payload, PlatformParams};
use simkernel::{now, obs, BandwidthResource, SimDuration, SimTime};
use simproc::IoError;

use crate::index::Install;
use crate::manifest::Manifest;
use crate::{ChunkKey, Dedup};

/// A point-in-time copy of the pool's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Manifests published (initial publishes and re-publishes).
    pub manifests_published: u64,
    /// Manifest holds released by nodes.
    pub manifests_released: u64,
    /// Chunk entries the pool saw for the first time.
    pub chunks_published: u64,
    /// Chunk contents handed to importers.
    pub chunk_hits: u64,
    /// Chunks whose cluster-wide refcount hit zero.
    pub chunks_dead: u64,
    /// Import bytes that crossed the cluster network (chunks the
    /// importing node did not hold).
    pub bytes_fetched_remote: u64,
    /// Import bytes the importing node already held locally — the
    /// traffic the shared pool saved versus a cold transfer.
    pub bytes_avoided_remote: u64,
}

impl PoolStats {
    /// Fraction of import bytes the pool kept off the network.
    pub fn saved_fraction(&self) -> f64 {
        let total = self.bytes_fetched_remote + self.bytes_avoided_remote;
        if total == 0 {
            0.0
        } else {
            self.bytes_avoided_remote as f64 / total as f64
        }
    }
}

struct PoolChunk {
    content: Payload,
    /// Manifest references across every holder node.
    refs: u64,
    /// In-flight restore pins (see module docs, rule 3).
    pins: u64,
    /// When this chunk became cluster-visible (min over publishes).
    visible_at: SimTime,
    /// Set while `refs == 0 && pins == 0`: the start of the grace
    /// period after which the chunk is no longer fetchable.
    zero_since: Option<SimTime>,
}

impl PoolChunk {
    fn alive(&self, now: SimTime, grace: SimDuration) -> bool {
        self.refs > 0 || self.pins > 0 || self.zero_since.is_some_and(|t| now < t + grace)
    }

    fn fetchable(&self, now: SimTime, grace: SimDuration) -> bool {
        self.visible_at <= now && self.alive(now, grace)
    }

    /// Re-derive `zero_since` after a refs/pins mutation.
    fn restamp(&mut self, now: SimTime, stats: &mut PoolStats) {
        if self.refs == 0 && self.pins == 0 {
            if self.zero_since.is_none() {
                self.zero_since = Some(now);
                stats.chunks_dead += 1;
            }
        } else {
            self.zero_since = None;
        }
    }
}

struct PoolManifest {
    /// The latest publish wins.
    info: PoolManifestInfo,
    visible_at: SimTime,
    /// Nodes holding this manifest, each with the chunk reference list
    /// it contributed to the cluster-wide refcounts.
    holders: BTreeMap<usize, Vec<ChunkKey>>,
    zero_since: Option<SimTime>,
}

impl PoolManifest {
    fn alive(&self, now: SimTime, grace: SimDuration) -> bool {
        !self.holders.is_empty() || self.zero_since.is_some_and(|t| now < t + grace)
    }
}

/// A visible manifest, as seen by an importer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct PoolManifestInfo {
    manifest: Manifest,
    /// The node that last published the manifest.
    owner: usize,
}

#[derive(Default)]
struct PoolInner {
    chunks: HashMap<ChunkKey, PoolChunk>,
    manifests: HashMap<String, PoolManifest>,
    stats: PoolStats,
}

/// The shared cross-node pool. Cheap to clone; all clones share state.
/// Safe to create outside any kernel (it holds no sim primitives).
#[derive(Clone)]
pub struct ClusterPool {
    /// Conservative-sync lookahead: publication delay and GC grace.
    lookahead: SimDuration,
    inner: Arc<Mutex<PoolInner>>,
}

impl ClusterPool {
    /// A pool for a cluster whose conservative-sync lookahead is
    /// `lookahead` (`phi_platform::cluster_lookahead`).
    pub fn new(lookahead: SimDuration) -> ClusterPool {
        ClusterPool {
            lookahead,
            inner: Arc::new(Mutex::new(PoolInner::default())),
        }
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().unwrap().stats
    }

    /// Chunks with live references or pins (grace-period corpses do
    /// not count).
    pub fn live_chunks(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        let live = |c: &&PoolChunk| c.refs > 0 || c.pins > 0;
        inner.chunks.values().filter(live).count()
    }

    /// Manifests some node still holds.
    pub fn live_manifests(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        let held = |m: &&PoolManifest| !m.holders.is_empty();
        inner.manifests.values().filter(held).count()
    }

    /// Publish (or re-publish) `node`'s manifest at `path`; `contents`
    /// are the content handles parallel to its chunk list. Replaces the
    /// node's previous hold on this path, if any.
    fn publish(&self, path: &str, node: usize, manifest: &Manifest, contents: &[Payload]) {
        let refs = &manifest.chunks;
        debug_assert_eq!(refs.len(), contents.len());
        let t = now();
        let visible = t + self.lookahead;
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.stats.manifests_published += 1;
        let (manifest, owner) = (manifest.clone(), node);
        let info = PoolManifestInfo { manifest, owner };
        for (key, content) in refs.iter().zip(contents) {
            let entry = inner.chunks.entry(*key).or_insert_with(|| {
                inner.stats.chunks_published += 1;
                PoolChunk {
                    content: content.clone(),
                    refs: 0,
                    pins: 0,
                    visible_at: visible,
                    zero_since: None,
                }
            });
            // `min` merge keeps re-publication order-independent.
            entry.visible_at = entry.visible_at.min(visible);
        }
        let m = inner
            .manifests
            .entry(path.to_string())
            .or_insert_with(|| PoolManifest {
                info: PoolManifestInfo::default(),
                visible_at: visible,
                holders: BTreeMap::new(),
                zero_since: None,
            });
        m.visible_at = m.visible_at.min(visible);
        m.info = info;
        hold(inner, path, node, t);
    }

    /// Release `node`'s hold on `path`. Chunk references drop; chunks
    /// nobody references enter the grace period (and are then gone,
    /// unless pinned by an in-flight import). Returns whether the node
    /// held the manifest.
    fn release(&self, path: &str, node: usize) -> bool {
        let t = now();
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let Some(m) = inner.manifests.get_mut(path) else {
            return false;
        };
        let Some(old) = m.holders.remove(&node) else {
            return false;
        };
        inner.stats.manifests_released += 1;
        if m.holders.is_empty() && m.zero_since.is_none() {
            m.zero_since = Some(t);
        }
        for key in &old {
            dec_chunk(inner, key, t);
        }
        true
    }

    /// Register `node` as a holder of `path` — an importer calls this
    /// after installing the snapshot locally, so its copy keeps the
    /// chunks referenced after the original publisher releases. The
    /// chunks must still exist (the importer's pins guarantee it).
    fn add_holder(&self, path: &str, node: usize) -> bool {
        hold(&mut self.inner.lock().unwrap(), path, node, now())
    }

    /// Look up a visible, alive manifest.
    fn manifest(&self, path: &str) -> Option<PoolManifestInfo> {
        let t = now();
        let inner = self.inner.lock().unwrap();
        let m = inner.manifests.get(path)?;
        if m.visible_at > t || !m.alive(t, self.lookahead) {
            return None;
        }
        Some(m.info.clone())
    }

    /// Atomically pin every chunk in `keys` for an in-flight import:
    /// either all are fetchable and pinned, or none are and the first
    /// offender is returned. Pins are released by dropping the guard.
    fn pin(&self, keys: &[ChunkKey]) -> Result<PoolPins, ChunkKey> {
        let t = now();
        let mut inner = self.inner.lock().unwrap();
        let mut unique: Vec<ChunkKey> = Vec::new();
        for key in keys {
            if !unique.contains(key) {
                unique.push(*key);
            }
        }
        for key in &unique {
            match inner.chunks.get(key) {
                Some(c) if c.fetchable(t, self.lookahead) => {}
                _ => return Err(*key),
            }
        }
        for key in &unique {
            let c = inner.chunks.get_mut(key).unwrap();
            c.pins += 1;
            c.zero_since = None;
        }
        Ok(PoolPins {
            pool: self.clone(),
            keys: unique,
        })
    }

    /// Fetch a fetchable chunk's content.
    fn chunk(&self, key: &ChunkKey) -> Option<Payload> {
        let t = now();
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let c = inner.chunks.get(key)?;
        if !c.fetchable(t, self.lookahead) {
            return None;
        }
        inner.stats.chunk_hits += 1;
        Some(c.content.clone())
    }

    /// Account one import's traffic split.
    fn note_import(&self, fetched: u64, avoided: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.bytes_fetched_remote += fetched;
        inner.stats.bytes_avoided_remote += avoided;
    }
}

/// Make `node` a holder of the manifest at `path` (`false` = no such
/// manifest) at virtual time `t`: reference its chunks BEFORE releasing
/// the hold this replaces — the same discipline as the local store's
/// commit.
fn hold(inner: &mut PoolInner, path: &str, node: usize, t: SimTime) -> bool {
    let Some(m) = inner.manifests.get_mut(path) else {
        return false;
    };
    let refs = m.info.manifest.chunks.clone();
    for key in &refs {
        let entry = inner.chunks.get_mut(key);
        let entry = entry.expect("a holder's chunks exist (published or pinned)");
        entry.refs += 1;
        entry.zero_since = None;
    }
    m.zero_since = None;
    for key in m.holders.insert(node, refs).iter().flatten() {
        dec_chunk(inner, key, t);
    }
    true
}

/// Decrement one chunk reference at virtual time `t`.
fn dec_chunk(inner: &mut PoolInner, key: &ChunkKey, t: SimTime) {
    let entry = inner
        .chunks
        .get_mut(key)
        .expect("released chunk exists in the pool");
    entry.refs -= 1;
    entry.restamp(t, &mut inner.stats);
}

/// Pins held by an in-flight import. Dropping the guard releases them;
/// chunks whose references are already gone then enter the grace
/// period.
struct PoolPins {
    pool: ClusterPool,
    /// The pinned keys, deduplicated, in first-reference order.
    keys: Vec<ChunkKey>,
}

impl Drop for PoolPins {
    fn drop(&mut self) {
        let t = now();
        let mut inner = self.pool.inner.lock().unwrap();
        let inner = &mut *inner;
        for key in &self.keys {
            let c = inner
                .chunks
                .get_mut(key)
                .expect("pinned chunk cannot be removed");
            c.pins -= 1;
            c.restamp(t, &mut inner.stats);
        }
    }
}

/// Membership of a store in a fleet: the shared pool, this node's fleet
/// index, and the cluster NIC the imports are priced on. The store
/// reaches the pool through `published`, `released` and `import` only.
pub(crate) struct PoolAttachment {
    pool: ClusterPool,
    node: usize,
    nic: BandwidthResource,
}

impl PoolAttachment {
    /// Must be called from a sim thread (it builds the cluster NIC).
    pub(crate) fn new(pool: &ClusterPool, node: usize, params: &PlatformParams) -> PoolAttachment {
        PoolAttachment {
            pool: pool.clone(),
            node,
            nic: BandwidthResource::new(
                format!("snapstore-nic{node}"),
                params.net_bw,
                params.net_latency,
            ),
        }
    }

    /// The store committed `manifest` at `path`.
    pub(crate) fn published(&self, path: &str, manifest: &Manifest, contents: &[Payload]) {
        self.pool.publish(path, self.node, manifest, contents);
    }

    /// The store deleted its snapshot at `path`.
    pub(crate) fn released(&self, path: &str) {
        self.pool.release(path, self.node);
    }

    /// Import `path` from the pool into `store`: pin the manifest's
    /// chunks for the duration of the transfer (so no other node's GC
    /// can collect them mid-flight), fetch the chunks the store has
    /// never seen over the cluster NIC, install everything locally
    /// (manifest artifact, chunk index entries, warm-cache membership
    /// for the bytes that just landed), and register this node as a
    /// pool holder so the content outlives the original publisher.
    /// Returns `Ok(false)` when the pool has no visible manifest at
    /// `path` — the caller's local miss then stands.
    pub(crate) fn import(&self, store: &Dedup, local: NodeId, path: &str) -> Result<bool, IoError> {
        let Some(PoolManifestInfo { manifest, .. }) = self.pool.manifest(path) else {
            return Ok(false);
        };
        let _span = obs::span!(
            "snapstore.pool.import",
            path = path,
            chunks = manifest.chunks.len(),
        );
        let failed = |what: &str| IoError::Other(format!("snapstore {path}: cluster {what}"));
        let gone = |key: ChunkKey, what: &str| {
            failed(&format!("pool chunk {:#x}+{} {what}", key.0, key.1))
        };
        // Pins keep every referenced chunk alive for the whole import,
        // however long the transfer takes and whoever releases the
        // manifest meanwhile.
        let pins = self.pool.pin(&manifest.chunks);
        let pins = pins.map_err(|key| gone(key, "collected before import"))?;
        let mut fetched: HashMap<ChunkKey, Payload> = HashMap::new();
        let mut fetched_bytes = 0u64;
        let mut avoided_bytes = 0u64;
        for key in &pins.keys {
            if store.index().holds(key) {
                // This node already holds the content — the whole point
                // of a content-addressed fleet pool: nothing ships.
                avoided_bytes += key.1;
                continue;
            }
            // The transfer rides this node's cluster NIC; the chaos
            // plane can fault it like any other transport.
            let net = self.node;
            match store.server().faults().take(FaultTarget::Net(net)) {
                Some(FaultKind::ConnReset) => {
                    return Err(failed(&format!("fetch reset by peer (net{net})")));
                }
                Some(FaultKind::NfsTimeout(d)) => {
                    simkernel::sleep(d);
                    return Err(failed(&format!("fetch timed out (net{net})")));
                }
                Some(FaultKind::BusDelay(d)) => simkernel::sleep(d),
                _ => {}
            }
            self.nic.transfer(key.1);
            let content = self.pool.chunk(key);
            let content = content.ok_or_else(|| gone(*key, "vanished while pinned"))?;
            fetched_bytes += key.1;
            fetched.insert(*key, content);
        }
        // The manifest artifact itself crosses the network too, and
        // becomes this node's durable copy through the backend.
        fetched_bytes += manifest.write(store.backend(), local, path)?;
        let pack = (!fetched.is_empty()).then(|| store.index().new_pack(path).0);
        // Fetched bytes just landed on the importing node: they are
        // warm for the restore about to replay them. Chunks the node
        // merely indexes elsewhere stay cold.
        let warm: Vec<ChunkKey> = manifest
            .chunks
            .iter()
            .filter(|key| fetched.contains_key(key))
            .copied()
            .collect();
        let dead_files = store.index().install(Install {
            path,
            node: local,
            manifest: &manifest,
            novel: fetched,
            pack,
            warm: &warm,
            captured: None,
        });
        store.delete_files(dead_files);
        // This node now holds the manifest: its pool references keep
        // the chunks alive after the publisher releases its own.
        self.pool.add_holder(path, self.node);
        self.pool.note_import(fetched_bytes, avoided_bytes);
        drop(pins);
        obs::counter_add("snapstore.pool.bytes_fetched", fetched_bytes);
        obs::counter_add("snapstore.pool.bytes_avoided", avoided_bytes);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::time::{ms, us};
    use simkernel::Kernel;

    const L: SimDuration = us(50);

    fn key(tag: u64) -> ChunkKey {
        (tag, 4096)
    }

    fn manifest(chunks: &[ChunkKey], image_digest: u64) -> Manifest {
        Manifest {
            chunks: chunks.to_vec(),
            total: chunks.iter().map(|k| k.1).sum(),
            image_digest,
        }
    }

    fn publish_one(pool: &ClusterPool, path: &str, node: usize, tag: u64) {
        let content = Payload::synthetic(tag, 4096);
        pool.publish(path, node, &manifest(&[key(tag)], tag), &[content]);
    }

    #[test]
    fn entries_become_visible_one_lookahead_after_publication() {
        Kernel::run_root(|| {
            let pool = ClusterPool::new(L);
            publish_one(&pool, "/p/a", 0, 1);
            assert!(pool.manifest("/p/a").is_none(), "not visible yet");
            assert!(pool.chunk(&key(1)).is_none(), "chunk not visible yet");
            simkernel::sleep(L);
            let m = pool.manifest("/p/a").expect("visible after one lookahead");
            assert_eq!(m.owner, 0);
            assert_eq!(m.manifest.chunks, vec![key(1)]);
            assert_eq!(
                pool.chunk(&key(1)).unwrap().digest(),
                Payload::synthetic(1, 4096).digest()
            );
        });
    }

    #[test]
    fn release_leaves_a_grace_period_then_collects() {
        Kernel::run_root(|| {
            let pool = ClusterPool::new(L);
            publish_one(&pool, "/p/g", 0, 2);
            simkernel::sleep(ms(1));
            assert!(pool.release("/p/g", 0));
            // Within the grace window the chunk is still fetchable
            // (a same-window reader must not observe the release).
            assert!(pool.chunk(&key(2)).is_some(), "grace period");
            simkernel::sleep(L + us(1));
            assert!(pool.chunk(&key(2)).is_none(), "grace expired");
            assert!(pool.manifest("/p/g").is_none());
            assert_eq!(pool.live_chunks(), 0);
            assert_eq!(pool.stats().chunks_dead, 1);
        });
    }

    #[test]
    fn pins_defer_collection_past_the_grace_period() {
        Kernel::run_root(|| {
            let pool = ClusterPool::new(L);
            publish_one(&pool, "/p/pin", 0, 3);
            simkernel::sleep(ms(1));
            let pins = pool.pin(&[key(3)]).expect("fetchable, so pinnable");
            assert!(pool.release("/p/pin", 0));
            simkernel::sleep(ms(10)); // far past the grace period
            assert!(
                pool.chunk(&key(3)).is_some(),
                "pinned chunk survives a cross-node release indefinitely"
            );
            drop(pins);
            simkernel::sleep(L + us(1));
            assert!(pool.chunk(&key(3)).is_none(), "unpinned corpse collects");
        });
    }

    #[test]
    fn pin_is_all_or_nothing() {
        Kernel::run_root(|| {
            let pool = ClusterPool::new(L);
            publish_one(&pool, "/p/ao", 0, 4);
            simkernel::sleep(ms(1));
            let missing = key(99);
            assert_eq!(pool.pin(&[key(4), missing]).err(), Some(missing));
            // The failed pin left nothing pinned: releasing the
            // manifest collects the chunk on schedule.
            assert!(pool.release("/p/ao", 0));
            simkernel::sleep(L + us(1));
            assert!(pool.chunk(&key(4)).is_none());
        });
    }

    #[test]
    fn shared_chunks_survive_one_holders_release() {
        Kernel::run_root(|| {
            let pool = ClusterPool::new(L);
            // Two nodes publish manifests sharing chunk 5.
            let shared = Payload::synthetic(5, 4096);
            pool.publish(
                "/p/n0",
                0,
                &manifest(&[key(5)], 5),
                std::slice::from_ref(&shared),
            );
            pool.publish(
                "/p/n1",
                1,
                &manifest(&[key(5), key(6)], 56),
                &[shared, Payload::synthetic(6, 4096)],
            );
            simkernel::sleep(ms(1));
            assert!(pool.release("/p/n0", 0));
            simkernel::sleep(L + us(1));
            assert!(
                pool.chunk(&key(5)).is_some(),
                "node 1's manifest still references the shared chunk"
            );
            assert!(pool.release("/p/n1", 1));
            simkernel::sleep(L + us(1));
            assert!(pool.chunk(&key(5)).is_none());
            assert_eq!(pool.live_manifests(), 0);
        });
    }

    #[test]
    fn add_holder_keeps_content_alive_after_the_publisher_leaves() {
        Kernel::run_root(|| {
            let pool = ClusterPool::new(L);
            publish_one(&pool, "/p/h", 0, 7);
            simkernel::sleep(ms(1));
            let pins = pool.pin(&[key(7)]).unwrap();
            assert!(pool.add_holder("/p/h", 1));
            drop(pins);
            assert!(pool.release("/p/h", 0));
            simkernel::sleep(ms(10));
            assert!(
                pool.chunk(&key(7)).is_some(),
                "node 1's hold outlives node 0's release"
            );
            assert_eq!(pool.live_manifests(), 1);
            assert!(pool.release("/p/h", 1));
            simkernel::sleep(L + us(1));
            assert_eq!(pool.live_chunks(), 0);
        });
    }

    #[test]
    fn republication_resurrects_a_collected_chunk() {
        Kernel::run_root(|| {
            let pool = ClusterPool::new(L);
            publish_one(&pool, "/p/r", 0, 8);
            simkernel::sleep(ms(1));
            pool.release("/p/r", 0);
            simkernel::sleep(ms(1));
            assert!(pool.chunk(&key(8)).is_none());
            publish_one(&pool, "/p/r", 1, 8);
            simkernel::sleep(L);
            assert!(pool.chunk(&key(8)).is_some());
            assert_eq!(pool.manifest("/p/r").unwrap().owner, 1);
        });
    }

    use crate::tests::{fleet_store, read_stream, read_stream_from, write_stream};
    use phi_platform::{PhiServer, MB};

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
}
