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

use phi_platform::Payload;
use simkernel::{now, SimDuration, SimTime};

use crate::ChunkKey;

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
    /// Ordered chunk references (latest publish wins).
    chunks: Vec<ChunkKey>,
    total: u64,
    image_digest: u64,
    /// The node that last published this path.
    owner: usize,
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolManifestInfo {
    /// Ordered chunk references.
    pub chunks: Vec<ChunkKey>,
    /// Total image length in bytes.
    pub total: u64,
    /// Digest of the reassembled image.
    pub image_digest: u64,
    /// The node that last published the manifest.
    pub owner: usize,
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

    /// The publication delay / GC grace this pool was built with.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().unwrap().stats
    }

    /// Chunks with live references or pins (grace-period corpses do
    /// not count).
    pub fn live_chunks(&self) -> usize {
        self.inner
            .lock()
            .unwrap()
            .chunks
            .values()
            .filter(|c| c.refs > 0 || c.pins > 0)
            .count()
    }

    /// Manifests some node still holds.
    pub fn live_manifests(&self) -> usize {
        self.inner
            .lock()
            .unwrap()
            .manifests
            .values()
            .filter(|m| !m.holders.is_empty())
            .count()
    }

    /// Publish (or re-publish) `node`'s manifest at `path`. `refs` is
    /// the ordered chunk list and `contents` the parallel content
    /// handles. Replaces the node's previous hold on this path, if any.
    pub fn publish(
        &self,
        path: &str,
        node: usize,
        refs: &[ChunkKey],
        contents: &[Payload],
        total: u64,
        image_digest: u64,
    ) {
        debug_assert_eq!(refs.len(), contents.len());
        let t = now();
        let visible = t + self.lookahead;
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.stats.manifests_published += 1;
        // Install the new references BEFORE releasing the hold they
        // replace (the same discipline as the local store's commit).
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
            entry.refs += 1;
            entry.zero_since = None;
        }
        let m = inner
            .manifests
            .entry(path.to_string())
            .or_insert_with(|| PoolManifest {
                chunks: Vec::new(),
                total: 0,
                image_digest: 0,
                owner: node,
                visible_at: visible,
                holders: BTreeMap::new(),
                zero_since: None,
            });
        m.visible_at = m.visible_at.min(visible);
        m.chunks = refs.to_vec();
        m.total = total;
        m.image_digest = image_digest;
        m.owner = node;
        m.zero_since = None;
        let old = m.holders.insert(node, refs.to_vec());
        if let Some(old) = old {
            for key in &old {
                dec_chunk(inner, key, t);
            }
        }
    }

    /// Release `node`'s hold on `path`. Chunk references drop; chunks
    /// nobody references enter the grace period (and are then gone,
    /// unless pinned by an in-flight import). Returns whether the node
    /// held the manifest.
    pub fn release(&self, path: &str, node: usize) -> bool {
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

    /// Register `node` as a holder of `path` using the manifest's own
    /// chunk list — an importer calls this after installing the
    /// snapshot locally, so its copy keeps the chunks referenced even
    /// after the original publisher releases. The chunks must still
    /// exist (the importer's pins guarantee it).
    pub fn add_holder(&self, path: &str, node: usize) -> bool {
        let t = now();
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let Some(m) = inner.manifests.get_mut(path) else {
            return false;
        };
        let refs = m.chunks.clone();
        for key in &refs {
            let entry = inner
                .chunks
                .get_mut(key)
                .expect("holder's chunks exist (pinned by the importer)");
            entry.refs += 1;
            entry.zero_since = None;
        }
        m.zero_since = None;
        let old = m.holders.insert(node, refs);
        if let Some(old) = old {
            for key in &old {
                dec_chunk(inner, key, t);
            }
        }
        true
    }

    /// Look up a visible, alive manifest.
    pub fn manifest(&self, path: &str) -> Option<PoolManifestInfo> {
        let t = now();
        let inner = self.inner.lock().unwrap();
        let m = inner.manifests.get(path)?;
        if m.visible_at > t || !m.alive(t, self.lookahead) {
            return None;
        }
        Some(PoolManifestInfo {
            chunks: m.chunks.clone(),
            total: m.total,
            image_digest: m.image_digest,
            owner: m.owner,
        })
    }

    /// Atomically pin every chunk in `keys` for an in-flight import:
    /// either all are fetchable and pinned, or none are and the first
    /// offender is returned. Pins are released by dropping the guard.
    pub fn pin(&self, keys: &[ChunkKey]) -> Result<PoolPins, ChunkKey> {
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
            released: false,
        })
    }

    /// Fetch a fetchable chunk's content.
    pub fn chunk(&self, key: &ChunkKey) -> Option<Payload> {
        let t = now();
        let mut inner = self.inner.lock().unwrap();
        let grace = self.lookahead;
        let inner = &mut *inner;
        let c = inner.chunks.get(key)?;
        if !c.fetchable(t, grace) {
            return None;
        }
        inner.stats.chunk_hits += 1;
        Some(c.content.clone())
    }

    /// Account one import's traffic split (called by the importing
    /// store).
    pub(crate) fn note_import(&self, fetched: u64, avoided: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.bytes_fetched_remote += fetched;
        inner.stats.bytes_avoided_remote += avoided;
    }
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
pub struct PoolPins {
    pool: ClusterPool,
    keys: Vec<ChunkKey>,
    released: bool,
}

impl PoolPins {
    fn unpin(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
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

impl Drop for PoolPins {
    fn drop(&mut self) {
        self.unpin();
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

    fn publish_one(pool: &ClusterPool, path: &str, node: usize, tag: u64) {
        let content = Payload::synthetic(tag, 4096);
        pool.publish(path, node, &[key(tag)], &[content], 4096, tag);
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
            assert_eq!(m.chunks, vec![key(1)]);
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
                &[key(5)],
                std::slice::from_ref(&shared),
                4096,
                5,
            );
            pool.publish(
                "/p/n1",
                1,
                &[key(5), key(6)],
                &[shared, Payload::synthetic(6, 4096)],
                8192,
                56,
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
}
