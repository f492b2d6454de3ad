//! Simulated file systems with storage cost models.
//!
//! Two media matter to Snapify:
//!
//! * the **host file system** (disk-backed, write-back page cache): writes
//!   complete at memory speed and are flushed to disk asynchronously — this
//!   is why Snapify-IO's phi→host direction outruns host→phi (§7,
//!   "Snapify-IO daemon on the host flushes the file to the secondary
//!   storage asynchronously");
//! * the **Xeon Phi RAM file system**: every file byte is charged against
//!   the card's physical memory pool, so writing a 4 GB snapshot locally on
//!   an 8 GB card fails exactly as the paper's Table 4 `Local` column does.
//!
//! Files are append-streamed [`Payload`]s: writers append chunks, readers
//! stream them back, matching how BLCR and Snapify-IO actually move
//! snapshot data.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use simkernel::{obs, Bandwidth, BandwidthResource, SimDuration, SimMutex};

use crate::data::Payload;
use crate::fault::{FaultHook, FaultKind, FaultPlane, FaultTarget};
use crate::memory::{MemPool, OutOfMemory};
use crate::node::NodeId;

/// Errors from simulated file operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound(String),
    /// Path already exists (exclusive create).
    AlreadyExists(String),
    /// RAM-backed file system ran out of physical memory.
    OutOfMemory(OutOfMemory),
    /// Read past the end of a file.
    OutOfRange {
        /// Offending path.
        path: String,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual file size.
        size: u64,
    },
    /// The backing store is full: nothing was written (injected by the
    /// chaos plane's [`FaultKind::DiskFull`]).
    DiskFull {
        /// Offending path.
        path: String,
    },
    /// Only a prefix of the write persisted (injected by the chaos
    /// plane's [`FaultKind::ShortWrite`]). The caller may resume from
    /// `written`.
    ShortWrite {
        /// Offending path.
        path: String,
        /// Bytes that actually persisted (a prefix of the data).
        written: u64,
        /// Bytes the caller asked to write.
        requested: u64,
    },
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
            FsError::OutOfMemory(e) => write!(f, "{e}"),
            FsError::OutOfRange {
                path,
                offset,
                len,
                size,
            } => write!(
                f,
                "read [{offset}, {offset}+{len}) past end of {path} ({size} bytes)"
            ),
            FsError::DiskFull { path } => write!(f, "disk full writing {path}"),
            FsError::ShortWrite {
                path,
                written,
                requested,
            } => write!(
                f,
                "short write on {path}: {written} of {requested} bytes persisted"
            ),
        }
    }
}

impl std::error::Error for FsError {}

impl From<OutOfMemory> for FsError {
    fn from(e: OutOfMemory) -> FsError {
        FsError::OutOfMemory(e)
    }
}

/// Cost-model configuration for a file system.
#[derive(Clone, Debug)]
pub struct FsConfig {
    /// Bandwidth the *writer* pays synchronously (page-cache / memcpy).
    pub write_bw: Bandwidth,
    /// Per-write-operation latency paid by the writer.
    pub write_latency: SimDuration,
    /// If `Some((bw, latency))`, writes are additionally flushed to a
    /// backing store asynchronously at this rate; `fsync` waits for it.
    pub flush: Option<(Bandwidth, SimDuration)>,
    /// Bandwidth readers pay.
    pub read_bw: Bandwidth,
    /// Per-read-operation latency.
    pub read_latency: SimDuration,
}

impl FsConfig {
    /// A disk-backed file system with a write-back cache: writers run at
    /// `cache_bw`; dirty data drains to disk at `disk_bw` in the background.
    pub fn disk(cache_bw: Bandwidth, disk_bw: Bandwidth, op_latency: SimDuration) -> FsConfig {
        FsConfig {
            write_bw: cache_bw,
            write_latency: op_latency,
            flush: Some((disk_bw, op_latency)),
            read_bw: cache_bw,
            read_latency: op_latency,
        }
    }

    /// A RAM-backed file system: reads and writes at memory-copy speed,
    /// no backing store.
    pub fn ram(mem_bw: Bandwidth, op_latency: SimDuration) -> FsConfig {
        FsConfig {
            write_bw: mem_bw,
            write_latency: op_latency,
            flush: None,
            read_bw: mem_bw,
            read_latency: op_latency,
        }
    }
}

struct FileData {
    content: Payload,
}

struct FsInner {
    name: String,
    files: SimMutex<HashMap<String, FileData>>,
    /// Synchronous path (writer-visible).
    write_res: BandwidthResource,
    read_res: BandwidthResource,
    /// Asynchronous flush to backing store, if any.
    flush_res: Option<BandwidthResource>,
    /// Memory pool charged for file bytes (RAM fs), if any.
    mem: Option<MemPool>,
    /// Chaos-plane hookup (inert until wired at world boot).
    faults: FaultHook,
}

/// A simulated file system. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct SimFs {
    inner: Arc<FsInner>,
}

impl SimFs {
    /// Create a file system with the given cost model. If `mem` is `Some`,
    /// file bytes are charged to that pool (RAM file system).
    pub fn new(name: impl Into<String>, config: FsConfig, mem: Option<MemPool>) -> SimFs {
        let name = name.into();
        SimFs {
            inner: Arc::new(FsInner {
                files: SimMutex::new(format!("fs '{name}'"), HashMap::new()),
                write_res: BandwidthResource::new(
                    format!("fs '{name}' write"),
                    config.write_bw,
                    config.write_latency,
                ),
                read_res: BandwidthResource::new(
                    format!("fs '{name}' read"),
                    config.read_bw,
                    config.read_latency,
                ),
                flush_res: config
                    .flush
                    .map(|(bw, lat)| BandwidthResource::new(format!("fs '{name}' disk"), bw, lat)),
                mem,
                faults: FaultHook::new(),
                name,
            }),
        }
    }

    /// Wire this file system to a fault plane as `fs.<node>` (done once
    /// at world boot; later calls are ignored).
    pub fn attach_faults(&self, plane: &FaultPlane, node: NodeId) {
        self.inner.faults.attach(plane, FaultTarget::Fs(node));
    }

    /// Create an empty file, failing if it exists.
    pub fn create(&self, path: &str) -> Result<(), FsError> {
        let mut files = self.inner.files.lock();
        if files.contains_key(path) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        files.insert(
            path.to_string(),
            FileData {
                content: Payload::empty(),
            },
        );
        Ok(())
    }

    /// Create or truncate a file.
    pub fn create_or_truncate(&self, path: &str) {
        let mut files = self.inner.files.lock();
        let old_len = files.get(path).map(|f| f.content.len()).unwrap_or(0);
        if old_len > 0 {
            if let Some(mem) = &self.inner.mem {
                mem.free(old_len);
            }
        }
        files.insert(
            path.to_string(),
            FileData {
                content: Payload::empty(),
            },
        );
    }

    /// Append `data` to a file, paying the write cost model. Creates the
    /// file if needed. On a RAM fs, charges the memory pool first and fails
    /// with [`FsError::OutOfMemory`] without writing if it cannot.
    pub fn append(&self, path: &str, data: Payload) -> Result<(), FsError> {
        self.append_inner(path, data, true)
    }

    /// Append without blocking the caller: both the cache copy and the
    /// flush are scheduled asynchronously (the file server's write path —
    /// this is why Snapify-IO's phi→host direction outruns host→phi).
    /// `SimFs::sync` waits for completion. RAM file systems still charge
    /// memory synchronously.
    pub fn append_async(&self, path: &str, data: Payload) -> Result<(), FsError> {
        self.append_inner(path, data, false)
    }

    fn append_inner(&self, path: &str, data: Payload, sync: bool) -> Result<(), FsError> {
        // Chaos plane: a disk-full write fails before any byte moves; a
        // short write persists only the first half and reports how far it
        // got, so a resuming caller can pick up from `written`.
        let (data, injected) = match self.inner.faults.take() {
            Some(FaultKind::DiskFull) => {
                obs::counter_add("chaos.fs.diskfull", 1);
                return Err(FsError::DiskFull {
                    path: path.to_string(),
                });
            }
            Some(FaultKind::ShortWrite) => {
                let requested = data.len();
                let written = requested / 2;
                obs::counter_add("chaos.fs.shortwrite", 1);
                (
                    data.slice(0, written),
                    Some(FsError::ShortWrite {
                        path: path.to_string(),
                        written,
                        requested,
                    }),
                )
            }
            _ => (data, None),
        };
        let len = data.len();
        if let Some(mem) = &self.inner.mem {
            mem.alloc(len)?;
        }
        if sync {
            // Pay the synchronous (cache) cost.
            self.inner.write_res.transfer(len);
        } else {
            self.inner.write_res.schedule(len);
        }
        // Schedule the asynchronous flush, if this fs has a backing store.
        if let Some(flush) = &self.inner.flush_res {
            flush.schedule(len);
        }
        let mut files = self.inner.files.lock();
        files
            .entry(path.to_string())
            .or_insert_with(|| FileData {
                content: Payload::empty(),
            })
            .content
            .append(data);
        drop(files);
        match injected {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Read `len` bytes at `offset`, paying the read cost model.
    pub fn read(&self, path: &str, offset: u64, len: u64) -> Result<Payload, FsError> {
        let chunk = {
            let files = self.inner.files.lock();
            let file = files
                .get(path)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            let size = file.content.len();
            if offset.checked_add(len).is_none_or(|end| end > size) {
                return Err(FsError::OutOfRange {
                    path: path.to_string(),
                    offset,
                    len,
                    size,
                });
            }
            file.content.slice(offset, len)
        };
        self.inner.read_res.transfer(len);
        Ok(chunk)
    }

    /// Read an entire file.
    pub fn read_all(&self, path: &str) -> Result<Payload, FsError> {
        let len = self.len(path)?;
        self.read(path, 0, len)
    }

    /// File size in bytes.
    pub fn len(&self, path: &str) -> Result<u64, FsError> {
        let files = self.inner.files.lock();
        files
            .get(path)
            .map(|f| f.content.len())
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.files.lock().contains_key(path)
    }

    /// Delete a file, releasing RAM-fs memory.
    pub fn delete(&self, path: &str) -> Result<(), FsError> {
        let mut files = self.inner.files.lock();
        let file = files
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        if let Some(mem) = &self.inner.mem {
            mem.free(file.content.len());
        }
        Ok(())
    }

    /// Delete every file whose path starts with `prefix`. Returns the
    /// number of files removed.
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let mut files = self.inner.files.lock();
        let doomed: Vec<String> = files
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        let mut freed = 0u64;
        for p in &doomed {
            if let Some(f) = files.remove(p) {
                freed += f.content.len();
            }
        }
        if freed > 0 {
            if let Some(mem) = &self.inner.mem {
                mem.free(freed);
            }
        }
        doomed.len()
    }

    /// Paths currently present, sorted (for deterministic iteration).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let files = self.inner.files.lock();
        let mut v: Vec<String> = files
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.inner
            .files
            .lock()
            .values()
            .map(|f| f.content.len())
            .sum()
    }

    /// Wait for all asynchronously-scheduled flushes to complete (fsync).
    pub fn sync(&self) {
        self.inner.write_res.wait_idle();
        if let Some(flush) = &self.inner.flush_res {
            flush.wait_idle();
        }
    }

    /// The file system's diagnostic name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }
}

impl fmt::Debug for SimFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimFs")
            .field("name", &self.inner.name)
            .field("files", &self.inner.files.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::time::{ms, secs};
    use simkernel::{now, Kernel, SimTime};

    fn ram_fs(pool: &MemPool) -> SimFs {
        SimFs::new(
            "ramfs",
            FsConfig::ram(Bandwidth::gb_per_sec(2.0), SimDuration::ZERO),
            Some(pool.clone()),
        )
    }

    #[test]
    fn append_read_roundtrip() {
        Kernel::run_root(|| {
            let fs = SimFs::new(
                "fs",
                FsConfig::ram(Bandwidth::gb_per_sec(1.0), SimDuration::ZERO),
                None,
            );
            fs.append("/a", Payload::bytes(vec![1, 2, 3])).unwrap();
            fs.append("/a", Payload::bytes(vec![4, 5])).unwrap();
            assert_eq!(fs.len("/a").unwrap(), 5);
            assert_eq!(fs.read("/a", 1, 3).unwrap().to_bytes(), vec![2, 3, 4]);
            assert_eq!(fs.read_all("/a").unwrap().to_bytes(), vec![1, 2, 3, 4, 5]);
        });
    }

    #[test]
    fn missing_file_errors() {
        Kernel::run_root(|| {
            let fs = SimFs::new(
                "fs",
                FsConfig::ram(Bandwidth::gb_per_sec(1.0), SimDuration::ZERO),
                None,
            );
            assert!(matches!(fs.read_all("/nope"), Err(FsError::NotFound(_))));
            assert!(matches!(fs.delete("/nope"), Err(FsError::NotFound(_))));
            assert!(matches!(fs.len("/nope"), Err(FsError::NotFound(_))));
        });
    }

    #[test]
    fn read_past_end_errors() {
        Kernel::run_root(|| {
            let fs = SimFs::new(
                "fs",
                FsConfig::ram(Bandwidth::gb_per_sec(1.0), SimDuration::ZERO),
                None,
            );
            fs.append("/a", Payload::bytes(vec![1, 2, 3])).unwrap();
            assert!(matches!(
                fs.read("/a", 2, 5),
                Err(FsError::OutOfRange { .. })
            ));
            // `offset + len` wraps to 1, inside the 3-byte file; the
            // refused read is not charged either.
            let before = simkernel::now();
            assert!(matches!(
                fs.read("/a", u64::MAX, 2),
                Err(FsError::OutOfRange { .. })
            ));
            assert_eq!(simkernel::now(), before);
        });
    }

    #[test]
    fn exclusive_create() {
        Kernel::run_root(|| {
            let fs = SimFs::new(
                "fs",
                FsConfig::ram(Bandwidth::gb_per_sec(1.0), SimDuration::ZERO),
                None,
            );
            fs.create("/a").unwrap();
            assert!(matches!(fs.create("/a"), Err(FsError::AlreadyExists(_))));
        });
    }

    #[test]
    fn ram_fs_charges_memory_pool() {
        Kernel::run_root(|| {
            let pool = MemPool::new("mic0", 1000);
            let fs = ram_fs(&pool);
            fs.append("/f", Payload::synthetic(1, 600)).unwrap();
            assert_eq!(pool.used(), 600);
            // A 500-byte file no longer fits: the OOM arrives *before* any
            // bytes are written.
            let err = fs.append("/g", Payload::synthetic(2, 500)).unwrap_err();
            assert!(matches!(err, FsError::OutOfMemory(_)));
            assert!(!fs.exists("/g"));
            fs.delete("/f").unwrap();
            assert_eq!(pool.used(), 0);
        });
    }

    #[test]
    fn truncate_releases_memory() {
        Kernel::run_root(|| {
            let pool = MemPool::new("mic0", 1000);
            let fs = ram_fs(&pool);
            fs.append("/f", Payload::synthetic(1, 600)).unwrap();
            fs.create_or_truncate("/f");
            assert_eq!(pool.used(), 0);
            assert_eq!(fs.len("/f").unwrap(), 0);
        });
    }

    #[test]
    fn write_time_follows_cache_bandwidth() {
        Kernel::run_root(|| {
            let fs = SimFs::new(
                "fs",
                FsConfig::disk(
                    Bandwidth::gb_per_sec(1.0),
                    Bandwidth::mb_per_sec(100.0),
                    SimDuration::ZERO,
                ),
                None,
            );
            let t0 = now();
            fs.append("/a", Payload::synthetic(0, 1_000_000_000))
                .unwrap();
            // Writer pays cache speed (1s), not disk speed (10s).
            assert_eq!(now() - t0, secs(1));
            // fsync waits for the async flush, which starts once the data
            // is in the cache: 1s (cache) + 10s (disk).
            fs.sync();
            assert_eq!(now() - t0, secs(11));
        });
    }

    #[test]
    fn sync_on_ram_fs_is_instant() {
        Kernel::run_root(|| {
            let pool = MemPool::new("p", 1 << 30);
            let fs = ram_fs(&pool);
            fs.append("/a", Payload::synthetic(0, 1 << 20)).unwrap();
            let t = now();
            fs.sync();
            assert_eq!(now(), t);
        });
    }

    #[test]
    fn list_and_delete_prefix() {
        Kernel::run_root(|| {
            let pool = MemPool::new("p", 1 << 20);
            let fs = ram_fs(&pool);
            fs.append("/snap/1", Payload::synthetic(1, 10)).unwrap();
            fs.append("/snap/2", Payload::synthetic(2, 20)).unwrap();
            fs.append("/other", Payload::synthetic(3, 5)).unwrap();
            assert_eq!(fs.list("/snap/"), vec!["/snap/1", "/snap/2"]);
            assert_eq!(fs.delete_prefix("/snap/"), 2);
            assert_eq!(pool.used(), 5);
            assert_eq!(fs.total_bytes(), 5);
        });
    }

    #[test]
    fn append_async_does_not_block_caller() {
        Kernel::run_root(|| {
            let fs = SimFs::new(
                "fs",
                FsConfig::disk(
                    Bandwidth::gb_per_sec(1.0),
                    Bandwidth::mb_per_sec(100.0),
                    SimDuration::ZERO,
                ),
                None,
            );
            let t0 = now();
            fs.append_async("/a", Payload::synthetic(0, 1_000_000_000))
                .unwrap();
            assert_eq!(now(), t0); // caller not charged
            assert_eq!(fs.len("/a").unwrap(), 1_000_000_000);
            fs.sync();
            // cache (1s) and disk flush (10s) run concurrently from t0.
            assert_eq!(now() - t0, secs(10));
        });
    }

    #[test]
    fn append_async_on_ram_fs_still_charges_memory() {
        Kernel::run_root(|| {
            let pool = MemPool::new("p", 500);
            let fs = ram_fs(&pool);
            fs.append_async("/a", Payload::synthetic(0, 400)).unwrap();
            assert_eq!(pool.used(), 400);
            assert!(fs.append_async("/b", Payload::synthetic(1, 200)).is_err());
        });
    }

    #[test]
    fn injected_disk_full_fails_before_writing() {
        use crate::fault::{FaultKind, FaultPlane, FaultSchedule, FaultTarget};
        Kernel::run_root(|| {
            let fs = SimFs::new(
                "fs",
                FsConfig::ram(Bandwidth::gb_per_sec(1.0), SimDuration::ZERO),
                None,
            );
            let plane = FaultPlane::new(FaultSchedule::none().with(
                SimTime::ZERO,
                FaultTarget::Fs(NodeId::HOST),
                FaultKind::DiskFull,
            ));
            fs.attach_faults(&plane, NodeId::HOST);
            let err = fs.append("/a", Payload::synthetic(1, 100)).unwrap_err();
            assert!(matches!(err, FsError::DiskFull { .. }));
            assert!(!fs.exists("/a"), "disk-full must not write any bytes");
            // One-shot: the retry succeeds.
            fs.append("/a", Payload::synthetic(1, 100)).unwrap();
            assert_eq!(fs.len("/a").unwrap(), 100);
        });
    }

    #[test]
    fn injected_short_write_persists_resumable_prefix() {
        use crate::fault::{FaultKind, FaultPlane, FaultSchedule, FaultTarget};
        Kernel::run_root(|| {
            let fs = SimFs::new(
                "fs",
                FsConfig::ram(Bandwidth::gb_per_sec(1.0), SimDuration::ZERO),
                None,
            );
            let plane = FaultPlane::new(FaultSchedule::none().with(
                SimTime::ZERO,
                FaultTarget::Fs(NodeId::HOST),
                FaultKind::ShortWrite,
            ));
            fs.attach_faults(&plane, NodeId::HOST);
            let data = Payload::bytes((0..100u8).collect::<Vec<_>>());
            let err = fs.append("/a", data.clone()).unwrap_err();
            let FsError::ShortWrite {
                written, requested, ..
            } = err
            else {
                panic!("expected ShortWrite, got {err}");
            };
            assert_eq!((written, requested), (50, 100));
            assert_eq!(fs.len("/a").unwrap(), 50);
            // Resume from the reported offset: the file ends up intact.
            fs.append("/a", data.slice(written, requested - written))
                .unwrap();
            assert_eq!(fs.read_all("/a").unwrap().to_bytes(), data.to_bytes());
        });
    }

    #[test]
    fn read_time_follows_read_bandwidth() {
        Kernel::run_root(|| {
            let fs = SimFs::new(
                "fs",
                FsConfig {
                    write_bw: Bandwidth::gb_per_sec(100.0),
                    write_latency: SimDuration::ZERO,
                    flush: None,
                    read_bw: Bandwidth::mb_per_sec(100.0),
                    read_latency: ms(1),
                },
                None,
            );
            fs.append("/a", Payload::synthetic(0, 100_000_000)).unwrap();
            let t0 = now();
            fs.read_all("/a").unwrap();
            assert_eq!(now() - t0, secs(1) + ms(1));
            assert!(now() > SimTime::ZERO);
        });
    }
}
