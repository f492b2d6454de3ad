//! The simulated process: identity, memory regions, threads, liveness.
//!
//! A [`SimProcess`] is the unit Snapify snapshots. Its state is held in
//! *memory regions* — named, sized, content-carrying allocations charged to
//! the owning node's physical memory pool. Offload-private data (thread
//! stacks, `malloc`ed regions, COI local stores) are all regions, which is
//! exactly the property that makes the GPU-style "save only host-visible
//! buffers" approach insufficient for Xeon Phi (§3 "Saving data private to
//! an offload process") and a full process-image checkpointer necessary.
//!
//! Threads of a process are simulated threads tagged with the process
//! identity. Termination is cooperative: process code observes
//! [`SimProcess::is_alive`] at its blocking points (its control channels
//! are closed on termination), mirroring how the real offload daemon tears
//! processes down through its control plane.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use phi_platform::{MemPool, OutOfMemory, Payload, SimNode};
use simkernel::{block_on, JoinHandle, Polled, SimCondvar, SimMutex, Step};

/// Process identifier, unique within one simulated world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Allocates process ids deterministically within a simulated world.
#[derive(Clone)]
pub struct PidAllocator {
    next: Arc<SimMutex<u64>>,
}

impl Default for PidAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl PidAllocator {
    /// New allocator starting at pid 1.
    pub fn new() -> PidAllocator {
        PidAllocator {
            next: Arc::new(SimMutex::new("pid-alloc", 1)),
        }
    }

    /// Allocate the next pid.
    pub fn alloc(&self) -> Pid {
        let mut n = self.next.lock();
        let pid = Pid(*n);
        *n += 1;
        pid
    }
}

/// Error from a region operation naming a region that is not mapped (or
/// a grow the node's pool cannot satisfy).
///
/// Historically the accessors panicked on a missing name; under the
/// chaos plane an injected unmap can race a capture, and that must
/// surface as a recoverable error, not a sim abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegionError {
    /// No region with this name is mapped.
    Missing(String),
    /// The node's memory pool could not satisfy a region grow.
    OutOfMemory(OutOfMemory),
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::Missing(name) => write!(f, "no region '{name}'"),
            RegionError::OutOfMemory(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegionError {}

impl From<OutOfMemory> for RegionError {
    fn from(e: OutOfMemory) -> RegionError {
        RegionError::OutOfMemory(e)
    }
}

/// One memory region of a process.
#[derive(Clone)]
pub struct Region {
    /// Region contents (length == region size).
    pub content: Payload,
    /// Whether the region has been written since the last capture
    /// (dirty-page tracking, cleared by [`ProcMemory::mark_captured`]).
    pub dirty: bool,
}

struct MemState {
    regions: BTreeMap<String, Region>,
    total: u64,
}

/// The memory image of a process: named regions charged to a node's pool.
pub struct ProcMemory {
    pool: MemPool,
    state: SimMutex<MemState>,
}

impl ProcMemory {
    fn new(pool: MemPool, tag: &str) -> ProcMemory {
        ProcMemory {
            pool,
            state: SimMutex::new(
                format!("procmem {tag}"),
                MemState {
                    regions: BTreeMap::new(),
                    total: 0,
                },
            ),
        }
    }

    /// Map a new region with the given contents. Fails (leaving the image
    /// unchanged) if the node's memory pool cannot satisfy it or the name
    /// is taken.
    pub fn map_region(&self, name: &str, content: Payload) -> Result<(), OutOfMemory> {
        let mut st = self.state.lock();
        assert!(
            !st.regions.contains_key(name),
            "region '{name}' already mapped"
        );
        let len = content.len();
        self.pool.alloc(len)?;
        st.total += len;
        st.regions.insert(
            name.to_string(),
            Region {
                content,
                dirty: true,
            },
        );
        Ok(())
    }

    /// Replace a region's contents (size may change). A byte-identical
    /// replacement is a no-op: the region stays clean, so dirty tracking
    /// does not over-capture regions an application rewrites with
    /// unchanged data.
    pub fn update_region(&self, name: &str, content: Payload) -> Result<(), RegionError> {
        let mut st = self.state.lock();
        let region = st
            .regions
            .get_mut(name)
            .ok_or_else(|| RegionError::Missing(name.to_string()))?;
        let old = region.content.len();
        let new = content.len();
        if new == old && region.content.digest() == content.digest() {
            return Ok(());
        }
        if new > old {
            self.pool.alloc(new - old)?;
        } else {
            self.pool.free(old - new);
        }
        region.content = content;
        region.dirty = true;
        st.total = st.total + new - old;
        Ok(())
    }

    /// Read a region's contents.
    pub fn region(&self, name: &str) -> Result<Payload, RegionError> {
        self.state
            .lock()
            .regions
            .get(name)
            .map(|r| r.content.clone())
            .ok_or_else(|| RegionError::Missing(name.to_string()))
    }

    /// Whether a region exists.
    pub fn has_region(&self, name: &str) -> bool {
        self.state.lock().regions.contains_key(name)
    }

    /// Whether a region has been written since the last capture.
    pub fn region_is_dirty(&self, name: &str) -> Result<bool, RegionError> {
        self.state
            .lock()
            .regions
            .get(name)
            .map(|r| r.dirty)
            .ok_or_else(|| RegionError::Missing(name.to_string()))
    }

    /// Unmap a region, returning its memory to the pool.
    pub fn unmap_region(&self, name: &str) -> Result<Payload, RegionError> {
        let mut st = self.state.lock();
        let region = st
            .regions
            .remove(name)
            .ok_or_else(|| RegionError::Missing(name.to_string()))?;
        let len = region.content.len();
        st.total -= len;
        self.pool.free(len);
        Ok(region.content)
    }

    /// Total mapped bytes.
    pub fn total_bytes(&self) -> u64 {
        self.state.lock().total
    }

    /// Region names and contents, in deterministic (sorted) order — the
    /// raw material of a process snapshot.
    pub fn snapshot_regions(&self) -> Vec<(String, Payload)> {
        self.state
            .lock()
            .regions
            .iter()
            .map(|(k, v)| (k.clone(), v.content.clone()))
            .collect()
    }

    /// Region names, contents and dirty flags, in sorted order — what an
    /// O(dirty) capture consults to skip untouched regions.
    pub fn snapshot_regions_dirty(&self) -> Vec<(String, Payload, bool)> {
        self.state
            .lock()
            .regions
            .iter()
            .map(|(k, v)| (k.clone(), v.content.clone(), v.dirty))
            .collect()
    }

    /// Record a successful capture: every region's dirty flag is
    /// cleared, so the next capture only pays for regions written in
    /// between. Also used after a restore, whose freshly-mapped regions
    /// are byte-identical to the snapshot they came from.
    pub fn mark_captured(&self) {
        for region in self.state.lock().regions.values_mut() {
            region.dirty = false;
        }
    }

    /// Record a successful capture of a single region (the local-store
    /// path saves buffers one file at a time).
    pub fn mark_region_captured(&self, name: &str) -> Result<(), RegionError> {
        self.state
            .lock()
            .regions
            .get_mut(name)
            .map(|r| r.dirty = false)
            .ok_or_else(|| RegionError::Missing(name.to_string()))
    }

    /// Drop every region, returning all memory to the pool (process exit).
    pub fn unmap_all(&self) {
        let mut st = self.state.lock();
        let total = st.total;
        st.regions.clear();
        st.total = 0;
        self.pool.free(total);
    }

    /// Digest of the entire memory image (region names + contents).
    pub fn digest(&self) -> u64 {
        let st = self.state.lock();
        let mut combined = Payload::empty();
        for (name, region) in &st.regions {
            combined.append(Payload::bytes(name.as_bytes().to_vec()));
            combined.append(region.content.clone());
        }
        combined.digest()
    }
}

struct ProcInner {
    pid: Pid,
    name: String,
    node: SimNode,
    memory: ProcMemory,
    alive: SimMutex<bool>,
    exit_cv: SimCondvar,
}

/// A simulated process. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct SimProcess {
    inner: Arc<ProcInner>,
}

impl SimProcess {
    /// Create a process on `node`.
    pub fn new(pid: Pid, name: impl Into<String>, node: &SimNode) -> SimProcess {
        let name = name.into();
        SimProcess {
            inner: Arc::new(ProcInner {
                pid,
                memory: ProcMemory::new(node.mem().clone(), &format!("{pid}:{name}")),
                alive: SimMutex::new(format!("{pid} alive"), true),
                exit_cv: SimCondvar::new(format!("{pid} exit")),
                node: node.clone(),
                name,
            }),
        }
    }

    /// Process id.
    pub fn pid(&self) -> Pid {
        self.inner.pid
    }

    /// Process name (diagnostics).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The node this process runs on.
    pub fn node(&self) -> &SimNode {
        &self.inner.node
    }

    /// The process memory image.
    pub fn memory(&self) -> &ProcMemory {
        &self.inner.memory
    }

    /// Spawn a thread belonging to this process.
    pub fn spawn_thread<T, F>(&self, name: &str, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        simkernel::spawn(format!("{}:{}", self.inner.name, name), f)
    }

    /// Spawn a *service* thread of this process: a server loop that blocks
    /// indefinitely waiting for requests. Service threads do not keep the
    /// simulation alive (see [`simkernel::Kernel::spawn_daemon`]).
    pub fn spawn_service<T, F>(&self, name: &str, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (kernel, _) = simkernel::current();
        kernel.spawn_daemon(format!("{}:{}", self.inner.name, name), f)
    }

    /// Spawn a service of this process as a *stepped* thread: no OS thread,
    /// `step` runs on the dispatcher each time the service's turn comes
    /// (see [`simkernel::Kernel::spawn_stepped`]). For a service whose
    /// body never blocks between one wait and the next.
    pub fn spawn_stepped(&self, name: &str, step: impl FnMut() -> Step + Send + 'static) {
        let (kernel, _) = simkernel::current();
        kernel.spawn_stepped(format!("{}:{}", self.inner.name, name), true, step);
    }

    /// Whether the process is still alive.
    pub fn is_alive(&self) -> bool {
        *self.inner.alive.lock()
    }

    /// Mark the process exited: releases all memory and wakes waiters.
    /// Idempotent.
    pub fn exit(&self) {
        let mut alive = self.inner.alive.lock();
        if !*alive {
            return;
        }
        *alive = false;
        drop(alive);
        self.inner.memory.unmap_all();
        self.inner.exit_cv.notify_all();
    }

    /// Block until the process exits (used by the COI daemon to monitor
    /// its processes).
    pub fn wait_exit(&self) {
        block_on(|| self.poll_wait_exit());
    }

    /// The non-blocking core of [`SimProcess::wait_exit`]: `Ready` once
    /// the process has exited.
    pub fn poll_wait_exit(&self) -> Polled<()> {
        let alive = self.inner.alive.lock();
        match *alive {
            true => Polled::Wait(self.inner.exit_cv.park(alive)),
            false => Polled::Ready(()),
        }
    }
}

impl fmt::Debug for SimProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimProcess")
            .field("pid", &self.inner.pid)
            .field("name", &self.inner.name)
            .field("node", &self.inner.node.id())
            .field("alive", &self.is_alive())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_platform::{PlatformParams, GB, MB};
    use simkernel::{sleep, time::ms, Kernel};

    fn phi_node() -> SimNode {
        SimNode::phi(&PlatformParams::default(), 0)
    }

    #[test]
    fn pid_allocation_is_sequential() {
        Kernel::run_root(|| {
            let alloc = PidAllocator::new();
            assert_eq!(alloc.alloc(), Pid(1));
            assert_eq!(alloc.alloc(), Pid(2));
        });
    }

    #[test]
    fn regions_charge_node_memory() {
        Kernel::run_root(|| {
            let node = phi_node();
            let proc = SimProcess::new(Pid(1), "offload", &node);
            proc.memory()
                .map_region("heap", Payload::synthetic(1, GB))
                .unwrap();
            assert_eq!(node.mem().used(), GB);
            assert_eq!(proc.memory().total_bytes(), GB);
            proc.memory().unmap_region("heap").unwrap();
            assert_eq!(node.mem().used(), 0);
        });
    }

    #[test]
    fn oom_on_oversized_region() {
        Kernel::run_root(|| {
            let node = phi_node();
            let proc = SimProcess::new(Pid(1), "p", &node);
            let err = proc
                .memory()
                .map_region("big", Payload::synthetic(1, 9 * GB))
                .unwrap_err();
            assert_eq!(err.requested, 9 * GB);
            assert!(!proc.memory().has_region("big"));
        });
    }

    #[test]
    fn update_region_adjusts_accounting() {
        Kernel::run_root(|| {
            let node = phi_node();
            let proc = SimProcess::new(Pid(1), "p", &node);
            proc.memory()
                .map_region("buf", Payload::synthetic(1, 10 * MB))
                .unwrap();
            proc.memory()
                .update_region("buf", Payload::synthetic(2, 4 * MB))
                .unwrap();
            assert_eq!(node.mem().used(), 4 * MB);
            proc.memory()
                .update_region("buf", Payload::synthetic(3, 20 * MB))
                .unwrap();
            assert_eq!(node.mem().used(), 20 * MB);
        });
    }

    #[test]
    fn missing_region_ops_are_typed_errors() {
        // Regression: these were `panic!("no region ...")` and aborted
        // the simulation when a chaos-injected unmap raced an accessor.
        Kernel::run_root(|| {
            let node = phi_node();
            let proc = SimProcess::new(Pid(1), "p", &node);
            let missing = RegionError::Missing("ghost".to_string());
            assert_eq!(
                proc.memory()
                    .update_region("ghost", Payload::empty())
                    .unwrap_err(),
                missing
            );
            assert_eq!(proc.memory().region("ghost").unwrap_err(), missing);
            assert_eq!(proc.memory().unmap_region("ghost").unwrap_err(), missing);
            assert_eq!(proc.memory().region_is_dirty("ghost").unwrap_err(), missing);
            assert_eq!(
                proc.memory().mark_region_captured("ghost").unwrap_err(),
                missing
            );
            assert_eq!(format!("{missing}"), "no region 'ghost'");
        });
    }

    #[test]
    fn identical_update_stays_clean() {
        // Regression: rewriting a region with byte-identical content
        // marked it changed, which would make dirty tracking over-capture
        // clean regions.
        Kernel::run_root(|| {
            let node = phi_node();
            let proc = SimProcess::new(Pid(1), "p", &node);
            proc.memory()
                .map_region("buf", Payload::synthetic(7, MB))
                .unwrap();
            proc.memory().mark_captured();
            proc.memory()
                .update_region("buf", Payload::synthetic(7, MB))
                .unwrap();
            assert!(
                !proc.memory().region_is_dirty("buf").unwrap(),
                "identical rewrite must not dirty the region"
            );
            // A real change still dirties.
            proc.memory()
                .update_region("buf", Payload::synthetic(8, MB))
                .unwrap();
            assert!(proc.memory().region_is_dirty("buf").unwrap());
        });
    }

    #[test]
    fn capture_clears_dirty_flags() {
        Kernel::run_root(|| {
            let node = phi_node();
            let proc = SimProcess::new(Pid(1), "p", &node);
            proc.memory()
                .map_region("a", Payload::synthetic(1, MB))
                .unwrap();
            proc.memory()
                .map_region("b", Payload::synthetic(2, MB))
                .unwrap();
            // Freshly mapped regions are dirty: nothing captured yet.
            assert!(proc.memory().region_is_dirty("a").unwrap());
            proc.memory().mark_captured();
            assert!(!proc.memory().region_is_dirty("a").unwrap());
            assert!(!proc.memory().region_is_dirty("b").unwrap());
            proc.memory()
                .update_region("a", Payload::synthetic(3, MB))
                .unwrap();
            let dirty: Vec<(String, bool)> = proc
                .memory()
                .snapshot_regions_dirty()
                .into_iter()
                .map(|(n, _, d)| (n, d))
                .collect();
            assert_eq!(
                dirty,
                vec![("a".to_string(), true), ("b".to_string(), false)]
            );
            proc.memory().mark_region_captured("a").unwrap();
            assert!(!proc.memory().region_is_dirty("a").unwrap());
        });
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn duplicate_region_panics() {
        Kernel::run_root(|| {
            let node = phi_node();
            let proc = SimProcess::new(Pid(1), "p", &node);
            proc.memory().map_region("r", Payload::empty()).unwrap();
            proc.memory().map_region("r", Payload::empty()).unwrap();
        });
    }

    #[test]
    fn snapshot_regions_sorted_and_digest_stable() {
        Kernel::run_root(|| {
            let node = phi_node();
            let proc = SimProcess::new(Pid(1), "p", &node);
            proc.memory()
                .map_region("b", Payload::synthetic(2, 100))
                .unwrap();
            proc.memory()
                .map_region("a", Payload::synthetic(1, 50))
                .unwrap();
            let snap = proc.memory().snapshot_regions();
            assert_eq!(snap[0].0, "a");
            assert_eq!(snap[1].0, "b");
            let d1 = proc.memory().digest();
            proc.memory()
                .update_region("a", Payload::synthetic(9, 50))
                .unwrap();
            assert_ne!(proc.memory().digest(), d1);
        });
    }

    #[test]
    fn exit_releases_memory_and_wakes_waiters() {
        Kernel::run_root(|| {
            let node = phi_node();
            let proc = SimProcess::new(Pid(1), "p", &node);
            proc.memory()
                .map_region("heap", Payload::synthetic(1, GB))
                .unwrap();
            let p2 = proc.clone();
            let waiter = proc.spawn_thread("monitor", move || {
                p2.wait_exit();
                simkernel::now()
            });
            sleep(ms(5));
            assert!(proc.is_alive());
            proc.exit();
            proc.exit(); // idempotent
            assert!(!proc.is_alive());
            assert_eq!(node.mem().used(), 0);
            let woke = waiter.join();
            assert_eq!(woke.as_nanos(), 5_000_000);
        });
    }

    #[test]
    fn wait_exit_on_dead_process_returns_immediately() {
        Kernel::run_root(|| {
            let node = phi_node();
            let proc = SimProcess::new(Pid(1), "p", &node);
            proc.exit();
            proc.wait_exit();
        });
    }
}
