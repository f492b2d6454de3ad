//! A COSMIC-style coprocessor scheduler built on process swapping.
//!
//! The paper motivates swapping with multi-tenancy: "the size of Xeon
//! Phi's physical memory puts a hard limit on the number of processes
//! that can concurrently run on the coprocessor" (§1), and defers
//! placement policy to "a job scheduler like COSMIC" (§5 Remark). This
//! module provides that scheduler as a library extension: a time-slicer
//! that keeps at most one tenant resident per coprocessor and swaps the
//! others out to host storage. There is one swap-out transition and one
//! swap-in transition (`swap_out`, `swap_in_as`: claim under the state
//! lock, transport with it released, commit or roll back); `park`,
//! `vacate`, `swap_in` and `rotate` are callers of those two.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use coi_sim::CoiProcessHandle;
use simkernel::obs;
use simkernel::obs::{SloBreach, SloMonitor, SloSpec};
use simkernel::{SimMutex, SimMutexGuard, SimTime};
use snapstore::Dedup;

use crate::api::{snapify_swapin, snapify_swapout, SnapifyT};
use crate::SnapifyError;

/// Identifier the scheduler assigns to a managed job.
pub type JobId = u64;

enum JobState {
    /// Resident on a device.
    Resident {
        /// Device index the job occupies.
        device: usize,
    },
    /// Claimed by an in-flight swap-out. The state lock is not held
    /// across the transport, so the claim is what stops a concurrent
    /// caller from swapping the same job out twice.
    SwappingOut,
    /// Claimed by an in-flight swap-in.
    SwappingIn,
    /// Swapped out; the snapshot needed to bring it back.
    SwappedOut(SnapifyT),
}

impl JobState {
    fn in_transition(&self) -> bool {
        matches!(self, JobState::SwappingOut | JobState::SwappingIn)
    }
}

struct Job {
    handle: CoiProcessHandle,
    state: JobState,
    /// Tenant name for dimensional telemetry (`tenant` label); defaults
    /// to `job{id}` when admitted untagged.
    tenant: Arc<str>,
    /// Size of the job's last captured swap snapshot, if it has ever
    /// been swapped out. Survives the swap-in, so cost-aware eviction
    /// policies can estimate what parking a *resident* job would cost.
    snapshot_bytes: Option<u64>,
}

#[derive(Default)]
struct SchedState {
    jobs: HashMap<JobId, Job>,
    /// Jobs waiting for a turn, FIFO.
    ready: VecDeque<JobId>,
    /// Device → resident job.
    resident: HashMap<usize, JobId>,
    next_id: JobId,
    swaps: u64,
}

/// A round-robin swap scheduler for one server's coprocessors.
#[derive(Clone)]
pub struct SwapScheduler {
    devices: usize,
    swap_dir: String,
    /// Content-addressed store fronting the snapshot transport, when the
    /// world was booted with dedup. Lets `retire` release a job's
    /// manifests so its chunks can be garbage-collected.
    store: Option<Dedup>,
    /// Optional SLO monitor fed with per-tenant swap-in latencies. A
    /// `std::sync::Mutex` is safe here: it is only held for the sketch
    /// update, never across a simulated block, and the kernel runs one
    /// simulated thread at a time.
    slo: Option<Arc<Mutex<SloMonitor>>>,
    state: Arc<SimMutex<SchedState>>,
}

impl SwapScheduler {
    /// Create a scheduler for `devices` coprocessors, storing swapped-out
    /// snapshots under `swap_dir` on the host fs.
    pub fn new(devices: usize, swap_dir: impl Into<String>) -> SwapScheduler {
        assert!(devices > 0);
        SwapScheduler {
            devices,
            swap_dir: swap_dir.into(),
            store: None,
            slo: None,
            state: Arc::new(SimMutex::new(
                "swap-scheduler",
                SchedState {
                    next_id: 1,
                    ..SchedState::default()
                },
            )),
        }
    }

    /// Register a freshly-created offload process (currently resident on
    /// `device`) with the scheduler. Returns its job id. The tenant
    /// label for telemetry defaults to `job{id}`; use [`admit_tagged`]
    /// to name it.
    ///
    /// [`admit_tagged`]: SwapScheduler::admit_tagged
    pub fn admit(&self, handle: &CoiProcessHandle, device: usize) -> JobId {
        self.admit_inner(handle, device, None)
    }

    /// Like [`admit`](SwapScheduler::admit), but names the tenant for
    /// dimensional telemetry: swap latencies and byte counters carry
    /// `tenant=<name>` and the SLO monitor windows per tenant.
    pub fn admit_tagged(&self, handle: &CoiProcessHandle, device: usize, tenant: &str) -> JobId {
        self.admit_inner(handle, device, Some(tenant))
    }

    fn admit_inner(&self, handle: &CoiProcessHandle, device: usize, tenant: Option<&str>) -> JobId {
        let mut st = self.state.lock();
        let id = st.next_id;
        st.next_id += 1;
        let tenant: Arc<str> = match tenant {
            Some(t) => Arc::from(t),
            None => Arc::from(format!("job{id}").as_str()),
        };
        st.jobs.insert(
            id,
            Job {
                handle: handle.clone(),
                state: JobState::Resident { device },
                tenant,
                snapshot_bytes: None,
            },
        );
        assert!(
            st.resident.insert(device, id).is_none(),
            "device {device} already has a resident job"
        );
        id
    }

    /// Attach the content-addressed snapshot store so retiring a job
    /// garbage-collects its swap snapshots (manifest refcounts drop; dead
    /// chunks and pack files are reclaimed).
    pub fn with_store(mut self, store: &Dedup) -> SwapScheduler {
        self.store = Some(store.clone());
        self
    }

    /// Attach an SLO to the swap-in path, e.g.
    /// `SloSpec::parse("swapin.p99 < 40ms over 1s")`. Every swap-in
    /// latency feeds a per-tenant window evaluated in virtual time;
    /// breaches accumulate and are returned by
    /// [`slo_breaches`](SwapScheduler::slo_breaches).
    pub fn with_slo(mut self, spec: SloSpec) -> SwapScheduler {
        self.slo = Some(Arc::new(Mutex::new(SloMonitor::new(spec))));
        self
    }

    /// Close the open SLO windows and return every breach recorded so
    /// far (empty when no SLO is attached). Typically called at end of
    /// run; observation continues afterwards in fresh windows.
    pub fn slo_breaches(&self) -> Vec<SloBreach> {
        match &self.slo {
            Some(slo) => {
                let mut m = slo.lock().unwrap();
                m.flush();
                m.breaches().to_vec()
            }
            None => Vec::new(),
        }
    }

    /// Record the latency of a swap that began at `t0`: a labeled sketch
    /// (`tenant`/`device`/`op`) plus, for swap-ins, the SLO monitor.
    fn observe_swap(&self, metric: &str, op: &str, tenant: &str, device: usize, t0: SimTime) {
        let dur_ns = (simkernel::now() - t0).as_nanos();
        if obs::is_enabled() {
            let dev = device.to_string();
            obs::sketch_observe_labeled(
                metric,
                &[("device", &dev), ("op", op), ("tenant", tenant)],
                dur_ns,
            );
        }
        if metric == "swap.swapin_ns" {
            if let Some(slo) = &self.slo {
                slo.lock()
                    .unwrap()
                    .observe(tenant, simkernel::now().as_nanos(), dur_ns);
            }
        }
    }

    /// The state lock, taken once `id` is in no transition: an in-flight
    /// swap is waited out, never yanked from under its caller. Every
    /// entry point that names a job starts here.
    fn settled(&self, id: JobId) -> Result<SimMutexGuard<'_, SchedState>, SnapifyError> {
        loop {
            let st = self.state.lock();
            match st.jobs.get(&id).map(|j| j.state.in_transition()) {
                None => return Err(SnapifyError::Protocol(format!("unknown job {id}"))),
                Some(false) => return Ok(st),
                Some(true) => {
                    drop(st);
                    simkernel::sleep(simkernel::time::ms(1));
                }
            }
        }
    }

    /// Remove a finished job from the scheduler (the caller destroys the
    /// process). A job that finished while parked is retired too: its
    /// entry leaves the ready queue and, with a dedup store attached,
    /// the swap snapshots under `{swap_dir}/job{id}/` are released so
    /// chunks no other tenant references are reclaimed.
    pub fn retire(&self, id: JobId) -> Result<(), SnapifyError> {
        {
            let mut st = self.settled(id)?;
            if let Some(JobState::Resident { device }) = st.jobs.remove(&id).map(|j| j.state) {
                st.resident.remove(&device);
            }
            st.ready.retain(|j| *j != id);
        }
        if let Some(store) = &self.store {
            let prefix = format!("{}/job{id}/", self.swap_dir);
            store.delete_prefix(&prefix);
            // The library copy bypasses the storage seam (plain host-fs
            // write), so it is swept directly.
            let _ = store
                .server()
                .host()
                .fs()
                .delete(&format!("{prefix}libraries"));
        }
        Ok(())
    }

    /// Whether `id` is currently resident.
    pub fn is_resident(&self, id: JobId) -> bool {
        matches!(
            self.state.lock().jobs.get(&id).map(|j| &j.state),
            Some(JobState::Resident { .. })
        )
    }

    /// Number of swap operations performed so far.
    pub fn swap_count(&self) -> u64 {
        self.state.lock().swaps
    }

    /// The swap-out transition, the only caller of `snapify_swapout`:
    /// claim the resident job under the state lock, ship it with the
    /// lock released, then commit (queued at the back) or — the failed
    /// swap-out resumed the job — release the claim. A job that is
    /// already swapped out is left alone.
    fn swap_out(&self, id: JobId, op: &str) -> Result<(), SnapifyError> {
        let (handle, device, tenant) = {
            let mut st = self.settled(id)?;
            let job = st.jobs.get_mut(&id).expect("settled");
            let JobState::Resident { device } = job.state else {
                return Ok(());
            };
            job.state = JobState::SwappingOut;
            (job.handle.clone(), device, Arc::clone(&job.tenant))
        };
        let path = format!("{}/job{id}", self.swap_dir);
        let t0 = simkernel::now();
        let shipped = snapify_swapout(&handle, &path);
        if shipped.is_ok() {
            self.observe_swap("swap.swapout_ns", op, &tenant, device, t0);
        }
        let mut st = self.state.lock();
        let job = st.jobs.get_mut(&id).expect("claimed");
        match shipped {
            Ok(snapshot) => {
                job.snapshot_bytes = snapshot.snapshot_bytes();
                job.state = JobState::SwappedOut(snapshot);
                st.resident.remove(&device);
                st.ready.push_back(id);
                st.swaps += 1;
                Ok(())
            }
            Err(e) => {
                job.state = JobState::Resident { device };
                Err(e)
            }
        }
    }

    /// The swap-in transition, the only caller of `snapify_swapin`:
    /// claim the parked job *and reserve the device* under the state
    /// lock — so no two swap-ins can target one device, and the
    /// reservation shows in [`resident_jobs`](SwapScheduler::resident_jobs)
    /// while the transport runs — restore with the lock released, then
    /// commit or roll both back: the job keeps its snapshot and rejoins
    /// the queue at the front (it lost no turn) or at the back.
    fn swap_in_as(
        &self,
        id: JobId,
        device: usize,
        op: &str,
        requeue_front: bool,
    ) -> Result<(), SnapifyError> {
        let (snapshot, tenant) = {
            let mut st = self.settled(id)?;
            if let JobState::Resident { device: d } = st.jobs[&id].state {
                if d == device {
                    return Ok(());
                }
                return Err(SnapifyError::Protocol(format!(
                    "job {id} is resident on device {d}, not {device}"
                )));
            }
            if let Some(occupant) = st.resident.get(&device) {
                return Err(SnapifyError::Protocol(format!(
                    "device {device} is occupied by job {occupant}"
                )));
            }
            st.resident.insert(device, id);
            st.ready.retain(|j| *j != id);
            let job = st.jobs.get_mut(&id).expect("settled");
            let JobState::SwappedOut(snapshot) =
                std::mem::replace(&mut job.state, JobState::SwappingIn)
            else {
                unreachable!("a settled job is resident or swapped out")
            };
            (snapshot, Arc::clone(&job.tenant))
        };
        let t0 = simkernel::now();
        let restored = snapify_swapin(&snapshot, device);
        if restored.is_ok() {
            self.observe_swap("swap.swapin_ns", op, &tenant, device, t0);
        }
        let mut st = self.state.lock();
        let job = st.jobs.get_mut(&id).expect("claimed");
        match restored {
            Ok(()) => {
                job.state = JobState::Resident { device };
                st.swaps += 1;
            }
            Err(_) => {
                job.state = JobState::SwappedOut(snapshot);
                st.resident.remove(&device);
                if requeue_front {
                    st.ready.push_front(id);
                } else {
                    st.ready.push_back(id);
                }
            }
        }
        restored
    }

    /// Park whoever is resident on (or being restored onto) `device` and
    /// say who; `None` when the device was free.
    pub fn vacate(&self, device: usize) -> Result<Option<JobId>, SnapifyError> {
        self.vacate_as(device, "park")
    }

    fn vacate_as(&self, device: usize, op: &str) -> Result<Option<JobId>, SnapifyError> {
        let Some(id) = self.state.lock().resident.get(&device).copied() else {
            return Ok(None);
        };
        self.swap_out(id, op).map(|()| Some(id))
    }

    /// Give every waiting job a turn: for each device in turn, swap the
    /// resident job out and the longest-waiting job in. Jobs keep
    /// executing while resident; their host threads simply block (on the
    /// drain locks) while swapped out. A failed swap-out leaves both jobs
    /// where they were; a failed swap-in leaves the device free and the
    /// job at the head of the line.
    ///
    /// Returns the number of context switches performed.
    pub fn rotate(&self) -> Result<usize, SnapifyError> {
        let rotate_t0 = simkernel::now();
        let mut switches = 0;
        for device in 0..self.devices {
            if self.state.lock().ready.is_empty() {
                continue;
            }
            self.vacate_as(device, "rotate")?;
            let Some(incoming) = self.state.lock().ready.front().copied() else {
                continue;
            };
            self.swap_in_as(incoming, device, "rotate", true)?;
            switches += 1;
        }
        if obs::is_enabled() && switches > 0 {
            obs::sketch_observe("swap.rotate_ns", (simkernel::now() - rotate_t0).as_nanos());
        }
        Ok(switches)
    }

    /// Voluntarily park a resident job (swap it out and queue it), e.g.
    /// when it blocks on host-side work for a long time. Parking a
    /// parked job is a no-op.
    pub fn park(&self, id: JobId) -> Result<(), SnapifyError> {
        self.swap_out(id, "park")
    }

    /// Swap a specific parked job back in on `device`, on demand — the
    /// serving layer's admission hook. Where [`rotate`] gives the
    /// longest-waiting job the next turn, `swap_in` restores exactly
    /// the job a request arrived for: it leaves the FIFO queue and
    /// lands on the named device, which must be free (evict a resident
    /// job first with [`park`] or [`vacate`]). A job already resident on
    /// `device` is a no-op; resident elsewhere, or a busy device, is a
    /// protocol error; a failed restore sends the job to the back of
    /// the queue.
    ///
    /// [`rotate`]: SwapScheduler::rotate
    /// [`park`]: SwapScheduler::park
    /// [`vacate`]: SwapScheduler::vacate
    pub fn swap_in(&self, id: JobId, device: usize) -> Result<(), SnapifyError> {
        assert!(device < self.devices, "device {device} out of range");
        self.swap_in_as(id, device, "demand", false)
    }

    /// Number of coprocessors this scheduler manages.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// The resident job of every occupied device, as `(device, job)`
    /// pairs sorted by device — the candidate set an eviction policy
    /// chooses its victim from. Includes devices reserved by an
    /// in-flight [`swap_in`](SwapScheduler::swap_in).
    pub fn resident_jobs(&self) -> Vec<(usize, JobId)> {
        let st = self.state.lock();
        let mut v: Vec<(usize, JobId)> = st.resident.iter().map(|(d, j)| (*d, *j)).collect();
        v.sort_unstable();
        v
    }

    /// Size of the job's last captured swap snapshot — the cost a
    /// cost-aware eviction policy charges for parking it again. `None`
    /// until the job's first swap-out.
    pub fn swap_size_estimate(&self, id: JobId) -> Option<u64> {
        self.state
            .lock()
            .jobs
            .get(&id)
            .and_then(|j| j.snapshot_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::SnapifyWorld;
    use coi_sim::{CoiConfig, DeviceBinary, FunctionRegistry};
    use phi_platform::{
        FaultKind, FaultSchedule, FaultTarget, NodeId, Payload, PlatformParams, GB, MB,
    };
    use simkernel::{time::ms, Kernel, SchedPolicy, SimTime};
    use snapstore::DedupConfig;

    fn registry() -> FunctionRegistry {
        let reg = FunctionRegistry::new();
        reg.register(
            DeviceBinary::new("tenant.so", MB, 32 * MB).simple_function("bump", |ctx| {
                ctx.compute(1e9, 60);
                let n = ctx
                    .private("count")
                    .map(|p| u64::from_le_bytes(p.to_bytes().try_into().unwrap()))
                    .unwrap_or(0);
                ctx.set_private("count", Payload::bytes((n + 1).to_le_bytes().to_vec()));
                (n + 1).to_le_bytes().to_vec()
            }),
        );
        reg
    }

    fn dedup_world(config: DedupConfig) -> SnapifyWorld {
        SnapifyWorld::boot_with(
            PlatformParams::default(),
            CoiConfig::default(),
            registry(),
            FaultSchedule::none(),
            Some(config),
        )
    }

    #[test]
    fn three_tenants_time_share_one_card() {
        Kernel::run_root(|| {
            let world = SnapifyWorld::boot(registry());
            let sched = SwapScheduler::new(1, "/swap/sched");

            // Jobs start resident one at a time; each is parked before the
            // next is admitted, so only one ever occupies the card.
            let mut handles = Vec::new();
            let mut ids = Vec::new();
            for i in 0..3 {
                let host = world.coi().create_host_process(&format!("tenant{i}"));
                let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
                // Each tenant holds 2 GiB: only one fits comfortably.
                let buf = h.create_buffer(2 * GB).unwrap();
                h.buffer_write(&buf, Payload::synthetic(i, 2 * GB)).unwrap();
                let id = sched.admit(&h, 0);
                handles.push((h, buf));
                ids.push(id);
                if i < 2 {
                    sched.park(id).unwrap();
                }
            }
            // Now job 3 is resident, jobs 1 and 2 queued. Each rotation
            // gives the next tenant a turn; every tenant computes during
            // its slice, accumulating private state across swaps.
            for _round in 0..3 {
                for (h, _) in &handles {
                    // Only the resident tenant's call completes now; the
                    // others block until their turn. Run them from their
                    // own threads.
                    let h2 = h.clone();
                    h.host_proc().clone().spawn_thread("slice", move || {
                        let _ = h2.run_sync("bump", Vec::new(), &[]);
                    });
                }
                simkernel::sleep(simkernel::time::ms(50));
                sched.rotate().unwrap();
            }
            // Let the last slices complete.
            simkernel::sleep(simkernel::time::ms(100));
            assert!(sched.swap_count() >= 6, "swaps = {}", sched.swap_count());

            // Every tenant made progress (private count > 0) and kept its
            // buffer intact.
            for (i, (h, buf)) in handles.iter().enumerate() {
                if !sched.is_resident(ids[i]) {
                    // Bring it back for inspection.
                    while !sched.is_resident(ids[i]) {
                        sched.rotate().unwrap();
                        simkernel::sleep(simkernel::time::ms(10));
                    }
                }
                let count = h.run_sync("bump", Vec::new(), &[]).unwrap();
                let count = u64::from_le_bytes(count.try_into().unwrap());
                assert!(count >= 2, "tenant {i} made no progress: {count}");
                assert_eq!(
                    h.buffer_read(buf).unwrap().digest(),
                    Payload::synthetic(i as u64, 2 * GB).digest(),
                    "tenant {i} buffer corrupted"
                );
                sched.park(ids[i]).unwrap();
            }
        });
    }

    #[test]
    fn warm_swapout_of_unchanged_tenant_ships_almost_nothing() {
        Kernel::run_root(|| {
            let world = dedup_world(DedupConfig::default());
            let store = world.store().unwrap().clone();
            let sched = SwapScheduler::new(1, "/swap/warm").with_store(&store);
            let host = world.coi().create_host_process("t");
            let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
            let buf = h.create_buffer(GB).unwrap();
            h.buffer_write(&buf, Payload::synthetic(9, GB)).unwrap();
            let id = sched.admit(&h, 0);

            // Cold swap-out: every chunk is novel.
            sched.park(id).unwrap();
            let cold = store.stats().bytes_shipped;
            assert!(cold >= GB, "cold swap ships the tenant image: {cold}");

            // Bring the tenant back without touching its state...
            sched.rotate().unwrap();
            assert!(sched.is_resident(id));

            // ...and swap it out again: the image is unchanged, so the
            // warm pass ships manifests and headers, not data.
            sched.park(id).unwrap();
            let warm = store.stats().bytes_shipped - cold;
            assert!(
                warm * 5 <= cold,
                "warm swap-out must ship >=80% fewer bytes: warm={warm} cold={cold}"
            );
            assert!(store.stats().chunks_hit > 0);

            // The tenant still restores correctly from the dedup store.
            sched.rotate().unwrap();
            assert_eq!(
                h.buffer_read(&buf).unwrap().digest(),
                Payload::synthetic(9, GB).digest(),
                "tenant state corrupted by dedup'd swap"
            );
        });
    }

    #[test]
    fn incremental_warm_park_hashes_only_dirty_bytes_and_runs_faster() {
        Kernel::run_root(|| {
            // One warm-park cycle of a lightly-touched tenant (8 buffers,
            // 1 rewritten between parks): cold park, swap back in, dirty
            // one buffer, park again. Returns the warm park's virtual
            // duration and its dirty/clean capture byte counts.
            let cycle = |rebase_every: u32| -> (u64, u64, u64) {
                let world = dedup_world(DedupConfig {
                    incremental_rebase_every: rebase_every,
                    ..DedupConfig::default()
                });
                let store = world.store().unwrap().clone();
                let sched = SwapScheduler::new(1, "/swap/incr").with_store(&store);
                let host = world.coi().create_host_process("t");
                let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
                let mut bufs = Vec::new();
                for i in 0..8u64 {
                    let b = h.create_buffer(256 * MB).unwrap();
                    h.buffer_write(&b, Payload::synthetic(100 + i, 256 * MB))
                        .unwrap();
                    bufs.push(b);
                }
                let id = sched.admit(&h, 0);
                sched.park(id).unwrap();
                sched.rotate().unwrap();
                h.buffer_write(&bufs[0], Payload::synthetic(999, 256 * MB))
                    .unwrap();
                let s0 = store.stats();
                let t0 = simkernel::now();
                sched.park(id).unwrap();
                let warm_ns = (simkernel::now() - t0).as_nanos();
                let s1 = store.stats();
                // Whatever the capture strategy, the tenant restores
                // bit-identically, dirty buffer included.
                sched.rotate().unwrap();
                for (i, b) in bufs.iter().enumerate() {
                    let want = if i == 0 {
                        Payload::synthetic(999, 256 * MB)
                    } else {
                        Payload::synthetic(100 + i as u64, 256 * MB)
                    };
                    assert_eq!(
                        h.buffer_read(b).unwrap().digest(),
                        want.digest(),
                        "buffer {i} corrupted (rebase_every={rebase_every})"
                    );
                }
                (
                    warm_ns,
                    s1.capture_dirty_bytes - s0.capture_dirty_bytes,
                    s1.capture_clean_bytes - s0.capture_clean_bytes,
                )
            };

            // rebase_every=1 is the always-full baseline; 0 never rebases.
            let (full_ns, full_dirty, full_clean) = cycle(1);
            let (inc_ns, inc_dirty, inc_clean) = cycle(0);
            assert_eq!(full_clean, 0, "the full baseline never reuses");
            assert!(
                inc_dirty < full_dirty,
                "incremental hashes less: inc={inc_dirty} full={full_dirty}"
            );
            // With 1 of 8 buffers touched, at most 20% of the image may
            // enter the read/chunk/digest pipeline.
            let image = inc_dirty + inc_clean;
            assert!(
                inc_dirty * 5 <= image,
                "hashed fraction too high: dirty={inc_dirty} of {image}"
            );
            assert!(
                full_ns >= inc_ns * 2,
                "incremental warm park must be at least 2x faster: inc={inc_ns}ns full={full_ns}ns"
            );
        });
    }

    #[test]
    fn retire_releases_swap_snapshots_from_the_store() {
        Kernel::run_root(|| {
            let world = dedup_world(DedupConfig::default());
            let store = world.store().unwrap().clone();
            let sched = SwapScheduler::new(1, "/swap/gc").with_store(&store);
            let host = world.coi().create_host_process("t");
            let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
            let buf = h.create_buffer(GB).unwrap();
            h.buffer_write(&buf, Payload::synthetic(3, GB)).unwrap();
            let id = sched.admit(&h, 0);
            sched.park(id).unwrap();
            assert!(store.stats().bytes_stored >= GB);
            sched.rotate().unwrap();
            sched.retire(id).unwrap();
            h.destroy().unwrap();
            assert_eq!(
                store.stats().bytes_stored,
                0,
                "retire reclaims every chunk of the job's swap snapshots"
            );
            assert_eq!(store.stats().manifests, 0);
        });
    }

    #[test]
    fn admit_and_retire() {
        Kernel::run_root(|| {
            let world = SnapifyWorld::boot(registry());
            let sched = SwapScheduler::new(2, "/swap/ar");
            let host = world.coi().create_host_process("t");
            let h = world.coi().create_process(&host, 1, "tenant.so").unwrap();
            let id = sched.admit(&h, 1);
            assert!(sched.is_resident(id));
            sched.retire(id).unwrap();
            h.destroy().unwrap();
            assert_eq!(sched.swap_count(), 0);
        });
    }

    #[test]
    fn demand_swap_in_places_a_specific_job() {
        Kernel::run_root(|| {
            let world = SnapifyWorld::boot(registry());
            let sched = SwapScheduler::new(2, "/swap/demand");
            let mut handles = Vec::new();
            let mut ids = Vec::new();
            for i in 0..2 {
                let host = world.coi().create_host_process(&format!("t{i}"));
                let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
                let buf = h.create_buffer(64 * MB).unwrap();
                h.buffer_write(&buf, Payload::synthetic(i, 64 * MB))
                    .unwrap();
                ids.push(sched.admit_tagged(&h, 0, &format!("t{i}")));
                handles.push((h, buf));
                if i == 0 {
                    sched.park(ids[0]).unwrap();
                }
            }
            // t0 parked, t1 resident on device 0; device 1 is free.
            assert_eq!(sched.devices(), 2);
            assert_eq!(sched.resident_jobs(), vec![(0, ids[1])]);
            assert!(sched.swap_size_estimate(ids[0]).unwrap() > 0);
            assert_eq!(sched.swap_size_estimate(ids[1]), None);

            // Device 0 is occupied: targeting it is a protocol error.
            assert!(matches!(
                sched.swap_in(ids[0], 0),
                Err(SnapifyError::Protocol(_))
            ));
            // Demand-restore t0 onto the free device.
            sched.swap_in(ids[0], 1).unwrap();
            assert_eq!(sched.resident_jobs(), vec![(0, ids[1]), (1, ids[0])]);
            // Re-requesting the same placement is a no-op; a different
            // device for a resident job is an error.
            sched.swap_in(ids[0], 1).unwrap();
            assert!(matches!(
                sched.swap_in(ids[0], 0),
                Err(SnapifyError::Protocol(_))
            ));
            // The size estimate survives the swap-in, and the restored
            // tenant's state is intact.
            assert!(sched.swap_size_estimate(ids[0]).is_some());
            assert_eq!(
                handles[0].0.buffer_read(&handles[0].1).unwrap().digest(),
                Payload::synthetic(0, 64 * MB).digest(),
                "tenant state corrupted by demand swap-in"
            );
            // `vacate` parks whoever holds the device and says who.
            assert!(matches!(sched.vacate(1), Ok(Some(id)) if id == ids[0]));
            assert!(matches!(sched.vacate(1), Ok(None)));
            assert_eq!(sched.resident_jobs(), vec![(0, ids[1])]);
            for id in ids {
                sched.retire(id).unwrap();
            }
        });
    }

    #[test]
    fn failed_swapout_during_rotate_requeues_the_incoming_job() {
        Kernel::run_root(|| {
            // An Oom scheduled on the host memory pool long after setup:
            // the first host-side allocation past that point is the
            // snapshot transport's staging buffer, so the next swap-out
            // fails at open.
            let schedule = FaultSchedule::none().with(
                SimTime(simkernel::time::secs(30).as_nanos()),
                FaultTarget::Mem(NodeId::HOST),
                FaultKind::Oom,
            );
            let world = SnapifyWorld::boot_with(
                PlatformParams::default(),
                CoiConfig::default(),
                registry(),
                schedule,
                None,
            );
            let sched = SwapScheduler::new(1, "/swap/leak");
            let host = world.coi().create_host_process("a");
            let ha = world.coi().create_process(&host, 0, "tenant.so").unwrap();
            let a = sched.admit(&ha, 0);
            sched.park(a).unwrap();
            let host_b = world.coi().create_host_process("b");
            let hb = world.coi().create_process(&host_b, 0, "tenant.so").unwrap();
            let b = sched.admit(&hb, 0);

            // Past the fault's due time, the rotation's swap-out of B
            // fails in the transport; the error must surface typed and
            // job A — already popped from the ready queue — must not
            // leak.
            simkernel::sleep(simkernel::time::secs(31));
            assert!(sched.rotate().is_err(), "swap-out transport fault surfaces");
            assert!(sched.is_resident(b), "outgoing job stays resident");
            assert!(!sched.is_resident(a));

            // The failed swap-out resumed B: it still takes work.
            hb.run_sync("bump", Vec::new(), &[]).unwrap();

            // The fault fired once; retrying the rotation must find A
            // still queued and complete the switch.
            assert_eq!(sched.rotate().unwrap(), 1, "incoming job was leaked");
            assert!(sched.is_resident(a));
            assert!(!sched.is_resident(b));
        });
    }

    #[test]
    fn retire_a_parked_job_releases_its_snapshot() {
        Kernel::run_root(|| {
            let world = dedup_world(DedupConfig::default());
            let store = world.store().unwrap().clone();
            let sched = SwapScheduler::new(1, "/swap/rp").with_store(&store);
            let host = world.coi().create_host_process("t");
            let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
            let buf = h.create_buffer(256 * MB).unwrap();
            h.buffer_write(&buf, Payload::synthetic(4, 256 * MB))
                .unwrap();
            let id = sched.admit(&h, 0);
            sched.park(id).unwrap();
            assert!(store.stats().bytes_stored > 0);

            // The tenant finished while parked: retiring it must GC the
            // swap snapshot instead of panicking.
            sched.retire(id).unwrap();
            assert!(!sched.is_resident(id));
            assert_eq!(store.stats().bytes_stored, 0);
            assert_eq!(store.stats().manifests, 0);
            assert!(!world
                .server()
                .host()
                .fs()
                .exists(&format!("/swap/rp/job{id}/libraries")));
        });
    }

    #[test]
    fn concurrent_parks_swap_out_once() {
        for seed in [1u64, 7, 23, 0xC0FFEE] {
            Kernel::run_root_with(SchedPolicy::Random(seed), move || {
                let world = SnapifyWorld::boot(registry());
                let sched = SwapScheduler::new(1, "/swap/race");
                let host = world.coi().create_host_process("t");
                let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
                let id = sched.admit(&h, 0);
                // Two callers race to park the same job; the second
                // lands squarely inside the first one's swap-out.
                let (s1, s2) = (sched.clone(), sched.clone());
                let t1 = h
                    .host_proc()
                    .clone()
                    .spawn_thread("park1", move || s1.park(id));
                let t2 = h.host_proc().clone().spawn_thread("park2", move || {
                    simkernel::sleep(ms(1));
                    s2.park(id)
                });
                t1.join().unwrap();
                t2.join().unwrap();
                assert!(!sched.is_resident(id));
                assert_eq!(
                    sched.swap_count(),
                    1,
                    "seed {seed}: job must swap out exactly once"
                );
            });
        }
    }

    /// One card, A resident, B and C parked. `rotate` parks A and
    /// restores B; a `swap_in(C, 0)` landing inside B's restore must find
    /// the card reserved. (`rotate` once booked the device only after the
    /// transport: both calls returned `Ok`, both tenants ran on the card
    /// and the scheduler tracked one of them.)
    #[test]
    fn rotate_reserves_the_device_while_it_restores() {
        Kernel::run_root(|| {
            let world = SnapifyWorld::boot(registry());
            let sched = SwapScheduler::new(1, "/swap/book");
            let host = world.coi().create_host_process("t");
            let mut ids = Vec::new();
            for i in 0..3 {
                let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
                ids.push(sched.admit(&h, 0));
                if i < 2 {
                    sched.park(ids[i]).unwrap();
                }
            }
            let (b, c, a) = (ids[0], ids[1], ids[2]);
            let parks = sched.swap_count();
            let rotating = sched.clone();
            let rotation = host.spawn_thread("rotate", move || rotating.rotate());
            // A's swap-out is the next swap counted; B's restore begins in
            // the same instant and outlasts a millisecond many times over.
            while sched.swap_count() == parks {
                simkernel::sleep(ms(1));
            }
            match sched.swap_in(c, 0) {
                Err(SnapifyError::Protocol(why)) => {
                    assert_eq!(why, format!("device 0 is occupied by job {b}"))
                }
                other => panic!("swap_in onto a card mid-restore: {other:?}"),
            }
            assert_eq!(rotation.join().unwrap(), 1);
            assert_eq!(sched.resident_jobs(), vec![(0, b)]);
            assert!(!sched.is_resident(a) && !sched.is_resident(c));
            // C kept its snapshot and its place at the head of the line.
            assert_eq!(sched.rotate().unwrap(), 1);
            assert_eq!(sched.resident_jobs(), vec![(0, c)]);
        });
    }

    #[test]
    fn an_unknown_job_is_a_typed_error_at_every_entry_point() {
        Kernel::run_root(|| {
            let world = SnapifyWorld::boot(registry());
            let sched = SwapScheduler::new(1, "/swap/unknown");
            let host = world.coi().create_host_process("t");
            let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
            let retired = sched.admit(&h, 0);
            sched.retire(retired).unwrap();
            for id in [retired, 99] {
                for outcome in [sched.retire(id), sched.park(id), sched.swap_in(id, 0)] {
                    match outcome {
                        Err(SnapifyError::Protocol(why)) => {
                            assert_eq!(why, format!("unknown job {id}"))
                        }
                        other => panic!("job {id}: {other:?}"),
                    }
                }
            }
        });
    }

    #[test]
    fn warm_swapin_ships_fewer_bytes_and_halves_latency() {
        // One park/rotate cycle of an unchanged 1 GiB tenant, measured
        // with the warm restore cache on vs off (cold baseline).
        let cycle = |cache_bytes: u64| -> (f64, u64, u64) {
            Kernel::run_root(move || {
                let world = dedup_world(DedupConfig {
                    restore_cache_bytes: cache_bytes,
                    ..DedupConfig::default()
                });
                let store = world.store().unwrap().clone();
                let sched = SwapScheduler::new(1, "/swap/si").with_store(&store);
                let host = world.coi().create_host_process("t");
                let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
                let buf = h.create_buffer(GB).unwrap();
                h.buffer_write(&buf, Payload::synthetic(5, GB)).unwrap();
                let id = sched.admit(&h, 0);
                sched.park(id).unwrap();

                let before = store.stats();
                let t0 = simkernel::now();
                sched.rotate().unwrap();
                let swapin_secs = (simkernel::now() - t0).as_secs_f64();
                let after = store.stats();

                assert!(sched.is_resident(id));
                assert_eq!(
                    h.buffer_read(&buf).unwrap().digest(),
                    Payload::synthetic(5, GB).digest(),
                    "tenant state corrupted by the restore fast path"
                );
                (
                    swapin_secs,
                    after.restore_bytes_fetched - before.restore_bytes_fetched,
                    after.restore_bytes_avoided - before.restore_bytes_avoided,
                )
            })
        };
        let (cold_secs, cold_fetched, _) = cycle(0);
        let (warm_secs, warm_fetched, warm_avoided) = cycle(4 << 30);
        assert!(cold_fetched >= GB, "cold swap-in re-ships the image");
        assert!(
            warm_fetched * 5 <= cold_fetched,
            "warm swap-in must ship >=80% fewer bytes: warm={warm_fetched} cold={cold_fetched}"
        );
        assert!(
            warm_avoided >= GB,
            "warm hits cover the image: {warm_avoided}"
        );
        assert!(
            warm_secs * 2.0 <= cold_secs,
            "warm swap-in must be >=2x faster: warm={warm_secs}s cold={cold_secs}s"
        );
    }

    #[test]
    fn per_tenant_swapin_sketches_and_slo_breaches() {
        Kernel::run_root(|| {
            let world = SnapifyWorld::boot(registry());
            // Threshold far below any real swap-in so every window
            // breaches: the test checks the plumbing, not a tuned SLO.
            let sched = SwapScheduler::new(1, "/swap/tenants")
                .with_slo(obs::SloSpec::parse("swapin.p99 < 10us over 1s").unwrap());

            let host = world.coi().create_host_process("tenants");
            let hs = world.coi().create_process(&host, 0, "tenant.so").unwrap();
            let sbuf = hs.create_buffer(64 * MB).unwrap();
            hs.buffer_write(&sbuf, Payload::synthetic(1, 64 * MB))
                .unwrap();
            let small = sched.admit_tagged(&hs, 0, "small-tenant");
            sched.park(small).unwrap();

            let hl = world.coi().create_process(&host, 0, "tenant.so").unwrap();
            let lbuf = hl.create_buffer(512 * MB).unwrap();
            hl.buffer_write(&lbuf, Payload::synthetic(2, 512 * MB))
                .unwrap();
            let _large = sched.admit_tagged(&hl, 0, "large-tenant");

            obs::enable();
            // Alternate residency: each rotation swaps one tenant out
            // and the other in, so both accumulate swap-in latencies.
            for _ in 0..4 {
                sched.rotate().unwrap();
                simkernel::sleep(simkernel::time::ms(5));
            }
            obs::disable();

            let s = obs::Summary::capture();
            let sk_small = s
                .tenant_sketch("swap.swapin_ns", "small-tenant")
                .expect("small tenant sketch recorded");
            let sk_large = s
                .tenant_sketch("swap.swapin_ns", "large-tenant")
                .expect("large tenant sketch recorded");
            assert!(sk_small.count() >= 2 && sk_large.count() >= 2);
            // 512 MiB ships 8x the bytes of 64 MiB: the tenants' latency
            // distributions must be clearly distinct at p50 and p99.
            assert!(
                sk_large.p50() > sk_small.p50() && sk_large.p99() > sk_small.p99(),
                "large p50/p99 {}/{} must exceed small {}/{}",
                sk_large.p50(),
                sk_large.p99(),
                sk_small.p50(),
                sk_small.p99()
            );

            let json = obs::summary_json();
            let obs::Json::Object(tenants) = &json["tenant_breakdown"] else {
                panic!("no tenant breakdown: {json}")
            };
            // Other tests in this binary may record while this one does.
            for tenant in ["small-tenant", "large-tenant"] {
                assert!(tenants.iter().any(|(t, _)| t == tenant), "{json}");
            }

            // The 10us SLO is impossible for real swap-ins: both tenants
            // breach, the slow tenant burning hotter.
            let breaches = sched.slo_breaches();
            let burn = |tenant: &str| {
                breaches
                    .iter()
                    .filter(|b| b.tenant == tenant)
                    .map(|b| b.burn_rate_milli)
                    .max()
                    .unwrap_or_else(|| panic!("no breach for {tenant}: {breaches:?}"))
            };
            assert!(burn("large-tenant") > burn("small-tenant"));
            for b in &breaches {
                assert_eq!(b.metric, "swapin");
                assert!(b.observed_ns > b.threshold_ns);
            }
        });
    }

    #[test]
    fn park_is_idempotent() {
        Kernel::run_root(|| {
            let world = SnapifyWorld::boot(registry());
            let sched = SwapScheduler::new(1, "/swap/idem");
            let host = world.coi().create_host_process("t");
            let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
            let id = sched.admit(&h, 0);
            sched.park(id).unwrap();
            sched.park(id).unwrap();
            assert!(!sched.is_resident(id));
            assert_eq!(sched.swap_count(), 1);
        });
    }
}
