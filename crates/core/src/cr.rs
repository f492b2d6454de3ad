//! Checkpoint and restart of a whole offload application (§5, Fig 5):
//! the host process is captured by host-side BLCR while Snapify captures
//! the offload process — concurrently, exactly as in the paper's
//! `snapify_blcr_callback`.

use blcr_sim::BlcrConfig;
use phi_platform::NodeId;
use simkernel::obs;
use simkernel::{SimDuration, SimTime};
use simproc::{SimProcess, SnapshotStorage};

use crate::api::{
    snapify_capture, snapify_pause, snapify_restore, snapify_resume, snapify_wait, SnapifyT,
};
use crate::world::SnapifyWorld;
use crate::SnapifyError;
use coi_sim::CoiProcessHandle;

/// Timing/size breakdown of one application checkpoint (the quantities
/// plotted in Fig 10(a)/(b) and Fig 11(a)/(c)).
#[derive(Clone, Debug)]
pub struct CheckpointReport {
    /// Time in `snapify_pause` (drain + local store save).
    pub pause: SimDuration,
    /// Host BLCR snapshot+write time (runs concurrently with the device
    /// capture).
    pub host_snapshot: SimDuration,
    /// Time from issuing the capture until `snapify_wait` returned (the
    /// device snapshot+write, overlapping the host snapshot).
    pub device_capture: SimDuration,
    /// Time in `snapify_resume`.
    pub resume: SimDuration,
    /// End-to-end checkpoint time.
    pub total: SimDuration,
    /// Host snapshot file size.
    pub host_snapshot_bytes: u64,
    /// Device snapshot file size.
    pub device_snapshot_bytes: u64,
    /// Local store bytes saved during the pause.
    pub local_store_bytes: u64,
}

/// The Fig 5(a) flow: pause, non-blocking device capture, host BLCR
/// checkpoint (concurrent), wait, resume.
///
/// `host_state` is the opaque blob the application framework uses to
/// resume the host control flow after a restart (the simulated stand-in
/// for BLCR resuming the host process mid-callback).
pub fn checkpoint_application(
    world: &SnapifyWorld,
    handle: &CoiProcessHandle,
    host_state: &[u8],
    snapshot_path: &str,
) -> Result<(SnapifyT, CheckpointReport), SnapifyError> {
    let _span = obs::span!(
        "snapify.checkpoint",
        pid = handle.pid(),
        device = handle.device(),
        path = snapshot_path
    );
    let t0 = simkernel::now();
    let snapshot = SnapifyT::new(handle, snapshot_path);

    snapify_pause(&snapshot)?;
    let t_paused = simkernel::now();

    // Non-blocking device capture...
    snapify_capture(&snapshot, false)?;
    // ...concurrent with the host BLCR checkpoint (Fig 5(b): both bars
    // start after the pause). The host-side BLCR fsyncs its context file,
    // so the host bar includes the disk flush — which is why the host
    // finishes last exactly for the snapshot-heavy SS/SG (§7).
    let host_stats = host_checkpoint(world, handle.host_proc(), host_state, snapshot_path)?;
    let t_host_done = simkernel::now();

    let device_snapshot_bytes = snapify_wait(&snapshot)?;
    let t_capture_done = simkernel::now();
    let device_done_at = snapshot.capture_completed_at().unwrap_or(t_capture_done);

    snapify_resume(&snapshot)?;
    let t_done = simkernel::now();

    let local_store_bytes = local_store_bytes(world, snapshot_path);
    obs::counter_add("snapify.checkpoints", 1);
    obs::counter_add("snapify.host_snapshot_bytes", host_stats);
    obs::counter_add("snapify.local_store_bytes", local_store_bytes);
    let report = CheckpointReport {
        pause: t_paused - t0,
        host_snapshot: t_host_done - t_paused,
        device_capture: device_done_at - t_paused,
        resume: t_done - t_capture_done,
        total: t_done - t0,
        host_snapshot_bytes: host_stats,
        device_snapshot_bytes,
        local_store_bytes,
    };
    Ok((snapshot, report))
}

/// Host-side BLCR checkpoint of the host process into the snapshot dir.
pub fn host_checkpoint(
    world: &SnapifyWorld,
    host_proc: &SimProcess,
    host_state: &[u8],
    snapshot_path: &str,
) -> Result<u64, SnapifyError> {
    let _span = obs::span!("snapify.host_checkpoint", pid = host_proc.pid());
    let storage: &dyn SnapshotStorage = world.io();
    let mut sink = storage.sink(NodeId::HOST, &format!("{snapshot_path}/host_snapshot"))?;
    let stats = blcr_sim::checkpoint(&BlcrConfig::default(), host_proc, host_state, sink.as_mut())?;
    // BLCR fsyncs the context file before reporting success.
    world.server().host().fs().sync();
    Ok(stats.snapshot_bytes)
}

/// Bytes of local store stored under a snapshot directory.
pub fn local_store_bytes(world: &SnapifyWorld, snapshot_path: &str) -> u64 {
    let fs = world.server().host().fs();
    fs.list(&format!("{snapshot_path}/local_store/buf_"))
        .iter()
        .map(|p| fs.len(p).unwrap_or(0))
        .sum()
}

/// Timing breakdown of a restart (Fig 10(c), Fig 11(b)).
#[derive(Clone, Debug)]
pub struct RestartReport {
    /// Host BLCR restart time.
    pub host_restart: SimDuration,
    /// Offload restore time (library + local store copy + device BLCR
    /// restart + channel reconnection + re-registration).
    pub offload_restore: SimDuration,
    /// Resume time.
    pub resume: SimDuration,
    /// End-to-end restart time.
    pub total: SimDuration,
    /// Per-phase split of `offload_restore`, as reported by the daemon.
    pub offload_breakdown: Option<coi_sim::offload::RestoreBreakdown>,
}

/// The result of restarting a checkpointed application.
pub struct RestartedApp {
    /// The restored host process (a *new* process).
    pub host_proc: SimProcess,
    /// The application framework's opaque host state.
    pub host_state: Vec<u8>,
    /// Handle to the restored offload process (already resumed).
    pub handle: CoiProcessHandle,
    /// The snapshot descriptor (reusable for further restores).
    pub snapshot: SnapifyT,
    /// Timing breakdown.
    pub report: RestartReport,
}

/// The Fig 5(c) flow: host BLCR restart, then `snapify_restore` of the
/// offload process on `device`, then `snapify_resume`.
pub fn restart_application(
    world: &SnapifyWorld,
    snapshot_path: &str,
    binary: &str,
    device: usize,
) -> Result<RestartedApp, SnapifyError> {
    let _span = obs::span!("snapify.restart", device = device, path = snapshot_path);
    let t0 = simkernel::now();

    // Host BLCR restart from the host snapshot.
    let storage: &dyn SnapshotStorage = world.io();
    let mut src = storage.source(NodeId::HOST, &format!("{snapshot_path}/host_snapshot"))?;
    let restarted = blcr_sim::restart(
        &BlcrConfig::default(),
        world.server().host(),
        world.coi().pids(),
        src.as_mut(),
    )?;
    let host_proc = restarted.proc;
    let host_state = restarted.runtime_state;
    let t_host = simkernel::now();

    // The restored host process re-enters the BLCR callback's "restart"
    // branch (Fig 5(a)) and calls snapify_restore.
    let handle = world.coi().detached_handle(&host_proc, binary);
    // The drain locks are conceptually still held from the checkpoint
    // (the host snapshot was taken inside the paused region); mirror that
    // on the fresh handle so resume's release is balanced.
    handle.snapify_hold_host_locks();
    let snapshot = SnapifyT::new(&handle, snapshot_path);
    snapify_restore(&snapshot, device)?;
    let t_restore = simkernel::now();

    snapify_resume(&snapshot)?;
    let t_done = simkernel::now();

    let report = RestartReport {
        host_restart: t_host - t0,
        offload_restore: t_restore - t_host,
        resume: t_done - t_restore,
        total: t_done - t0,
        offload_breakdown: snapshot.restore_breakdown(),
    };
    Ok(RestartedApp {
        host_proc,
        host_state,
        handle,
        snapshot,
        report,
    })
}

/// Measure the span between two instants (helper for reports).
pub fn span(from: SimTime, to: SimTime) -> SimDuration {
    to - from
}

/// The transparent checkpoint entry point of §5 "Command-line tools":
/// BLCR's `cr_checkpoint` utility signals the host process, whose
/// registered handler runs `snapify_blcr_callback` — i.e. the full Fig 5
/// checkpoint flow — without any application modification.
pub struct CrTool {
    signals: simproc::Signals,
    host_proc: simproc::SimProcess,
    results: std::sync::Arc<simkernel::SimChannel<Result<CheckpointReport, SnapifyError>>>,
    counter: std::sync::Arc<simkernel::SimMutex<u64>>,
}

impl CrTool {
    /// Install the Snapify BLCR callback in `handle`'s host process. The
    /// `host_state` closure snapshots the application's resumable control
    /// state at checkpoint time (the stand-in for the host stack BLCR
    /// captures); `path_base` names the snapshot directory family.
    pub fn install(
        world: &SnapifyWorld,
        handle: &CoiProcessHandle,
        host_state: std::sync::Arc<dyn Fn() -> Vec<u8> + Send + Sync>,
        path_base: impl Into<String>,
    ) -> CrTool {
        let host_proc = handle.host_proc().clone();
        let signals = simproc::Signals::new(
            &format!("host-{}", host_proc.pid()),
            world.server().params().signal_latency,
        );
        let results = std::sync::Arc::new(simkernel::SimChannel::unbounded(format!(
            "crtool-{}",
            host_proc.pid()
        )));
        let counter = std::sync::Arc::new(simkernel::SimMutex::new("crtool ctr", 0u64));
        let path_base = path_base.into();
        {
            let world = world.clone();
            let handle = handle.clone();
            let results = std::sync::Arc::clone(&results);
            let counter = std::sync::Arc::clone(&counter);
            signals.register(simproc::signum::SIGCKPT, move || {
                // The signal handler: run snapify_blcr_callback (Fig 5a).
                let n = {
                    let mut c = counter.lock();
                    let n = *c;
                    *c += 1;
                    n
                };
                let state = host_state();
                let path = format!("{path_base}/{n}");
                let outcome = checkpoint_application(&world, &handle, &state, &path)
                    .map(|(_, report)| report);
                let _ = results.send(outcome);
            });
        }
        CrTool {
            signals,
            host_proc,
            results,
            counter,
        }
    }

    /// The `cr_checkpoint <pid>` action: signal the host process and wait
    /// for the checkpoint to complete.
    pub fn request_checkpoint(&self) -> Result<CheckpointReport, SnapifyError> {
        if !self.signals.kill(&self.host_proc, simproc::signum::SIGCKPT) {
            return Err(SnapifyError::Protocol("no BLCR handler installed".into()));
        }
        self.results
            .recv()
            .map_err(|_| SnapifyError::Protocol("host process gone".into()))?
    }

    /// Number of checkpoints taken so far.
    pub fn checkpoints_taken(&self) -> u64 {
        *self.counter.lock()
    }
}
