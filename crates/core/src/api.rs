//! The Snapify API (Table 1) and its use scenarios (§5).
//!
//! | paper | here |
//! |---|---|
//! | `snapify_t` | [`SnapifyT`] |
//! | `snapify_pause()` | [`snapify_pause`] |
//! | `snapify_capture()` | [`snapify_capture`] (non-blocking) |
//! | `snapify_wait()` | [`snapify_wait`] |
//! | `snapify_resume()` | [`snapify_resume`] |
//! | `snapify_restore()` | [`snapify_restore`] |
//! | Fig 6 `snapify_swapout/swapin` | [`snapify_swapout`] / [`snapify_swapin`] |
//! | Fig 7 `snapify_migration` | [`snapify_migrate`] |
//!
//! One representational difference: the paper's `snapify_restore` returns
//! a new `COIProcess*`; here the existing [`CoiProcessHandle`] is rewired
//! in place (new pid, new channels, translated RDMA addresses), which is
//! equivalent for callers and keeps buffer handles valid.

use std::sync::Arc;

use coi_sim::msgs::CtlMsg;
use coi_sim::CoiProcessHandle;
use phi_platform::{Payload, SimFs};
use simkernel::obs;
use simkernel::{Semaphore, SimMutex};
use simproc::IoError;

use crate::SnapifyError;

/// The `snapify_t` parameter/result structure.
pub struct SnapifyT {
    // (fields below)
    /// `m_snapshot_path`: host-side directory holding the snapshot files.
    pub snapshot_path: String,
    /// `m_sem`: signalled when a capture completes.
    sem: Semaphore,
    /// `m_process`: the offload process this structure refers to.
    proc: CoiProcessHandle,
    /// Result of the last capture.
    capture_result: Arc<SimMutex<Option<Result<u64, SnapifyError>>>>,
    /// Virtual time at which the last capture completed.
    capture_completed_at: Arc<SimMutex<Option<simkernel::SimTime>>>,
    /// Whether the offload process was terminated by the capture.
    terminated: Arc<SimMutex<bool>>,
    /// Phase timings of the last restore (from the daemon's reply).
    restore_breakdown: Arc<SimMutex<Option<coi_sim::offload::RestoreBreakdown>>>,
}

impl std::fmt::Debug for SnapifyT {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapifyT")
            .field("snapshot_path", &self.snapshot_path)
            .field("terminated", &*self.terminated.lock())
            .finish()
    }
}

impl SnapifyT {
    /// Create a snapshot descriptor for `proc` targeting `snapshot_path`.
    pub fn new(proc: &CoiProcessHandle, snapshot_path: impl Into<String>) -> SnapifyT {
        let path = snapshot_path.into();
        SnapifyT {
            sem: Semaphore::new(format!("snapify {path}"), 0),
            proc: proc.clone(),
            capture_result: Arc::new(SimMutex::new(format!("snapify result {path}"), None)),
            capture_completed_at: Arc::new(SimMutex::new(format!("snapify done-at {path}"), None)),
            terminated: Arc::new(SimMutex::new(format!("snapify term {path}"), false)),
            restore_breakdown: Arc::new(SimMutex::new(format!("snapify restore-bd {path}"), None)),
            snapshot_path: path,
        }
    }

    /// The offload process handle (`m_process`).
    pub fn process(&self) -> &CoiProcessHandle {
        &self.proc
    }

    /// Size of the device snapshot produced by the last capture, if any.
    pub fn snapshot_bytes(&self) -> Option<u64> {
        match &*self.capture_result.lock() {
            Some(Ok(b)) => Some(*b),
            _ => None,
        }
    }

    /// Whether the capture terminated the offload process (swap-out).
    pub fn is_terminated(&self) -> bool {
        *self.terminated.lock()
    }

    /// Virtual time at which the last capture completed (the device-side
    /// snapshot write finished) — lets a checkpoint report the true device
    /// time even when the host snapshot finishes later.
    pub fn capture_completed_at(&self) -> Option<simkernel::SimTime> {
        *self.capture_completed_at.lock()
    }

    /// Phase timings of the last restore (library copy, local-store copy,
    /// BLCR restart, re-registration) as reported by the daemon.
    pub fn restore_breakdown(&self) -> Option<coi_sim::offload::RestoreBreakdown> {
        *self.restore_breakdown.lock()
    }
}

/// Pause the offload process: drain every SCIF channel between the host
/// process, the COI daemon, and the offload process, block the COI
/// library's sending threads, and save the local store to the snapshot
/// directory (§4.1).
///
/// Blocking. The channels stay quiesced until [`snapify_resume`].
pub fn snapify_pause(snapshot: &SnapifyT) -> Result<(), SnapifyError> {
    let handle = &snapshot.proc;
    let _span = obs::span!(
        "snapify.pause",
        pid = handle.pid(),
        device = handle.device(),
        path = snapshot.snapshot_path
    );

    // Save copies of the runtime libraries needed by the offload process
    // from the host file system into the snapshot directory (§4.1 — an
    // optimization over copying them back from the coprocessor).
    write_library_file(
        &handle.host_fs(),
        &snapshot.snapshot_path,
        handle.binary_image_bytes(),
    )?;

    // Drain the host side (§4.1 cases 1–4, host half): lifecycle + RDMA
    // locks, cmd-channel shutdown marker, run-request lock + drain.
    handle.snapify_drain_host()?;

    // Fig 3: snapify-service request to the daemon, which creates the
    // pipe, signals the offload process, relays the handshake, forwards
    // the pause request, and reports completion through its monitor
    // thread.
    let request = CtlMsg::SnapifyPause {
        pid: handle.pid(),
        path: snapshot.snapshot_path.clone(),
    };
    let failure = match handle.snapify_call(request) {
        Ok(CtlMsg::SnapifyPauseComplete { ok: true }) => return Ok(()),
        Ok(CtlMsg::SnapifyPauseComplete { ok: false }) => {
            // The offload side failed partway through its drain and may
            // hold locks / leave the barrier up. Best-effort resume so
            // the application is runnable again before the error
            // surfaces.
            let _ = snapify_resume(snapshot);
            SnapifyError::Protocol("offload pause failed".into())
        }
        Ok(other) => SnapifyError::Protocol(format!("unexpected reply {other:?}")),
        Err(e) => e.into(),
    };
    // No pause stands, whatever the daemon or the wire did: the drain
    // above succeeded, and its locks must not outlive the error
    // (idempotent after a resume that already released them).
    handle.snapify_release_host();
    Err(failure)
}

/// Capture a snapshot of the (paused) offload process. **Non-blocking**:
/// returns immediately; the semaphore in `snapshot` is signalled when the
/// snapshot has been written (wait with [`snapify_wait`]). If `terminate`
/// is true the offload process exits after the capture (swap-out).
pub fn snapify_capture(snapshot: &SnapifyT, terminate: bool) -> Result<(), SnapifyError> {
    let handle = snapshot.proc.clone();
    handle.snapify_send_ctl(CtlMsg::SnapifyCapture {
        pid: handle.pid(),
        path: snapshot.snapshot_path.clone(),
        terminate,
    })?;
    // The completion arrives asynchronously on the ctl channel; a waiter
    // thread posts the semaphore (the paper signals it from the message
    // handler).
    let sem = snapshot.sem.clone();
    let result_slot = Arc::clone(&snapshot.capture_result);
    let term_slot = Arc::clone(&snapshot.terminated);
    let done_at_slot = Arc::clone(&snapshot.capture_completed_at);
    handle
        .host_proc()
        .clone()
        .spawn_thread("snapify-capture-wait", move || {
            // The capture span lives on the waiter thread: it opens when
            // the request is in flight and closes when the daemon reports
            // the snapshot written — the true device-side capture window.
            let span = obs::span!("snapify.capture", pid = handle.pid(), terminate = terminate);
            let outcome = match handle.snapify_await_capture() {
                Ok(CtlMsg::SnapifyCaptureComplete {
                    ok: true,
                    snapshot_bytes,
                }) => {
                    if terminate {
                        *term_slot.lock() = true;
                        handle.snapify_detach();
                    }
                    Ok(snapshot_bytes)
                }
                Ok(_) => Err(SnapifyError::Protocol("capture failed".into())),
                Err(e) => Err(SnapifyError::Coi(e)),
            };
            drop(span);
            if let Ok(bytes) = &outcome {
                obs::counter_add("snapify.device_snapshot_bytes", *bytes);
            }
            *done_at_slot.lock() = Some(simkernel::now());
            *result_slot.lock() = Some(outcome);
            sem.post();
        });
    Ok(())
}

/// Block until the pending capture completes (`snapify_wait`). Returns
/// the device snapshot size.
pub fn snapify_wait(snapshot: &SnapifyT) -> Result<u64, SnapifyError> {
    let _span = obs::span!("snapify.wait");
    snapshot.sem.wait();
    snapshot
        .capture_result
        .lock()
        .clone()
        .expect("semaphore posted without a result")
}

/// Resume the blocked threads of the host and offload processes and
/// reopen the drained channels (§4.2).
pub fn snapify_resume(snapshot: &SnapifyT) -> Result<(), SnapifyError> {
    let handle = &snapshot.proc;
    let _span = obs::span!(
        "snapify.resume",
        pid = handle.pid(),
        device = handle.device()
    );
    match handle.snapify_call(CtlMsg::SnapifyResume { pid: handle.pid() })? {
        CtlMsg::SnapifyResumeComplete => {
            handle.snapify_release_host();
            Ok(())
        }
        other => Err(SnapifyError::Protocol(format!(
            "unexpected reply {other:?}"
        ))),
    }
}

/// Restore the offload process from its snapshot onto coprocessor
/// `device` (§4.3). The handle is rewired to the new process (new pid,
/// reconnected SCIF channels, RDMA addresses translated through the
/// (old, new) lookup table). The restored process stays inactive until
/// [`snapify_resume`].
pub fn snapify_restore(snapshot: &SnapifyT, device: usize) -> Result<(), SnapifyError> {
    let handle = &snapshot.proc;
    let _span = obs::span!(
        "snapify.restore",
        device = device,
        path = snapshot.snapshot_path
    );
    let breakdown = handle
        .snapify_restore(device, &snapshot.snapshot_path)?
        .map_err(SnapifyError::RestoreFailed)?;
    *snapshot.terminated.lock() = false;
    // The paper's restart breakdown (Fig 10), as histograms so repeated
    // restores aggregate into distributions.
    obs::histogram_observe("snapify.restore.library_copy_ns", breakdown.library_copy_ns);
    obs::histogram_observe("snapify.restore.store_copy_ns", breakdown.store_copy_ns);
    obs::histogram_observe("snapify.restore.blcr_restart_ns", breakdown.blcr_restart_ns);
    obs::histogram_observe(
        "snapify.restore.reregistration_ns",
        breakdown.reregistration_ns,
    );
    *snapshot.restore_breakdown.lock() = Some(breakdown);
    Ok(())
}

/// Swap the offload process out to `snapshot_path` (Fig 6a): pause,
/// capture with termination, wait. Returns the descriptor needed to swap
/// back in. The host process's COI threads stay blocked until the
/// process is swapped in and resumed.
pub fn snapify_swapout(
    proc: &CoiProcessHandle,
    snapshot_path: &str,
) -> Result<SnapifyT, SnapifyError> {
    let _span = obs::span!("snapify.swapout", pid = proc.pid(), path = snapshot_path);
    let snapshot = SnapifyT::new(proc, snapshot_path);
    snapify_pause(&snapshot)?;
    let captured = snapify_capture(&snapshot, true).and_then(|_| snapify_wait(&snapshot));
    if let Err(e) = captured {
        // The capture failed but the pause succeeded: the process is
        // intact, just quiesced. Resume it so a failed swap-out leaves
        // the tenant running instead of wedged.
        let _ = snapify_resume(&snapshot);
        return Err(e);
    }
    Ok(snapshot)
}

/// Swap the offload process back in on coprocessor `device_to` (Fig 6b):
/// restore + resume.
pub fn snapify_swapin(snapshot: &SnapifyT, device_to: usize) -> Result<(), SnapifyError> {
    let _span = obs::span!("snapify.swapin", device = device_to);
    snapify_restore(snapshot, device_to)?;
    snapify_resume(snapshot)
}

/// Migrate the offload process to coprocessor `device_to` (Fig 7):
/// swap-out to a scratch directory, swap-in on the target device.
///
/// The scratch directory is namespaced by *host + tenant*
/// (`/tmp/snapify-migrate-<hostname>-h<host_pid>-p<pid>`): offload pids
/// are only unique within one node, so two tenants with colliding pids
/// on different hosts of a fleet must never share a staging path. If
/// the swap-in half fails, the process is restored onto its original
/// device and the scratch directory is removed from the host fs before
/// the error surfaces, so a retry never sees half of this attempt's
/// image (store-managed chunks under the same prefix are released by
/// the owning store's prefix GC, e.g. `SwapScheduler::with_store`).
pub fn snapify_migrate(
    proc: &CoiProcessHandle,
    device_to: usize,
) -> Result<SnapifyT, SnapifyError> {
    let device_from = proc.device();
    let _span = obs::span!(
        "snapify.migrate",
        pid = proc.pid(),
        from = device_from,
        to = device_to
    );
    let path = format!(
        "/tmp/snapify-migrate-{}-h{}-p{}",
        proc.host_params().hostname,
        proc.host_proc().pid().0,
        proc.pid()
    );
    let snapshot = snapify_swapout(proc, &path)?;
    if let Err(e) = snapify_swapin(&snapshot, device_to) {
        // Failed mid-migration: the swap-out already terminated the
        // offload process, so put the tenant back where it came from
        // (every chunk is still warm at the source), then drop the
        // scratch image. If even the restore-back fails the snapshot is
        // the only copy left — keep it and surface the original error.
        if snapify_swapin(&snapshot, device_from).is_ok() {
            proc.host_fs().delete_prefix(&format!("{path}/"));
        }
        return Err(e);
    }
    Ok(snapshot)
}

/// The one writer of `{path}/libraries`: MPSS keeps the device runtime
/// libraries on the host fs, so a pause just copies them into the
/// snapshot directory (§4.1), and a migration's destination regenerates
/// the file from its own copy of the binary.
pub(crate) fn write_library_file(
    fs: &SimFs,
    path: &str,
    image_bytes: u64,
) -> Result<(), SnapifyError> {
    let file = format!("{path}/libraries");
    fs.create_or_truncate(&file);
    fs.append(&file, Payload::synthetic(0x11B5, image_bytes))
        .map_err(IoError::from)?;
    Ok(())
}
