//! The COI daemon (`coi_daemon` in Fig 1): one per coprocessor.
//!
//! The daemon listens on a fixed SCIF port, launches offload processes on
//! request, monitors them, and — with the Snapify extensions — coordinates
//! pause / capture / resume / restore (Fig 3). It is chosen as the
//! coordinator because there is exactly one per coprocessor on a
//! well-known port (§4.1).
//!
//! A dedicated **Snapify monitor thread** oversees in-progress requests by
//! polling the per-process pipes, exactly as described in the paper: it is
//! (re)created when the active-request list becomes non-empty and exits
//! when the list drains. It still polls on the paper's `poll_interval`
//! (200 µs) grid, but a tick on which every pipe is empty and no watchdog
//! window has elapsed — over 99% of them — is evaluated by the simkernel
//! dispatcher ([`simkernel::sleep_poll`]) instead of waking the thread:
//! same virtual schedule, no OS-thread hand-off.

use std::collections::HashMap;
use std::sync::Arc;

use blcr_sim::BlcrConfig;
use phi_platform::{NodeId, PlatformParams, SimNode};
use scif_sim::{ports, Scif, ScifEndpoint};
use simkernel::obs;
use simkernel::SimMutex;
use simproc::{signum, PidAllocator, SimProcess};

use crate::binary::FunctionRegistry;
use crate::config::CoiConfig;
use crate::msgs::{CtlMsg, PipeMsg};
use crate::offload::{OffloadRuntime, SnapifyPipe};
use crate::storage::SnapshotStorage;

struct DaemonEntry {
    runtime: OffloadRuntime,
    /// Set before a deliberate termination (destroy / swap-out) so the
    /// watchdog does not report a crash.
    intentional_exit: bool,
    /// The Snapify pipe, open between pause and resume (or restore and
    /// resume).
    pipe: Option<SnapifyPipe>,
}

/// A monitor-tracked in-flight Snapify request.
struct ActiveRequest {
    pid: u64,
    pipe: SnapifyPipe,
    ctl: ScifEndpoint,
    stage: ReqStage,
    /// Virtual time of the last observed progress (request registration
    /// or the latest pipe message), for the watchdog deadline.
    last_progress: simkernel::SimTime,
    /// Watchdog deadline extensions granted since `last_progress`.
    extensions: u32,
}

impl ActiveRequest {
    fn new(pid: u64, pipe: SnapifyPipe, ctl: ScifEndpoint, stage: ReqStage) -> ActiveRequest {
        ActiveRequest {
            pid,
            pipe,
            ctl,
            stage,
            last_progress: simkernel::now(),
            extensions: 0,
        }
    }
}

#[allow(clippy::enum_variant_names)]
enum ReqStage {
    /// Waiting for the signal handler's handshake ack (Fig 3 step 2).
    AwaitPauseAck {
        /// Snapshot directory to forward with the pause request.
        path: String,
    },
    /// Pause request forwarded; waiting for drain + local-store save.
    AwaitPauseComplete,
    /// Capture request forwarded; waiting for the snapshot.
    AwaitCaptureComplete {
        /// Whether the process terminates after the capture (swap-out).
        terminate: bool,
    },
    /// Resume request forwarded.
    AwaitResumeAck,
}

struct MonitorState {
    requests: Vec<ActiveRequest>,
    running: bool,
}

struct Inner {
    device_index: usize,
    node: SimNode,
    scif: Scif,
    config: CoiConfig,
    blcr: BlcrConfig,
    params: PlatformParams,
    registry: FunctionRegistry,
    storage: Arc<dyn SnapshotStorage>,
    pids: PidAllocator,
    daemon_proc: SimProcess,
    entries: SimMutex<HashMap<u64, DaemonEntry>>,
    monitor: SimMutex<MonitorState>,
    crashes: SimMutex<Vec<u64>>,
}

/// Handle to one device's COI daemon. Cheap to clone.
#[derive(Clone)]
pub struct CoiDaemon {
    inner: Arc<Inner>,
}

impl CoiDaemon {
    /// Start the daemon for `device_index` (spawns its listener thread).
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        device_index: usize,
        node: &SimNode,
        scif: &Scif,
        config: &CoiConfig,
        blcr: &BlcrConfig,
        params: &PlatformParams,
        registry: &FunctionRegistry,
        storage: Arc<dyn SnapshotStorage>,
        pids: &PidAllocator,
    ) -> CoiDaemon {
        let daemon_proc =
            SimProcess::new(pids.alloc(), format!("coi_daemon:{}", node.name()), node);
        let daemon = CoiDaemon {
            inner: Arc::new(Inner {
                device_index,
                node: node.clone(),
                scif: scif.clone(),
                config: config.clone(),
                blcr: blcr.clone(),
                params: params.clone(),
                registry: registry.clone(),
                storage,
                pids: pids.clone(),
                entries: SimMutex::new(format!("daemon entries {}", node.name()), HashMap::new()),
                monitor: SimMutex::new(
                    format!("daemon monitor {}", node.name()),
                    MonitorState {
                        requests: Vec::new(),
                        running: false,
                    },
                ),
                crashes: SimMutex::new(format!("daemon crashes {}", node.name()), Vec::new()),
                daemon_proc,
            }),
        };
        let listener = scif.listen(node.id(), ports::COI_DAEMON);
        let d = daemon.clone();
        daemon.inner.daemon_proc.spawn_service("listener", move || {
            while let Ok(ep) = listener.accept() {
                let d2 = d.clone();
                d.inner.daemon_proc.spawn_service("ctl-handler", move || {
                    d2.ctl_handler(ep);
                });
            }
        });
        daemon
    }

    /// The device this daemon serves.
    pub fn device_index(&self) -> usize {
        self.inner.device_index
    }

    /// The node the daemon runs on.
    pub fn node(&self) -> &SimNode {
        &self.inner.node
    }

    /// Look up a live offload runtime by pid (testing/diagnostics).
    pub fn runtime(&self, pid: u64) -> Option<OffloadRuntime> {
        self.inner
            .entries
            .lock()
            .get(&pid)
            .map(|e| e.runtime.clone())
    }

    /// Pids whose processes exited without a deliberate termination.
    pub fn crashed_pids(&self) -> Vec<u64> {
        self.inner.crashes.lock().clone()
    }

    /// Number of live offload processes.
    pub fn live_processes(&self) -> usize {
        self.inner
            .entries
            .lock()
            .values()
            .filter(|e| !e.runtime.is_terminated())
            .count()
    }

    fn ctl_handler(&self, ep: ScifEndpoint) {
        loop {
            let payload = match ep.recv() {
                Ok(p) => p,
                Err(_) => return,
            };
            let msg = match CtlMsg::decode(&payload) {
                Ok(m) => m,
                Err(_) => continue,
            };
            match msg {
                CtlMsg::CreateProcess { host_pid, binary } => {
                    self.handle_create(&ep, host_pid, &binary);
                }
                CtlMsg::DestroyProcess { pid } => {
                    if let Some(entry) = self.inner.entries.lock().get_mut(&pid) {
                        entry.intentional_exit = true;
                    }
                    if let Some(rt) = self.runtime(pid) {
                        rt.terminate();
                    }
                    self.inner.entries.lock().remove(&pid);
                    let _ = ep.send(CtlMsg::DestroyAck.encode());
                }
                CtlMsg::SnapifyPause { pid, path } => {
                    self.handle_pause(&ep, pid, path);
                }
                CtlMsg::SnapifyCapture {
                    pid,
                    path,
                    terminate,
                } => {
                    self.handle_capture(&ep, pid, path, terminate);
                }
                CtlMsg::SnapifyResume { pid } => {
                    self.handle_resume(&ep, pid);
                }
                CtlMsg::SnapifyRestore { path, host_pid } => {
                    self.handle_restore(&ep, &path, host_pid);
                }
                _ => { /* replies never arrive at the daemon */ }
            }
        }
    }

    fn handle_create(&self, ep: &ScifEndpoint, host_pid: u64, binary: &str) {
        let _span = obs::span!(
            "coi.daemon.create",
            device = self.inner.device_index,
            binary = binary
        );
        let Some(bin) = self.inner.registry.get(binary) else {
            let _ = ep.send(
                CtlMsg::CreateProcessReply {
                    pid: 0,
                    ports: [0; 4],
                }
                .encode(),
            );
            return;
        };
        // Process spawn + binary copy over PCIe + dynamic load (§2).
        simkernel::sleep(self.inner.params.process_spawn);
        self.inner
            .scif
            .server()
            .rdma_between(NodeId::HOST, self.inner.node.id(), bin.image_bytes);
        simkernel::sleep(self.inner.params.library_load);
        let launched = OffloadRuntime::launch(
            &self.inner.config,
            &self.inner.blcr,
            &self.inner.scif,
            &self.inner.node,
            &self.inner.pids,
            bin,
            host_pid,
            Arc::clone(&self.inner.storage),
            self.inner.params.signal_latency,
        );
        match launched {
            Ok((rt, ports)) => {
                let pid = rt.proc().pid().0;
                self.inner.entries.lock().insert(
                    pid,
                    DaemonEntry {
                        runtime: rt.clone(),
                        intentional_exit: false,
                        pipe: None,
                    },
                );
                // Watchdog: notice unintentional exits (crashes).
                let daemon = self.clone();
                let proc = rt.proc().clone();
                self.inner.daemon_proc.spawn_service("watchdog", move || {
                    proc.wait_exit();
                    let intentional = daemon
                        .inner
                        .entries
                        .lock()
                        .get(&pid)
                        .map(|e| e.intentional_exit)
                        .unwrap_or(true);
                    if !intentional {
                        daemon.inner.crashes.lock().push(pid);
                    }
                });
                let _ = ep.send(CtlMsg::CreateProcessReply { pid, ports }.encode());
            }
            Err(_) => {
                let _ = ep.send(
                    CtlMsg::CreateProcessReply {
                        pid: 0,
                        ports: [0; 4],
                    }
                    .encode(),
                );
            }
        }
    }

    fn handle_pause(&self, ep: &ScifEndpoint, pid: u64, path: String) {
        obs::counter_add("coi.daemon.pause_requests", 1);
        let Some(rt) = self.runtime(pid) else {
            let _ = ep.send(CtlMsg::SnapifyPauseComplete { ok: false }.encode());
            return;
        };
        // Fig 3 step 1-2: create the pipe, install it, signal the process.
        let pipe = SnapifyPipe::new(pid);
        rt.install_pipe(pipe.clone());
        if let Some(entry) = self.inner.entries.lock().get_mut(&pid) {
            entry.pipe = Some(pipe.clone());
        }
        rt.signals().kill(rt.proc(), signum::SIGSNAPIFY);
        self.register_request(ActiveRequest::new(
            pid,
            pipe,
            ep.clone(),
            ReqStage::AwaitPauseAck { path },
        ));
    }

    fn handle_capture(&self, ep: &ScifEndpoint, pid: u64, path: String, terminate: bool) {
        let pipe = self
            .inner
            .entries
            .lock()
            .get(&pid)
            .and_then(|e| e.pipe.clone());
        let Some(pipe) = pipe else {
            let _ = ep.send(
                CtlMsg::SnapifyCaptureComplete {
                    ok: false,
                    snapshot_bytes: 0,
                }
                .encode(),
            );
            return;
        };
        if terminate {
            if let Some(entry) = self.inner.entries.lock().get_mut(&pid) {
                entry.intentional_exit = true;
            }
        }
        let _ = pipe
            .to_offload
            .send(PipeMsg::CaptureReq { path, terminate });
        self.register_request(ActiveRequest::new(
            pid,
            pipe,
            ep.clone(),
            ReqStage::AwaitCaptureComplete { terminate },
        ));
    }

    fn handle_resume(&self, ep: &ScifEndpoint, pid: u64) {
        let pipe = self
            .inner
            .entries
            .lock()
            .get(&pid)
            .and_then(|e| e.pipe.clone());
        let Some(pipe) = pipe else {
            let _ = ep.send(CtlMsg::SnapifyResumeComplete.encode());
            return;
        };
        let _ = pipe.to_offload.send(PipeMsg::ResumeReq);
        self.register_request(ActiveRequest::new(
            pid,
            pipe,
            ep.clone(),
            ReqStage::AwaitResumeAck,
        ));
    }

    fn handle_restore(&self, ep: &ScifEndpoint, path: &str, _host_pid: u64) {
        let _span = obs::span!(
            "coi.daemon.restore",
            device = self.inner.device_index,
            path = path
        );
        let server = self.inner.scif.server().clone();
        let node_id = self.inner.node.id();
        let restored = OffloadRuntime::restore(
            &self.inner.config,
            &self.inner.blcr,
            &self.inner.scif,
            &self.inner.node,
            &self.inner.pids,
            &self.inner.registry,
            Arc::clone(&self.inner.storage),
            path,
            self.inner.params.signal_latency,
            // "the COI daemon first copies the local store and the runtime
            // libraries needed by the offload process on the fly" (§4.3).
            |image_bytes| {
                server.rdma_between(NodeId::HOST, node_id, image_bytes);
            },
        );
        match restored {
            Ok((rt, ports, addr_table, breakdown)) => {
                let pid = rt.proc().pid().0;
                // Re-attach the daemon's bookkeeping (the paper: "the
                // coi_daemon needs to be brought into the picture again").
                let pipe = SnapifyPipe::new(pid);
                rt.install_pipe(pipe.clone());
                // The restored process starts paused; spawn its pipe
                // handler directly so a later resume reaches it.
                {
                    let rt2 = rt.clone();
                    rt.proc().spawn_service("snapify-pipe", move || {
                        rt2.restored_pipe_handler();
                    });
                }
                self.inner.entries.lock().insert(
                    pid,
                    DaemonEntry {
                        runtime: rt.clone(),
                        intentional_exit: false,
                        pipe: Some(pipe),
                    },
                );
                let _ = ep.send(
                    CtlMsg::SnapifyRestoreReply {
                        pid,
                        ports,
                        addr_table,
                        breakdown: (
                            breakdown.library_copy_ns,
                            breakdown.store_copy_ns,
                            breakdown.blcr_restart_ns,
                            breakdown.reregistration_ns,
                        ),
                        error: String::new(),
                    }
                    .encode(),
                );
            }
            Err(e) => {
                let _ = ep.send(
                    CtlMsg::SnapifyRestoreReply {
                        pid: 0,
                        ports: [0; 4],
                        addr_table: Vec::new(),
                        breakdown: (0, 0, 0, 0),
                        error: e.to_string(),
                    }
                    .encode(),
                );
            }
        }
    }

    /// Add a request to the monitor's list, creating the monitor thread if
    /// none is running (the paper's dedicated Snapify monitor thread).
    fn register_request(&self, req: ActiveRequest) {
        let mut mon = self.inner.monitor.lock();
        mon.requests.push(req);
        if !mon.running {
            mon.running = true;
            drop(mon);
            let daemon = self.clone();
            self.inner
                .daemon_proc
                .spawn_service("snapify-monitor", move || {
                    daemon.monitor_loop();
                });
        }
    }

    fn monitor_loop(&self) {
        loop {
            {
                let mut mon = self.inner.monitor.lock();
                if mon.requests.is_empty() {
                    mon.running = false;
                    return;
                }
                let mut i = 0;
                while i < mon.requests.len() {
                    let done = self.poll_request(&mut mon.requests[i]);
                    if done {
                        mon.requests.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
            let daemon = self.clone();
            simkernel::sleep_poll(self.inner.config.poll_interval, move |now| {
                daemon.monitor_pass_due(now)
            });
        }
    }

    /// Whether a pass of [`Self::monitor_loop`] at `now` could do anything.
    /// Runs inside the dispatcher (see [`simkernel::sleep_poll`]), so it
    /// only peeks: an empty list (the thread must wake to exit and clear
    /// `running`), a pipe message, an elapsed watchdog window, or a held
    /// monitor lock (the pass would queue behind it) all wake the thread.
    fn monitor_pass_due(&self, now: simkernel::SimTime) -> bool {
        self.inner
            .monitor
            .peek(|mon| {
                mon.requests.is_empty()
                    || mon
                        .requests
                        .iter()
                        .any(|r| !r.pipe.to_daemon.is_empty() || self.watchdog_due(r, now))
            })
            .unwrap_or(true)
    }

    /// Poll one request's pipe; returns true when the request completed
    /// (or the watchdog gave up on it).
    fn poll_request(&self, req: &mut ActiveRequest) -> bool {
        let Some(msg) = req.pipe.to_daemon.try_recv() else {
            return self.watchdog_check(req);
        };
        // Any pipe message is progress: the offload side is alive.
        req.last_progress = simkernel::now();
        req.extensions = 0;
        match (&req.stage, msg) {
            (ReqStage::AwaitPauseAck { path }, PipeMsg::PauseAck) => {
                // Handshake done (Fig 3 step 3); forward the pause request
                // (step 4).
                let _ = req
                    .pipe
                    .to_offload
                    .send(PipeMsg::PauseReq { path: path.clone() });
                req.stage = ReqStage::AwaitPauseComplete;
                false
            }
            (ReqStage::AwaitPauseComplete, PipeMsg::PauseComplete { ok }) => {
                let _ = req.ctl.send(CtlMsg::SnapifyPauseComplete { ok }.encode());
                true
            }
            (
                ReqStage::AwaitCaptureComplete { terminate },
                PipeMsg::CaptureComplete { ok, snapshot_bytes },
            ) => {
                if *terminate && ok {
                    self.inner.entries.lock().remove(&req.pid);
                }
                let _ = req
                    .ctl
                    .send(CtlMsg::SnapifyCaptureComplete { ok, snapshot_bytes }.encode());
                true
            }
            (ReqStage::AwaitResumeAck, PipeMsg::ResumeAck) => {
                if let Some(entry) = self.inner.entries.lock().get_mut(&req.pid) {
                    entry.pipe = None;
                }
                let _ = req.ctl.send(CtlMsg::SnapifyResumeComplete.encode());
                true
            }
            // Unexpected message for the stage: drop it and keep waiting.
            _ => false,
        }
    }

    /// Whether `req`'s current no-progress window — `watchdog_timeout`
    /// doubled per extension already granted — has elapsed at `now`.
    /// A zero `watchdog_timeout` disables the watchdog.
    fn watchdog_due(&self, req: &ActiveRequest, now: simkernel::SimTime) -> bool {
        let timeout = self.inner.config.watchdog_timeout;
        if timeout == simkernel::SimDuration::ZERO {
            return false;
        }
        now.since(req.last_progress) >= timeout * (1u64 << req.extensions.min(10))
    }

    /// Watchdog: a request whose stage has made no progress for the
    /// configured window gets bounded deadline extensions (exponential
    /// backoff — transient chaos-plane faults absorbed by transport
    /// retries only *slow* a stage down); once the budget is spent the
    /// request is surfaced to the requester as a typed failure reply
    /// instead of hanging it forever. Returns true when the request was
    /// given up on.
    fn watchdog_check(&self, req: &mut ActiveRequest) -> bool {
        let cfg = &self.inner.config;
        if !self.watchdog_due(req, simkernel::now()) {
            return false;
        }
        if req.extensions < cfg.watchdog_retries {
            req.extensions += 1;
            obs::counter_add_labeled("chaos.retried", &[("op", "coi-watchdog")], 1);
            return false;
        }
        obs::counter_add_labeled("chaos.surfaced", &[("op", "coi-watchdog")], 1);
        let reply = match &req.stage {
            ReqStage::AwaitPauseAck { .. } | ReqStage::AwaitPauseComplete => {
                CtlMsg::SnapifyPauseComplete { ok: false }
            }
            ReqStage::AwaitCaptureComplete { .. } => CtlMsg::SnapifyCaptureComplete {
                ok: false,
                snapshot_bytes: 0,
            },
            ReqStage::AwaitResumeAck => CtlMsg::SnapifyResumeComplete,
        };
        let _ = req.ctl.send(reply.encode());
        true
    }
}

impl OffloadRuntime {
    /// Pipe handler for a freshly-restored process: waits for the resume
    /// request that re-activates it (§4.3: "the offload process, though
    /// restored, is not fully active until snapify_resume").
    pub(crate) fn restored_pipe_handler(&self) {
        let pipe_opt = { self.pipe_slot().lock().clone() };
        let Some(pipe) = pipe_opt else { return };
        loop {
            match pipe.to_offload.recv() {
                Ok(PipeMsg::ResumeReq) => {
                    self.clear_barrier_and_resume();
                    let _ = pipe.to_daemon.send(PipeMsg::ResumeAck);
                    return;
                }
                Ok(_) => continue,
                Err(_) => return,
            }
        }
    }
}
