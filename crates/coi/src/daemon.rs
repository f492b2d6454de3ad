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
//! window has elapsed — over 99% of them — is answered at the pick by the
//! simkernel scheduler ([`simkernel::sleep_poll`], `Tick::Idle`): same
//! virtual schedule, no stack switch, not even a call — and a stretch of
//! such ticks up to the next event in the domain is answered as one pick.

use std::collections::HashMap;
use std::sync::Arc;

use phi_platform::{NodeId, SimNode};
use scif_sim::{ports, ScifEndpoint};
use simkernel::obs;
use simkernel::{Polled, SimMutex, Step, Tick};
use simproc::{signum, SimProcess};

use crate::msgs::{serve, CtlMsg, PipeMsg};
use crate::offload::{OffloadRuntime, SnapifyPipe};
use crate::world::CoiEnv;
use crate::CoiError;

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

impl ReqStage {
    /// What the requester is told when this stage cannot complete: the
    /// daemon does not know the pid, no pause is open, or the watchdog
    /// gave up. (A resume has nothing to fail; it just completes.)
    fn failure_reply(&self) -> CtlMsg {
        match self {
            ReqStage::AwaitPauseAck { .. } | ReqStage::AwaitPauseComplete => {
                CtlMsg::SnapifyPauseComplete { ok: false }
            }
            ReqStage::AwaitCaptureComplete { .. } => CtlMsg::SnapifyCaptureComplete {
                ok: false,
                snapshot_bytes: 0,
            },
            ReqStage::AwaitResumeAck => CtlMsg::SnapifyResumeComplete,
        }
    }
}

struct MonitorState {
    requests: Vec<ActiveRequest>,
    running: bool,
}

struct Inner {
    device_index: usize,
    env: Arc<CoiEnv>,
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
    pub(crate) fn start(env: &Arc<CoiEnv>, device_index: usize) -> CoiDaemon {
        let node = env.server.device(device_index);
        let daemon_proc = SimProcess::new(
            env.pids.alloc(),
            format!("coi_daemon:{}", node.name()),
            node,
        );
        let daemon = CoiDaemon {
            inner: Arc::new(Inner {
                device_index,
                env: Arc::clone(env),
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
        let listener = env.scif.listen(node.id(), ports::COI_DAEMON);
        let d = daemon.clone();
        daemon
            .inner
            .daemon_proc
            .spawn_stepped("listener", move || loop {
                match listener.poll_accept() {
                    Polled::Wait(w) => return Step::Wait(w),
                    Polled::Ready(Err(_)) => return Step::Exit,
                    Polled::Ready(Ok(ep)) => {
                        let d2 = d.clone();
                        d.inner.daemon_proc.spawn_service("ctl-handler", move || {
                            d2.ctl_handler(ep);
                        });
                    }
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
        self.inner.env.server.device(self.inner.device_index)
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
        serve(&ep, CtlMsg::decode, |msg| match msg {
            CtlMsg::CreateProcess { host_pid, binary } => {
                self.handle_create(&ep, host_pid, &binary);
            }
            CtlMsg::DestroyProcess { pid } => {
                self.expect_exit(pid);
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
            CtlMsg::SnapifyRestore { path, .. } => {
                self.handle_restore(&ep, &path);
            }
            _ => { /* replies never arrive at the daemon */ }
        })
    }

    /// Track `runtime` as a live offload process of this device.
    fn adopt(&self, runtime: &OffloadRuntime, pipe: Option<SnapifyPipe>) -> u64 {
        let pid = runtime.proc().pid().0;
        self.inner.entries.lock().insert(
            pid,
            DaemonEntry {
                runtime: runtime.clone(),
                intentional_exit: false,
                pipe,
            },
        );
        pid
    }

    /// A deliberate termination of `pid` is coming (destroy / swap-out):
    /// the watchdog must not report it as a crash.
    fn expect_exit(&self, pid: u64) {
        if let Some(entry) = self.inner.entries.lock().get_mut(&pid) {
            entry.intentional_exit = true;
        }
    }

    /// The Snapify pipe of `pid`, if a pause (or restore) has one open.
    fn open_pipe(&self, pid: u64) -> Option<SnapifyPipe> {
        let entries = self.inner.entries.lock();
        entries.get(&pid).and_then(|e| e.pipe.clone())
    }

    fn handle_create(&self, ep: &ScifEndpoint, host_pid: u64, binary: &str) {
        let _span = obs::span!(
            "coi.daemon.create",
            device = self.inner.device_index,
            binary = binary
        );
        // Pid 0 tells the host the create failed: no such binary, or the
        // device cannot hold the process.
        let (pid, ports) = self.create(host_pid, binary).unwrap_or((0, [0; 4]));
        let _ = ep.send(CtlMsg::CreateProcessReply { pid, ports }.encode());
    }

    fn create(&self, host_pid: u64, binary: &str) -> Result<(u64, [u16; 4]), CoiError> {
        let env = &self.inner.env;
        let node = self.node();
        let bin = env
            .registry
            .get(binary)
            .ok_or_else(|| CoiError::BadBinary(binary.to_string()))?;
        // Process spawn + binary copy over PCIe + dynamic load (§2).
        simkernel::sleep(env.server.params().process_spawn);
        env.server
            .rdma_between(NodeId::HOST, node.id(), bin.image_bytes);
        simkernel::sleep(env.server.params().library_load);
        let (rt, ports) = OffloadRuntime::launch(env, node, bin, host_pid)?;
        let pid = self.adopt(&rt, None);
        // Watchdog: notice unintentional exits (crashes).
        let daemon = self.clone();
        let proc = rt.proc().clone();
        self.inner.daemon_proc.spawn_stepped("watchdog", move || {
            if let Polled::Wait(w) = proc.poll_wait_exit() {
                return Step::Wait(w);
            }
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
            Step::Exit
        });
        Ok((pid, ports))
    }

    fn handle_pause(&self, ep: &ScifEndpoint, pid: u64, path: String) {
        obs::counter_add("coi.daemon.pause_requests", 1);
        let stage = ReqStage::AwaitPauseAck { path };
        let Some(rt) = self.runtime(pid) else {
            let _ = ep.send(stage.failure_reply().encode());
            return;
        };
        // Fig 3 step 1-2: create the pipe, install it, signal the process.
        let pipe = SnapifyPipe::new(pid);
        rt.install_pipe(pipe.clone());
        if let Some(entry) = self.inner.entries.lock().get_mut(&pid) {
            entry.pipe = Some(pipe.clone());
        }
        rt.signals().kill(rt.proc(), signum::SIGSNAPIFY);
        self.register_request(ActiveRequest::new(pid, pipe, ep.clone(), stage));
    }

    fn handle_capture(&self, ep: &ScifEndpoint, pid: u64, path: String, terminate: bool) {
        let stage = ReqStage::AwaitCaptureComplete { terminate };
        let Some(pipe) = self.open_pipe(pid) else {
            let _ = ep.send(stage.failure_reply().encode());
            return;
        };
        if terminate {
            self.expect_exit(pid);
        }
        let _ = pipe
            .to_offload
            .send(PipeMsg::CaptureReq { path, terminate });
        self.register_request(ActiveRequest::new(pid, pipe, ep.clone(), stage));
    }

    fn handle_resume(&self, ep: &ScifEndpoint, pid: u64) {
        let stage = ReqStage::AwaitResumeAck;
        let Some(pipe) = self.open_pipe(pid) else {
            let _ = ep.send(stage.failure_reply().encode());
            return;
        };
        let _ = pipe.to_offload.send(PipeMsg::ResumeReq);
        self.register_request(ActiveRequest::new(pid, pipe, ep.clone(), stage));
    }

    fn handle_restore(&self, ep: &ScifEndpoint, path: &str) {
        let _span = obs::span!(
            "coi.daemon.restore",
            device = self.inner.device_index,
            path = path
        );
        let reply = match OffloadRuntime::restore(&self.inner.env, self.node(), path) {
            Ok((rt, ports, addr_table, breakdown)) => {
                // Re-attach the daemon's bookkeeping (the paper: "the
                // coi_daemon needs to be brought into the picture again").
                // The restored process starts paused; start its pipe
                // handler directly so a later resume reaches it.
                let pipe = SnapifyPipe::new(rt.proc().pid().0);
                rt.install_pipe(pipe.clone());
                rt.spawn_pipe_handler(true);
                CtlMsg::SnapifyRestoreReply {
                    pid: self.adopt(&rt, Some(pipe)),
                    ports,
                    addr_table,
                    breakdown,
                    error: String::new(),
                }
            }
            // Pid 0: the restore failed, and `error` says why.
            Err(e) => CtlMsg::SnapifyRestoreReply {
                pid: 0,
                ports: [0; 4],
                addr_table: Vec::new(),
                breakdown: Default::default(),
                error: e.to_string(),
            },
        };
        let _ = ep.send(reply.encode());
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
            simkernel::sleep_poll(self.inner.env.config.poll_interval, move |now| {
                daemon.monitor_pass_due(now)
            });
        }
    }

    /// Whether a pass of [`Self::monitor_loop`] at `now` could do anything.
    /// Runs inside the dispatcher (see [`simkernel::sleep_poll`]), so it
    /// only looks: an empty list (the thread must wake to exit and clear
    /// `running`), a pipe message, an elapsed watchdog window, or a held
    /// monitor lock (the pass would queue behind it) all wake the thread.
    /// Otherwise nothing will until the earliest watchdog window ends,
    /// unless other code runs first: all of this changes only when it does.
    fn monitor_pass_due(&self, now: simkernel::SimTime) -> Tick {
        let Some(mon) = self.inner.monitor.try_lock() else {
            return Tick::Ready;
        };
        if mon.requests.is_empty() || mon.requests.iter().any(|r| !r.pipe.to_daemon.is_empty()) {
            return Tick::Ready;
        }
        let deadlines = (mon.requests.iter()).filter_map(|r| self.watchdog_deadline(r));
        match deadlines.min() {
            Some(deadline) if now >= deadline => Tick::Ready,
            until => Tick::Idle { until },
        }
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

    /// When `req`'s current no-progress window — `watchdog_timeout`
    /// doubled per extension already granted — ends.
    /// A zero `watchdog_timeout` disables the watchdog.
    fn watchdog_deadline(&self, req: &ActiveRequest) -> Option<simkernel::SimTime> {
        let timeout = self.inner.env.config.watchdog_timeout;
        (timeout != simkernel::SimDuration::ZERO)
            .then(|| req.last_progress + timeout * (1u64 << req.extensions.min(10)))
    }

    /// Watchdog: a request whose stage has made no progress for the
    /// configured window gets bounded deadline extensions (exponential
    /// backoff — transient chaos-plane faults absorbed by transport
    /// retries only *slow* a stage down); once the budget is spent the
    /// request is surfaced to the requester as a typed failure reply
    /// instead of hanging it forever. Returns true when the request was
    /// given up on.
    fn watchdog_check(&self, req: &mut ActiveRequest) -> bool {
        let cfg = &self.inner.env.config;
        if (self.watchdog_deadline(req)).is_none_or(|deadline| simkernel::now() < deadline) {
            return false;
        }
        if req.extensions < cfg.watchdog_retries {
            req.extensions += 1;
            obs::counter_add_labeled("chaos.retried", &[("op", "coi-watchdog")], 1);
            return false;
        }
        obs::counter_add_labeled("chaos.surfaced", &[("op", "coi-watchdog")], 1);
        let _ = req.ctl.send(req.stage.failure_reply().encode());
        true
    }
}
