//! The host side of COI: `COIProcess*` and the COI library calls an
//! offload application makes.
//!
//! A [`CoiProcessHandle`] owns the host's four SCIF connections to its
//! offload process, the host-side server threads (log/event), the result
//! dispatcher, and — when Snapify is enabled — the host half of the drain
//! locks (§4.1 cases 1–4).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use phi_platform::{NodeId, Payload};
use scif_sim::{ports, RdmaAddr, ScifEndpoint};
use simkernel::{SimChannel, SimMutex, Step};
use simproc::SimProcess;

use crate::locks::DrainLock;
use crate::msgs::{recv_msg, serve_step, CmdMsg, CtlMsg, Endpoints, RunMsg, StreamMsg};
use crate::offload::RestoreBreakdown;
use crate::world::CoiEnv;
use crate::CoiError;

/// Map of in-flight run ids to their result channels.
type PendingRuns = SimMutex<HashMap<u64, SimChannel<Result<Vec<u8>, String>>>>;

/// A COI buffer as seen by the host: id, size, current RDMA address.
#[derive(Debug)]
pub struct CoiBuffer {
    /// Buffer id (host-assigned).
    pub id: u64,
    /// Size in bytes.
    pub size: u64,
    addr: SimMutex<RdmaAddr>,
}

impl CoiBuffer {
    fn new(id: u64, size: u64, addr: u64) -> Arc<CoiBuffer> {
        Arc::new(CoiBuffer {
            id,
            size,
            addr: SimMutex::new(format!("buf addr {id}"), RdmaAddr(addr)),
        })
    }

    /// The buffer's current RDMA window address. Changes after a restore
    /// (§4.3's (old, new) lookup table is applied by the Snapify runtime).
    pub fn addr(&self) -> RdmaAddr {
        *self.addr.lock()
    }
}

/// An in-flight offload-function invocation.
pub struct RunHandle {
    /// Run id.
    pub id: u64,
    rx: SimChannel<Result<Vec<u8>, String>>,
}

impl RunHandle {
    /// Block until the function's return value arrives (Fig 4 step 8).
    pub fn wait(self) -> Result<Vec<u8>, CoiError> {
        match self.rx.recv() {
            Ok(Ok(ret)) => Ok(ret),
            Ok(Err(msg)) => Err(CoiError::Function(msg)),
            Err(_) => Err(CoiError::Closed),
        }
    }
}

struct HandleInner {
    env: Arc<CoiEnv>,
    host_proc: SimProcess,
    binary: String,
    binary_image_bytes: u64,

    device: SimMutex<usize>,
    pid: SimMutex<u64>,
    /// The data channels and the ctl connection they were negotiated
    /// over; `None` while the handle is detached.
    eps: SimMutex<Option<(Endpoints, ScifEndpoint)>>,

    pending: Arc<PendingRuns>,
    next_run_id: SimMutex<u64>,
    next_buf_id: SimMutex<u64>,
    buffers: SimMutex<BTreeMap<u64, Arc<CoiBuffer>>>,

    // Host-side drain locks (§4.1): process lifecycle (case 1), RDMA
    // buffer transfers (case 2), the cmd client channel (case 3), and the
    // run-function request send (case 4).
    lifecycle: DrainLock,
    rdma: DrainLock,
    cmd_lock: DrainLock,
    run_send: DrainLock,

    // Ctl routing: most exchanges are synchronous request/reply, but the
    // capture completion arrives asynchronously (snapify_capture is
    // non-blocking).
    ctl_replies: SimChannel<CtlMsg>,
    capture_done: SimChannel<CtlMsg>,

    /// Collected log records (host-side COI log server).
    logs: SimMutex<Vec<Vec<u8>>>,
    /// Collected event records.
    events: SimMutex<Vec<Vec<u8>>>,
}

/// Host-side handle to an offload process (`COIProcess*`). Cheap to clone.
#[derive(Clone)]
pub struct CoiProcessHandle {
    inner: Arc<HandleInner>,
}

impl std::fmt::Debug for CoiProcessHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoiProcessHandle")
            .field("pid", &*self.inner.pid.lock())
            .field("device", &*self.inner.device.lock())
            .finish()
    }
}

impl CoiProcessHandle {
    /// A detached handle: no offload process yet. What `create` attaches,
    /// and what a restarted host process holds until `snapify_restore`
    /// re-adopts its swapped-out/checkpointed offload process.
    pub(crate) fn new_detached(
        env: &Arc<CoiEnv>,
        host_proc: &SimProcess,
        binary: &str,
    ) -> CoiProcessHandle {
        let pid_tag = host_proc.pid().0;
        let binary_image_bytes = env.registry.get(binary).map_or(0, |b| b.image_bytes);
        CoiProcessHandle {
            inner: Arc::new(HandleInner {
                env: Arc::clone(env),
                host_proc: host_proc.clone(),
                binary: binary.to_string(),
                binary_image_bytes,
                device: SimMutex::new(format!("hdl dev {pid_tag}"), 0),
                pid: SimMutex::new(format!("hdl pid {pid_tag}"), 0),
                eps: SimMutex::new(format!("hdl eps {pid_tag}"), None),
                pending: Arc::new(SimMutex::new(
                    format!("hdl pending {pid_tag}"),
                    HashMap::new(),
                )),
                next_run_id: SimMutex::new(format!("hdl runid {pid_tag}"), 1),
                next_buf_id: SimMutex::new(format!("hdl bufid {pid_tag}"), 1),
                buffers: SimMutex::new(format!("hdl buffers {pid_tag}"), BTreeMap::new()),
                lifecycle: DrainLock::new(format!("lifecycle {pid_tag}")),
                rdma: DrainLock::new(format!("rdma {pid_tag}")),
                cmd_lock: DrainLock::new(format!("cmd-client {pid_tag}")),
                run_send: DrainLock::new(format!("run-send {pid_tag}")),
                ctl_replies: SimChannel::unbounded(format!("ctl-replies {pid_tag}")),
                capture_done: SimChannel::unbounded(format!("capture-done {pid_tag}")),
                logs: SimMutex::new(format!("hdl logs {pid_tag}"), Vec::new()),
                events: SimMutex::new(format!("hdl events {pid_tag}"), Vec::new()),
            }),
        }
    }

    /// Create an offload process on device `device` running `binary`
    /// (i.e. `COIProcessCreateFromFile`): a detached handle, attached
    /// inside the §4.1 case 1 critical region.
    pub(crate) fn create(
        env: &Arc<CoiEnv>,
        host_proc: &SimProcess,
        device: usize,
        binary: &str,
    ) -> Result<CoiProcessHandle, CoiError> {
        let handle = Self::new_detached(env, host_proc, binary);
        handle.inner.lifecycle.with(|| {
            let request = CtlMsg::CreateProcess {
                host_pid: host_proc.pid().0,
                binary: binary.into(),
            };
            match handle.ctl_call(Some(device), request)? {
                (CtlMsg::CreateProcessReply { pid: 0, .. }, _) => {
                    Err(CoiError::BadBinary(binary.to_string()))
                }
                (CtlMsg::CreateProcessReply { pid, ports }, ctl) => {
                    handle.attach(device, pid, ports, &[], ctl)
                }
                (reply, _) => Err(CoiError::Protocol(format!("unexpected reply {reply:?}"))),
            }
        })?;
        Ok(handle)
    }

    /// One request/reply exchange with a daemon: over the handle's ctl
    /// connection, or — for the two requests that reach a daemon the
    /// handle is not attached to yet (create, restore) — over a fresh one
    /// to `device`'s daemon. Returns the reply and the connection it came
    /// over, for the caller to attach through.
    fn ctl_call(
        &self,
        fresh: Option<usize>,
        msg: CtlMsg,
    ) -> Result<(CtlMsg, ScifEndpoint), CoiError> {
        let ctl = match fresh {
            Some(device) => self.connect_ctl(device)?,
            None => self.ctl()?,
        };
        ctl.send(msg.encode())?;
        let reply = self.inner.ctl_replies.recv();
        Ok((reply.map_err(|_| CoiError::Closed)?, ctl))
    }

    /// Connect the ctl channel to `device`'s daemon and start its
    /// dispatcher thread.
    fn connect_ctl(&self, device: usize) -> Result<ScifEndpoint, CoiError> {
        let scif = &self.inner.env.scif;
        let ctl = scif.connect(NodeId::HOST, NodeId::device(device), ports::COI_DAEMON)?;
        let replies = self.inner.ctl_replies.clone();
        let capture_done = self.inner.capture_done.clone();
        let dispatch = serve_step(ctl.clone(), CtlMsg::decode, move |msg| {
            let _ = match msg {
                CtlMsg::SnapifyCaptureComplete { .. } => capture_done.send(msg),
                _ => replies.send(msg),
            };
            None
        });
        self.inner.host_proc.spawn_stepped("ctl-dispatch", dispatch);
        Ok(ctl)
    }

    /// Wire the handle to offload process `pid` on `device`: the previous
    /// endpoint set (if any) closed, fresh data channels on `ports`, and
    /// the (buffer, size, old, new) RDMA address translations applied.
    fn attach(
        &self,
        device: usize,
        pid: u64,
        ports: [u16; 4],
        addr_table: &[(u64, u64, u64, u64)],
        ctl: ScifEndpoint,
    ) -> Result<(), CoiError> {
        self.close_endpoints(Some(&ctl));
        self.connect_data_channels(device, ports, ctl)?;
        *self.inner.device.lock() = device;
        *self.inner.pid.lock() = pid;
        let mut buffers = self.inner.buffers.lock();
        let mut max_id = 0;
        for (id, size, old, new) in addr_table {
            max_id = max_id.max(*id);
            match buffers.get(id) {
                Some(buf) => {
                    // Existing handle: apply the (old, new) translation.
                    let mut addr = buf.addr.lock();
                    debug_assert_eq!(addr.0, *old, "stale RDMA address in translation table");
                    *addr = RdmaAddr(*new);
                }
                None => {
                    // Restart path (a restored *host* process adopting the
                    // snapshot's buffers): recreate the handle entry.
                    buffers.insert(*id, CoiBuffer::new(*id, *size, *new));
                }
            }
        }
        drop(buffers);
        let mut next = self.inner.next_buf_id.lock();
        *next = (*next).max(max_id + 1);
        Ok(())
    }

    /// Connect run/cmd/log/event to `ports` on `device`, install the
    /// endpoint set, and start the host-side threads.
    fn connect_data_channels(
        &self,
        device: usize,
        ports: [u16; 4],
        ctl: ScifEndpoint,
    ) -> Result<(), CoiError> {
        let dev_node = NodeId::device(device);
        let mut eps = Vec::new();
        for p in ports {
            eps.push(self.inner.env.scif.connect(NodeId::HOST, dev_node, p)?);
        }
        let endpoints = Endpoints::new(&eps);
        // Result dispatcher (the receiving half of Fig 4's Pipe_Thread1).
        {
            let pending = Arc::clone(&self.inner.pending);
            let mut dispatch = serve_step(endpoints.run.clone(), RunMsg::decode, move |msg| {
                let (id, outcome) = match msg {
                    RunMsg::Result { id, ret } => (id, Ok(ret)),
                    RunMsg::Error { id, message } => (id, Err(message)),
                    // Requests never flow offload → host.
                    RunMsg::Request { .. } => return None,
                };
                let ch = pending.lock().remove(&id);
                if let Some(ch) = ch {
                    let _ = ch.send(outcome);
                }
                None
            });
            let (me, conn_id) = (self.clone(), endpoints.run.conn_id());
            self.inner.host_proc.spawn_stepped("run-dispatch", move || {
                let step = dispatch();
                if matches!(step, Step::Exit) {
                    me.run_channel_closed(conn_id);
                }
                step
            });
        }
        // Log / event servers (§4.1 case 3, host-server side).
        for (is_log, ep) in [
            (true, endpoints.log.clone()),
            (false, endpoints.event.clone()),
        ] {
            let me = self.clone();
            let name = if is_log { "log-server" } else { "event-server" };
            let server = serve_step(ep, StreamMsg::decode, move |msg| {
                match msg {
                    StreamMsg::Record(rec) if is_log => me.inner.logs.lock().push(rec),
                    StreamMsg::Record(rec) => me.inner.events.lock().push(rec),
                    StreamMsg::Shutdown => return Some(StreamMsg::ShutdownAck.encode()),
                    StreamMsg::ShutdownAck => {}
                }
                None
            });
            self.inner.host_proc.spawn_stepped(name, server);
        }
        *self.inner.eps.lock() = Some((endpoints, ctl));
        Ok(())
    }

    /// The run channel `conn_id` closed under its dispatcher. If it is
    /// still the installed one, the peer closed it; and if the host is not
    /// inside a lifecycle operation of its own (§4.1 case 1: a destroy, or
    /// a pause — whose swap-out ends in the process exiting), the offload
    /// process died on its own and no result will arrive: every pending
    /// run is failed (`RunHandle::wait` returns `Closed`). A deliberate
    /// detach takes the endpoint set before closing it, and like a
    /// swap-out leaves the pending runs to the restored process.
    fn run_channel_closed(&self, conn_id: u64) {
        let eps = self.inner.eps.lock();
        let installed = eps.as_ref().map(|(data, _)| data.run.conn_id()) == Some(conn_id);
        drop(eps);
        if !installed || self.inner.lifecycle.is_held() {
            return;
        }
        let mut orphans: Vec<_> = self.inner.pending.lock().drain().collect();
        orphans.sort_by_key(|(id, _)| *id);
        for (_, ch) in orphans {
            ch.close();
        }
    }

    /// One of the data channels, or `Closed` while the handle is detached.
    fn data_ep(&self, pick: fn(&Endpoints) -> &ScifEndpoint) -> Result<ScifEndpoint, CoiError> {
        let eps = self.inner.eps.lock();
        let ep = eps.as_ref().map(|(data, _)| pick(data).clone());
        ep.ok_or(CoiError::Closed)
    }

    fn ctl(&self) -> Result<ScifEndpoint, CoiError> {
        let eps = self.inner.eps.lock();
        eps.as_ref().map(|e| e.1.clone()).ok_or(CoiError::Closed)
    }

    // ------------------------------------------------------------------
    // Public COI API
    // ------------------------------------------------------------------

    /// The offload process's pid.
    pub fn pid(&self) -> u64 {
        *self.inner.pid.lock()
    }

    /// The device index the offload process currently runs on (changes
    /// after a migration).
    pub fn device(&self) -> usize {
        *self.inner.device.lock()
    }

    /// The host process that owns this handle.
    pub fn host_proc(&self) -> &SimProcess {
        &self.inner.host_proc
    }

    /// The device binary name.
    pub fn binary(&self) -> &str {
        &self.inner.binary
    }

    /// Size of the device binary image on the host fs (for the
    /// library-copy steps of pause and restore).
    pub fn binary_image_bytes(&self) -> u64 {
        self.inner.binary_image_bytes
    }

    /// The host file system (where snapshots live).
    pub fn host_fs(&self) -> phi_platform::SimFs {
        self.inner.env.server.host().fs().clone()
    }

    /// The platform parameters of the host this process runs on
    /// (hostname, link speeds, …).
    pub fn host_params(&self) -> phi_platform::PlatformParams {
        self.inner.env.server.params().clone()
    }

    /// Create a COI buffer of `size` bytes (`COIBufferCreate`).
    pub fn create_buffer(&self, size: u64) -> Result<Arc<CoiBuffer>, CoiError> {
        let id = {
            let mut n = self.inner.next_buf_id.lock();
            let id = *n;
            *n += 1;
            id
        };
        match self.cmd_call(CmdMsg::CreateBuffer { id, size })? {
            CmdMsg::BufferCreated {
                id: rid,
                addr,
                error,
            } => {
                if rid != id {
                    return Err(CoiError::Protocol("buffer id mismatch".into()));
                }
                if addr == 0 {
                    return Err(CoiError::OutOfMemory(error));
                }
                let buf = CoiBuffer::new(id, size, addr);
                self.inner.buffers.lock().insert(id, Arc::clone(&buf));
                Ok(buf)
            }
            other => Err(CoiError::Protocol(format!(
                "unexpected cmd reply {other:?}"
            ))),
        }
    }

    /// Destroy a COI buffer (`COIBufferDestroy`).
    pub fn destroy_buffer(&self, buf: &CoiBuffer) -> Result<(), CoiError> {
        self.cmd_call(CmdMsg::DestroyBuffer { id: buf.id })?;
        self.inner.buffers.lock().remove(&buf.id);
        Ok(())
    }

    /// One request/reply exchange on the cmd channel, inside the §4.1
    /// case 3 client critical region.
    fn cmd_call(&self, msg: CmdMsg) -> Result<CmdMsg, CoiError> {
        self.inner.cmd_lock.with(|| self.cmd_exchange(msg))
    }

    /// The exchange itself; the caller holds `cmd_lock`, and took it
    /// *before* the endpoint is resolved here: a call that blocks across
    /// a swap must use the post-restore channel.
    fn cmd_exchange(&self, msg: CmdMsg) -> Result<CmdMsg, CoiError> {
        let cmd = self.data_ep(|e| &e.cmd)?;
        self.inner.env.config.charge_hook();
        cmd.send(msg.encode())?;
        Ok(recv_msg(&cmd, CmdMsg::decode)?)
    }

    /// Write `data` into a buffer over RDMA (`COIBufferWrite` — §4.1
    /// case 2 lock around the `scif_writeto` call site).
    pub fn buffer_write(&self, buf: &CoiBuffer, data: Payload) -> Result<(), CoiError> {
        assert_eq!(data.len(), buf.size, "COI buffer writes are whole-buffer");
        let env = &self.inner.env;
        self.inner.rdma.with(|| {
            env.config.charge_hook();
            Ok(env
                .scif
                .rdma_write_from(NodeId::HOST, buf.addr(), 0, data)?)
        })
    }

    /// Read a buffer's contents over RDMA (`COIBufferRead`).
    pub fn buffer_read(&self, buf: &CoiBuffer) -> Result<Payload, CoiError> {
        let env = &self.inner.env;
        self.inner.rdma.with(|| {
            env.config.charge_hook();
            Ok(env
                .scif
                .rdma_read_from(NodeId::HOST, buf.addr(), 0, buf.size)?)
        })
    }

    /// Launch an offload function asynchronously (`COIPipelineRunFunction`;
    /// Fig 4 step 1 — a blocking send inside a critical region under
    /// Snapify).
    pub fn run(
        &self,
        function: &str,
        args: Vec<u8>,
        buffers: &[&CoiBuffer],
    ) -> Result<RunHandle, CoiError> {
        let id = {
            let mut n = self.inner.next_run_id.lock();
            let id = *n;
            *n += 1;
            id
        };
        let ch = SimChannel::unbounded(format!("run-result-{id}"));
        self.inner.pending.lock().insert(id, ch.clone());
        let msg = RunMsg::Request {
            id,
            function: function.to_string(),
            args,
            buffers: buffers.iter().map(|b| b.id).collect(),
        };
        // The case-4 lock is taken before the endpoint is resolved (see
        // cmd_exchange).
        let sent = self.inner.run_send.with(|| {
            let run = self.data_ep(|e| &e.run)?;
            self.inner.env.config.charge_hook();
            run.send(msg.encode()).map_err(|_| CoiError::Closed)
        });
        if let Err(e) = sent {
            self.inner.pending.lock().remove(&id);
            return Err(e);
        }
        Ok(RunHandle { id, rx: ch })
    }

    /// Launch an offload function and wait for its return value.
    pub fn run_sync(
        &self,
        function: &str,
        args: Vec<u8>,
        buffers: &[&CoiBuffer],
    ) -> Result<Vec<u8>, CoiError> {
        self.run(function, args, buffers)?.wait()
    }

    /// Host-collected COI log records.
    pub fn logs(&self) -> Vec<Vec<u8>> {
        self.inner.logs.lock().clone()
    }

    /// Host-collected COI event records.
    pub fn events(&self) -> Vec<Vec<u8>> {
        self.inner.events.lock().clone()
    }

    /// Ping the offload process over the cmd channel.
    pub fn ping(&self) -> Result<(), CoiError> {
        match self.cmd_call(CmdMsg::Ping)? {
            CmdMsg::Pong => Ok(()),
            other => Err(CoiError::Protocol(format!(
                "unexpected ping reply {other:?}"
            ))),
        }
    }

    /// Destroy the offload process (`COIProcessDestroy`; §4.1 case 1
    /// critical region).
    pub fn destroy(&self) -> Result<(), CoiError> {
        self.inner.lifecycle.with(|| {
            match self.ctl_call(None, CtlMsg::DestroyProcess { pid: self.pid() })? {
                (CtlMsg::DestroyAck, _) => {
                    self.close_endpoints(None);
                    Ok(())
                }
                (reply, _) => Err(CoiError::Protocol(format!(
                    "unexpected destroy reply {reply:?}"
                ))),
            }
        })
    }

    /// Close the current endpoint set — except the ctl connection when it
    /// is `keep` (a freshly-opened ctl to the restore target, which may
    /// be the same daemon).
    fn close_endpoints(&self, keep: Option<&ScifEndpoint>) {
        if let Some((data, ctl)) = self.inner.eps.lock().take() {
            data.close();
            if keep.map(ScifEndpoint::conn_id) != Some(ctl.conn_id()) {
                ctl.close();
            }
        }
    }

    // ------------------------------------------------------------------
    // Snapify plumbing (used by the `snapify` crate's API functions)
    // ------------------------------------------------------------------

    /// Drain the host side (§4.1): acquire the lifecycle (case 1), RDMA
    /// (case 2), cmd-client (case 3, with shutdown marker), and
    /// run-request (case 4) locks, then wait for the outbound run channel
    /// to empty. Held until [`CoiProcessHandle::snapify_release_host`] —
    /// unless the drain fails, which leaves every lock free.
    pub fn snapify_drain_host(&self) -> Result<(), CoiError> {
        let i = &self.inner;
        i.lifecycle.acquire();
        i.rdma.acquire();
        // Case 3 (host is the client of the cmd channel): lock, then send
        // the shutdown marker and wait for the server's ack.
        i.cmd_lock.acquire();
        let marker = self
            .cmd_exchange(CmdMsg::Shutdown)
            .and_then(|ack| match ack {
                CmdMsg::ShutdownAck => self.data_ep(|e| &e.run),
                other => Err(CoiError::Protocol(format!(
                    "unexpected shutdown reply {other:?}"
                ))),
            });
        let run = match marker {
            Ok(run) => run,
            Err(e) => {
                // The offload process is gone or not answering: nothing
                // was paused, so nothing may stay locked.
                i.cmd_lock.release();
                i.rdma.release();
                i.lifecycle.release();
                return Err(e);
            }
        };
        // Case 4: no further run-function requests.
        i.run_send.acquire();
        while run.outbound_pending() > 0 {
            simkernel::sleep(i.env.config.poll_interval);
        }
        Ok(())
    }

    /// Acquire every host-side drain lock without touching channels.
    /// Used on a freshly-detached handle after a host restart, where the
    /// checkpoint was taken inside the paused region: the locks are
    /// conceptually held until the post-restore resume.
    pub fn snapify_hold_host_locks(&self) {
        self.inner.lifecycle.acquire();
        self.inner.rdma.acquire();
        self.inner.cmd_lock.acquire();
        self.inner.run_send.acquire();
    }

    /// Release every host-side drain lock (the host half of
    /// `snapify_resume`).
    pub fn snapify_release_host(&self) {
        self.inner.run_send.release_if_held();
        self.inner.cmd_lock.release_if_held();
        self.inner.rdma.release_if_held();
        self.inner.lifecycle.release_if_held();
    }

    /// Send a Snapify control message to the daemon without waiting for
    /// an answer (a capture completes asynchronously).
    pub fn snapify_send_ctl(&self, msg: CtlMsg) -> Result<(), CoiError> {
        Ok(self.ctl()?.send(msg.encode())?)
    }

    /// Send a Snapify service request to the daemon and await its reply.
    pub fn snapify_call(&self, msg: CtlMsg) -> Result<CtlMsg, CoiError> {
        Ok(self.ctl_call(None, msg)?.0)
    }

    /// Await an asynchronous capture-completion notification.
    pub fn snapify_await_capture(&self) -> Result<CtlMsg, CoiError> {
        self.inner.capture_done.recv().map_err(|_| CoiError::Closed)
    }

    /// After a capture with `terminate` (swap-out): tear down the host
    /// side of the now-dead connections.
    pub fn snapify_detach(&self) {
        self.close_endpoints(None);
    }

    /// Ask `device`'s daemon to restore the offload process from `path`
    /// and rewire the handle to it: fresh ctl and data channels, new pid,
    /// RDMA addresses translated. `Ok(Err(reason))` is the daemon
    /// refusing (bad snapshot, device out of memory, …); the handle then
    /// stays detached.
    pub fn snapify_restore(
        &self,
        device: usize,
        path: &str,
    ) -> Result<Result<RestoreBreakdown, String>, CoiError> {
        let request = CtlMsg::SnapifyRestore {
            path: path.to_string(),
            host_pid: self.inner.host_proc.pid().0,
        };
        match self.ctl_call(Some(device), request)? {
            (CtlMsg::SnapifyRestoreReply { pid: 0, error, .. }, _) => Ok(Err(error)),
            (
                CtlMsg::SnapifyRestoreReply {
                    pid,
                    ports,
                    addr_table,
                    breakdown,
                    ..
                },
                ctl,
            ) => {
                self.attach(device, pid, ports, &addr_table, ctl)?;
                Ok(Ok(breakdown))
            }
            (reply, _) => Err(CoiError::Protocol(format!("unexpected reply {reply:?}"))),
        }
    }

    /// Buffer handles, sorted by id (used after a restart to re-adopt
    /// the restored process's buffers).
    pub fn buffers(&self) -> Vec<Arc<CoiBuffer>> {
        self.inner.buffers.lock().values().cloned().collect()
    }

    /// The run endpoint's outbound in-flight count (drain diagnostics).
    pub fn run_outbound_pending(&self) -> usize {
        self.inner
            .eps
            .lock()
            .as_ref()
            .map_or(0, |(data, _)| data.run.outbound_pending())
    }
}
