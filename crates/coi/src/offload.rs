//! The offload process runtime: the device side of COI, with the Snapify
//! modifications.
//!
//! One [`OffloadRuntime`] drives one offload process (`offload_proc` in
//! Fig 1). Its threads mirror the real COI process:
//!
//! * a **run receiver** and an **executor** implementing the offload
//!   pipeline (Fig 4's `Pipe_Thread2`);
//! * a **command server** (buffer management — SCIF use case 3, server
//!   side);
//! * **log and event clients** shipping records to host-side server
//!   threads (use case 3, client side);
//! * a transient **pipe handler** spawned by the Snapify signal, which
//!   runs the offload half of pause / capture / resume (Fig 3).
//!
//! The executor and the pipe handler block mid-protocol and run on OS
//! threads; the others never block between one wait and the next and are
//! stepped services (DESIGN §5).
//!
//! # Snapshot-ability
//!
//! Everything the executor may be doing is recorded in `PipelineState`
//! *before* any blocking operation: queued requests live in the state's
//! queue (not in a channel), an executing run carries its step cursor, and
//! a finished-but-unsent result is `ResultPending`. The capture path
//! therefore only needs to (a) park the executor at a step boundary and
//! (b) serialize the state — every in-flight intention is recoverable.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use phi_platform::{NodeId, Payload, SimNode};
use scif_sim::{RdmaAddr, ScifEndpoint, SendOp};
use simkernel::obs;
use simkernel::{Polled, SimChannel, SimCondvar, SimMutex, SimMutexGuard, Step, Wait};
use simproc::{signum, Signals, SimProcess};

use crate::binary::{DeviceBinary, OffloadCtx, StepOutcome};
use crate::locks::DrainLock;
use crate::msgs::{recv_msg, serve_step, CmdMsg, Endpoints, PipeMsg, RunMsg, StreamMsg};
use crate::snapfile::{ActiveRun, RunPhase, RunRequest, RuntimeState, StoreManifest};
use crate::storage::SnapshotStorage;
use crate::world::CoiEnv;
use crate::CoiError;

/// Chunk size used when streaming local stores and snapshots.
pub(crate) const IO_CHUNK: u64 = 4 << 20;

/// Region-name prefix of COI buffer backing stores (excluded from the
/// BLCR process image; saved separately as the local store).
pub(crate) const BUF_REGION_PREFIX: &str = "coi_buf_";

fn buf_region(id: u64) -> String {
    format!("{BUF_REGION_PREFIX}{id}")
}

/// RDMA address translation entries: `(buffer id, size, old, new)`.
pub(crate) type AddrTable = Vec<(u64, u64, u64, u64)>;

/// Timing breakdown of an offload-process restore (§4.3), in nanoseconds
/// of virtual time. Carried back to the host in the restore reply so
/// Fig 10(c)'s stacked bars can be reported per phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestoreBreakdown {
    /// Copying the runtime libraries to the coprocessor.
    pub library_copy_ns: u64,
    /// Copying the local store (COI buffer files) to the coprocessor.
    pub store_copy_ns: u64,
    /// BLCR restart of the process image.
    pub blcr_restart_ns: u64,
    /// Buffer re-mapping + RDMA re-registration.
    pub reregistration_ns: u64,
}

/// The daemon ↔ offload-process pipe (a pair of local channels).
#[derive(Clone)]
pub(crate) struct SnapifyPipe {
    /// Daemon → offload direction.
    pub(crate) to_offload: SimChannel<PipeMsg>,
    /// Offload → daemon direction.
    pub(crate) to_daemon: SimChannel<PipeMsg>,
}

impl SnapifyPipe {
    /// Create a pipe pair.
    pub(crate) fn new(pid: u64) -> SnapifyPipe {
        SnapifyPipe {
            to_offload: SimChannel::unbounded(format!("pipe-d2o-{pid}")),
            to_daemon: SimChannel::unbounded(format!("pipe-o2d-{pid}")),
        }
    }
}

/// The snapshot-able pipeline state.
#[derive(Default)]
struct PipelineState {
    queue: VecDeque<RunRequest>,
    active: Option<ActiveRun>,
    /// Requests moved from the run channel into `queue` (matched against
    /// the channel's receive counter to prove nothing is in flight).
    enqueued: u64,
    /// Capture barrier: the executor parks at the next step boundary.
    barrier: bool,
    /// Whether the executor is parked at the barrier.
    parked: bool,
}

struct BufMeta {
    size: u64,
    addr: RdmaAddr,
}

struct Inner {
    env: Arc<CoiEnv>,
    proc: SimProcess,
    binary: Arc<DeviceBinary>,
    host_pid: u64,

    pstate: SimMutex<PipelineState>,
    pcv: SimCondvar,

    eps: SimMutex<Option<Endpoints>>,
    log_q: SimChannel<Vec<u8>>,
    event_q: SimChannel<Vec<u8>>,

    log_lock: DrainLock,
    event_lock: DrainLock,
    result_lock: DrainLock,

    buffers: SimMutex<BTreeMap<u64, BufMeta>>,
    terminated: SimMutex<bool>,
    signals: Signals,
    pipe: SimMutex<Option<SnapifyPipe>>,
}

/// Handle to an offload process runtime. Cheap to clone.
#[derive(Clone)]
pub struct OffloadRuntime {
    inner: Arc<Inner>,
}

impl OffloadRuntime {
    /// Create a fresh offload process for `host_pid` on `node`, running
    /// `binary`. Returns the runtime and the four SCIF ports
    /// (run/cmd/log/event) the host must connect to.
    pub(crate) fn launch(
        env: &Arc<CoiEnv>,
        node: &SimNode,
        binary: Arc<DeviceBinary>,
        host_pid: u64,
    ) -> Result<(OffloadRuntime, [u16; 4]), CoiError> {
        let proc = SimProcess::new(env.pids.alloc(), format!("offload:{}", binary.name()), node);
        proc.memory()
            .map_region("base", Payload::synthetic(0xBA5E, binary.resident_bytes))?;
        let pstate = PipelineState::default();
        let rt = Self::build(env, proc, binary, host_pid, pstate, BTreeMap::new());
        let ports = rt.open_ports();
        Ok((rt, ports))
    }

    fn build(
        env: &Arc<CoiEnv>,
        proc: SimProcess,
        binary: Arc<DeviceBinary>,
        host_pid: u64,
        pstate: PipelineState,
        buffers: BTreeMap<u64, BufMeta>,
    ) -> OffloadRuntime {
        let pid = proc.pid();
        let signal_latency = env.server.params().signal_latency;
        let rt = OffloadRuntime {
            inner: Arc::new(Inner {
                env: Arc::clone(env),
                binary,
                host_pid,
                pstate: SimMutex::new(format!("pipeline {pid}"), pstate),
                pcv: SimCondvar::new(format!("pipeline {pid}")),
                eps: SimMutex::new(format!("eps {pid}"), None),
                log_q: SimChannel::unbounded(format!("logq {pid}")),
                event_q: SimChannel::unbounded(format!("eventq {pid}")),
                log_lock: DrainLock::new(format!("log-client {pid}")),
                event_lock: DrainLock::new(format!("event-client {pid}")),
                result_lock: DrainLock::new(format!("result-send {pid}")),
                buffers: SimMutex::new(format!("buffers {pid}"), buffers),
                terminated: SimMutex::new(format!("terminated {pid}"), false),
                signals: Signals::new(&format!("{pid}"), signal_latency),
                pipe: SimMutex::new(format!("pipe {pid}"), None),
                proc,
            }),
        };
        // The Snapify signal spawns the pipe handler (Fig 3 step 2). The
        // table lives in the runtime, so the handler holds it weakly: a
        // strong clone is a cycle, and the process outlives its termination.
        let weak = Arc::downgrade(&rt.inner);
        rt.inner.signals.register(signum::SIGSNAPIFY, move || {
            if let Some(inner) = weak.upgrade() {
                OffloadRuntime { inner }.spawn_pipe_handler(false);
            }
        });
        rt
    }

    /// Bind four ephemeral ports and start the runtime's threads once the
    /// host has connected to each.
    fn open_ports(&self) -> [u16; 4] {
        let scif = &self.inner.env.scif;
        let node = self.node().id();
        let ports = [
            scif.ephemeral_port(),
            scif.ephemeral_port(),
            scif.ephemeral_port(),
            scif.ephemeral_port(),
        ];
        let listeners: Vec<_> = ports.iter().map(|p| scif.listen(node, *p)).collect();
        let rt = self.clone();
        let mut accepted = Vec::new();
        self.inner.proc.spawn_stepped("acceptor", move || {
            while accepted.len() < listeners.len() {
                match listeners[accepted.len()].poll_accept() {
                    Polled::Wait(w) => return Step::Wait(w),
                    Polled::Ready(Err(_)) => return Step::Exit,
                    Polled::Ready(Ok(ep)) => accepted.push(ep),
                }
            }
            for l in &listeners {
                l.close();
            }
            let eps = Endpoints::new(&accepted);
            *rt.inner.eps.lock() = Some(eps.clone());
            rt.start_threads(&eps);
            Step::Exit
        });
        ports
    }

    fn start_threads(&self, eps: &Endpoints) {
        let proc = &self.inner.proc;
        proc.spawn_stepped("run-recv", self.run_receiver(eps.run.clone()));
        let rt = self.clone();
        proc.spawn_service("executor", move || rt.executor());
        proc.spawn_stepped("cmd-server", self.cmd_server(eps.cmd.clone()));
        proc.spawn_stepped("log-client", self.stream_client(true, eps.log.clone()));
        proc.spawn_stepped("event-client", self.stream_client(false, eps.event.clone()));
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The offload process.
    pub fn proc(&self) -> &SimProcess {
        &self.inner.proc
    }

    /// The node the process runs on.
    pub(crate) fn node(&self) -> &SimNode {
        self.inner.proc.node()
    }

    /// The process's signal table (the daemon signals through this).
    pub(crate) fn signals(&self) -> &Signals {
        &self.inner.signals
    }

    /// Install the daemon's pipe (before signalling).
    pub(crate) fn install_pipe(&self, pipe: SnapifyPipe) {
        *self.inner.pipe.lock() = Some(pipe);
    }

    /// Whether the runtime has been terminated.
    pub fn is_terminated(&self) -> bool {
        *self.inner.terminated.lock()
    }

    /// Total bytes of local store (all COI buffers).
    pub fn local_store_bytes(&self) -> u64 {
        self.inner.buffers.lock().values().map(|b| b.size).sum()
    }

    /// True if every SCIF channel of this process is empty in both
    /// directions *and* every received run request is recorded in the
    /// pipeline state — the consistency predicate of §3.
    pub fn channels_drained(&self) -> bool {
        let eps = self.inner.eps.lock();
        let Some(eps) = eps.as_ref() else {
            return true;
        };
        let st = self.inner.pstate.lock();
        let (_, received) = eps.run.inbound_stats();
        eps.run.inbound_pending() == 0
            && eps.run.outbound_pending() == 0
            && eps.cmd.inbound_pending() == 0
            && eps.cmd.outbound_pending() == 0
            && eps.log.inbound_pending() == 0
            && eps.log.outbound_pending() == 0
            && eps.event.inbound_pending() == 0
            && eps.event.outbound_pending() == 0
            && received == st.enqueued
    }

    /// Digest over the local store (buffer contents, by id).
    pub fn local_store_digest(&self) -> u64 {
        let bufs = self.inner.buffers.lock();
        let mut combined = Payload::empty();
        for id in bufs.keys() {
            combined.append(Payload::bytes(id.to_le_bytes().to_vec()));
            combined.append(self.buffer_payload(*id));
        }
        combined.digest()
    }

    // ------------------------------------------------------------------
    // Buffer plumbing (used by OffloadCtx and the cmd server)
    // ------------------------------------------------------------------

    pub(crate) fn buffer_payload(&self, id: u64) -> Payload {
        self.inner
            .proc
            .memory()
            .region(&buf_region(id))
            .expect("buffer table entry implies a backing region")
    }

    pub(crate) fn buffer_store(&self, id: u64, data: Payload) {
        let expected = self.inner.buffers.lock().get(&id).map(|b| b.size);
        let expected = expected.unwrap_or_else(|| panic!("no buffer {id}"));
        assert_eq!(data.len(), expected, "buffer {id} write must match size");
        self.inner
            .proc
            .memory()
            .update_region(&buf_region(id), data)
            .expect("same-size buffer update cannot OOM");
    }

    pub(crate) fn enqueue_log(&self, rec: Vec<u8>) {
        let _ = self.inner.log_q.try_send(rec);
    }

    fn enqueue_event(&self, rec: Vec<u8>) {
        let _ = self.inner.event_q.try_send(rec);
    }

    // ------------------------------------------------------------------
    // Worker threads
    // ------------------------------------------------------------------

    fn run_receiver(&self, ep: ScifEndpoint) -> impl FnMut() -> Step + Send + 'static {
        let rt = self.clone();
        serve_step(ep, RunMsg::decode, move |msg| {
            // Results and errors never flow host → offload.
            if let RunMsg::Request {
                id,
                function,
                args,
                buffers,
            } = msg
            {
                let mut st = rt.inner.pstate.lock();
                st.queue.push_back(RunRequest {
                    id,
                    function,
                    args,
                    buffers,
                });
                st.enqueued += 1;
                drop(st);
                rt.inner.pcv.notify_all();
            }
            None
        })
    }

    /// Park the executor at the capture barrier until resume lowers it
    /// (or the process terminates — callers check).
    fn park_at_barrier<'a>(
        &self,
        mut st: SimMutexGuard<'a, PipelineState>,
    ) -> SimMutexGuard<'a, PipelineState> {
        st.parked = true;
        self.inner.pcv.notify_all();
        while st.barrier && !self.is_terminated() {
            st = self.inner.pcv.wait(st);
        }
        st.parked = false;
        st
    }

    fn executor(&self) {
        loop {
            // Acquire work (or park at the barrier).
            let work = {
                let mut st = self.inner.pstate.lock();
                loop {
                    if self.is_terminated() {
                        return;
                    }
                    if st.barrier {
                        st = self.park_at_barrier(st);
                        continue;
                    }
                    if st.active.is_some() {
                        break;
                    }
                    if let Some(req) = st.queue.pop_front() {
                        st.active = Some(ActiveRun {
                            req,
                            phase: RunPhase::Executing(0),
                        });
                        break;
                    }
                    st = self.inner.pcv.wait(st);
                }
                st.active.clone().unwrap()
            };
            match work.phase {
                RunPhase::Executing(cursor) => self.execute(work.req, cursor),
                RunPhase::ResultPending(ret) => self.send_result(work.req.id, ret),
            }
        }
    }

    fn execute(&self, req: RunRequest, start_cursor: u64) {
        let func = self.inner.binary.get(&req.function);
        let Some(func) = func else {
            let mut st = self.inner.pstate.lock();
            if let Some(a) = st.active.as_mut() {
                a.phase =
                    RunPhase::ResultPending(Err(format!("no such function '{}'", req.function)));
            }
            drop(st);
            self.inner.pcv.notify_all();
            return;
        };
        let mut cursor = start_cursor;
        loop {
            // Step boundary: honour the capture barrier and termination.
            {
                let st = self.inner.pstate.lock();
                if self.is_terminated() {
                    return;
                }
                if st.barrier {
                    let _st = self.park_at_barrier(st);
                    if self.is_terminated() {
                        return;
                    }
                }
            }
            let mut ctx = OffloadCtx {
                rt: self,
                args: req.args.clone(),
                buffers: req.buffers.clone(),
            };
            match func.step(&mut ctx, cursor) {
                StepOutcome::Yield => {
                    cursor += 1;
                    let mut st = self.inner.pstate.lock();
                    if let Some(a) = st.active.as_mut() {
                        a.phase = RunPhase::Executing(cursor);
                    }
                }
                StepOutcome::Done(ret) => {
                    let mut st = self.inner.pstate.lock();
                    if let Some(a) = st.active.as_mut() {
                        a.phase = RunPhase::ResultPending(Ok(ret));
                    }
                    drop(st);
                    self.inner.pcv.notify_all();
                    return;
                }
            }
        }
    }

    fn send_result(&self, id: u64, ret: Result<Vec<u8>, String>) {
        // §4.1 case 4: the result send is blocking and inside a critical
        // region; pause holds this lock until resume.
        if !self
            .inner
            .result_lock
            .acquire_unless(self.inner.env.config.poll_interval, || self.is_terminated())
        {
            return;
        }
        self.inner.env.config.charge_hook();
        let ep = self.inner.eps.lock().as_ref().map(|e| e.run.clone());
        if let Some(ep) = ep {
            let msg = match &ret {
                Ok(r) => RunMsg::Result { id, ret: r.clone() },
                Err(m) => RunMsg::Error {
                    id,
                    message: m.clone(),
                },
            };
            let _ = ep.send(msg.encode());
        }
        self.inner.result_lock.release();
        {
            let mut st = self.inner.pstate.lock();
            st.active = None;
        }
        self.inner.pcv.notify_all();
        self.enqueue_event(format!("run:{id}:done").into_bytes());
        self.enqueue_log(format!("offload function {id} completed").into_bytes());
    }

    fn cmd_server(&self, ep: ScifEndpoint) -> impl FnMut() -> Step + Send + 'static {
        let rt = self.clone();
        serve_step(ep, CmdMsg::decode, move |msg| {
            Some(rt.handle_cmd(msg)?.encode())
        })
    }

    /// Serve one command; `None` for a message that is no command.
    fn handle_cmd(&self, msg: CmdMsg) -> Option<CmdMsg> {
        let scif = &self.inner.env.scif;
        let mem = self.inner.proc.memory();
        Some(match msg {
            CmdMsg::Ping => CmdMsg::Pong,
            CmdMsg::CreateBuffer { id, size } => {
                match mem.map_region(&buf_region(id), Payload::synthetic(0, size)) {
                    Ok(()) => {
                        let addr = scif.register(&self.inner.proc, &buf_region(id));
                        self.inner.buffers.lock().insert(id, BufMeta { size, addr });
                        self.enqueue_event(format!("buffer:{id}:created").into_bytes());
                        CmdMsg::BufferCreated {
                            id,
                            addr: addr.0,
                            error: String::new(),
                        }
                    }
                    Err(oom) => CmdMsg::BufferCreated {
                        id,
                        addr: 0,
                        error: oom.to_string(),
                    },
                }
            }
            CmdMsg::DestroyBuffer { id } => {
                if let Some(meta) = self.inner.buffers.lock().remove(&id) {
                    scif.unregister(meta.addr);
                    mem.unmap_region(&buf_region(id))
                        .expect("buffer table entry implies a backing region");
                    self.enqueue_event(format!("buffer:{id}:destroyed").into_bytes());
                }
                CmdMsg::BufferDestroyed { id }
            }
            // §4.1 case 3 marker: ack and go quiet (the client lock
            // guarantees nothing follows until resume).
            CmdMsg::Shutdown => CmdMsg::ShutdownAck,
            // Replies never arrive at the server.
            _ => return None,
        })
    }

    /// Log (`is_log`) or event client: drains the local queue into the
    /// SCIF channel under the channel's client lock. One record at a time
    /// goes queue → lock (polled, so a terminated process gives up) →
    /// hook charge → send → unlock.
    fn stream_client(&self, is_log: bool, ep: ScifEndpoint) -> impl FnMut() -> Step + Send {
        enum At {
            Queue,
            Lock(Vec<u8>),
            Charged(Vec<u8>),
            Sending(SendOp),
        }
        let rt = self.clone();
        let mut at = At::Queue;
        move || {
            let i = &rt.inner;
            let (q, lock) = if is_log {
                (&i.log_q, &i.log_lock)
            } else {
                (&i.event_q, &i.event_lock)
            };
            // Only a turn that begins at the lock does nothing but look.
            let (looked_only, every) = (matches!(at, At::Lock(_)), i.env.config.poll_interval);
            loop {
                match &mut at {
                    At::Queue => match q.poll_recv() {
                        Polled::Wait(w) => return Step::Wait(w),
                        Polled::Ready(Err(_)) => return Step::Exit,
                        Polled::Ready(Ok(rec)) => at = At::Lock(rec),
                    },
                    At::Lock(rec) if lock.try_acquire() => {
                        at = At::Charged(std::mem::take(rec));
                        if let Some(cost) = i.env.config.hook_charge() {
                            return Step::Wait(Wait::sleep(cost));
                        }
                    }
                    At::Lock(_) if rt.is_terminated() => return Step::Exit,
                    At::Lock(_) if looked_only => return Step::Idle { every, until: None },
                    At::Lock(_) => return Step::Wait(Wait::sleep(every)),
                    At::Charged(rec) => {
                        let record = StreamMsg::Record(std::mem::take(rec));
                        at = At::Sending(ep.begin_send(record.encode()));
                    }
                    At::Sending(op) => match ep.poll_send(op) {
                        Polled::Wait(w) => return Step::Wait(w),
                        Polled::Ready(_) => {
                            lock.release();
                            at = At::Queue;
                        }
                    },
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Snapify: the offload half of pause / capture / resume (Fig 3)
    // ------------------------------------------------------------------

    /// Start the pipe handler on the installed pipe: after the Snapify
    /// signal (Fig 3 step 2), or — `restored` — directly by the daemon
    /// for a process that was born paused by a restore.
    pub(crate) fn spawn_pipe_handler(&self, restored: bool) {
        let rt = self.clone();
        self.inner
            .proc
            .spawn_service("snapify-pipe", move || rt.pipe_handler(restored));
    }

    fn pipe_handler(&self, restored: bool) {
        let pipe = match self.inner.pipe.lock().clone() {
            Some(p) => p,
            None => return,
        };
        // Fig 3 step 2: acknowledge the daemon's handshake. A restore has
        // none: the handler is entered past it.
        if !restored {
            let _ = pipe.to_daemon.send(PipeMsg::PauseAck);
        }
        loop {
            match pipe.to_offload.recv() {
                Ok(PipeMsg::ResumeReq) => {
                    // Idempotent: a restored process holds no pause locks.
                    self.release_pause_locks();
                    {
                        let mut st = self.inner.pstate.lock();
                        st.barrier = false;
                    }
                    self.inner.pcv.notify_all();
                    let _ = pipe.to_daemon.send(PipeMsg::ResumeAck);
                    *self.inner.pipe.lock() = None;
                    return;
                }
                // §4.3: "the offload process, though restored, is not
                // fully active until snapify_resume" — it answers nothing
                // else (the daemon's watchdog surfaces such a request).
                Ok(_) if restored => continue,
                Ok(PipeMsg::PauseReq { path }) => {
                    let ok = self.do_pause(&path);
                    let _ = pipe.to_daemon.send(PipeMsg::PauseComplete { ok });
                }
                Ok(PipeMsg::CaptureReq { path, terminate }) => {
                    let result = self.do_capture(&path);
                    let (ok, bytes) = match result {
                        Ok(b) => (true, b),
                        Err(_) => (false, 0),
                    };
                    let _ = pipe.to_daemon.send(PipeMsg::CaptureComplete {
                        ok,
                        snapshot_bytes: bytes,
                    });
                    if terminate && ok {
                        self.release_pause_locks();
                        self.terminate();
                        return;
                    }
                }
                Ok(_) | Err(_) => return,
            }
        }
    }

    /// Drain the offload side: quiesce the stream clients (case 3), block
    /// result sends and wait for the pipeline channels to empty (case 4),
    /// then save the local store to the host snapshot directory.
    fn do_pause(&self, path: &str) -> bool {
        let _span = obs::span!("coi.pause", path = path);
        let Some(eps) = self.inner.eps.lock().clone() else {
            return false;
        };
        let config = &self.inner.env.config;
        // Case 3, offload-client channels: lock out the clients and send
        // the shutdown marker; the host-side server acks when it has seen
        // it, proving the channel carries nothing after the marker.
        let drain_span = obs::span!("coi.pause.drain");
        for (lock, ep) in [
            (&self.inner.log_lock, &eps.log),
            (&self.inner.event_lock, &eps.event),
        ] {
            lock.acquire();
            config.charge_hook();
            if ep.send(StreamMsg::Shutdown.encode()).is_err()
                || recv_msg(ep, StreamMsg::decode) != Ok(StreamMsg::ShutdownAck)
            {
                return false;
            }
        }
        // Case 4: no result may be sent until resume.
        self.inner.result_lock.acquire();
        // Wait until every run request the host sent is recorded in the
        // pipeline state (channel empty + receiver idle).
        loop {
            let (_, received) = eps.run.inbound_stats();
            let enq = self.inner.pstate.lock().enqueued;
            if eps.run.inbound_pending() == 0 && received == enq {
                break;
            }
            simkernel::sleep(config.poll_interval);
        }
        // Wait until previously-sent results have landed at the host.
        while eps.run.outbound_pending() > 0 {
            simkernel::sleep(config.poll_interval);
        }
        drop(drain_span);
        // Park the executor at a step boundary before touching the local
        // store: otherwise a running offload function could keep mutating
        // COI buffers after their contents were saved, making the local
        // store inconsistent with the later process snapshot. The barrier
        // stays up until resume ("resume the ... partially-blocked
        // execution", §4.2).
        self.park_executor();
        // Save the local store "on the fly" to the host (§4.1; the bars
        // labelled Pause in Fig 10 are dominated by this for SS/SG).
        let _save = obs::span!("coi.pause.save_store");
        self.save_local_store(path).is_ok()
    }

    fn save_local_store(&self, path: &str) -> Result<(), CoiError> {
        let manifest = StoreManifest {
            binary: self.inner.binary.name().to_string(),
            host_pid: self.inner.host_pid,
            buffers: self.buffer_table(),
        };
        let storage = &self.inner.env.storage;
        let node = self.node().id();
        let mut sink = storage.sink(node, &format!("{path}/local_store/manifest"))?;
        sink.write(Payload::bytes(manifest.encode()))?;
        sink.close()?;
        let mem = self.inner.proc.memory();
        let mut clean_bytes = 0u64;
        let mut dirty_bytes = 0u64;
        for (id, _, _) in &manifest.buffers {
            let region = buf_region(*id);
            let content = self.buffer_payload(*id);
            let digest = content.digest();
            let len = content.len();
            let dirty = mem.region_is_dirty(&region).unwrap_or(true);
            let mut sink = storage.sink(node, &format!("{path}/local_store/buf_{id}"))?;
            // O(dirty): an untouched buffer whose prior snapshot the
            // store can still replay is never read or streamed again —
            // the sink rebuilds it from the previous capture's chunks.
            let cached = !dirty && sink.write_cached_record(&region, digest, len)?;
            if cached {
                clean_bytes += len;
            } else {
                sink.begin_record(&region, digest, len);
                for chunk in content.chunks(IO_CHUNK) {
                    sink.write(chunk)?;
                }
                dirty_bytes += len;
            }
            sink.close()?;
            let _ = mem.mark_region_captured(&region);
        }
        obs::counter_add("snapify.capture.clean_bytes", clean_bytes);
        obs::counter_add("snapify.capture.dirty_bytes", dirty_bytes);
        Ok(())
    }

    /// `(id, size, RDMA address)` of every COI buffer, by id.
    fn buffer_table(&self) -> Vec<(u64, u64, u64)> {
        let bufs = self.inner.buffers.lock();
        bufs.iter().map(|(id, m)| (*id, m.size, m.addr.0)).collect()
    }

    /// Raise the capture barrier and wait until the executor is parked at
    /// a step boundary (or is blocked with its state fully recorded as
    /// `ResultPending`).
    fn park_executor(&self) {
        let mut st = self.inner.pstate.lock();
        st.barrier = true;
        self.inner.pcv.notify_all();
        while !st.parked
            && matches!(
                st.active.as_ref().map(|a| &a.phase),
                Some(RunPhase::Executing(_))
            )
        {
            st = self.inner.pcv.wait(st);
        }
    }

    /// Capture the device snapshot at a safe point. The executor is
    /// already parked (the pause raised the barrier); the barrier stays up
    /// until resume.
    fn do_capture(&self, path: &str) -> Result<u64, CoiError> {
        let _span = obs::span!("coi.capture", path = path);
        self.park_executor();
        let runtime_state = self.runtime_state_blob();
        // The snapshot transfer proper: streaming the BLCR process image
        // out of the device into the snapshot store.
        let transfer = obs::span!("snapify.transfer", path = path);
        let env = &self.inner.env;
        let mut sink = env
            .storage
            .sink(self.node().id(), &format!("{path}/device_snapshot"))?;
        let stats = blcr_sim::checkpoint_incremental(
            &env.blcr,
            &self.inner.proc,
            &runtime_state,
            sink.as_mut(),
            &|name| !name.starts_with(BUF_REGION_PREFIX),
        )?;
        drop(transfer);
        obs::histogram_observe("coi.device_snapshot_bytes", stats.snapshot_bytes);
        Ok(stats.snapshot_bytes)
    }

    fn release_pause_locks(&self) {
        self.inner.log_lock.release_if_held();
        self.inner.event_lock.release_if_held();
        self.inner.result_lock.release_if_held();
    }

    /// The pipeline + buffer table as the opaque runtime-state blob
    /// stored in the device snapshot.
    fn runtime_state_blob(&self) -> Vec<u8> {
        let st = self.inner.pstate.lock();
        let state = RuntimeState {
            binary: self.inner.binary.name().to_string(),
            host_pid: self.inner.host_pid,
            active: st.active.clone(),
            queue: st.queue.clone(),
        };
        state.encode(st.enqueued, &self.buffer_table())
    }

    /// Restore an offload process from `path` onto `node`. Returns the
    /// runtime, its new ports, the (buffer, old, new) RDMA address
    /// translation table (§4.3) and the phase timings.
    pub(crate) fn restore(
        env: &Arc<CoiEnv>,
        node: &SimNode,
        path: &str,
    ) -> Result<(OffloadRuntime, [u16; 4], AddrTable, RestoreBreakdown), CoiError> {
        let mut breakdown = RestoreBreakdown::default();
        let storage = &*env.storage;
        // 1. Manifest: which buffers (and their old addresses) exist.
        let manifest = read_all(storage, node.id(), &format!("{path}/local_store/manifest"))?;
        let manifest = StoreManifest::decode(&manifest)?;
        let binary = env
            .registry
            .get(&manifest.binary)
            .ok_or_else(|| CoiError::Protocol(format!("unknown binary '{}'", manifest.binary)))?;

        // 2. Copy the runtime libraries to the coprocessor "on the fly"
        //    (§4.3: "the COI daemon first copies the local store and the
        //    runtime libraries needed by the offload process").
        let t0 = simkernel::now();
        {
            let _s = obs::span!("coi.restore.library_copy", bytes = binary.image_bytes);
            env.server
                .rdma_between(NodeId::HOST, node.id(), binary.image_bytes);
        }
        breakdown.library_copy_ns = (simkernel::now() - t0).as_nanos();

        // 3. Copy the local store to the coprocessor.
        let store_span = obs::span!("coi.restore.store_copy");
        let t0 = simkernel::now();
        let mut stores: Vec<(u64, u64, u64, Payload)> = Vec::new();
        for (id, size, old_addr) in manifest.buffers {
            let content = read_all(storage, node.id(), &format!("{path}/local_store/buf_{id}"))?;
            if content.len() != size {
                return Err(CoiError::Io(format!(
                    "local store size mismatch for buf {id}: {} bytes, manifest says {size}",
                    content.len()
                )));
            }
            stores.push((id, size, old_addr, content));
        }
        breakdown.store_copy_ns = (simkernel::now() - t0).as_nanos();
        drop(store_span);

        // 4. BLCR restart of the process image.
        let blcr_span = obs::span!("coi.restore.blcr_restart");
        let t0 = simkernel::now();
        let mut src = storage.source(node.id(), &format!("{path}/device_snapshot"))?;
        let restarted = blcr_sim::restart(&env.blcr, node, &env.pids, src.as_mut())?;
        breakdown.blcr_restart_ns = (simkernel::now() - t0).as_nanos();
        drop(blcr_span);
        let proc = restarted.proc;

        // 5–6 run with the restarted process live on the node: a failure
        // there gives its memory and windows back before it surfaces.
        let remapped = (|| -> Result<_, CoiError> {
            // 5. Parse the runtime state.
            let state = RuntimeState::decode(&Payload::bytes(restarted.runtime_state))?;
            debug_assert_eq!(state.binary, manifest.binary);

            // 6. Re-map the local store and re-register the windows; the
            //    re-registration returns *new* addresses, so build the
            //    (old, new) lookup table.
            let _s = obs::span!("coi.restore.reregistration");
            let t0 = simkernel::now();
            let mut buffers = BTreeMap::new();
            let mut addr_table = Vec::new();
            for (id, size, old_addr, content) in stores {
                proc.memory().map_region(&buf_region(id), content)?;
                let addr = env.scif.register(&proc, &buf_region(id));
                buffers.insert(id, BufMeta { size, addr });
                addr_table.push((id, size, old_addr, addr.0));
            }
            // Every region now holds exactly what the snapshot holds (the
            // BLCR image and the re-mapped local store both came from it),
            // so a warm capture right after restore starts from all-clean.
            proc.memory().mark_captured();
            breakdown.reregistration_ns = (simkernel::now() - t0).as_nanos();
            Ok((state, buffers, addr_table))
        })();
        let (state, buffers, addr_table) = remapped.inspect_err(|_| {
            env.scif.unregister_process(&proc);
            proc.exit();
        })?;

        // 7. Build the runtime, initially paused (barrier up) until
        //    snapify_resume (§4.3: "not fully active after restore").
        //    `enqueued` counts receives on the *current* run channel, which
        //    is brand new after a restore — it starts from zero.
        let pstate = PipelineState {
            queue: state.queue,
            active: state.active,
            barrier: true,
            ..PipelineState::default()
        };
        let rt = Self::build(env, proc, binary, state.host_pid, pstate, buffers);
        let ports = rt.open_ports();
        Ok((rt, ports, addr_table, breakdown))
    }

    /// Terminate the offload process: close every channel, wake every
    /// thread, release memory and RDMA windows.
    pub fn terminate(&self) {
        {
            let mut t = self.inner.terminated.lock();
            if *t {
                return;
            }
            *t = true;
        }
        self.inner.pcv.notify_all();
        if let Some(eps) = self.inner.eps.lock().as_ref() {
            eps.close();
        }
        self.inner.log_q.close();
        self.inner.event_q.close();
        if let Some(pipe) = self.inner.pipe.lock().as_ref() {
            pipe.to_offload.close();
            pipe.to_daemon.close();
        }
        self.inner.env.scif.unregister_process(&self.inner.proc);
        self.inner.proc.exit();
    }
}

fn read_all(storage: &dyn SnapshotStorage, node: NodeId, path: &str) -> Result<Payload, CoiError> {
    let mut src = storage.source(node, path)?;
    let mut out = Payload::empty();
    while let Some(chunk) = src.read(IO_CHUNK)? {
        out.append(chunk);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::CtlMsg;
    use crate::{CoiConfig, CoiWorld, DirectStorage, FunctionRegistry};
    use phi_platform::{PhiServer, MB};
    use simkernel::{ms, sleep, Kernel};
    use std::sync::Weak;

    /// Boot a world, create one offload process and hand back a weak
    /// reference to its runtime.
    fn launch() -> (CoiWorld, crate::CoiProcessHandle, Weak<Inner>) {
        let server = PhiServer::default_server();
        let registry = FunctionRegistry::new();
        registry.register(DeviceBinary::new("test.so", 2 * MB, 16 * MB));
        let storage = Arc::new(DirectStorage::new(&server));
        let w = CoiWorld::boot(&server, CoiConfig::default(), registry, storage);
        let host = w.create_host_process("app");
        let h = w.create_process(&host, 0, "test.so").unwrap();
        let rt = Arc::downgrade(&w.daemon(0).runtime(h.pid()).unwrap().inner);
        (w, h, rt)
    }

    #[test]
    fn a_destroyed_process_drops_its_runtime() {
        Kernel::run_root(|| {
            let (_w, h, rt) = launch();
            assert!(rt.upgrade().is_some());
            h.destroy().unwrap();
            sleep(ms(10)); // its threads drain
            assert!(rt.upgrade().is_none(), "the runtime outlived its process");
        });
    }

    #[test]
    fn a_swapped_out_process_drops_its_runtime() {
        Kernel::run_root(|| {
            let (_w, h, rt) = launch();
            let (pid, path) = (h.pid(), "/snap/swap".to_string());
            h.snapify_drain_host().unwrap();
            let pause = CtlMsg::SnapifyPause {
                pid,
                path: path.clone(),
            };
            let paused = h.snapify_call(pause).unwrap();
            assert!(matches!(paused, CtlMsg::SnapifyPauseComplete { ok: true }));
            let terminate = true;
            h.snapify_send_ctl(CtlMsg::SnapifyCapture {
                pid,
                path,
                terminate,
            })
            .unwrap();
            let captured = h.snapify_await_capture().unwrap();
            assert!(matches!(
                captured,
                CtlMsg::SnapifyCaptureComplete { ok: true, .. }
            ));
            h.snapify_detach();
            sleep(ms(10));
            assert!(rt.upgrade().is_none(), "the runtime outlived its process");
        });
    }
}
