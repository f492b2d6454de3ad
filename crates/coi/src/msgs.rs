//! COI control-plane message types and their wire encodings.
//!
//! Four message families, one per SCIF use case of §4.1:
//!
//! 1. [`CtlMsg`] — host ↔ COI daemon process-lifecycle traffic (and the
//!    Snapify service requests the daemon coordinates);
//! 2. (bulk RDMA carries no control messages — it is case 2);
//! 3. [`CmdMsg`] — host-client → offload-server commands, plus the
//!    offload-client → host-server [`StreamMsg`] log/event channels —
//!    all of which understand the Snapify **shutdown marker**;
//! 4. [`RunMsg`] — the offload-function pipeline (Fig 4).
//!
//! [`PipeMsg`] is the daemon ↔ offload-process UNIX-pipe protocol created
//! by `snapify_pause` (Fig 3).
//!
//! The receiving side of every SCIF channel is here too: `recv_msg`
//! (the next well-formed message — every wait for a reply), `serve` (the
//! receive loop of a server thread) and `serve_step` (the same loop as
//! the step of a stepped service), all over the one `poll_msg`.

use phi_platform::Payload;
use scif_sim::{ScifEndpoint, ScifError, SendOp};
use simkernel::{obs, Polled, Step};

use crate::offload::RestoreBreakdown;
use crate::wire::{frame_bytes, Dec, DecodeError, Enc};

/// Host ↔ daemon control messages (SCIF use case 1 + Snapify service).
#[derive(Clone, Debug, PartialEq)]
pub enum CtlMsg {
    /// Launch an offload process for `host_pid` running `binary`.
    CreateProcess {
        /// Host process id (daemon monitors it).
        host_pid: u64,
        /// Device binary name to load.
        binary: String,
    },
    /// Reply to [`CtlMsg::CreateProcess`].
    CreateProcessReply {
        /// New offload process id.
        pid: u64,
        /// SCIF ports for the run/cmd/log/event channels, in that order.
        ports: [u16; 4],
    },
    /// Terminate the offload process (normal application exit).
    DestroyProcess {
        /// Offload process id.
        pid: u64,
    },
    /// Acknowledgement of [`CtlMsg::DestroyProcess`].
    DestroyAck,
    /// Snapify: pause the offload process (drain + local store save).
    SnapifyPause {
        /// Offload process id.
        pid: u64,
        /// Host-side snapshot directory.
        path: String,
    },
    /// Daemon: pause finished.
    SnapifyPauseComplete {
        /// Whether the pause succeeded.
        ok: bool,
    },
    /// Snapify: capture the offload process snapshot.
    SnapifyCapture {
        /// Offload process id.
        pid: u64,
        /// Host-side snapshot directory.
        path: String,
        /// Terminate the process after capture (swap-out).
        terminate: bool,
    },
    /// Daemon: capture finished; carries the device snapshot size.
    SnapifyCaptureComplete {
        /// Whether the capture succeeded.
        ok: bool,
        /// Bytes in the device snapshot file.
        snapshot_bytes: u64,
    },
    /// Snapify: resume the offload process.
    SnapifyResume {
        /// Offload process id.
        pid: u64,
    },
    /// Daemon: resume finished.
    SnapifyResumeComplete,
    /// Snapify: restore an offload process from a snapshot directory.
    SnapifyRestore {
        /// Host-side snapshot directory.
        path: String,
        /// Host process id adopting the restored process.
        host_pid: u64,
    },
    /// Reply to [`CtlMsg::SnapifyRestore`].
    SnapifyRestoreReply {
        /// New offload process id.
        pid: u64,
        /// SCIF ports for the run/cmd/log/event channels.
        ports: [u16; 4],
        /// RDMA address translations: (buffer id, size, old addr, new
        /// addr).
        addr_table: Vec<(u64, u64, u64, u64)>,
        /// Restore phase timings.
        breakdown: RestoreBreakdown,
        /// Error message if the restore failed ports/table are invalid.
        error: String,
    },
}

impl CtlMsg {
    /// Encode for a SCIF message channel.
    pub fn encode(&self) -> Payload {
        match self {
            CtlMsg::CreateProcess { host_pid, binary } => {
                Enc::new().tag(1).u64(*host_pid).string(binary).payload()
            }
            CtlMsg::CreateProcessReply { pid, ports } => Enc::new()
                .tag(2)
                .u64(*pid)
                .u16(ports[0])
                .u16(ports[1])
                .u16(ports[2])
                .u16(ports[3])
                .payload(),
            CtlMsg::DestroyProcess { pid } => Enc::new().tag(3).u64(*pid).payload(),
            CtlMsg::DestroyAck => Enc::new().tag(4).payload(),
            CtlMsg::SnapifyPause { pid, path } => {
                Enc::new().tag(5).u64(*pid).string(path).payload()
            }
            CtlMsg::SnapifyPauseComplete { ok } => Enc::new().tag(6).boolean(*ok).payload(),
            CtlMsg::SnapifyCapture {
                pid,
                path,
                terminate,
            } => Enc::new()
                .tag(7)
                .u64(*pid)
                .string(path)
                .boolean(*terminate)
                .payload(),
            CtlMsg::SnapifyCaptureComplete { ok, snapshot_bytes } => Enc::new()
                .tag(8)
                .boolean(*ok)
                .u64(*snapshot_bytes)
                .payload(),
            CtlMsg::SnapifyResume { pid } => Enc::new().tag(9).u64(*pid).payload(),
            CtlMsg::SnapifyResumeComplete => Enc::new().tag(10).payload(),
            CtlMsg::SnapifyRestore { path, host_pid } => {
                Enc::new().tag(11).string(path).u64(*host_pid).payload()
            }
            CtlMsg::SnapifyRestoreReply {
                pid,
                ports,
                addr_table,
                breakdown,
                error,
            } => Enc::new()
                .tag(12)
                .u64(*pid)
                .u16(ports[0])
                .u16(ports[1])
                .u16(ports[2])
                .u16(ports[3])
                .list(addr_table, |e, (id, size, old, new)| {
                    e.u64(*id).u64(*size).u64(*old).u64(*new)
                })
                .u64(breakdown.library_copy_ns)
                .u64(breakdown.store_copy_ns)
                .u64(breakdown.blcr_restart_ns)
                .u64(breakdown.reregistration_ns)
                .string(error)
                .payload(),
        }
    }

    /// Decode from channel bytes.
    pub fn decode(p: &Payload) -> Result<CtlMsg, DecodeError> {
        let bytes = frame_bytes(p)?;
        let mut d = Dec::new(&bytes);
        let msg = match d.tag()? {
            1 => CtlMsg::CreateProcess {
                host_pid: d.u64()?,
                binary: d.string()?,
            },
            2 => CtlMsg::CreateProcessReply {
                pid: d.u64()?,
                ports: [d.u16()?, d.u16()?, d.u16()?, d.u16()?],
            },
            3 => CtlMsg::DestroyProcess { pid: d.u64()? },
            4 => CtlMsg::DestroyAck,
            5 => CtlMsg::SnapifyPause {
                pid: d.u64()?,
                path: d.string()?,
            },
            6 => CtlMsg::SnapifyPauseComplete { ok: d.boolean()? },
            7 => CtlMsg::SnapifyCapture {
                pid: d.u64()?,
                path: d.string()?,
                terminate: d.boolean()?,
            },
            8 => CtlMsg::SnapifyCaptureComplete {
                ok: d.boolean()?,
                snapshot_bytes: d.u64()?,
            },
            9 => CtlMsg::SnapifyResume { pid: d.u64()? },
            10 => CtlMsg::SnapifyResumeComplete,
            11 => CtlMsg::SnapifyRestore {
                path: d.string()?,
                host_pid: d.u64()?,
            },
            12 => CtlMsg::SnapifyRestoreReply {
                pid: d.u64()?,
                ports: [d.u16()?, d.u16()?, d.u16()?, d.u16()?],
                addr_table: d.list(|d| Ok((d.u64()?, d.u64()?, d.u64()?, d.u64()?)))?,
                breakdown: RestoreBreakdown {
                    library_copy_ns: d.u64()?,
                    store_copy_ns: d.u64()?,
                    blcr_restart_ns: d.u64()?,
                    reregistration_ns: d.u64()?,
                },
                error: d.string()?,
            },
            t => return Err(DecodeError(format!("bad CtlMsg tag {t}"))),
        };
        Ok(msg)
    }
}

/// Host-client → offload-server command channel (SCIF use case 3).
#[derive(Clone, Debug, PartialEq)]
pub enum CmdMsg {
    /// Liveness probe.
    Ping,
    /// Reply to [`CmdMsg::Ping`].
    Pong,
    /// Create a COI buffer of `size` bytes with client-assigned `id`.
    CreateBuffer {
        /// Buffer id.
        id: u64,
        /// Buffer size in bytes.
        size: u64,
    },
    /// Reply: buffer created and registered for RDMA at `addr`.
    BufferCreated {
        /// Buffer id.
        id: u64,
        /// RDMA window address (0 = creation failed, see `error`).
        addr: u64,
        /// Error message, empty on success.
        error: String,
    },
    /// Destroy a COI buffer.
    DestroyBuffer {
        /// Buffer id.
        id: u64,
    },
    /// Reply to [`CmdMsg::DestroyBuffer`].
    BufferDestroyed {
        /// Buffer id.
        id: u64,
    },
    /// Snapify shutdown marker: no more commands until resume (§4.1
    /// case 3).
    Shutdown,
    /// Server acknowledgement of [`CmdMsg::Shutdown`].
    ShutdownAck,
}

impl CmdMsg {
    /// Encode for a SCIF message channel.
    pub fn encode(&self) -> Payload {
        match self {
            CmdMsg::Ping => Enc::new().tag(1).payload(),
            CmdMsg::Pong => Enc::new().tag(2).payload(),
            CmdMsg::CreateBuffer { id, size } => Enc::new().tag(3).u64(*id).u64(*size).payload(),
            CmdMsg::BufferCreated { id, addr, error } => Enc::new()
                .tag(4)
                .u64(*id)
                .u64(*addr)
                .string(error)
                .payload(),
            CmdMsg::DestroyBuffer { id } => Enc::new().tag(5).u64(*id).payload(),
            CmdMsg::BufferDestroyed { id } => Enc::new().tag(6).u64(*id).payload(),
            CmdMsg::Shutdown => Enc::new().tag(7).payload(),
            CmdMsg::ShutdownAck => Enc::new().tag(8).payload(),
        }
    }

    /// Decode from channel bytes.
    pub fn decode(p: &Payload) -> Result<CmdMsg, DecodeError> {
        let bytes = frame_bytes(p)?;
        let mut d = Dec::new(&bytes);
        let msg = match d.tag()? {
            1 => CmdMsg::Ping,
            2 => CmdMsg::Pong,
            3 => CmdMsg::CreateBuffer {
                id: d.u64()?,
                size: d.u64()?,
            },
            4 => CmdMsg::BufferCreated {
                id: d.u64()?,
                addr: d.u64()?,
                error: d.string()?,
            },
            5 => CmdMsg::DestroyBuffer { id: d.u64()? },
            6 => CmdMsg::BufferDestroyed { id: d.u64()? },
            7 => CmdMsg::Shutdown,
            8 => CmdMsg::ShutdownAck,
            t => return Err(DecodeError(format!("bad CmdMsg tag {t}"))),
        };
        Ok(msg)
    }
}

/// Offload-client → host-server stream channels (COI events and logs —
/// the other half of SCIF use case 3).
#[derive(Clone, Debug, PartialEq)]
pub enum StreamMsg {
    /// One log/event record.
    Record(Vec<u8>),
    /// Snapify shutdown marker.
    Shutdown,
    /// Server acknowledgement of [`StreamMsg::Shutdown`].
    ShutdownAck,
}

impl StreamMsg {
    /// Encode for a SCIF message channel.
    pub fn encode(&self) -> Payload {
        match self {
            StreamMsg::Record(b) => Enc::new().tag(1).bytes(b).payload(),
            StreamMsg::Shutdown => Enc::new().tag(2).payload(),
            StreamMsg::ShutdownAck => Enc::new().tag(3).payload(),
        }
    }

    /// Decode from channel bytes.
    pub fn decode(p: &Payload) -> Result<StreamMsg, DecodeError> {
        let bytes = frame_bytes(p)?;
        let mut d = Dec::new(&bytes);
        let msg = match d.tag()? {
            1 => StreamMsg::Record(d.bytes()?),
            2 => StreamMsg::Shutdown,
            3 => StreamMsg::ShutdownAck,
            t => return Err(DecodeError(format!("bad StreamMsg tag {t}"))),
        };
        Ok(msg)
    }
}

/// The offload-function pipeline channel (SCIF use case 4, Fig 4).
#[derive(Clone, Debug, PartialEq)]
pub enum RunMsg {
    /// Run `function` with `args` against `buffers`.
    Request {
        /// Run id (host-assigned, echoed in the result).
        id: u64,
        /// Offload function name (must exist in the device binary).
        function: String,
        /// Misc argument bytes.
        args: Vec<u8>,
        /// Buffer ids passed to the function.
        buffers: Vec<u64>,
    },
    /// Function completed with a return value.
    Result {
        /// Run id.
        id: u64,
        /// Return value bytes.
        ret: Vec<u8>,
    },
    /// Function failed.
    Error {
        /// Run id.
        id: u64,
        /// Error description.
        message: String,
    },
}

impl RunMsg {
    /// Encode for a SCIF message channel.
    pub fn encode(&self) -> Payload {
        match self {
            RunMsg::Request {
                id,
                function,
                args,
                buffers,
            } => Enc::new()
                .tag(1)
                .u64(*id)
                .string(function)
                .bytes(args)
                .list(buffers, |e, b| e.u64(*b))
                .payload(),
            RunMsg::Result { id, ret } => Enc::new().tag(2).u64(*id).bytes(ret).payload(),
            RunMsg::Error { id, message } => Enc::new().tag(3).u64(*id).string(message).payload(),
        }
    }

    /// Decode from channel bytes.
    pub fn decode(p: &Payload) -> Result<RunMsg, DecodeError> {
        let bytes = frame_bytes(p)?;
        let mut d = Dec::new(&bytes);
        let msg = match d.tag()? {
            1 => RunMsg::Request {
                id: d.u64()?,
                function: d.string()?,
                args: d.bytes()?,
                buffers: d.list(|d| d.u64())?,
            },
            2 => RunMsg::Result {
                id: d.u64()?,
                ret: d.bytes()?,
            },
            3 => RunMsg::Error {
                id: d.u64()?,
                message: d.string()?,
            },
            t => return Err(DecodeError(format!("bad RunMsg tag {t}"))),
        };
        Ok(msg)
    }
}

/// Daemon ↔ offload-process pipe protocol (Fig 3). These travel over a
/// local (same-node) channel, not SCIF.
#[derive(Clone, Debug, PartialEq)]
pub enum PipeMsg {
    /// Daemon → offload: begin the pause (drain + save local store to
    /// `path`).
    PauseReq {
        /// Host snapshot directory.
        path: String,
    },
    /// Offload → daemon: handshake acknowledgement (Fig 3 step 2).
    PauseAck,
    /// Offload → daemon: channels drained, local store saved.
    PauseComplete {
        /// Whether the pause succeeded.
        ok: bool,
    },
    /// Daemon → offload: capture a snapshot into `path`.
    CaptureReq {
        /// Host snapshot directory.
        path: String,
        /// Exit after capturing.
        terminate: bool,
    },
    /// Offload → daemon: snapshot written.
    CaptureComplete {
        /// Whether the capture succeeded.
        ok: bool,
        /// Device snapshot size in bytes.
        snapshot_bytes: u64,
    },
    /// Daemon → offload: release all locks and resume.
    ResumeReq,
    /// Offload → daemon: resumed.
    ResumeAck,
}

/// The four data channels between a host handle and its offload process
/// — one per message family above, log and event sharing [`StreamMsg`] —
/// in the order the daemon's replies list their ports.
#[derive(Clone)]
pub(crate) struct Endpoints {
    pub(crate) run: ScifEndpoint,
    pub(crate) cmd: ScifEndpoint,
    pub(crate) log: ScifEndpoint,
    pub(crate) event: ScifEndpoint,
}

impl Endpoints {
    /// From the four connected (or accepted) endpoints, in port order.
    pub(crate) fn new(eps: &[ScifEndpoint]) -> Endpoints {
        Endpoints {
            run: eps[0].clone(),
            cmd: eps[1].clone(),
            log: eps[2].clone(),
            event: eps[3].clone(),
        }
    }

    pub(crate) fn close(&self) {
        self.run.close();
        self.cmd.close();
        self.log.close();
        self.event.close();
    }
}

/// The next well-formed message on `ep`, without blocking. This is the
/// one place a bad frame is judged — it is skipped and counted, never
/// fatal to the channel.
fn poll_msg<M>(
    ep: &ScifEndpoint,
    decode: fn(&Payload) -> Result<M, DecodeError>,
) -> Polled<Result<M, ScifError>> {
    loop {
        match ep.poll_recv() {
            Polled::Wait(w) => return Polled::Wait(w),
            Polled::Ready(Err(e)) => return Polled::Ready(Err(e)),
            Polled::Ready(Ok(frame)) => match decode(&frame) {
                Ok(msg) => return Polled::Ready(Ok(msg)),
                Err(_) => obs::counter_add("coi.bad_frames", 1),
            },
        }
    }
}

/// The next well-formed message on `ep`: what a client waits on after it
/// has sent a request.
pub(crate) fn recv_msg<M>(
    ep: &ScifEndpoint,
    decode: fn(&Payload) -> Result<M, DecodeError>,
) -> Result<M, ScifError> {
    simkernel::block_on(|| poll_msg(ep, decode))
}

/// The receive loop of a server thread whose handler blocks (the daemon's
/// ctl handler runs whole protocols): `recv → decode → handle` until the
/// channel closes.
pub(crate) fn serve<M>(
    ep: &ScifEndpoint,
    decode: fn(&Payload) -> Result<M, DecodeError>,
    mut handle: impl FnMut(M),
) {
    while let Ok(msg) = recv_msg(ep, decode) {
        handle(msg);
    }
}

/// The receive loop of every other server, as the step of a stepped
/// service (see [`simkernel::Kernel::spawn_stepped`]): `recv → decode →
/// handle → reply` until the channel closes, with no thread behind it.
/// `handle` must not block; the reply it returns, if any, is sent before
/// the next message is looked at.
pub(crate) fn serve_step<M: 'static>(
    ep: ScifEndpoint,
    decode: fn(&Payload) -> Result<M, DecodeError>,
    mut handle: impl FnMut(M) -> Option<Payload> + Send + 'static,
) -> impl FnMut() -> Step + Send + 'static {
    let mut reply: Option<SendOp> = None;
    move || loop {
        if let Some(op) = reply.as_mut() {
            match ep.poll_send(op) {
                Polled::Wait(w) => return Step::Wait(w),
                Polled::Ready(_) => reply = None,
            }
        }
        match poll_msg(&ep, decode) {
            Polled::Wait(w) => return Step::Wait(w),
            Polled::Ready(Err(_)) => return Step::Exit,
            Polled::Ready(Ok(msg)) => reply = handle(msg).map(|p| ep.begin_send(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctl_roundtrip() {
        let msgs = vec![
            CtlMsg::CreateProcess {
                host_pid: 7,
                binary: "md.so".into(),
            },
            CtlMsg::CreateProcessReply {
                pid: 9,
                ports: [1, 2, 3, 4],
            },
            CtlMsg::DestroyProcess { pid: 9 },
            CtlMsg::DestroyAck,
            CtlMsg::SnapifyPause {
                pid: 9,
                path: "/snap".into(),
            },
            CtlMsg::SnapifyPauseComplete { ok: true },
            CtlMsg::SnapifyCapture {
                pid: 9,
                path: "/snap".into(),
                terminate: false,
            },
            CtlMsg::SnapifyCaptureComplete {
                ok: true,
                snapshot_bytes: 12345,
            },
            CtlMsg::SnapifyResume { pid: 9 },
            CtlMsg::SnapifyResumeComplete,
            CtlMsg::SnapifyRestore {
                path: "/snap".into(),
                host_pid: 7,
            },
            CtlMsg::SnapifyRestoreReply {
                pid: 10,
                ports: [5, 6, 7, 8],
                addr_table: vec![(0, 4096, 0x1000, 0x2000), (1, 8192, 0x3000, 0x4000)],
                breakdown: RestoreBreakdown {
                    library_copy_ns: 1,
                    store_copy_ns: 2,
                    blcr_restart_ns: 3,
                    reregistration_ns: 4,
                },
                error: String::new(),
            },
        ];
        for m in msgs {
            assert_eq!(CtlMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn cmd_roundtrip() {
        let msgs = vec![
            CmdMsg::Ping,
            CmdMsg::Pong,
            CmdMsg::CreateBuffer {
                id: 3,
                size: 1 << 20,
            },
            CmdMsg::BufferCreated {
                id: 3,
                addr: 0x5000,
                error: String::new(),
            },
            CmdMsg::BufferCreated {
                id: 4,
                addr: 0,
                error: "oom".into(),
            },
            CmdMsg::DestroyBuffer { id: 3 },
            CmdMsg::BufferDestroyed { id: 3 },
            CmdMsg::Shutdown,
            CmdMsg::ShutdownAck,
        ];
        for m in msgs {
            assert_eq!(CmdMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn stream_and_run_roundtrip() {
        for m in [
            StreamMsg::Record(vec![1, 2, 3]),
            StreamMsg::Shutdown,
            StreamMsg::ShutdownAck,
        ] {
            assert_eq!(StreamMsg::decode(&m.encode()).unwrap(), m);
        }
        for m in [
            RunMsg::Request {
                id: 1,
                function: "lj_step".into(),
                args: vec![9, 9],
                buffers: vec![0, 1, 2],
            },
            RunMsg::Result {
                id: 1,
                ret: vec![5],
            },
            RunMsg::Error {
                id: 2,
                message: "no such function".into(),
            },
        ] {
            assert_eq!(RunMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(CtlMsg::decode(&Payload::bytes(vec![99])).is_err());
        assert!(CmdMsg::decode(&Payload::bytes(vec![])).is_err());
        assert!(RunMsg::decode(&Payload::bytes(vec![1, 2])).is_err());
    }

    /// A frame with synthetic content — wholly, or after a valid tag —
    /// is a typed error from every decoder, not a panic.
    #[test]
    fn synthetic_frames_are_typed_errors() {
        let mut tagged = Payload::bytes(vec![1]);
        tagged.append(Payload::synthetic(3, 64));
        for p in [Payload::synthetic(3, 64), tagged] {
            assert!(CtlMsg::decode(&p).is_err());
            assert!(CmdMsg::decode(&p).is_err());
            assert!(StreamMsg::decode(&p).is_err());
            assert!(RunMsg::decode(&p).is_err());
        }
    }

    /// The bad-frame policy: garbage and synthetic frames are skipped,
    /// the message behind them is delivered, and only a closed channel
    /// ends the loop.
    #[test]
    fn bad_frames_are_skipped_not_fatal() {
        use phi_platform::{NodeId, PhiServer};
        simkernel::Kernel::run_root(|| {
            let scif = scif_sim::Scif::new(&PhiServer::default_server());
            let listener = scif.listen(NodeId::device(0), 7);
            let peer = simkernel::spawn("peer", move || listener.accept().unwrap());
            let ep = scif.connect(NodeId::HOST, NodeId::device(0), 7).unwrap();
            let peer = peer.join();
            ep.send(Payload::bytes(vec![0xFF])).unwrap();
            ep.send(Payload::synthetic(1, 8)).unwrap();
            ep.send(CmdMsg::Ping.encode()).unwrap();
            assert_eq!(recv_msg(&peer, CmdMsg::decode), Ok(CmdMsg::Ping));
            ep.send(Payload::bytes(vec![])).unwrap();
            ep.send(CmdMsg::Pong.encode()).unwrap();
            ep.close();
            let mut served = Vec::new();
            serve(&peer, CmdMsg::decode, |m| served.push(m));
            assert_eq!(served, [CmdMsg::Pong]);
        });
    }

    use proptest::prelude::*;

    /// Variant selector, integers, ports, a bool, two strings, bytes
    /// and a list: raw material for any variant of the four families.
    type Fields = (
        (u64, u64, u64),
        (u16, u16, u16, u16),
        bool,
        (String, String),
        Vec<u8>,
        Vec<u64>,
    );

    fn fields() -> impl Strategy<Value = Fields> {
        let text = || {
            prop::collection::vec(any::<u8>(), 0..24)
                .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
        };
        let (int, port) = (any::<u64>, any::<u16>);
        (
            (int(), int(), int()),
            (port(), port(), port(), port()),
            any::<bool>(),
            (text(), text()),
            prop::collection::vec(any::<u8>(), 0..24),
            prop::collection::vec(int(), 0..8),
        )
    }

    fn ctl_from(((variant, a, b), p, flag, (s, t), _, list): Fields) -> CtlMsg {
        let ports = [p.0, p.1, p.2, p.3];
        match variant % 12 {
            0 => CtlMsg::CreateProcess {
                host_pid: a,
                binary: s,
            },
            1 => CtlMsg::CreateProcessReply { pid: a, ports },
            2 => CtlMsg::DestroyProcess { pid: a },
            3 => CtlMsg::DestroyAck,
            4 => CtlMsg::SnapifyPause { pid: a, path: s },
            5 => CtlMsg::SnapifyPauseComplete { ok: flag },
            6 => CtlMsg::SnapifyCapture {
                pid: a,
                path: s,
                terminate: flag,
            },
            7 => CtlMsg::SnapifyCaptureComplete {
                ok: flag,
                snapshot_bytes: a,
            },
            8 => CtlMsg::SnapifyResume { pid: a },
            9 => CtlMsg::SnapifyResumeComplete,
            10 => CtlMsg::SnapifyRestore {
                path: s,
                host_pid: a,
            },
            _ => CtlMsg::SnapifyRestoreReply {
                pid: a,
                ports,
                addr_table: list.iter().map(|v| (*v, a, b, v ^ b)).collect(),
                breakdown: RestoreBreakdown {
                    library_copy_ns: a,
                    store_copy_ns: b,
                    blcr_restart_ns: variant,
                    reregistration_ns: a ^ b,
                },
                error: t,
            },
        }
    }

    fn cmd_from(((variant, id, b), _, _, (error, _), _, _): Fields) -> CmdMsg {
        match variant % 8 {
            0 => CmdMsg::Ping,
            1 => CmdMsg::Pong,
            2 => CmdMsg::CreateBuffer { id, size: b },
            3 => CmdMsg::BufferCreated { id, addr: b, error },
            4 => CmdMsg::DestroyBuffer { id },
            5 => CmdMsg::BufferDestroyed { id },
            6 => CmdMsg::Shutdown,
            _ => CmdMsg::ShutdownAck,
        }
    }

    fn stream_from(((variant, ..), _, _, _, bytes, _): Fields) -> StreamMsg {
        match variant % 3 {
            0 => StreamMsg::Record(bytes),
            1 => StreamMsg::Shutdown,
            _ => StreamMsg::ShutdownAck,
        }
    }

    fn run_from(((variant, id, _), _, _, (text, _), bytes, buffers): Fields) -> RunMsg {
        match variant % 3 {
            0 => RunMsg::Request {
                id,
                function: text,
                args: bytes,
                buffers,
            },
            1 => RunMsg::Result { id, ret: bytes },
            _ => RunMsg::Error { id, message: text },
        }
    }

    proptest! {
        #[test]
        fn every_family_round_trips(f in fields()) {
            let ctl = ctl_from(f.clone());
            prop_assert_eq!(CtlMsg::decode(&ctl.encode()), Ok(ctl));
            let cmd = cmd_from(f.clone());
            prop_assert_eq!(CmdMsg::decode(&cmd.encode()), Ok(cmd));
            let stream = stream_from(f.clone());
            prop_assert_eq!(StreamMsg::decode(&stream.encode()), Ok(stream));
            let run = run_from(f);
            prop_assert_eq!(RunMsg::decode(&run.encode()), Ok(run));
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoders(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
            tag in 0u8..14,
        ) {
            // Raw noise mostly dies on the tag; forcing a plausible tag
            // drives the field readers over short and over-long frames.
            let mut tagged = bytes.clone();
            tagged.insert(0, tag);
            for frame in [bytes, tagged] {
                let p = Payload::bytes(frame);
                let _ = CtlMsg::decode(&p);
                let _ = CmdMsg::decode(&p);
                let _ = StreamMsg::decode(&p);
                let _ = RunMsg::decode(&p);
            }
        }
    }
}
