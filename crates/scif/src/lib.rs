//! # scif-sim — the Symmetric Communications Interface, simulated
//!
//! SCIF is MPSS's low-level transport between the host and the Xeon Phi
//! coprocessors (and among coprocessors). This crate reproduces the two
//! API families Snapify depends on (§2):
//!
//! * **connection-oriented messages** — [`Scif::listen`] / [`Scif::connect`]
//!   / [`ScifEndpoint::send`] / [`ScifEndpoint::recv`], latency-dominated,
//!   used for COI's command/control channels;
//! * **one-sided RDMA** — [`Scif::register`] turns a process memory region
//!   into a [`RdmaAddr`] window; [`ScifEndpoint::rdma_write`] /
//!   [`ScifEndpoint::rdma_read`] move bulk data through the PCIe DMA
//!   engine (`scif_vwriteto` / `scif_vreadfrom`).
//!
//! Two properties matter for Snapify's correctness argument and are
//! first-class here:
//!
//! * every endpoint exposes its **in-flight message count**
//!   ([`ScifEndpoint::inbound_pending`]), so a test can *prove* that a
//!   pause really drained every channel before a snapshot was taken;
//! * **registration is per-process-lifetime**: windows die with the
//!   process, and re-registering after a restore yields a *different*
//!   [`RdmaAddr`] — which is why Snapify must keep an (old, new) address
//!   lookup table (§4.3).

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use phi_platform::{LinkTransfer, NodeId, Payload, PhiServer};
use simkernel::obs;
use simkernel::{block_on, Polled, SimChannel, SimDuration, SimMutex};
use simproc::SimProcess;

pub mod cluster;
pub use cluster::{cluster_link, ClusterRx, ClusterTx};

/// Well-known SCIF ports (mirroring MPSS conventions).
pub mod ports {
    /// The COI daemon's listening port on every coprocessor.
    pub const COI_DAEMON: u16 = 100;
    /// The Snapify-IO daemon's listening port on every node.
    pub const SNAPIFY_IO: u16 = 200;
    /// First port available for dynamically-allocated endpoints.
    pub const EPHEMERAL_BASE: u16 = 1024;
}

/// Errors from SCIF operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScifError {
    /// No listener on the target `(node, port)`.
    ConnectionRefused(NodeId, u16),
    /// The peer endpoint (or the listener) was closed.
    Closed,
    /// RDMA against an address that is not (or no longer) registered.
    BadAddress(RdmaAddr),
    /// RDMA range outside the registered window.
    OutOfRange {
        /// Target window.
        addr: RdmaAddr,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Window size.
        window: u64,
    },
}

impl fmt::Display for ScifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScifError::ConnectionRefused(n, p) => write!(f, "connection refused: {n}:{p}"),
            ScifError::Closed => write!(f, "endpoint closed"),
            ScifError::BadAddress(a) => write!(f, "bad RDMA address {a}"),
            ScifError::OutOfRange {
                addr,
                offset,
                len,
                window,
            } => write!(
                f,
                "RDMA [{offset}, {offset}+{len}) outside window {addr} of {window} bytes"
            ),
        }
    }
}

impl std::error::Error for ScifError {}

/// An RDMA window address returned by [`Scif::register`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RdmaAddr(pub u64);

impl fmt::Debug for RdmaAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rdma:{:#x}", self.0)
    }
}

impl fmt::Display for RdmaAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

struct Window {
    /// Owning process — the window dies with it.
    proc: SimProcess,
    /// The region the window maps.
    region: String,
}

struct ScifState {
    listeners: HashMap<(NodeId, u16), SimChannel<ScifEndpoint>>,
    windows: HashMap<RdmaAddr, Window>,
    next_conn: u64,
    next_addr: u64,
    next_port: u16,
}

struct ScifInner {
    server: PhiServer,
    state: SimMutex<ScifState>,
}

/// The SCIF driver instance for one simulated server. Cheap to clone.
#[derive(Clone)]
pub struct Scif {
    inner: Arc<ScifInner>,
}

impl Scif {
    /// Create the SCIF driver for `server`.
    pub fn new(server: &PhiServer) -> Scif {
        Scif {
            inner: Arc::new(ScifInner {
                server: server.clone(),
                state: SimMutex::new(
                    "scif",
                    ScifState {
                        listeners: HashMap::new(),
                        windows: HashMap::new(),
                        next_conn: 1,
                        next_addr: 0x1000,
                        next_port: ports::EPHEMERAL_BASE,
                    },
                ),
            }),
        }
    }

    /// The server this driver runs on.
    pub fn server(&self) -> &PhiServer {
        &self.inner.server
    }

    /// Bind a listener at `(node, port)`. Returns the listener handle.
    /// Panics if the port is already bound (driver misuse, not a runtime
    /// condition in MPSS either).
    pub fn listen(&self, node: NodeId, port: u16) -> ScifListener {
        let backlog = SimChannel::unbounded(format!("scif-listen-{node}:{port}"));
        let mut st = self.inner.state.lock();
        let prev = st.listeners.insert((node, port), backlog.clone());
        assert!(prev.is_none(), "port {node}:{port} already bound");
        ScifListener {
            scif: self.clone(),
            node,
            port,
            backlog,
        }
    }

    /// Allocate an unused ephemeral port.
    pub fn ephemeral_port(&self) -> u16 {
        let mut st = self.inner.state.lock();
        let p = st.next_port;
        st.next_port += 1;
        p
    }

    /// Connect from `local` to a listener at `(peer, port)`. Blocks for
    /// the connection-setup round trip; fails if no listener is bound.
    pub fn connect(
        &self,
        local: NodeId,
        peer: NodeId,
        port: u16,
    ) -> Result<ScifEndpoint, ScifError> {
        let (conn_id, backlog) = {
            let mut st = self.inner.state.lock();
            let backlog = st
                .listeners
                .get(&(peer, port))
                .cloned()
                .ok_or(ScifError::ConnectionRefused(peer, port))?;
            let id = st.next_conn;
            st.next_conn += 1;
            (id, backlog)
        };
        let latency = self.channel_latency(local, peer);
        let a_to_b =
            SimChannel::with_options(format!("scif#{conn_id} {local}->{peer}"), None, latency);
        let b_to_a =
            SimChannel::with_options(format!("scif#{conn_id} {peer}->{local}"), None, latency);
        let my_end = ScifEndpoint {
            scif: self.clone(),
            conn_id,
            local,
            peer,
            tx: a_to_b.clone(),
            rx: b_to_a.clone(),
        };
        let peer_end = ScifEndpoint {
            scif: self.clone(),
            conn_id,
            local: peer,
            peer: local,
            tx: b_to_a,
            rx: a_to_b,
        };
        backlog.send(peer_end).map_err(|_| ScifError::Closed)?;
        // Connection setup costs one round trip on the message path.
        simkernel::sleep(latency * 2);
        Ok(my_end)
    }

    /// Register `region` of `proc` as an RDMA window. Returns the window
    /// address. Re-registration after a restore yields a new address.
    pub fn register(&self, proc: &SimProcess, region: &str) -> RdmaAddr {
        assert!(
            proc.memory().has_region(region),
            "registering unmapped region '{region}' of {}",
            proc.pid()
        );
        let mut st = self.inner.state.lock();
        let addr = RdmaAddr(st.next_addr);
        // Leave address space between windows, like a real allocator.
        st.next_addr += 1 << 20;
        st.windows.insert(
            addr,
            Window {
                proc: proc.clone(),
                region: region.to_string(),
            },
        );
        addr
    }

    /// Unregister a window. Idempotent.
    pub fn unregister(&self, addr: RdmaAddr) {
        self.inner.state.lock().windows.remove(&addr);
    }

    /// Drop every window owned by `proc` (called on process teardown —
    /// registrations do not survive the process, §4.3).
    pub fn unregister_process(&self, proc: &SimProcess) {
        let mut st = self.inner.state.lock();
        st.windows.retain(|_, w| w.proc.pid() != proc.pid());
    }

    /// Number of live windows (diagnostics).
    pub fn window_count(&self) -> usize {
        self.inner.state.lock().windows.len()
    }

    fn channel_latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        if a == b {
            SimDuration::from_micros(2) // loopback
        } else {
            self.inner.server.link_between(a, b).msg_latency()
        }
    }

    fn resolve_window(&self, addr: RdmaAddr) -> Result<(SimProcess, String), ScifError> {
        let st = self.inner.state.lock();
        let w = st.windows.get(&addr).ok_or(ScifError::BadAddress(addr))?;
        if !w.proc.is_alive() {
            return Err(ScifError::BadAddress(addr));
        }
        Ok((w.proc.clone(), w.region.clone()))
    }

    /// RDMA-write `data` into the window at `addr` at `offset`, initiated
    /// from `local` (endpoint-free variant used by the COI library, which
    /// tracks its own connections).
    pub fn rdma_write_from(
        &self,
        local: NodeId,
        addr: RdmaAddr,
        offset: u64,
        data: Payload,
    ) -> Result<(), ScifError> {
        let (proc, region) = self.resolve_window(addr)?;
        // The region can be unmapped between window resolution and the
        // DMA (process teardown racing a transfer): a typed error, not
        // a panic.
        let window = proc
            .memory()
            .region(&region)
            .map_err(|_| ScifError::BadAddress(addr))?;
        let len = data.len();
        if offset.checked_add(len).is_none_or(|end| end > window.len()) {
            return Err(ScifError::OutOfRange {
                addr,
                offset,
                len,
                window: window.len(),
            });
        }
        self.charge_rdma(local, proc.node().id(), len.max(1));
        let updated = window.replace(offset, data);
        proc.memory()
            .update_region(&region, updated)
            .map_err(|_| ScifError::BadAddress(addr))?;
        Ok(())
    }

    /// RDMA-read `len` bytes at `offset` from the window at `addr`,
    /// initiated from `local`.
    pub fn rdma_read_from(
        &self,
        local: NodeId,
        addr: RdmaAddr,
        offset: u64,
        len: u64,
    ) -> Result<Payload, ScifError> {
        let (proc, region) = self.resolve_window(addr)?;
        let window = proc
            .memory()
            .region(&region)
            .map_err(|_| ScifError::BadAddress(addr))?;
        if offset.checked_add(len).is_none_or(|end| end > window.len()) {
            return Err(ScifError::OutOfRange {
                addr,
                offset,
                len,
                window: window.len(),
            });
        }
        self.charge_rdma(local, proc.node().id(), len.max(1));
        Ok(window.slice(offset, len))
    }

    fn charge_rdma(&self, a: NodeId, b: NodeId, bytes: u64) {
        obs::counter_add("scif.rdma_bytes", bytes);
        obs::histogram_observe("scif.rdma_transfer_bytes", bytes);
        if a == b {
            obs::counter_add("scif.loopback_bytes", bytes);
            self.inner.server.node(a).memcpy(bytes);
        } else {
            // Bulk data crossing PCIe through the DMA engine.
            obs::counter_add("pcie.dma_bytes", bytes);
            self.inner.server.rdma_between(a, b, bytes);
        }
    }
}

impl fmt::Debug for Scif {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scif")
            .field("windows", &self.window_count())
            .finish()
    }
}

/// A bound listener. Accept connections with [`ScifListener::accept`].
pub struct ScifListener {
    scif: Scif,
    node: NodeId,
    port: u16,
    backlog: SimChannel<ScifEndpoint>,
}

impl ScifListener {
    /// Accept the next incoming connection (blocking).
    pub fn accept(&self) -> Result<ScifEndpoint, ScifError> {
        block_on(|| self.poll_accept())
    }

    /// The non-blocking core of [`ScifListener::accept`].
    pub fn poll_accept(&self) -> Polled<Result<ScifEndpoint, ScifError>> {
        or_closed(self.backlog.poll_recv())
    }

    /// The `(node, port)` this listener is bound to.
    pub fn local(&self) -> (NodeId, u16) {
        (self.node, self.port)
    }

    /// Stop listening: unbinds the port and wakes blocked accepts.
    pub fn close(&self) {
        self.scif
            .inner
            .state
            .lock()
            .listeners
            .remove(&(self.node, self.port));
        self.backlog.close();
    }
}

/// A [`ScifEndpoint::send`] in progress (see [`ScifEndpoint::begin_send`]).
pub struct SendOp {
    msg: Option<Payload>,
    wire: LinkTransfer,
}

/// A closed queue underneath is a closed connection.
fn or_closed<T, E>(polled: Polled<Result<T, E>>) -> Polled<Result<T, ScifError>> {
    match polled {
        Polled::Ready(r) => Polled::Ready(r.map_err(|_| ScifError::Closed)),
        Polled::Wait(w) => Polled::Wait(w),
    }
}

/// One end of a SCIF connection.
#[derive(Clone)]
pub struct ScifEndpoint {
    scif: Scif,
    conn_id: u64,
    local: NodeId,
    peer: NodeId,
    tx: SimChannel<Payload>,
    rx: SimChannel<Payload>,
}

impl ScifEndpoint {
    /// Send a message (`scif_send`): occupies the link's message path for
    /// the wire time, then delivers after the link latency.
    pub fn send(&self, msg: Payload) -> Result<(), ScifError> {
        let mut op = self.begin_send(msg);
        block_on(|| self.poll_send(&mut op))
    }

    /// Start sending `msg`: the send is counted here and carried out by
    /// [`ScifEndpoint::poll_send`].
    pub fn begin_send(&self, msg: Payload) -> SendOp {
        let bytes = msg.len().max(1);
        obs::counter_add("scif.bytes_sent", bytes);
        obs::counter_add("scif.msgs_sent", 1);
        SendOp {
            msg: Some(msg),
            wire: LinkTransfer::new(bytes),
        }
    }

    /// The non-blocking core of [`ScifEndpoint::send`]: occupy the link
    /// (unless the peer is on this node), then queue the message for
    /// delivery. Not to be called again on an `op` that was `Ready`.
    pub fn poll_send(&self, op: &mut SendOp) -> Polled<Result<(), ScifError>> {
        if self.local != self.peer {
            let link = self.scif.inner.server.link_between(self.local, self.peer);
            if let Polled::Wait(w) = link.poll_message_transfer(&mut op.wire) {
                return Polled::Wait(w);
            }
        }
        let msg = op.msg.take().expect("send already complete");
        // The connection's queues are unbounded: only a close refuses.
        Polled::Ready(self.tx.try_send(msg).map_err(|_| ScifError::Closed))
    }

    /// Receive the next message (`scif_recv`), blocking.
    pub fn recv(&self) -> Result<Payload, ScifError> {
        block_on(|| self.poll_recv())
    }

    /// The non-blocking core of [`ScifEndpoint::recv`].
    pub fn poll_recv(&self) -> Polled<Result<Payload, ScifError>> {
        let polled = or_closed(self.rx.poll_recv());
        if let Polled::Ready(Ok(msg)) = &polled {
            obs::counter_add("scif.bytes_recv", msg.len().max(1));
        }
        polled
    }

    /// RDMA-write `data` into the window at `addr` starting at `offset`
    /// (`scif_vwriteto`). Blocks for the DMA time.
    pub fn rdma_write(&self, addr: RdmaAddr, offset: u64, data: Payload) -> Result<(), ScifError> {
        self.scif.rdma_write_from(self.local, addr, offset, data)
    }

    /// RDMA-read `len` bytes at `offset` from the window at `addr`
    /// (`scif_vreadfrom`). Blocks for the DMA time.
    pub fn rdma_read(&self, addr: RdmaAddr, offset: u64, len: u64) -> Result<Payload, ScifError> {
        self.scif.rdma_read_from(self.local, addr, offset, len)
    }

    /// Messages sent to this endpoint but not yet received (queued or in
    /// flight). Zero ⇔ this direction of the channel is *drained*.
    pub fn inbound_pending(&self) -> usize {
        self.rx.len()
    }

    /// Cumulative (sent, received) counters of the inbound direction.
    /// `received` counts completed `recv()` calls on this endpoint.
    pub fn inbound_stats(&self) -> (u64, u64) {
        self.rx.stats()
    }

    /// Messages this endpoint sent that the peer has not yet received.
    pub fn outbound_pending(&self) -> usize {
        self.tx.len()
    }

    /// Close both directions. Pending messages remain receivable by the
    /// peer; further sends fail on both sides.
    pub fn close(&self) {
        self.tx.close();
        self.rx.close();
    }

    /// Whether the endpoint has been closed.
    pub fn is_closed(&self) -> bool {
        self.tx.is_closed()
    }

    /// Connection identifier (diagnostics).
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }
}

impl fmt::Debug for ScifEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ScifEndpoint#{}({}<->{})",
            self.conn_id, self.local, self.peer
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_platform::MB;
    use simkernel::{now, sleep, spawn, time::ms, Kernel};
    use simproc::Pid;

    fn world() -> (Scif, PhiServer) {
        let server = PhiServer::default_server();
        (Scif::new(&server), server)
    }

    #[test]
    fn connect_refused_without_listener() {
        Kernel::run_root(|| {
            let (scif, _) = world();
            let err = scif
                .connect(NodeId::HOST, NodeId::device(0), ports::COI_DAEMON)
                .unwrap_err();
            assert_eq!(
                err,
                ScifError::ConnectionRefused(NodeId::device(0), ports::COI_DAEMON)
            );
        });
    }

    #[test]
    fn send_recv_across_pcie() {
        Kernel::run_root(|| {
            let (scif, _) = world();
            let listener = scif.listen(NodeId::device(0), ports::COI_DAEMON);
            let s2 = scif.clone();
            let h = spawn("daemon", move || {
                let ep = listener.accept().unwrap();
                let msg = ep.recv().unwrap();
                ep.send(Payload::bytes(b"ack".to_vec())).unwrap();
                (msg.to_bytes(), listener)
            });
            let ep = s2
                .connect(NodeId::HOST, NodeId::device(0), ports::COI_DAEMON)
                .unwrap();
            ep.send(Payload::bytes(b"hello".to_vec())).unwrap();
            let reply = ep.recv().unwrap();
            assert_eq!(reply.to_bytes(), b"ack");
            let (msg, _listener) = h.join();
            assert_eq!(msg, b"hello");
            // Crossing PCIe twice plus setup: some latency elapsed.
            assert!(now().as_nanos() > 0);
        });
    }

    #[test]
    fn in_flight_counts_expose_drain_state() {
        Kernel::run_root(|| {
            let (scif, _) = world();
            let listener = scif.listen(NodeId::device(0), 7);
            let s2 = scif.clone();
            let h = spawn("peer", move || listener.accept().unwrap());
            let ep = s2.connect(NodeId::HOST, NodeId::device(0), 7).unwrap();
            let peer = h.join();
            assert_eq!(ep.outbound_pending(), 0);
            ep.send(Payload::bytes(vec![1])).unwrap();
            ep.send(Payload::bytes(vec![2])).unwrap();
            assert_eq!(ep.outbound_pending(), 2);
            assert_eq!(peer.inbound_pending(), 2);
            peer.recv().unwrap();
            peer.recv().unwrap();
            assert_eq!(ep.outbound_pending(), 0);
            assert_eq!(peer.inbound_pending(), 0);
        });
    }

    #[test]
    fn rdma_write_and_read_window() {
        Kernel::run_root(|| {
            let (scif, server) = world();
            let proc = SimProcess::new(Pid(1), "offload", server.device(0));
            proc.memory()
                .map_region("coibuf", Payload::bytes(vec![0u8; 8]))
                .unwrap();
            let addr = scif.register(&proc, "coibuf");

            let listener = scif.listen(NodeId::device(0), 9);
            let s2 = scif.clone();
            let h = spawn("srv", move || listener.accept().unwrap());
            let ep = s2.connect(NodeId::HOST, NodeId::device(0), 9).unwrap();
            let _peer = h.join();

            ep.rdma_write(addr, 2, Payload::bytes(vec![7, 8, 9]))
                .unwrap();
            assert_eq!(
                proc.memory().region("coibuf").unwrap().to_bytes(),
                vec![0, 0, 7, 8, 9, 0, 0, 0]
            );
            let read = ep.rdma_read(addr, 1, 4).unwrap();
            assert_eq!(read.to_bytes(), vec![0, 7, 8, 9]);
        });
    }

    #[test]
    fn rdma_bad_address_and_range() {
        Kernel::run_root(|| {
            let (scif, server) = world();
            let proc = SimProcess::new(Pid(1), "p", server.device(0));
            proc.memory()
                .map_region("w", Payload::bytes(vec![0u8; 4]))
                .unwrap();
            let addr = scif.register(&proc, "w");
            let listener = scif.listen(NodeId::device(0), 9);
            let s2 = scif.clone();
            let h = spawn("srv", move || listener.accept().unwrap());
            let ep = s2.connect(NodeId::HOST, NodeId::device(0), 9).unwrap();
            let _peer = h.join();

            assert!(matches!(
                ep.rdma_read(RdmaAddr(0xdead), 0, 1),
                Err(ScifError::BadAddress(_))
            ));
            assert!(matches!(
                ep.rdma_write(addr, 2, Payload::bytes(vec![0u8; 4])),
                Err(ScifError::OutOfRange { .. })
            ));
            // `offset + len` wraps to 1, inside the 4-byte window.
            let two = || Payload::bytes(vec![0u8; 2]);
            for res in [
                ep.rdma_write(addr, u64::MAX, two()),
                scif.rdma_write_from(NodeId::HOST, addr, u64::MAX, two()),
                ep.rdma_read(addr, u64::MAX, 2).map(drop),
                scif.rdma_read_from(NodeId::HOST, addr, u64::MAX, 2)
                    .map(drop),
            ] {
                assert!(matches!(res, Err(ScifError::OutOfRange { .. })), "{res:?}");
            }
        });
    }

    #[test]
    fn windows_die_with_process_and_reregistration_differs() {
        Kernel::run_root(|| {
            let (scif, server) = world();
            let proc = SimProcess::new(Pid(1), "p", server.device(0));
            proc.memory()
                .map_region("w", Payload::bytes(vec![1, 2, 3]))
                .unwrap();
            let addr1 = scif.register(&proc, "w");

            let listener = scif.listen(NodeId::device(0), 9);
            let s2 = scif.clone();
            let h = spawn("srv", move || listener.accept().unwrap());
            let ep = s2.connect(NodeId::HOST, NodeId::device(0), 9).unwrap();
            let _peer = h.join();

            proc.exit();
            assert!(matches!(
                ep.rdma_read(addr1, 0, 1),
                Err(ScifError::BadAddress(_))
            ));

            // "Restored" process: same logical buffer, new registration.
            let proc2 = SimProcess::new(Pid(2), "p-restored", server.device(0));
            proc2
                .memory()
                .map_region("w", Payload::bytes(vec![1, 2, 3]))
                .unwrap();
            scif.unregister_process(&proc);
            let addr2 = scif.register(&proc2, "w");
            assert_ne!(addr1, addr2, "re-registration must yield a new address");
            assert_eq!(ep.rdma_read(addr2, 0, 3).unwrap().to_bytes(), vec![1, 2, 3]);
        });
    }

    #[test]
    fn rdma_time_scales_with_size() {
        Kernel::run_root(|| {
            let (scif, server) = world();
            let proc = SimProcess::new(Pid(1), "p", server.device(0));
            proc.memory()
                .map_region("w", Payload::synthetic(1, 64 * MB))
                .unwrap();
            let addr = scif.register(&proc, "w");
            let listener = scif.listen(NodeId::device(0), 9);
            let s2 = scif.clone();
            let h = spawn("srv", move || listener.accept().unwrap());
            let ep = s2.connect(NodeId::HOST, NodeId::device(0), 9).unwrap();
            let _peer = h.join();

            let t0 = now();
            ep.rdma_write(addr, 0, Payload::synthetic(2, 64 * MB))
                .unwrap();
            let big = now() - t0;
            let t1 = now();
            ep.rdma_write(addr, 0, Payload::synthetic(3, MB)).unwrap();
            let small = now() - t1;
            assert!(big.as_nanos() > 50 * small.as_nanos());
            // 64 MiB at 6 GB/s ≈ 11 ms.
            assert!((big.as_secs_f64() - 0.0112).abs() < 0.002, "big = {big}");
        });
    }

    #[test]
    fn close_propagates_to_peer() {
        Kernel::run_root(|| {
            let (scif, _) = world();
            let listener = scif.listen(NodeId::device(0), 9);
            let s2 = scif.clone();
            let h = spawn("srv", move || {
                let ep = listener.accept().unwrap();
                // Block until the peer closes.
                ep.recv()
            });
            let ep = s2.connect(NodeId::HOST, NodeId::device(0), 9).unwrap();
            sleep(ms(1));
            ep.close();
            assert_eq!(h.join(), Err(ScifError::Closed));
            assert!(matches!(ep.send(Payload::empty()), Err(ScifError::Closed)));
        });
    }

    #[test]
    fn listener_close_unbinds_port() {
        Kernel::run_root(|| {
            let (scif, _) = world();
            let listener = scif.listen(NodeId::device(0), 9);
            listener.close();
            assert!(scif.connect(NodeId::HOST, NodeId::device(0), 9).is_err());
            // Port can be rebound after close.
            let _l2 = scif.listen(NodeId::device(0), 9);
        });
    }

    #[test]
    fn same_node_connection_works() {
        Kernel::run_root(|| {
            let (scif, _) = world();
            let listener = scif.listen(NodeId::device(0), 9);
            let s2 = scif.clone();
            let h = spawn("srv", move || {
                let ep = listener.accept().unwrap();
                ep.recv().unwrap().to_bytes()
            });
            // The offload process connecting to its local COI daemon.
            let ep = s2.connect(NodeId::device(0), NodeId::device(0), 9).unwrap();
            ep.send(Payload::bytes(b"local".to_vec())).unwrap();
            assert_eq!(h.join(), b"local");
        });
    }

    #[test]
    fn ephemeral_ports_unique() {
        Kernel::run_root(|| {
            let (scif, _) = world();
            let a = scif.ephemeral_port();
            let b = scif.ephemeral_port();
            assert_ne!(a, b);
            assert!(a >= ports::EPHEMERAL_BASE);
        });
    }
}
