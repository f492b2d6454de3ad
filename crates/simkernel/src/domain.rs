//! Multi-domain parallel simulation with conservative lookahead sync.
//!
//! A [`MultiKernel`] partitions a simulation into *time domains*: each
//! domain is a full [`Kernel`] — its own run queue, timer wheel, virtual
//! clock, and single-token scheduler — carried by its own OS thread, so
//! domains execute genuinely in parallel on a multi-core host while
//! each domain individually keeps the serial kernel's determinism and
//! data-race-freedom guarantees.
//!
//! # Conservative window synchronization
//!
//! Domains synchronize with the classic conservative (Chandy–Misra
//! style) *lookahead* argument, organized as barrier-separated windows
//! (the parti-gem5 "quantum" scheme):
//!
//! 1. Let `e` be the earliest pending event time across all live
//!    domains and `L` the **lookahead** — the minimum latency of any
//!    cross-domain link. The coordinator opens the window `[e, e + L)`.
//! 2. Every domain runs all of its events with `time < e + L` in
//!    parallel ([`Kernel::step_until`]); none may execute an event at
//!    or past the horizon.
//! 3. At the barrier, messages sent during the window are collected
//!    from per-domain outboxes, sorted by `(virtual_time, src_domain,
//!    seq)`, and delivered to their destination run queues at their
//!    arrival timestamps.
//! 4. Repeat from 1 (the next window skips over idle gaps, so sparse
//!    simulations don't pay one barrier per lookahead quantum).
//!
//! This is safe because any message sent during the window is stamped
//! `send_time + delay ≥ e + L` — at or past every domain's horizon — so
//! no domain can ever receive a message "in its past". Port delays are
//! therefore required to be at least the lookahead.
//!
//! # Determinism
//!
//! * Within a domain: the serial kernel's `(time, seq)` order, with
//!   [`SchedPolicy::Random`] tie-break seeds salted by domain id (the
//!   salt for domain 0 is zero, so a one-domain `Random(seed)` run
//!   replays the serial kernel exactly).
//! * Across domains: deliveries are sorted by `(virtual_time,
//!   src_domain, seq)` — a pure function of simulation state, not of
//!   wall-clock interleaving — and the merged trace
//!   ([`MultiKernel::fingerprint`]) orders events by `(virtual_time,
//!   domain_id, per-domain order)`.
//! * `domains = 1` is the compatibility mode: [`MultiKernel::run`]
//!   degenerates to a plain [`Kernel::run`] on the sole domain, which
//!   reproduces the serial golden trace byte-for-byte.
//!
//! # Cross-domain messaging
//!
//! [`DomainPort`] is the sole legal cross-domain primitive: a
//! unidirectional SPSC message port with a fixed link delay. Sharing a
//! `SimChannel`/`SimMutex` between threads of *different* domains is
//! undefined behaviour for determinism (its wake-ups would race on two
//! concurrently-running schedulers); ports route sends through a
//! per-domain outbox that is only drained at the window barrier, when
//! no simulated thread is running anywhere. Same-domain ports skip the
//! outbox and deliver directly (SimChannel-style), so topologies keep
//! working unchanged when collapsed onto fewer domains. The transport
//! queues are unbounded at this layer — a conservative engine cannot
//! block a sender on remote queue state without violating the window
//! invariant — so backpressure, where needed, comes from request/reply
//! protocols above (each in-flight window holds at most one window's
//! worth of sends).
//!
//! # Failure semantics
//!
//! A panic or livelock inside one domain aborts the whole run; the
//! coordinator reports the failing domain's dump plus every other
//! domain's clock, safe horizon, and parked threads. If every live
//! domain stalls with no pending events and no in-flight messages, the
//! run aborts with a **cross-domain deadlock** dump in the same format,
//! ending (like all kernel dumps) with the observability flight
//! recorder tail.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use crate::channel::{RecvError, SendError};
use crate::kernel::{
    current, push_flight_tail, splitmix64, with_current, Kernel, SchedPolicy, StepOutcome, Tid,
    TraceEvent,
};
use crate::time::{SimDuration, SimTime};
use crate::wait::Wait;

/// Identifier of a time domain (dense, starting at 0).
pub type DomainId = u32;

/// Configuration of a [`MultiKernel`].
#[derive(Clone, Debug)]
pub struct MultiDomainConfig {
    /// Number of time domains (≥ 1). `1` is the serial compatibility
    /// mode.
    pub domains: u32,
    /// Conservative lookahead: the minimum cross-domain link delay.
    /// Every [`DomainPort`] crossing domains must have `delay ≥
    /// lookahead`. Must be positive when `domains > 1`.
    pub lookahead: SimDuration,
    /// Per-domain dispatch policy. `Random(seed)` is salted per domain
    /// (domain 0 unsalted, so one-domain runs replay the serial
    /// kernel).
    pub policy: SchedPolicy,
}

impl MultiDomainConfig {
    /// Config with the default [`SchedPolicy::Fifo`] policy.
    pub fn new(domains: u32, lookahead: SimDuration) -> MultiDomainConfig {
        MultiDomainConfig {
            domains,
            lookahead,
            policy: SchedPolicy::Fifo,
        }
    }

    /// Replace the dispatch policy.
    pub fn with_policy(mut self, policy: SchedPolicy) -> MultiDomainConfig {
        self.policy = policy;
        self
    }
}

/// One message queued for cross-domain delivery at the next barrier.
struct OutboxEntry {
    /// Arrival timestamp (`send_time + port delay`).
    time: SimTime,
    /// Sending domain (second merge key).
    src: DomainId,
    /// Per-source send sequence (third merge key).
    seq: u64,
    /// Receiving domain.
    dst: DomainId,
    /// Performs the delivery against the destination kernel.
    deliver: Box<dyn FnOnce(&Kernel) + Send>,
}

struct Shared {
    lookahead: SimDuration,
    kernels: Vec<Kernel>,
    /// Per-source-domain outboxes, drained only at window barriers.
    outboxes: Vec<Mutex<Vec<OutboxEntry>>>,
    /// Per-source-domain send sequence counters (deterministic: only
    /// threads of that domain increment theirs, one at a time).
    send_seq: Vec<AtomicU64>,
    /// Messages dropped because the destination domain had already
    /// finished (its daemons are parked; nothing can receive).
    dropped_to_done: AtomicU64,
    /// Barrier rounds executed by the last [`MultiKernel::run`].
    rounds: AtomicU64,
    /// Context line for cross-domain dumps (also forwarded per-kernel).
    dump_note: Mutex<Option<String>>,
}

/// A simulation partitioned into parallel time domains. See the
/// [module docs](self) for the synchronization scheme.
#[derive(Clone)]
pub struct MultiKernel {
    shared: Arc<Shared>,
}

impl MultiKernel {
    /// Create a multi-domain kernel. Panics if `domains == 0`, or if
    /// `domains > 1` with a zero lookahead (a conservative engine
    /// cannot make parallel progress without lookahead).
    pub fn new(config: MultiDomainConfig) -> MultiKernel {
        assert!(config.domains >= 1, "need at least one domain");
        assert!(
            config.domains == 1 || config.lookahead > SimDuration::ZERO,
            "multi-domain sync requires a positive lookahead"
        );
        let kernels: Vec<Kernel> = (0..config.domains)
            .map(|d| {
                let k = Kernel::new_with_policy(salted(config.policy, d));
                k.set_domain_tag(d);
                k
            })
            .collect();
        let n = config.domains as usize;
        MultiKernel {
            shared: Arc::new(Shared {
                lookahead: config.lookahead,
                kernels,
                outboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
                send_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
                dropped_to_done: AtomicU64::new(0),
                rounds: AtomicU64::new(0),
                dump_note: Mutex::new(None),
            }),
        }
    }

    /// Number of time domains.
    pub fn domains(&self) -> u32 {
        self.shared.kernels.len() as u32
    }

    /// The conservative lookahead this kernel was built with.
    pub fn lookahead(&self) -> SimDuration {
        self.shared.lookahead
    }

    /// The kernel of domain `d` — spawn threads into a domain through
    /// this handle (`mk.domain(d).spawn(...)`).
    pub fn domain(&self, d: DomainId) -> &Kernel {
        &self.shared.kernels[d as usize]
    }

    /// Current virtual clock of domain `d`.
    pub fn clock(&self, d: DomainId) -> SimTime {
        self.shared.kernels[d as usize].now()
    }

    /// Enable event tracing in every domain (see [`Kernel::enable_trace`]).
    /// With more than one domain the events are kept
    /// ([`Kernel::keep_trace`]): [`MultiKernel::fingerprint`] has to merge
    /// them across domains before it can digest them.
    pub fn enable_trace(&self) {
        let merged = self.shared.kernels.len() > 1;
        for k in &self.shared.kernels {
            if merged {
                k.keep_trace();
            } else {
                k.enable_trace();
            }
        }
    }

    /// Set the livelock threshold in every domain.
    pub fn set_livelock_threshold(&self, threshold: Option<u64>) {
        for k in &self.shared.kernels {
            k.set_livelock_threshold(threshold);
        }
    }

    /// Attach free-form context to every domain's dumps and to the
    /// cross-domain stall dump.
    pub fn set_dump_note(&self, note: impl Into<String>) {
        let note = note.into();
        for k in &self.shared.kernels {
            k.set_dump_note(note.clone());
        }
        *self.shared.dump_note.lock().unwrap() = Some(note);
    }

    /// Barrier rounds executed by the last [`MultiKernel::run`] (0 in
    /// the one-domain compatibility mode). Window skipping makes this
    /// proportional to event clusters, not to `total_time / lookahead`.
    pub fn rounds(&self) -> u64 {
        self.shared.rounds.load(Ordering::Relaxed)
    }

    /// Cross-domain messages dropped because their destination domain
    /// had already finished.
    pub fn dropped_deliveries(&self) -> u64 {
        self.shared.dropped_to_done.load(Ordering::Relaxed)
    }

    /// Create a unidirectional SPSC message port from domain `src` to
    /// domain `dst` with the given link `delay`. For cross-domain ports
    /// the delay must be at least the lookahead (the conservative sync
    /// invariant); same-domain ports may use any delay and deliver
    /// directly, without barrier involvement.
    pub fn port<T: Send + 'static>(
        &self,
        name: impl Into<String>,
        src: DomainId,
        dst: DomainId,
        delay: SimDuration,
    ) -> (PortTx<T>, PortRx<T>) {
        assert!((src as usize) < self.shared.kernels.len(), "bad src domain");
        assert!((dst as usize) < self.shared.kernels.len(), "bad dst domain");
        assert!(
            src == dst || delay >= self.shared.lookahead,
            "cross-domain port delay must be >= the lookahead"
        );
        let inner = Arc::new(PortInner {
            name: name.into().into(),
            state: Mutex::new(PortState {
                queue: VecDeque::new(),
                waiters: Vec::new(),
                closed_seen: false,
                arrived: 0,
                received: 0,
            }),
        });
        let tx = PortTx {
            shared: Arc::clone(&self.shared),
            inner: Arc::clone(&inner),
            src_kernel: self.shared.kernels[src as usize].clone(),
            src,
            dst,
            delay,
            closed: AtomicBool::new(false),
        };
        let rx = PortRx {
            inner,
            dst_kernel: self.shared.kernels[dst as usize].clone(),
        };
        (tx, rx)
    }

    /// Run the simulation to completion across all domains. Blocks the
    /// calling (real) thread; with one domain this is exactly
    /// [`Kernel::run`].
    ///
    /// # Panics
    /// Panics if any domain failed (thread panic, livelock) or if the
    /// run reached a cross-domain deadlock, with a dump covering every
    /// domain.
    pub fn run(&self) {
        let n = self.shared.kernels.len();
        if n == 1 {
            // Compatibility mode: byte-for-byte the serial kernel.
            self.shared.kernels[0].run();
            return;
        }
        let lookahead = self.shared.lookahead;

        // One driver OS thread per domain, the carrier of its kernel, so
        // the coordinator can run all domains concurrently: it runs the
        // domain up to each horizon it is sent, then, at `None`, finishes
        // it — tears it down, or leaves a failed one alone — and exits.
        let mut go_txs = Vec::with_capacity(n);
        let mut out_rxs = Vec::with_capacity(n);
        let mut drivers = Vec::with_capacity(n);
        for (d, k) in self.shared.kernels.iter().enumerate() {
            let (go_tx, go_rx) = mpsc::channel::<Option<SimTime>>();
            let (out_tx, out_rx) = mpsc::channel::<StepOutcome>();
            let k = k.clone();
            let h = thread::Builder::new()
                .name(format!("domain-{d}"))
                .spawn(move || {
                    while let Ok(Some(horizon)) = go_rx.recv() {
                        if out_tx.send(k.step_until(horizon)).is_err() {
                            break;
                        }
                    }
                    k.finish();
                })
                .expect("failed to spawn domain driver thread");
            go_txs.push(go_tx);
            out_rxs.push(out_rx);
            drivers.push(h);
        }

        let mut done = vec![false; n];
        let mut failed = vec![false; n];
        let mut last_window: Option<SimTime> = None;
        // Each live domain's earliest pending event. Seeded by peeking
        // the run queues once; thereafter maintained from the `next`
        // hints domains report when they pause (nobody else can touch a
        // paused domain's queue) and from barrier delivery timestamps —
        // so steady-state rounds never take another domain's scheduler
        // lock to pick the window.
        let mut next_est: Vec<Option<SimTime>> = (0..n)
            .map(|d| self.shared.kernels[d].next_pending_time())
            .collect();
        self.shared.rounds.store(0, Ordering::Relaxed);
        let result: Result<(), String> = loop {
            // Window start: the earliest pending event anywhere.
            let earliest = (0..n)
                .filter(|&d| !done[d])
                .filter_map(|d| next_est[d])
                .min();
            let Some(e) = earliest else {
                if done.iter().all(|&f| f) {
                    break Ok(());
                }
                // Live domains, no pending events, no in-flight
                // messages (outboxes were drained last round): stuck.
                break Err(self.cross_domain_dump(
                    "cross-domain deadlock: every live domain stalled with no pending events \
                     and no in-flight messages:",
                    &done,
                    &failed,
                    last_window,
                ));
            };
            let window_end = e + lookahead;
            last_window = Some(window_end);
            self.shared.rounds.fetch_add(1, Ordering::Relaxed);

            // Run every live domain up to the horizon, in parallel.
            for d in 0..n {
                if !done[d] {
                    let _ = go_txs[d].send(Some(window_end));
                }
            }
            let mut failures: Vec<(usize, String)> = Vec::new();
            for d in 0..n {
                if done[d] {
                    continue;
                }
                match out_rxs[d].recv().expect("domain driver died") {
                    StepOutcome::Done => done[d] = true,
                    StepOutcome::Paused { next } => next_est[d] = next,
                    StepOutcome::Failed(msg) => {
                        done[d] = true;
                        failed[d] = true;
                        failures.push((d, msg));
                    }
                }
            }
            if !failures.is_empty() {
                let mut header = String::new();
                for (d, msg) in &failures {
                    header.push_str(&format!("domain {d} failed: {msg}\n"));
                }
                header.push_str("state of all domains at abort:");
                break Err(self.cross_domain_dump(&header, &done, &failed, last_window));
            }

            // Barrier: deliver the window's cross-domain messages in
            // deterministic (time, src_domain, seq) order.
            let mut batch: Vec<OutboxEntry> = Vec::new();
            for ob in &self.shared.outboxes {
                batch.append(&mut ob.lock().unwrap());
            }
            batch.sort_by_key(|en| (en.time, en.src, en.seq));
            for en in batch {
                let dst = en.dst as usize;
                if done[dst] {
                    self.shared.dropped_to_done.fetch_add(1, Ordering::Relaxed);
                } else {
                    // The delivery may schedule a wake at `en.time`, and
                    // it voids the idle promises the estimate skipped
                    // ticks by: take the domain's earliest event afresh.
                    (en.deliver)(&self.shared.kernels[dst]);
                    next_est[dst] = self.shared.kernels[dst].next_pending_time();
                }
            }
            if done.iter().all(|&f| f) {
                break Ok(());
            }
        };

        // A failed run is left alone in every domain: no context is resumed.
        if let Err(msg) = &result {
            for k in &self.shared.kernels {
                k.abort_external(msg);
            }
        }
        // Every domain is finished on its own carrier, in domain order —
        // here and not in `step_until`, so none is torn down while another
        // still runs. A carrier abandoned mid-teardown cannot be joined.
        let mut torn = None;
        for ((k, go), driver) in self.shared.kernels.iter().zip(go_txs).zip(drivers) {
            let _ = go.send(None);
            let (failure, abandoned) = k.wait_finished();
            torn = torn.or(failure);
            if !abandoned {
                let _ = driver.join();
            }
        }
        if let Some(msg) = result.err().or(torn) {
            panic!("simulation failed: {msg}");
        }
    }

    /// Merged event trace: every domain's trace (drained), ordered by
    /// `(virtual_time, domain_id, per-domain order)`.
    pub fn merged_trace(&self) -> Vec<(DomainId, TraceEvent)> {
        let traces: Vec<Vec<TraceEvent>> = self.shared.kernels.iter().map(|k| k.trace()).collect();
        let total = traces.iter().map(Vec::len).sum();
        let mut iters: Vec<_> = traces
            .into_iter()
            .map(|v| v.into_iter().peekable())
            .collect();
        let mut out = Vec::with_capacity(total);
        loop {
            // Earliest head event; ties go to the lowest domain id.
            let mut best: Option<(SimTime, usize)> = None;
            for (d, it) in iters.iter_mut().enumerate() {
                if let Some(ev) = it.peek() {
                    if best.is_none_or(|(bt, _)| ev.time < bt) {
                        best = Some((ev.time, d));
                    }
                }
            }
            let Some((_, d)) = best else { break };
            out.push((d as DomainId, iters[d].next().unwrap()));
        }
        out
    }

    /// `(merged trace length, merged trace digest)` — the multi-domain
    /// analogue of `(trace_len, trace_digest)`. With one domain this
    /// delegates to the serial kernel's digest (identical to a plain
    /// [`Kernel`] run); with several it **drains** every domain's trace
    /// to merge them, so call it once, after [`MultiKernel::run`].
    pub fn fingerprint(&self) -> (usize, u64) {
        if self.shared.kernels.len() == 1 {
            let k = &self.shared.kernels[0];
            return (k.trace_len(), k.trace_digest());
        }
        let merged = self.merged_trace();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        };
        for (d, ev) in &merged {
            mix(&ev.time.as_nanos().to_le_bytes());
            mix(&d.to_le_bytes());
            mix(&ev.tid.to_le_bytes());
            mix(ev.label.as_bytes());
            mix(&[0xff]);
        }
        (merged.len(), h)
    }

    /// Render the cross-domain dump (satisfies the "every domain's
    /// clock, safe horizon, and parked threads" contract of
    /// multi-domain deadlock reporting).
    fn cross_domain_dump(
        &self,
        header: &str,
        done: &[bool],
        failed: &[bool],
        window: Option<SimTime>,
    ) -> String {
        let mut out = String::from(header);
        out.push('\n');
        let horizon = match window {
            Some(w) => format!("{w}"),
            None => "-".to_string(),
        };
        for (d, k) in self.shared.kernels.iter().enumerate() {
            let status = if failed[d] {
                "failed"
            } else if done[d] {
                "finished"
            } else {
                "stalled"
            };
            let next = match k.next_pending_time() {
                Some(t) => format!("{t}"),
                None => "none".to_string(),
            };
            out.push_str(&format!(
                "  domain {d}: {status}, clock {}, safe horizon {horizon}, next event {next}\n",
                k.now()
            ));
            if !done[d] {
                for line in k.blocked_report().lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        if let Some(note) = self.shared.dump_note.lock().unwrap().as_ref() {
            out.push_str("  context: ");
            out.push_str(note);
            out.push('\n');
        }
        push_flight_tail(&mut out);
        out
    }
}

/// Salt `Random` seeds per domain so equal-time tie-breaks decorrelate
/// across domains while domain 0 replays the serial kernel exactly.
fn salted(policy: SchedPolicy, domain: DomainId) -> SchedPolicy {
    match policy {
        SchedPolicy::Fifo => SchedPolicy::Fifo,
        SchedPolicy::Random(seed) if domain == 0 => SchedPolicy::Random(seed),
        SchedPolicy::Random(seed) => {
            let mut s = domain as u64;
            SchedPolicy::Random(seed ^ splitmix64(&mut s))
        }
    }
}

/// A queued port item: a message or the close marker (which travels
/// with the same link delay, so "closed" is observed in timestamp
/// order with the data before it).
enum Item<T> {
    Data(T),
    Closed,
}

struct PortState<T> {
    /// `(arrival time, item)`, kept in arrival order (single source +
    /// fixed delay ⇒ monotone).
    queue: VecDeque<(SimTime, Item<T>)>,
    /// Receiver tids blocked on an empty queue (SPSC: 0 or 1).
    waiters: Vec<Tid>,
    /// The close marker was consumed; all later receives fail.
    closed_seen: bool,
    /// Cumulative arrivals (counted at delivery) and receipts.
    arrived: u64,
    received: u64,
}

struct PortInner<T> {
    name: Arc<str>,
    state: Mutex<PortState<T>>,
}

/// Sending half of a [`DomainPort`]. Not cloneable (SPSC); usable only
/// from simulated threads of its source domain.
pub struct PortTx<T> {
    shared: Arc<Shared>,
    inner: Arc<PortInner<T>>,
    src_kernel: Kernel,
    src: DomainId,
    dst: DomainId,
    delay: SimDuration,
    closed: AtomicBool,
}

/// Receiving half of a [`DomainPort`]. Not cloneable (SPSC); usable
/// only from simulated threads of its destination domain.
pub struct PortRx<T> {
    inner: Arc<PortInner<T>>,
    dst_kernel: Kernel,
}

/// Marker type used in docs: a `(PortTx, PortRx)` pair created by
/// [`MultiKernel::port`].
pub type DomainPort<T> = (PortTx<T>, PortRx<T>);

impl<T: Send + 'static> PortTx<T> {
    /// Arrival delay of this port's link.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Send a message; it arrives `delay` later. Cross-domain sends are
    /// queued in the source domain's outbox and delivered at the next
    /// window barrier (still timestamped `now + delay`); same-domain
    /// sends deliver directly. Never blocks.
    pub fn send(&self, value: T) -> Result<(), SendError> {
        if self.closed.load(Ordering::Relaxed) {
            return Err(SendError::Closed);
        }
        self.send_item(Item::Data(value));
        Ok(())
    }

    /// Close the port: a close marker travels the link with the same
    /// delay; after it arrives, receives fail with
    /// [`RecvError::Closed`]. Further sends fail immediately.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::Relaxed) {
            return;
        }
        self.send_item(Item::Closed);
    }

    fn send_item(&self, item: Item<T>) {
        with_current(|k, _me| {
            assert!(
                k.same_kernel(&self.src_kernel),
                "PortTx for domain {} used from a thread of another domain",
                self.src
            );
            let at = k.now() + self.delay;
            if self.src == self.dst {
                let waiter = deliver(&self.inner, at, item);
                if let Some(w) = waiter {
                    k.make_runnable(w);
                }
            } else {
                let seq = self.shared.send_seq[self.src as usize].fetch_add(1, Ordering::Relaxed);
                let inner = Arc::clone(&self.inner);
                self.shared.outboxes[self.src as usize]
                    .lock()
                    .unwrap()
                    .push(OutboxEntry {
                        time: at,
                        src: self.src,
                        seq,
                        dst: self.dst,
                        deliver: Box::new(move |dst_kernel: &Kernel| {
                            let waiter = deliver(&inner, at, item);
                            dst_kernel.wake_external_at(waiter, at);
                        }),
                    });
            }
        });
    }
}

/// Enqueue an item at its arrival time and detach one blocked receiver
/// (the caller wakes it appropriately for its side of the barrier).
fn deliver<T>(inner: &Arc<PortInner<T>>, at: SimTime, item: Item<T>) -> Option<Tid> {
    let mut st = inner.state.lock().unwrap();
    debug_assert!(
        st.queue.back().is_none_or(|&(t, _)| t <= at),
        "out-of-order port delivery"
    );
    st.queue.push_back((at, item));
    st.arrived += 1;
    if st.waiters.is_empty() {
        None
    } else {
        Some(st.waiters.remove(0))
    }
}

impl<T: Send + 'static> PortRx<T> {
    /// Receive the next message, blocking in virtual time until one
    /// arrives. Fails once the close marker is consumed.
    pub fn recv(&self) -> Result<T, RecvError> {
        let (k, me) = current();
        debug_assert!(
            k.same_kernel(&self.dst_kernel),
            "PortRx used from a thread of another domain"
        );
        loop {
            let wait_until = {
                let mut st = self.inner.state.lock().unwrap();
                match st.queue.front() {
                    Some(&(at, _)) if at <= k.now() => {
                        let (_, item) = st.queue.pop_front().unwrap();
                        match item {
                            Item::Data(v) => {
                                st.received += 1;
                                return Ok(v);
                            }
                            Item::Closed => {
                                st.closed_seen = true;
                                return Err(RecvError::Closed);
                            }
                        }
                    }
                    Some(&(at, _)) => Some(at),
                    None => {
                        if st.closed_seen {
                            return Err(RecvError::Closed);
                        }
                        st.waiters.push(me);
                        None
                    }
                }
            };
            match wait_until {
                Some(at) => k.wait(me, Wait::on("port", &self.inner.name, " latency").until(at)),
                None => k.wait(me, Wait::on("port", &self.inner.name, " empty")),
            }
        }
    }

    /// Receive with a virtual-time deadline: `Ok(Some(v))` on a
    /// message, `Ok(None)` once `deadline` passes with nothing
    /// arrived, `Err(Closed)` once the close marker is consumed. A
    /// message that arrives exactly at the deadline is received.
    pub fn recv_deadline(&self, deadline: SimTime) -> Result<Option<T>, RecvError> {
        let (k, me) = current();
        debug_assert!(
            k.same_kernel(&self.dst_kernel),
            "PortRx used from a thread of another domain"
        );
        loop {
            let wait_until = {
                let mut st = self.inner.state.lock().unwrap();
                if let Some(&(at, _)) = st.queue.front() {
                    if at <= k.now() {
                        let (_, item) = st.queue.pop_front().unwrap();
                        match item {
                            Item::Data(v) => {
                                st.received += 1;
                                return Ok(Some(v));
                            }
                            Item::Closed => {
                                st.closed_seen = true;
                                return Err(RecvError::Closed);
                            }
                        }
                    }
                }
                if st.queue.is_empty() && st.closed_seen {
                    return Err(RecvError::Closed);
                }
                if k.now() >= deadline {
                    // Timed out; make sure a barrier delivery can no
                    // longer pick us as the waiter to wake.
                    st.waiters.retain(|&t| t != me);
                    return Ok(None);
                }
                match st.queue.front() {
                    Some(&(at, _)) => at.min(deadline),
                    None => {
                        if !st.waiters.contains(&me) {
                            st.waiters.push(me);
                        }
                        deadline
                    }
                }
            };
            k.wait(
                me,
                Wait::on("port", &self.inner.name, " timed").until(wait_until),
            );
        }
    }

    /// Messages queued or in flight (arrived at the port but not yet
    /// received), including an unconsumed close marker.
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// True if nothing is queued or in flight.
    pub fn is_empty(&self) -> bool {
        self.inner.state.lock().unwrap().queue.is_empty()
    }

    /// Cumulative `(arrived, received)` counters. Arrivals are counted
    /// at delivery (the window barrier, for cross-domain ports), so
    /// `arrived - received` is the queue depth including close markers.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.inner.state.lock().unwrap();
        (st.arrived, st.received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{ms, us};
    use std::panic::AssertUnwindSafe;

    fn lookahead_50us() -> SimDuration {
        us(50)
    }

    #[test]
    fn single_domain_is_plain_kernel() {
        let mk = MultiKernel::new(MultiDomainConfig::new(1, SimDuration::ZERO));
        mk.enable_trace();
        let (tx, rx) = mk.port::<u32>("loop", 0, 0, us(5));
        mk.domain(0).spawn("rx", move || {
            assert_eq!(rx.recv().unwrap(), 7);
            assert_eq!(crate::kernel::now(), SimTime::ZERO + us(15));
            assert_eq!(rx.recv(), Err(RecvError::Closed));
        });
        mk.domain(0).spawn("tx", move || {
            crate::kernel::sleep(us(10));
            tx.send(7).unwrap();
            tx.close();
        });
        mk.run();
        assert_eq!(mk.rounds(), 0, "one domain must not run the barrier loop");
        let (len, digest) = mk.fingerprint();
        assert!(len > 0);
        assert_ne!(digest, 0);
    }

    #[test]
    fn cross_domain_message_arrives_at_exact_timestamp() {
        let mk = MultiKernel::new(MultiDomainConfig::new(2, lookahead_50us()));
        let (tx, rx) = mk.port::<u64>("x", 0, 1, us(60));
        let h = mk.domain(1).spawn("rx", move || {
            let v = rx.recv().unwrap();
            (v, crate::kernel::now())
        });
        mk.domain(0).spawn("tx", move || {
            crate::kernel::sleep(us(10));
            tx.send(42).unwrap();
        });
        mk.run();
        assert_eq!(h.take_result(), Some((42, SimTime::ZERO + us(70))));
    }

    #[test]
    fn cross_domain_round_trip_and_close() {
        let mk = MultiKernel::new(MultiDomainConfig::new(2, lookahead_50us()));
        let (req_tx, req_rx) = mk.port::<u64>("req", 0, 1, us(50));
        let (rsp_tx, rsp_rx) = mk.port::<u64>("rsp", 1, 0, us(50));
        mk.domain(1).spawn("echo", move || {
            while let Ok(v) = req_rx.recv() {
                rsp_tx.send(v + 1).unwrap();
            }
            rsp_tx.close();
        });
        let h = mk.domain(0).spawn("client", move || {
            let mut got = Vec::new();
            for i in 0..5u64 {
                req_tx.send(i * 10).unwrap();
                got.push(rsp_rx.recv().unwrap());
            }
            req_tx.close();
            assert_eq!(rsp_rx.recv(), Err(RecvError::Closed));
            (got, crate::kernel::now())
        });
        mk.run();
        let (got, end) = h.take_result().unwrap();
        assert_eq!(got, vec![1, 11, 21, 31, 41]);
        // 5 round trips of 100us plus the close round trip.
        assert_eq!(end, SimTime::ZERO + us(600));
    }

    #[test]
    fn window_skipping_bounds_round_count() {
        // Two domains sleeping in 1ms steps with a 50us lookahead: a
        // naive quantum scheme would need ~10ms/50us = 200 rounds; the
        // skipping coordinator needs roughly one per event cluster.
        let mk = MultiKernel::new(MultiDomainConfig::new(2, lookahead_50us()));
        for d in 0..2 {
            mk.domain(d).spawn(format!("sleeper-{d}"), || {
                for _ in 0..10 {
                    crate::kernel::sleep(ms(1));
                }
            });
        }
        mk.run();
        assert_eq!(mk.clock(0), SimTime::ZERO + ms(10));
        assert!(
            mk.rounds() < 50,
            "window skipping failed: {} rounds",
            mk.rounds()
        );
    }

    #[test]
    fn recv_deadline_times_out_then_receives_later() {
        let mk = MultiKernel::new(MultiDomainConfig::new(2, lookahead_50us()));
        let (tx, rx) = mk.port::<u8>("slow", 0, 1, us(50));
        let h = mk.domain(1).spawn("rx", move || {
            // Nothing in flight yet: times out at exactly the deadline.
            let miss = rx.recv_deadline(SimTime::ZERO + us(20)).unwrap();
            let t_miss = crate::kernel::now();
            // The message (sent at 100us, arrives 150us) beats this one.
            let hit = rx.recv_deadline(SimTime::ZERO + ms(1)).unwrap();
            let t_hit = crate::kernel::now();
            (miss, t_miss, hit, t_hit)
        });
        mk.domain(0).spawn("tx", move || {
            crate::kernel::sleep(us(100));
            tx.send(9).unwrap();
        });
        mk.run();
        let (miss, t_miss, hit, t_hit) = h.take_result().unwrap();
        assert_eq!(miss, None);
        assert_eq!(t_miss, SimTime::ZERO + us(20));
        assert_eq!(hit, Some(9));
        assert_eq!(t_hit, SimTime::ZERO + us(150));
    }

    #[test]
    fn deadline_before_delivery_leaves_message_queued() {
        // The delivery's wake must NOT supersede an earlier timeout:
        // the receiver times out first, and the message is received by
        // a later call.
        let mk = MultiKernel::new(MultiDomainConfig::new(2, lookahead_50us()));
        let (tx, rx) = mk.port::<u8>("q", 0, 1, us(50));
        let h = mk.domain(1).spawn("rx", move || {
            let miss = rx.recv_deadline(SimTime::ZERO + us(55)).unwrap();
            // Sent at 0, arrives at 50... wait, that would hit. Use the
            // second message: sent at 200us, arrives 250us; deadline
            // 210us is after the *timeout registration* but before
            // arrival.
            let miss2 = rx.recv_deadline(SimTime::ZERO + us(210)).unwrap();
            let v = rx.recv().unwrap();
            (miss, miss2, v, crate::kernel::now())
        });
        mk.domain(0).spawn("tx", move || {
            crate::kernel::sleep(us(200));
            tx.send(3).unwrap();
        });
        mk.run();
        let (miss, miss2, v, t) = h.take_result().unwrap();
        assert_eq!(miss, None);
        assert_eq!(miss2, None);
        assert_eq!(v, 3);
        assert_eq!(t, SimTime::ZERO + us(250));
    }

    #[test]
    fn fixed_domain_count_runs_are_identical() {
        let fingerprint = |policy: SchedPolicy| {
            let mk =
                MultiKernel::new(MultiDomainConfig::new(4, lookahead_50us()).with_policy(policy));
            mk.enable_trace();
            let mut txs = Vec::new();
            let mut rxs = Vec::new();
            for d in 0..4u32 {
                let nxt = (d + 1) % 4;
                let (tx, rx) = mk.port::<u64>(format!("ring-{d}-{nxt}"), d, nxt, us(50));
                txs.push(Some(tx));
                rxs.push(Some(rx));
            }
            rxs.rotate_right(1); // node d receives from port (d-1) -> d
            for d in 0..4u32 {
                let tx = txs[d as usize].take().unwrap();
                let rx = rxs[d as usize].take().unwrap();
                mk.domain(d).spawn(format!("node-{d}"), move || {
                    for i in 0..20u64 {
                        tx.send(d as u64 * 1000 + i).unwrap();
                        crate::kernel::sleep(us(7 + d as u64));
                        let _ = rx.recv().unwrap();
                    }
                    tx.close();
                    while rx.recv().is_ok() {}
                });
            }
            mk.run();
            mk.fingerprint()
        };
        for policy in [SchedPolicy::Fifo, SchedPolicy::Random(0xfeed)] {
            let a = fingerprint(policy);
            let b = fingerprint(policy);
            assert!(a.0 > 0);
            assert_eq!(
                a, b,
                "multi-domain run must replay identically under {policy:?}"
            );
        }
    }

    #[test]
    fn cross_domain_deadlock_dumps_every_domain() {
        let mk = MultiKernel::new(MultiDomainConfig::new(2, lookahead_50us()));
        mk.set_dump_note("scenario=stall-test");
        let (_tx, rx) = mk.port::<u8>("never", 0, 1, us(50));
        mk.domain(1).spawn("starved", move || {
            let _ = rx.recv(); // no sender ever: blocks forever
        });
        mk.domain(0).spawn("quick", || {
            crate::kernel::sleep(us(5));
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| mk.run()))
            .expect_err("cross-domain stall must abort the run");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("cross-domain deadlock"), "{msg}");
        assert!(msg.contains("domain 0: finished"), "{msg}");
        assert!(msg.contains("domain 1: stalled"), "{msg}");
        assert!(msg.contains("safe horizon"), "{msg}");
        assert!(msg.contains("port 'never' empty"), "{msg}");
        assert!(msg.contains("context: scenario=stall-test"), "{msg}");
    }

    #[test]
    fn domain_failure_reports_other_domains() {
        let mk = MultiKernel::new(MultiDomainConfig::new(2, lookahead_50us()));
        let (_tx, rx) = mk.port::<u8>("idle", 0, 1, us(50));
        mk.domain(1).spawn("waiter", move || {
            let _ = rx.recv();
        });
        mk.domain(0).spawn("bomb", || {
            crate::kernel::sleep(us(10));
            panic!("kaboom");
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| mk.run()))
            .expect_err("panic in one domain must abort the run");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("domain 0 failed"), "{msg}");
        assert!(msg.contains("kaboom"), "{msg}");
        assert!(msg.contains("domain 1: stalled"), "{msg}");
        assert!(msg.contains("port 'idle' empty"), "{msg}");
    }

    #[test]
    fn deliveries_to_finished_domain_are_dropped() {
        let mk = MultiKernel::new(MultiDomainConfig::new(2, lookahead_50us()));
        let (tx, _rx) = mk.port::<u8>("into-void", 1, 0, us(50));
        mk.domain(0).spawn("gone", || {}); // finishes immediately
        mk.domain(1).spawn("talker", move || {
            for _ in 0..3 {
                crate::kernel::sleep(us(100));
                tx.send(1).unwrap();
            }
        });
        mk.run();
        assert_eq!(mk.dropped_deliveries(), 3);
    }

    #[test]
    fn port_delay_below_lookahead_is_rejected() {
        let mk = MultiKernel::new(MultiDomainConfig::new(2, lookahead_50us()));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = mk.port::<u8>("too-fast", 0, 1, us(10));
        }));
        assert!(err.is_err());
        // Same-domain ports may go below the lookahead.
        let _ = mk.port::<u8>("local", 1, 1, us(1));
    }

    #[test]
    fn random_policy_salts_domains_but_not_domain_zero() {
        assert_eq!(salted(SchedPolicy::Random(9), 0), SchedPolicy::Random(9));
        assert_ne!(salted(SchedPolicy::Random(9), 1), SchedPolicy::Random(9));
        assert_ne!(
            salted(SchedPolicy::Random(9), 1),
            salted(SchedPolicy::Random(9), 2)
        );
        assert_eq!(salted(SchedPolicy::Fifo, 3), SchedPolicy::Fifo);
    }
}
