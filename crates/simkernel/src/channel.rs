//! Simulated message channels with observable in-flight state.
//!
//! [`SimChannel`] is an MPMC queue in virtual time with three features the
//! plain `std` channels lack, all of which the Snapify reproduction needs:
//!
//! * **optional per-message latency** — a message sent at `t` becomes
//!   receivable at `t + latency`, modelling a transport (e.g. a PCIe
//!   doorbell) rather than shared memory;
//! * **optional capacity** — senders block when the queue is full,
//!   modelling bounded kernel buffers;
//! * **inspectable occupancy** — [`SimChannel::len`] and
//!   [`SimChannel::is_drained`] let a test *prove* a channel was empty when
//!   a snapshot was taken, which is the consistency property at the heart
//!   of the paper (§3 "Capturing consistent, distributed snapshots").
//!
//! Channels can also be *closed*; receivers then drain the queue and get
//! [`RecvError::Closed`], and senders get [`SendError::Closed`].

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::kernel::{current, with_current, Kernel, Tid};
use crate::time::{SimDuration, SimTime};
use crate::wait::{block_on, Polled, Wait};

/// Error returned by [`SimChannel::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The channel was closed.
    Closed,
}

/// Error returned by [`SimChannel::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The channel is closed and empty.
    Closed,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "send on closed channel")
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recv on closed, empty channel")
    }
}

impl std::error::Error for SendError {}
impl std::error::Error for RecvError {}

struct ChanState<T> {
    queue: VecDeque<(SimTime, T)>, // (ready_at, message)
    recv_waiters: VecDeque<Tid>,
    send_waiters: VecDeque<Tid>,
    closed: bool,
    /// Cumulative counters, for tests and statistics.
    sent: u64,
    received: u64,
}

struct ChanInner<T> {
    name: Arc<str>,
    state: Mutex<ChanState<T>>,
    capacity: Option<usize>,
    latency: SimDuration,
}

/// A simulated MPMC channel. Clone freely; all clones share the queue.
pub struct SimChannel<T> {
    inner: Arc<ChanInner<T>>,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: fmt::Debug + Send + 'static> fmt::Debug for SimChannel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimChannel")
            .field("name", &self.inner.name)
            .field("len", &self.len())
            .finish()
    }
}

impl<T: Send + 'static> SimChannel<T> {
    /// Unbounded channel with zero latency (shared-memory queue).
    pub fn unbounded(name: impl Into<String>) -> SimChannel<T> {
        Self::with_options(name, None, SimDuration::ZERO)
    }

    /// Bounded channel with zero latency.
    pub fn bounded(name: impl Into<String>, capacity: usize) -> SimChannel<T> {
        assert!(capacity > 0);
        Self::with_options(name, Some(capacity), SimDuration::ZERO)
    }

    /// Fully-configurable constructor.
    pub fn with_options(
        name: impl Into<String>,
        capacity: Option<usize>,
        latency: SimDuration,
    ) -> SimChannel<T> {
        SimChannel {
            inner: Arc::new(ChanInner {
                name: name.into().into(),
                state: Mutex::new(ChanState {
                    queue: VecDeque::new(),
                    recv_waiters: VecDeque::new(),
                    send_waiters: VecDeque::new(),
                    closed: false,
                    sent: 0,
                    received: 0,
                }),
                capacity,
                latency,
            }),
        }
    }

    /// Send a message, blocking in virtual time while the channel is full.
    pub fn send(&self, value: T) -> Result<(), SendError> {
        let (kernel, me) = current();
        let mut value = Some(value);
        loop {
            {
                let mut st = self.inner.state.lock().unwrap();
                if st.closed {
                    return Err(SendError::Closed);
                }
                let full = self
                    .inner
                    .capacity
                    .map(|c| st.queue.len() >= c)
                    .unwrap_or(false);
                if !full {
                    let ready_at = kernel.now() + self.inner.latency;
                    st.queue.push_back((ready_at, value.take().unwrap()));
                    st.sent += 1;
                    let waiter = st.recv_waiters.pop_front();
                    drop(st);
                    if let Some(w) = waiter {
                        kernel.make_runnable(w);
                    }
                    return Ok(());
                }
                st.send_waiters.push_back(me);
            }
            kernel.wait(me, Wait::on("channel", &self.inner.name, " full"));
        }
    }

    /// Send without blocking. Fails if the channel is full or closed.
    /// Never takes the scheduler lock unless a blocked receiver must be
    /// woken.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        with_current(|kernel, _| {
            let mut st = self.inner.state.lock().unwrap();
            if st.closed {
                return Err(value);
            }
            let full = self
                .inner
                .capacity
                .map(|c| st.queue.len() >= c)
                .unwrap_or(false);
            if full {
                return Err(value);
            }
            let ready_at = kernel.now() + self.inner.latency;
            st.queue.push_back((ready_at, value));
            st.sent += 1;
            let waiter = st.recv_waiters.pop_front();
            drop(st);
            if let Some(w) = waiter {
                kernel.make_runnable(w);
            }
            Ok(())
        })
    }

    /// Receive a message, blocking in virtual time until one is available
    /// (and, with latency, until it has *arrived*).
    pub fn recv(&self) -> Result<T, RecvError> {
        block_on(|| self.poll_recv())
    }

    /// The non-blocking core of [`SimChannel::recv`]: the next message if
    /// one has arrived, `Closed` on a closed and empty channel; otherwise
    /// what to wait for — the front message's arrival time, or (with the
    /// caller registered as a receiver) a sender's wake-up.
    pub fn poll_recv(&self) -> Polled<Result<T, RecvError>> {
        with_current(|kernel, me| {
            let mut st = self.inner.state.lock().unwrap();
            if let Some(v) = self.pop_arrived(&mut st, kernel) {
                return Polled::Ready(Ok(v));
            }
            let name = &self.inner.name;
            match st.queue.front() {
                Some((ready_at, _)) => {
                    Polled::Wait(Wait::on("channel", name, " latency").until(*ready_at))
                }
                None if st.closed => Polled::Ready(Err(RecvError::Closed)),
                None => {
                    st.recv_waiters.push_back(me);
                    Polled::Wait(Wait::on("channel", name, " empty"))
                }
            }
        })
    }

    /// Receive without blocking. `None` if nothing has arrived yet.
    /// Never takes the scheduler lock unless a blocked sender must be
    /// woken.
    pub fn try_recv(&self) -> Option<T> {
        with_current(|kernel, _| self.pop_arrived(&mut self.inner.state.lock().unwrap(), kernel))
    }

    /// Pop the front message if it has arrived, waking a sender blocked on
    /// the slot it frees.
    fn pop_arrived(&self, st: &mut ChanState<T>, kernel: &Kernel) -> Option<T> {
        match st.queue.front() {
            Some((ready_at, _)) if *ready_at <= kernel.now() => {}
            _ => return None,
        }
        let (_, v) = st.queue.pop_front()?;
        st.received += 1;
        if let Some(w) = st.send_waiters.pop_front() {
            kernel.make_runnable(w);
        }
        Some(v)
    }

    /// Close the channel: pending messages remain receivable; new sends
    /// fail; blocked senders and receivers are woken.
    pub fn close(&self) {
        let (kernel, _) = current();
        let (rw, sw) = {
            let mut st = self.inner.state.lock().unwrap();
            st.closed = true;
            (
                st.recv_waiters.drain(..).collect::<Vec<_>>(),
                st.send_waiters.drain(..).collect::<Vec<_>>(),
            )
        };
        for w in rw.into_iter().chain(sw) {
            kernel.make_runnable(w);
        }
    }

    /// Whether [`SimChannel::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.state.lock().unwrap().closed
    }

    /// Number of messages queued (sent but not received), including ones
    /// still "in flight" under the latency model.
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// True if no message is queued or in flight. This is the *drained*
    /// predicate used to verify snapshot consistency.
    pub fn is_drained(&self) -> bool {
        self.is_empty()
    }

    /// True if the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.state.lock().unwrap().queue.is_empty()
    }

    /// Cumulative (sent, received) counters.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.inner.state.lock().unwrap();
        (st.sent, st.received)
    }

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{now, sleep, spawn, Kernel};
    use crate::time::{ms, SimTime};

    #[test]
    fn send_recv_roundtrip() {
        Kernel::run_root(|| {
            let ch = SimChannel::unbounded("c");
            ch.send(1).unwrap();
            ch.send(2).unwrap();
            assert_eq!(ch.recv().unwrap(), 1);
            assert_eq!(ch.recv().unwrap(), 2);
            assert_eq!(ch.stats(), (2, 2));
        });
    }

    #[test]
    fn recv_blocks_until_send() {
        Kernel::run_root(|| {
            let ch = SimChannel::unbounded("c");
            let ch2 = ch.clone();
            let h = spawn("rx", move || {
                let v = ch2.recv().unwrap();
                (v, now())
            });
            sleep(ms(15));
            ch.send(99).unwrap();
            assert_eq!(h.join(), (99, SimTime::ZERO + ms(15)));
        });
    }

    #[test]
    fn latency_delays_delivery() {
        Kernel::run_root(|| {
            let ch: SimChannel<u32> = SimChannel::with_options("pcie", None, ms(3));
            ch.send(7).unwrap();
            assert_eq!(ch.try_recv(), None); // not arrived yet
            assert!(!ch.is_drained()); // but in flight!
            let v = ch.recv().unwrap();
            assert_eq!(v, 7);
            assert_eq!(now(), SimTime::ZERO + ms(3));
        });
    }

    #[test]
    fn bounded_send_blocks_when_full() {
        Kernel::run_root(|| {
            let ch = SimChannel::bounded("c", 1);
            ch.send(1).unwrap();
            let ch2 = ch.clone();
            let h = spawn("tx", move || {
                ch2.send(2).unwrap();
                now()
            });
            sleep(ms(20));
            assert_eq!(ch.recv().unwrap(), 1);
            let sent_at = h.join();
            assert_eq!(sent_at, SimTime::ZERO + ms(20));
            assert_eq!(ch.recv().unwrap(), 2);
        });
    }

    #[test]
    fn try_send_fails_when_full() {
        Kernel::run_root(|| {
            let ch = SimChannel::bounded("c", 1);
            assert!(ch.try_send(1).is_ok());
            assert_eq!(ch.try_send(2), Err(2));
        });
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        Kernel::run_root(|| {
            let ch: SimChannel<u32> = SimChannel::unbounded("c");
            let ch2 = ch.clone();
            let h = spawn("rx", move || ch2.recv());
            sleep(ms(5));
            ch.close();
            assert_eq!(h.join(), Err(RecvError::Closed));
            assert_eq!(ch.send(1), Err(SendError::Closed));
        });
    }

    #[test]
    fn close_drains_remaining_messages() {
        Kernel::run_root(|| {
            let ch = SimChannel::unbounded("c");
            ch.send(1).unwrap();
            ch.close();
            assert_eq!(ch.recv().unwrap(), 1);
            assert_eq!(ch.recv(), Err(RecvError::Closed));
        });
    }

    #[test]
    fn drained_predicate_tracks_in_flight() {
        Kernel::run_root(|| {
            let ch: SimChannel<u32> = SimChannel::with_options("c", None, ms(2));
            assert!(ch.is_drained());
            ch.send(1).unwrap();
            assert!(!ch.is_drained());
            ch.recv().unwrap();
            assert!(ch.is_drained());
        });
    }

    #[test]
    fn mpmc_all_messages_delivered_once() {
        Kernel::run_root(|| {
            let ch = SimChannel::unbounded("c");
            let total = 100u32;
            let mut rx_handles = Vec::new();
            for i in 0..4 {
                let ch = ch.clone();
                rx_handles.push(spawn(format!("rx{i}"), move || {
                    let mut got = Vec::new();
                    while let Ok(v) = ch.recv() {
                        got.push(v);
                    }
                    got
                }));
            }
            for i in 0..total {
                ch.send(i).unwrap();
                if i % 7 == 0 {
                    sleep(ms(1));
                }
            }
            sleep(ms(10));
            ch.close();
            let mut all: Vec<u32> = rx_handles.into_iter().flat_map(|h| h.join()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..total).collect::<Vec<_>>());
        });
    }

    #[test]
    fn fifo_order_preserved_single_consumer() {
        Kernel::run_root(|| {
            let ch = SimChannel::with_options("c", None, ms(1));
            for i in 0..10 {
                ch.send(i).unwrap();
            }
            let got: Vec<u32> = (0..10).map(|_| ch.recv().unwrap()).collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
        });
    }
}
