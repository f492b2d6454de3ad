//! The cooperative virtual-time scheduler.
//!
//! # Execution model
//!
//! Every *simulated thread* runs on a stack of its own, a *context*
//! (`context.rs` is that half of the kernel) — or, if it is a *stepped
//! service* (below), on whichever stack is dispatching — and all of a
//! kernel's contexts run on one OS thread, its *carrier*, so **exactly
//! one simulated thread executes at any moment**. A single "token" is
//! handed from thread to thread by the scheduler: a thread runs until it
//! performs a blocking simulation operation (sleep, lock acquisition,
//! channel receive, join, …), at which point it selects the next runnable
//! thread — the one with the earliest pending wake-up time — advances the
//! virtual clock to that time, marks it as the token holder, and switches
//! stacks to it. The carrier's own loop gets the token back only when the
//! run is over or paused at a window horizon.
//!
//! This "single token" discipline has two important consequences that the
//! rest of the workspace relies on:
//!
//! 1. **Determinism.** Wake-ups are ordered by `(virtual time, sequence
//!    number)`, and sequence numbers are assigned in program order, so the
//!    whole simulation is a deterministic function of its inputs. Running the
//!    same scenario twice produces an identical event trace (see
//!    [`Kernel::trace`]), which makes "checkpoint at a random virtual time"
//!    a reproducible property test rather than a flaky stress test.
//!
//! 2. **No data races between simulated threads.** Because only one
//!    simulated thread runs at a time, the internal bookkeeping of the
//!    higher-level primitives ([`crate::sync`], [`crate::channel`]) only
//!    needs uncontended `std::sync::Mutex`es; a simulated thread never
//!    blocks on a *real* lock held by another simulated thread.
//!
//! # Hot-path design
//!
//! Dispatch is the wall-clock bottleneck of every test and bench in the
//! workspace, so a hand-off costs no host scheduling at all:
//!
//! * **A stack switch, not a wake-up.** Dispatch *chooses* under the
//!   scheduler lock — marks the pick `Running`, returns its tid — and the
//!   blocking thread drops the lock and switches to the pick's stack:
//!   callee-saved registers pushed, `rsp` swapped, no futex, no system
//!   call. A pick of the blocking thread itself switches nothing. A
//!   thread's stack is mapped at spawn, from a free list of warm ones, and
//!   handed back by the context that runs after its last switch.
//! * **Thread table: tids dense and never reused; slots are.** A tid
//!   indexes a slot map (`threads.rs`), not a `HashMap` (no hashing on
//!   every dispatch), and a finished thread's slot goes to the next spawn:
//!   the table holds the threads alive, not every thread ever spawned.
//! * **Lock-free clock reads.** The virtual clock is mirrored in an
//!   `AtomicU64` updated at dispatch; [`Kernel::now`] is a relaxed load,
//!   so channel sends, observability timestamps, and cost-model queries
//!   never take the scheduler lock. This is sound because time only
//!   advances in dispatch, on the carrier every simulated thread runs on.
//! * **Allocation-free blocking.** What a thread waits for is a [`Wait`]:
//!   a static kind and suffix around the primitive's name, which the
//!   primitive keeps as an `Arc<str>` — blocking clones a pointer. A trace
//!   label is formatted straight into the trace's running digest and
//!   becomes a `String` only under [`Kernel::keep_trace`].
//! * **Stepped services.** A simulated thread whose body is `wait →
//!   handle → wait` needs no stack. [`Kernel::spawn_stepped`] creates one
//!   like any other — tid, name, `spawn` event, run-queue entry, joiners, a
//!   line in deadlock dumps — around a *step*: a closure that does what the
//!   body would do between two blocking points and returns what it would
//!   then block on ([`Step::Wait`]) or that it is finished ([`Step::Exit`]).
//!   When its turn comes, dispatch marks it `Running`, **releases the
//!   scheduler lock**, makes it the carrier's current thread, runs the step
//!   on the dispatching stack, and carries out what it returned through the
//!   code a blocking thread runs (`release_token`, `retire`): sequence
//!   numbers, generations, tie-break draws, the livelock streak and every
//!   trace event are those of the thread body. A step may do anything a
//!   thread may *except block*: the primitives' `poll_*` cores
//!   ([`crate::wait`]) say what to wait for, and a step that reaches a
//!   blocking call fails the run by name. [`Kernel::sleep_poll`] leaves a
//!   step that answers [`Step::Idle`], or [`Step::Wake`] to be switched to.
//! * **Tickless idle.** [`Step::Idle`] is a sleep to the next tick plus a
//!   promise: the turn changed nothing, and every turn before `until` would
//!   end the same *as long as nothing else happens in this domain* — a
//!   thread switched to, a step answering anything but `Idle`, a window
//!   barrier delivering into it: each clears the promises in force. The
//!   pick is untouched — pop, horizon check, livelock streak, tie-break
//!   draw, clock advance — and *then* a thread picked under its promise has
//!   its answer performed right there, under the lock, for that tick and
//!   every later one the queue would hand out before anything else: the
//!   ticks strictly before the earliest queued entry, the promise's `until`
//!   and the horizon (`runq.rs`, `release_idle_run`). A run leaves what one
//!   pick per tick leaves — clock, sequence numbers, generation,
//!   `inline_polls`, livelock streak, one traced event per tick — and one
//!   entry queued, at the first tick past the run. Pollers interleaved on
//!   one grid bound each other's runs to a tick each. A debug build runs
//!   the step instead and fails the run by name on another answer. A
//!   pausing domain reports `next_effective`, not its next tick.
//!
//! # Deadlock detection
//!
//! If every live simulated thread is blocked and no timed wake-up is
//! pending, the simulation cannot make progress. The kernel detects this,
//! aborts the run, and panics in [`Kernel::run`] with a dump of every
//! blocked thread, the reason it blocked, and how long (in virtual time)
//! it has been parked. This turns protocol bugs (e.g. an incorrect drain
//! order in Snapify's pause) into crisp test failures.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use crate::time::{SimDuration, SimTime};
use crate::wait::{Step, StepFn, Tick, Wait};

#[path = "context.rs"]
mod context;
#[path = "dumps.rs"]
mod dumps;
#[path = "runq.rs"]
mod runq;
#[path = "threads.rs"]
mod threads;
use context::Context;
pub(crate) use dumps::push_flight_tail;
use dumps::{deadlock_dump, livelock_dump, payload_to_string, push_blocked_threads};
use runq::{
    next_effective, pop_random_tie, pop_valid, release_idle, release_idle_run, release_token,
    requeue, Picked,
};
use threads::{TState, ThreadInfo, Threads};

/// Identifier of a simulated thread.
pub type Tid = u32;

/// Dispatch policy of the scheduler.
///
/// Both policies advance virtual time identically — the next dispatch
/// always goes to a thread whose wake-up time is the minimum over the
/// run queue — so cost models and timings are policy-independent. What
/// a policy chooses is the *tie-break* among threads runnable at that
/// same minimum time:
///
/// * [`SchedPolicy::Fifo`] (the default) breaks ties by sequence
///   number, i.e. program order. This is the historical behaviour that
///   the golden-trace and determinism tests pin down byte-for-byte.
/// * [`SchedPolicy::Random`] breaks ties uniformly at random using a
///   splitmix64 PRNG seeded from the given value — the same generator
///   as the workspace's proptest stub. Every interleaving is a pure
///   function of `(seed, program)`, so any schedule found by the chaos
///   explorer is replayable from the seed alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Deterministic FIFO tie-break (sequence/program order).
    #[default]
    Fifo,
    /// Seeded uniform-random tie-break among threads runnable at the
    /// minimum wake-up time. Deterministic per seed.
    Random(u64),
}

/// One step of the splitmix64 generator (same constants as the
/// proptest stub's `TestRng`), so scheduler interleavings and
/// property-test inputs share a single, documented PRNG.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An entry in the deterministic event trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time at which the event occurred.
    pub time: SimTime,
    /// Thread the event concerns.
    pub tid: Tid,
    /// Human-readable event label (e.g. `"spawn"`, `"block: sleep"`).
    pub label: String,
}

/// The event trace, folded as it happens: a count and a running FNV-1a
/// over `(time, tid, label, 0xff)` per event. Most runs only ever compare
/// `(trace_len, trace_digest)`, so the events themselves — millions, a
/// `String` each — are kept only on request ([`Kernel::keep_trace`]).
struct Trace {
    on: bool,
    len: usize,
    fnv: u64,
    events: Option<Vec<TraceEvent>>,
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// A label is digested piece by piece as `format_args!` renders it.
impl fmt::Write for Trace {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.fnv = fnv1a(self.fnv, s.as_bytes());
        Ok(())
    }
}

/// A simulated thread's closure, wrapped to store its result in the
/// [`JoinHandle`]; run on a [`Context`] of its own.
type Job = Box<dyn FnOnce() + Send>;

struct Sched {
    now: SimTime,
    seq: u64,
    /// Min-heap of `(wake time, sequence, tid, generation)`.
    runq: BinaryHeap<Reverse<(SimTime, u64, Tid, u64)>>,
    /// The unfinished threads, by tid (`threads.rs`).
    threads: Threads,
    /// The current token holder (None while the token is being handed off).
    running: Option<Tid>,
    live: usize,
    done: bool,
    failure: Option<String>,
    trace: Trace,
    /// The carrier is done with this kernel: run over and torn down (or
    /// left alone, if failed), or abandoned mid-teardown.
    finished: bool,
    /// A destructor blocked mid-teardown: the carrier is parked for good.
    abandoned: bool,
    /// Tie-break policy; `rng` is the splitmix64 state for `Random`.
    policy: SchedPolicy,
    rng: u64,
    /// Abort with a livelock dump after this many consecutive dispatches
    /// without virtual-time progress (`None` = detection off).
    livelock_threshold: Option<u64>,
    /// Consecutive dispatches at an unchanged virtual time.
    same_time_streak: u64,
    /// Steps that ended in [`Step::Wait`]: turns dispatch completed itself,
    /// switching to no thread's stack.
    inline_polls: u64,
    /// Picks that answered promised ticks in place of their step, each a
    /// run of one or more (`runq.rs`, `release_idle_run`).
    idle_runs: u64,
    /// A step is running (scheduler lock released, `running` set): the
    /// only simulated code executing is that step, and it may not block.
    in_step: bool,
    /// The idle promises in force (module docs), cleared by what they do not
    /// cover: a thread switched to, a step answering anything but `Idle`, a
    /// delivery. Not in [`ThreadInfo`]: tens of thousands of those a run.
    idlers: Vec<Idler>,
    /// Free-form context (e.g. the active fault schedule) appended to
    /// deadlock/livelock dumps.
    dump_note: Option<String>,
    /// Multi-domain stepping (see [`crate::domain`]): when `bounded`,
    /// an empty run queue with live threads pauses the domain instead
    /// of declaring a local deadlock (a cross-domain delivery may still
    /// arrive at the next window barrier), and dispatch refuses to
    /// advance to `horizon` or beyond.
    bounded: bool,
    /// Exclusive upper bound on event times this domain may execute.
    horizon: Option<SimTime>,
    /// Set when dispatch stops at the horizon (or on an empty queue in
    /// bounded mode); cleared by the next `step_until`.
    paused: bool,
    /// [`next_effective`] at pause (`None` = this domain has no pending
    /// events at all).
    paused_next: Option<SimTime>,
}

/// A [`Step::Idle`] in force: `tid`'s answer, nothing having happened since.
#[derive(Clone, Copy, PartialEq)]
struct Idler {
    tid: Tid,
    every: SimDuration,
    until: Option<SimTime>,
}

impl Sched {
    /// The idle promise that answers `tid`'s tick at `t`, if one holds.
    fn promise(&self, tid: Tid, t: SimTime) -> Option<Idler> {
        let idle = *self.idlers.get(self.info(tid).idle as usize)?;
        (idle.tid == tid && idle.until.is_none_or(|u| t < u)).then_some(idle)
    }

    /// `idle.tid` answered [`Step::Idle`]: its promise is in force.
    fn promised(&mut self, idle: Idler) {
        let slot = self.info(idle.tid).idle as usize;
        match self.idlers.get_mut(slot) {
            Some(mine) if mine.tid == idle.tid => *mine = idle,
            _ => {
                self.info_mut(idle.tid).idle = self.idlers.len() as u32;
                self.idlers.push(idle);
            }
        }
    }

    #[inline]
    fn info(&self, tid: Tid) -> &ThreadInfo {
        self.threads.info(tid)
    }

    #[inline]
    fn info_mut(&mut self, tid: Tid) -> &mut ThreadInfo {
        self.threads.info_mut(tid)
    }

    /// The stack `tid` runs on: it is switched to, or switches away.
    fn context(&self, tid: Tid) -> &Context {
        self.info(tid)
            .ctx
            .as_deref()
            .expect("a thread with a stack")
    }
}

struct Inner {
    sched: Mutex<Sched>,
    /// Mirror of `Sched::now`, updated at dispatch: clock reads are a
    /// relaxed load instead of a scheduler-lock round-trip.
    now_ns: AtomicU64,
    /// The caller of `Kernel::run` (or the multi-domain coordinator)
    /// waits here for the carrier to finish.
    driver_cv: Condvar,
    /// The carrier's stack pointer, saved while a context runs; written
    /// and read on the carrier only.
    carrier: AtomicUsize,
    /// Teardown has begun: the obs clock reads "outside a simulation".
    torn_down: AtomicBool,
    /// Domain id of this kernel in a multi-domain run (0 outside one),
    /// mixed into observability thread ids (`tid | domain << 24`) so
    /// per-domain event streams stay distinct in the shared flight
    /// recorder and Chrome trace.
    domain_tag: AtomicU32,
}

/// Handle to a simulation kernel. Cheap to clone; all clones refer to the
/// same virtual clock and scheduler.
#[derive(Clone)]
pub struct Kernel {
    inner: Arc<Inner>,
}

thread_local! {
    static CTX: RefCell<Option<(Kernel, Tid)>> = const { RefCell::new(None) };
}

/// Returns the kernel and thread id of the calling simulated thread.
///
/// # Panics
/// Panics if called from outside a simulated thread.
pub fn current() -> (Kernel, Tid) {
    with_current(|k, t| (k.clone(), t))
}

/// Returns just the thread id of the calling simulated thread, without
/// cloning the kernel handle (fast path for uncontended primitives).
///
/// # Panics
/// Panics if called from outside a simulated thread.
pub(crate) fn current_tid() -> Tid {
    with_current(|_, t| t)
}

/// Runs `f` with the calling simulated thread's kernel and tid, without
/// cloning the kernel handle. Must not be used around a blocking call
/// (the thread-local stays borrowed for the closure's duration).
pub(crate) fn with_current<R>(f: impl FnOnce(&Kernel, Tid) -> R) -> R {
    CTX.with(|c| {
        let b = c.borrow();
        let (k, t) = b
            .as_ref()
            .expect("not inside a simulated thread: simkernel primitives may only be used from threads spawned via Kernel::spawn");
        f(k, *t)
    })
}

/// Returns `true` if the caller is a simulated thread.
pub fn in_simulation() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.inner.sched.lock().unwrap();
        f.debug_struct("Kernel")
            .field("now", &s.now)
            .field("live", &s.live)
            .finish()
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Create a new kernel with the clock at `t = 0`, no threads, and the
    /// default [`SchedPolicy::Fifo`] dispatch policy.
    pub fn new() -> Kernel {
        Self::new_with_policy(SchedPolicy::Fifo)
    }

    /// Create a new kernel using the given dispatch [`SchedPolicy`].
    pub fn new_with_policy(policy: SchedPolicy) -> Kernel {
        // Register the virtual clock as the observability timestamp
        // source (idempotent; first installation wins process-wide).
        snapify_obs::install_clock(obs_clock);
        let rng = match policy {
            SchedPolicy::Fifo => 0,
            SchedPolicy::Random(seed) => seed,
        };
        Kernel {
            inner: Arc::new(Inner {
                sched: Mutex::new(Sched {
                    now: SimTime::ZERO,
                    seq: 0,
                    runq: BinaryHeap::new(),
                    threads: Threads::default(),
                    running: None,
                    live: 0,
                    done: false,
                    failure: None,
                    trace: Trace {
                        on: false,
                        len: 0,
                        fnv: 0xcbf2_9ce4_8422_2325,
                        events: None,
                    },
                    finished: false,
                    abandoned: false,
                    policy,
                    rng,
                    livelock_threshold: None,
                    same_time_streak: 0,
                    inline_polls: 0,
                    idle_runs: 0,
                    in_step: false,
                    idlers: Vec::new(),
                    dump_note: None,
                    bounded: false,
                    horizon: None,
                    paused: false,
                    paused_next: None,
                }),
                now_ns: AtomicU64::new(0),
                driver_cv: Condvar::new(),
                carrier: AtomicUsize::new(0),
                torn_down: AtomicBool::new(false),
                domain_tag: AtomicU32::new(0),
            }),
        }
    }

    /// The dispatch policy this kernel was created with.
    pub fn policy(&self) -> SchedPolicy {
        self.inner.sched.lock().unwrap().policy
    }

    /// Abort the simulation with a livelock dump if `threshold`
    /// consecutive dispatches happen without virtual-time progress
    /// (`None` disables detection, the default). A livelocked run —
    /// e.g. threads yielding to each other forever under
    /// [`SchedPolicy::Random`] — never triggers deadlock detection
    /// because the run queue is never empty; this bound turns it into
    /// a crisp failure instead of a wall-clock hang.
    pub fn set_livelock_threshold(&self, threshold: Option<u64>) {
        let mut s = self.inner.sched.lock().unwrap();
        s.livelock_threshold = threshold;
        s.same_time_streak = 0;
    }

    /// Attach free-form context to deadlock/livelock dumps (e.g. the
    /// active fault schedule), so an aborted chaos run reports *what
    /// world* it was aborted in, not just which threads were stuck.
    pub fn set_dump_note(&self, note: impl Into<String>) {
        self.inner.sched.lock().unwrap().dump_note = Some(note.into());
    }

    /// Enable event tracing: events are counted and folded into
    /// [`Kernel::trace_digest`], not stored. Call before [`Kernel::run`].
    pub fn enable_trace(&self) {
        self.inner.sched.lock().unwrap().trace.on = true;
    }

    /// [`Kernel::enable_trace`], and keep every event for
    /// [`Kernel::trace`] to hand back — for runs whose events are read,
    /// not just compared.
    pub fn keep_trace(&self) {
        let mut s = self.inner.sched.lock().unwrap();
        s.trace.on = true;
        s.trace.events.get_or_insert_with(Vec::new);
    }

    /// Take the kept events (empty unless [`Kernel::keep_trace`] was
    /// called). Draining: later events are no longer kept and a second
    /// call returns an empty vector; the count and digest run on.
    pub fn trace(&self) -> Vec<TraceEvent> {
        let mut s = self.inner.sched.lock().unwrap();
        s.trace.events.take().unwrap_or_default()
    }

    /// Number of events traced so far.
    pub fn trace_len(&self) -> usize {
        self.inner.sched.lock().unwrap().trace.len
    }

    /// FNV-1a digest of the events traced so far. Two runs are
    /// trace-identical iff their digests and [`Kernel::trace_len`] match
    /// — use this for determinism checks instead of keeping and
    /// comparing full event vectors.
    pub fn trace_digest(&self) -> u64 {
        self.inner.sched.lock().unwrap().trace.fnv
    }

    /// Current virtual time. A relaxed atomic load — never takes the
    /// scheduler lock.
    pub fn now(&self) -> SimTime {
        SimTime(self.inner.now_ns.load(Ordering::Relaxed))
    }

    /// Spawn a simulated thread. The thread becomes runnable at the current
    /// virtual time; it does not run until the spawner blocks (or, before
    /// [`Kernel::run`], until the simulation starts).
    pub fn spawn<T, F>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_thread(name, f, false)
    }

    /// Spawn a *daemon* (service) thread: a loop that serves others and
    /// blocks indefinitely. Daemon threads do not keep the simulation
    /// alive — when the last non-daemon thread finishes, the run completes
    /// and the remaining daemons are unwound before [`Kernel::run`] returns;
    /// a destructor that blocks there leaks the rest of the teardown.
    pub fn spawn_daemon<T, F>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_thread(name, f, true)
    }

    /// Spawn a *stepped service*: a simulated thread with no stack,
    /// whose body is `step`, run by the dispatcher each time the thread's
    /// turn comes (see the module docs). Each call does what the thread
    /// would do between two blocking points and returns the next one. It
    /// runs with the service as [`current()`] and may use every
    /// non-blocking operation; reaching a blocking one (a contended
    /// [`crate::SimMutex`], [`sleep`], a full bounded channel) fails the
    /// run as `service '<name>' blocked on … inside a step`.
    pub fn spawn_stepped(
        &self,
        name: impl Into<String>,
        daemon: bool,
        step: impl FnMut() -> Step + Send + 'static,
    ) -> JoinHandle<()> {
        let name: Arc<str> = name.into().into();
        let tid = self.spawn_inner(&name, daemon, None, Some(Box::new(step)));
        JoinHandle {
            kernel: self.clone(),
            tid,
            name,
            result: Arc::new(Mutex::new(Some(()))),
        }
    }

    fn spawn_thread<T, F>(&self, name: impl Into<String>, f: F, daemon: bool) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let name: Arc<str> = name.into().into();
        let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let result2 = Arc::clone(&result);
        let job: Job = Box::new(move || *result2.lock().unwrap() = Some(f()));
        // The thread's stack is mapped (or taken warm) outside the lock.
        let ctx = Context::new(Arc::clone(&name), Box::into_raw(Box::new(job)) as usize);
        let tid = self.spawn_inner(&name, daemon, Some(ctx), None);
        JoinHandle {
            kernel: self.clone(),
            tid,
            name,
            result,
        }
    }

    /// Enter a simulated thread into the thread table and the run queue.
    fn spawn_inner(
        &self,
        name: &Arc<str>,
        daemon: bool,
        ctx: Option<Box<Context>>,
        step: Option<StepFn>,
    ) -> Tid {
        let mut s = self.inner.sched.lock().unwrap();
        assert!(!s.done, "cannot spawn after the simulation finished");
        let now = s.now;
        let tid = s.threads.insert(ThreadInfo {
            name: Arc::clone(name),
            state: TState::Runnable,
            daemon,
            ctx,
            step,
            wait: None,
            block_since: now,
            joiners: Vec::new(),
            generation: 0,
            idle: 0,
        });
        if !daemon {
            s.live += 1;
        }
        let seq = s.seq;
        s.seq += 1;
        s.runq.push(Reverse((now, seq, tid, 0)));
        trace(&mut s, tid, format_args!("spawn"));
        tid
    }

    /// Run the simulation to completion on a carrier OS thread of its own
    /// (module docs). Blocks the calling (real) thread until every
    /// non-daemon simulated thread has finished and the carrier has freed
    /// what the kernel still holds (`context.rs`, "Teardown").
    ///
    /// # Panics
    /// Panics if any simulated thread — or a destructor teardown runs —
    /// panicked, or if the simulation deadlocked (every live thread blocked
    /// with no pending wake-up).
    pub fn run(&self) {
        let k = self.clone();
        let carrier = thread::Builder::new()
            .name("sim-carrier".into())
            .spawn(move || {
                let run = || drop(k.dispatch_from_carrier(k.inner.sched.lock().unwrap()));
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(run)) {
                    // A kernel bug on the carrier: the run fails with it.
                    k.inner.sched.clear_poison();
                    k.abort_external(&payload_to_string(payload.as_ref()));
                }
                k.finish();
            })
            .expect("failed to spawn the carrier OS thread");
        let (failure, abandoned) = self.wait_finished();
        if !abandoned {
            carrier
                .join()
                .expect("the carrier catches the run's panics");
        }
        if let Some(msg) = failure {
            panic!("simulation failed: {msg}");
        }
    }

    /// Convenience: create a kernel, run `f` as the root simulated thread,
    /// and return its result.
    pub fn run_root<T, F>(f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        Self::run_root_with(SchedPolicy::Fifo, f)
    }

    /// Like [`Kernel::run_root`], but with an explicit dispatch policy
    /// (e.g. `SchedPolicy::Random(seed)` for a chaos run).
    pub fn run_root_with<T, F>(policy: SchedPolicy, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let kernel = Kernel::new_with_policy(policy);
        let h = kernel.spawn("root", f);
        kernel.run();
        h.take_result().expect("root thread produced no result")
    }

    // ------------------------------------------------------------------
    // Scheduling internals (used by sync/channel/resource modules).
    // ------------------------------------------------------------------

    /// Give up the token until `w` is over: until another thread makes
    /// `me` runnable via [`Kernel::make_runnable`] or, if `w` has a
    /// deadline, until that virtual time, whichever comes first. `w`
    /// appears in the trace and in deadlock dumps.
    pub(crate) fn wait(&self, me: Tid, w: Wait) {
        self.wait_leaving(me, w, None);
    }

    /// [`Kernel::wait`], optionally leaving `step` with the scheduler to
    /// run in `me`'s place for the duration (see [`Kernel::sleep_poll`]).
    fn wait_leaving(&self, me: Tid, w: Wait, step: Option<StepFn>) {
        let mut s = self.inner.sched.lock().unwrap();
        if s.in_step {
            // A step runs on a borrowed stack, which it cannot leave:
            // fail the run by name (the lane turns the unwind into the
            // failure) before any state is touched.
            let msg = format!("service '{}' blocked on {w} inside a step", s.info(me).name);
            s.failure.get_or_insert_with(|| msg.clone());
            drop(s);
            panic!("{msg}");
        }
        if s.done {
            self.blocked_in_teardown(s, &w);
        }
        s.info_mut(me).step = step;
        release_token(&mut s, me, w);
        let (s, next) = self.dispatch(s);
        self.switch_from(s, me, next);
    }

    /// Make `tid` runnable at the current virtual time. Panics if the
    /// thread is not blocked (waking a runnable/running thread indicates a
    /// bookkeeping bug in a primitive).
    pub(crate) fn make_runnable(&self, tid: Tid) {
        let mut s = self.inner.sched.lock().unwrap();
        if s.done {
            return; // teardown's destructors: nobody to wake, nothing to record
        }
        let now = s.now;
        match s.threads.state(tid) {
            // A thread in a timed wait is woken early: its timer entry is
            // superseded through the generation counter.
            TState::Blocked | TState::Runnable => requeue(&mut s, tid, now),
            other => {
                drop(s); // the run fails by this panic, not by a poisoned lock
                panic!("make_runnable on thread {tid} in state {other:?}")
            }
        }
        trace(&mut s, tid, format_args!("wake"));
    }

    /// Yield the token: stay runnable at the current time but let any other
    /// thread scheduled for the current time run first.
    pub fn yield_now(&self) {
        self.wait(current_tid(), Wait::fixed("yield", Some(self.now())));
    }

    /// Advance virtual time by `d` for the calling simulated thread.
    pub fn sleep(&self, d: SimDuration) {
        let deadline = self.now() + d;
        self.wait(current_tid(), Wait::fixed("sleep", Some(deadline)));
        debug_assert!(self.now() >= deadline);
    }

    /// Sleep in steps of `every` until `ready` answers [`Tick::Ready`] at
    /// the end of a step — observably identical to
    ///
    /// ```text
    /// loop { sleep(every); if ready(now()) is Ready { break } }
    /// ```
    ///
    /// (same virtual times, same sequence numbers, same trace, under every
    /// [`SchedPolicy`] and domain count) but an idle step costs no stack
    /// switch: the caller blocks once and leaves the loop body behind as a
    /// step (see the module docs) that answers [`Step::Idle`] or has the
    /// caller switched to, and a tick under its promise costs no call at all.
    ///
    /// # Contract for `ready`
    ///
    /// `ready(now)` runs **on whichever stack is dispatching**, with
    /// the scheduler lock released and the caller as [`current()`]: it may
    /// look — read the clock, `try_lock`, `is_empty` — but not block.
    /// `Ready` is always safe: the caller wakes and looks for itself, as a
    /// plain `sleep` loop would. [`Tick::Idle`] is [`Step::Idle`]'s promise:
    /// neither the caller's pass at this instant nor `ready` changes a thing,
    /// and `ready` read only what that promise allows. A panic in `ready`
    /// fails the run as a panic of the calling thread.
    ///
    /// # Panics
    /// Panics if `every` is zero (idle steps would spin inside the scheduler).
    pub fn sleep_poll(
        &self,
        every: SimDuration,
        mut ready: impl FnMut(SimTime) -> Tick + Send + 'static,
    ) {
        assert!(
            every > SimDuration::ZERO,
            "sleep_poll needs a positive interval"
        );
        let tick = move || match ready(now()) {
            Tick::Ready => Step::Wake,
            Tick::Idle { until } => Step::Idle { every, until },
        };
        let first = Wait::fixed("sleep", Some(self.now() + every));
        self.wait_leaving(current_tid(), first, Some(Box::new(tick)));
    }

    /// How many turns ended in [`Step::Wait`] or [`Step::Idle`] — e.g. the
    /// idle ticks of [`Kernel::sleep_poll`], answered at the pick or not:
    /// turns the dispatcher completed itself, without a stack switch.
    pub fn inline_polls(&self) -> u64 {
        self.inner.sched.lock().unwrap().inline_polls
    }

    /// How many picks answered promised idle ticks without calling their
    /// step, each a run of one or more up to the next queued event
    /// (module docs, "Tickless idle"): the ticks of [`Kernel::inline_polls`]
    /// whose step did not run, over this, is ticks per pick. 0 in a debug
    /// build, which runs every step.
    pub fn idle_runs(&self) -> u64 {
        self.inner.sched.lock().unwrap().idle_runs
    }

    /// Number of live (unfinished) simulated threads.
    pub fn live_threads(&self) -> usize {
        self.inner.sched.lock().unwrap().live
    }

    /// Hand the token on: pick the next runnable thread, advance the
    /// clock, mark it `Running` — and, while the pick is a stepped thread,
    /// run its step right here (module docs, "Stepped services") and pick
    /// again. Returns the first pick that has a stack, for the caller to
    /// switch to **after releasing the scheduler lock**, or `None` if there
    /// is nobody to run (run over, or paused at a window barrier): the
    /// caller switches to the carrier's loop. Must be called with no thread
    /// currently running.
    fn dispatch<'a>(
        &'a self,
        mut s: MutexGuard<'a, Sched>,
    ) -> (MutexGuard<'a, Sched>, Option<Tid>) {
        debug_assert!(s.running.is_none());
        loop {
            let (tid, mut step) = match self.pick_next(&mut s) {
                Next::Grant(next) => return (s, next),
                Next::Step(tid, step) => (tid, step),
            };
            // Under a promise only in a debug build, which elides nothing.
            let promised = s.promise(tid, s.now);
            s.in_step = true;
            drop(s);
            // A step that will not run again is dropped in there too: off
            // the scheduler lock, under the context it ran in.
            let out = self.within(tid, move || match step() {
                again @ (Step::Wait(_) | Step::Idle { .. }) => (again, Some(step)),
                last => (last, None),
            });
            s = self.inner.sched.lock().unwrap();
            s.in_step = false;
            let idle = match out {
                Ok((Step::Idle { every, until }, _)) => Some(Idler { tid, every, until }),
                _ => None,
            };
            if out.is_ok() && promised.is_some_and(|p| idle != Some(p)) {
                let (name, now) = (&s.info(tid).name, s.now);
                s.failure = Some(format!("step of '{name}' broke its idle promise at {now}"));
                s.done = true;
                return (s, None);
            }
            match idle {
                Some(idle) => s.promised(idle),
                None => s.idlers.clear(),
            }
            match out {
                Ok((Step::Idle { every, .. }, step)) => {
                    s.info_mut(tid).step = step;
                    release_idle(&mut s, tid, every);
                }
                Ok((Step::Wait(w), step)) => {
                    s.info_mut(tid).step = step;
                    s.inline_polls += 1;
                    release_token(&mut s, tid, w);
                }
                Ok((Step::Exit, _)) => {
                    if !self.retire(&mut s, tid, None) {
                        return (s, None);
                    }
                }
                Ok((Step::Wake, _)) => {
                    if s.info(tid).ctx.is_none() {
                        self.fail_thread_panicked(&mut s, tid, "Step::Wake without a stack");
                        return (s, None);
                    }
                    return (s, Some(tid));
                }
                Err(payload) => {
                    let msg = payload_to_string(payload.as_ref());
                    self.fail_thread_panicked(&mut s, tid, &msg);
                    return (s, None);
                }
            }
        }
    }

    /// Make `tid` the carrier's current simulated thread; returns the one
    /// it replaces (`None`: the carrier's loop, which has none).
    fn enter(&self, tid: Tid) -> Option<Tid> {
        CTX.with(|c| {
            let mut ctx = c.borrow_mut();
            match ctx.as_mut() {
                Some((_, t)) => Some(std::mem::replace(t, tid)),
                None => ctx.replace((self.clone(), tid)).and(None),
            }
        })
    }

    /// Run `f` on the carrier as simulated thread `tid`: its context
    /// entered, a panic caught, the caller's context restored.
    fn within<R>(&self, tid: Tid, f: impl FnOnce() -> R) -> thread::Result<R> {
        let mine = self.enter(tid);
        let out = panic::catch_unwind(AssertUnwindSafe(f));
        match mine {
            Some(me) => drop(self.enter(me)),
            None => drop(CTX.with(|c| c.borrow_mut().take())),
        }
        out
    }

    /// [`Kernel::dispatch`] from the carrier's loop (`run`, `step_until`):
    /// run what it picks until control is back here, the run over or
    /// paused. Daemons alone do not keep a run going.
    fn dispatch_from_carrier<'a>(&'a self, mut s: MutexGuard<'a, Sched>) -> MutexGuard<'a, Sched> {
        s.done |= s.live == 0;
        if s.done {
            return s;
        }
        match self.dispatch(s) {
            (s, Some(tid)) => self.run_context(s, tid),
            (s, None) => s,
        }
    }

    /// One pick of [`Kernel::dispatch`]: the horizon check, the livelock
    /// accounting, the tie-break and the clock advance, the same whether
    /// the thread picked runs on its own stack or as a step. Promised ticks
    /// are answered on the way, a run of them per pop (`runq.rs`), and the
    /// clock is published once, where the pick ends.
    fn pick_next(&self, s: &mut Sched) -> Next {
        let next = loop {
            let next = match s.policy {
                SchedPolicy::Fifo => pop_valid(s),
                SchedPolicy::Random(_) => pop_random_tie(s),
            };
            match next {
                Picked::Run((t, _, tid, _)) => {
                    debug_assert!(t >= s.now, "time went backwards");
                    if t > s.now {
                        s.same_time_streak = 0;
                    } else {
                        s.same_time_streak += 1;
                        if let Some(limit) = s.livelock_threshold {
                            if s.same_time_streak >= limit {
                                s.failure = Some(livelock_dump(s, limit));
                                s.done = true;
                                break Next::Grant(None);
                            }
                        }
                    }
                    s.now = s.now.max(t);
                    s.running = Some(tid);
                    let info = s.info_mut(tid);
                    info.state = TState::Running;
                    info.wait = None;
                    // Tickless idle: a promised tick is answered here, as its step
                    // would have (a debug build runs the step, and compares).
                    if let Some(idle) = s.promise(tid, s.now).filter(|_| !cfg!(debug_assertions)) {
                        release_idle_run(s, tid, idle);
                        continue;
                    }
                    let info = s.info_mut(tid);
                    break match info.step.take() {
                        Some(step) => Next::Step(tid, step),
                        None => {
                            s.idlers.clear();
                            Next::Grant(Some(tid))
                        }
                    };
                }
                Picked::Horizon(t) => {
                    // The earliest pending event is at or past the safe
                    // horizon: park this domain at the window barrier. The
                    // entry stays queued with its original ordering keys,
                    // so resuming with a larger horizon replays exactly the
                    // schedule an unbounded run would have produced.
                    s.paused = true;
                    s.paused_next = next_effective(s);
                    debug_assert!(s.paused_next >= Some(t));
                }
                Picked::Empty => {
                    if s.live == 0 {
                        s.done = true;
                    } else if s.bounded {
                        // Not yet a deadlock: a cross-domain delivery may
                        // arrive at the next window barrier. The coordinator
                        // escalates when every domain stalls with nothing
                        // in flight (see `crate::domain`).
                        s.paused = true;
                        s.paused_next = None;
                    } else {
                        s.failure = Some(deadlock_dump(s));
                        s.done = true;
                    }
                }
            }
            break Next::Grant(None);
        };
        self.inner.now_ns.store(s.now.as_nanos(), Ordering::Relaxed);
        next
    }

    /// Fail the run because thread `tid`'s code panicked with `msg`.
    fn fail_thread_panicked(&self, s: &mut Sched, tid: Tid, msg: &str) {
        let name = &s.info(tid).name;
        let failure = format!("thread '{name}' panicked: {msg}");
        s.failure.get_or_insert(failure);
        s.done = true;
    }

    /// The bookkeeping of a finished simulated thread — one whose body
    /// returned, or a step that returned [`Step::Exit`]: release the
    /// joiners, then end the run if this was a panic or the last
    /// non-daemon thread. Returns whether the run goes on, i.e. the caller
    /// dispatches.
    fn retire(&self, s: &mut Sched, me: Tid, panic_msg: Option<String>) -> bool {
        let daemon = s.info(me).daemon;
        debug_assert_eq!(s.running, Some(me));
        s.running = None;
        if !daemon {
            s.live -= 1;
        }
        let info = s.info_mut(me);
        info.state = TState::Finished;
        let joiners = std::mem::take(&mut info.joiners);
        let holds_nothing = info.ctx.is_none() && info.step.is_none();
        trace(s, me, format_args!("exit"));
        for j in joiners {
            debug_assert_eq!(s.info(j).state, TState::Blocked);
            requeue(s, j, s.now);
        }
        if let Some(msg) = panic_msg {
            self.fail_thread_panicked(s, me, &msg);
        } else if !daemon && s.live == 0 {
            // Last non-daemon thread finished: the simulation is complete.
            // Remaining daemon (service) threads are left to teardown.
            s.done = true;
        }
        if holds_nothing {
            s.threads.reclaim(me);
        }
        !s.done
    }

    /// Join on a thread: block until it finishes.
    fn join_tid(&self, target: Tid) {
        let me = current_tid();
        assert_ne!(me, target, "a simulated thread cannot join itself");
        {
            let mut s = self.inner.sched.lock().unwrap();
            match s.threads.get_mut(target) {
                Some(t) if t.state != TState::Finished => t.joiners.push(me),
                _ => return,
            }
        }
        // Note: between releasing the lock above and blocking below, no
        // other simulated thread can run (single-token discipline), so the
        // target cannot finish in between.
        self.wait(me, Wait::fixed("join", None));
    }

    // ------------------------------------------------------------------
    // Bounded (multi-domain) stepping, used by `crate::domain`. A kernel
    // acting as one time domain never runs an event at or past the safe
    // horizon handed to `step_until`; cross-domain deliveries enter via
    // `wake_external_at` at window barriers, when no thread is running.
    // ------------------------------------------------------------------

    /// Whether `other` is a handle to the same kernel (same scheduler
    /// and clock). Used to assert that a [`crate::domain`] port is only
    /// driven from its own domain.
    pub(crate) fn same_kernel(&self, other: &Kernel) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Tag this kernel with its domain id (see `Inner::domain_tag`).
    pub(crate) fn set_domain_tag(&self, domain: u32) {
        debug_assert!(domain < 256, "domain id must fit the obs tid tag");
        self.inner.domain_tag.store(domain, Ordering::Relaxed);
    }

    /// Advance the simulation until every pending event strictly before
    /// `horizon` has executed, then pause at the window barrier. Puts
    /// the kernel in bounded mode: an empty run queue with live threads
    /// pauses (reporting `next: None`) instead of declaring a local
    /// deadlock, since a cross-domain delivery may still arrive. Called on
    /// the domain's carrier.
    pub(crate) fn step_until(&self, horizon: SimTime) -> StepOutcome {
        let mut s = self.inner.sched.lock().unwrap();
        s.bounded = true;
        s.horizon = Some(horizon);
        if !s.done {
            debug_assert!(
                s.running.is_none(),
                "step_until while a simulated thread is running"
            );
            s.paused = false;
            s.paused_next = None;
            s = self.dispatch_from_carrier(s);
        }
        if s.done {
            match s.failure.clone() {
                Some(msg) => StepOutcome::Failed(msg),
                None => StepOutcome::Done,
            }
        } else {
            StepOutcome::Paused {
                next: s.paused_next,
            }
        }
    }

    /// A cross-domain delivery performed at a window barrier (no thread of
    /// this domain is running): every idle promise in the domain is void, and
    /// `tid` — a thread the delivery found waiting — is woken at virtual
    /// time `at`. The receiver resumes exactly at `max(now, at)`, so
    /// it can never observe a clock earlier than the message timestamp.
    /// For a thread in a timed wait, the earlier of the delivery time
    /// and its deadline wins; if the deadline is earlier the delivery
    /// does not wake it (the timeout fires first and the message stays
    /// queued for a later receive).
    pub(crate) fn wake_external_at(&self, tid: Option<Tid>, at: SimTime) {
        let mut s = self.inner.sched.lock().unwrap();
        debug_assert!(
            s.running.is_none(),
            "external wake while the domain is running"
        );
        s.idlers.clear();
        let Some(tid) = tid.filter(|_| !s.done) else {
            return;
        };
        let t = s.now.max(at);
        // A timed wait's timer entry is superseded only when the delivery
        // lands before the deadline.
        let deadline = s.threads.get(tid).and_then(|i| i.wait.as_ref()?.deadline);
        match s.threads.state(tid) {
            TState::Runnable if deadline.is_some_and(|d| t >= d) => s.seq += 1,
            TState::Blocked | TState::Runnable => {
                requeue(&mut s, tid, t);
                trace(&mut s, tid, format_args!("wake"));
            }
            other => {
                drop(s);
                panic!("wake_external_at on thread {tid} in state {other:?}")
            }
        }
    }

    /// [`next_effective`] of a domain that is paused or not yet started:
    /// what the multi-domain coordinator sizes the next window by.
    pub(crate) fn next_pending_time(&self) -> Option<SimTime> {
        let mut s = self.inner.sched.lock().unwrap();
        if s.done {
            return None;
        }
        next_effective(&mut s)
    }

    /// Fail the run from outside its threads — the coordinator, after
    /// another domain failed or at a cross-domain deadlock, or a carrier
    /// that caught a kernel bug — so that the carrier leaves it alone
    /// instead of tearing it down. Keeps a failure the run already has.
    pub(crate) fn abort_external(&self, msg: &str) {
        let mut s = self.inner.sched.lock().unwrap();
        s.failure.get_or_insert_with(|| msg.to_string());
        s.done = true;
    }

    /// Render this domain's blocked threads in deadlock-dump format
    /// (without the header/note), for the cross-domain stall dump.
    pub(crate) fn blocked_report(&self) -> String {
        let s = self.inner.sched.lock().unwrap();
        let mut out = String::new();
        push_blocked_threads(&mut out, &s);
        out
    }
}

/// Outcome of one bounded scheduling round (see [`Kernel::step_until`]).
pub(crate) enum StepOutcome {
    /// The last non-daemon thread finished; the domain is complete.
    Done,
    /// Every event before the horizon executed; `next` is the earliest
    /// pending one that can do something (`None` = nothing pending here).
    Paused { next: Option<SimTime> },
    /// The domain aborted (thread panic or livelock dump).
    Failed(String),
}

/// Observability timestamp source: virtual time + simulated thread id
/// of the caller, or `(0, 0)` outside a simulated thread — as which a
/// destructor run by teardown counts: a span it closes is not recorded.
fn obs_clock() -> (u64, u32) {
    CTX.with(|c| match c.borrow().as_ref() {
        Some((k, tid)) if !k.inner.torn_down.load(Ordering::Relaxed) => {
            let domain = k.inner.domain_tag.load(Ordering::Relaxed);
            (k.now().as_nanos(), *tid | (domain << 24))
        }
        _ => (0, 0),
    })
}

fn trace(s: &mut Sched, tid: Tid, label: fmt::Arguments<'_>) {
    let (now, tr) = (s.now, &mut s.trace);
    if !tr.on {
        return;
    }
    tr.len += 1;
    tr.fnv = fnv1a(tr.fnv, &now.as_nanos().to_le_bytes());
    tr.fnv = fnv1a(tr.fnv, &tid.to_le_bytes());
    fmt::Write::write_fmt(tr, label).expect("folding a label cannot fail");
    tr.fnv = fnv1a(tr.fnv, &[0xff]);
    if let Some(events) = tr.events.as_mut() {
        events.push(TraceEvent {
            time: now,
            tid,
            label: label.to_string(),
        });
    }
}

/// What [`Kernel::pick_next`] decided.
enum Next {
    /// Switch to this thread — or to nobody: the run is over or paused.
    Grant(Option<Tid>),
    /// The thread picked is stepped: run its step in place, pick again.
    Step(Tid, StepFn),
}

/// Handle returned by [`Kernel::spawn`]; allows joining the thread and
/// retrieving its result.
pub struct JoinHandle<T> {
    kernel: Kernel,
    tid: Tid,
    name: Arc<str>,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// The simulated thread id.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// The thread's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Block the calling *simulated* thread until the target finishes, then
    /// return its result.
    pub fn join(self) -> T {
        self.kernel.join_tid(self.tid);
        self.take_result()
            .expect("joined thread produced no result (panicked?)")
    }

    /// Retrieve the result without joining (for use after [`Kernel::run`]
    /// returned). Returns `None` if the thread has not finished or panicked.
    pub fn take_result(&self) -> Option<T> {
        self.result.lock().unwrap().take()
    }
}

// ---------------------------------------------------------------------
// Free-function conveniences for use inside simulated threads.
// ---------------------------------------------------------------------

/// Current virtual time (callable only from a simulated thread).
pub fn now() -> SimTime {
    with_current(|k, _| k.now())
}

/// Sleep for `d` of virtual time (callable only from a simulated thread).
pub fn sleep(d: SimDuration) {
    let (k, _) = current();
    k.sleep(d);
}

/// [`Kernel::sleep_poll`] on the calling simulated thread's kernel: sleep
/// in steps of `every` until `ready(now)` is `Ready` at the end of a step.
/// See the method for the contract `ready` must keep.
pub fn sleep_poll(every: SimDuration, ready: impl FnMut(SimTime) -> Tick + Send + 'static) {
    let (k, _) = current();
    k.sleep_poll(every, ready);
}

/// Yield the token to other threads runnable at the current time.
pub fn yield_now() {
    let (k, _) = current();
    k.yield_now();
}

/// Spawn a simulated thread from within a simulated thread.
pub fn spawn<T, F>(name: impl Into<String>, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (k, _) = current();
    k.spawn(name, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{ms, secs};

    #[test]
    fn empty_simulation_completes() {
        let k = Kernel::new();
        k.run();
        assert_eq!(k.now(), SimTime::ZERO);
    }

    #[test]
    fn single_thread_sleep_advances_clock() {
        let k = Kernel::new();
        k.spawn("a", || {
            sleep(ms(10));
            sleep(ms(5));
        });
        k.run();
        assert_eq!(k.now(), SimTime::ZERO + ms(15));
    }

    #[test]
    fn run_root_returns_value() {
        let v = Kernel::run_root(|| {
            sleep(ms(1));
            42
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn two_threads_interleave_by_time() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let k = Kernel::new();
        let o1 = Arc::clone(&order);
        k.spawn("a", move || {
            sleep(ms(10));
            o1.lock().unwrap().push(("a", now()));
        });
        let o2 = Arc::clone(&order);
        k.spawn("b", move || {
            sleep(ms(5));
            o2.lock().unwrap().push(("b", now()));
        });
        k.run();
        let order = order.lock().unwrap();
        assert_eq!(order[0].0, "b");
        assert_eq!(order[1].0, "a");
        assert_eq!(order[0].1, SimTime::ZERO + ms(5));
        assert_eq!(order[1].1, SimTime::ZERO + ms(10));
    }

    #[test]
    fn spawn_order_breaks_ties_deterministically() {
        for _ in 0..10 {
            let order = Arc::new(Mutex::new(Vec::new()));
            let k = Kernel::new();
            for i in 0..5 {
                let o = Arc::clone(&order);
                k.spawn(format!("t{i}"), move || {
                    o.lock().unwrap().push(i);
                });
            }
            k.run();
            assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn join_returns_value_and_waits() {
        let v = Kernel::run_root(|| {
            let h = spawn("child", || {
                sleep(secs(3));
                "done"
            });
            let r = h.join();
            assert_eq!(now(), SimTime::ZERO + secs(3));
            r
        });
        assert_eq!(v, "done");
    }

    #[test]
    fn join_finished_thread_is_immediate() {
        Kernel::run_root(|| {
            let h = spawn("child", || 7);
            sleep(ms(100)); // child certainly finished (it never blocks)
            assert_eq!(h.join(), 7);
            assert_eq!(now(), SimTime::ZERO + ms(100));
        });
    }

    #[test]
    #[should_panic(expected = "simulation failed")]
    fn panic_in_thread_propagates() {
        let k = Kernel::new();
        k.spawn("bad", || panic!("boom"));
        k.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let k = Kernel::new();
        let k2 = k.clone();
        k.spawn("stuck", move || {
            let (_, me) = current();
            k2.wait(me, Wait::fixed("waiting for godot", None));
        });
        k.run();
    }

    #[test]
    fn yield_now_round_robins_same_time() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let k = Kernel::new();
        for i in 0..3 {
            let o = Arc::clone(&order);
            k.spawn(format!("t{i}"), move || {
                for _ in 0..2 {
                    o.lock().unwrap().push(i);
                    yield_now();
                }
            });
        }
        k.run();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(k.now(), SimTime::ZERO);
    }

    #[test]
    fn trace_is_deterministic() {
        let run = |keep: bool| {
            let k = Kernel::new();
            k.enable_trace();
            if keep {
                k.keep_trace();
            }
            for i in 0..4 {
                k.spawn(format!("t{i}"), move || {
                    sleep(ms(i as u64 * 3 % 7));
                    sleep(ms(2));
                });
            }
            k.run();
            (k.trace_len(), k.trace_digest(), k.trace())
        };
        let (n1, d1, t1) = run(true);
        assert!(!t1.is_empty());
        assert_eq!(n1, t1.len());
        assert_eq!(run(true), (n1, d1, t1));
        // Folding alone keeps no events and reads the same pair.
        assert_eq!(run(false), (n1, d1, Vec::new()));
    }

    #[test]
    fn trace_digest_detects_divergence() {
        let run = |extra: bool| {
            let k = Kernel::new();
            k.enable_trace();
            k.spawn("t", move || {
                sleep(ms(1));
                if extra {
                    sleep(ms(1));
                }
            });
            k.run();
            k.trace_digest()
        };
        assert_ne!(run(false), run(true));
    }

    #[test]
    fn nested_spawn_inherits_clock() {
        Kernel::run_root(|| {
            sleep(ms(7));
            let h = spawn("child", now);
            let child_start = h.join();
            assert_eq!(child_start, SimTime::ZERO + ms(7));
        });
    }

    #[test]
    fn early_wake_supersedes_timer() {
        // A thread in a timed wait is woken early by make_runnable; the stale
        // timer entry must not wake it a second time.
        Kernel::run_root(|| {
            let (k, _) = current();
            let h = spawn("sleeper", || {
                let (k, me) = current();

                k.wait(me, Wait::fixed("long wait", Some(now() + secs(100))));
                now()
            });
            sleep(ms(50));
            let (k2, _) = current();
            k2.make_runnable(h.tid());
            let woke_at = h.join();
            assert_eq!(woke_at, SimTime::ZERO + ms(50));
            // Let the (stale) 100s timer entry surface: it should be skipped
            // and not panic / not advance the clock.
            sleep(ms(1));
            assert_eq!(k.now(), SimTime::ZERO + ms(51));
        });
    }

    #[test]
    fn live_threads_counts() {
        let k = Kernel::new();
        let k2 = k.clone();
        k.spawn("a", move || {
            assert!(k2.live_threads() >= 1);
            sleep(ms(1));
        });
        k.run();
        assert_eq!(k.live_threads(), 0);
    }

    #[test]
    fn many_threads_scale() {
        let k = Kernel::new();
        let counter = Arc::new(Mutex::new(0u64));
        for i in 0..200 {
            let c = Arc::clone(&counter);
            k.spawn(format!("w{i}"), move || {
                sleep(ms(i % 13));
                *c.lock().unwrap() += 1;
            });
        }
        k.run();
        assert_eq!(*counter.lock().unwrap(), 200);
    }

    /// Trace fingerprint of a tie-heavy scenario under a given policy.
    fn tie_heavy_run(policy: SchedPolicy) -> (usize, u64, Vec<u32>) {
        let k = Kernel::new_with_policy(policy);
        k.enable_trace();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..6u32 {
            let o = Arc::clone(&order);
            k.spawn(format!("t{i}"), move || {
                for _ in 0..4 {
                    o.lock().unwrap().push(i);
                    yield_now();
                }
                sleep(ms(1));
                o.lock().unwrap().push(100 + i);
            });
        }
        k.run();
        let order = std::mem::take(&mut *order.lock().unwrap());
        (k.trace_len(), k.trace_digest(), order)
    }

    #[test]
    fn random_policy_same_seed_is_deterministic() {
        let a = tie_heavy_run(SchedPolicy::Random(42));
        let b = tie_heavy_run(SchedPolicy::Random(42));
        assert_eq!(a, b, "same seed must replay the exact interleaving");
    }

    #[test]
    fn random_policy_seeds_explore_different_interleavings() {
        // Not every seed pair diverges in principle, but across 8 seeds a
        // tie-heavy scenario must not collapse to a single schedule.
        let orders: std::collections::HashSet<Vec<u32>> = (0..8u64)
            .map(|seed| tie_heavy_run(SchedPolicy::Random(seed)).2)
            .collect();
        assert!(
            orders.len() > 1,
            "8 seeds produced a single interleaving — Random policy is not randomizing"
        );
        let fifo = tie_heavy_run(SchedPolicy::Fifo);
        assert_eq!(
            fifo,
            tie_heavy_run(SchedPolicy::Fifo),
            "FIFO must stay deterministic"
        );
    }

    #[test]
    fn random_policy_preserves_virtual_timings() {
        // Randomizing only the tie-break must not change clock advance.
        for seed in 0..4u64 {
            let k = Kernel::new_with_policy(SchedPolicy::Random(seed));
            for i in 0..5u64 {
                k.spawn(format!("t{i}"), move || {
                    sleep(ms(10));
                    sleep(ms(i));
                });
            }
            k.run();
            assert_eq!(k.now(), SimTime::ZERO + ms(14));
        }
    }

    #[test]
    fn livelock_threshold_tolerates_progressing_runs() {
        // A run that yields a lot but keeps advancing time never trips.
        let k = Kernel::new_with_policy(SchedPolicy::Random(3));
        k.set_livelock_threshold(Some(16));
        for i in 0..4 {
            k.spawn(format!("t{i}"), || {
                for _ in 0..100 {
                    yield_now();
                    sleep(crate::time::us(1));
                }
            });
        }
        k.run();
        assert!(k.now() > SimTime::ZERO);
    }

    #[test]
    fn sleep_poll_wakes_on_the_first_ready_tick() {
        let k = Kernel::new();
        let h = k.spawn("poller", || {
            let until = now() + ms(1);
            sleep_poll(crate::time::us(300), move |now| match now >= until {
                true => Tick::Ready,
                false => Tick::Idle { until: Some(until) },
            });
            now()
        });
        k.run();
        // Ticks at 300/600/900 µs are idle; 1200 µs is the first past 1 ms.
        assert_eq!(h.take_result(), Some(SimTime::ZERO + crate::time::us(1200)));
        assert_eq!(k.inline_polls(), 3);
    }

    #[test]
    fn panic_in_sleep_poll_predicate_fails_the_run_as_its_thread() {
        let k = Kernel::new();
        k.spawn("poller", || {
            sleep_poll(ms(1), |_| panic!("boom in predicate"));
        });
        // The bystander is the thread that dispatches the poller's tick.
        k.spawn("bystander", || sleep(secs(1)));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| k.run()))
            .expect_err("a panicking predicate must abort the run");
        let msg = payload_to_string(err.as_ref());
        assert!(
            msg.contains("thread 'poller' panicked: boom in predicate"),
            "{msg}"
        );
        // The panic was caught under the scheduler lock, not through it.
        assert!(!k.inner.sched.is_poisoned());
        assert_eq!(k.now(), SimTime::ZERO + ms(1));
        assert_eq!(k.live_threads(), 2);
    }
}
