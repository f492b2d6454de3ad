//! The OS-thread half of the kernel — the *carrier* of a simulated thread,
//! and what stack switching would replace: the slot it parks on, the worker
//! that runs one body after another, the hand-off, and the teardown that
//! frees it all. [`crate::kernel`], its parent, decides *who* runs.
//!
//! # Teardown (DESIGN.md §2.1 has the long form)
//!
//! The threads a clean run leaves unfinished — parked daemons, stepped
//! services, threads never granted — reach the whole simulated world
//! through their stacks and captures. [`Kernel::teardown`] frees them on
//! the driver before `run` returns, one at a time in tid order: a step and
//! a closure that never ran are dropped there, under the thread's context;
//! a parked thread is sent [`SlotState::Unwind`], unwinds its own stack
//! with the [`Teardown`] payload (no panic hook runs) and is joined before
//! the next is touched. Nothing of it is recorded: no exit, no wake, no obs
//! event. A destructor may do what a step may, but not *block* — nobody is
//! left to wake it and its stack cannot unwind twice: that thread is
//! abandoned, parked for good ([`Kernel::blocked_in_teardown`]). A *failed*
//! run, its state half-written, is not torn down at all. Teardown ends with
//! a `malloc_trim`: glibc would keep the exited threads' arenas mapped.

use std::panic;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use super::{payload_to_string, Kernel, Sched, Tid, CTX};
use crate::wait::Wait;

/// A worker's private parking spot. A grant signals it to hand over the
/// token; nothing else ever waits on it, so a grant wakes exactly one OS
/// thread. The state is sticky: a grant that arrives before the owner is
/// back in [`Slot::wait`] — the granter signals *after* releasing the
/// scheduler lock, so on a second CPU the grantee can run, wake the
/// granter and block again first — is found there when the owner parks.
#[derive(Default)]
pub(super) struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum SlotState {
    /// No grant pending; the owner parks here.
    #[default]
    Parked,
    /// The scheduler granted the token; the owner should run.
    Granted,
    /// The run completed: the owner unwinds its simulated thread's stack,
    /// then answers `Parked` (done, join me) or `Shutdown` (abandoned).
    Unwind,
    /// The run failed, or this thread was abandoned by teardown: park
    /// forever.
    Shutdown,
}

/// Payload of the unwind that frees a parked thread's stack; the one
/// payload [`Worker::main`] does not report as a panic.
struct Teardown;

impl Slot {
    /// Hand the token to this slot's owner. Wakes at most one OS thread,
    /// and only after the slot mutex is free again, so the woken thread
    /// does not run straight into it. Never called under the scheduler
    /// lock on the hand-off path (see [`Kernel::park`]).
    pub(super) fn grant(&self) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(*st != SlotState::Granted, "double grant");
        if *st != SlotState::Shutdown {
            *st = SlotState::Granted;
        }
        drop(st);
        self.cv.notify_one();
    }

    /// Leave `state` for whoever waits on the slot: the owner, told to
    /// park forever, or the driver in [`Slot::unwind`], answered.
    pub(super) fn set(&self, state: SlotState) {
        *self.state.lock().unwrap() = state;
        self.cv.notify_one();
    }

    /// Driver side of teardown: have the owner, parked mid-body, unwind
    /// its stack; `false` if it had to be abandoned. Owner and driver share
    /// the condvar but never wait on it at the same time.
    fn unwind(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        *st = SlotState::Unwind;
        self.cv.notify_one();
        while *st == SlotState::Unwind {
            st = self.cv.wait(st).unwrap();
        }
        *st != SlotState::Shutdown
    }

    /// Park until granted. `Unwind` unwinds the caller's stack up to
    /// [`Worker::main`] instead; `Shutdown` parks the OS thread forever
    /// (unwinding a failed run would run destructors against half-written
    /// state, and an abandoned thread is already unwinding).
    pub(super) fn wait(&self) {
        let mut st = self.state.lock().unwrap();
        loop {
            match *st {
                SlotState::Granted => {
                    *st = SlotState::Parked;
                    return;
                }
                SlotState::Unwind => {
                    drop(st);
                    panic::resume_unwind(Box::new(Teardown));
                }
                SlotState::Shutdown => {
                    drop(st);
                    loop {
                        thread::park();
                    }
                }
                SlotState::Parked => st = self.cv.wait(st).unwrap(),
            }
        }
    }
}

/// An OS thread that runs simulated threads, one after another: when a
/// simulated thread's closure returns, its worker goes onto the kernel's
/// idle list ([`Sched::idle`]) instead of exiting, and the next
/// [`Kernel::spawn`] hands it the new thread — no `clone`, no stack
/// `mmap`/`munmap`, and no wake-up until that thread's first grant.
pub(super) struct Worker {
    pub(super) slot: Slot,
    /// The simulated thread to run at the next grant, left here by
    /// `spawn_inner`. A grant that finds it empty is the end-of-run
    /// release of an idle worker: the OS thread exits.
    pub(super) job: Mutex<Option<Job>>,
    /// This OS thread's handle, for the driver to join after the release.
    os: Mutex<Option<thread::JoinHandle<()>>>,
}

/// What `spawn_inner` leaves in a worker's mailbox: the thread's closure,
/// wrapped to store its result in the [`super::JoinHandle`] and to catch
/// its unwind — a panic, or [`Teardown`].
pub(super) struct Job {
    pub(super) tid: Tid,
    pub(super) body: Box<dyn FnOnce() -> thread::Result<()> + Send>,
}

impl Worker {
    /// The life of a worker OS thread: park until granted, run the
    /// simulated thread found in the mailbox, go idle, repeat.
    fn main(self: Arc<Worker>, kernel: Kernel) {
        loop {
            self.slot.wait();
            let Some(job) = self.job.lock().unwrap().take() else {
                return;
            };
            CTX.with(|c| *c.borrow_mut() = Some((kernel.clone(), job.tid)));
            let panic_msg = match (job.body)() {
                Ok(()) => None,
                // Torn down, not finished: no exit, and the driver is
                // waiting to join this OS thread.
                Err(payload) if payload.is::<Teardown>() => {
                    return self.slot.set(SlotState::Parked);
                }
                Err(payload) => Some(payload_to_string(payload.as_ref())),
            };
            kernel.thread_exit(job.tid, panic_msg);
        }
    }

    fn join(&self) {
        if let Some(os) = self.os.lock().unwrap().take() {
            let _ = os.join();
        }
    }
}

impl Kernel {
    /// Create a worker OS thread, parked on its slot until the simulated
    /// thread it is about to be given is first granted the token.
    pub(super) fn new_worker(&self) -> Arc<Worker> {
        let n = self
            .inner
            .os_threads_created
            .fetch_add(1, Ordering::Relaxed);
        let worker = Arc::new(Worker {
            slot: Slot::default(),
            job: Mutex::new(None),
            os: Mutex::new(None),
        });
        let (w, kernel) = (Arc::clone(&worker), self.clone());
        let os = thread::Builder::new()
            .name(format!("sim-worker-{n}"))
            .spawn(move || w.main(kernel))
            .expect("failed to spawn OS thread for simulated thread");
        *worker.os.lock().unwrap() = Some(os);
        worker
    }

    /// The second half of every hand-off: release the scheduler lock,
    /// *then* signal the thread `dispatch` chose, then park on our own
    /// slot until granted. Signalling with the lock released is what makes
    /// a hand-off one OS context switch: the woken thread finds both the
    /// scheduler mutex and its slot mutex free, so it is never put back to
    /// sleep just for the granter to be switched in to unlock.
    pub(super) fn park(&self, s: MutexGuard<'_, Sched>, me: Tid, next: Option<Arc<Worker>>) {
        let mine = s.info(me).worker.clone();
        drop(s);
        let mine = mine.expect("a thread that blocks runs on an OS thread");
        if let Some(next) = next {
            if Arc::ptr_eq(&next, &mine) {
                // Our own turn came up again (e.g. the only runnable
                // thread sleeping): keep the token, signal nobody.
                return;
            }
            next.slot.grant();
        }
        mine.slot.wait();
    }

    /// A destructor run by teardown reached a blocking primitive. On the
    /// driver (a step being dropped) that is a panic, which `teardown`
    /// catches and reports. On the thread's own worker, mid-unwind, a
    /// second panic would abort the process: the thread is abandoned —
    /// the driver told to move on, the rest of the stack parked for good.
    pub(super) fn blocked_in_teardown(&self, s: MutexGuard<'_, Sched>, me: Tid, w: &Wait) -> ! {
        let mine = s.info(me).worker.clone().filter(|_| thread::panicking());
        drop(s);
        let Some(mine) = mine else {
            panic!("blocked on {w} during teardown")
        };
        mine.slot.set(SlotState::Shutdown);
        mine.slot.wait();
        unreachable!("a shut-down slot never returns")
    }

    /// Free what a cleanly finished run still holds (module docs), release
    /// the idle workers and return the freed pages to the OS. Called on the
    /// driver of a `done` run; returns the failure if a destructor panicked.
    pub(crate) fn teardown(&self) -> Option<String> {
        let mut failure = None;
        self.inner.torn_down.store(true, Ordering::Relaxed);
        let threads = self.inner.sched.lock().unwrap().threads.len() as Tid;
        for tid in 1..=threads {
            let (step, worker) = {
                let mut s = self.inner.sched.lock().unwrap();
                debug_assert!(s.done && s.failure.is_none());
                let info = s.info_mut(tid);
                (info.step.take(), info.worker.clone())
            };
            if step.is_none() && worker.is_none() {
                continue; // finished during the run
            }
            // In the mailbox still: never granted.
            let job = worker.as_ref().and_then(|w| w.job.lock().unwrap().take());
            let never_ran = job.is_some();
            if let Err(payload) = self.within(tid, move || drop((step, job))) {
                let msg = payload_to_string(payload.as_ref());
                let s = self.inner.sched.lock().unwrap();
                let name = &s.info(tid).name;
                failure.get_or_insert(format!("teardown of '{name}' panicked: {msg}"));
            }
            // A worker whose thread never ran exits like an idle one, at a
            // grant with an empty mailbox; one parked mid-body unwinds, or
            // is abandoned — what is left of its stack with it.
            let Some(worker) = worker else { continue };
            if never_ran {
                worker.slot.grant();
                worker.join();
            } else if worker.slot.unwind() {
                worker.join();
            }
        }
        join_released(self.inner.sched.lock().unwrap());
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            extern "C" {
                fn malloc_trim(pad: usize) -> i32;
            }
            // SAFETY: `malloc_trim` takes no pointer and is thread-safe; it
            // only releases memory malloc holds free.
            unsafe { malloc_trim(0) };
        }
        failure
    }
}

/// Release the idle workers (a grant with an empty mailbox: the OS thread
/// exits) once the run is done, joining each before the next is woken: the
/// order they exit in is the order the allocator hands their arenas and
/// stacks to the next kernel's threads, and left to the host scheduler it
/// moved a process's peak RSS by ±1.3 MiB from run to run. The survivors of
/// a failed run are not on the idle list: they park forever and cannot be
/// joined.
pub(super) fn join_released(mut s: MutexGuard<'_, Sched>) {
    debug_assert!(s.done);
    let idle = std::mem::take(&mut s.idle);
    drop(s);
    for worker in idle {
        worker.slot.grant();
        worker.join();
    }
}
