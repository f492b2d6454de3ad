//! The thread table: what the kernel knows of each simulated thread that
//! has not finished. [`crate::kernel`], its parent, decides what to do
//! with it.
//!
//! Tids are dense and never reused — they are in every trace digest,
//! every dump and every obs thread id — but the table's slots are. A slot
//! map indexed by `tid - 1` points into a vector of [`ThreadInfo`]s; when
//! a thread has finished and holds neither a context nor a step,
//! [`Threads::reclaim`] frees its slot for the next spawn and its tid maps
//! to [`NONE`]. The table is as large as the peak number of live threads,
//! not the number ever spawned. A reclaimed tid reads as
//! [`TState::Finished`]: a run-queue entry of it is stale, joining it
//! returns at once, and waking it is a bookkeeping bug.

use std::sync::Arc;

use super::context::Context;
use super::Tid;
use crate::time::SimTime;
use crate::wait::{StepFn, Wait};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum TState {
    /// Queued in the run queue (possibly with a future wake-up time).
    Runnable,
    /// Currently holds the token.
    Running,
    /// Waiting on a primitive; not in the run queue.
    Blocked,
    /// The thread's closure has returned.
    Finished,
}

pub(super) struct ThreadInfo {
    pub(super) name: Arc<str>,
    pub(super) state: TState,
    /// Daemon threads (service loops) do not keep the simulation alive:
    /// the run ends when the last non-daemon thread finishes.
    pub(super) daemon: bool,
    /// The stack this simulated thread runs on; the token is handed over
    /// by switching to it. `None` for a stepped service, which runs on the
    /// dispatching stack, and once the thread has finished.
    pub(super) ctx: Option<Box<Context>>,
    /// What dispatch runs in place when the thread's turn comes, instead
    /// of switching to `ctx`: a stepped service's body, or the tick a
    /// thread in `Kernel::sleep_poll` left behind.
    pub(super) step: Option<StepFn>,
    /// What the thread is waiting for (for dumps); `None` once picked.
    pub(super) wait: Option<Wait>,
    /// Virtual time at which the thread last gave up the token.
    pub(super) block_since: SimTime,
    /// Threads waiting in `join()` on this thread.
    pub(super) joiners: Vec<Tid>,
    /// Generation counter: incremented every time the thread blocks, so
    /// stale run-queue entries (from cancelled timed waits) can be skipped.
    pub(super) generation: u64,
    /// Index of its entry in `Sched::idlers` while it has one.
    pub(super) idle: u32,
}

/// The slot of a tid whose thread was reclaimed.
const NONE: u32 = u32::MAX;

/// Tid → slot map and the slots (module docs).
#[derive(Default)]
pub(super) struct Threads {
    /// Slot of each tid ever spawned, indexed by `tid - 1`.
    slot: Vec<u32>,
    /// The threads' metadata; `None` in a slot on the free list.
    slots: Vec<Option<ThreadInfo>>,
    /// Reclaimed slots, reused by the next spawns.
    free: Vec<u32>,
}

impl Threads {
    /// Enter a new thread: the next tid, in a reclaimed slot if there is one.
    pub(super) fn insert(&mut self, info: ThreadInfo) -> Tid {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(info);
                slot
            }
            None => {
                self.slots.push(Some(info));
                (self.slots.len() - 1) as u32
            }
        };
        self.slot.push(slot);
        self.slot.len() as Tid
    }

    /// Forget `tid`, a finished thread that holds neither a context nor a
    /// step: its metadata is dropped and its slot goes to the next spawn.
    pub(super) fn reclaim(&mut self, tid: Tid) {
        let slot = std::mem::replace(&mut self.slot[(tid - 1) as usize], NONE);
        let info = self.slots[slot as usize].take();
        debug_assert!(info
            .is_some_and(|i| i.state == TState::Finished && i.ctx.is_none() && i.step.is_none()));
        self.free.push(slot);
    }

    /// `tid`'s metadata, or `None` once it was reclaimed.
    #[inline]
    pub(super) fn get(&self, tid: Tid) -> Option<&ThreadInfo> {
        let slot = *self.slot.get(tid.checked_sub(1)? as usize)?;
        self.slots.get(slot as usize)?.as_ref()
    }

    #[inline]
    pub(super) fn get_mut(&mut self, tid: Tid) -> Option<&mut ThreadInfo> {
        let slot = *self.slot.get(tid.checked_sub(1)? as usize)?;
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    /// The metadata of `tid`, a thread that has not been reclaimed.
    #[inline]
    pub(super) fn info(&self, tid: Tid) -> &ThreadInfo {
        self.get(tid)
            .unwrap_or_else(|| panic!("thread {tid} is not in the table"))
    }

    #[inline]
    pub(super) fn info_mut(&mut self, tid: Tid) -> &mut ThreadInfo {
        self.get_mut(tid)
            .unwrap_or_else(|| panic!("thread {tid} is not in the table"))
    }

    /// `tid`'s state; a reclaimed thread is [`TState::Finished`].
    #[inline]
    pub(super) fn state(&self, tid: Tid) -> TState {
        self.get(tid).map_or(TState::Finished, |i| i.state)
    }

    /// Whether the run-queue entry `(tid, generation)` is current: not
    /// superseded by a later block or wake, nor left by a finished thread.
    #[inline]
    pub(super) fn is_current(&self, tid: Tid, generation: u64) -> bool {
        self.get(tid)
            .is_some_and(|i| i.generation == generation && i.state == TState::Runnable)
    }

    /// The highest tid handed out so far (tids start at 1).
    pub(super) fn last_tid(&self) -> Tid {
        self.slot.len() as Tid
    }

    /// The threads still in the table, in tid order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (Tid, &ThreadInfo)> {
        (1..=self.last_tid()).filter_map(|tid| Some((tid, self.get(tid)?)))
    }

    /// Every thread still in the table, in no particular order.
    pub(super) fn values_mut(&mut self) -> impl Iterator<Item = &mut ThreadInfo> {
        self.slots.iter_mut().flatten()
    }

    /// Slots allocated: the peak number of threads in the table at once.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::time::ms;

    fn kernel_threads(k: &Kernel) -> usize {
        k.inner.sched.lock().unwrap().threads.len()
    }

    #[test]
    fn sequential_spawn_join_keeps_the_table_at_the_peak_live_count() {
        let k = Kernel::new();
        let k2 = k.clone();
        k.spawn("root", move || {
            for i in 0..100_000u32 {
                assert_eq!(spawn("child", move || i).join(), i);
            }
            // Root and one child are the most ever alive at once.
            assert!(kernel_threads(&k2) <= 2 + 1);
        });
        k.run();
        let s = k.inner.sched.lock().unwrap();
        assert_eq!(s.threads.last_tid(), 100_001);
        assert!(s.threads.len() <= 3, "{} slots", s.threads.len());
        assert_eq!(s.threads.iter().count(), 0);
    }

    /// A thread woken early from a timed wait leaves its timer entry in the
    /// run queue and exits; the next spawn takes its slot and, in a timed
    /// wait of its own, the generation the stale entry names. The entry
    /// must not wake the newcomer, under any tie-break.
    fn stale_entry_after_reclaim(policy: SchedPolicy) {
        let k = Kernel::new_with_policy(policy);
        let h = k.spawn("root", || {
            let (k, _) = current();
            let timed = |until| {
                let (k, me) = current();
                k.wait(me, Wait::fixed("timed", Some(until)));
                now()
            };
            // Generation 1: the timer entry at 10 ms, cut short at 1 ms.
            let sleeper = spawn("sleeper", move || timed(SimTime::ZERO + ms(10)));
            sleep(ms(1));
            k.make_runnable(sleeper.tid());
            assert_eq!(sleeper.join(), SimTime::ZERO + ms(1));
            let newcomer = spawn("newcomer", move || timed(SimTime::ZERO + ms(50)));
            sleep(ms(1));
            {
                let s = k.inner.sched.lock().unwrap();
                let info = s.threads.info(newcomer.tid());
                assert_eq!((info.state, info.generation), (TState::Runnable, 1));
                assert_eq!(s.threads.len(), 2, "the sleeper's slot was not reused");
            }
            newcomer.join()
        });
        k.run();
        assert_eq!(h.take_result(), Some(SimTime::ZERO + ms(50)));
    }

    #[test]
    fn a_stale_entry_does_not_wake_the_thread_that_reuses_the_slot() {
        stale_entry_after_reclaim(SchedPolicy::Fifo);
        for seed in 0..8 {
            stale_entry_after_reclaim(SchedPolicy::Random(seed));
        }
    }

    #[test]
    fn joining_a_reclaimed_thread_returns_at_once() {
        Kernel::run_root(|| {
            let h = spawn("child", || 7);
            let tid = h.tid();
            sleep(ms(5));
            let (k, _) = current();
            assert!(k.inner.sched.lock().unwrap().threads.get(tid).is_none());
            assert_eq!(h.join(), 7);
            assert_eq!(now(), SimTime::ZERO + ms(5));
        });
    }

    #[test]
    #[should_panic(expected = "make_runnable on thread 2 in state Finished")]
    fn waking_a_reclaimed_thread_is_a_bookkeeping_bug() {
        let k = Kernel::new();
        let k2 = k.clone();
        k.spawn("root", move || {
            let h = spawn("child", || ());
            sleep(ms(1));
            k2.make_runnable(h.tid());
        });
        k.run();
    }

    #[test]
    fn a_deadlock_dump_numbers_threads_by_tid_after_reclaims() {
        let k = Kernel::new();
        let k2 = k.clone();
        k.spawn("done0", move || {
            for name in ["done1", "done2"] {
                spawn(name, || sleep(ms(1))).join();
            }
            // Tid 4, in the slot `done1` and `done2` held in turn.
            spawn("stuck", move || {
                let (_, me) = current();
                k2.wait(me, Wait::fixed("waiting for godot", None));
            });
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| k.run()))
            .expect_err("deadlock must abort the run");
        let msg = payload_to_string(err.as_ref());
        assert!(
            msg.contains("1 live thread(s) blocked with no pending wake-up:\n  [4] 'stuck' parked for 0ns blocked on: waiting for godot\n"),
            "{msg}"
        );
        assert_eq!(k.inner.sched.lock().unwrap().threads.len(), 2);
    }
}
