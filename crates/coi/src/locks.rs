//! Drain locks: the mutexes Snapify adds around COI's SCIF use sites.
//!
//! §4.1 describes four drain methods; all of them hinge on mutex locks
//! that `snapify_pause` *acquires and holds until `snapify_resume`* —
//! across many function calls and even across processes' protocol turns.
//! RAII guards are the wrong shape for that, so [`DrainLock`] is an
//! explicit acquire/release lock (still virtual-time-blocking and FIFO-
//! fair via the underlying primitives).

use simkernel::{SimCondvar, SimDuration, SimMutex};

/// An explicitly released, virtual-time mutex used at COI's SCIF call
/// sites.
pub(crate) struct DrainLock {
    state: SimMutex<bool>,
    cv: SimCondvar,
    name: String,
}

impl DrainLock {
    /// New unlocked lock.
    pub(crate) fn new(name: impl Into<String>) -> DrainLock {
        let name = name.into();
        DrainLock {
            state: SimMutex::new(format!("drain '{name}'"), false),
            cv: SimCondvar::new(format!("drain '{name}'")),
            name,
        }
    }

    /// Acquire, blocking in virtual time.
    pub(crate) fn acquire(&self) {
        let mut held = self.state.lock();
        while *held {
            held = self.cv.wait(held);
        }
        *held = true;
    }

    /// Try to acquire without blocking.
    pub(crate) fn try_acquire(&self) -> bool {
        let mut held = self.state.lock();
        if *held {
            false
        } else {
            *held = true;
            true
        }
    }

    /// Whether the lock is held right now.
    pub(crate) fn is_held(&self) -> bool {
        *self.state.lock()
    }

    /// Acquire, polling so the wait can be abandoned when `abort()` turns
    /// true (used by offload threads so a terminated process never leaves
    /// a thread blocked forever). Returns whether the lock was acquired.
    pub(crate) fn acquire_unless(&self, poll: SimDuration, abort: impl Fn() -> bool) -> bool {
        loop {
            if self.try_acquire() {
                return true;
            }
            if abort() {
                return false;
            }
            simkernel::sleep(poll);
        }
    }

    /// Release. Panics if not held (protocol bug).
    pub(crate) fn release(&self) {
        let mut held = self.state.lock();
        assert!(*held, "releasing unheld drain lock '{}'", self.name);
        *held = false;
        drop(held);
        self.cv.notify_one();
    }

    /// Release if held (idempotent cleanup).
    pub(crate) fn release_if_held(&self) {
        let mut held = self.state.lock();
        if *held {
            *held = false;
            drop(held);
            self.cv.notify_one();
        }
    }

    /// Run `f` with the lock held: the per-operation critical sections,
    /// which — unlike a pause — end in the call that began them.
    pub(crate) fn with<T>(&self, f: impl FnOnce() -> T) -> T {
        self.acquire();
        let out = f();
        self.release();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::time::ms;
    use simkernel::{now, sleep, spawn, Kernel, SimTime};
    use std::sync::Arc;

    #[test]
    fn acquire_release_cycle() {
        Kernel::run_root(|| {
            let l = DrainLock::new("t");
            l.acquire();
            assert!(!l.try_acquire());
            l.release();
            assert!(l.try_acquire());
            l.release();
        });
    }

    #[test]
    fn contended_acquire_blocks_in_virtual_time() {
        Kernel::run_root(|| {
            let l = Arc::new(DrainLock::new("t"));
            l.acquire();
            let l2 = Arc::clone(&l);
            let h = spawn("waiter", move || {
                l2.acquire();
                let t = now();
                l2.release();
                t
            });
            sleep(ms(30));
            l.release();
            assert_eq!(h.join(), SimTime::ZERO + ms(30));
        });
    }

    #[test]
    fn acquire_unless_aborts() {
        Kernel::run_root(|| {
            let l = Arc::new(DrainLock::new("t"));
            l.acquire();
            let l2 = Arc::clone(&l);
            let h = spawn("poller", move || {
                // Aborts once virtual time passes 5 ms.
                l2.acquire_unless(ms(1), || now() >= SimTime::ZERO + ms(5))
            });
            assert!(!h.join());
            l.release();
        });
    }

    #[test]
    fn with_releases_on_exit() {
        Kernel::run_root(|| {
            let l = DrainLock::new("t");
            let v = l.with(|| 42);
            assert_eq!(v, 42);
            assert!(l.try_acquire());
        });
    }

    #[test]
    #[should_panic(expected = "releasing unheld")]
    fn double_release_panics() {
        Kernel::run_root(|| {
            let l = DrainLock::new("t");
            l.release();
        });
    }

    #[test]
    fn release_if_held_is_idempotent() {
        Kernel::run_root(|| {
            let l = DrainLock::new("t");
            l.release_if_held();
            l.acquire();
            l.release_if_held();
            assert!(l.try_acquire());
        });
    }
}
