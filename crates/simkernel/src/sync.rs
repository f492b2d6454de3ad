//! Simulated synchronization primitives: [`SimMutex`], [`SimCondvar`],
//! [`Semaphore`], and [`Barrier`].
//!
//! These mirror their `std::sync` counterparts but block in *virtual* time:
//! a thread that fails to acquire a lock hands the token back to the
//! scheduler instead of spinning or parking the OS thread directly.
//!
//! # Implementation note
//!
//! Thanks to the kernel's single-token discipline (see [`crate::kernel`]),
//! the internal `std::sync::Mutex`es in these types are never contended:
//! they exist only to satisfy `Send`/`Sync` without `unsafe`. A simulated
//! thread acquires the *simulated* lock first and only then touches the
//! protected data, so lock-ordering bugs between simulated threads surface
//! as virtual-time deadlocks (which the kernel reports), never as real ones.

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::kernel::{current, current_tid, with_current, Tid};
use crate::wait::{wait, Wait};

#[derive(Default)]
struct MutexState {
    owner: Option<Tid>,
    waiters: VecDeque<Tid>,
}

/// A mutual-exclusion lock that blocks in virtual time.
///
/// Lock hand-off is strict FIFO: `unlock` passes ownership directly to the
/// longest-waiting thread, which both guarantees fairness and keeps the
/// simulation deterministic.
pub struct SimMutex<T> {
    name: Arc<str>,
    state: Mutex<MutexState>,
    data: Mutex<T>,
}

impl<T> SimMutex<T> {
    /// Create a named mutex. The name appears in deadlock dumps.
    pub fn new(name: impl Into<String>, value: T) -> SimMutex<T> {
        SimMutex {
            name: name.into().into(),
            state: Mutex::new(MutexState::default()),
            data: Mutex::new(value),
        }
    }

    /// Acquire the lock, blocking in virtual time if it is held.
    ///
    /// The uncontended path never touches the scheduler: one thread-id
    /// lookup and one uncontended `std::sync::Mutex` acquire.
    pub fn lock(&self) -> SimMutexGuard<'_, T> {
        let me = current_tid();
        loop {
            {
                let mut st = self.state.lock().unwrap();
                if st.owner.is_none() {
                    st.owner = Some(me);
                    break;
                }
                debug_assert_ne!(
                    st.owner,
                    Some(me),
                    "SimMutex is not reentrant: {}",
                    self.name
                );
                st.waiters.push_back(me);
            }
            let (kernel, _) = current();
            kernel.wait(me, Wait::on("mutex", &self.name, ""));
            // On wake-up, unlock() has already transferred ownership to us.
            let st = self.state.lock().unwrap();
            if st.owner == Some(me) {
                break;
            }
            // Spurious (should not happen with direct hand-off, but loop
            // defensively rather than corrupting ownership).
        }
        self.guard()
    }

    /// The guard of a lock just acquired. Poison is ignored: the one unwind
    /// other threads outlive is teardown's, which is not a panic — a real
    /// one ends the run before anyone else can lock.
    fn guard(&self) -> SimMutexGuard<'_, T> {
        let data = self.data.lock().unwrap_or_else(|e| e.into_inner());
        SimMutexGuard {
            mutex: self,
            data: Some(data),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<SimMutexGuard<'_, T>> {
        let me = current_tid();
        let mut st = self.state.lock().unwrap();
        if st.owner.is_none() {
            st.owner = Some(me);
            drop(st);
            Some(self.guard())
        } else {
            None
        }
    }

    fn unlock(&self) {
        let next = {
            let mut st = self.state.lock().unwrap();
            debug_assert!(st.owner.is_some());
            let next = st.waiters.pop_front();
            st.owner = next;
            next
        };
        if let Some(next) = next {
            with_current(|kernel, _| kernel.make_runnable(next));
        }
    }

    /// Consume the mutex and return the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for SimMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMutex")
            .field("name", &self.name)
            .finish()
    }
}

/// RAII guard for [`SimMutex`]. Releasing the guard wakes the next waiter.
pub struct SimMutexGuard<'a, T> {
    mutex: &'a SimMutex<T>,
    data: Option<MutexGuard<'a, T>>,
}

impl<T> Deref for SimMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().unwrap()
    }
}

impl<T> DerefMut for SimMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().unwrap()
    }
}

impl<T> Drop for SimMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std guard *before* waking the next owner so it can
        // immediately relock the data mutex without contention.
        self.data.take();
        self.mutex.unlock();
    }
}

/// A condition variable that blocks in virtual time. Pair with [`SimMutex`].
pub struct SimCondvar {
    name: Arc<str>,
    waiters: Mutex<VecDeque<Tid>>,
}

impl SimCondvar {
    /// Create a named condition variable.
    pub fn new(name: impl Into<String>) -> SimCondvar {
        SimCondvar {
            name: name.into().into(),
            waiters: Mutex::new(VecDeque::new()),
        }
    }

    /// Atomically release `guard`'s mutex and wait for a notification, then
    /// re-acquire the mutex. "Atomically" holds trivially under the
    /// single-token discipline: no other simulated thread can run between
    /// the release and the block.
    pub fn wait<'a, T>(&self, guard: SimMutexGuard<'a, T>) -> SimMutexGuard<'a, T> {
        let mutex = guard.mutex;
        wait(self.park(guard));
        mutex.lock()
    }

    /// The non-blocking core of [`SimCondvar::wait`]: register the caller
    /// for a notification, release `guard`'s mutex, and say what to wait
    /// for. Once woken, the caller re-acquires the mutex itself.
    pub fn park<T>(&self, guard: SimMutexGuard<'_, T>) -> Wait {
        self.waiters.lock().unwrap().push_back(current_tid());
        drop(guard);
        Wait::on("condvar", &self.name, "")
    }

    /// Wait with a predicate: loops until `pred` is true.
    pub fn wait_while<'a, T, F>(
        &self,
        mut guard: SimMutexGuard<'a, T>,
        mut pred: F,
    ) -> SimMutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        while pred(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wake the longest-waiting thread, if any. Returns whether a thread
    /// was woken.
    pub fn notify_one(&self) -> bool {
        let next = self.waiters.lock().unwrap().pop_front();
        match next {
            Some(tid) => {
                with_current(|kernel, _| kernel.make_runnable(tid));
                true
            }
            None => false,
        }
    }

    /// Wake all waiting threads. Returns how many were woken.
    pub fn notify_all(&self) -> usize {
        let drained: Vec<Tid> = self.waiters.lock().unwrap().drain(..).collect();
        let n = drained.len();
        if n > 0 {
            with_current(|kernel, _| {
                for tid in drained {
                    kernel.make_runnable(tid);
                }
            });
        }
        n
    }
}

impl fmt::Debug for SimCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCondvar")
            .field("name", &self.name)
            .finish()
    }
}

/// A counting semaphore in virtual time. This is the `sem_t` equivalent
/// used by `snapify_t::m_sem` in the Snapify API.
pub struct Semaphore {
    inner: Arc<SemInner>,
}

struct SemInner {
    state: SimMutex<u64>,
    cv: SimCondvar,
}

impl Semaphore {
    /// Create a semaphore with an initial count.
    pub fn new(name: impl Into<String>, initial: u64) -> Semaphore {
        let name = name.into();
        Semaphore {
            inner: Arc::new(SemInner {
                state: SimMutex::new(format!("sem '{name}'"), initial),
                cv: SimCondvar::new(format!("sem '{name}'")),
            }),
        }
    }

    /// Increment the count and wake one waiter.
    pub fn post(&self) {
        let mut c = self.inner.state.lock();
        *c += 1;
        drop(c);
        self.inner.cv.notify_one();
    }

    /// Block until the count is positive, then decrement it.
    pub fn wait(&self) {
        let mut c = self.inner.state.lock();
        while *c == 0 {
            c = self.inner.cv.wait(c);
        }
        *c -= 1;
    }

    /// Non-blocking wait. Returns whether the count was decremented.
    pub fn try_wait(&self) -> bool {
        let mut c = self.inner.state.lock();
        if *c > 0 {
            *c -= 1;
            true
        } else {
            false
        }
    }

    /// Current count (racy in principle; exact under the single-token rule).
    pub fn count(&self) -> u64 {
        *self.inner.state.lock()
    }
}

impl Clone for Semaphore {
    fn clone(&self) -> Semaphore {
        Semaphore {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Semaphore")
            .field("count", &self.count())
            .finish()
    }
}

/// A reusable barrier in virtual time.
pub struct Barrier {
    state: SimMutex<BarrierState>,
    cv: SimCondvar,
    parties: usize,
}

struct BarrierState {
    waiting: usize,
    generation: u64,
}

impl Barrier {
    /// Create a barrier for `parties` threads.
    pub fn new(name: impl Into<String>, parties: usize) -> Barrier {
        assert!(parties > 0);
        let name = name.into();
        Barrier {
            state: SimMutex::new(
                format!("barrier '{name}'"),
                BarrierState {
                    waiting: 0,
                    generation: 0,
                },
            ),
            cv: SimCondvar::new(format!("barrier '{name}'")),
            parties,
        }
    }

    /// Block until all parties have arrived. Returns `true` for exactly one
    /// (the last) arriving thread per generation.
    pub fn wait(&self) -> bool {
        let mut st = self.state.lock();
        let generation = st.generation;
        st.waiting += 1;
        if st.waiting == self.parties {
            st.waiting = 0;
            st.generation += 1;
            drop(st);
            self.cv.notify_all();
            true
        } else {
            while st.generation == generation {
                st = self.cv.wait(st);
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{now, sleep, spawn, Kernel};
    use crate::time::{ms, SimTime};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn mutex_provides_exclusion_in_virtual_time() {
        Kernel::run_root(|| {
            let m = Arc::new(SimMutex::new("m", 0u64));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let m = Arc::clone(&m);
                handles.push(spawn("worker", move || {
                    let mut g = m.lock();
                    let v = *g;
                    sleep(ms(10)); // hold the lock across virtual time
                    *g = v + 1;
                }));
            }
            for h in handles {
                h.join();
            }
            assert_eq!(*m.lock(), 4);
            // Four serialized 10ms critical sections.
            assert_eq!(now(), SimTime::ZERO + ms(40));
        });
    }

    #[test]
    fn mutex_handoff_is_fifo() {
        Kernel::run_root(|| {
            let m = Arc::new(SimMutex::new("m", Vec::<u32>::new()));
            let g = m.lock();
            let mut handles = Vec::new();
            for i in 0..3 {
                let m = Arc::clone(&m);
                handles.push(spawn(format!("w{i}"), move || {
                    m.lock().push(i);
                }));
            }
            sleep(ms(1)); // let all three queue up, in spawn order
            drop(g);
            for h in handles {
                h.join();
            }
            assert_eq!(*m.lock(), vec![0, 1, 2]);
        });
    }

    #[test]
    fn try_lock_fails_when_held() {
        Kernel::run_root(|| {
            let m = SimMutex::new("m", ());
            let g = m.lock();
            assert!(m.try_lock().is_none());
            drop(g);
            assert!(m.try_lock().is_some());
        });
    }

    #[test]
    fn condvar_wakes_waiter() {
        Kernel::run_root(|| {
            let pair = Arc::new((SimMutex::new("flag", false), SimCondvar::new("flag")));
            let p2 = Arc::clone(&pair);
            let h = spawn("waiter", move || {
                let (m, cv) = &*p2;
                let g = m.lock();
                let g = cv.wait_while(g, |set| !*set);
                assert!(*g);
                now()
            });
            sleep(ms(25));
            {
                let (m, cv) = &*pair;
                *m.lock() = true;
                cv.notify_one();
            }
            let woke = h.join();
            assert_eq!(woke, SimTime::ZERO + ms(25));
        });
    }

    #[test]
    fn condvar_notify_all_wakes_everyone() {
        Kernel::run_root(|| {
            let pair = Arc::new((SimMutex::new("flag", false), SimCondvar::new("flag")));
            let counter = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for i in 0..5 {
                let p = Arc::clone(&pair);
                let c = Arc::clone(&counter);
                handles.push(spawn(format!("w{i}"), move || {
                    let (m, cv) = &*p;
                    let g = m.lock();
                    let _g = cv.wait_while(g, |set| !*set);
                    c.fetch_add(1, Ordering::Relaxed);
                }));
            }
            sleep(ms(1));
            let (m, cv) = &*pair;
            *m.lock() = true;
            assert_eq!(cv.notify_all(), 5);
            for h in handles {
                h.join();
            }
            assert_eq!(counter.load(Ordering::Relaxed), 5);
        });
    }

    #[test]
    fn notify_with_no_waiters_is_noop() {
        Kernel::run_root(|| {
            let cv = SimCondvar::new("cv");
            assert!(!cv.notify_one());
            assert_eq!(cv.notify_all(), 0);
        });
    }

    #[test]
    fn semaphore_wait_post() {
        Kernel::run_root(|| {
            let sem = Semaphore::new("s", 0);
            let sem2 = sem.clone();
            let h = spawn("waiter", move || {
                sem2.wait();
                now()
            });
            sleep(ms(30));
            sem.post();
            assert_eq!(h.join(), SimTime::ZERO + ms(30));
        });
    }

    #[test]
    fn semaphore_counts() {
        Kernel::run_root(|| {
            let sem = Semaphore::new("s", 2);
            assert!(sem.try_wait());
            assert!(sem.try_wait());
            assert!(!sem.try_wait());
            sem.post();
            assert_eq!(sem.count(), 1);
            sem.wait();
            assert_eq!(sem.count(), 0);
        });
    }

    #[test]
    fn barrier_releases_all_parties_together() {
        Kernel::run_root(|| {
            let b = Arc::new(Barrier::new("b", 3));
            let mut handles = Vec::new();
            for i in 0..3u64 {
                let b = Arc::clone(&b);
                handles.push(spawn(format!("p{i}"), move || {
                    sleep(ms(10 * (i + 1)));
                    b.wait();
                    now()
                }));
            }
            let times: Vec<SimTime> = handles.into_iter().map(|h| h.join()).collect();
            // Everyone leaves the barrier at the time the last party arrives.
            assert!(times.iter().all(|t| *t == SimTime::ZERO + ms(30)));
        });
    }

    #[test]
    fn barrier_is_reusable() {
        Kernel::run_root(|| {
            let b = Arc::new(Barrier::new("b", 2));
            let leaders = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for i in 0..2 {
                let b = Arc::clone(&b);
                let l = Arc::clone(&leaders);
                handles.push(spawn(format!("p{i}"), move || {
                    for _ in 0..10 {
                        if b.wait() {
                            l.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            // Exactly one leader per generation.
            assert_eq!(leaders.load(Ordering::Relaxed), 10);
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn lock_order_inversion_reports_deadlock() {
        let k = Kernel::new();
        let a = Arc::new(SimMutex::new("a", ()));
        let b = Arc::new(SimMutex::new("b", ()));
        {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            k.spawn("t1", move || {
                let _ga = a.lock();
                sleep(ms(1));
                let _gb = b.lock();
            });
        }
        {
            k.spawn("t2", move || {
                let _gb = b.lock();
                sleep(ms(1));
                let _ga = a.lock();
            });
        }
        k.run();
    }
}
