//! A finished kernel frees its world: when a run ends cleanly, everything
//! the kernel still holds — parked daemons' stacks, closures, steps,
//! threads never granted — is dropped before `run` returns, without adding
//! to the trace or the obs stream; a destructor that blocks costs one
//! abandoned thread, not the process; a failed run is left alone.

use simkernel::{
    current, ms, now, obs, sleep, sleep_poll, spawn, us, Kernel, MultiDomainConfig, MultiKernel,
    Polled, SchedPolicy, SimChannel, SimMutex, Step, Tick, Tid,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A clone of the sentinel that also notes which simulated thread it was
/// dropped as.
struct Held(#[allow(dead_code)] Arc<()>, Arc<Mutex<Vec<Tid>>>);

impl Drop for Held {
    fn drop(&mut self) {
        self.1.lock().unwrap().push(current().1);
    }
}

/// Put a clone of `sentinel` in every place a kernel can hold state past
/// the end of a run. Returns the tids whose teardown drops a [`Held`], in
/// the order teardown reaches them.
fn populate(k: &Kernel, sentinel: &Arc<()>, drops: &Arc<Mutex<Vec<Tid>>>) -> Vec<Tid> {
    let never = || SimChannel::<()>::unbounded("never");
    let held = || Held(Arc::clone(sentinel), Arc::clone(drops));
    let mut tids = Vec::new();

    // On a parked daemon's stack.
    let (h, ch) = (held(), never());
    let on_stack = k.spawn_daemon("on-stack", move || {
        let _local = h;
        let _ = ch.recv();
    });
    tids.push(on_stack.tid());

    // In a daemon's captures, which its body only borrows.
    let (h, ch) = (held(), never());
    tids.push(
        k.spawn_daemon("captures", move || {
            let _ = (&h, ch.recv());
        })
        .tid(),
    );

    // In a step.
    let (h, ch) = (held(), never());
    let stepped = k.spawn_stepped("stepped", true, move || match (&h, ch.poll_recv()) {
        (_, Polled::Wait(w)) => Step::Wait(w),
        _ => Step::Exit,
    });
    tids.push(stepped.tid());

    // In the tick a sleeping thread left with the scheduler, and in a
    // result nobody took: the handle sits on the sleeper's stack.
    let (h, s2) = (held(), Arc::clone(sentinel));
    tids.push(
        k.spawn_daemon("sleeper", move || {
            let _untaken = spawn("result", move || s2);
            sleep_poll(ms(1), move |_| {
                let _ = &h;
                Tick::Idle { until: None }
            });
        })
        .tid(),
    );

    // In a thread spawned in the run's last instant and never granted.
    let h = held();
    k.spawn("root", move || {
        sleep(ms(5));
        current().0.spawn_daemon("late", move || drop(h));
    });
    // "late" is spawned after "result": it is the last tid of all.
    tids.push(tids.last().unwrap() + 3);
    tids
}

#[test]
fn a_clean_run_drops_everything_the_kernel_held() {
    let policies = (0..10).map(SchedPolicy::Random);
    for policy in std::iter::once(SchedPolicy::Fifo).chain(policies) {
        let (sentinel, drops) = (Arc::new(()), Arc::default());
        let k = Kernel::new_with_policy(policy);
        let tids = populate(&k, &sentinel, &drops);
        assert!(Arc::strong_count(&sentinel) > 5);
        k.run();
        assert_eq!(Arc::strong_count(&sentinel), 1, "{policy:?}");
        // Each was dropped as the thread that held it, in tid order.
        assert_eq!(*drops.lock().unwrap(), tids, "{policy:?}");
    }
}

#[test]
fn every_domain_of_a_clean_multi_domain_run_is_torn_down() {
    for domains in [2, 4] {
        let (sentinel, drops) = (Arc::new(()), Arc::default());
        let mk = MultiKernel::new(MultiDomainConfig::new(domains, us(50)));
        let tids: Vec<Tid> = (0..domains)
            .flat_map(|d| populate(mk.domain(d), &sentinel, &drops))
            .collect();
        mk.run();
        assert_eq!(Arc::strong_count(&sentinel), 1, "{domains} domains");
        assert_eq!(*drops.lock().unwrap(), tids, "domain order, then tid order");
    }
}

/// Locks the mutex when dropped, and says that it got there.
struct LocksOnDrop(Arc<SimMutex<u32>>, Arc<AtomicBool>);

impl Drop for LocksOnDrop {
    fn drop(&mut self) {
        *self.0.lock() += 1;
        self.1.store(true, Ordering::Relaxed);
    }
}

struct SetsOnDrop(Arc<AtomicBool>);

impl Drop for SetsOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Two daemons parked for good: "holder" with a guard of the mutex on its
/// stack, "dropper" with — if `locks` — a [`LocksOnDrop`] on its stack and
/// a [`SetsOnDrop`] declared before it. Returns whether each destructor
/// ran to its end, and what the run observably was.
fn mutex_pair(holder_first: bool, locks: bool) -> ([bool; 2], (u64, usize, u64)) {
    let m = Arc::new(SimMutex::new("m", 0u32));
    let [locked, early] = [(); 2].map(|()| Arc::new(AtomicBool::new(false)));
    let never = SimChannel::<()>::unbounded("never");
    let k = Kernel::new();
    k.enable_trace();
    let spawn_holder = |k: &Kernel| {
        let (m, never) = (Arc::clone(&m), never.clone());
        k.spawn_daemon("holder", move || {
            let _guard = m.lock();
            let _ = never.recv();
        });
    };
    if holder_first {
        spawn_holder(&k);
    }
    let (m2, never2) = (Arc::clone(&m), never.clone());
    let (locked2, early2) = (Arc::clone(&locked), Arc::clone(&early));
    k.spawn_daemon("dropper", move || {
        sleep(ms(1)); // the holder has the lock by now
        let _early = SetsOnDrop(early2);
        let _locks = locks.then(|| LocksOnDrop(m2, locked2));
        let _ = never2.recv();
    });
    if !holder_first {
        spawn_holder(&k);
    }
    let root = k.spawn("root", || {
        sleep(ms(3));
        now().as_nanos()
    });
    k.run();
    let ran = [&locked, &early].map(|f| f.load(Ordering::Relaxed));
    let result = root.take_result().expect("root finished");
    (ran, (result, k.trace_len(), k.trace_digest()))
}

#[test]
fn a_mutex_whose_guard_the_unwind_dropped_still_locks() {
    // The holder goes first: its guard is dropped mid-unwind (std poisons
    // the data mutex), then the dropper's destructor takes the free lock.
    let ([locked, early], _) = mutex_pair(true, true);
    assert!(locked && early);
}

#[test]
fn a_destructor_that_blocks_abandons_its_thread_and_nothing_else() {
    // The dropper goes first: its destructor finds the mutex held, and
    // nobody is left to hand it over. The thread is abandoned there — the
    // local declared before the blocking one is never dropped — and
    // teardown moves on to the holder.
    let ([locked, early], with) = mutex_pair(false, true);
    assert!(!locked && !early);
    // Nothing of it shows in the run: same result, same trace as a
    // dropper with nothing to lock.
    let ([_, early], without) = mutex_pair(false, false);
    assert!(early);
    assert_eq!(with, without);
}

struct Bomb;

impl Drop for Bomb {
    fn drop(&mut self) {
        panic!("bomb");
    }
}

#[test]
fn a_step_whose_destructor_panics_fails_the_run_by_name() {
    let (sentinel, drops) = (Arc::new(()), Arc::default());
    let k = Kernel::new();
    let bomb = Bomb;
    let never = SimChannel::<()>::unbounded("never");
    k.spawn_stepped("bomber", true, move || match (&bomb, never.poll_recv()) {
        (_, Polled::Wait(w)) => Step::Wait(w),
        _ => Step::Exit,
    });
    populate(&k, &sentinel, &drops);
    let err = catch_unwind(AssertUnwindSafe(|| k.run())).expect_err("the run must fail");
    let msg = err.downcast_ref::<String>().expect("string panic");
    assert_eq!(
        msg,
        "simulation failed: teardown of 'bomber' panicked: bomb"
    );
    // The rest was still freed, the scheduler lock is not poisoned, and
    // the process is fine.
    assert_eq!(Arc::strong_count(&sentinel), 1);
    assert_eq!(k.live_threads(), 0);
    assert_eq!(Kernel::run_root(|| spawn("child", || 7).join()), 7);
}

#[test]
fn a_step_whose_destructor_blocks_fails_the_run_by_name() {
    let k = Kernel::new();
    let m = Arc::new(SimMutex::new("m", 0u32));
    let never = SimChannel::<()>::unbounded("never");
    // The lower tid: dropped while the holder still holds.
    let (locks, never2) = (LocksOnDrop(Arc::clone(&m), Arc::default()), never.clone());
    k.spawn_stepped("locker", true, move || match (&locks, never2.poll_recv()) {
        (_, Polled::Wait(w)) => Step::Wait(w),
        _ => Step::Exit,
    });
    k.spawn_daemon("holder", move || {
        let _guard = m.lock();
        let _ = never.recv();
    });
    k.spawn("root", || sleep(ms(1)));
    let err = catch_unwind(AssertUnwindSafe(|| k.run())).expect_err("the run must fail");
    let msg = err.downcast_ref::<String>().expect("string panic");
    assert_eq!(
        msg,
        "simulation failed: teardown of 'locker' panicked: blocked on mutex 'm' during teardown"
    );
}

#[test]
fn an_open_span_on_a_parked_stack_adds_no_obs_event() {
    obs::enable();
    let k = Kernel::new();
    let never = SimChannel::<()>::unbounded("never");
    k.spawn_daemon("spanned", move || {
        let _span = obs::span!("held-open");
        let _ = never.recv();
    });
    let root = k.spawn("root", || {
        sleep(ms(1));
        obs::events_total()
    });
    k.run();
    let after = obs::events_total();
    obs::disable();
    let before = root.take_result().expect("root finished");
    assert!(before > 0, "the span was recorded when it opened");
    assert_eq!(after, before);
}

#[test]
fn a_failed_run_is_left_alone() {
    let fail = |root: fn()| {
        let (sentinel, never) = (Arc::new(()), SimChannel::<()>::unbounded("never"));
        let k = Kernel::new();
        let held = Arc::clone(&sentinel);
        k.spawn_daemon("survivor", move || {
            let _held = held;
            let _ = never.recv();
        });
        k.spawn("root", root);
        let err = catch_unwind(AssertUnwindSafe(|| k.run())).expect_err("the run must fail");
        // The survivor is parked for good, its stack with it.
        assert_eq!(Arc::strong_count(&sentinel), 2);
        err.downcast_ref::<String>().expect("string panic").clone()
    };
    let panicked = fail(|| {
        sleep(ms(1));
        panic!("boom")
    });
    assert_eq!(panicked, "simulation failed: thread 'root' panicked: boom");
    let deadlocked = fail(|| {
        sleep(ms(1));
        let _ = SimChannel::<()>::unbounded("nobody-sends").recv();
    });
    let expected = "simulation failed: deadlock at ";
    assert!(deadlocked.starts_with(expected), "{deadlocked}");
    assert!(deadlocked.contains("'root' parked for"), "{deadlocked}");
}
