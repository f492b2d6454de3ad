//! One carrier: every simulated thread of a kernel runs on one OS thread,
//! however many are spawned or alive at once, and a run — clean or failed
//! — leaves none behind when it returns. A `MultiKernel` has one carrier
//! per domain.

use simkernel::{
    ms, sleep, spawn, us, yield_now, Kernel, MultiDomainConfig, MultiKernel, Polled, Semaphore,
    SimChannel, Step,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

/// The tests count this process's OS threads, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// This process's simulator OS threads: tasks named `sim-…` (the carrier
/// of a `Kernel::run`) or `domain-…` (of a `MultiKernel` domain), read from
/// `/proc/self/task`. `Threads:` of `/proc/self/status` would also count
/// the test harness's own threads, which come and go.
fn os_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm")).ok();
    let comms = tasks.filter_map(|t| comm(t.ok()?));
    comms
        .filter(|c| c.starts_with("sim-") || c.starts_with("domain-"))
        .count()
}

/// The text of the failure `root`'s run ends in.
fn failure_of(k: &Kernel, root: impl FnOnce() + Send + 'static) -> String {
    k.spawn("root", root);
    let err = catch_unwind(AssertUnwindSafe(|| k.run())).expect_err("the run must fail");
    err.downcast_ref::<String>().cloned().expect("string panic")
}

#[test]
fn a_thousand_threads_run_on_one_carrier() {
    let _serial = serial();
    let peak = Kernel::run_root(|| {
        let children: Vec<_> = (0..1_000u64)
            .map(|i| {
                spawn(format!("child-{i}"), move || {
                    sleep(us(i % 7));
                    os_threads()
                })
            })
            .collect();
        let seen = children.into_iter().map(|c| c.join()).max().unwrap();
        let sequential = (0..1_000).map(|_| spawn("seq", os_threads).join()).max();
        seen.max(sequential.unwrap())
    });
    assert_eq!(peak, 1);
}

#[test]
fn four_domains_run_on_four_carriers() {
    let _serial = serial();
    let mk = MultiKernel::new(MultiDomainConfig::new(4, us(50)));
    let (tx, rx) = mk.port::<usize>("peaks", 1, 0, us(60));
    let sampler = mk.domain(0).spawn("sampler", move || {
        let mut peak = os_threads();
        for _ in 0..3 {
            peak = peak.max(rx.recv().unwrap());
        }
        peak
    });
    mk.domain(1).spawn("reporter", move || {
        for _ in 0..3 {
            sleep(ms(1));
            tx.send(os_threads()).unwrap();
        }
    });
    for d in 2..4 {
        mk.domain(d).spawn(format!("busy-{d}"), || {
            for _ in 0..10 {
                sleep(us(300));
            }
        });
    }
    mk.run();
    let peak = sampler.take_result().unwrap();
    assert_eq!(peak, 4);
}

#[test]
fn a_panic_on_a_reused_stack_fails_the_run_under_its_simulated_name() {
    let _serial = serial();
    let k = Kernel::new();
    let msg = failure_of(&k, || {
        spawn("first-life", || ()).join();
        spawn("second-life", || panic!("boom")).join()
    });
    assert!(msg.contains("thread 'second-life' panicked: boom"), "{msg}");
    // The failed kernel leaves nothing behind that a fresh one trips on.
    assert_eq!(Kernel::run_root(|| spawn("child", || 7).join()), 7);
}

#[test]
fn dumps_name_the_simulated_thread_not_the_carrier() {
    let _serial = serial();
    let k = Kernel::new();
    let deadlock = failure_of(&k, || {
        spawn("first-life", || ()).join();
        spawn("stuck-second-life", || Semaphore::new("never", 0).wait()).join()
    });
    assert!(deadlock.contains("deadlock at"), "{deadlock}");
    assert!(deadlock.contains("'stuck-second-life'"), "{deadlock}");
    assert!(!deadlock.contains("sim-carrier"), "{deadlock}");

    let k = Kernel::new();
    k.set_livelock_threshold(Some(100));
    let livelock = failure_of(&k, || {
        spawn("first-life", || ()).join();
        spawn("spinning-second-life", || loop {
            yield_now()
        })
        .join()
    });
    assert!(livelock.contains("livelock at"), "{livelock}");
    assert!(livelock.contains("'spinning-second-life'"), "{livelock}");
    assert!(!livelock.contains("sim-carrier"), "{livelock}");
}

/// Run `run` 100 times; no simulator OS thread may be left.
fn a_hundred_runs_leave_no_os_thread_behind(run: impl Fn()) {
    let _serial = serial();
    for _ in 0..100 {
        run();
    }
    // `join` returns when the kernel clears the exiting thread's tid, a
    // moment before the thread is gone from `/proc`.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while os_threads() > 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(os_threads(), 0, "simulator OS threads left behind");
}

/// Eight children that finish, eight daemons parked for good and eight
/// stepped services, unwound and dropped when the run ends.
#[test]
fn finished_runs_leave_no_os_thread_behind() {
    a_hundred_runs_leave_no_os_thread_behind(|| {
        let k = Kernel::new();
        for i in 0..8 {
            let never = SimChannel::<()>::unbounded("never");
            let rx = never.clone();
            k.spawn_daemon(format!("daemon-{i}"), move || rx.recv());
            k.spawn_stepped(format!("service-{i}"), true, move || {
                match never.poll_recv() {
                    Polled::Wait(w) => Step::Wait(w),
                    Polled::Ready(_) => Step::Exit,
                }
            });
        }
        k.spawn("root", || {
            let children: Vec<_> = (0..8).map(|_| spawn("child", || sleep(ms(1)))).collect();
            children.into_iter().for_each(|c| c.join());
        });
        k.run();
    });
}

/// A failed run resumes none of its threads, and its carrier still exits.
#[test]
fn failed_runs_leave_no_os_thread_behind() {
    a_hundred_runs_leave_no_os_thread_behind(|| {
        let k = Kernel::new();
        for i in 0..4 {
            let never = SimChannel::<()>::unbounded("never");
            k.spawn_daemon(format!("parked-{i}"), move || never.recv());
        }
        let msg = failure_of(&k, || {
            sleep(ms(1)); // every daemon is parked mid-body
            panic!("boom")
        });
        assert!(msg.contains("thread 'root' panicked: boom"), "{msg}");
    });
}
