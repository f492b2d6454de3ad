//! An OS thread that finishes a simulated thread is handed the next one
//! to be spawned, so a kernel creates as many OS threads as it has
//! simulated threads alive at once — not as many as it ever spawns — and
//! every one of them has exited and been joined when a clean run returns:
//! the idle ones released, the ones still parked mid-body unwound.

use simkernel::{
    current, ms, sleep, spawn, yield_now, Kernel, Polled, Semaphore, SimChannel, Step,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

/// The tests count this process's worker threads, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `root` as the root thread of a fresh kernel; hands the kernel back.
fn run_root(root: impl FnOnce() + Send + 'static) -> Kernel {
    let k = Kernel::new();
    k.spawn("root", root);
    k.run();
    k
}

/// The text of the failure `root`'s run ends in.
fn failure_of(k: &Kernel, root: impl FnOnce() + Send + 'static) -> String {
    k.spawn("root", root);
    let err = catch_unwind(AssertUnwindSafe(|| k.run())).expect_err("the run must fail");
    err.downcast_ref::<String>().cloned().expect("string panic")
}

#[test]
fn sequential_spawns_share_one_worker() {
    let _serial = serial();
    let k = run_root(|| {
        for i in 0..10_000u64 {
            assert_eq!(spawn("child", move || i).join(), i);
        }
    });
    assert!(k.os_threads_created() <= 2, "{}", k.os_threads_created());
}

#[test]
fn os_threads_follow_peak_concurrency() {
    let _serial = serial();
    let k = run_root(|| {
        for wave in 0..2 {
            let children: Vec<_> = (0..64)
                .map(|i| spawn(format!("w{wave}-{i}"), || sleep(ms(1))))
                .collect();
            children.into_iter().for_each(|c| c.join());
        }
    });
    assert_eq!(k.os_threads_created(), 64 + 1);
}

#[test]
fn a_recycled_worker_is_the_new_thread() {
    let _serial = serial();
    let k = Kernel::new();
    let root = k.spawn("root", || {
        (0..5u64)
            .map(|i| {
                let h = spawn(format!("life-{i}"), move || {
                    let os_name = std::thread::current().name().map(str::to_owned);
                    (current().1, i, os_name)
                });
                sleep(ms(1)); // the child never blocks: it has finished
                h
            })
            .collect::<Vec<_>>()
    });
    k.run();
    assert_eq!(k.os_threads_created(), 2);
    for (i, h) in root.take_result().unwrap().into_iter().enumerate() {
        // Root took worker 0; every life ran on worker 1.
        let expected = (h.tid(), i as u64, Some("sim-worker-1".to_owned()));
        assert_eq!(h.take_result(), Some(expected), "{}", h.name());
    }
}

#[test]
fn a_panic_in_a_recycled_worker_fails_the_run_under_its_simulated_name() {
    let _serial = serial();
    let k = Kernel::new();
    let msg = failure_of(&k, || {
        spawn("first-life", || ()).join();
        spawn("second-life", || panic!("boom")).join()
    });
    assert_eq!(k.os_threads_created(), 2);
    assert!(msg.contains("thread 'second-life' panicked: boom"), "{msg}");
    // The failed kernel leaves nothing behind that a fresh one trips on.
    let fresh = run_root(|| assert_eq!(spawn("child", || 7).join(), 7));
    assert_eq!(fresh.os_threads_created(), 2);
}

#[test]
fn dumps_name_the_simulated_thread_not_the_worker() {
    let _serial = serial();
    let k = Kernel::new();
    let deadlock = failure_of(&k, || {
        spawn("first-life", || ()).join();
        spawn("stuck-second-life", || Semaphore::new("never", 0).wait()).join()
    });
    assert!(deadlock.contains("deadlock at"), "{deadlock}");
    assert!(deadlock.contains("'stuck-second-life'"), "{deadlock}");
    assert!(!deadlock.contains("sim-worker"), "{deadlock}");

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
    assert!(!livelock.contains("sim-worker"), "{livelock}");
}

/// `Threads:` of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

/// Run 100 kernels that each hold `workers` OS threads at once; `Threads:`
/// must end where it began.
#[cfg(target_os = "linux")]
fn a_hundred_runs_leave_no_os_thread_behind(workers: usize, run: impl Fn() -> usize) {
    let _serial = serial();
    let before = os_threads();
    for _ in 0..100 {
        let seen = run();
        assert!(seen >= workers, "{seen}");
    }
    // 100 × `workers` OS threads were created and joined. The count may be
    // off by the test harness's own threads coming and going, and `join`
    // returns when the kernel clears the exiting thread's tid, a moment
    // before the thread is gone from the count — but not by one run's worth.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while os_threads() >= before + workers && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let after = os_threads();
    assert!(
        after < before + workers,
        "every worker must exit and be joined: {before} -> {after} OS threads"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn finished_runs_leave_no_os_thread_behind() {
    const WORKERS: usize = 1 + 8;
    a_hundred_runs_leave_no_os_thread_behind(WORKERS, || {
        Kernel::run_root(|| {
            let children: Vec<_> = (0..WORKERS - 1)
                .map(|_| spawn("child", os_threads))
                .collect();
            children.into_iter().map(|c| c.join()).max().unwrap()
        })
    });
}

/// The same with threads that never finish: eight daemons parked for good
/// and eight stepped services, unwound and dropped when the run ends.
#[cfg(target_os = "linux")]
#[test]
fn finished_runs_leave_no_daemon_os_thread_behind() {
    const WORKERS: usize = 1 + 8;
    a_hundred_runs_leave_no_os_thread_behind(WORKERS, || {
        let k = Kernel::new();
        for i in 0..WORKERS - 1 {
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
        let root = k.spawn("root", || {
            sleep(ms(1)); // every daemon is parked mid-body
            os_threads()
        });
        k.run();
        root.take_result().unwrap()
    });
}
