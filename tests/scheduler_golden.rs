//! Scheduler golden-trace regression test.
//!
//! `tests/golden/scheduler_trace.txt` was recorded from the pre-rework
//! broadcast scheduler (global `Condvar::notify_all` + `HashMap` thread
//! table). The fast-path scheduler (per-thread parking slots, slab,
//! allocation-free block paths) must reproduce that trace *byte for
//! byte*: same virtual times, same thread ids, same event labels, same
//! order. Any divergence means the rework changed observable scheduling
//! behaviour, not just its wall-clock cost.
//!
//! Regenerate (only when intentionally changing scheduling semantics):
//!
//! ```text
//! UPDATE_SCHEDULER_GOLDEN=1 cargo test --test scheduler_golden
//! ```

use simkernel::time::us;
use simkernel::{Kernel, Semaphore, SimChannel, SimCondvar, SimMutex};
use std::sync::Arc;

/// A mixed workload covering every scheduler path: staggered sleeps
/// (timed run-queue), yields (same-time re-queue), bounded-channel
/// sends (block on full), latency channels (timed waits racing wakes),
/// semaphore posts (early wakes of blocked threads), condvar
/// notify/wait, joins (immediate and delayed), and a daemon service
/// thread parked at shutdown.
fn mixed_workload() -> Vec<simkernel::TraceEvent> {
    let k = Kernel::new();
    k.keep_trace();

    let work: SimChannel<u64> = SimChannel::bounded("work", 2);
    let done: SimChannel<u64> = SimChannel::with_options("done", None, us(50));

    // Daemon echo service: doubles items; blocked on an empty queue at
    // simulation end, so shutdown parks it (daemon exit path).
    {
        let (work, done) = (work.clone(), done.clone());
        k.spawn_daemon("svc", move || {
            while let Ok(v) = work.recv() {
                done.send(v * 2).unwrap();
            }
        });
    }

    let root_work = work.clone();
    k.spawn("root", move || {
        let state = Arc::new((SimMutex::new("gate", 0u64), SimCondvar::new("gate")));
        let sem = Semaphore::new("credits", 0);

        let mut producers = Vec::new();
        for p in 0..3u64 {
            let work = root_work.clone();
            let state = Arc::clone(&state);
            let sem = sem.clone();
            producers.push(simkernel::spawn(format!("prod{p}"), move || {
                for i in 0..4u64 {
                    simkernel::sleep(us(30 * p + 7 * i));
                    work.send(p * 10 + i).unwrap(); // capacity 2: blocks when full
                    simkernel::yield_now();
                }
                sem.wait(); // early-woken by the consumer's posts
                let (m, cv) = &*state;
                *m.lock() += 1;
                cv.notify_one();
            }));
        }

        let consumer = {
            let done = done.clone();
            let state = Arc::clone(&state);
            let sem = sem.clone();
            simkernel::spawn("consumer", move || {
                let mut sum = 0u64;
                for _ in 0..12 {
                    sum += done.recv().unwrap(); // 50µs latency → timed waits
                }
                for _ in 0..3 {
                    sem.post();
                }
                let (m, cv) = &*state;
                let g = m.lock();
                let g = cv.wait_while(g, |n| *n < 3);
                drop(g);
                sum
            })
        };

        let quick = simkernel::spawn("quick", || 7u64);
        simkernel::sleep(us(1));
        assert_eq!(quick.join(), 7); // join on an already-finished thread

        for h in producers {
            h.join();
        }
        let sum = consumer.join();
        let expect: u64 = (0..3u64)
            .flat_map(|p| (0..4u64).map(move |i| (p * 10 + i) * 2))
            .sum();
        assert_eq!(sum, expect);
    });

    k.run();
    k.trace()
}

fn render(trace: &[simkernel::TraceEvent]) -> String {
    let mut out = String::new();
    for ev in trace {
        out.push_str(&format!(
            "{}\t{}\t{}\n",
            ev.time.as_nanos(),
            ev.tid,
            ev.label
        ));
    }
    out
}

#[test]
fn scheduler_reproduces_pre_rework_golden_trace() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/scheduler_trace.txt"
    );
    let got = render(&mixed_workload());
    assert!(!got.is_empty());

    if std::env::var("UPDATE_SCHEDULER_GOLDEN").map(|v| v == "1") == Ok(true) {
        std::fs::write(golden_path, &got).unwrap();
        eprintln!("updated {golden_path}");
        return;
    }

    let want = std::fs::read_to_string(golden_path)
        .expect("missing golden trace; run with UPDATE_SCHEDULER_GOLDEN=1 to record");
    // Compare line counts first for a readable failure.
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "event count diverged from the pre-rework scheduler"
    );
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "trace diverged at event {i}");
    }
}

/// The golden workload itself is deterministic: two runs, identical
/// traces (guards against the workload being an unstable fixture).
#[test]
fn golden_workload_is_deterministic() {
    assert_eq!(render(&mixed_workload()), render(&mixed_workload()));
}
