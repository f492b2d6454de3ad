//! Property tests of the simulation kernel's core guarantees under
//! randomly-shaped thread workloads: determinism, mutual exclusion,
//! per-producer FIFO ordering, and clock monotonicity.

use proptest::prelude::*;
use simkernel::{
    now, sleep, spawn, Kernel, Semaphore, SimChannel, SimDuration, SimMutex, SimTime, TraceEvent,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A random workload description: per-thread sequences of sleep lengths.
fn workload() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..5_000, 0..8), 1..6)
}

/// Run `plan` with the trace folded (`keep == false`) or folded and
/// kept; returns the kept events, `(trace_len, trace_digest)` and the
/// end time.
fn run_workload(plan: &[Vec<u64>], keep: bool) -> (Vec<TraceEvent>, (usize, u64), u64) {
    let k = Kernel::new();
    if keep {
        k.keep_trace();
    } else {
        k.enable_trace();
    }
    for (i, sleeps) in plan.iter().enumerate() {
        let sleeps = sleeps.clone();
        k.spawn(format!("t{i}"), move || {
            for us in sleeps {
                sleep(SimDuration::from_micros(us));
            }
        });
    }
    k.run();
    let fingerprint = (k.trace_len(), k.trace_digest());
    (k.trace(), fingerprint, k.now().as_nanos())
}

/// `Kernel::trace_digest` as it was computed before it became a running
/// fold: FNV-1a walked over the stored events. The reference the fold
/// is held to.
fn digest_by_walk(events: &[TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    for ev in events {
        mix(&ev.time.as_nanos().to_le_bytes());
        mix(&ev.tid.to_le_bytes());
        mix(ev.label.as_bytes());
        mix(&[0xff]);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Any workload executes identically twice: same trace, same end time.
    #[test]
    fn schedules_are_deterministic(plan in workload()) {
        prop_assert_eq!(run_workload(&plan, true), run_workload(&plan, true));
    }

    /// The running fold is the walk over the events it replaces, and
    /// folding alone stores nothing yet reads the same pair.
    #[test]
    fn trace_fold_equals_the_walk_over_kept_events(plan in workload()) {
        let (events, kept, end) = run_workload(&plan, true);
        prop_assert_eq!(kept, (events.len(), digest_by_walk(&events)));
        prop_assert_eq!(run_workload(&plan, false), (Vec::new(), kept, end));
    }

    /// The simulation ends exactly when the longest thread ends.
    #[test]
    fn end_time_is_max_thread_time(plan in workload()) {
        let (_, _, end) = run_workload(&plan, false);
        let expect: u64 = plan
            .iter()
            .map(|s| s.iter().sum::<u64>() * 1_000)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(end, expect);
    }

    /// Mutual exclusion holds for any contention pattern: a counter
    /// incremented non-atomically under a SimMutex never loses updates.
    #[test]
    fn mutex_exclusion_under_contention(
        nthreads in 1usize..6,
        iters in 1u64..20,
        hold_us in 0u64..50,
    ) {
        Kernel::run_root(move || {
            let m = Arc::new(SimMutex::new("ctr", 0u64));
            let raw = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for t in 0..nthreads {
                let m = Arc::clone(&m);
                let raw = Arc::clone(&raw);
                handles.push(spawn(format!("w{t}"), move || {
                    for i in 0..iters {
                        let mut g = m.lock();
                        let v = *g;
                        if hold_us > 0 && i % 3 == 0 {
                            sleep(SimDuration::from_micros(hold_us));
                        }
                        *g = v + 1;
                        raw.fetch_add(1, Ordering::Relaxed);
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            assert_eq!(*m.lock(), nthreads as u64 * iters);
            assert_eq!(raw.load(Ordering::Relaxed), nthreads as u64 * iters);
        });
    }

    /// Per-producer FIFO: however producers interleave, each producer's
    /// messages arrive in its own send order.
    #[test]
    fn channel_per_producer_fifo(
        nproducers in 1usize..5,
        nmsgs in 1u64..25,
        jitter in prop::collection::vec(0u64..200, 1..40),
    ) {
        Kernel::run_root(move || {
            let ch: SimChannel<(usize, u64)> = SimChannel::unbounded("c");
            for p in 0..nproducers {
                let ch = ch.clone();
                let jitter = jitter.clone();
                spawn(format!("p{p}"), move || {
                    for i in 0..nmsgs {
                        sleep(SimDuration::from_micros(
                            jitter[(p + i as usize) % jitter.len()],
                        ));
                        ch.send((p, i)).unwrap();
                    }
                });
            }
            let mut last: Vec<Option<u64>> = vec![None; nproducers];
            for _ in 0..(nproducers as u64 * nmsgs) {
                let (p, i) = ch.recv().unwrap();
                if let Some(prev) = last[p] {
                    assert!(i > prev, "producer {p} reordered: {i} after {prev}");
                }
                last[p] = Some(i);
            }
        });
    }

    /// Virtual time observed by any single thread is monotone.
    #[test]
    fn clock_is_monotone(plan in workload()) {
        Kernel::run_root(move || {
            let violations = Arc::new(Mutex::new(0u32));
            let mut handles = Vec::new();
            for (i, sleeps) in plan.into_iter().enumerate() {
                let violations = Arc::clone(&violations);
                handles.push(spawn(format!("t{i}"), move || {
                    let mut prev = SimTime::ZERO;
                    for us in sleeps {
                        sleep(SimDuration::from_micros(us));
                        let t = now();
                        if t < prev {
                            *violations.lock().unwrap() += 1;
                        }
                        prev = t;
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            assert_eq!(*violations.lock().unwrap(), 0);
        });
    }

    /// Semaphore conservation: total successful waits equals total posts
    /// consumed (never more).
    #[test]
    fn semaphore_conservation(posts in 1u64..30, waiters in 1usize..5) {
        Kernel::run_root(move || {
            let sem = Semaphore::new("s", 0);
            let got = Arc::new(AtomicU64::new(0));
            for w in 0..waiters {
                let sem = sem.clone();
                let got = Arc::clone(&got);
                spawn(format!("w{w}"), move || {
                    while sem.try_wait() || {
                        sleep(SimDuration::from_micros(50));
                        sem.try_wait()
                    } {
                        got.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..posts {
                sem.post();
                sleep(SimDuration::from_micros(10));
            }
            sleep(SimDuration::from_millis(5));
            let consumed = got.load(Ordering::Relaxed);
            assert!(consumed <= posts, "consumed {consumed} > posted {posts}");
            assert_eq!(consumed + sem.count(), posts);
        });
    }
}
