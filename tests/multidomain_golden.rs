//! Multi-domain kernel compatibility and determinism goldens.
//!
//! Two guarantees pin the multi-domain rework to the serial kernel:
//!
//! 1. **`domains = 1` is the old kernel, byte for byte.** A single-domain
//!    [`MultiKernel`] running the scheduler-golden mixed workload must
//!    reproduce `tests/golden/scheduler_trace.txt` exactly — the same
//!    file the serial scheduler is held to in `scheduler_golden.rs`.
//!    Single-domain runs never pause at horizons, never salt the RNG,
//!    and never tag thread ids, so any byte of divergence means the
//!    multi-domain machinery leaked into the serial path.
//!
//! 2. **Fixed `(seed, domain count)` is reproducible.** A 4-domain
//!    workload with cross-domain traffic yields an identical merged
//!    trace fingerprint across repeated runs, under both `Fifo` and
//!    `Random(seed)` scheduling — parallel execution must not let
//!    wall-clock interleaving reach simulation state.

use simkernel::domain::{MultiDomainConfig, MultiKernel};
use simkernel::time::us;
use simkernel::{SchedPolicy, Semaphore, SimChannel, SimCondvar, SimMutex};
use std::sync::Arc;

/// The scheduler-golden mixed workload (see `scheduler_golden.rs`), run
/// on a single-domain [`MultiKernel`] instead of a plain [`Kernel`].
///
/// [`Kernel`]: simkernel::Kernel
fn mixed_workload_single_domain() -> String {
    let mk = MultiKernel::new(MultiDomainConfig::new(1, us(50)));
    let k = mk.domain(0);
    k.keep_trace();

    let work: SimChannel<u64> = SimChannel::bounded("work", 2);
    let done: SimChannel<u64> = SimChannel::with_options("done", None, us(50));

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
                    work.send(p * 10 + i).unwrap();
                    simkernel::yield_now();
                }
                sem.wait();
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
                    sum += done.recv().unwrap();
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
        assert_eq!(quick.join(), 7);

        for h in producers {
            h.join();
        }
        let sum = consumer.join();
        let expect: u64 = (0..3u64)
            .flat_map(|p| (0..4u64).map(move |i| (p * 10 + i) * 2))
            .sum();
        assert_eq!(sum, expect);
    });

    mk.run();
    let mut out = String::new();
    for (domain, ev) in mk.merged_trace() {
        assert_eq!(domain, 0, "single-domain trace must come from domain 0");
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
fn single_domain_reproduces_scheduler_golden_trace() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/scheduler_trace.txt"
    );
    let got = mixed_workload_single_domain();
    assert!(!got.is_empty());
    let want = std::fs::read_to_string(golden_path)
        .expect("missing golden trace; run scheduler_golden with UPDATE_SCHEDULER_GOLDEN=1");
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "single-domain MultiKernel event count diverged from the serial golden trace"
    );
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g, w,
            "single-domain trace diverged from serial golden at event {i}"
        );
    }
}

/// Four domains in a ring: every domain runs local churn (staggered
/// sleeps + a latency channel) while passing tokens around cross-domain
/// ports. Exercises parallel windows, barrier deliveries, and (under
/// `Random`) per-domain salted tie-breaking.
fn four_domain_fingerprint(policy: SchedPolicy) -> (usize, u64) {
    const D: u32 = 4;
    let mk = MultiKernel::new(MultiDomainConfig::new(D, us(50)).with_policy(policy));
    mk.enable_trace();

    let (txs, mut rxs): (Vec<_>, Vec<_>) = (0..D)
        .map(|d| mk.port::<u64>(format!("ring{d}"), d, (d + 1) % D, us(60)))
        .unzip();
    rxs.rotate_right(1); // rxs[d] now receives the (d-1) → d port

    for (d, (tx, rx)) in txs.into_iter().zip(rxs).enumerate() {
        let k = mk.domain(d as u32);
        // Local churn: a latency channel serviced by a helper thread.
        let local: SimChannel<u64> = SimChannel::with_options(format!("local{d}"), None, us(5));
        {
            let local = local.clone();
            k.spawn(format!("churn{d}"), move || {
                for i in 0..20u64 {
                    simkernel::sleep(us(3 + (i % 7)));
                    local.send(i).unwrap();
                }
                local.close();
            });
        }
        k.spawn(format!("node{d}"), move || {
            if d == 0 {
                tx.send(0).unwrap();
            }
            let mut hops = 0u64;
            loop {
                match rx.recv() {
                    Ok(v) => {
                        hops = v + 1;
                        if hops >= 12 {
                            // Retire the token and close the ring; the
                            // closure marker chases around and releases
                            // every other node's recv.
                            tx.close();
                            break;
                        }
                        simkernel::sleep(us(2));
                        tx.send(hops).unwrap();
                    }
                    Err(_) => {
                        tx.close();
                        break;
                    }
                }
            }
            while local.recv().is_ok() {}
            hops
        });
    }

    mk.run();
    mk.fingerprint()
}

#[test]
fn four_domain_runs_are_reproducible_under_fifo() {
    let runs: Vec<_> = (0..3)
        .map(|_| four_domain_fingerprint(SchedPolicy::Fifo))
        .collect();
    assert!(runs[0].0 > 0, "workload must produce trace events");
    assert_eq!(runs[0], runs[1], "fifo run 2 diverged");
    assert_eq!(runs[0], runs[2], "fifo run 3 diverged");
}

#[test]
fn four_domain_runs_are_reproducible_under_random() {
    let runs: Vec<_> = (0..3)
        .map(|_| four_domain_fingerprint(SchedPolicy::Random(0xC0FFEE)))
        .collect();
    assert!(runs[0].0 > 0, "workload must produce trace events");
    assert_eq!(runs[0], runs[1], "random run 2 diverged");
    assert_eq!(runs[0], runs[2], "random run 3 diverged");
}
