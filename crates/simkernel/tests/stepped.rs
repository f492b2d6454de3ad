//! A stepped service (`Kernel::spawn_stepped`) must be observably identical
//! to the OS-thread body it replaces: same trace, same clocks, same
//! results — under both tie-break policies and across domain counts. Each
//! scenario below is written twice, once as a thread over the blocking
//! forms (`recv`, `transfer`, `SimCondvar::wait`) and once as a step over
//! their cores (`poll_recv`, `schedule`, `park`) — and a third time with
//! the one service that polls on a grid answering `Step::Idle` instead of
//! `Step::Wait(sleep)`. The second half holds a misbehaving step to a
//! typed failure.

use simkernel::{
    ms, now, sleep, spawn, us, BandwidthResource, Kernel, MultiDomainConfig, MultiKernel, Polled,
    SchedPolicy, SimChannel, SimCondvar, SimDuration, SimMutex, SimTime, Step, Wait,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// How a service is written: `Idle` is `Step`, with the grid poller's
/// empty turns promised idle.
#[derive(Clone, Copy)]
enum Form {
    Thread,
    Step,
    Idle,
}

/// What the scenario's threads observed: `(who, what, when)`.
type Log = Arc<Mutex<Vec<(&'static str, u64, SimTime)>>>;

fn note(log: &Log, who: &'static str, what: u64) {
    log.lock().unwrap().push((who, what, now()));
}

type Chan = SimChannel<u64>;

/// Echo over latency channels: every request goes straight back.
fn spawn_echo(k: &Kernel, form: Form, req: Chan, resp: Chan) {
    match form {
        Form::Thread => {
            k.spawn_daemon("echo", move || {
                while let Ok(v) = req.recv() {
                    resp.send(v).unwrap();
                }
            });
        }
        Form::Step | Form::Idle => {
            k.spawn_stepped("echo", true, move || loop {
                match req.poll_recv() {
                    Polled::Wait(w) => return Step::Wait(w),
                    Polled::Ready(Err(_)) => return Step::Exit,
                    Polled::Ready(Ok(v)) => resp.send(v).unwrap(),
                }
            });
        }
    }
}

/// A server whose reply crosses a link: a timed wait in mid-request. It
/// serves `n` requests and exits, so it can be joined.
fn spawn_link_server(
    k: &Kernel,
    form: Form,
    (req, resp): (Chan, Chan),
    link: BandwidthResource,
    n: u64,
) -> simkernel::JoinHandle<()> {
    match form {
        Form::Thread => k.spawn("link-server", move || {
            for _ in 0..n {
                let v = req.recv().unwrap();
                link.transfer(4096 * (v + 1));
                resp.send(v).unwrap();
            }
        }),
        Form::Step | Form::Idle => {
            let (mut served, mut crossing) = (0, None);
            k.spawn_stepped("link-server", false, move || loop {
                if let Some(v) = crossing.take() {
                    resp.send(v).unwrap();
                    served += 1;
                }
                if served == n {
                    return Step::Exit;
                }
                match req.poll_recv() {
                    Polled::Wait(w) => return Step::Wait(w),
                    Polled::Ready(r) => {
                        let v = r.unwrap();
                        crossing = Some(v);
                        let done = link.schedule(4096 * (v + 1));
                        if done > now() {
                            return Step::Wait(Wait::sleep(done.since(now())));
                        }
                    }
                }
            })
        }
    }
}

/// The condvar shape (`SimProcess::wait_exit`): wait for a flag, act once.
fn spawn_flag_watcher(k: &Kernel, form: Form, flag: Arc<(SimMutex<bool>, SimCondvar)>, log: Log) {
    match form {
        Form::Thread => {
            k.spawn_daemon("watcher", move || {
                let mut set = flag.0.lock();
                while !*set {
                    set = flag.1.wait(set);
                }
                note(&log, "watcher", 0);
            });
        }
        Form::Step | Form::Idle => {
            k.spawn_stepped("watcher", true, move || {
                let set = flag.0.lock();
                if !*set {
                    return Step::Wait(flag.1.park(set));
                }
                note(&log, "watcher", 0);
                Step::Exit
            });
        }
    }
}

/// The acceptor shape: one message from each of four channels, in order,
/// then a thread and a service are spawned from inside the acceptor.
fn spawn_acceptor(k: &Kernel, form: Form, doors: Vec<Chan>, work: Chan, log: Log) {
    let k2 = k.clone();
    let start = move |sum: u64| {
        let log2 = log.clone();
        spawn("started-thread", move || {
            sleep(us(3));
            note(&log2, "started-thread", sum);
        });
        spawn_sink(&k2, form, work.clone(), log.clone());
    };
    match form {
        Form::Thread => {
            k.spawn_daemon("acceptor", move || {
                let sum = doors.iter().map(|d| d.recv().unwrap()).sum();
                start(sum);
            });
        }
        Form::Step | Form::Idle => {
            let mut got = Vec::new();
            k.spawn_stepped("acceptor", true, move || {
                while got.len() < doors.len() {
                    match doors[got.len()].poll_recv() {
                        Polled::Wait(w) => return Step::Wait(w),
                        Polled::Ready(v) => got.push(v.unwrap()),
                    }
                }
                start(got.iter().sum());
                Step::Exit
            });
        }
    }
}

/// What the acceptor starts: a service that logs what it receives.
fn spawn_sink(k: &Kernel, form: Form, work: Chan, log: Log) {
    match form {
        Form::Thread => {
            k.spawn_daemon("sink", move || {
                while let Ok(v) = work.recv() {
                    note(&log, "sink", v);
                }
            });
        }
        Form::Step | Form::Idle => {
            k.spawn_stepped("sink", true, move || loop {
                match work.poll_recv() {
                    Polled::Wait(w) => return Step::Wait(w),
                    Polled::Ready(Err(_)) => return Step::Exit,
                    Polled::Ready(Ok(v)) => note(&log, "sink", v),
                }
            });
        }
    }
}

/// The drain-lock shape (`OffloadRuntime::stream_client`): look at a flag
/// every 40 µs, act once it is up.
fn spawn_grid_poller(k: &Kernel, form: Form, flag: Arc<AtomicBool>, log: Log) {
    let every = us(40);
    match form {
        Form::Thread => {
            k.spawn_daemon("grid-poller", move || {
                while !flag.load(Ordering::SeqCst) {
                    sleep(every);
                }
                note(&log, "grid-poller", 0);
            });
        }
        Form::Step | Form::Idle => {
            k.spawn_stepped("grid-poller", true, move || {
                if flag.load(Ordering::SeqCst) {
                    note(&log, "grid-poller", 0);
                    return Step::Exit;
                }
                match form {
                    Form::Idle => Step::Idle { every, until: None },
                    _ => Step::Wait(Wait::sleep(every)),
                }
            });
        }
    }
}

/// A non-daemon ticker: nothing joins it, yet the run lasts until it is
/// done.
fn spawn_ticker(k: &Kernel, form: Form, ticks: u64, log: Log) {
    match form {
        Form::Thread => {
            k.spawn("ticker", move || {
                for i in 0..ticks {
                    sleep(us(250));
                    note(&log, "ticker", i);
                }
            });
        }
        Form::Step | Form::Idle => {
            let mut i = 0;
            k.spawn_stepped("ticker", false, move || {
                if i > 0 {
                    note(&log, "ticker", i - 1);
                }
                i += 1;
                match i > ticks {
                    true => Step::Exit,
                    false => Step::Wait(Wait::sleep(us(250))),
                }
            });
        }
    }
}

struct Outcome {
    fingerprint: (usize, u64),
    clocks: Vec<SimTime>,
    log: Vec<(&'static str, u64, SimTime)>,
    inline_steps: u64,
}

/// Every shape at once, on grids that tie. The link server, the ticker
/// and a port receiver live in domain `1 % domains`, so one scenario
/// serves both domain counts.
fn run_scenario(form: Form, domains: u32, policy: SchedPolicy) -> Outcome {
    let mk = MultiKernel::new(MultiDomainConfig::new(domains, us(50)).with_policy(policy));
    mk.enable_trace();
    let (d0, d1) = (mk.domain(0), mk.domain(1 % domains));
    let log = Log::default();
    let latency = |name: &str| Chan::with_options(name, None, us(15));

    // Echo: a client on a 100 µs grid, replies timed by the latency.
    let (req, resp) = (latency("echo-req"), latency("echo-resp"));
    spawn_echo(d0, form, req.clone(), resp.clone());
    {
        let log = log.clone();
        d0.spawn("echo-client", move || {
            for i in 0..12 {
                sleep(us(100));
                req.send(i).unwrap();
                note(&log, "echo-client", resp.recv().unwrap());
            }
            req.close();
        });
    }

    // The acceptor's four doors open on the same grid (ties), out of order.
    let doors: Vec<Chan> = (0..4)
        .map(|i| Chan::unbounded(format!("door{i}")))
        .collect();
    let work = latency("work");
    spawn_acceptor(d0, form, doors.clone(), work.clone(), log.clone());
    {
        let flag = Arc::new((SimMutex::new("flag", false), SimCondvar::new("flag")));
        spawn_flag_watcher(d0, form, Arc::clone(&flag), log.clone());
        let up = Arc::new(AtomicBool::new(false));
        spawn_grid_poller(d0, form, Arc::clone(&up), log.clone());
        d0.spawn("opener", move || {
            for (i, door) in [2usize, 0, 3, 1].into_iter().enumerate() {
                sleep(us(100));
                doors[door].send(10 + i as u64).unwrap();
            }
            for v in 0..5 {
                sleep(us(100));
                work.send(v).unwrap();
            }
            up.store(true, Ordering::SeqCst);
            *flag.0.lock() = true;
            flag.1.notify_all();
        });
    }

    // The link server is joined; its clients overlap on the link.
    let link = BandwidthResource::new("link", simkernel::Bandwidth::mb_per_sec(100.0), us(5));
    let (lreq, lresp) = (latency("link-req"), latency("link-resp"));
    let server = spawn_link_server(d1, form, (lreq.clone(), lresp.clone()), link, 8);
    {
        let log = log.clone();
        d1.spawn("joiner", move || {
            server.join();
            note(&log, "joiner", 0);
        });
    }
    for c in 0..2u64 {
        let (lreq, lresp, log) = (lreq.clone(), lresp.clone(), log.clone());
        d1.spawn(format!("link-client{c}"), move || {
            for i in 0..4 {
                sleep(us(50 + 20 * c));
                lreq.send(4 * c + i).unwrap();
                note(&log, "link-client", lresp.recv().unwrap());
            }
        });
    }
    spawn_ticker(d1, form, 9, log.clone());

    // The two domains meet at window barriers.
    let (port_tx, port_rx) = mk.port::<u64>("laps", 0, 1 % domains, us(60));
    d0.spawn("port-tx", move || {
        for lap in 0..3 {
            sleep(us(170));
            port_tx.send(lap).unwrap();
        }
        port_tx.close();
    });
    {
        let log = log.clone();
        d1.spawn("port-rx", move || {
            while let Ok(lap) = port_rx.recv() {
                note(&log, "port-rx", lap);
            }
        });
    }

    mk.run();
    let mut log = std::mem::take(&mut *log.lock().unwrap());
    log.sort();
    Outcome {
        fingerprint: mk.fingerprint(),
        clocks: (0..domains).map(|d| mk.clock(d)).collect(),
        inline_steps: (0..domains).map(|d| mk.domain(d).inline_polls()).sum(),
        log,
    }
}

fn assert_equivalent(domains: u32, policy: SchedPolicy) -> Outcome {
    let threads = run_scenario(Form::Thread, domains, policy);
    let stepped = run_scenario(Form::Step, domains, policy);
    let idle = run_scenario(Form::Idle, domains, policy);
    let what = format!("domains={domains} {policy:?}");
    assert_eq!(threads.inline_steps, 0, "{what}");
    assert!(stepped.inline_steps > 50, "scenario too quiet: {what}");
    assert_eq!(stepped.inline_steps, idle.inline_steps, "{what}");
    for other in [&stepped, &idle] {
        assert_eq!(threads.fingerprint, other.fingerprint, "trace: {what}");
        assert_eq!(threads.clocks, other.clocks, "clocks: {what}");
        assert_eq!(threads.log, other.log, "observations: {what}");
    }
    stepped
}

#[test]
fn fifo_trace_is_identical() {
    let out = assert_equivalent(1, SchedPolicy::Fifo);
    let count = |who| out.log.iter().filter(|e| e.0 == who).count();
    assert_eq!(count("echo-client"), 12);
    assert_eq!(count("link-client"), 8);
    assert_eq!(count("sink"), 5);
    assert_eq!(count("started-thread"), 1);
    assert_eq!(count("watcher"), 1);
    assert_eq!(count("grid-poller"), 1);
    assert_eq!(count("joiner"), 1);
    // The non-daemon ticker outlives every other thread and holds the run
    // open to its last tick; the daemons still parked then do not.
    assert_eq!(count("ticker"), 9);
    assert_eq!(out.clocks[0], SimTime::ZERO + us(9 * 250));
    // The acceptor saw its doors in door order, whatever order they opened.
    let started = out.log.iter().find(|e| e.0 == "started-thread").unwrap();
    assert_eq!(started.1, 10 + 11 + 12 + 13);
}

#[test]
fn random_tie_break_consumes_the_same_draws() {
    let mut digests = std::collections::HashSet::new();
    for seed in 0..10u64 {
        digests.insert(
            assert_equivalent(1, SchedPolicy::Random(seed))
                .fingerprint
                .1,
        );
    }
    assert!(digests.len() > 1, "the seeds never changed a tie-break");
}

#[test]
fn two_domains_match_one() {
    let one = assert_equivalent(1, SchedPolicy::Fifo);
    let two = assert_equivalent(2, SchedPolicy::Fifo);
    // The raw fingerprint names domains; what the threads saw does not.
    assert_eq!(one.log, two.log);
    for seed in 0..10u64 {
        assert_equivalent(2, SchedPolicy::Random(seed));
    }
}

// ---------------------------------------------------------------------
// A misbehaving step is a typed failure, never a wedge.
// ---------------------------------------------------------------------

/// The text of the failure `k.run()` ends in.
fn failure(k: &Kernel) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| k.run())).expect_err("the run must fail");
    err.downcast_ref::<String>().cloned().expect("string panic")
}

#[test]
fn a_step_that_blocks_fails_the_run_by_name() {
    for reason in ["mutex 'held'", "channel 'full' full", "sleep"] {
        let held = Arc::new(SimMutex::new("held", ()));
        let full = SimChannel::bounded("full", 1);
        let k = Kernel::new();
        {
            let (held, full) = (Arc::clone(&held), full.clone());
            k.spawn("root", move || {
                let _guard = held.lock();
                full.send(1).unwrap();
                sleep(ms(1));
            });
        }
        k.spawn_stepped("svc", true, move || {
            match reason {
                "mutex 'held'" => drop(held.lock()),
                "sleep" => sleep(us(1)),
                _ => full.send(2).unwrap(),
            }
            Step::Exit
        });
        let msg = failure(&k);
        let expected = format!("service 'svc' blocked on {reason} inside a step");
        assert!(msg.contains(&expected), "{msg}");
        // Refused before any bookkeeping, at the instant it tried.
        assert_eq!(k.now(), SimTime::ZERO);
    }
}

#[test]
fn a_panicking_step_fails_the_run_as_its_thread() {
    let k = Kernel::new();
    k.spawn("bystander", || sleep(ms(1)));
    k.spawn_stepped("svc", true, || panic!("boom in a step"));
    let msg = failure(&k);
    assert!(
        msg.contains("thread 'svc' panicked: boom in a step"),
        "{msg}"
    );
    // The panic was caught outside the scheduler lock, not through it.
    assert_eq!(k.live_threads(), 1);
    // And nothing process-wide is left behind: the next kernel runs clean.
    let fresh = Kernel::new();
    let h = fresh.spawn_stepped("svc", false, || Step::Exit);
    let joined = fresh.spawn("joiner", move || h.join());
    fresh.run();
    assert_eq!(joined.take_result(), Some(()));
}

#[test]
fn a_finished_step_is_dropped_unlocked_under_its_own_context() {
    /// Records who and where it was dropped.
    struct Probe(Kernel, Arc<Mutex<Option<(u32, usize)>>>);
    impl Drop for Probe {
        fn drop(&mut self) {
            // `live_threads` takes the scheduler lock: dropped under it,
            // this would never return.
            *self.1.lock().unwrap() = Some((simkernel::current().1, self.0.live_threads()));
        }
    }
    let k = Kernel::new();
    let seen = Arc::new(Mutex::new(None));
    let probe = Probe(k.clone(), Arc::clone(&seen));
    k.spawn("root", || sleep(us(10)));
    let svc = k.spawn_stepped("svc", true, move || {
        let _probe = &probe;
        Step::Exit
    });
    k.run();
    assert_eq!(*seen.lock().unwrap(), Some((svc.tid(), 1)));
}

#[test]
fn a_parked_service_is_listed_in_deadlock_dumps() {
    let k = Kernel::new();
    let never = Chan::unbounded("x");
    let ch = never.clone();
    k.spawn_stepped("svc", true, move || match ch.poll_recv() {
        Polled::Wait(w) => Step::Wait(w),
        Polled::Ready(_) => Step::Exit,
    });
    k.spawn("stuck", move || {
        sleep(us(7));
        never.recv().unwrap();
    });
    let msg = failure(&k);
    assert!(msg.contains("deadlock at t+7.000us"), "{msg}");
    assert!(
        msg.contains("[1] 'svc' (daemon) parked for 7.000us blocked on: channel 'x' empty"),
        "{msg}"
    );
}

#[test]
fn a_step_spinning_at_one_instant_trips_the_livelock_threshold() {
    let k = Kernel::new();
    k.set_livelock_threshold(Some(100));
    k.spawn("root", || sleep(ms(1)));
    k.spawn_stepped("spinner", true, || {
        Step::Wait(Wait::sleep(SimDuration::ZERO))
    });
    let msg = failure(&k);
    assert!(msg.contains("livelock at t+0ns"), "{msg}");
    assert!(msg.contains("'spinner' (daemon) Runn"), "{msg}");
}
