//! `sleep_poll(interval, ready)` must be observably identical to
//! `loop { sleep(interval); if ready(now()) is Ready { break } }`: same
//! trace, same clocks, same wake-up instants — under both tie-break
//! policies, with the livelock counter armed, and across domain counts —
//! whether its idle answers promise nothing (every tick is evaluated) or
//! as much as they can (the ticks are answered at the pick). The only
//! permitted difference is that idle ticks no longer wake the polling
//! thread, which `Kernel::inline_polls` counts. The second half holds the
//! promise itself to its contract.

use simkernel::{
    ms, now, secs, sleep, sleep_poll, us, yield_now, Kernel, MultiDomainConfig, MultiKernel,
    SchedPolicy, SimChannel, SimDuration, SimTime, Tick,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a poller waits: the reference loop, the kernel primitive with every
/// promise cut down to "not even the next tick", or with the promise whole.
#[derive(Clone, Copy)]
enum Form {
    Loop,
    Poll,
    Idle,
}

/// Per-run bookkeeping shared by the pollers.
#[derive(Clone, Default)]
struct Log {
    /// `(poller, instant)` of every completed wait.
    wakes: Arc<Mutex<Vec<(usize, SimTime)>>>,
    /// Ticks on which the loop form looked and found nothing to do.
    idle_ticks: Arc<AtomicU64>,
}

impl Log {
    /// Wait in steps of `interval` until `ready(now)` is `Ready` at a tick.
    fn wait(
        &self,
        form: Form,
        interval: SimDuration,
        mut ready: impl FnMut(SimTime) -> Tick + Send + 'static,
    ) {
        match form {
            Form::Loop => loop {
                sleep(interval);
                if matches!(ready(now()), Tick::Ready) {
                    break;
                }
                self.idle_ticks.fetch_add(1, Ordering::SeqCst);
            },
            Form::Poll => sleep_poll(interval, move |t| match ready(t) {
                Tick::Idle { .. } => Tick::Idle { until: Some(t) },
                Tick::Ready => Tick::Ready,
            }),
            Form::Idle => sleep_poll(interval, ready),
        }
    }

    fn woke(&self, poller: usize) {
        self.wakes.lock().unwrap().push((poller, now()));
    }
}

/// `Ready` if `ready`, else idle with the given promise.
fn idle_unless(ready: bool, until: Option<SimTime>) -> Tick {
    match ready {
        true => Tick::Ready,
        false => Tick::Idle { until },
    }
}

/// A poller that waits for `rounds` tokens on `pending`, one wait each.
fn token_poller(
    log: &Log,
    form: Form,
    id: usize,
    interval: SimDuration,
    pending: &Arc<AtomicU64>,
    rounds: usize,
) -> impl FnOnce() + Send + 'static {
    let (log, pending) = (log.clone(), Arc::clone(pending));
    move || {
        for _ in 0..rounds {
            let p = Arc::clone(&pending);
            log.wait(form, interval, move |_| {
                idle_unless(p.load(Ordering::SeqCst) > 0, None)
            });
            pending.fetch_sub(1, Ordering::SeqCst);
            log.woke(id);
            sleep(us(30)); // act on the token
        }
    }
}

/// A worker that hands out one token after each of `gaps` (µs).
fn flipper(pending: &Arc<AtomicU64>, gaps: &'static [u64]) -> impl FnOnce() + Send + 'static {
    let pending = Arc::clone(pending);
    move || {
        for &gap in gaps {
            sleep(us(gap));
            pending.fetch_add(1, Ordering::SeqCst);
        }
    }
}

struct Outcome {
    fingerprint: (usize, u64),
    clocks: Vec<SimTime>,
    wakes: Vec<(usize, SimTime)>,
    idle_ticks: u64,
    inline_polls: u64,
}

/// Four pollers beside flippers, a sleeper on the pollers' own grid, a
/// latency channel and a cross-domain port. The port's receiving side
/// lives in domain `1 % domains`, so one scenario serves both counts.
fn run_scenario(form: Form, domains: u32, policy: SchedPolicy, livelock: Option<u64>) -> Outcome {
    let mk = MultiKernel::new(MultiDomainConfig::new(domains, us(50)).with_policy(policy));
    mk.enable_trace();
    mk.set_livelock_threshold(livelock);
    let d0 = mk.domain(0);
    let d1 = mk.domain(1 % domains);
    let log = Log::default();

    // P0: first token lands exactly on its 600 µs tick, the second
    // between ticks, the third right behind the second.
    let p0 = Arc::new(AtomicU64::new(0));
    d0.spawn("p0", token_poller(&log, form, 0, us(200), &p0, 3));
    d0.spawn("flip0", flipper(&p0, &[600, 530, 10]));
    // P1: same grid as P0 (their ticks tie); token on the very first tick.
    let p1 = Arc::new(AtomicU64::new(0));
    d0.spawn("p1", token_poller(&log, form, 1, us(200), &p1, 2));
    d0.spawn("flip1", flipper(&p1, &[200, 800]));
    // P2: a time-driven predicate on a finer grid (the watchdog shape).
    {
        let log = log.clone();
        d0.spawn("p2", move || {
            for _ in 0..2 {
                let deadline = now() + ms(1);
                log.wait(form, us(70), move |now| {
                    idle_unless(now >= deadline, Some(deadline))
                });
                log.woke(2);
            }
        });
    }
    // A plain sleeper on the 200 µs grid: more ties for the tie-break.
    d0.spawn("sleeper", || {
        for _ in 0..8 {
            sleep(us(200));
        }
    });
    // Channel traffic with latency, off the grid.
    let ch = SimChannel::<u64>::with_options("work", None, us(15));
    let tx = ch.clone();
    d0.spawn("producer", move || {
        for i in 0..10 {
            sleep(us(100));
            tx.send(i).unwrap();
        }
        tx.close();
    });
    d0.spawn("consumer", move || while ch.recv().is_ok() {});
    // P3 polls in the second domain for tokens that arrive over a
    // cross-domain port; the 50 µs windows end between its 150 µs ticks.
    let p3 = Arc::new(AtomicU64::new(0));
    let (port_tx, port_rx) = mk.port::<u64>("tokens", 0, 1 % domains, us(60));
    d1.spawn("p3", token_poller(&log, form, 3, us(150), &p3, 2));
    {
        let p3 = Arc::clone(&p3);
        d1.spawn("port-rx", move || {
            while port_rx.recv().is_ok() {
                p3.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    d0.spawn("port-tx", move || {
        for gap in [250, 400] {
            sleep(us(gap));
            port_tx.send(gap).unwrap();
        }
        port_tx.close();
    });

    mk.run();
    let mut wakes = std::mem::take(&mut *log.wakes.lock().unwrap());
    wakes.sort();
    Outcome {
        clocks: (0..domains).map(|d| mk.clock(d)).collect(),
        inline_polls: (0..domains).map(|d| mk.domain(d).inline_polls()).sum(),
        idle_ticks: log.idle_ticks.load(Ordering::SeqCst),
        fingerprint: mk.fingerprint(),
        wakes,
    }
}

/// All forms of one configuration must agree on everything observable,
/// and both primitive forms must have kept every idle tick off the pollers.
fn assert_equivalent(domains: u32, policy: SchedPolicy, livelock: Option<u64>) -> Outcome {
    let reference = run_scenario(Form::Loop, domains, policy, livelock);
    assert_eq!(reference.wakes.len(), 3 + 2 + 2 + 2, "every wait ended");
    assert_eq!(reference.inline_polls, 0);
    assert!(reference.idle_ticks > 20, "scenario too quiet");
    for (form, name) in [(Form::Poll, "poll"), (Form::Idle, "idle")] {
        let polled = run_scenario(form, domains, policy, livelock);
        let what = format!("{name}: domains={domains} {policy:?} livelock={livelock:?}");
        assert_eq!(reference.fingerprint, polled.fingerprint, "trace: {what}");
        assert_eq!(reference.clocks, polled.clocks, "clocks: {what}");
        assert_eq!(reference.wakes, polled.wakes, "wake instants: {what}");
        assert_eq!(
            polled.inline_polls, reference.idle_ticks,
            "every idle tick, and only those, must run inline: {what}"
        );
    }
    reference
}

#[test]
fn fifo_trace_is_identical() {
    let out = assert_equivalent(1, SchedPolicy::Fifo, None);
    // P0's first token is handed out at 600 µs, on a tick: `flip0` queued
    // its wake-up before P0 queued that tick, so the tick sees the token.
    assert_eq!(out.wakes[0], (0, SimTime::ZERO + us(600)));
    // P1's token also lands on a tick (its first, at 200 µs), but P1
    // queued first: that tick looks too early and the next one wakes.
    assert_eq!(out.wakes[3], (1, SimTime::ZERO + us(400)));
    // P2's deadline is on no tick: it wakes on the first tick past it.
    assert_eq!(out.wakes[5], (2, SimTime::ZERO + us(1050)));
}

#[test]
fn random_tie_break_consumes_the_same_draws() {
    let mut digests = std::collections::HashSet::new();
    for seed in 0..10u64 {
        let out = assert_equivalent(1, SchedPolicy::Random(seed), None);
        digests.insert(out.fingerprint.1);
    }
    assert!(digests.len() > 1, "the seeds never changed a tie-break");
}

#[test]
fn livelock_streak_steps_identically() {
    // The grid ties produce short same-time streaks; a threshold just
    // above them trips only if an inline tick skipped a reset.
    assert_equivalent(1, SchedPolicy::Fifo, Some(16));
    assert_equivalent(1, SchedPolicy::Random(7), Some(16));
}

#[test]
fn two_domains_match_one() {
    let one = assert_equivalent(1, SchedPolicy::Fifo, None);
    let two = assert_equivalent(2, SchedPolicy::Fifo, Some(64));
    // The raw fingerprint names domains, so it is comparable only at a
    // fixed domain count; what the threads saw is not.
    assert_eq!(one.wakes, two.wakes);
    assert_eq!(one.clocks[0], two.clocks[0]);
    // Random ties are drawn per domain, so there only the forms must agree.
    assert_equivalent(2, SchedPolicy::Random(0xfeed), None);
}

/// The text of the failure a run of `form` ends in when two threads start
/// yielding to each other forever while a poller sits in its wait.
fn livelock_dump(form: Form) -> String {
    let k = Kernel::new();
    k.set_livelock_threshold(Some(100));
    let log = Log::default();
    k.spawn("poller", move || {
        log.wait(form, us(200), |_| Tick::Idle { until: None })
    });
    for i in 0..2 {
        k.spawn(format!("spin{i}"), || {
            sleep(us(500));
            loop {
                yield_now();
            }
        });
    }
    let err = catch_unwind(AssertUnwindSafe(|| k.run())).expect_err("must livelock");
    err.downcast_ref::<String>().cloned().expect("string panic")
}

#[test]
fn livelock_dump_lists_the_poller_as_sleeping() {
    let reference = livelock_dump(Form::Loop);
    assert!(reference.contains("livelock at t+500.000us"), "{reference}");
    assert!(
        reference.contains("'poller' Runnable since t+400.000us: sleep (until t+600.000us)"),
        "{reference}"
    );
    assert_eq!(reference, livelock_dump(Form::Poll));
    assert_eq!(reference, livelock_dump(Form::Idle));
}

// ---------------------------------------------------------------------
// The promise: what it saves, what voids it, what breaking it costs.
// ---------------------------------------------------------------------

/// The watchdog shape alone in its kernel: 70 µs grid, deadline 1 ms off.
/// Returns when the waiter woke and how often its predicate was called.
fn lone_watchdog(form: Form) -> (SimTime, u64) {
    let calls = Arc::new(AtomicU64::new(0));
    let k = Kernel::new();
    let h = {
        let calls = Arc::clone(&calls);
        k.spawn("watchdog", move || {
            let deadline = now() + ms(1);
            Log::default().wait(form, us(70), move |now| {
                calls.fetch_add(1, Ordering::SeqCst);
                idle_unless(now >= deadline, Some(deadline))
            });
            now()
        })
    };
    k.run();
    assert_eq!(
        k.inline_polls(),
        if matches!(form, Form::Loop) { 0 } else { 14 }
    );
    (h.take_result().unwrap(), calls.load(Ordering::SeqCst))
}

#[test]
fn a_promised_tick_costs_no_predicate_call() {
    // 14 idle ticks, then 1050 µs: the first tick at or past the deadline.
    assert_eq!(lone_watchdog(Form::Loop), (SimTime::ZERO + us(1050), 15));
    assert_eq!(lone_watchdog(Form::Poll), (SimTime::ZERO + us(1050), 15));
    // The first tick promises the rest up to the deadline; the tick past
    // it is evaluated again. A debug build audits the thirteen between.
    let calls = if cfg!(debug_assertions) { 15 } else { 2 };
    assert_eq!(lone_watchdog(Form::Idle), (SimTime::ZERO + us(1050), calls));
}

#[test]
fn a_barrier_delivery_that_wakes_nobody_voids_the_promise() {
    let run = |form: Form| {
        let mk = MultiKernel::new(MultiDomainConfig::new(2, us(50)));
        let (tx, rx) = mk.port::<u64>("mail", 0, 1, ms(1));
        mk.domain(0).spawn("sender", move || {
            sleep(us(500));
            tx.send(7).unwrap();
        });
        // Nobody is in `recv`: the delivery at the barrier of the window
        // [500, 550) µs queues the message and wakes no thread. A promise
        // that survived it would hold the poller to its 5 ms.
        let h = mk.domain(1).spawn("poller", move || {
            let until = Some(now() + ms(5));
            Log::default().wait(form, us(200), move |_| idle_unless(!rx.is_empty(), until));
            now()
        });
        mk.run();
        h.take_result().unwrap()
    };
    for form in [Form::Loop, Form::Poll, Form::Idle] {
        assert_eq!(run(form), SimTime::ZERO + us(600));
    }
}

#[test]
fn idle_ticks_open_no_windows() {
    // Two domains, each a poller idle for the next second beside a worker
    // with one real event per 10 ms: the windows follow the workers.
    let mk = MultiKernel::new(MultiDomainConfig::new(2, us(50)));
    for d in 0..2 {
        mk.domain(d).spawn_daemon(format!("poller-{d}"), || {
            let until = now() + secs(1);
            sleep_poll(us(200), move |now| idle_unless(now >= until, Some(until)));
        });
        mk.domain(d).spawn(format!("worker-{d}"), || {
            for _ in 0..20 {
                sleep(ms(10));
            }
        });
    }
    mk.run();
    assert_eq!(mk.clock(0), SimTime::ZERO + ms(200));
    let ticks: u64 = (0..2).map(|d| mk.domain(d).inline_polls()).sum();
    assert!(ticks >= 2 * 999, "the pollers stopped ticking: {ticks}");
    // One window per tick would be about a thousand.
    assert!(mk.rounds() <= 3 * 40, "{} rounds", mk.rounds());
}

#[cfg(debug_assertions)]
#[test]
fn a_lying_predicate_fails_a_debug_run_by_name() {
    let k = Kernel::new();
    k.spawn("liar", || {
        let mut asked = 0;
        sleep_poll(us(100), move |_| {
            asked += 1;
            idle_unless(asked == 3, None)
        });
    });
    let err = catch_unwind(AssertUnwindSafe(|| k.run())).expect_err("the lie must fail the run");
    let msg = err.downcast_ref::<String>().expect("string panic");
    assert!(
        msg.contains("step of 'liar' broke its idle promise at t+300.000us"),
        "{msg}"
    );
}
