//! `sleep_poll(interval, ready)` must be observably identical to
//! `loop { sleep(interval); if ready(now()) is Ready { break } }`: same
//! trace, same clocks, same wake-up instants — under both tie-break
//! policies, with the livelock counter armed, and across domain counts —
//! whether its idle answers promise nothing (every tick is evaluated) or
//! as much as they can (the ticks are answered at the pick, a run of them
//! up to the next queued event at once). Two scenarios: a busy one, where
//! pollers, sleepers and messages crowd one grid, and a long-idle one,
//! where each run of ticks ends at one of the bounds a run can have. The
//! only permitted difference is that idle ticks no longer wake the polling
//! thread, which `Kernel::inline_polls` counts. The second half holds the
//! promise itself to its contract.

use simkernel::{
    ms, now, secs, sleep, sleep_poll, us, yield_now, Kernel, MultiDomainConfig, MultiKernel,
    SchedPolicy, SimChannel, SimDuration, SimTime, Tick,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// Sleep until the instant `t`.
fn sleep_until(t: SimTime) {
    sleep(t - now());
}

/// A poller that starts waiting at `start` until `flag` is raised, its idle
/// answers promising nothing on their own (`until: None`).
fn flag_poller(
    log: &Log,
    form: Form,
    id: usize,
    start: SimTime,
    flag: &Arc<AtomicBool>,
) -> impl FnOnce() + Send + 'static {
    let (log, flag) = (log.clone(), Arc::clone(flag));
    move || {
        sleep_until(start);
        log.wait(form, us(200), move |_| {
            idle_unless(flag.load(Ordering::SeqCst), None)
        });
        log.woke(id);
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

    finish(&mk, domains, &log, 3 + 2 + 2 + 2)
}

/// Long idle stretches, ended by events at every bound a run of promised
/// ticks can have. The pollers take turns, so each run is cut only by the
/// event that ends its stretch: a queued event on a tick, 1 ns before one
/// and 1 ns after one (poller 0); the promise's `until` on a tick and
/// between ticks (poller 1); another poller's tick, in phase (pollers 2
/// and 3) and out of phase (4); and at two domains a window horizon on a
/// tick, before a delivery (poller 5, alone in the second domain).
fn long_idle_scenario(
    form: Form,
    domains: u32,
    policy: SchedPolicy,
    livelock: Option<u64>,
) -> Outcome {
    let mk = MultiKernel::new(MultiDomainConfig::new(domains, us(50)).with_policy(policy));
    mk.enable_trace();
    mk.set_livelock_threshold(livelock);
    let d0 = mk.domain(0);
    let d1 = mk.domain(1 % domains);
    let log = Log::default();
    let at = |t| SimTime::ZERO + us(t);

    // P0 waits three times on a 200 µs grid from 0; after each token it
    // acts for 30 µs, so the grids restart at 10.03 and 20.06 ms.
    let tokens = Arc::new(AtomicU64::new(0));
    d0.spawn("p0", token_poller(&log, form, 0, us(200), &tokens, 3));
    // P1 waits out two deadlines on a 250 µs grid from 31 ms: 10 ms away,
    // on its 40th tick, then 10.123 ms away, between two.
    {
        let log = log.clone();
        d0.spawn("p1", move || {
            sleep_until(at(31_000));
            for span in [us(10_000), us(10_123)] {
                let deadline = now() + span;
                log.wait(form, us(250), move |now| {
                    idle_unless(now >= deadline, Some(deadline))
                });
                log.woke(1);
            }
        });
    }
    // P2 and P3 tick together from 55 ms, P4 100 µs behind them.
    let raised = Arc::new(AtomicBool::new(false));
    for (id, start) in [(2, 55_000), (3, 55_000), (4, 55_100)] {
        d0.spawn(
            format!("p{id}"),
            flag_poller(&log, form, id, at(start), &raised),
        );
    }
    // P5 idles from 70 ms until `rx5` hears from `worker`: sent at 79.95
    // ms, in at 81.95 ms. At two domains the window the send opens ends on
    // P5's tick at 80 ms, and the delivery comes at its barrier, before
    // `sleeper5`'s event at 90 ms: a run past the horizon would miss it.
    let raised5 = Arc::new(AtomicBool::new(false));
    let (port_tx, port_rx) = mk.port::<u64>("mail5", 0, 1 % domains, ms(2));
    d1.spawn("p5", flag_poller(&log, form, 5, at(70_000), &raised5));
    d1.spawn("rx5", move || {
        port_rx.recv().unwrap();
        raised5.store(true, Ordering::SeqCst);
    });
    d1.spawn("sleeper5", move || sleep_until(at(90_000)));
    d0.spawn("worker", move || {
        // On P0's tick at 10 ms; 1 ns before its tick at 20.03 ms; 1 ns
        // after its tick at 30.06 ms.
        for t in [10_000_000, 20_029_999, 30_060_001] {
            sleep_until(SimTime(t));
            tokens.fetch_add(1, Ordering::SeqCst);
        }
        sleep_until(at(60_000));
        raised.store(true, Ordering::SeqCst);
        sleep_until(at(79_950));
        port_tx.send(5).unwrap();
    });

    finish(&mk, domains, &log, 3 + 2 + 3 + 1)
}

/// Run `mk` and collect what its `domains` and pollers saw; `waits` is
/// how many waits the scenario ends.
fn finish(mk: &MultiKernel, domains: u32, log: &Log, waits: usize) -> Outcome {
    mk.run();
    let mut wakes = std::mem::take(&mut *log.wakes.lock().unwrap());
    wakes.sort();
    assert_eq!(wakes.len(), waits, "every wait ended");
    Outcome {
        clocks: (0..domains).map(|d| mk.clock(d)).collect(),
        inline_polls: (0..domains).map(|d| mk.domain(d).inline_polls()).sum(),
        idle_ticks: log.idle_ticks.load(Ordering::SeqCst),
        fingerprint: mk.fingerprint(),
        wakes,
    }
}

/// A scenario's outcome with its pollers waiting in the given form.
type Scenario = fn(Form, u32, SchedPolicy, Option<u64>) -> Outcome;

/// All forms of one configuration must agree on everything observable,
/// and both primitive forms must have kept every idle tick off the pollers.
fn assert_equivalent(
    scenario: Scenario,
    domains: u32,
    policy: SchedPolicy,
    livelock: Option<u64>,
) -> Outcome {
    let reference = scenario(Form::Loop, domains, policy, livelock);
    assert_eq!(reference.inline_polls, 0);
    assert!(reference.idle_ticks > 20, "scenario too quiet");
    for (form, name) in [(Form::Poll, "poll"), (Form::Idle, "idle")] {
        let polled = scenario(form, domains, policy, livelock);
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
    let out = assert_equivalent(run_scenario, 1, SchedPolicy::Fifo, None);
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
        let out = assert_equivalent(run_scenario, 1, SchedPolicy::Random(seed), None);
        digests.insert(out.fingerprint.1);
    }
    assert!(digests.len() > 1, "the seeds never changed a tie-break");
}

#[test]
fn livelock_streak_steps_identically() {
    // The grid ties produce short same-time streaks; a threshold just
    // above them trips only if an inline tick skipped a reset.
    assert_equivalent(run_scenario, 1, SchedPolicy::Fifo, Some(16));
    assert_equivalent(run_scenario, 1, SchedPolicy::Random(7), Some(16));
}

#[test]
fn two_domains_match_one() {
    let one = assert_equivalent(run_scenario, 1, SchedPolicy::Fifo, None);
    let two = assert_equivalent(run_scenario, 2, SchedPolicy::Fifo, Some(64));
    // The raw fingerprint names domains, so it is comparable only at a
    // fixed domain count; what the threads saw is not.
    assert_eq!(one.wakes, two.wakes);
    assert_eq!(one.clocks[0], two.clocks[0]);
    // Random ties are drawn per domain, so there only the forms must agree.
    assert_equivalent(run_scenario, 2, SchedPolicy::Random(0xfeed), None);
}

#[test]
fn long_idle_runs_end_where_single_ticks_would() {
    let out = assert_equivalent(long_idle_scenario, 1, SchedPolicy::Fifo, None);
    let expected = [
        // On a tick: `worker` queued first, so the tick sees the token.
        (0, 10_000),
        // 1 ns before the tick at 20.03 ms: that tick sees it.
        (0, 20_030),
        // 1 ns after the tick at 30.06 ms: the next one sees it.
        (0, 30_260),
        // `until` on the tick at 41 ms; between ticks, the next at 51.25 ms.
        (1, 41_000),
        (1, 51_250),
        // Raised on the in-phase pair's tick, queued before it.
        (2, 60_000),
        (3, 60_000),
        (4, 60_100),
        (5, 82_000),
    ];
    let expected: Vec<_> = expected
        .iter()
        .map(|&(p, t)| (p, SimTime::ZERO + us(t)))
        .collect();
    assert_eq!(out.wakes, expected);
    let two = assert_equivalent(long_idle_scenario, 2, SchedPolicy::Fifo, None);
    assert_eq!(out.wakes, two.wakes);
    assert_eq!(out.clocks[0], two.clocks[0].max(two.clocks[1]));
}

#[test]
fn long_idle_runs_draw_and_streak_like_single_ticks() {
    for domains in [1, 2] {
        assert_equivalent(long_idle_scenario, domains, SchedPolicy::Fifo, Some(16));
        for seed in 0..8 {
            assert_equivalent(
                long_idle_scenario,
                domains,
                SchedPolicy::Random(seed),
                Some(16),
            );
        }
    }
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

/// One poller whose idle answers promise `until: None`, beside a worker
/// with an event on every 1,000th of its ticks, `events` times: (idle
/// ticks, runs answered at the pick, predicate calls).
fn lone_poller(events: u64) -> (u64, u64, u64) {
    let calls = Arc::new(AtomicU64::new(0));
    let raised = Arc::new(AtomicBool::new(false));
    let k = Kernel::new();
    {
        let (calls, raised) = (Arc::clone(&calls), Arc::clone(&raised));
        k.spawn("poller", move || {
            sleep_poll(us(200), move |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                idle_unless(raised.load(Ordering::SeqCst), None)
            })
        });
    }
    k.spawn("worker", move || {
        for _ in 0..events {
            sleep(ms(200));
        }
        raised.store(true, Ordering::SeqCst);
    });
    k.run();
    assert_eq!(k.now(), SimTime::ZERO + ms(200) * events);
    (
        k.inline_polls(),
        k.idle_runs(),
        calls.load(Ordering::SeqCst),
    )
}

#[test]
fn a_run_of_promised_ticks_is_one_pick() {
    // Every tick but the last at 1 s is idle. The worker's event on each
    // 1,000th voids the promise: that tick calls the predicate, which
    // promises again, and the ticks up to the next event are one pick.
    let (ticks, runs, calls) = lone_poller(5);
    assert_eq!(ticks, 4_999);
    let picks = if cfg!(debug_assertions) {
        (0, 5_000)
    } else {
        (5, 6)
    };
    assert_eq!((runs, calls), picks);
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
