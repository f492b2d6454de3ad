//! The run queue: what a pick pops, what a blocking or woken thread
//! pushes, and a run of promised idle ticks answered as one pick.
//! [`crate::kernel`], its parent, decides when.
//!
//! An entry is `(wake time, sequence, tid, generation)`, popped least
//! first: ties in time go to the lower sequence number, i.e. to whoever
//! queued first. An entry whose generation is no longer its thread's —
//! superseded by an early wake, or left by a finished thread — is stale
//! and skipped where it surfaces.
//!
//! What dispatch calls per pick is `#[inline]`: in a module of its own it
//! is compiled apart from its caller, and without the hint the kernel's
//! hand-off loses ≈10% of its rate (`simkernel_hot`).

use std::cmp::Reverse;

use super::{splitmix64, trace, Idler, Sched, TState, Tid};
use crate::time::{SimDuration, SimTime};
use crate::wait::Wait;

/// `me` gives up the token to wait for `w` — the one place that happens,
/// for a thread blocking on its own stack ([`super::Kernel::wait`]) and for a
/// step that returned [`crate::Step::Wait`]. Everything a later dispatch or the
/// trace can observe of it happens here, in this order: an untimed wait
/// leaves the thread `Blocked` until woken; a timed one leaves it
/// `Runnable` behind a run-queue entry at the deadline, which an earlier
/// wake supersedes through the generation counter.
#[inline]
pub(super) fn release_token(s: &mut Sched, me: Tid, w: Wait) {
    debug_assert_eq!(s.running, Some(me));
    s.running = None;
    let (now, seq) = (s.now, s.seq);
    let info = s.info_mut(me);
    debug_assert_eq!(info.state, TState::Running);
    info.block_since = now;
    info.generation += 1;
    let generation = info.generation;
    match w.deadline {
        None => {
            info.state = TState::Blocked;
            trace(s, me, format_args!("block: {w}"));
        }
        Some(deadline) => {
            info.state = TState::Runnable;
            s.seq += 1;
            s.runq.push(Reverse((deadline, seq, me, generation)));
            trace(s, me, format_args!("block_until: {w}"));
        }
    }
    s.info_mut(me).wait = Some(w);
}

/// Make `tid` runnable at `t`, behind a run-queue entry that supersedes
/// any it has (a timed wait's timer) through the generation counter.
#[inline]
pub(super) fn requeue(s: &mut Sched, tid: Tid, t: SimTime) {
    let seq = s.seq;
    s.seq += 1;
    let info = s.info_mut(tid);
    info.state = TState::Runnable;
    info.generation += 1;
    let generation = info.generation;
    s.runq.push(Reverse((t, seq, tid, generation)));
}

/// What [`crate::Step::Idle`] asks for, from the step's turn or in its place: a
/// turn that woke no thread, asleep to the next tick.
#[inline]
pub(super) fn release_idle(s: &mut Sched, tid: Tid, every: SimDuration) {
    s.inline_polls += 1;
    let tick = s.now + every;
    release_token(s, tid, Wait::fixed("sleep", Some(tick)));
}

/// Answer `tid`'s tick at `now`, which `idle` promises, and with it every
/// later tick of `tid` the run queue would hand out before anything else:
/// the ticks strictly before the earliest queued entry (stale or not — a
/// stale one only shortens the run), the promise's `until` and the
/// horizon. A tick at the instant of a queued entry is not in the run: its
/// sequence number would be the newer, so that entry runs first and voids
/// the promise. The state left is exactly what one pick per tick leaves:
/// the clock at the last tick; `seq`, the generation and `inline_polls`
/// up by the number of ticks; the livelock streak reset by every tick
/// after the first; a `block_until: sleep` traced at each tick's instant;
/// and one entry queued, at the first tick at or past the bound, with the
/// sequence number and generation the last pick would have given it. With
/// no bound at all the run is the one tick: an all-idle domain ticks on.
#[inline]
pub(super) fn release_idle_run(s: &mut Sched, tid: Tid, idle: Idler) {
    // Pollers interleaved on one grid queue each other's ticks before this
    // one's next: then the run is this tick, and costs what a tick did.
    let queued = s.runq.peek().map(|&Reverse((t, ..))| t);
    if queued.is_none_or(|t| t > s.now + idle.every) {
        skip_idle_ticks(s, tid, idle, queued);
    }
    s.idle_runs += 1;
    release_idle(s, tid, idle.every);
}

/// The ticks of [`release_idle_run`] before its last, `queued` the time of
/// the run queue's head: each one's trace event and counts, the clock left
/// at the last.
#[inline(never)]
fn skip_idle_ticks(s: &mut Sched, tid: Tid, idle: Idler, queued: Option<SimTime>) {
    let (now, every) = (s.now, idle.every);
    let bound = [queued, idle.until, s.horizon].into_iter().flatten().min();
    // No bound at all, or the next tick at it: the run is the one tick.
    let Some(bound) = bound.filter(|&b| b > now + every) else {
        return;
    };
    // Ticks `now + k·every` for `k` in `0..n` lie before the bound.
    let n = (bound - now).as_nanos().div_ceil(every.as_nanos());
    let skipped = n - 1;
    if s.trace.on {
        for k in 0..skipped {
            s.now = now + every * k;
            trace(s, tid, format_args!("block_until: sleep"));
        }
    }
    s.now = now + every * skipped;
    s.seq += skipped;
    s.inline_polls += skipped;
    s.info_mut(tid).generation += skipped;
    s.same_time_streak = 0;
}

/// Result of selecting the next run-queue entry under the (optional)
/// horizon bound.
pub(super) enum Picked {
    /// Run this entry's thread at its wake time.
    Run((SimTime, u64, Tid, u64)),
    /// The earliest valid entry is at/past the horizon; it was re-queued
    /// untouched and the domain must pause at the window barrier.
    Horizon(SimTime),
    /// No valid entry pending.
    Empty,
}

/// The earliest pending event *that can do something*, superseded entries
/// discarded: a tick under an idle promise counts from the promise's
/// `until` — not at all without one — unless only such ticks are pending,
/// when it is the first: an all-idle domain ticks on (DESIGN.md §14).
pub(super) fn next_effective(s: &mut Sched) -> Option<SimTime> {
    let (mut ticks, mut next) = (Vec::new(), None::<SimTime>);
    while let Some(&Reverse((t, _, tid, generation))) = s.runq.peek() {
        if !s.threads.is_current(tid, generation) {
            s.runq.pop();
            continue;
        }
        let Some(idle) = s.promise(tid, t) else {
            next = Some(next.map_or(t, |n| n.min(t)));
            break;
        };
        next = next.into_iter().chain(idle.until).min();
        ticks.extend(s.runq.pop());
    }
    let first_tick = ticks.first().map(|&Reverse((t, ..))| t);
    s.runq.extend(ticks);
    next.or(first_tick)
}

/// Pop the earliest valid run-queue entry (FIFO tie-break), skipping
/// entries superseded by an early wake and stopping at the horizon.
#[inline]
pub(super) fn pop_valid(s: &mut Sched) -> Picked {
    while let Some(Reverse(e @ (t, _, tid, generation))) = s.runq.pop() {
        if s.threads.is_current(tid, generation) {
            if s.horizon.is_some_and(|h| t >= h) {
                s.runq.push(Reverse(e));
                return Picked::Horizon(t);
            }
            return Picked::Run(e);
        }
        // stale: superseded by an early wake, or its thread finished
    }
    Picked::Empty
}

/// Pop one valid run-queue entry at the *minimum* wake time, choosing
/// uniformly among all valid entries tied at that time with the
/// scheduler's splitmix64 state, and re-queueing the rest untouched.
/// Because only the tie-break is randomized, virtual time still
/// advances monotonically exactly as under FIFO. The horizon check
/// happens before any tie collection, so pausing at a window barrier
/// consumes no PRNG state and the resumed schedule is unchanged.
#[inline]
pub(super) fn pop_random_tie(s: &mut Sched) -> Picked {
    let first = match pop_valid(s) {
        Picked::Run(first) => first,
        other => return other,
    };
    let t0 = first.0;
    let mut ties = vec![first];
    while let Some(&Reverse((t, ..))) = s.runq.peek() {
        if t != t0 {
            break;
        }
        let Reverse(e) = s.runq.pop().unwrap();
        if s.threads.is_current(e.2, e.3) {
            ties.push(e);
        }
    }
    let idx = if ties.len() == 1 {
        0
    } else {
        (splitmix64(&mut s.rng) % ties.len() as u64) as usize
    };
    let chosen = ties.swap_remove(idx);
    s.runq.extend(ties.into_iter().map(Reverse));
    Picked::Run(chosen)
}
