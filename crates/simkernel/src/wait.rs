//! Waiting without blocking: the vocabulary shared by the scheduler, the
//! primitives' non-blocking cores and stepped services.
//!
//! A blocking primitive is written once, as a core that never blocks: it
//! either finishes or says what to wait for ([`Polled`]). A thread on its
//! own stack loops over the core with [`block_on`]; a stepped service
//! ([`crate::Kernel::spawn_stepped`]), which has no stack to leave,
//! returns the wait to the dispatcher in a [`Step`].

use std::fmt;
use std::sync::Arc;

use crate::kernel::{current, now};
use crate::time::{SimDuration, SimTime};

/// What a simulated thread waits for: until another thread makes it
/// runnable, or — with a deadline — until that virtual time at the latest.
/// A thread blocks on one; a step returns one in [`Step::Wait`].
/// Rendered `kind 'name'suffix` (e.g. `channel 'work' empty`) in the
/// trace and in deadlock dumps. Building one allocates nothing: the name
/// is the primitive's own, shared.
pub struct Wait {
    kind: &'static str,
    name: Option<Arc<str>>,
    suffix: &'static str,
    pub(crate) deadline: Option<SimTime>,
}

impl Wait {
    /// A wait with no dynamic component (`"sleep"`, `"join"`).
    pub(crate) const fn fixed(kind: &'static str, deadline: Option<SimTime>) -> Wait {
        Wait {
            kind,
            name: None,
            suffix: "",
            deadline,
        }
    }

    /// `kind 'name'suffix`, until woken.
    pub(crate) fn on(kind: &'static str, name: &Arc<str>, suffix: &'static str) -> Wait {
        Wait {
            kind,
            name: Some(Arc::clone(name)),
            suffix,
            deadline: None,
        }
    }

    /// The same wait, over at `deadline` unless woken earlier.
    pub(crate) fn until(mut self, deadline: SimTime) -> Wait {
        self.deadline = Some(deadline);
        self
    }

    /// A sleep of `d` from now: what [`crate::sleep`] waits for. For a step
    /// that charges virtual time (callable only from a simulated thread).
    pub fn sleep(d: SimDuration) -> Wait {
        Wait::fixed("sleep", Some(now() + d))
    }
}

impl fmt::Display for Wait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            None => write!(f, "{}{}", self.kind, self.suffix),
            Some(name) => write!(f, "{} '{}'{}", self.kind, name, self.suffix),
        }
    }
}

/// What the non-blocking core of a blocking primitive found: the result,
/// or what to wait for before asking again. The blocking form of every
/// primitive is [`block_on`] its core; a step returns the wait instead.
pub enum Polled<T> {
    /// The operation is complete.
    Ready(T),
    /// Not yet; ask again after this wait.
    Wait(Wait),
}

/// What the predicate of [`crate::Kernel::sleep_poll`] found at a tick.
pub enum Tick {
    /// Wake the sleeper: a pass of its own could do something.
    Ready,
    /// Nothing to do — [`Step::Idle`]'s promise, with its `until`.
    Idle {
        /// The first instant the answer may change on its own.
        until: Option<SimTime>,
    },
}

/// How one turn of a stepped service ended (see [`crate::Kernel::spawn_stepped`]).
pub enum Step {
    /// Run the step again when this wait is over.
    Wait(Wait),
    /// `Wait(Wait::sleep(every))`, plus a promise: this turn did nothing
    /// observable — sent nothing, woke nobody, changed no state — and every
    /// turn at a tick strictly before `until` (`None`: never on its own)
    /// would end the same, as long as nothing else happens in this domain:
    /// the scheduler answers those ticks at the pick ([`crate::kernel`],
    /// "Tickless idle"). The step may have read only what changes when
    /// simulated code runs, plus the clock through `until`: `is_empty` of a
    /// channel qualifies (in flight is queued), what has *arrived* does not.
    Idle {
        /// The tick: how long to sleep before the next turn.
        every: SimDuration,
        /// The first instant the answer may change on its own.
        until: Option<SimTime>,
    },
    /// The service is finished; its joiners are released.
    Exit,
    /// Switch to the thread parked behind this step — how a thread in
    /// [`crate::Kernel::sleep_poll`] is woken. A service has none: from there it
    /// fails the run.
    Wake,
}

/// A step, as the scheduler holds it between turns.
pub(crate) type StepFn = Box<dyn FnMut() -> Step + Send>;

/// Give up the token until `w` is over (callable only from a simulated
/// thread on its own stack — a step returns `w` in [`Step::Wait`]).
pub(crate) fn wait(w: Wait) {
    let (k, me) = current();
    k.wait(me, w);
}

/// The blocking form of a primitive, from its non-blocking core: poll,
/// wait as told, poll again, until the core is `Ready`. Callable only from
/// a simulated thread on its own stack — a step polls the core itself
/// and returns the wait.
pub fn block_on<T>(mut poll: impl FnMut() -> Polled<T>) -> T {
    loop {
        match poll() {
            Polled::Ready(r) => return r,
            Polled::Wait(w) => wait(w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_reason_renders_like_the_legacy_strings() {
        assert_eq!(Wait::fixed("sleep", None).to_string(), "sleep");
        assert_eq!(Wait::on("mutex", &"m".into(), "").to_string(), "mutex 'm'");
        assert_eq!(
            Wait::on("channel", &"c".into(), " empty").to_string(),
            "channel 'c' empty"
        );
    }
}
