//! What a failed run says — deadlock and livelock dumps, the flight-recorder
//! tail, a panic payload as text; [`crate::kernel`], its parent, says when.

use super::{Sched, TState};

pub(super) fn deadlock_dump(s: &Sched) -> String {
    let mut out = format!(
        "deadlock at {}: {} live thread(s) blocked with no pending wake-up:\n",
        s.now, s.live
    );
    push_blocked_threads(&mut out, s);
    push_dump_note(&mut out, s);
    out
}

/// Append one line per blocked thread (shared between the local
/// deadlock dump and the cross-domain stall dump in `crate::domain`).
pub(super) fn push_blocked_threads(out: &mut String, s: &Sched) {
    for (tid, info) in s.threads.iter() {
        let (TState::Blocked, Some(w)) = (info.state, &info.wait) else {
            continue;
        };
        out.push_str(&format!(
            "  [{tid}] '{}'{} parked for {} blocked on: {w}\n",
            info.name,
            if info.daemon { " (daemon)" } else { "" },
            s.now.since(info.block_since),
        ));
    }
}

/// Like [`deadlock_dump`], but for the complementary failure: the run
/// queue never empties, yet virtual time stops advancing (threads
/// hand the token around at a frozen clock — e.g. a retry loop that
/// yields instead of backing off).
pub(super) fn livelock_dump(s: &Sched, limit: u64) -> String {
    let mut out = format!(
        "livelock at {}: {limit} consecutive dispatches without virtual-time progress (policy {:?}); runnable/running threads:\n",
        s.now, s.policy
    );
    for (tid, info) in s.threads.iter() {
        if !matches!(info.state, TState::Runnable | TState::Running) {
            continue;
        }
        // A runnable thread in a timed wait shows what it waits for.
        let wait = match info.wait.as_ref().and_then(|w| Some((w, w.deadline?))) {
            Some((w, d)) => format!(": {w} (until {d})"),
            None => String::new(),
        };
        out.push_str(&format!(
            "  [{tid}] '{}'{} {:?} since {}{}\n",
            info.name,
            if info.daemon { " (daemon)" } else { "" },
            info.state,
            info.block_since,
            wait,
        ));
    }
    push_dump_note(&mut out, s);
    out
}

fn push_dump_note(out: &mut String, s: &Sched) {
    if let Some(note) = &s.dump_note {
        out.push_str("  context: ");
        out.push_str(note);
        out.push('\n');
    }
    push_flight_tail(out);
}

/// Append the observability flight-recorder tail (the last events that
/// led up to the failure) so every deadlock/livelock dump doubles as a
/// black-box recording. Empty (and silent) when recording is off.
pub(crate) fn push_flight_tail(out: &mut String) {
    let tail = snapify_obs::flight_tail(32);
    if !tail.is_empty() {
        out.push_str("  ");
        out.push_str(&tail.replace('\n', "\n  "));
        // replace() leaves two trailing spaces after the final newline.
        while out.ends_with(' ') {
            out.pop();
        }
    }
}

pub(super) fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::time::ms;

    #[test]
    fn deadlock_dump_reports_time_and_parked_duration() {
        let k = Kernel::new();
        let k2 = k.clone();
        k.spawn("stuck", move || {
            sleep(ms(7));
            let (_, me) = current();
            k2.wait(me, Wait::on("mutex", &"godot".into(), ""));
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| k.run()))
            .expect_err("deadlock must abort the run");
        let msg = payload_to_string(err.as_ref());
        assert!(msg.contains("deadlock at t+7.000ms"), "{msg}");
        assert!(msg.contains("parked for 0ns"), "{msg}");
        assert!(msg.contains("mutex 'godot'"), "{msg}");
    }

    #[test]
    fn livelock_is_detected_and_reports_note() {
        let k = Kernel::new_with_policy(SchedPolicy::Random(7));
        k.set_livelock_threshold(Some(500));
        k.set_dump_note("faults=[t+1ms bus0 error]");
        for i in 0..2 {
            k.spawn(format!("spin{i}"), || loop {
                yield_now();
            });
        }
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| k.run()))
            .expect_err("livelock must abort the run");
        let msg = payload_to_string(err.as_ref());
        assert!(msg.contains("livelock at t+0ns"), "{msg}");
        assert!(msg.contains("500 consecutive dispatches"), "{msg}");
        assert!(msg.contains("context: faults=[t+1ms bus0 error]"), "{msg}");
    }

    #[test]
    fn deadlock_dump_includes_note_when_set() {
        let k = Kernel::new();
        k.set_dump_note("schedule=S1");
        let k2 = k.clone();
        k.spawn("stuck", move || {
            let (_, me) = current();
            k2.wait(me, Wait::fixed("waiting", None));
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| k.run()))
            .expect_err("deadlock must abort the run");
        let msg = payload_to_string(err.as_ref());
        assert!(msg.contains("context: schedule=S1"), "{msg}");
    }

    #[test]
    fn deadlock_dump_includes_flight_recorder_tail() {
        let k = Kernel::new();
        snapify_obs::enable();
        let k2 = k.clone();
        k.spawn("stuck", move || {
            snapify_obs::instant("last breadcrumb before hang");
            let (_, me) = current();
            k2.wait(me, Wait::fixed("waiting", None));
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| k.run()))
            .expect_err("deadlock must abort the run");
        snapify_obs::disable();
        let msg = payload_to_string(err.as_ref());
        assert!(msg.contains("flight recorder (last"), "{msg}");
        assert!(msg.contains("last breadcrumb before hang"), "{msg}");
    }
}
