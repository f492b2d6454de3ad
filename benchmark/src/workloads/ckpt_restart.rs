//! `ckpt-restart` — closed loop, one client. One repetition is a round
//! of the eight `suite()` applications. Per op: a fresh kernel and
//! `SnapifyWorld::boot`, launch on device 0, `checkpoint_application`
//! at a seed-derived virtual instant, run to completion, destroy,
//! `restart_application` on device 1, run to completion.
//!
//! This is the paper's own Fig 10 path on plain Snapify-IO; snapstore
//! is not in it. Every round replays the same seeded inputs, so rounds
//! are identical work: the first few are the untimed warm-up whose
//! median is `setup_s`, the rest are the timed repetitions.

use std::sync::Arc;

use coi_sim::FunctionRegistry;
use snapify::{checkpoint_application, restart_application, SnapifyWorld};
use workloads::{register_suite, suite, WorkloadRun, WorkloadSpec};

use super::{fold, run_sim, timed_call, Ctx, Outcome, Stopwatch, Virtual};
use crate::inputs::{self, CkptInput};
use crate::spans;

/// Timed rounds at the reference run length.
const ROUNDS: u64 = 5;
/// Untimed warm-up rounds.
const SETUP_ROUNDS: u64 = 3;

/// What one op measured, all virtual ns / bytes.
struct Op {
    ckpt_ns: u64,
    restart_ns: u64,
    end_ns: u64,
    bytes: u64,
    verified: bool,
}

fn one_op(spec: &WorkloadSpec, offset_ms: u64) -> Result<Op, String> {
    let err = |e: snapify::SnapifyError| e.to_string();
    let registry = FunctionRegistry::new();
    register_suite(&registry, std::slice::from_ref(spec));
    let (world, _) = timed_call("core.boot", || SnapifyWorld::boot(registry));
    let run = Arc::new(WorkloadRun::launch(world.coi(), spec, 0).map_err(err)?);
    let handle = run.handle().clone();
    let host_proc = run.host_proc().clone();
    let driver = {
        let run = Arc::clone(&run);
        host_proc.spawn_thread("driver", move || run.run_to_completion())
    };

    simkernel::sleep(simkernel::time::ms(offset_ms));
    let host_state = run.host_state();
    let path = format!("/snap/bench/{}", spec.name);
    let (ckpt, _) = timed_call("core.checkpoint", || {
        checkpoint_application(&world, &handle, &host_state, &path)
    });
    let (_snapshot, ckpt) = ckpt.map_err(err)?;
    let after_ckpt = driver.join().map_err(err)?;

    run.destroy().map_err(err)?;
    host_proc.exit();
    let (restarted, _) = timed_call("core.restart", || {
        restart_application(&world, &path, &spec.binary_name(), 1)
    });
    let restarted = restarted.map_err(err)?;
    let resumed = WorkloadRun::resume_after_restart(
        spec,
        &restarted.handle,
        &restarted.host_proc,
        &restarted.host_state,
    );
    let after_restart = resumed.run_to_completion().map_err(err)?;
    resumed.destroy().map_err(err)?;
    Ok(Op {
        ckpt_ns: ckpt.total.as_nanos(),
        restart_ns: restarted.report.total.as_nanos(),
        end_ns: simkernel::now().as_nanos(),
        bytes: ckpt.host_snapshot_bytes + ckpt.device_snapshot_bytes + ckpt.local_store_bytes,
        verified: after_ckpt.verified && after_restart.verified,
    })
}

/// One round: every application once. Returns the round's virtual
/// results (if every op verified), its kernel events and digest.
fn round(
    out: &mut Outcome,
    traced: bool,
    apps: &[(WorkloadSpec, CkptInput)],
) -> (Option<Virtual>, u64, u64) {
    let mut ops = Vec::with_capacity(apps.len());
    let (mut events, mut digest) = (0, 0);
    for (i, (spec, input)) in apps.iter().enumerate() {
        spans::set_op(i as u64);
        let (spec, offset_ms) = (spec.clone(), input.offset_ms);
        let sim = run_sim(traced, move || one_op(&spec, offset_ms));
        events += sim.events;
        digest = fold(fold(digest, sim.digest), sim.events);
        out.attempted += 1;
        match sim.value {
            Ok(op) if op.verified => ops.push(op),
            Ok(_) | Err(_) => out.failed += 1,
        }
    }
    if ops.len() != apps.len() {
        return (None, events, digest);
    }
    let sum = |pick: fn(&Op) -> u64| ops.iter().map(pick).sum::<u64>();
    let virt = Virtual {
        makespan_ns: sum(|o| o.end_ns),
        shipped_bytes: sum(|o| o.bytes),
        op_mean_ns: sum(|o| o.ckpt_ns + o.restart_ns) / ops.len() as u64,
        n: ops.len() as u64,
        exact: vec![
            ("ckpt_v_suite_ns", sum(|o| o.ckpt_ns)),
            ("restart_v_suite_ns", sum(|o| o.restart_ns)),
        ],
    };
    (Some(virt), events, digest)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let specs = suite();
    let inputs = inputs::ckpt_inputs(ctx.seed, specs.len());
    let apps: Vec<(WorkloadSpec, CkptInput)> = specs
        .into_iter()
        .zip(inputs)
        .map(|(mut spec, input)| {
            spec.host_bytes += input.extra_host_bytes;
            (spec, input)
        })
        .collect();
    let mut out = Outcome::default();

    ctx.probe_point();
    for _ in 0..ctx.repeats(SETUP_ROUNDS) {
        let watch = Stopwatch::start(false);
        if let (Some(virt), ..) = round(&mut out, false, &apps) {
            out.accept(virt);
        }
        out.setup_s.push(watch.stop().wall_s);
        ctx.probe_point();
    }
    for _ in 0..ctx.repeats(ctx.scale(ROUNDS)) {
        let watch = Stopwatch::start(ctx.traced);
        let (virt, events, digest) = round(&mut out, ctx.traced, &apps);
        out.reps.push(watch.stop());
        ctx.probe_point();
        if let Some(virt) = virt {
            out.accept(virt);
        }
        out.events = events;
        out.digest = ctx.traced.then_some(digest);
    }

    if let Some(virt) = &out.virt {
        let exact = |name: &str| {
            let value = virt
                .exact
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0, |(_, v)| *v);
            value as f64 / 1e9
        };
        out.layer = vec![
            ("core.ckpt_v_suite_s", exact("ckpt_v_suite_ns")),
            ("core.restart_v_suite_s", exact("restart_v_suite_ns")),
        ];
    }
    out
}
