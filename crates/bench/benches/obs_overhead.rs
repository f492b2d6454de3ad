//! **obs_overhead** — wall-clock cost of the dimensional telemetry
//! pipeline on the swap plane's hot path.
//!
//! The metrics contract is that instrumentation is cheap enough to
//! leave on: interned label sets mean no per-observation allocation,
//! and every recording site is gated on one relaxed atomic load when
//! the recorder is disabled. This harness proves both ends:
//!
//! * `swap_rotate_obs_off` / `swap_rotate_obs_on` — the same two-tenant
//!   swap-rotate workload (park / rotate ×N through the scheduler) with
//!   the recorder disabled vs enabled. The relative delta is the
//!   pipeline's end-to-end overhead; the gate requires it under 5%
//!   (full mode).
//! * `labeled_hot_path` — a micro-loop of the two calls production
//!   makes (`counter_add_labeled` + `sketch_observe_labeled`, three
//!   labels each), reporting ns/op for one fully-labeled observation.
//!
//! Pass `--quick` for a fast smoke run (CI);
//! quick runs are too short for a tight relative bound, so the gate
//! loosens to 25% there. Ends by writing `BENCH_obs.json`
//! (`snapify_bench::report`); every number in it is this host's wall
//! clock, so only the row names are held against the committed file.

use std::hint::black_box;
use std::time::Instant;

use coi_sim::{DeviceBinary, FunctionRegistry};
use phi_platform::{Payload, MB};
use simkernel::obs;
use simkernel::time::ms;
use simkernel::Kernel;
use snapify::{SnapifyWorld, SwapScheduler};
use snapify_bench::report::{fixed, Report};

/// One full two-tenant rotate cycle: tenant A (16 MiB) parked, tenant B
/// (48 MiB) resident, then `rotations` hand-offs. Telemetry recording
/// state is whatever the caller set globally before the run.
fn swap_rotate_workload(rotations: usize) {
    Kernel::run_root(move || {
        let registry = FunctionRegistry::new();
        registry.register(DeviceBinary::new("tenant.so", MB, 32 * MB));
        let world = SnapifyWorld::boot(registry);
        let sched = SwapScheduler::new(1, "/swap/obs-bench");
        let host = world.coi().create_host_process("obs-bench");

        let ha = world.coi().create_process(&host, 0, "tenant.so").unwrap();
        let ba = ha.create_buffer(16 * MB).unwrap();
        ha.buffer_write(&ba, Payload::synthetic(11, 16 * MB))
            .unwrap();
        let a = sched.admit_tagged(&ha, 0, "tenant-a");
        sched.park(a).unwrap();

        let hb = world.coi().create_process(&host, 0, "tenant.so").unwrap();
        let bb = hb.create_buffer(48 * MB).unwrap();
        hb.buffer_write(&bb, Payload::synthetic(12, 48 * MB))
            .unwrap();
        let _b = sched.admit_tagged(&hb, 0, "tenant-b");

        for _ in 0..rotations {
            sched.rotate().unwrap();
            simkernel::sleep(ms(2));
        }
    });
}

/// Best-of-`batches` wall seconds for `f`, with `warmups` discarded
/// runs first.
fn best_secs(warmups: u32, batches: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmups {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// ns per fully-labeled observation (one counter add + one latency
/// sketch observe) — the steady-state hot path: the label set is
/// interned on the first iteration, then hashed and found in place.
fn labeled_hot_path_ns(ops: u64) -> f64 {
    obs::reset();
    obs::enable();
    let labels = [("device", "0"), ("op", "rotate"), ("tenant", "tenant-a")];
    let t0 = Instant::now();
    for i in 0..ops {
        obs::counter_add_labeled("bench.ops", black_box(&labels), 1);
        obs::sketch_observe_labeled("bench.latency_ns", &labels, black_box(1000 + i % 997));
    }
    let secs = t0.elapsed().as_secs_f64();
    obs::disable();
    obs::reset();
    // Two metric updates per iteration.
    secs * 1e9 / (ops * 2) as f64
}

fn main() {
    let quick = snapify_bench::quick();
    let (warmups, batches) = if quick { (1, 3) } else { (2, 7) };
    let rotations = if quick { 4 } else { 10 };
    let hot_ops: u64 = if quick { 200_000 } else { 2_000_000 };
    // Wall-clock ratios on short runs are noisy; the tight bound is
    // enforced on full runs, CI smoke keeps a generous margin.
    let gate_pct = if quick { 25.0 } else { 5.0 };

    // Interleave off/on batches so machine drift hits both sides alike.
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    for _ in 0..warmups {
        obs::disable();
        obs::reset();
        swap_rotate_workload(rotations);
    }
    for _ in 0..batches {
        obs::disable();
        obs::reset();
        off = off.min(best_secs(0, 1, || swap_rotate_workload(rotations)));
        obs::reset();
        obs::enable();
        on = on.min(best_secs(0, 1, || swap_rotate_workload(rotations)));
        obs::disable();
    }
    obs::reset();

    let overhead_pct = (on - off) / off * 100.0;
    let ns_per_op = labeled_hot_path_ns(hot_ops);

    let mut report = Report::default();
    for key in ["wall_secs", "ns_per_op", "overhead_pct"] {
        report.wall_clock(key, None);
    }
    report
        .row("swap_rotate_obs_off")
        .field("wall_secs", fixed(off, 6))
        .row("swap_rotate_obs_on")
        .field("wall_secs", fixed(on, 6))
        .row("labeled_hot_path")
        .field("ns_per_op", fixed(ns_per_op, 1))
        .scalar("overhead_pct", fixed(overhead_pct, 3))
        .scalar("gate_pct", fixed(gate_pct, 0))
        .scalar("quick", quick);
    report.finish("BENCH_obs.json");

    assert!(
        overhead_pct < gate_pct,
        "telemetry overhead {overhead_pct:.2}% exceeds the {gate_pct}% gate \
         (obs-off {off:.4}s, obs-on {on:.4}s)"
    );
}
