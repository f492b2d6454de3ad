//! `fleet-migrate` — closed loop, controller-driven.
//! `FleetScheduler::run`: 20 nodes, 400 tenants (48 MiB shared base
//! plus a seed-sized private region of about 4 MiB), skewed placement,
//! one swap cycle per node, then load-driven cross-node migrations
//! through the shared snapstore pool.
//!
//! Monolithic like the serving scenario: `setup_s` is a preceding
//! zero-migration run, the timed region contains its own launch, and
//! there is one repetition. The scenario has no random input, so
//! `--seed` sizes the tenants' private regions and nothing else.

use snapify::{FleetConfig, FleetReport, FleetScheduler};

use super::{timed_call, Ctx, Outcome, Stopwatch, Virtual};
use crate::inputs;

/// Migrations at the reference run length.
const MIGRATIONS: u64 = 200;
/// Zero-migration runs before the timed one; their median is `setup_s`.
const SETUP_RUNS: u64 = 2;
const NODES: usize = 20;
const TENANTS: usize = 400;
const BASE_BYTES: u64 = 48 << 20;
const UNIQUE_BYTES: u64 = 4 << 20;

fn scheduler(ctx: &Ctx, max_migrations: usize) -> FleetScheduler {
    FleetScheduler::new(FleetConfig {
        nodes: NODES,
        domains: ctx.domains,
        tenants: TENANTS,
        base_bytes: BASE_BYTES,
        unique_bytes: inputs::fleet_unique_bytes(ctx.seed, UNIQUE_BYTES),
        max_migrations,
        ..FleetConfig::default()
    })
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let migrations = ctx.scale(MIGRATIONS);
    let mut out = Outcome {
        attempted: migrations,
        ..Outcome::default()
    };

    let mut launch_v_ns = 0;
    ctx.probe_point();
    for _ in 0..ctx.repeats(SETUP_RUNS) {
        let watch = Stopwatch::start(false);
        launch_v_ns = scheduler(ctx, 0).run().virtual_ns;
        out.setup_s.push(watch.stop().wall_s);
        ctx.probe_point();
    }

    let fleet = scheduler(ctx, migrations as usize);
    let watch = Stopwatch::start(ctx.traced);
    let (report, _): (FleetReport, _) = timed_call("core.fleet.run", || fleet.run());
    out.reps.push(watch.stop());
    ctx.probe_point();

    // Output checks: every planned migration committed, none rolled
    // back, and a clean shutdown left nothing in the pool.
    let committed = report.committed() as u64;
    out.failed = migrations - committed.min(migrations);
    if report.failed_back() != 0 || report.pool_live_chunks != 0 || report.pool_live_manifests != 0
    {
        out.failed = migrations;
    }

    // `FleetScheduler::run` always records the kernel trace.
    out.events = report.fingerprint.0 as u64;
    out.digest = Some(report.digest());
    // The report carries no per-migration times; the zero-migration run
    // ends where the migration phase starts, so the difference is the
    // virtual time the migrations took.
    let migrate_phase_ns = report.virtual_ns.saturating_sub(launch_v_ns);
    let mut exact = vec![
        ("migrate_phase_v_ns", migrate_phase_ns),
        (
            "pool_bytes_avoided_remote",
            report.pool.bytes_avoided_remote,
        ),
        ("pool_chunk_hits", report.pool.chunk_hits),
    ];
    // The raw kernel fingerprint is replay-stable only at a fixed
    // domain count; `FleetReport::digest()` holds at any.
    if ctx.domains == 1 {
        exact.push(("kernel_events", report.fingerprint.0 as u64));
        exact.push(("kernel_fingerprint", report.fingerprint.1));
    }
    out.accept(Virtual {
        makespan_ns: report.virtual_ns,
        shipped_bytes: report.pool.bytes_fetched_remote,
        op_mean_ns: migrate_phase_ns / committed.max(1),
        n: committed,
        exact,
    });
    let swaps: u64 = report.loads_after.iter().map(|l| l.swaps).sum();
    out.layer = vec![
        ("core.fleet.committed", committed as f64),
        ("core.fleet.failed_back", report.failed_back() as f64),
        ("core.swaps", swaps as f64),
        (
            "snapstore.pool.fetched_gb",
            report.pool.bytes_fetched_remote as f64 / 1e9,
        ),
        ("snapstore.pool.saved_frac", report.warm_saved_fraction()),
        ("snapstore.pool.chunk_hits", report.pool.chunk_hits as f64),
    ];
    out
}
