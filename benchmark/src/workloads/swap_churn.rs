//! `swap-churn` — closed loop, one client, one device. Eight tenants
//! with 1.25 GiB images (a 256 MiB region of one shared synthetic tag
//! plus 32 private 32 MiB buffers) time-share the card: 10 GiB of
//! population against the 4 GiB default restore cache. Each cycle: a
//! seeded Zipf(1.0) tenant → `swap_in` → `run_sync` → rewrite four
//! seeded private buffers → `park`.
//!
//! One repetition builds a fresh world (that build is a `setup_s`
//! sample), runs the seeded cycle plan on it (the timed region) and
//! checks every buffer against the benchmark's shadow map. Every
//! repetition replays the same plan, so repetitions are identical work.
//!
//! The world is built by hand (`PhiServer` → `SnapifyIo` → `Dedup::new`
//! → `CoiWorld::boot` → `SwapScheduler`) rather than through
//! `SnapifyWorld`, because the two `Arc<dyn SnapshotStorage>` arguments
//! are where the traced run puts its interposers.

use std::sync::Arc;
use std::time::Instant;

use coi_sim::{CoiBuffer, CoiConfig, CoiProcessHandle, CoiWorld, DeviceBinary, FunctionRegistry};
use phi_platform::{Payload, PhiServer, PlatformParams, MB};
use simproc::SnapshotStorage;
use snapify::{JobId, SwapScheduler};
use snapify_io::SnapifyIo;
use snapstore::{Dedup, DedupConfig, StoreStats};

use super::{ms, run_sim, timed_call, Ctx, Outcome, Stopwatch, Timed, Virtual};
use crate::inputs::{self, ChurnCycle};
use crate::interpose::{Interposed, SNAPIFY_IO, SNAPSTORE};
use crate::spans;
use crate::stats::Dist;

/// Repetitions at the reference run length.
const REPETITIONS: u64 = 2;
/// Builds that are thrown away, so that `setup_s` is the median of
/// five 0.2 s samples rather than two.
const EXTRA_BUILDS: u64 = 3;
/// Cycles of one repetition: p90 leaves thirty samples beyond it, and
/// byte counts spread 6% across seeds where 200 cycles spread them 9%.
const CYCLES: usize = 300;
const TENANTS: usize = 8;
const ZIPF_S: f64 = 1.0;
const SHARED_BYTES: u64 = 256 * MB;
/// Tag of the region every tenant maps — identical content, so the
/// store holds it once.
const SHARED_TAG: u64 = 0x5AA2_ED00;
const PRIVATE_BUFFERS: usize = 32;
const PRIVATE_BYTES: u64 = 32 * MB;
const DIRTY_PER_CYCLE: usize = 4;

struct Tenant {
    handle: CoiProcessHandle,
    job: JobId,
    shared: Arc<CoiBuffer>,
    private: Vec<Arc<CoiBuffer>>,
    /// The benchmark's shadow map: the digest each private buffer must
    /// hold.
    shadow: Vec<u64>,
}

struct World {
    store: Dedup,
    sched: SwapScheduler,
    tenants: Vec<Tenant>,
}

fn private_tag(tenant: usize, buffer: usize, version: u64) -> u64 {
    (version << 16) | ((tenant as u64) << 8) | buffer as u64
}

/// Build the world and its tenants; every tenant ends up parked.
fn build(traced: bool) -> Result<World, String> {
    let registry = FunctionRegistry::new();
    registry.register(
        DeviceBinary::new("tenant.so", MB, 32 * MB).simple_function("spin", |ctx| {
            ctx.compute(1e9, 60);
            Vec::new()
        }),
    );
    let server = PhiServer::new(PlatformParams {
        num_devices: 1,
        ..PlatformParams::default()
    });
    let wrap = |storage: Arc<dyn SnapshotStorage>, seam| {
        if traced {
            Interposed::wrap(storage, seam)
        } else {
            storage
        }
    };
    let io = wrap(Arc::new(SnapifyIo::new_default(&server)), &SNAPIFY_IO);
    let store = Dedup::new(&server, io, DedupConfig::default());
    let coi = CoiWorld::boot(
        &server,
        CoiConfig::default(),
        registry,
        wrap(Arc::new(store.clone()), &SNAPSTORE),
    );
    let sched = SwapScheduler::new(1, "/swap/churn").with_store(&store);

    let mut tenants = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let host = coi.create_host_process(&format!("tenant{t}"));
        let handle = coi
            .create_process(&host, 0, "tenant.so")
            .map_err(|e| e.to_string())?;
        let filled = |bytes: u64, tag: u64| -> Result<Arc<CoiBuffer>, String> {
            let buf = handle.create_buffer(bytes).map_err(|e| e.to_string())?;
            handle
                .buffer_write(&buf, Payload::synthetic(tag, bytes))
                .map_err(|e| e.to_string())?;
            Ok(buf)
        };
        let shared = filled(SHARED_BYTES, SHARED_TAG)?;
        let mut private = Vec::with_capacity(PRIVATE_BUFFERS);
        let mut shadow = Vec::with_capacity(PRIVATE_BUFFERS);
        for b in 0..PRIVATE_BUFFERS {
            let tag = private_tag(t, b, 0);
            private.push(filled(PRIVATE_BYTES, tag)?);
            shadow.push(Payload::synthetic(tag, PRIVATE_BYTES).digest());
        }
        let job = sched.admit(&handle, 0);
        sched.park(job).map_err(|e| e.to_string())?;
        tenants.push(Tenant {
            handle,
            job,
            shared,
            private,
            shadow,
        });
    }
    Ok(World {
        store,
        sched,
        tenants,
    })
}

/// One cycle; returns the virtual ns of its `swap_in` and `park`.
fn cycle(world: &mut World, n: u64, plan: &ChurnCycle) -> Result<(u64, u64), String> {
    let World { sched, tenants, .. } = world;
    let tenant = &mut tenants[plan.tenant];
    let (r, swap_in_v) = timed_call("core.swap_in", || sched.swap_in(tenant.job, 0));
    r.map_err(|e| e.to_string())?;
    let (r, _) = timed_call("coi.run_sync", || {
        tenant.handle.run_sync("spin", Vec::new(), &[])
    });
    r.map_err(|e| e.to_string())?;
    let (r, _) = timed_call("coi.buffer_write", || {
        for &b in &plan.dirty {
            let fresh = Payload::synthetic(private_tag(plan.tenant, b, n + 1), PRIVATE_BYTES);
            tenant.shadow[b] = fresh.digest();
            tenant.handle.buffer_write(&tenant.private[b], fresh)?;
        }
        Ok::<(), coi_sim::CoiError>(())
    });
    r.map_err(|e| e.to_string())?;
    let (r, park_v) = timed_call("core.park", || sched.park(tenant.job));
    r.map_err(|e| e.to_string())?;
    Ok((swap_in_v, park_v))
}

/// The output check: swap every tenant in and compare every buffer
/// with the shadow map. Returns how many tenants did not verify.
fn verify(world: &World) -> u64 {
    let shared = Payload::synthetic(SHARED_TAG, SHARED_BYTES).digest();
    let mut bad = 0;
    for tenant in &world.tenants {
        let check = || -> Result<bool, String> {
            world
                .sched
                .swap_in(tenant.job, 0)
                .map_err(|e| e.to_string())?;
            let digest = |buf: &CoiBuffer| {
                tenant
                    .handle
                    .buffer_read(buf)
                    .map(|p| p.digest())
                    .map_err(|e| e.to_string())
            };
            let mut ok = digest(&tenant.shared)? == shared;
            for (buf, want) in tenant.private.iter().zip(&tenant.shadow) {
                ok &= digest(buf)? == *want;
            }
            world.sched.park(tenant.job).map_err(|e| e.to_string())?;
            Ok(ok)
        };
        if !matches!(check(), Ok(true)) {
            bad += 1;
        }
    }
    bad
}

/// What one repetition measured.
struct Repetition {
    setup_s: f64,
    timed: Timed,
    failed: u64,
    events: u64,
    virt: Option<Virtual>,
    layer: Vec<(&'static str, f64)>,
}

/// One repetition, on the calling simulated thread.
fn repetition(traced: bool, plan: &[ChurnCycle]) -> Result<Repetition, String> {
    let t0 = Instant::now();
    let mut world = build(traced)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let (kernel, _) = simkernel::current();
    let events0 = kernel.trace_len();
    let before = world.store.stats();
    let swaps0 = world.sched.swap_count();
    let v0 = simkernel::now();
    let (mut swap_in_v, mut park_v) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let watch = Stopwatch::start(traced);
    for (n, c) in plan.iter().enumerate() {
        spans::set_op(n as u64);
        match cycle(&mut world, n as u64, c) {
            Ok((swap_in, park)) => {
                swap_in_v.push(swap_in);
                park_v.push(park);
            }
            Err(_) => failed += 1,
        }
    }
    let timed = watch.stop();
    let makespan_ns = (simkernel::now() - v0).as_nanos();
    let after = world.store.stats();
    let swaps = world.sched.swap_count() - swaps0;
    let events = (kernel.trace_len() - events0) as u64;
    failed += verify(&world);

    let mut rep = Repetition {
        setup_s,
        timed,
        failed,
        events,
        virt: None,
        layer: Vec::new(),
    };
    if swap_in_v.len() != plan.len() {
        return Ok(rep);
    }
    let delta = |pick: fn(&StoreStats) -> u64| pick(&after) - pick(&before);
    let swap_in = Dist::of(&swap_in_v);
    let park = Dist::of(&park_v);
    rep.virt = Some(Virtual {
        makespan_ns,
        shipped_bytes: delta(|s| s.bytes_shipped) + delta(|s| s.restore_bytes_fetched),
        op_mean_ns: swap_in_v.iter().sum::<u64>() / swap_in_v.len() as u64,
        n: swap_in_v.len() as u64,
        exact: vec![
            ("swap_in_v_p50_ns", swap_in.p50),
            ("swap_in_v_tail_ns", swap_in.tail.1),
            ("park_v_p50_ns", park.p50),
            ("restore_bytes_fetched", delta(|s| s.restore_bytes_fetched)),
            ("restore_bytes_avoided", delta(|s| s.restore_bytes_avoided)),
            ("capture_dirty_bytes", delta(|s| s.capture_dirty_bytes)),
            ("capture_clean_bytes", delta(|s| s.capture_clean_bytes)),
        ],
    });
    rep.layer = vec![
        ("core.swap_in_v_ms_p50", ms(swap_in.p50)),
        ("core.swap_in_v_ms_tail", ms(swap_in.tail.1)),
        ("core.park_v_ms_p50", ms(park.p50)),
        ("core.swaps", swaps as f64),
    ];
    Ok(rep)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let plan = Arc::new(inputs::churn_plan(
        ctx.seed,
        CYCLES,
        TENANTS,
        ZIPF_S,
        PRIVATE_BUFFERS,
        DIRTY_PER_CYCLE,
    ));
    let mut out = Outcome::default();
    let traced = ctx.traced;

    ctx.probe_point();
    let extra_builds = if ctx.traced { 0 } else { EXTRA_BUILDS };
    for _ in 0..extra_builds {
        let watch = Stopwatch::start(false);
        if run_sim(false, || build(false).map(drop)).value.is_ok() {
            out.setup_s.push(watch.stop().wall_s);
        }
    }
    for _ in 0..ctx.repeats(ctx.scale(REPETITIONS)) {
        out.attempted += (CYCLES + TENANTS) as u64;
        let sim = {
            let plan = Arc::clone(&plan);
            run_sim(traced, move || repetition(traced, &plan))
        };
        ctx.probe_point();
        let Ok(rep) = sim.value else {
            out.failed += (CYCLES + TENANTS) as u64;
            continue;
        };
        out.setup_s.push(rep.setup_s);
        out.reps.push(rep.timed);
        out.failed += rep.failed;
        out.events = rep.events;
        out.digest = traced.then_some(sim.digest);
        out.layer = rep.layer;
        if let Some(virt) = rep.virt {
            out.accept(virt);
        }
    }
    out
}
