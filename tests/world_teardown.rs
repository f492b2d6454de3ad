//! A finished world is freed: after the kernel's `run` returns, nothing of
//! the simulated world — server, SCIF, store, every offload process — is
//! still alive in the host process. One test per entry point the benchmark
//! drives. A world that is kept alive by a reference cycle (the kind
//! `Kernel::teardown` cannot unwind) shows here as megabytes of live heap.
//!
//! `run_scenario` and `FleetScheduler::run` build their function registry
//! themselves, so the proof there is the live heap of this process, counted
//! by the allocator below; the `SwapScheduler` world is built by the test
//! and carries a sentinel as well, in a device function — the registry
//! lives in `CoiEnv`, which holds server, SCIF and store.

use serving::{run_scenario, ServingConfig, TrafficConfig};
use snapify_repro::prelude::*;
use snapify_repro::snapify::{FleetConfig, FleetScheduler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The system allocator, counting the bytes that are live.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// bookkeeping on the side. `realloc` is the default (alloc, copy, dealloc),
// so it is counted through the two methods below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The tests read one process-wide counter, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// What one finished world may leave behind — nothing at all when this was
/// written; the slack is for lazily built process-wide state a later run
/// might add. One leaked store chunk is 24.6 KiB, one leaked world (the
/// smallest below, before teardown existed) 0.8 MiB.
const SLACK: isize = 16 << 10;

/// Run `world` twice — the first run pays for everything that is built
/// once per process — and return the live bytes the second left behind.
fn left_behind(world: impl Fn()) -> isize {
    world();
    let before = LIVE.load(Ordering::Relaxed);
    world();
    LIVE.load(Ordering::Relaxed) - before
}

#[test]
fn a_serving_scenario_leaves_nothing_behind() {
    let _serial = serial();
    let cfg = ServingConfig {
        traffic: TrafficConfig {
            tenants: 50,
            requests: 100,
            ..TrafficConfig::default()
        },
        ..ServingConfig::default()
    };
    let left = left_behind(|| {
        let report = Kernel::run_root({
            let cfg = cfg.clone();
            move || run_scenario(&cfg)
        });
        assert_eq!(report.admitted + report.rejected, 100);
    });
    assert!(left < SLACK, "{left} bytes of the world are still live");
}

#[test]
fn a_fleet_run_leaves_nothing_behind() {
    let _serial = serial();
    for domains in [1, 2] {
        let fleet = FleetScheduler::new(FleetConfig {
            nodes: 4,
            domains,
            ..FleetConfig::default()
        });
        let left = left_behind(|| assert!(fleet.run().committed() > 0));
        assert!(left < SLACK, "{domains} domain(s): {left} bytes still live");
    }
}

#[test]
fn a_swap_scheduler_world_leaves_nothing_behind() {
    let _serial = serial();
    let sentinel = Arc::new(());
    let left = left_behind(|| {
        let held = Arc::clone(&sentinel);
        Kernel::run_root(move || {
            let registry = FunctionRegistry::new();
            registry.register(DeviceBinary::new("tenant.so", MB, 32 * MB).simple_function(
                "spin",
                move |ctx| {
                    let _ = &held;
                    ctx.compute(1e9, 60);
                    Vec::new()
                },
            ));
            let world = SnapifyWorld::boot_with(
                PlatformParams::default(),
                CoiConfig::default(),
                registry,
                FaultSchedule::none(),
                Some(DedupConfig::default()),
            );
            let sched = SwapScheduler::new(1, "/swap/teardown").with_store(world.store().unwrap());
            let tenants: Vec<_> = (0..4u64)
                .map(|t| {
                    let host = world.coi().create_host_process(&format!("tenant{t}"));
                    let handle = world.coi().create_process(&host, 0, "tenant.so").unwrap();
                    let buf = handle.create_buffer(8 * MB).unwrap();
                    handle
                        .buffer_write(&buf, Payload::synthetic(t, 8 * MB))
                        .unwrap();
                    let job = sched.admit(&handle, 0);
                    sched.park(job).unwrap();
                    (handle, job, buf)
                })
                .collect();
            for round in 0..3 {
                for (handle, job, _) in &tenants {
                    sched.swap_in(*job, 0).unwrap();
                    handle.run_sync("spin", Vec::new(), &[]).unwrap();
                    sched.park(*job).unwrap();
                    assert!(!sched.is_resident(*job), "round {round}");
                }
            }
        });
        assert_eq!(
            Arc::strong_count(&sentinel),
            1,
            "the registry is still alive"
        );
    });
    assert!(left < SLACK, "{left} bytes of the world are still live");
}
