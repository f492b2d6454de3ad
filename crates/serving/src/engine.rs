//! The request-driven serving layer above `SwapScheduler`.
//!
//! [`run_scenario`] boots a full Snapify world, creates the tenant
//! population (admitted and immediately parked, so every tenant starts
//! swapped out), then replays an open-loop arrival schedule against it:
//!
//! * a request for a **resident** tenant is served warm — a worker
//!   thread pins the tenant, runs one touch offload, and records the
//!   time from arrival to the compute's completion;
//! * a request for a **swapped-out** tenant is a cold start — the
//!   tenant joins the miss queue, a swap worker finds it a device
//!   (evicting a victim chosen by the configured [`EvictionPolicy`] if
//!   none is free), demand-swaps it in via
//!   `SwapScheduler::swap_in`, and runs the first compute; every
//!   request that arrived while the tenant was away is recorded
//!   against that first compute.
//!
//! What those threads share is one private `Engine` value; whoever
//! accounts for the last request closes the miss queue.
//!
//! Time-to-first-compute lands in engine-local latency sketches (cold
//! and warm, per tenant class), per-class `SloMonitor`s, and — when the
//! global recorder is on — `serving.ttfc_ns` labeled sketches with
//! `tenant`/`class`/`start` dimensions.

use std::sync::Arc;

use coi_sim::{CoiBuffer, CoiConfig, CoiProcessHandle, DeviceBinary, FunctionRegistry};
use phi_platform::{FaultSchedule, Payload, PlatformParams};
use simkernel::obs;
use simkernel::obs::{LatencySketch, SloMonitor, SloSpec};
use simkernel::{now, sleep, SimChannel, SimMutex, SimMutexGuard};
use snapify::{JobId, SnapifyWorld, SwapScheduler};
use snapstore::DedupConfig;
use workloads::WorkloadSpec;

use crate::policy::{choose_victim, EvictionPolicy, VictimInfo};
use crate::report::{ClassReport, ServingReport, StartStats};
use crate::traffic::{generate, Arrival, TrafficConfig};

/// One tenant class: a function-sized workload image, its share of the
/// population, and an optional per-class time-to-first-compute SLO.
#[derive(Clone, Debug)]
pub struct TenantClass {
    /// The class's workload profile (image sizes, touch compute cost).
    pub workload: WorkloadSpec,
    /// Relative share of the tenant population (tenant `i` belongs to
    /// the class owning slot `i mod total_shares`).
    pub share: u32,
    /// Optional SLO evaluated over the class's time-to-first-compute.
    pub slo: Option<SloSpec>,
}

impl TenantClass {
    /// The default three-class mix from `workloads::serving_classes`,
    /// smallest class most numerous. SLOs are generous enough that a
    /// fault-free run stays clean; chaos runs breach them.
    pub fn defaults() -> Vec<TenantClass> {
        let slos = ["ttfc.p99 < 4s over 10s", "ttfc.p99 < 6s over 10s", ""];
        let shares = [4, 2, 1];
        workloads::serving_classes()
            .into_iter()
            .zip(slos)
            .zip(shares)
            .map(|((workload, slo), share)| TenantClass {
                workload,
                share,
                slo: (!slo.is_empty()).then(|| SloSpec::parse(slo).expect("default SLO parses")),
            })
            .collect()
    }
}

/// Everything one serving run needs.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Coprocessors behind the serving layer.
    pub devices: usize,
    /// Concurrent cold-start placements (swap workers draining the miss
    /// queue).
    pub swap_workers: usize,
    /// Eviction policy, also mirrored onto the snapstore restore cache.
    pub policy: EvictionPolicy,
    /// The open-loop traffic schedule.
    pub traffic: TrafficConfig,
    /// Tenant classes (weighted by `share`).
    pub classes: Vec<TenantClass>,
    /// Admission policy: a cold request arriving while this many cold
    /// requests are already queued is rejected outright (`None` =
    /// admit everything).
    pub admission_limit: Option<usize>,
    /// Byte budget of each device's snapstore restore cache.
    pub restore_cache_bytes: u64,
    /// Platform parameters (`num_devices` is overridden by `devices`).
    pub params: PlatformParams,
}

impl Default for ServingConfig {
    fn default() -> ServingConfig {
        ServingConfig {
            devices: 4,
            swap_workers: 2,
            policy: EvictionPolicy::Lru,
            traffic: TrafficConfig::default(),
            classes: TenantClass::defaults(),
            admission_limit: None,
            restore_cache_bytes: 256 << 20,
            params: PlatformParams::default(),
        }
    }
}

/// Where one tenant currently is in the serving state machine.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Swapped out, no request outstanding.
    Parked,
    /// Swapped out, waiting in the miss queue.
    Enqueued,
    /// A swap worker is restoring it.
    SwappingIn,
    /// Resident on a device, serving warm.
    Resident(usize),
    /// A swap worker is parking it to free its device.
    Evicting,
}

struct Tenant {
    job: JobId,
    handle: CoiProcessHandle,
    _buf: Arc<CoiBuffer>,
    class: usize,
    name: Arc<str>,
    state: TState,
    /// Warm requests (and the first compute) currently holding the
    /// tenant on its device; an eviction victim must be unpinned.
    pins: u32,
    /// Arrival times (ns) of requests waiting for the next swap-in.
    pending: Vec<u64>,
    /// Engine tick of the most recent request (recency for LRU).
    last_tick: u64,
    /// Requests received so far (popularity).
    requests: u64,
}

#[derive(Default)]
struct Shared {
    tenants: Vec<Tenant>,
    /// Device → resident tenant.
    device_owner: Vec<Option<usize>>,
    /// Devices claimed by an in-flight placement (victim being parked
    /// or target being swapped in).
    claimed: Vec<bool>,
    tick: u64,
    /// Cold requests admitted but not yet served.
    queued: usize,
    rejected: u64,
    recorded: u64,
    resident_now: usize,
    max_resident: usize,
    closed: bool,
    cold: LatencySketch,
    warm: LatencySketch,
    class_cold: Vec<LatencySketch>,
    class_warm: Vec<LatencySketch>,
    monitors: Vec<Option<SloMonitor>>,
}

impl Shared {
    /// Record one served request.
    fn record(&mut self, class: usize, class_name: &str, tenant: &str, lat_ns: u64, warm: bool) {
        if warm {
            self.warm.observe(lat_ns);
            self.class_warm[class].observe(lat_ns);
        } else {
            self.cold.observe(lat_ns);
            self.class_cold[class].observe(lat_ns);
        }
        if let Some(m) = &mut self.monitors[class] {
            m.observe(class_name, now().as_nanos(), lat_ns);
        }
        if obs::is_enabled() {
            let start = if warm { "warm" } else { "cold" };
            obs::sketch_observe_labeled(
                "serving.ttfc_ns",
                &[("class", class_name), ("start", start), ("tenant", tenant)],
                lat_ns,
            );
        }
        self.recorded += 1;
    }
}

/// How often a stuck placement rechecks for an eligible victim, and how
/// long transient swap errors (injected faults) are retried before the
/// scenario gives up.
const RETRY_PAUSE_MS: u64 = 10;
const MAX_SWAP_RETRIES: usize = 50;

fn retry<T, E: std::fmt::Debug>(
    what: &str,
    tenant: &str,
    mut f: impl FnMut() -> Result<T, E>,
) -> T {
    for attempt in 0..MAX_SWAP_RETRIES {
        match f() {
            Ok(v) => return v,
            Err(_) if attempt + 1 < MAX_SWAP_RETRIES => {
                obs::counter_add("serving.swap_retries", 1);
                sleep(simkernel::time::ms(RETRY_PAUSE_MS));
            }
            Err(e) => panic!("serving: {what} for {tenant} kept failing: {e:?}"),
        }
    }
    unreachable!()
}

/// Run one complete serving scenario. Must be called from a simulated
/// thread (`Kernel::run_root`, a cluster node body, …); everything —
/// world boot, tenant creation, the open-loop replay — happens in
/// virtual time, and the report is deterministic for a given config.
pub fn run_scenario(cfg: &ServingConfig) -> ServingReport {
    run_scenario_with_faults(cfg, FaultSchedule::none()).0
}

/// Like [`run_scenario`], but with an injected fault schedule (the chaos
/// plane's entry point). Also returns how many scheduled faults fired.
pub fn run_scenario_with_faults(
    cfg: &ServingConfig,
    faults: FaultSchedule,
) -> (ServingReport, usize) {
    assert!(!cfg.classes.is_empty(), "need at least one tenant class");
    assert!(cfg.swap_workers >= 1, "need at least one swap worker");
    let arrivals = generate(&cfg.traffic);
    let (world, engine) = Engine::boot(cfg, faults, arrivals.len() as u64);
    engine.serve(cfg, &arrivals);
    let fired = world.server().faults().fired_count();
    (engine.report(cfg, &world), fired)
}

/// What one serving run's threads share: the dispatcher (the caller's
/// thread), the swap workers and every warm request hold one of these.
struct Engine {
    shared: SimMutex<Shared>,
    sched: SwapScheduler,
    /// Tenants waiting for a swap worker; closed by whoever accounts for
    /// the last request.
    miss: SimChannel<usize>,
    class_names: Vec<String>,
    policy: EvictionPolicy,
    devices: usize,
    admission_limit: Option<usize>,
    /// Requests in the arrival schedule.
    total: u64,
}

impl Engine {
    /// Boot the world and create the population: each tenant is admitted
    /// on device 0 and parked before the next is created, so setup never
    /// holds more than one tenant resident.
    fn boot(cfg: &ServingConfig, faults: FaultSchedule, total: u64) -> (SnapifyWorld, Arc<Engine>) {
        // One device binary per class; the touch function is the class's
        // per-step compute.
        let registry = FunctionRegistry::new();
        for class in &cfg.classes {
            let w = &class.workload;
            let flops = w.flops_per_step;
            registry.register(
                DeviceBinary::new(w.binary_name(), w.binary_bytes, w.device_resident_bytes)
                    .simple_function("touch", move |ctx| {
                        ctx.compute(flops, 60);
                        Vec::new()
                    }),
            );
        }
        let mut params = cfg.params.clone();
        params.num_devices = cfg.devices;
        let world = SnapifyWorld::boot_with(
            params,
            CoiConfig::default(),
            registry,
            faults,
            Some(DedupConfig {
                restore_cache_bytes: cfg.restore_cache_bytes,
                cache_policy: cfg.policy,
                ..DedupConfig::default()
            }),
        );
        let store = world.store().expect("dedup world");
        let sched = SwapScheduler::new(cfg.devices, "/swap/serving").with_store(store);

        // Tenant `i` belongs to the class owning slot `i mod total shares`.
        let slots: Vec<usize> = (0..cfg.classes.len())
            .flat_map(|c| std::iter::repeat_n(c, cfg.classes[c].share.max(1) as usize))
            .collect();
        let mut tenants = Vec::with_capacity(cfg.traffic.tenants);
        for i in 0..cfg.traffic.tenants {
            let c = slots[i % slots.len()];
            let w = &cfg.classes[c].workload;
            let host = world.coi().create_host_process(&format!("t{i}"));
            let handle = world
                .coi()
                .create_process(&host, 0, &w.binary_name())
                .expect("tenant process creation");
            let buf = handle.create_buffer(w.in_bytes).expect("tenant buffer");
            handle
                .buffer_write(&buf, Payload::synthetic(i as u64, w.in_bytes))
                .expect("tenant buffer seed");
            let job = sched.admit_tagged(&handle, 0, &format!("t{i}"));
            sched.park(job).expect("initial park");
            tenants.push(Tenant {
                job,
                handle,
                _buf: buf,
                class: c,
                name: Arc::from(format!("t{i}").as_str()),
                state: TState::Parked,
                pins: 0,
                pending: Vec::new(),
                last_tick: 0,
                requests: 0,
            });
        }

        let sketches = || vec![LatencySketch::new(); cfg.classes.len()];
        let shared = Shared {
            tenants,
            device_owner: vec![None; cfg.devices],
            claimed: vec![false; cfg.devices],
            class_cold: sketches(),
            class_warm: sketches(),
            monitors: cfg
                .classes
                .iter()
                .map(|c| c.slo.clone().map(SloMonitor::new))
                .collect(),
            ..Shared::default()
        };
        let engine = Engine {
            shared: SimMutex::new("serving-state", shared),
            sched,
            miss: SimChannel::unbounded("serving-miss"),
            class_names: cfg
                .classes
                .iter()
                .map(|c| c.workload.name.to_string())
                .collect(),
            policy: cfg.policy,
            devices: cfg.devices,
            admission_limit: cfg.admission_limit,
            total,
        };
        (world, Arc::new(engine))
    }

    /// The one completion rule: whoever accounts for the last request —
    /// a record, a rejection, or the dispatcher finding nothing left —
    /// closes the miss queue, once, with the state lock released.
    fn finish_if_done(&self, mut s: SimMutexGuard<'_, Shared>) {
        let done = s.recorded + s.rejected == self.total && !s.closed;
        s.closed |= done;
        drop(s);
        if done {
            self.miss.close();
        }
    }

    /// Replay the arrival schedule: swap workers drain the miss queue,
    /// place tenants and run their first compute; this thread IS the
    /// open-loop arrival process.
    fn serve(self: &Arc<Self>, cfg: &ServingConfig, arrivals: &[Arrival]) {
        let workers: Vec<_> = (0..cfg.swap_workers)
            .map(|wi| {
                let engine = Arc::clone(self);
                simkernel::spawn(format!("swap-worker-{wi}"), move || {
                    while let Ok(t) = engine.miss.recv() {
                        engine.place(t);
                    }
                })
            })
            .collect();
        let t0 = now();
        let mut warm_joins = Vec::new();
        for a in arrivals {
            let target = t0 + simkernel::SimDuration::from_nanos(a.at_ns);
            if now() < target {
                sleep(target - now());
            }
            warm_joins.extend(self.dispatch(a.tenant));
        }
        for j in warm_joins {
            j.join();
        }
        // All-rejected (or zero-request) runs never hit a record path.
        self.finish_if_done(self.shared.lock());
        for w in workers {
            w.join();
        }
    }

    /// One arrival: serve it warm on a thread of its own (returned), turn
    /// it away, or queue it behind the tenant's next swap-in.
    fn dispatch(self: &Arc<Self>, tenant: usize) -> Option<simkernel::JoinHandle<()>> {
        let mut s = self.shared.lock();
        s.tick += 1;
        let tick = s.tick;
        let over_limit = self.admission_limit.is_some_and(|l| s.queued >= l);
        let t = &mut s.tenants[tenant];
        t.last_tick = tick;
        t.requests += 1;
        match t.state {
            TState::Resident(_) => {
                t.pins += 1;
                let handle = t.handle.clone();
                let name = Arc::clone(&t.name);
                let class = t.class;
                let at_ns = now().as_nanos();
                drop(s);
                let engine = Arc::clone(self);
                return Some(simkernel::spawn(format!("warm-{name}"), move || {
                    retry("warm touch", &name, || {
                        handle.run_sync("touch", Vec::new(), &[])
                    });
                    let lat = now().as_nanos() - at_ns;
                    let mut s = engine.shared.lock();
                    s.record(class, &engine.class_names[class], &name, lat, true);
                    s.tenants[tenant].pins -= 1;
                    engine.finish_if_done(s);
                }));
            }
            _ if over_limit => {
                s.rejected += 1;
                self.finish_if_done(s);
            }
            TState::Parked => {
                t.pending.push(now().as_nanos());
                t.state = TState::Enqueued;
                s.queued += 1;
                drop(s);
                self.miss
                    .send(tenant)
                    .expect("miss queue open while dispatching");
            }
            TState::Enqueued | TState::SwappingIn | TState::Evicting => {
                t.pending.push(now().as_nanos());
                s.queued += 1;
            }
        }
        None
    }

    /// Assemble the report once every thread has been joined.
    fn report(&self, cfg: &ServingConfig, world: &SnapifyWorld) -> ServingReport {
        let mut s = self.shared.lock();
        let breaches: Vec<String> = s
            .monitors
            .iter_mut()
            .flatten()
            .flat_map(|m| {
                m.flush();
                m.breaches().iter().map(|b| b.render()).collect::<Vec<_>>()
            })
            .collect();
        let classes = (0..cfg.classes.len())
            .map(|c| ClassReport {
                class: self.class_names[c].clone(),
                cold: StartStats::from_sketch(&s.class_cold[c]),
                warm: StartStats::from_sketch(&s.class_warm[c]),
                slo: cfg.classes[c].slo.as_ref().map(|spec| spec.render()),
                breaches: s.monitors[c].as_ref().map_or(0, |m| m.breaches().len()),
            })
            .collect();
        let stats = world.store().expect("dedup world").stats();
        let overall = {
            let mut merged = s.cold.clone();
            merged.merge(&s.warm);
            StartStats::from_sketch(&merged)
        };
        ServingReport {
            policy: cfg.policy.label().to_string(),
            seed: cfg.traffic.seed,
            tenants: cfg.traffic.tenants,
            devices: cfg.devices,
            requests: self.total,
            admitted: self.total - s.rejected,
            rejected: s.rejected,
            cold: StartStats::from_sketch(&s.cold),
            warm: StartStats::from_sketch(&s.warm),
            overall,
            classes,
            breaches,
            swaps: self.sched.swap_count(),
            max_resident: s.max_resident,
            restore_chunks_warm: stats.restore_chunks_warm,
            restore_chunks_cold: stats.restore_chunks_cold,
            restore_bytes_avoided: stats.restore_bytes_avoided,
            capture_dirty_bytes: stats.capture_dirty_bytes,
            capture_clean_bytes: stats.capture_clean_bytes,
        }
    }

    /// First half of a placement: claim a free device, or park the
    /// policy's victim to free one; with every resident pinned, wait and
    /// look again. The device stays `claimed` until the swap-in commits.
    fn claim_device(&self) -> usize {
        loop {
            let mut s = self.shared.lock();
            let free = |d: &usize| s.device_owner[*d].is_none() && !s.claimed[*d];
            if let Some(d) = (0..self.devices).find(free) {
                s.claimed[d] = true;
                return d;
            }
            let candidates: Vec<VictimInfo> = s
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match t.state {
                    TState::Resident(d) if t.pins == 0 && !s.claimed[d] => Some(VictimInfo {
                        tenant: i,
                        last_tick: t.last_tick,
                        requests: t.requests,
                        swap_cost: self.sched.swap_size_estimate(t.job).unwrap_or(u64::MAX),
                    }),
                    _ => None,
                })
                .collect();
            let Some(victim) = choose_victim(self.policy, &candidates) else {
                drop(s);
                sleep(simkernel::time::ms(RETRY_PAUSE_MS));
                continue;
            };
            let t = &mut s.tenants[victim];
            let TState::Resident(device) = t.state else {
                unreachable!("candidates are resident")
            };
            t.state = TState::Evicting;
            let (job, name) = (t.job, Arc::clone(&t.name));
            s.claimed[device] = true;
            drop(s);
            retry("evicting park", &name, || self.sched.park(job));
            let mut s = self.shared.lock();
            s.device_owner[device] = None;
            s.resident_now -= 1;
            let t = &mut s.tenants[victim];
            // Requests that arrived mid-eviction put it back in line.
            let requeue = !t.pending.is_empty();
            t.state = if requeue {
                TState::Enqueued
            } else {
                TState::Parked
            };
            drop(s);
            if requeue {
                let _ = self.miss.send(victim);
            }
            return device;
        }
    }

    /// One cold placement: find a device, demand-swap the tenant in, run
    /// its first compute, and record every request that was waiting on
    /// it. The claim spans retries and the victim is re-queued between
    /// the two halves — which is why this is not `SwapScheduler`'s own
    /// switch.
    fn place(&self, tenant: usize) {
        let device = self.claim_device();

        // Phase 2: demand swap-in onto the claimed device, then the first
        // compute. The pin covers the compute so a concurrent placement
        // cannot evict the tenant before it serves its waiters.
        let (job, handle, name, class) = {
            let mut s = self.shared.lock();
            let t = &mut s.tenants[tenant];
            t.state = TState::SwappingIn;
            (t.job, t.handle.clone(), Arc::clone(&t.name), t.class)
        };
        retry("demand swap-in", &name, || self.sched.swap_in(job, device));
        {
            let mut s = self.shared.lock();
            s.tenants[tenant].state = TState::Resident(device);
            s.tenants[tenant].pins += 1;
            s.device_owner[device] = Some(tenant);
            s.claimed[device] = false;
            s.resident_now += 1;
            s.max_resident = s.max_resident.max(s.resident_now);
        }
        retry("first compute", &name, || {
            handle.run_sync("touch", Vec::new(), &[])
        });
        let now_ns = now().as_nanos();
        let mut s = self.shared.lock();
        let waiters = std::mem::take(&mut s.tenants[tenant].pending);
        s.queued -= waiters.len();
        for at in waiters {
            s.record(class, &self.class_names[class], &name, now_ns - at, false);
        }
        s.tenants[tenant].pins -= 1;
        self.finish_if_done(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::Kernel;

    fn small_config(policy: EvictionPolicy) -> ServingConfig {
        ServingConfig {
            devices: 2,
            swap_workers: 2,
            policy,
            traffic: TrafficConfig {
                tenants: 8,
                zipf_s: 1.2,
                rate_per_sec: 10.0,
                requests: 120,
                ..TrafficConfig::default()
            },
            ..ServingConfig::default()
        }
    }

    #[test]
    fn every_admitted_request_is_served_and_capacity_holds() {
        for policy in EvictionPolicy::ALL {
            let report = Kernel::run_root(move || run_scenario(&small_config(policy)));
            assert_eq!(report.rejected, 0);
            assert_eq!(
                report.cold.count + report.warm.count,
                report.admitted,
                "{policy:?}: every admitted request reaches first-compute\n{}",
                report.summary()
            );
            assert_eq!(report.overall.count, report.cold.count + report.warm.count);
            assert!(report.max_resident <= report.devices);
            assert!(report.cold.count > 0, "{policy:?}: skew never misses?");
            assert!(report.warm.count > 0, "{policy:?}: skew never hits?");
            assert!(
                report.warm.p99_ns < report.cold.p99_ns,
                "{policy:?}: warm starts must beat cold starts\n{}",
                report.summary()
            );
        }
    }

    #[test]
    fn admission_limit_rejects_overload() {
        let report = Kernel::run_root(|| {
            run_scenario(&ServingConfig {
                admission_limit: Some(2),
                swap_workers: 1,
                traffic: TrafficConfig {
                    tenants: 16,
                    zipf_s: 0.0, // uniform: nearly everything misses
                    rate_per_sec: 100.0,
                    requests: 200,
                    ..TrafficConfig::default()
                },
                ..small_config(EvictionPolicy::Lru)
            })
        });
        assert!(report.rejected > 0, "overload must trip the limiter");
        assert_eq!(report.cold.count + report.warm.count, report.admitted);
    }
}
