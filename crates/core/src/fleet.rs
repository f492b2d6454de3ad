//! Fleet-wide swap control plane over the shared cross-node snapstore
//! pool.
//!
//! The paper runs Snapify on one host with a handful of coprocessors
//! and defers placement to "a job scheduler like COSMIC" (§5 Remark).
//! This module scales that remark out to a *fleet*: many hosts × many
//! cards under one global scheduler, with the per-node [`SwapScheduler`]
//! as the local mechanism and swap-based bin-packing plus proactive
//! cross-node migration as the global policy.
//!
//! Architecture — one controller, one agent per node:
//!
//! * The **controller** runs as a simulated thread in domain 0. It owns
//!   the placement plan, drives the run through explicit phases
//!   (launch → cycle → report → migrate → report → shutdown), and
//!   relays migration payloads between nodes. Every controller↔agent
//!   exchange crosses a [`MultiNodeCluster`] link, so control traffic
//!   pays real network latency and never undercuts the conservative
//!   sync lookahead — the whole fleet is byte-identical at every
//!   domain count.
//! * Each **agent** boots a full [`SnapifyWorld`] (COI + Snapify-IO +
//!   dedup store) attached to the shared [`ClusterPool`], admits its
//!   tenants to a local [`SwapScheduler`], and executes control
//!   commands serially from its command link — each has exactly one
//!   reply, sent from one place and read by one rule (`Rep::expect`).
//!
//! Cross-node migration reuses the paper's own building blocks
//! end-to-end: the source pauses the tenant, takes a host BLCR
//! checkpoint plus a terminating device capture (publishing the
//! snapshot's chunk manifests to the pool), and ships only the small
//! host snapshot over the wire; the destination regenerates the
//! library file locally and restarts from the snapshot path, pulling
//! device state through the pool — which means chunks the destination
//! already holds (the shared base image and input regions seeded by
//! its own swap traffic) never cross the network. A failed restore is
//! rolled back on both ends: the destination deletes every partial
//! artifact and the source restores the tenant from its still-intact
//! capture, leaving it resumable in place.

use std::collections::BTreeMap;

use coi_sim::wire::{frame_bytes, Dec, DecodeError, Enc};
use coi_sim::{CoiBuffer, CoiConfig, CoiProcessHandle, DeviceBinary, FunctionRegistry};
use phi_platform::{FaultSchedule, NodeId, Payload, PhiServer, PlatformParams};
use scif_sim::{ClusterRx, ClusterTx};
use simkernel::{obs, SchedPolicy};
use simproc::SnapshotStorage;
use snapstore::{ClusterPool, DedupConfig, PoolStats};

use crate::api::{self, SnapifyT};
use crate::cluster::MultiNodeCluster;
use crate::cr;
use crate::scheduler::{JobId, SwapScheduler};
use crate::world::SnapifyWorld;
use crate::SnapifyError;

/// Synthetic tag of the base input region every tenant shares (the
/// fleet's common model/dataset image — the dedup win).
const BASE_TAG: u64 = 0x000F_1EE7_BA5E;
/// Synthetic tag family for each tenant's private delta region.
const UNIQ_TAG: u64 = 0x000F_1EE7_0000_0000;
/// Host-side directory agents park swapped-out tenants under.
const SWAP_DIR: &str = "/fleet/swap";
/// Host-side directory migration snapshots are staged under.
const MIGRATE_DIR: &str = "/fleet/migrate";

/// Configuration of a fleet run.
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of Phi servers in the fleet.
    pub nodes: usize,
    /// Parallel time domains to simulate on (pure perf knob; results
    /// are identical at every value).
    pub domains: u32,
    /// Total tenants across the fleet. Must be at least
    /// `nodes * params.num_devices` so every device gets a resident
    /// seed tenant.
    pub tenants: usize,
    /// Bytes of the shared base region every tenant maps.
    pub base_bytes: u64,
    /// Bytes of each tenant's private region.
    pub unique_bytes: u64,
    /// Cap on proactive migrations per run.
    pub max_migrations: usize,
    /// Hardware/network parameters shared by every node (hostnames are
    /// assigned per node on top of this).
    pub params: PlatformParams,
    /// Kernel scheduling policy (e.g. `SchedPolicy::Random(seed)` for
    /// chaos runs).
    pub policy: SchedPolicy,
    /// Per-node fault schedules, indexed by node; nodes past the end of
    /// the vector run fault-free.
    pub node_faults: Vec<FaultSchedule>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            nodes: 4,
            domains: 1,
            tenants: 16,
            base_bytes: 16 << 20,
            unique_bytes: 1 << 20,
            max_migrations: 4,
            params: PlatformParams::default(),
            policy: SchedPolicy::Fifo,
            node_faults: Vec::new(),
        }
    }
}

/// One node's load sample, as reported by its agent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeLoad {
    /// Reporting node.
    pub node: usize,
    /// Tenants resident on a device right now.
    pub resident: u64,
    /// Tenants swapped out to host storage.
    pub parked: u64,
    /// Swap operations the node has performed so far.
    pub swaps: u64,
}

/// The outcome of one proactive migration attempt.
#[derive(Clone, Debug)]
pub struct MigrationOutcome {
    /// Migrated tenant.
    pub tenant: u64,
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Whether the tenant committed at the destination (`false` means
    /// it was restored in place at the source).
    pub committed: bool,
    /// Device snapshot bytes captured at the source.
    pub dev_bytes: u64,
    /// Host snapshot bytes shipped over the wire.
    pub host_bytes: u64,
    /// Destination error for a failed attempt.
    pub error: Option<String>,
}

/// Per-agent counters returned when an agent shuts down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// The agent's node.
    pub node: usize,
    /// Tenants launched here.
    pub launched: u64,
    /// Tenants parked at launch (overflow bin-packed to host storage).
    pub parked_at_launch: u64,
    /// Swap cycles (park + swap-in) performed on request.
    pub cycled: u64,
    /// Tenants migrated away.
    pub migrated_out: u64,
    /// Tenants migrated in.
    pub migrated_in: u64,
    /// Failed in-migrations rolled back here (source side).
    pub restored_back: u64,
    /// Tenants owned at shutdown.
    pub final_tenants: u64,
}

/// The result of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Fleet size.
    pub nodes: usize,
    /// Total tenants.
    pub tenants: usize,
    /// Load samples before rebalancing.
    pub loads_before: Vec<NodeLoad>,
    /// Load samples after rebalancing.
    pub loads_after: Vec<NodeLoad>,
    /// Every migration attempted, in execution order.
    pub migrations: Vec<MigrationOutcome>,
    /// Shared pool counters at end of run.
    pub pool: PoolStats,
    /// Chunks still referenced or pinned in the pool at end of run
    /// (a clean shutdown leaves zero — anything else is a leak).
    pub pool_live_chunks: usize,
    /// Manifests still holding directory entries at end of run.
    pub pool_live_manifests: usize,
    /// Merged deterministic trace fingerprint (event count, hash).
    pub fingerprint: (usize, u64),
    /// Window barriers the domains met at (`MultiKernel::rounds`; 0 at one
    /// domain): coordination cost, exact; not part of [`FleetReport::digest`].
    pub barrier_rounds: u64,
    /// Virtual end-of-run time in nanoseconds.
    pub virtual_ns: u64,
    /// Per-agent counters, sorted by node.
    pub agents: Vec<AgentStats>,
}

impl FleetReport {
    /// Migrations that committed at their destination.
    pub fn committed(&self) -> usize {
        self.migrations.iter().filter(|m| m.committed).count()
    }

    /// Migrations rolled back to their source.
    pub fn failed_back(&self) -> usize {
        self.migrations.iter().filter(|m| !m.committed).count()
    }

    /// Fraction of snapshot bytes that warm cross-node restores avoided
    /// shipping (vs a cold restore fetching every chunk).
    pub fn warm_saved_fraction(&self) -> f64 {
        self.pool.saved_fraction()
    }

    /// Digest of the fleet's observable trace: every load sample,
    /// migration outcome, pool counter, agent counter and the virtual
    /// end time, FNV-1a folded in a fixed order.
    ///
    /// This is the *domain-count-invariant* determinism contract: the
    /// raw kernel fingerprint is replay-stable only at a fixed domain
    /// count (same-domain ports legitimately schedule differently than
    /// cross-domain ones), but everything the fleet can observe — and
    /// therefore this digest — is byte-identical for `domains = 1` and
    /// `domains = N`.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
        };
        fold(self.nodes as u64);
        fold(self.tenants as u64);
        fold(self.virtual_ns);
        for loads in [&self.loads_before, &self.loads_after] {
            for l in loads.iter() {
                fold(l.node as u64);
                fold(l.resident);
                fold(l.parked);
                fold(l.swaps);
            }
        }
        for m in &self.migrations {
            fold(m.tenant);
            fold(m.from as u64);
            fold(m.to as u64);
            fold(m.committed as u64);
            fold(m.dev_bytes);
            fold(m.host_bytes);
        }
        fold(self.pool.manifests_published);
        fold(self.pool.manifests_released);
        fold(self.pool.chunks_published);
        fold(self.pool.chunk_hits);
        fold(self.pool.chunks_dead);
        fold(self.pool.bytes_fetched_remote);
        fold(self.pool.bytes_avoided_remote);
        fold(self.pool_live_chunks as u64);
        fold(self.pool_live_manifests as u64);
        for a in &self.agents {
            fold(a.node as u64);
            fold(a.launched);
            fold(a.parked_at_launch);
            fold(a.cycled);
            fold(a.migrated_out);
            fold(a.migrated_in);
            fold(a.restored_back);
            fold(a.final_tenants);
        }
        h
    }
}

/// The device-side workload every fleet tenant runs: pure compute that
/// reads its buffers without rewriting them, so buffer contents (and
/// therefore snapshot chunks) stay exactly as placement wrote them.
fn fleet_registry() -> FunctionRegistry {
    let reg = FunctionRegistry::new();
    reg.register(
        DeviceBinary::new("fleet.so", 1 << 20, 8 << 20).simple_function("touch", |ctx| {
            ctx.compute(5e8, 30);
            Vec::new()
        }),
    );
    reg
}

// ---------------------------------------------------------------------
// Control protocol: `coi_sim::wire` frames over cluster links. Every
// message is a tag byte plus little-endian u64 fields (bools ride as
// u64 too; strings are length-prefixed). Large content (the host
// snapshot) is never framed — it follows its header as a separate raw
// payload so synthetic extents survive the trip.
// ---------------------------------------------------------------------

/// Controller → agent commands.
#[derive(Debug, PartialEq)]
enum Ctl {
    Launch {
        tenant: u64,
        device: u64,
        park: bool,
    },
    Cycle {
        tenant: u64,
    },
    Report,
    MigrateOut {
        tenant: u64,
        path: String,
    },
    /// Followed by one raw payload: the host snapshot.
    RestoreIn {
        tenant: u64,
        device: u64,
        path: String,
        binary: String,
    },
    Cleanup {
        tenant: u64,
    },
    RestoreBack {
        tenant: u64,
    },
    Shutdown,
}

impl Ctl {
    fn encode(&self) -> Payload {
        match self {
            Ctl::Launch {
                tenant,
                device,
                park,
            } => Enc::new()
                .tag(1)
                .u64(*tenant)
                .u64(*device)
                .u64(*park as u64),
            Ctl::Cycle { tenant } => Enc::new().tag(2).u64(*tenant),
            Ctl::Report => Enc::new().tag(3),
            Ctl::MigrateOut { tenant, path } => Enc::new().tag(4).u64(*tenant).string(path),
            Ctl::RestoreIn {
                tenant,
                device,
                path,
                binary,
            } => Enc::new()
                .tag(5)
                .u64(*tenant)
                .u64(*device)
                .string(path)
                .string(binary),
            Ctl::Cleanup { tenant } => Enc::new().tag(6).u64(*tenant),
            Ctl::RestoreBack { tenant } => Enc::new().tag(7).u64(*tenant),
            Ctl::Shutdown => Enc::new().tag(8),
        }
        .payload()
    }

    fn decode(p: &Payload) -> Result<Ctl, DecodeError> {
        let bytes = frame_bytes(p)?;
        let mut d = Dec::new(&bytes);
        Ok(match d.tag()? {
            1 => Ctl::Launch {
                tenant: d.u64()?,
                device: d.u64()?,
                park: d.u64()? != 0,
            },
            2 => Ctl::Cycle { tenant: d.u64()? },
            3 => Ctl::Report,
            4 => Ctl::MigrateOut {
                tenant: d.u64()?,
                path: d.string()?,
            },
            5 => Ctl::RestoreIn {
                tenant: d.u64()?,
                device: d.u64()?,
                path: d.string()?,
                binary: d.string()?,
            },
            6 => Ctl::Cleanup { tenant: d.u64()? },
            7 => Ctl::RestoreBack { tenant: d.u64()? },
            8 => Ctl::Shutdown,
            t => return Err(DecodeError(format!("unknown fleet control tag {t}"))),
        })
    }
}

/// Agent → controller replies.
#[derive(Debug, PartialEq)]
enum Rep {
    Launched {
        tenant: u64,
    },
    Cycled {
        tenant: u64,
        bytes: u64,
    },
    Load {
        resident: u64,
        parked: u64,
        swaps: u64,
    },
    /// Followed by one raw payload: the host snapshot.
    MigratedOut {
        tenant: u64,
        dev_bytes: u64,
        host_bytes: u64,
        binary: String,
    },
    MigrateFailed {
        tenant: u64,
        error: String,
    },
    Restored {
        tenant: u64,
        ok: bool,
        error: String,
    },
    RestoredBack {
        tenant: u64,
    },
    Cleaned {
        tenant: u64,
    },
    Done {
        tenants: u64,
    },
}

impl Rep {
    fn encode(&self) -> Payload {
        match self {
            Rep::Launched { tenant } => Enc::new().tag(1).u64(*tenant),
            Rep::Cycled { tenant, bytes } => Enc::new().tag(2).u64(*tenant).u64(*bytes),
            Rep::Load {
                resident,
                parked,
                swaps,
            } => Enc::new().tag(3).u64(*resident).u64(*parked).u64(*swaps),
            Rep::MigratedOut {
                tenant,
                dev_bytes,
                host_bytes,
                binary,
            } => Enc::new()
                .tag(4)
                .u64(*tenant)
                .u64(*dev_bytes)
                .u64(*host_bytes)
                .string(binary),
            Rep::MigrateFailed { tenant, error } => Enc::new().tag(5).u64(*tenant).string(error),
            Rep::Restored { tenant, ok, error } => {
                Enc::new().tag(6).u64(*tenant).u64(*ok as u64).string(error)
            }
            Rep::RestoredBack { tenant } => Enc::new().tag(7).u64(*tenant),
            Rep::Cleaned { tenant } => Enc::new().tag(8).u64(*tenant),
            Rep::Done { tenants } => Enc::new().tag(9).u64(*tenants),
        }
        .payload()
    }

    fn decode(p: &Payload) -> Result<Rep, DecodeError> {
        let bytes = frame_bytes(p)?;
        let mut d = Dec::new(&bytes);
        Ok(match d.tag()? {
            1 => Rep::Launched { tenant: d.u64()? },
            2 => Rep::Cycled {
                tenant: d.u64()?,
                bytes: d.u64()?,
            },
            3 => Rep::Load {
                resident: d.u64()?,
                parked: d.u64()?,
                swaps: d.u64()?,
            },
            4 => Rep::MigratedOut {
                tenant: d.u64()?,
                dev_bytes: d.u64()?,
                host_bytes: d.u64()?,
                binary: d.string()?,
            },
            5 => Rep::MigrateFailed {
                tenant: d.u64()?,
                error: d.string()?,
            },
            6 => Rep::Restored {
                tenant: d.u64()?,
                ok: d.u64()? != 0,
                error: d.string()?,
            },
            7 => Rep::RestoredBack { tenant: d.u64()? },
            8 => Rep::Cleaned { tenant: d.u64()? },
            9 => Rep::Done { tenants: d.u64()? },
            t => return Err(DecodeError(format!("unknown fleet reply tag {t}"))),
        })
    }

    /// The controller's one reply rule: take node `node`'s next reply and
    /// let `pick` read what this phase expects out of it. Both ends of
    /// the link are this process, so a closed link, an undecodable frame
    /// or a reply `pick` has no use for is a bug.
    fn expect<T>(
        rx: &ClusterRx,
        node: usize,
        what: &str,
        pick: impl FnOnce(Rep) -> Option<T>,
    ) -> T {
        let reply = Rep::decode(&rx.recv().expect(what)).expect(what);
        pick(reply).unwrap_or_else(|| panic!("expected a {what} from n{node}"))
    }
}

/// Put one frame (or the raw payload that follows one) on a link; both
/// ends of every link are this process, so a closed link is a bug.
fn send(tx: &ClusterTx, frame: Payload) {
    tx.send(frame).expect("fleet link closed mid-run");
}

// ---------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Slot {
    tenant: u64,
    node: usize,
    device: usize,
    park: bool,
}

/// Deliberately *skewed* deterministic placement: every device fleet-
/// wide gets one resident seed tenant, and all remaining tenants pile
/// onto the first `max(1, nodes/3)` "hot" nodes as parked overflow —
/// the imbalance the rebalancer then corrects.
fn plan_placement(cfg: &FleetConfig) -> Vec<Slot> {
    let devices = cfg.params.num_devices;
    let seeds = cfg.nodes * devices;
    assert!(
        cfg.tenants >= seeds,
        "need at least one tenant per device ({seeds}) to seed the fleet, got {}",
        cfg.tenants
    );
    let hot = (cfg.nodes / 3).max(1);
    let mut slots = Vec::with_capacity(cfg.tenants);
    // Overflow first: an agent can only admit a tenant to a *free*
    // device, so parked tenants launch (and vacate the device again)
    // before the seed tenant claims residency.
    for t in seeds..cfg.tenants {
        let i = t - seeds;
        slots.push(Slot {
            tenant: t as u64,
            node: i % hot,
            device: (i / hot) % devices,
            park: true,
        });
    }
    for t in 0..seeds {
        slots.push(Slot {
            tenant: t as u64,
            node: t % cfg.nodes,
            device: t / cfg.nodes,
            park: false,
        });
    }
    slots
}

// ---------------------------------------------------------------------
// Agent
// ---------------------------------------------------------------------

struct AgentTenant {
    job: JobId,
    host: simproc::SimProcess,
    handle: CoiProcessHandle,
    device: usize,
}

/// A tenant captured for migration, held while the controller decides
/// whether the destination committed.
struct PendingOut {
    snap: SnapifyT,
    /// The tenant's entry as it left the table (its job is retired).
    at: AgentTenant,
    /// Resident job parked to free the device for the capture.
    bumped: Option<JobId>,
    path: String,
}

struct Agent {
    node: usize,
    cfg: FleetConfig,
    world: SnapifyWorld,
    sched: SwapScheduler,
    tenants: BTreeMap<u64, AgentTenant>,
    pending_out: BTreeMap<u64, PendingOut>,
    /// Migration snapshot paths imported here (released at shutdown).
    imported: Vec<String>,
    stats: AgentStats,
}

impl Agent {
    fn boot(node: usize, cfg: FleetConfig, pool: &ClusterPool) -> Agent {
        let params = PlatformParams {
            hostname: format!("node{node}"),
            ..cfg.params.clone()
        };
        let faults = cfg
            .node_faults
            .get(node)
            .cloned()
            .unwrap_or_else(FaultSchedule::none);
        let world = SnapifyWorld::assemble(
            PhiServer::new_with_faults(params, faults),
            CoiConfig::default(),
            fleet_registry(),
            Some((DedupConfig::default(), Some((pool, node)))),
        );
        let store = world.store().expect("fleet worlds have a store").clone();
        // The swap dir is namespaced by node: pool manifests are keyed
        // by path fleet-wide, and every node's job ids start at 1, so a
        // shared dir would have two nodes publishing different tenants
        // under the same "/fleet/swap/job1" path.
        let sched = SwapScheduler::new(cfg.params.num_devices, format!("{SWAP_DIR}/n{node}"))
            .with_store(&store);
        Agent {
            node,
            cfg,
            world,
            sched,
            tenants: BTreeMap::new(),
            pending_out: BTreeMap::new(),
            imported: Vec::new(),
            stats: AgentStats {
                node,
                ..AgentStats::default()
            },
        }
    }

    fn launch(&mut self, tenant: u64, device: usize, park: bool) -> Result<(), SnapifyError> {
        let _span = obs::span!("fleet.launch", tenant = tenant, node = self.node);
        let host = self
            .world
            .coi()
            .create_host_process(&format!("tenant{tenant}"));
        let handle = self.world.coi().create_process(&host, device, "fleet.so")?;
        let base = handle.create_buffer(self.cfg.base_bytes)?;
        handle.buffer_write(&base, Payload::synthetic(BASE_TAG, self.cfg.base_bytes))?;
        let uniq = handle.create_buffer(self.cfg.unique_bytes)?;
        handle.buffer_write(
            &uniq,
            Payload::synthetic(UNIQ_TAG | tenant, self.cfg.unique_bytes),
        )?;
        let job = self.adopt(tenant, host, handle, device)?;
        if park {
            self.sched.park(job)?;
            self.stats.parked_at_launch += 1;
        }
        self.stats.launched += 1;
        Ok(())
    }

    /// Take a tenant that is live on `device` under this agent: admit it
    /// to the local scheduler, prove it runs — one touch over every
    /// buffer it holds — and enter it in the tenant table.
    fn adopt(
        &mut self,
        tenant: u64,
        host: simproc::SimProcess,
        handle: CoiProcessHandle,
        device: usize,
    ) -> Result<JobId, SnapifyError> {
        let job = self
            .sched
            .admit_tagged(&handle, device, &format!("t{tenant}"));
        let bufs = handle.buffers();
        let refs: Vec<&CoiBuffer> = bufs.iter().map(|b| b.as_ref()).collect();
        handle.run_sync("touch", Vec::new(), &refs)?;
        let at = AgentTenant {
            job,
            host,
            handle,
            device,
        };
        self.tenants.insert(tenant, at);
        Ok(job)
    }

    /// One full swap cycle of a resident tenant: park it and bring it
    /// straight back. The point is the side effect — the park commits
    /// the tenant's snapshot into this node's local chunk index (and
    /// the shared pool), warming the node for future cross-node
    /// restores of look-alike tenants.
    fn cycle(&mut self, tenant: u64) -> Result<u64, SnapifyError> {
        let at = self.tenants.get(&tenant).expect("cycle of unknown tenant");
        let (job, device) = (at.job, at.device);
        self.sched.park(job)?;
        self.sched.swap_in(job, device)?;
        self.stats.cycled += 1;
        Ok(self.sched.swap_size_estimate(job).unwrap_or(0))
    }

    fn load(&self) -> Rep {
        let resident = self.sched.resident_jobs().len() as u64;
        Rep::Load {
            resident,
            parked: (self.tenants.len() as u64).saturating_sub(resident),
            swaps: self.sched.swap_count(),
        }
    }

    /// Source half of a migration: bring the (parked) tenant resident,
    /// detach it from the local scheduler, and capture it for transfer —
    /// host BLCR checkpoint plus a terminating device capture whose
    /// manifests land in the shared pool. Returns the host snapshot to
    /// ship. The capture stays intact until the controller reports the
    /// destination's verdict.
    fn migrate_out(
        &mut self,
        tenant: u64,
        path: &str,
    ) -> Result<(Payload, u64, u64), SnapifyError> {
        let _span = obs::span!("fleet.migrate_out", tenant = tenant, node = self.node);
        let at = self
            .tenants
            .remove(&tenant)
            .ok_or_else(|| SnapifyError::Protocol(format!("migrate of unknown tenant {tenant}")))?;
        let device = at.device;
        // Vacate the device (its resident is usually a seed tenant),
        // then bring the migrating tenant back one last time.
        let bumped = self.sched.vacate(device)?;
        self.sched.swap_in(at.job, device)?;
        // Detach from local scheduling; this also garbage-collects the
        // tenant's swap snapshots (the migration capture below is the
        // copy that moves).
        self.sched.retire(at.job)?;

        let snap = SnapifyT::new(&at.handle, path);
        let host_state = format!("tenant{tenant}").into_bytes();
        api::snapify_pause(&snap)?;
        api::snapify_capture(&snap, true)?;
        let host_bytes =
            cr::host_checkpoint(&self.world, at.handle.host_proc(), &host_state, path)?;
        let dev_bytes = api::snapify_wait(&snap)?;

        let storage: &dyn SnapshotStorage = self.world.io();
        let mut src = storage.source(NodeId::HOST, &format!("{path}/host_snapshot"))?;
        let mut content = Payload::empty();
        while let Some(chunk) = src.read(4 << 20)? {
            content.append(chunk);
        }
        self.pending_out.insert(
            tenant,
            PendingOut {
                snap,
                at,
                bumped,
                path: path.to_string(),
            },
        );
        Ok((content, dev_bytes, host_bytes))
    }

    /// Delete every host-side artifact of a migration snapshot: the
    /// store-backed files (releasing their pool holds), plus the
    /// library copy and host snapshot, which bypass the storage seam.
    fn delete_snapshot_dir(&self, path: &str) {
        let store = self.world.store().expect("fleet worlds have a store");
        store.delete_prefix(&format!("{path}/"));
        let fs = self.world.server().host().fs();
        let _ = fs.delete(&format!("{path}/libraries"));
        let _ = fs.delete(&format!("{path}/host_snapshot"));
    }

    /// The destination committed: the tenant now lives there. Drop the
    /// source copy entirely — process, snapshot files, pool holds.
    fn cleanup_committed(&mut self, tenant: u64) {
        let p = self
            .pending_out
            .remove(&tenant)
            .expect("cleanup of unknown pending migration");
        p.at.host.exit();
        self.delete_snapshot_dir(&p.path);
        if let Some(job) = p.bumped {
            self.sched
                .swap_in(job, p.at.device)
                .expect("restoring the bumped resident after migration");
        }
        self.stats.migrated_out += 1;
    }

    /// The destination failed: restore the tenant in place from the
    /// migration capture (every chunk is still local), re-admit it, and
    /// only then drop the capture. Proves the tenant is resumable by
    /// running an offload on it, then restores the exact pre-migration
    /// state — tenant parked, the bumped resident back on the device —
    /// so the controller may retry the same tenant later.
    fn restore_back(&mut self, tenant: u64) -> Result<(), SnapifyError> {
        let _span = obs::span!("fleet.restore_back", tenant = tenant, node = self.node);
        let p = self
            .pending_out
            .remove(&tenant)
            .expect("restore-back of unknown pending migration");
        api::snapify_restore(&p.snap, p.at.device)?;
        api::snapify_resume(&p.snap)?;
        let device = p.at.device;
        let job = self.adopt(tenant, p.at.host, p.at.handle, device)?;
        self.sched.park(job)?;
        if let Some(seed) = p.bumped {
            self.sched.swap_in(seed, device)?;
        }
        self.delete_snapshot_dir(&p.path);
        self.stats.restored_back += 1;
        Ok(())
    }

    /// Destination half of a migration: make room on the target device,
    /// materialize the host snapshot and library file locally, and
    /// restart the application from the snapshot path — device state
    /// flows through the dedup store, which pulls missing chunks from
    /// the pool. On failure every partial artifact is deleted and the
    /// bumped resident is restored.
    fn restore_in(
        &mut self,
        tenant: u64,
        device: usize,
        path: &str,
        binary: &str,
        host_snapshot: Payload,
    ) -> Result<(), SnapifyError> {
        let _span = obs::span!("fleet.restore_in", tenant = tenant, node = self.node);
        let mut bumped = None;
        let attempt = (|| -> Result<cr::RestartedApp, SnapifyError> {
            bumped = self.sched.vacate(device)?;
            let storage: &dyn SnapshotStorage = self.world.io();
            let mut sink = storage.sink(NodeId::HOST, &format!("{path}/host_snapshot"))?;
            sink.write(host_snapshot)?;
            sink.close()?;
            // The destination regenerates the library file from its own
            // copy of the binary — libraries never cross the network
            // (§4.4's library copy is host-local on both ends).
            let image_bytes = self
                .world
                .coi()
                .registry()
                .get(binary)
                .map(|b| b.image_bytes)
                .ok_or_else(|| {
                    SnapifyError::Protocol(format!("binary {binary} not registered here"))
                })?;
            api::write_library_file(self.world.server().host().fs(), path, image_bytes)?;
            cr::restart_application(&self.world, path, binary, device)
        })();
        match attempt {
            Ok(app) => {
                self.adopt(tenant, app.host_proc, app.handle, device)?;
                self.imported.push(path.to_string());
                self.stats.migrated_in += 1;
                Ok(())
            }
            Err(e) => {
                // Roll back: no partial snapshot, no pool holds, no
                // directory entries — and the bumped resident returns.
                self.delete_snapshot_dir(path);
                if let Some(job) = bumped {
                    self.sched
                        .swap_in(job, device)
                        .expect("restoring the bumped resident after failed in-migration");
                }
                Err(e)
            }
        }
    }

    fn shutdown(&mut self) {
        self.stats.final_tenants = self.tenants.len() as u64;
        let tenants = std::mem::take(&mut self.tenants);
        for (_, at) in tenants {
            let resident = self.sched.is_resident(at.job);
            self.sched.retire(at.job).expect("retiring tenant");
            if resident {
                let _ = at.handle.destroy();
            }
            at.host.exit();
        }
        for path in std::mem::take(&mut self.imported) {
            self.delete_snapshot_dir(&path);
        }
    }
}

/// Agent main loop: serially execute commands until shutdown. Every
/// command has exactly one reply (the migrate-out's host snapshot rides
/// behind its frame as a raw payload), sent from one place.
fn run_agent(
    node: usize,
    cfg: FleetConfig,
    pool: ClusterPool,
    ctl: ClusterRx,
    rep: ClusterTx,
) -> AgentStats {
    let mut agent = Agent::boot(node, cfg, &pool);
    while let Ok(msg) = ctl.recv() {
        let mut trailer = None;
        let reply = match Ctl::decode(&msg).expect("fleet control frame") {
            Ctl::Launch {
                tenant,
                device,
                park,
            } => {
                agent
                    .launch(tenant, device as usize, park)
                    .unwrap_or_else(|e| panic!("n{node}: launch t{tenant}: {e}"));
                Rep::Launched { tenant }
            }
            Ctl::Cycle { tenant } => {
                let bytes = agent
                    .cycle(tenant)
                    .unwrap_or_else(|e| panic!("n{node}: cycle t{tenant}: {e}"));
                Rep::Cycled { tenant, bytes }
            }
            Ctl::Report => agent.load(),
            Ctl::MigrateOut { tenant, path } => match agent.migrate_out(tenant, &path) {
                Ok((host_snapshot, dev_bytes, host_bytes)) => {
                    trailer = Some(host_snapshot);
                    Rep::MigratedOut {
                        tenant,
                        dev_bytes,
                        host_bytes,
                        binary: "fleet.so".to_string(),
                    }
                }
                Err(e) => Rep::MigrateFailed {
                    tenant,
                    error: e.to_string(),
                },
            },
            Ctl::RestoreIn {
                tenant,
                device,
                path,
                binary,
            } => {
                let host_snapshot = ctl.recv().expect("host snapshot follows RestoreIn");
                let outcome =
                    agent.restore_in(tenant, device as usize, &path, &binary, host_snapshot);
                Rep::Restored {
                    tenant,
                    ok: outcome.is_ok(),
                    error: outcome.err().map(|e| e.to_string()).unwrap_or_default(),
                }
            }
            Ctl::Cleanup { tenant } => {
                agent.cleanup_committed(tenant);
                Rep::Cleaned { tenant }
            }
            Ctl::RestoreBack { tenant } => {
                agent
                    .restore_back(tenant)
                    .unwrap_or_else(|e| panic!("n{node}: restore-back t{tenant}: {e}"));
                Rep::RestoredBack { tenant }
            }
            Ctl::Shutdown => {
                agent.shutdown();
                Rep::Done {
                    tenants: agent.stats.final_tenants,
                }
            }
        };
        send(&rep, reply.encode());
        if let Some(payload) = trailer {
            send(&rep, payload);
        }
        if matches!(reply, Rep::Done { .. }) {
            break;
        }
    }
    rep.close();
    agent.stats
}

// ---------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------

struct CtlResult {
    loads_before: Vec<NodeLoad>,
    loads_after: Vec<NodeLoad>,
    migrations: Vec<MigrationOutcome>,
    end_ns: u64,
}

/// Send `command(node)` to every node — all proceed in parallel — then
/// drain one reply per node in fixed node order, for determinism.
fn broadcast<T>(
    ctls: &[ClusterTx],
    reps: &[ClusterRx],
    what: &str,
    command: impl Fn(usize) -> Ctl,
    pick: impl Fn(usize, Rep) -> Option<T>,
) -> Vec<T> {
    for (node, tx) in ctls.iter().enumerate() {
        send(tx, command(node).encode());
    }
    let reply = |(node, rx)| Rep::expect(rx, node, what, |r| pick(node, r));
    reps.iter().enumerate().map(reply).collect()
}

fn collect_loads(ctls: &[ClusterTx], reps: &[ClusterRx]) -> Vec<NodeLoad> {
    let load = |node, r| match r {
        Rep::Load {
            resident,
            parked,
            swaps,
        } => Some(NodeLoad {
            node,
            resident,
            parked,
            swaps,
        }),
        _ => None,
    };
    broadcast(ctls, reps, "load report", |_| Ctl::Report, load)
}

fn run_controller(cfg: FleetConfig, ctls: Vec<ClusterTx>, reps: Vec<ClusterRx>) -> CtlResult {
    let slots = plan_placement(&cfg);
    let devices = cfg.params.num_devices;

    // Phase 1: launch everything; all nodes proceed in parallel, and
    // replies are drained in fixed node order for determinism.
    for s in &slots {
        let launch = Ctl::Launch {
            tenant: s.tenant,
            device: s.device as u64,
            park: s.park,
        };
        send(&ctls[s.node], launch.encode());
    }
    for (node, rx) in reps.iter().enumerate() {
        for _ in slots.iter().filter(|s| s.node == node) {
            Rep::expect(rx, node, "launch reply", |r| {
                matches!(r, Rep::Launched { .. }).then_some(())
            });
        }
    }

    // Phase 2: one swap cycle of each node's device-0 seed tenant, so
    // every node's local chunk index holds the fleet's shared base
    // content — the warm substrate cross-node restores dedup against.
    let cycle = |node| Ctl::Cycle {
        tenant: node as u64,
    };
    broadcast(&ctls, &reps, "cycle reply", cycle, |_, r| {
        matches!(r, Rep::Cycled { .. }).then_some(())
    });

    // Phase 3: load reports before rebalancing.
    let loads_before = collect_loads(&ctls, &reps);

    // Phase 4: proactive rebalancing. The load signal drives a greedy
    // plan: repeatedly move the newest parked tenant from the most
    // loaded node to the least loaded one, serially, each through the
    // full capture → pool → restart protocol.
    let mut counts = vec![0i64; cfg.nodes];
    let mut parked_on: Vec<Vec<u64>> = vec![Vec::new(); cfg.nodes];
    for s in &slots {
        counts[s.node] += 1;
        if s.park {
            parked_on[s.node].push(s.tenant);
        }
    }
    for v in parked_on.iter_mut() {
        v.sort_unstable();
    }
    let mut migrations = Vec::new();
    for mig in 0..cfg.max_migrations {
        let src = (0..cfg.nodes)
            .filter(|n| !parked_on[*n].is_empty())
            .max_by_key(|n| (counts[*n], i64::MAX - *n as i64))
            .unwrap_or(0);
        let dst = (0..cfg.nodes).min_by_key(|n| (counts[*n], *n)).unwrap_or(0);
        if parked_on[src].is_empty() || counts[src] - counts[dst] < 2 {
            break;
        }
        let tenant = parked_on[src].pop().unwrap();
        let device = (mig % devices) as u64;
        let path = format!("{MIGRATE_DIR}/t{tenant}");
        let mut outcome = MigrationOutcome {
            tenant,
            from: src,
            to: dst,
            committed: false,
            dev_bytes: 0,
            host_bytes: 0,
            error: None,
        };

        let migrate = Ctl::MigrateOut {
            tenant,
            path: path.clone(),
        };
        send(&ctls[src], migrate.encode());
        let captured = Rep::expect(&reps[src], src, "migrate-out reply", |r| match r {
            Rep::MigratedOut {
                dev_bytes,
                host_bytes,
                binary,
                ..
            } => Some(Ok((dev_bytes, host_bytes, binary))),
            Rep::MigrateFailed { error, .. } => Some(Err(error)),
            _ => None,
        });
        match captured {
            Ok((dev_bytes, host_bytes, binary)) => {
                (outcome.dev_bytes, outcome.host_bytes) = (dev_bytes, host_bytes);
                let host_snapshot = reps[src].recv().expect("host snapshot payload");
                let restore = Ctl::RestoreIn {
                    tenant,
                    device,
                    path,
                    binary,
                };
                send(&ctls[dst], restore.encode());
                send(&ctls[dst], host_snapshot);
                outcome.error = Rep::expect(&reps[dst], dst, "restore reply", |r| match r {
                    Rep::Restored { ok, error, .. } => Some((!ok).then_some(error)),
                    _ => None,
                });
                outcome.committed = outcome.error.is_none();
                // The verdict goes back to the source: drop its copy, or
                // restore the tenant in place (parked, as it was).
                if outcome.committed {
                    send(&ctls[src], Ctl::Cleanup { tenant }.encode());
                    Rep::expect(&reps[src], src, "cleanup reply", |r| {
                        matches!(r, Rep::Cleaned { .. }).then_some(())
                    });
                    counts[src] -= 1;
                    counts[dst] += 1;
                } else {
                    send(&ctls[src], Ctl::RestoreBack { tenant }.encode());
                    Rep::expect(&reps[src], src, "restore-back reply", |r| {
                        matches!(r, Rep::RestoredBack { .. }).then_some(())
                    });
                    parked_on[src].push(tenant);
                }
            }
            Err(error) => outcome.error = Some(error),
        }
        migrations.push(outcome);
    }

    // Phase 5: load reports after rebalancing.
    let loads_after = collect_loads(&ctls, &reps);

    // Phase 6: shutdown.
    broadcast(
        &ctls,
        &reps,
        "shutdown reply",
        |_| Ctl::Shutdown,
        |_, r| matches!(r, Rep::Done { .. }).then_some(()),
    );
    for tx in &ctls {
        tx.close();
    }
    CtlResult {
        loads_before,
        loads_after,
        migrations,
        end_ns: simkernel::now().as_nanos(),
    }
}

// ---------------------------------------------------------------------
// FleetScheduler
// ---------------------------------------------------------------------

/// The fleet-level scheduler: global placement, swap-based bin-packing
/// on every node, and load-driven cross-node migration over the shared
/// snapstore pool.
pub struct FleetScheduler {
    cfg: FleetConfig,
}

impl FleetScheduler {
    /// Build a fleet scheduler for `cfg`.
    pub fn new(cfg: FleetConfig) -> FleetScheduler {
        FleetScheduler { cfg }
    }

    /// Run the whole fleet scenario to completion and report.
    pub fn run(&self) -> FleetReport {
        let cfg = self.cfg.clone();
        let pool = ClusterPool::new(phi_platform::cluster_lookahead(&cfg.params));
        let cluster = MultiNodeCluster::new_with_policy(
            cfg.nodes,
            cfg.domains,
            cfg.params.clone(),
            cfg.policy,
        );
        cluster.kernel().enable_trace();

        let mut ctl_txs = Vec::with_capacity(cfg.nodes);
        let mut rep_rxs = Vec::with_capacity(cfg.nodes);
        let mut agent_joins = Vec::with_capacity(cfg.nodes);
        for node in 0..cfg.nodes {
            let (ctl_tx, ctl_rx) = cluster.link(0, node).expect("fleet nodes are in range");
            let (rep_tx, rep_rx) = cluster.link(node, 0).expect("fleet nodes are in range");
            ctl_txs.push(ctl_tx);
            rep_rxs.push(rep_rx);
            let cfg_n = cfg.clone();
            let pool_n = pool.clone();
            agent_joins.push(cluster.spawn_node(node, "fleet-agent", move || {
                run_agent(node, cfg_n, pool_n, ctl_rx, rep_tx)
            }));
        }
        let cfg_c = cfg.clone();
        let controller = cluster
            .kernel()
            .domain(0)
            .spawn("fleet-controller", move || {
                run_controller(cfg_c, ctl_txs, rep_rxs)
            });

        cluster.run();

        let ctl = controller.take_result().expect("controller result");
        let mut agents: Vec<AgentStats> = agent_joins
            .into_iter()
            .map(|j| j.take_result().expect("agent result"))
            .collect();
        agents.sort_by_key(|a| a.node);
        FleetReport {
            nodes: cfg.nodes,
            tenants: cfg.tenants,
            loads_before: ctl.loads_before,
            loads_after: ctl.loads_after,
            migrations: ctl.migrations,
            pool: pool.stats(),
            pool_live_chunks: pool.live_chunks(),
            pool_live_manifests: pool.live_manifests(),
            fingerprint: cluster.fingerprint(),
            barrier_rounds: cluster.kernel().rounds(),
            virtual_ns: ctl.end_ns,
            agents,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Variant selector, three integers, a bool and two strings: enough
    /// raw material for any `Ctl` or `Rep` variant.
    type Fields = (u64, u64, u64, u64, bool, (String, String));

    fn fields() -> impl Strategy<Value = Fields> {
        let text = || {
            prop::collection::vec(any::<u8>(), 0..24)
                .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
        };
        let int = any::<u64>;
        (int(), int(), int(), int(), any::<bool>(), (text(), text()))
    }

    fn ctl_from((variant, tenant, device, _, park, (path, binary)): Fields) -> Ctl {
        match variant % 8 {
            0 => Ctl::Launch {
                tenant,
                device,
                park,
            },
            1 => Ctl::Cycle { tenant },
            2 => Ctl::Report,
            3 => Ctl::MigrateOut { tenant, path },
            4 => Ctl::RestoreIn {
                tenant,
                device,
                path,
                binary,
            },
            5 => Ctl::Cleanup { tenant },
            6 => Ctl::RestoreBack { tenant },
            _ => Ctl::Shutdown,
        }
    }

    fn rep_from((variant, tenant, a, b, ok, (text, _)): Fields) -> Rep {
        match variant % 9 {
            0 => Rep::Launched { tenant },
            1 => Rep::Cycled { tenant, bytes: a },
            2 => Rep::Load {
                resident: tenant,
                parked: a,
                swaps: b,
            },
            3 => Rep::MigratedOut {
                tenant,
                dev_bytes: a,
                host_bytes: b,
                binary: text,
            },
            4 => Rep::MigrateFailed {
                tenant,
                error: text,
            },
            5 => Rep::Restored {
                tenant,
                ok,
                error: text,
            },
            6 => Rep::RestoredBack { tenant },
            7 => Rep::Cleaned { tenant },
            _ => Rep::Done { tenants: tenant },
        }
    }

    proptest! {
        #[test]
        fn ctl_and_rep_round_trip(f in fields()) {
            let ctl = ctl_from(f.clone());
            prop_assert_eq!(Ctl::decode(&ctl.encode()), Ok(ctl));
            let rep = rep_from(f);
            prop_assert_eq!(Rep::decode(&rep.encode()), Ok(rep));
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoders(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            tag in 0u8..12,
        ) {
            // Raw noise mostly dies on the tag; forcing a plausible tag
            // drives the field readers over short and over-long frames.
            let mut tagged = bytes.clone();
            tagged.insert(0, tag);
            for frame in [bytes, tagged] {
                let p = Payload::bytes(frame);
                let _ = Ctl::decode(&p);
                let _ = Rep::decode(&p);
            }
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        let decode = |b: &[u8]| Ctl::decode(&Payload::bytes(b.to_vec()));
        assert!(decode(&[]).is_err(), "empty frame");
        assert!(decode(&[0]).is_err(), "unknown tag");
        assert!(decode(&[2, 1, 2, 3]).is_err(), "short u64");
        // MigrateOut whose path claims u64::MAX bytes.
        let mut long = vec![4u8];
        long.extend_from_slice(&7u64.to_le_bytes());
        long.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&long).is_err(), "over-long length prefix");
        // MigrateFailed whose error is not UTF-8.
        let mut bad = vec![5u8];
        bad.extend_from_slice(&7u64.to_le_bytes());
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.push(0xFF);
        assert!(Rep::decode(&Payload::bytes(bad)).is_err(), "invalid utf-8");
        assert!(
            Rep::decode(&Payload::bytes(vec![10])).is_err(),
            "unknown tag"
        );
        let synthetic = Payload::synthetic(3, 64);
        assert!(Ctl::decode(&synthetic).is_err(), "synthetic frame");
        assert!(Rep::decode(&synthetic).is_err(), "synthetic frame");
    }

    #[test]
    fn frame_layout_is_pinned() {
        // Link delays, `cluster.bytes_sent` and the fleet digest are
        // functions of these bytes: tag, LE u64 fields (bools included),
        // u64-length-prefixed strings.
        let ctl = Ctl::RestoreIn {
            tenant: 7,
            device: 1,
            path: "/p".into(),
            binary: "b.so".into(),
        };
        #[rustfmt::skip]
        let want: [u8; 39] = [
            5,
            7, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0, b'/', b'p',
            4, 0, 0, 0, 0, 0, 0, 0, b'b', b'.', b's', b'o',
        ];
        assert_eq!(ctl.encode().to_bytes(), want);

        let rep = Rep::Restored {
            tenant: 7,
            ok: true,
            error: "e".into(),
        };
        #[rustfmt::skip]
        let want: [u8; 26] = [
            6,
            7, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0, b'e',
        ];
        assert_eq!(rep.encode().to_bytes(), want);
    }

    fn small_cfg(domains: u32) -> FleetConfig {
        FleetConfig {
            nodes: 4,
            domains,
            tenants: 12,
            base_bytes: 8 << 20,
            unique_bytes: 1 << 20,
            max_migrations: 3,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_rebalances_and_restores_warm() {
        let report = FleetScheduler::new(small_cfg(1)).run();
        assert_eq!(report.agents.iter().map(|a| a.launched).sum::<u64>(), 12);
        assert!(
            report.committed() >= 1,
            "expected at least one committed migration: {:?}",
            report.migrations
        );
        assert_eq!(report.failed_back(), 0);
        // Load actually moved: some hot node shrank, some cold node grew.
        let before: Vec<u64> = report
            .loads_before
            .iter()
            .map(|l| l.resident + l.parked)
            .collect();
        let after: Vec<u64> = report
            .loads_after
            .iter()
            .map(|l| l.resident + l.parked)
            .collect();
        assert_ne!(before, after, "migrations must change node populations");
        assert_eq!(
            before.iter().sum::<u64>(),
            after.iter().sum::<u64>(),
            "no tenant may be lost or duplicated"
        );
        // Cross-node restores were warm: the shared base region never
        // crossed the network.
        assert!(
            report.pool.bytes_avoided_remote > 0,
            "warm restores must dedup against locally-held chunks: {:?}",
            report.pool
        );
        assert!(
            report.warm_saved_fraction() > 0.5,
            "most bytes should be avoided, got {:.3} ({:?})",
            report.warm_saved_fraction(),
            report.pool
        );
        // Clean shutdown leaves nothing referenced in the pool.
        assert_eq!(report.pool_live_manifests, 0, "leaked pool manifests");
        assert_eq!(report.pool_live_chunks, 0, "leaked pool chunks");
    }

    #[test]
    fn fleet_runs_are_deterministic_across_domain_counts() {
        let serial = FleetScheduler::new(small_cfg(1)).run();
        let parallel = FleetScheduler::new(small_cfg(4)).run();
        assert_eq!(
            serial.digest(),
            parallel.digest(),
            "fleet observable trace must be byte-identical at every domain count\n\
             serial:   vns={} pool={:?}\n\
             parallel: vns={} pool={:?}",
            serial.virtual_ns,
            serial.pool,
            parallel.virtual_ns,
            parallel.pool,
        );
        assert_eq!(serial.virtual_ns, parallel.virtual_ns);
        assert_eq!(serial.loads_before, parallel.loads_before);
        assert_eq!(serial.loads_after, parallel.loads_after);
        assert_eq!(serial.agents, parallel.agents);
        // At a fixed domain count the raw kernel trace replays
        // byte-for-byte too.
        let replay = FleetScheduler::new(small_cfg(4)).run();
        assert_eq!(parallel.fingerprint, replay.fingerprint);
        assert_eq!(parallel.digest(), replay.digest());
    }
}
