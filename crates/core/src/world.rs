//! One-call bootstrap of a complete Snapify-enabled Xeon Phi server.

use std::sync::Arc;

use coi_sim::{CoiConfig, CoiWorld, FunctionRegistry, SnapshotStorage};
use phi_platform::{FaultSchedule, PhiServer, PlatformParams};
use snapify_io::{SnapifyIo, SnapifyIoConfig};
use snapstore::{ClusterPool, Dedup, DedupConfig};

/// A fully-assembled world: simulated server + COI (with Snapify
/// modifications) + Snapify-IO as the snapshot transport, optionally
/// fronted by the content-addressed [`Dedup`] store. Cheap to clone.
#[derive(Clone)]
pub struct SnapifyWorld {
    server: PhiServer,
    io: SnapifyIo,
    coi: CoiWorld,
    store: Option<Dedup>,
}

impl SnapifyWorld {
    /// Boot with default (paper Table 2) parameters, plain Snapify-IO
    /// snapshot storage and no injected faults.
    pub fn boot(registry: FunctionRegistry) -> SnapifyWorld {
        SnapifyWorld::boot_with(
            PlatformParams::default(),
            CoiConfig::default(),
            registry,
            FaultSchedule::none(),
            None,
        )
    }

    /// Boot with explicit platform and COI configuration.
    ///
    /// `schedule` is wired through the whole platform: every node's file
    /// system and memory pool, every PCIe link, and the transports built
    /// on this server all consult the resulting fault plane (see
    /// `phi_platform::FaultPlane`).
    ///
    /// `Some(dedup)` fronts the Snapify-IO transport with the
    /// content-addressed snapshot store: snapshot streams are chunked,
    /// deduplicated against the host-side chunk index, and only novel
    /// chunks ship.
    pub fn boot_with(
        params: PlatformParams,
        coi_config: CoiConfig,
        registry: FunctionRegistry,
        schedule: FaultSchedule,
        dedup: Option<DedupConfig>,
    ) -> SnapifyWorld {
        let server = PhiServer::new_with_faults(params, schedule);
        SnapifyWorld::assemble(server, coi_config, registry, dedup.map(|c| (c, None)))
    }

    /// Boot on an existing server (used by `mpi-sim`, whose cluster owns
    /// the servers).
    pub fn boot_on_server(
        server: PhiServer,
        coi_config: CoiConfig,
        registry: FunctionRegistry,
    ) -> SnapifyWorld {
        SnapifyWorld::assemble(server, coi_config, registry, None)
    }

    /// The one boot path: Snapify-IO, then the optional store in front
    /// of it, then COI over whichever of the two is the snapshot storage.
    ///
    /// A store may come with a fleet attachment `(pool, cluster_node)`:
    /// its commits publish their chunk manifests to the shared
    /// [`ClusterPool`], deletes release them, and a restore that misses
    /// the local backend imports the manifest from the pool, shipping
    /// only the chunks this node does not already hold. That form must
    /// run on a simulated thread of the node's own time domain (it
    /// prices the pool NIC against this node's platform parameters).
    pub(crate) fn assemble(
        server: PhiServer,
        coi_config: CoiConfig,
        registry: FunctionRegistry,
        dedup: Option<(DedupConfig, Option<(&ClusterPool, usize)>)>,
    ) -> SnapifyWorld {
        let io = SnapifyIo::new(&server, SnapifyIoConfig::default());
        let store = dedup.map(|(config, pool)| {
            let backend = Arc::new(io.clone());
            match pool {
                Some((pool, node)) => Dedup::with_pool(&server, backend, config, pool, node),
                None => Dedup::new(&server, backend, config),
            }
        });
        let storage: Arc<dyn SnapshotStorage> = match &store {
            Some(store) => Arc::new(store.clone()),
            None => Arc::new(io.clone()),
        };
        let coi = CoiWorld::boot(&server, coi_config, registry, storage);
        SnapifyWorld {
            server,
            io,
            coi,
            store,
        }
    }

    /// The simulated server.
    pub fn server(&self) -> &PhiServer {
        &self.server
    }

    /// The Snapify-IO service.
    pub fn io(&self) -> &SnapifyIo {
        &self.io
    }

    /// The COI world.
    pub fn coi(&self) -> &CoiWorld {
        &self.coi
    }

    /// The content-addressed snapshot store, if this world was booted
    /// with one.
    pub fn store(&self) -> Option<&Dedup> {
        self.store.as_ref()
    }
}
