//! World assembly: SCIF + daemons + registry for one Xeon Phi server.

use std::sync::Arc;

use blcr_sim::BlcrConfig;
use phi_platform::PhiServer;
use scif_sim::Scif;
use simproc::{PidAllocator, SimProcess};

use crate::binary::FunctionRegistry;
use crate::config::CoiConfig;
use crate::daemon::CoiDaemon;
use crate::handle::CoiProcessHandle;
use crate::storage::SnapshotStorage;
use crate::CoiError;

struct Inner {
    server: PhiServer,
    scif: Scif,
    config: CoiConfig,
    blcr: BlcrConfig,
    registry: FunctionRegistry,
    pids: PidAllocator,
    storage: Arc<dyn SnapshotStorage>,
    daemons: Vec<CoiDaemon>,
}

/// The COI world for one server: a daemon per coprocessor plus shared
/// driver state. Cheap to clone.
#[derive(Clone)]
pub struct CoiWorld {
    inner: Arc<Inner>,
}

impl CoiWorld {
    /// Boot COI on `server` with the given configuration, binary registry,
    /// and snapshot storage. Spawns one daemon per coprocessor.
    pub fn boot(
        server: &PhiServer,
        config: CoiConfig,
        registry: FunctionRegistry,
        storage: Arc<dyn SnapshotStorage>,
    ) -> CoiWorld {
        let scif = Scif::new(server);
        let pids = PidAllocator::new();
        let blcr = BlcrConfig::default();
        let daemons = (0..server.num_devices())
            .map(|i| {
                CoiDaemon::start(
                    i,
                    server.device(i),
                    &scif,
                    &config,
                    &blcr,
                    server.params(),
                    &registry,
                    Arc::clone(&storage),
                    &pids,
                )
            })
            .collect();
        CoiWorld {
            inner: Arc::new(Inner {
                server: server.clone(),
                scif,
                config,
                blcr,
                registry,
                pids,
                storage,
                daemons,
            }),
        }
    }

    /// Create a host process to run an offload application in.
    pub fn create_host_process(&self, name: &str) -> SimProcess {
        SimProcess::new(self.inner.pids.alloc(), name, self.inner.server.host())
    }

    /// Create an offload process for `host_proc` on device `device`.
    pub fn create_process(
        &self,
        host_proc: &SimProcess,
        device: usize,
        binary: &str,
    ) -> Result<CoiProcessHandle, CoiError> {
        let image_bytes = self
            .inner
            .registry
            .get(binary)
            .map(|b| b.image_bytes)
            .unwrap_or(0);
        CoiProcessHandle::create(
            &self.inner.config,
            &self.inner.scif,
            host_proc,
            device,
            binary,
            image_bytes,
        )
    }

    /// The underlying server.
    pub fn server(&self) -> &PhiServer {
        &self.inner.server
    }

    /// The SCIF driver.
    pub fn scif(&self) -> &Scif {
        &self.inner.scif
    }

    /// The COI configuration.
    pub fn config(&self) -> &CoiConfig {
        &self.inner.config
    }

    /// The BLCR configuration used for device snapshots.
    pub fn blcr(&self) -> &BlcrConfig {
        &self.inner.blcr
    }

    /// The binary registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.inner.registry
    }

    /// The pid allocator (shared by daemons and host processes).
    pub fn pids(&self) -> &PidAllocator {
        &self.inner.pids
    }

    /// The snapshot storage implementation.
    pub fn storage(&self) -> &Arc<dyn SnapshotStorage> {
        &self.inner.storage
    }

    /// The daemon of device `i`.
    pub fn daemon(&self, i: usize) -> &CoiDaemon {
        &self.inner.daemons[i]
    }
}
