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

/// What every part of one server's COI shares. Built once, in
/// [`CoiWorld::boot`]; daemons, offload runtimes and host handles hold
/// the `Arc`, never copies of its fields.
pub(crate) struct CoiEnv {
    pub(crate) server: PhiServer,
    pub(crate) scif: Scif,
    pub(crate) config: CoiConfig,
    pub(crate) blcr: BlcrConfig,
    pub(crate) registry: FunctionRegistry,
    pub(crate) pids: PidAllocator,
    pub(crate) storage: Arc<dyn SnapshotStorage>,
}

struct Inner {
    env: Arc<CoiEnv>,
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
        let env = Arc::new(CoiEnv {
            server: server.clone(),
            scif: Scif::new(server),
            config,
            blcr: BlcrConfig::default(),
            registry,
            pids: PidAllocator::new(),
            storage,
        });
        let daemons = (0..server.num_devices())
            .map(|i| CoiDaemon::start(&env, i))
            .collect();
        CoiWorld {
            inner: Arc::new(Inner { env, daemons }),
        }
    }

    /// Create a host process to run an offload application in.
    pub fn create_host_process(&self, name: &str) -> SimProcess {
        let env = &self.inner.env;
        SimProcess::new(env.pids.alloc(), name, env.server.host())
    }

    /// Create an offload process for `host_proc` on device `device`.
    pub fn create_process(
        &self,
        host_proc: &SimProcess,
        device: usize,
        binary: &str,
    ) -> Result<CoiProcessHandle, CoiError> {
        CoiProcessHandle::create(&self.inner.env, host_proc, device, binary)
    }

    /// A handle for `host_proc` with no offload process behind it yet: what
    /// a restarted host process holds until `snapify_restore` re-adopts
    /// its swapped-out or checkpointed offload process.
    pub fn detached_handle(&self, host_proc: &SimProcess, binary: &str) -> CoiProcessHandle {
        CoiProcessHandle::new_detached(&self.inner.env, host_proc, binary)
    }

    /// The underlying server.
    pub fn server(&self) -> &PhiServer {
        &self.inner.env.server
    }

    /// The SCIF driver.
    pub fn scif(&self) -> &Scif {
        &self.inner.env.scif
    }

    /// The COI configuration.
    pub fn config(&self) -> &CoiConfig {
        &self.inner.env.config
    }

    /// The BLCR configuration used for device snapshots.
    pub fn blcr(&self) -> &BlcrConfig {
        &self.inner.env.blcr
    }

    /// The binary registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.inner.env.registry
    }

    /// The pid allocator (shared by daemons and host processes).
    pub fn pids(&self) -> &PidAllocator {
        &self.inner.env.pids
    }

    /// The snapshot storage implementation.
    pub fn storage(&self) -> &Arc<dyn SnapshotStorage> {
        &self.inner.env.storage
    }

    /// The daemon of device `i`.
    pub fn daemon(&self, i: usize) -> &CoiDaemon {
        &self.inner.daemons[i]
    }
}
