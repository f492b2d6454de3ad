//! The `snapify` command-line utility (§5 "Command-line tools").
//!
//! The real tool takes the PID of a host process and a command
//! (swap-out / swap-in / migrate), signals the host process, and submits
//! the command through a pipe; a Snapify signal handler inside the host
//! process then runs the corresponding Fig 6/7 function. This module
//! reproduces that control path: [`SnapifyCli::submit`] queues a command
//! to the registered host process, whose handler thread executes it.

use std::collections::HashMap;
use std::sync::Arc;

use coi_sim::CoiProcessHandle;
use simkernel::{SimChannel, SimMutex};

use crate::api::{snapify_migrate, snapify_swapin, snapify_swapout, SnapifyT};
use crate::SnapifyError;

/// A command accepted by the `snapify` utility.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Swap the offload process out to the given snapshot directory.
    SwapOut {
        /// Snapshot directory.
        path: String,
    },
    /// Swap the offload process back in on the given coprocessor.
    SwapIn {
        /// Target coprocessor index.
        device: usize,
    },
    /// Migrate the offload process to the given coprocessor.
    Migrate {
        /// Target coprocessor index.
        device: usize,
    },
}

/// Completion notification for a submitted command.
#[derive(Debug)]
pub enum Outcome {
    /// The command completed.
    Done,
    /// The command failed.
    Failed(SnapifyError),
}

struct Registration {
    handle: CoiProcessHandle,
    queue: SimChannel<(Command, SimChannel<Outcome>)>,
    snapshot: Arc<SimMutex<Option<SnapifyT>>>,
}

/// The `snapify` CLI front end: a registry of host processes that have
/// installed the Snapify signal handler.
#[derive(Clone)]
pub struct SnapifyCli {
    registry: Arc<SimMutex<HashMap<u64, Arc<Registration>>>>,
}

impl Default for SnapifyCli {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapifyCli {
    /// New empty registry.
    pub fn new() -> SnapifyCli {
        SnapifyCli {
            registry: Arc::new(SimMutex::new("snapify-cli", HashMap::new())),
        }
    }

    /// Install the Snapify handler in `handle`'s host process: spawns the
    /// handler thread that services submitted commands (the signal-handler
    /// equivalent).
    pub fn register(&self, handle: &CoiProcessHandle) {
        let host_pid = handle.host_proc().pid().0;
        let queue = SimChannel::unbounded(format!("snapify-cli-{host_pid}"));
        let reg = Arc::new(Registration {
            handle: handle.clone(),
            queue: queue.clone(),
            snapshot: Arc::new(SimMutex::new(format!("cli-snap-{host_pid}"), None)),
        });
        self.registry.lock().insert(host_pid, Arc::clone(&reg));
        let reg2 = Arc::clone(&reg);
        handle
            .host_proc()
            .clone()
            .spawn_service("snapify-cli-handler", move || {
                while let Ok((cmd, done)) = reg2.queue.recv() {
                    let outcome = match Self::execute(&reg2, cmd) {
                        Ok(()) => Outcome::Done,
                        Err(e) => Outcome::Failed(e),
                    };
                    let _ = done.send(outcome);
                }
            });
    }

    fn execute(reg: &Registration, cmd: Command) -> Result<(), SnapifyError> {
        match cmd {
            Command::SwapOut { path } => {
                let snapshot = snapify_swapout(&reg.handle, &path)?;
                *reg.snapshot.lock() = Some(snapshot);
                Ok(())
            }
            Command::SwapIn { device } => {
                let snap = reg.snapshot.lock().take();
                match snap {
                    Some(snapshot) => {
                        snapify_swapin(&snapshot, device)?;
                        Ok(())
                    }
                    None => Err(SnapifyError::Protocol(
                        "swap-in without a prior swap-out".into(),
                    )),
                }
            }
            Command::Migrate { device } => {
                snapify_migrate(&reg.handle, device)?;
                Ok(())
            }
        }
    }

    /// Submit a command to the host process with pid `host_pid` (as the
    /// CLI would by signalling it). Blocks until the command completes.
    pub fn submit(&self, host_pid: u64, cmd: Command) -> Result<(), SnapifyError> {
        let reg = self
            .registry
            .lock()
            .get(&host_pid)
            .cloned()
            .ok_or_else(|| SnapifyError::Protocol(format!("no such host process {host_pid}")))?;
        let done = SimChannel::unbounded("snapify-cli-done");
        reg.queue
            .send((cmd, done.clone()))
            .map_err(|_| SnapifyError::Protocol("host process handler gone".into()))?;
        match done.recv() {
            Ok(Outcome::Done) => Ok(()),
            Ok(Outcome::Failed(e)) => Err(e),
            Err(_) => Err(SnapifyError::Protocol("handler exited".into())),
        }
    }

    /// Whether the offload process of `host_pid` is currently swapped out.
    pub fn is_swapped_out(&self, host_pid: u64) -> bool {
        self.registry
            .lock()
            .get(&host_pid)
            .map(|r| r.snapshot.lock().is_some())
            .unwrap_or(false)
    }
}
