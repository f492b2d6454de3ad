//! # snapify — consistent snapshots of Xeon Phi offload applications
//!
//! The paper's primary contribution: an application-transparent,
//! *coordinated* way to snapshot the communicating processes of an
//! offload application (host process + COI daemon + offload process) so
//! that the snapshots form a consistent global state, and three
//! capabilities built on it — **checkpoint/restart**, **process
//! swapping**, and **process migration**.
//!
//! * [`api`] — the five functions of Table 1 plus the Fig 6/7 swap and
//!   migration compositions;
//! * [`cr`] — whole-application checkpoint/restart with the host BLCR
//!   callback flow of Fig 5, producing the timing breakdowns of Fig 10;
//! * [`cli`] — the `snapify` command-line utility semantics;
//! * [`world`] — one-call bootstrap of server + COI + Snapify-IO.
//!
//! The COI-side machinery this API drives (drain locks, the daemon's
//! monitor thread, the capture-safe pipeline) lives in `coi-sim`,
//! mirroring how the real Snapify ships as modifications to MPSS; the
//! RDMA snapshot transport is `snapify-io`.
//!
//! ## Example
//!
//! ```
//! use coi_sim::{DeviceBinary, FunctionRegistry};
//! use phi_platform::Payload;
//! use simkernel::Kernel;
//! use snapify::{api, SnapifyWorld};
//!
//! Kernel::run_root(|| {
//!     // A device binary with one offload function.
//!     let registry = FunctionRegistry::new();
//!     registry.register(
//!         DeviceBinary::new("double.so", 1 << 20, 8 << 20).simple_function(
//!             "double",
//!             |ctx| {
//!                 let mut v = ctx.read_buffer(0).to_bytes();
//!                 for b in v.iter_mut() { *b *= 2; }
//!                 ctx.compute(1e9, 60);
//!                 ctx.write_buffer(0, Payload::bytes(v));
//!                 Vec::new()
//!             },
//!         ),
//!     );
//!     let world = SnapifyWorld::boot(registry);
//!     let host = world.coi().create_host_process("app");
//!     let h = world.coi().create_process(&host, 0, "double.so").unwrap();
//!     let buf = h.create_buffer(4).unwrap();
//!     h.buffer_write(&buf, Payload::bytes(vec![1, 2, 3, 4])).unwrap();
//!     h.run_sync("double", Vec::new(), &[&buf]).unwrap();
//!
//!     // Take a consistent snapshot, then resume.
//!     let snap = api::SnapifyT::new(&h, "/snapshots/demo");
//!     api::snapify_pause(&snap).unwrap();
//!     api::snapify_capture(&snap, false).unwrap();
//!     api::snapify_wait(&snap).unwrap();
//!     api::snapify_resume(&snap).unwrap();
//!
//!     assert_eq!(h.buffer_read(&buf).unwrap().to_bytes(), vec![2, 4, 6, 8]);
//!     h.destroy().unwrap();
//! });
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod cli;
pub mod cluster;
pub mod cr;
pub mod fleet;
pub mod scheduler;
pub mod world;

use std::fmt;

pub use api::{
    snapify_capture, snapify_migrate, snapify_pause, snapify_restore, snapify_resume,
    snapify_swapin, snapify_swapout, snapify_wait, SnapifyT,
};
pub use cli::{Command, SnapifyCli};
pub use cluster::MultiNodeCluster;
pub use cr::{
    checkpoint_application, restart_application, CheckpointReport, CrTool, RestartReport,
    RestartedApp,
};
pub use fleet::{AgentStats, FleetConfig, FleetReport, FleetScheduler, MigrationOutcome, NodeLoad};
pub use scheduler::{JobId, SwapScheduler};
pub use world::SnapifyWorld;

/// Errors surfaced by the Snapify API.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapifyError {
    /// Underlying COI failure.
    Coi(coi_sim::CoiError),
    /// Snapshot I/O failure.
    Io(String),
    /// Restore failed (bad snapshot, target device out of memory, …).
    RestoreFailed(String),
    /// Protocol violation.
    Protocol(String),
    /// A cluster operation referenced a node outside the cluster.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// Cluster size — valid node indices are `0..nodes`.
        nodes: usize,
    },
}

impl fmt::Display for SnapifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapifyError::Coi(e) => write!(f, "coi: {e}"),
            SnapifyError::Io(m) => write!(f, "snapshot i/o: {m}"),
            SnapifyError::RestoreFailed(m) => write!(f, "restore failed: {m}"),
            SnapifyError::Protocol(m) => write!(f, "protocol error: {m}"),
            SnapifyError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for a {nodes}-node cluster")
            }
        }
    }
}

impl std::error::Error for SnapifyError {}

impl From<coi_sim::CoiError> for SnapifyError {
    fn from(e: coi_sim::CoiError) -> SnapifyError {
        SnapifyError::Coi(e)
    }
}

impl From<simproc::IoError> for SnapifyError {
    fn from(e: simproc::IoError) -> SnapifyError {
        SnapifyError::Io(e.to_string())
    }
}

impl From<blcr_sim::BlcrError> for SnapifyError {
    fn from(e: blcr_sim::BlcrError) -> SnapifyError {
        SnapifyError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coi_sim::{DeviceBinary, FunctionRegistry, OffloadCtx, OffloadFn, StepOutcome};
    use phi_platform::{Payload, MB};
    use simkernel::time::ms;
    use simkernel::Kernel;
    use std::sync::Arc;

    /// Long multi-step kernel: adds 1 to every buffer byte per step.
    struct SlowInc {
        steps: u64,
    }
    impl OffloadFn for SlowInc {
        fn step(&self, ctx: &mut OffloadCtx<'_>, cursor: u64) -> StepOutcome {
            ctx.compute(2e9, 60); // ~2 ms per step
            let mut v = ctx.read_buffer(0).to_bytes();
            for b in v.iter_mut() {
                *b = b.wrapping_add(1);
            }
            ctx.write_buffer(0, Payload::bytes(v));
            if cursor + 1 >= self.steps {
                StepOutcome::Done((cursor + 1).to_le_bytes().to_vec())
            } else {
                StepOutcome::Yield
            }
        }
    }

    fn registry() -> FunctionRegistry {
        let reg = FunctionRegistry::new();
        reg.register(
            DeviceBinary::new("app.so", 2 * MB, 24 * MB)
                .simple_function("fill", |ctx| {
                    let n = ctx.buffer_len(0);
                    ctx.compute(1e9, 60);
                    ctx.write_buffer(0, Payload::bytes(vec![7u8; n as usize]));
                    Vec::new()
                })
                .function("slow_inc", Arc::new(SlowInc { steps: 50 })),
        );
        reg
    }

    fn setup() -> (SnapifyWorld, coi_sim::CoiProcessHandle) {
        let world = SnapifyWorld::boot(registry());
        let host = world.coi().create_host_process("app");
        let handle = world.coi().create_process(&host, 0, "app.so").unwrap();
        (world, handle)
    }

    #[test]
    fn pause_capture_resume_cycle_preserves_execution() {
        Kernel::run_root(|| {
            let (world, h) = setup();
            let buf = h.create_buffer(64).unwrap();
            h.buffer_write(&buf, Payload::bytes(vec![1u8; 64])).unwrap();

            let snap = SnapifyT::new(&h, "/snap/basic");
            snapify_pause(&snap).unwrap();

            // Invariant at the heart of the paper: all channels drained.
            let rt = world.coi().daemon(0).runtime(h.pid()).unwrap();
            assert!(
                rt.channels_drained(),
                "channels must be drained after pause"
            );

            snapify_capture(&snap, false).unwrap();
            let bytes = snapify_wait(&snap).unwrap();
            assert!(bytes > 24 * MB, "device snapshot includes resident memory");
            assert_eq!(snap.snapshot_bytes(), Some(bytes));
            snapify_resume(&snap).unwrap();

            // The app still works after resume.
            h.run_sync("fill", Vec::new(), &[&buf]).unwrap();
            assert_eq!(h.buffer_read(&buf).unwrap().to_bytes(), vec![7u8; 64]);
            h.destroy().unwrap();
        });
    }

    #[test]
    fn capture_mid_function_restores_and_resumes() {
        Kernel::run_root(|| {
            let (_world, h) = setup();
            let buf = h.create_buffer(8).unwrap();
            h.buffer_write(&buf, Payload::bytes(vec![0u8; 8])).unwrap();

            // Launch a 50-step function (~100 ms) and snapshot mid-flight.
            let run = h.run("slow_inc", Vec::new(), &[&buf]).unwrap();
            simkernel::sleep(ms(20)); // several steps in

            let snap = SnapifyT::new(&h, "/snap/mid");
            snapify_pause(&snap).unwrap();
            snapify_capture(&snap, false).unwrap();
            snapify_wait(&snap).unwrap();
            snapify_resume(&snap).unwrap();

            // The function completes correctly after the snapshot cycle.
            let ret = run.wait().unwrap();
            assert_eq!(u64::from_le_bytes(ret.try_into().unwrap()), 50);
            assert_eq!(h.buffer_read(&buf).unwrap().to_bytes(), vec![50u8; 8]);
            h.destroy().unwrap();
        });
    }

    #[test]
    fn swapout_frees_device_memory_and_swapin_restores() {
        Kernel::run_root(|| {
            let (world, h) = setup();
            let buf = h.create_buffer(4 * MB).unwrap();
            h.buffer_write(&buf, Payload::synthetic(5, 4 * MB)).unwrap();
            let digest_before = world
                .coi()
                .daemon(0)
                .runtime(h.pid())
                .unwrap()
                .local_store_digest();

            let used_before = world.server().device(0).mem().used();
            assert!(used_before > 24 * MB);

            let snap = snapify_swapout(&h, "/snap/swap").unwrap();
            assert!(snap.is_terminated());
            // The offload process is gone; its memory is free.
            assert_eq!(world.coi().daemon(0).live_processes(), 0);
            assert!(world.server().device(0).mem().used() < used_before / 4);

            snapify_swapin(&snap, 0).unwrap();
            assert_eq!(world.coi().daemon(0).live_processes(), 1);
            let digest_after = world
                .coi()
                .daemon(0)
                .runtime(h.pid())
                .unwrap()
                .local_store_digest();
            assert_eq!(digest_before, digest_after);

            // And the app still computes.
            h.run_sync("fill", Vec::new(), &[&buf]).unwrap();
            h.destroy().unwrap();
        });
    }

    #[test]
    fn migration_moves_process_between_devices() {
        Kernel::run_root(|| {
            let (world, h) = setup();
            let buf = h.create_buffer(32).unwrap();
            h.buffer_write(&buf, Payload::bytes(vec![9u8; 32])).unwrap();
            assert_eq!(h.device(), 0);

            snapify_migrate(&h, 1).unwrap();
            assert_eq!(h.device(), 1);
            assert_eq!(world.coi().daemon(0).live_processes(), 0);
            assert_eq!(world.coi().daemon(1).live_processes(), 1);
            // Buffer content survived the move.
            assert_eq!(h.buffer_read(&buf).unwrap().to_bytes(), vec![9u8; 32]);
            // And the process still executes on the new device.
            h.run_sync("fill", Vec::new(), &[&buf]).unwrap();
            assert_eq!(h.buffer_read(&buf).unwrap().to_bytes(), vec![7u8; 32]);
            h.destroy().unwrap();
        });
    }

    #[test]
    fn migrate_scratch_path_is_namespaced_by_host_and_tenant() {
        Kernel::run_root(|| {
            let (_world, h) = setup();
            let pid = h.pid();
            let host_pid = h.host_proc().pid().0;
            let snap = snapify_migrate(&h, 1).unwrap();
            // Regression: the path used to be `/tmp/snapify-migrate-<pid>`,
            // which collides across hosts of a fleet that hand out the
            // same offload pids. It now carries hostname + host pid too.
            assert_eq!(
                snap.snapshot_path,
                format!("/tmp/snapify-migrate-host0-h{host_pid}-p{pid}")
            );
            h.destroy().unwrap();
        });
    }

    #[test]
    fn failed_migration_restores_source_and_cleans_scratch() {
        Kernel::run_root(|| {
            let (world, h) = setup();
            let buf = h.create_buffer(16).unwrap();
            h.buffer_write(&buf, Payload::bytes(vec![4u8; 16])).unwrap();
            // Fill device 1 so the swap-in half of the migration dies.
            world
                .server()
                .device(1)
                .mem()
                .alloc(world.server().device(1).mem().available() - MB)
                .unwrap();

            let err = snapify_migrate(&h, 1).unwrap_err();
            assert!(matches!(err, SnapifyError::RestoreFailed(_)), "got {err:?}");

            // The tenant is back on its source device with its state...
            assert_eq!(h.device(), 0);
            assert_eq!(world.coi().daemon(0).live_processes(), 1);
            assert_eq!(h.buffer_read(&buf).unwrap().to_bytes(), vec![4u8; 16]);
            h.run_sync("fill", Vec::new(), &[&buf]).unwrap();
            // ...and the scratch image is gone from the host fs.
            assert!(
                world
                    .server()
                    .host()
                    .fs()
                    .list("/tmp/snapify-migrate-")
                    .is_empty(),
                "failed migration must not leak its staging directory"
            );
            h.destroy().unwrap();
        });
    }

    #[test]
    fn migration_mid_function_completes_on_new_device() {
        Kernel::run_root(|| {
            let (_world, h) = setup();
            let buf = h.create_buffer(4).unwrap();
            h.buffer_write(&buf, Payload::bytes(vec![0u8; 4])).unwrap();
            let run = h.run("slow_inc", Vec::new(), &[&buf]).unwrap();
            simkernel::sleep(ms(30));
            snapify_migrate(&h, 1).unwrap();
            let ret = run.wait().unwrap();
            assert_eq!(u64::from_le_bytes(ret.try_into().unwrap()), 50);
            assert_eq!(h.buffer_read(&buf).unwrap().to_bytes(), vec![50u8; 4]);
            h.destroy().unwrap();
        });
    }

    #[test]
    fn checkpoint_and_restart_application() {
        Kernel::run_root(|| {
            let (world, h) = setup();
            let buf = h.create_buffer(16).unwrap();
            h.buffer_write(&buf, Payload::bytes(vec![3u8; 16])).unwrap();
            // Host process state the framework would need.
            h.host_proc()
                .memory()
                .map_region("host_data", Payload::bytes(vec![42u8; 1024]))
                .unwrap();

            let (_snap, report) =
                checkpoint_application(&world, &h, b"phase=3", "/snap/cr").unwrap();
            assert!(report.total > report.pause);
            assert!(report.host_snapshot_bytes > 1024);
            assert!(report.device_snapshot_bytes > 24 * MB);
            assert_eq!(report.local_store_bytes, 16);

            // The application continues after the checkpoint...
            h.run_sync("fill", Vec::new(), &[&buf]).unwrap();

            // ...now simulate a full failure: kill everything.
            h.destroy().unwrap();
            h.host_proc().exit();

            // Restart from the snapshot.
            let restarted = restart_application(&world, "/snap/cr", "app.so", 1).unwrap();
            assert_eq!(restarted.host_state, b"phase=3");
            assert_eq!(
                restarted
                    .host_proc
                    .memory()
                    .region("host_data")
                    .unwrap()
                    .to_bytes(),
                vec![42u8; 1024]
            );
            // The restored offload process has the buffer with its
            // checkpoint-time content (3s, not the 7s written after).
            let bufs = restarted.handle.buffers();
            assert_eq!(bufs.len(), 1);
            assert_eq!(
                restarted.handle.buffer_read(&bufs[0]).unwrap().to_bytes(),
                vec![3u8; 16]
            );
            // And it still executes.
            restarted
                .handle
                .run_sync("fill", Vec::new(), &[&bufs[0]])
                .unwrap();
            restarted.handle.destroy().unwrap();
        });
    }

    #[test]
    fn restore_rewrites_rdma_addresses() {
        Kernel::run_root(|| {
            let (_world, h) = setup();
            let buf = h.create_buffer(8).unwrap();
            let addr_before = buf.addr();
            let snap = snapify_swapout(&h, "/snap/addr").unwrap();
            snapify_swapin(&snap, 0).unwrap();
            let addr_after = buf.addr();
            assert_ne!(
                addr_before, addr_after,
                "re-registration must produce a new RDMA address (§4.3)"
            );
            // RDMA through the handle still works (the lookup table was
            // applied).
            h.buffer_write(&buf, Payload::bytes(vec![1u8; 8])).unwrap();
            assert_eq!(h.buffer_read(&buf).unwrap().to_bytes(), vec![1u8; 8]);
            h.destroy().unwrap();
        });
    }

    #[test]
    fn cli_swap_and_migrate() {
        Kernel::run_root(|| {
            let (world, h) = setup();
            let cli = SnapifyCli::new();
            cli.register(&h);
            let host_pid = h.host_proc().pid().0;

            cli.submit(
                host_pid,
                Command::SwapOut {
                    path: "/snap/cli".into(),
                },
            )
            .unwrap();
            assert!(cli.is_swapped_out(host_pid));
            assert_eq!(world.coi().daemon(0).live_processes(), 0);

            cli.submit(host_pid, Command::SwapIn { device: 1 }).unwrap();
            assert!(!cli.is_swapped_out(host_pid));
            assert_eq!(h.device(), 1);

            cli.submit(host_pid, Command::Migrate { device: 0 })
                .unwrap();
            assert_eq!(h.device(), 0);

            let err = cli
                .submit(host_pid, Command::SwapIn { device: 0 })
                .unwrap_err();
            assert!(matches!(err, SnapifyError::Protocol(_)));
            assert!(cli.submit(9999, Command::Migrate { device: 0 }).is_err());
            h.destroy().unwrap();
        });
    }

    #[test]
    fn cr_tool_signal_triggered_checkpoints() {
        // §5 "Command-line tools": cr_checkpoint signals the host process,
        // whose Snapify BLCR callback takes the whole-app checkpoint.
        Kernel::run_root(|| {
            let (world, h) = setup();
            let buf = h.create_buffer(16).unwrap();
            h.buffer_write(&buf, Payload::bytes(vec![1u8; 16])).unwrap();
            let tool =
                cr::CrTool::install(&world, &h, Arc::new(|| b"auto".to_vec()), "/snap/crtool");
            // Two transparent checkpoints, application untouched.
            let r1 = tool.request_checkpoint().unwrap();
            assert!(r1.device_snapshot_bytes > 0);
            h.run_sync("fill", Vec::new(), &[&buf]).unwrap();
            let r2 = tool.request_checkpoint().unwrap();
            assert!(r2.device_snapshot_bytes > 0);
            assert_eq!(tool.checkpoints_taken(), 2);
            // Both snapshot directories exist and are restartable.
            let fs = world.server().host().fs();
            assert!(fs.exists("/snap/crtool/0/device_snapshot"));
            assert!(fs.exists("/snap/crtool/1/host_snapshot"));
            h.destroy().unwrap();
            h.host_proc().exit();
            let restarted = restart_application(&world, "/snap/crtool/1", "app.so", 0).unwrap();
            assert_eq!(restarted.host_state, b"auto");
            restarted.handle.destroy().unwrap();
        });
    }

    #[test]
    fn two_processes_snapshot_independently() {
        Kernel::run_root(|| {
            let world = SnapifyWorld::boot(registry());
            let host = world.coi().create_host_process("app");
            let h0 = world.coi().create_process(&host, 0, "app.so").unwrap();
            let h1 = world.coi().create_process(&host, 1, "app.so").unwrap();
            let b1 = h1.create_buffer(8).unwrap();
            h1.buffer_write(&b1, Payload::bytes(vec![5u8; 8])).unwrap();

            // Snapshot process 0 while process 1 keeps computing.
            let snap = SnapifyT::new(&h0, "/snap/p0");
            snapify_pause(&snap).unwrap();
            h1.run_sync("fill", Vec::new(), &[&b1]).unwrap(); // unaffected
            snapify_capture(&snap, false).unwrap();
            snapify_wait(&snap).unwrap();
            snapify_resume(&snap).unwrap();

            h0.destroy().unwrap();
            h1.destroy().unwrap();
        });
    }
}
