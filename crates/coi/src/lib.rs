//! # coi-sim — the Coprocessor Offload Infrastructure, simulated
//!
//! COI is MPSS's offload runtime (§2): the host-side library an offload
//! application links against, the per-device `coi_daemon`, and the device-
//! side process that executes offload functions. This crate reproduces
//! all three, *including the Snapify modifications* the paper makes to
//! them (drain locks at every SCIF use site, blocking pipeline sends, the
//! daemon's snapshot services and monitor thread, the capture-safe
//! pipeline state machine).
//!
//! The `snapify` crate builds the paper's public API
//! (`snapify_pause` / `capture` / `resume` / `restore` / `wait`) on the
//! plumbing exposed here, mirroring how the real Snapify ships as COI
//! modifications plus a thin API library.
//!
//! Layering:
//!
//! * [`CoiWorld`] — boots one daemon per device over a shared SCIF driver;
//! * [`CoiProcessHandle`] — the host-side `COIProcess*`: buffers, run
//!   pipeline, drain locks;
//! * [`OffloadRuntime`] — the device-side process: executor, command
//!   server, stream clients, and the offload half of pause/capture;
//! * [`CoiDaemon`] — process lifecycle + the Snapify coordinator;
//! * [`SnapshotStorage`] — the seam where Snapify-IO (or an NFS baseline)
//!   plugs in.

#![warn(missing_docs)]

pub mod binary;
pub mod config;
pub mod daemon;
pub mod handle;
mod locks;
pub mod msgs;
pub mod offload;
mod snapfile;
pub mod storage;
pub mod wire;
pub mod world;

use std::fmt;

pub use binary::{DeviceBinary, FunctionRegistry, OffloadCtx, OffloadFn, StepOutcome};
pub use config::CoiConfig;
pub use daemon::CoiDaemon;
pub use handle::{CoiBuffer, CoiProcessHandle, RunHandle};
pub use offload::OffloadRuntime;
pub use storage::{DirectStorage, SnapshotStorage};
pub use world::CoiWorld;

/// Errors surfaced by the COI API.
#[derive(Clone, Debug, PartialEq)]
pub enum CoiError {
    /// The peer process or channel is gone.
    Closed,
    /// SCIF-level failure.
    Scif(scif_sim::ScifError),
    /// The requested device binary is not registered.
    BadBinary(String),
    /// The offload function failed (or does not exist).
    Function(String),
    /// Device memory exhausted.
    OutOfMemory(String),
    /// Snapshot or local-store I/O failed.
    Io(String),
    /// Malformed control message or protocol violation.
    Protocol(String),
}

impl fmt::Display for CoiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoiError::Closed => write!(f, "offload process or channel closed"),
            CoiError::Scif(e) => write!(f, "scif: {e}"),
            CoiError::BadBinary(b) => write!(f, "no such device binary: {b}"),
            CoiError::Function(m) => write!(f, "offload function error: {m}"),
            CoiError::OutOfMemory(m) => write!(f, "device out of memory: {m}"),
            CoiError::Io(m) => write!(f, "snapshot i/o: {m}"),
            CoiError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for CoiError {}

impl From<scif_sim::ScifError> for CoiError {
    fn from(e: scif_sim::ScifError) -> CoiError {
        CoiError::Scif(e)
    }
}

impl From<simproc::IoError> for CoiError {
    fn from(e: simproc::IoError) -> CoiError {
        CoiError::Io(e.to_string())
    }
}

impl From<blcr_sim::BlcrError> for CoiError {
    fn from(e: blcr_sim::BlcrError) -> CoiError {
        CoiError::Io(e.to_string())
    }
}

impl From<phi_platform::OutOfMemory> for CoiError {
    fn from(e: phi_platform::OutOfMemory) -> CoiError {
        CoiError::OutOfMemory(e.to_string())
    }
}

impl From<wire::DecodeError> for CoiError {
    fn from(e: wire::DecodeError) -> CoiError {
        CoiError::Protocol(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_platform::{Payload, PhiServer, MB};
    use simkernel::{Kernel, SimChannel};
    use std::sync::Arc;

    /// A device binary with kernels exercising buffers, private state,
    /// multi-step execution, and logging.
    fn test_registry() -> FunctionRegistry {
        let reg = FunctionRegistry::new();
        let bin = DeviceBinary::new("test.so", 2 * MB, 16 * MB)
            // sum all bytes of buffer 0 (must be real bytes)
            .simple_function("sum", |ctx| {
                let data = ctx.read_buffer(0).to_bytes();
                ctx.compute(5e8, 60);
                let s: u64 = data.iter().map(|&b| b as u64).sum();
                s.to_le_bytes().to_vec()
            })
            // increment every byte of buffer 0 in place
            .simple_function("inc", |ctx| {
                let mut data = ctx.read_buffer(0).to_bytes();
                for b in data.iter_mut() {
                    *b = b.wrapping_add(1);
                }
                ctx.compute(1e6, 60);
                ctx.write_buffer(0, Payload::bytes(data));
                Vec::new()
            })
            // multi-step accumulator using private offload state
            .function("steps", Arc::new(StepFn))
            // emits a log record
            .simple_function("chatty", |ctx| {
                ctx.log(b"hello from the phi".to_vec());
                Vec::new()
            });
        reg.register(bin);
        reg
    }

    struct StepFn;
    impl OffloadFn for StepFn {
        fn step(&self, ctx: &mut OffloadCtx<'_>, cursor: u64) -> StepOutcome {
            let total_steps = u64::from_le_bytes(ctx.args[..8].try_into().unwrap());
            ctx.compute(5e7, 60);
            let acc = ctx
                .private("acc")
                .map(|p| u64::from_le_bytes(p.to_bytes().try_into().unwrap()))
                .unwrap_or(0);
            let acc = acc + cursor + 1;
            ctx.set_private("acc", Payload::bytes(acc.to_le_bytes().to_vec()));
            if cursor + 1 >= total_steps {
                StepOutcome::Done(acc.to_le_bytes().to_vec())
            } else {
                StepOutcome::Yield
            }
        }
    }

    fn world() -> (CoiWorld, PhiServer) {
        let server = PhiServer::default_server();
        let w = CoiWorld::boot(
            &server,
            CoiConfig::default(),
            test_registry(),
            Arc::new(DirectStorage::new(&server)),
        );
        (w, server)
    }

    #[test]
    fn create_and_destroy_process() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            assert!(h.pid() > 0);
            assert_eq!(w.daemon(0).live_processes(), 1);
            h.ping().unwrap();
            h.destroy().unwrap();
            assert_eq!(w.daemon(0).live_processes(), 0);
            assert!(w.daemon(0).crashed_pids().is_empty());
        });
    }

    #[test]
    fn unknown_binary_rejected() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let err = w.create_process(&host, 0, "nope.so").unwrap_err();
            assert!(matches!(err, CoiError::BadBinary(_)));
        });
    }

    #[test]
    fn buffer_roundtrip_through_rdma() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            let buf = h.create_buffer(8).unwrap();
            h.buffer_write(&buf, Payload::bytes(vec![1, 2, 3, 4, 5, 6, 7, 8]))
                .unwrap();
            let back = h.buffer_read(&buf).unwrap();
            assert_eq!(back.to_bytes(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
            h.destroy_buffer(&buf).unwrap();
            h.destroy().unwrap();
        });
    }

    #[test]
    fn offload_function_computes_on_buffer() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            let buf = h.create_buffer(4).unwrap();
            h.buffer_write(&buf, Payload::bytes(vec![10, 20, 30, 40]))
                .unwrap();
            let ret = h.run_sync("sum", Vec::new(), &[&buf]).unwrap();
            assert_eq!(u64::from_le_bytes(ret.try_into().unwrap()), 100);
            // In-place mutation visible to a later read.
            h.run_sync("inc", Vec::new(), &[&buf]).unwrap();
            assert_eq!(
                h.buffer_read(&buf).unwrap().to_bytes(),
                vec![11, 21, 31, 41]
            );
            h.destroy().unwrap();
        });
    }

    #[test]
    fn missing_function_reports_error() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            let err = h.run_sync("nope", Vec::new(), &[]).unwrap_err();
            assert!(matches!(err, CoiError::Function(_)));
            h.destroy().unwrap();
        });
    }

    #[test]
    fn multi_step_function_with_private_state() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            let ret = h
                .run_sync("steps", 5u64.to_le_bytes().to_vec(), &[])
                .unwrap();
            // acc = 1+2+3+4+5 = 15
            assert_eq!(u64::from_le_bytes(ret.try_into().unwrap()), 15);
            h.destroy().unwrap();
        });
    }

    #[test]
    fn async_runs_queue_and_complete_in_order() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            let buf = h.create_buffer(4).unwrap();
            h.buffer_write(&buf, Payload::bytes(vec![0u8; 4])).unwrap();
            let r1 = h.run("inc", Vec::new(), &[&buf]).unwrap();
            let r2 = h.run("inc", Vec::new(), &[&buf]).unwrap();
            let r3 = h.run("sum", Vec::new(), &[&buf]).unwrap();
            r1.wait().unwrap();
            r2.wait().unwrap();
            let ret = r3.wait().unwrap();
            assert_eq!(u64::from_le_bytes(ret.try_into().unwrap()), 8);
            h.destroy().unwrap();
        });
    }

    #[test]
    fn logs_flow_to_host() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            h.run_sync("chatty", Vec::new(), &[]).unwrap();
            // Give the log client a moment to ship the record.
            simkernel::sleep(simkernel::time::ms(5));
            let logs = h.logs();
            assert!(logs.iter().any(|l| l == b"hello from the phi"));
            h.destroy().unwrap();
        });
    }

    #[test]
    fn buffer_oom_is_reported() {
        Kernel::run_root(|| {
            let (w, server) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            let too_big = server.device(0).mem().capacity();
            let err = h.create_buffer(too_big).unwrap_err();
            assert!(matches!(err, CoiError::OutOfMemory(_)));
            h.destroy().unwrap();
        });
    }

    #[test]
    fn two_processes_on_two_devices() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h0 = w.create_process(&host, 0, "test.so").unwrap();
            let h1 = w.create_process(&host, 1, "test.so").unwrap();
            assert_ne!(h0.pid(), h1.pid());
            let b0 = h0.create_buffer(4).unwrap();
            let b1 = h1.create_buffer(4).unwrap();
            h0.buffer_write(&b0, Payload::bytes(vec![1; 4])).unwrap();
            h1.buffer_write(&b1, Payload::bytes(vec![2; 4])).unwrap();
            let s0 = h0.run_sync("sum", Vec::new(), &[&b0]).unwrap();
            let s1 = h1.run_sync("sum", Vec::new(), &[&b1]).unwrap();
            assert_eq!(u64::from_le_bytes(s0.try_into().unwrap()), 4);
            assert_eq!(u64::from_le_bytes(s1.try_into().unwrap()), 8);
            h0.destroy().unwrap();
            h1.destroy().unwrap();
        });
    }

    #[test]
    fn crash_is_detected_by_watchdog() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            let rt = w.daemon(0).runtime(h.pid()).unwrap();
            // Simulate a device-side crash (not via DestroyProcess).
            rt.terminate();
            simkernel::sleep(simkernel::time::ms(1));
            assert_eq!(w.daemon(0).crashed_pids(), vec![h.pid()]);
        });
    }

    /// An offload process that dies with a run in flight fails the run —
    /// once a deadlock of the caller on `run-result-1`: the run channel
    /// closed, the dispatcher's loop ended, and nothing closed the result
    /// channels still pending.
    #[test]
    fn crash_with_a_run_in_flight_fails_the_run() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            let run = h.run("steps", 1000u64.to_le_bytes().to_vec(), &[]).unwrap();
            simkernel::sleep(simkernel::time::us(500));
            w.daemon(0).runtime(h.pid()).unwrap().terminate();
            assert_eq!(run.wait(), Err(CoiError::Closed));
            // Nothing more can be asked of the dead process either.
            assert!(h.run("steps", 1u64.to_le_bytes().to_vec(), &[]).is_err());
        });
    }

    #[test]
    fn hook_toggle_changes_runtime() {
        // The Fig 9 mechanism: the same app is slower (in virtual time)
        // with Snapify hooks than without.
        let run_with = |config: CoiConfig| -> u64 {
            Kernel::run_root(move || {
                let server = PhiServer::default_server();
                let storage = Arc::new(DirectStorage::new(&server));
                let w = CoiWorld::boot(&server, config, test_registry(), storage);
                let host = w.create_host_process("app");
                let h = w.create_process(&host, 0, "test.so").unwrap();
                let buf = h.create_buffer(4).unwrap();
                let t0 = simkernel::now();
                for _ in 0..50 {
                    h.buffer_write(&buf, Payload::bytes(vec![1; 4])).unwrap();
                    h.run_sync("sum", Vec::new(), &[&buf]).unwrap();
                }
                let elapsed = simkernel::now() - t0;
                h.destroy().unwrap();
                elapsed.as_nanos()
            })
        };
        let stock = run_with(CoiConfig::stock());
        let snapify = run_with(CoiConfig::default());
        assert!(snapify > stock, "snapify={snapify} stock={stock}");
        // ... but only slightly (well under 5% for this loop shape).
        assert!((snapify - stock) as f64 / (stock as f64) < 0.05);
    }

    #[test]
    fn drained_predicate_sees_traffic() {
        Kernel::run_root(|| {
            let (w, _) = world();
            let host = w.create_host_process("app");
            let h = w.create_process(&host, 0, "test.so").unwrap();
            let rt = w.daemon(0).runtime(h.pid()).unwrap();
            // Idle process: everything drained.
            simkernel::sleep(simkernel::time::ms(1));
            assert!(rt.channels_drained());
            let _ = h.run("steps", 3u64.to_le_bytes().to_vec(), &[]).unwrap();
            // A request is in flight or recorded-but-executing; either way
            // once it completes and the result is consumed, we drain again.
            simkernel::sleep(simkernel::time::secs(1));
            assert!(rt.channels_drained());
            h.destroy().unwrap();
        });
    }

    #[test]
    fn wire_channel_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimChannel<crate::msgs::PipeMsg>>();
        assert_send::<CoiProcessHandle>();
        assert_send::<OffloadRuntime>();
    }
}
