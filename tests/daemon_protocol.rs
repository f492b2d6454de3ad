//! Protocol edge cases of the COI daemon's Snapify services: requests
//! against unknown processes, out-of-order commands, repeated cycles, and
//! the monitor-thread lifecycle.

use snapify_repro::coi_sim::msgs::CtlMsg;
use snapify_repro::coi_sim::{DeviceBinary, FunctionRegistry};
use snapify_repro::prelude::*;

fn registry() -> FunctionRegistry {
    let reg = FunctionRegistry::new();
    reg.register(
        DeviceBinary::new("p.so", MB, 8 * MB).simple_function("noop", |ctx| {
            ctx.compute(1e8, 60);
            Vec::new()
        }),
    );
    reg
}

#[test]
fn pause_of_unknown_pid_reports_failure() {
    Kernel::run_root(|| {
        let world = SnapifyWorld::boot(registry());
        let host = world.coi().create_host_process("app");
        let h = world.coi().create_process(&host, 0, "p.so").unwrap();
        let reply = h
            .snapify_call(CtlMsg::SnapifyPause {
                pid: 9999,
                path: "/x".into(),
            })
            .unwrap();
        assert_eq!(reply, CtlMsg::SnapifyPauseComplete { ok: false });
        h.destroy().unwrap();
    });
}

#[test]
fn capture_without_pause_reports_failure() {
    Kernel::run_root(|| {
        let world = SnapifyWorld::boot(registry());
        let host = world.coi().create_host_process("app");
        let h = world.coi().create_process(&host, 0, "p.so").unwrap();
        // No pause was issued, so the daemon has no pipe for this pid.
        h.snapify_send_ctl(CtlMsg::SnapifyCapture {
            pid: h.pid(),
            path: "/x".into(),
            terminate: false,
        })
        .unwrap();
        match h.snapify_await_capture().unwrap() {
            CtlMsg::SnapifyCaptureComplete { ok, .. } => assert!(!ok),
            other => panic!("unexpected {other:?}"),
        }
        h.destroy().unwrap();
    });
}

#[test]
fn resume_without_pause_is_harmless() {
    Kernel::run_root(|| {
        let world = SnapifyWorld::boot(registry());
        let host = world.coi().create_host_process("app");
        let h = world.coi().create_process(&host, 0, "p.so").unwrap();
        let reply = h
            .snapify_call(CtlMsg::SnapifyResume { pid: h.pid() })
            .unwrap();
        assert_eq!(reply, CtlMsg::SnapifyResumeComplete);
        // The process still works.
        h.run_sync("noop", Vec::new(), &[]).unwrap();
        h.destroy().unwrap();
    });
}

#[test]
fn repeated_pause_resume_cycles() {
    Kernel::run_root(|| {
        let world = SnapifyWorld::boot(registry());
        let host = world.coi().create_host_process("app");
        let h = world.coi().create_process(&host, 0, "p.so").unwrap();
        for i in 0..5 {
            let snap = SnapifyT::new(&h, format!("/snap/cycle{i}"));
            snapify_pause(&snap).unwrap();
            snapify_capture(&snap, false).unwrap();
            snapify_wait(&snap).unwrap();
            snapify_resume(&snap).unwrap();
            // Fully functional between cycles.
            h.run_sync("noop", Vec::new(), &[]).unwrap();
        }
        h.destroy().unwrap();
    });
}

#[test]
fn concurrent_pauses_of_two_processes_share_the_monitor() {
    Kernel::run_root(|| {
        // Two processes on the same device: the daemon's single Snapify
        // monitor thread oversees both in-flight pauses (the paper's
        // active-request list).
        let world = SnapifyWorld::boot(registry());
        let host = world.coi().create_host_process("app");
        let h1 = world.coi().create_process(&host, 0, "p.so").unwrap();
        let h2 = world.coi().create_process(&host, 0, "p.so").unwrap();
        let s1 = SnapifyT::new(&h1, "/snap/m1");
        let s2 = SnapifyT::new(&h2, "/snap/m2");
        let h1c = h1.clone();
        let t1 = host.spawn_thread("p1", move || {
            snapify_pause(&SnapifyT::new(&h1c, "/snap/m1"))
        });
        let h2c = h2.clone();
        let t2 = host.spawn_thread("p2", move || {
            snapify_pause(&SnapifyT::new(&h2c, "/snap/m2"))
        });
        t1.join().unwrap();
        t2.join().unwrap();
        // Both paused; resume both (fresh SnapifyT descriptors are fine —
        // state lives in the daemon/offload side).
        snapify_resume(&s1).unwrap();
        snapify_resume(&s2).unwrap();
        h1.run_sync("noop", Vec::new(), &[]).unwrap();
        h2.run_sync("noop", Vec::new(), &[]).unwrap();
        h1.destroy().unwrap();
        h2.destroy().unwrap();
    });
}

#[test]
fn restore_from_garbage_path_fails_gracefully() {
    Kernel::run_root(|| {
        let world = SnapifyWorld::boot(registry());
        // Write junk where a manifest should be.
        world
            .server()
            .host()
            .fs()
            .append("/junk/local_store/manifest", Payload::bytes(vec![0xFF; 16]))
            .unwrap();
        let host = world.coi().create_host_process("app");
        let h = world.coi().create_process(&host, 0, "p.so").unwrap();
        let snap = snapify_swapout(&h, "/real").unwrap();
        let bogus = SnapifyT::new(&h, "/junk");
        let err = snapify_restore(&bogus, 0).unwrap_err();
        assert!(matches!(err, SnapifyError::RestoreFailed(_)));
        // Recovery still possible from the good snapshot.
        snapify_swapin(&snap, 1).unwrap();
        h.destroy().unwrap();
    });
}
