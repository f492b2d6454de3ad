//! Failure injection: coprocessor crashes, memory exhaustion on restore
//! targets, and corrupt snapshots all surface as clean, typed errors —
//! never as silent corruption.

use snapify_repro::coi_sim::FunctionRegistry;
use snapify_repro::prelude::*;
use snapify_repro::workloads::{by_name, register_suite};

fn boot(name: &str) -> (SnapifyWorld, WorkloadSpec) {
    let spec = by_name(name).unwrap().scaled(64, 20);
    let registry = FunctionRegistry::new();
    register_suite(&registry, std::slice::from_ref(&spec));
    (SnapifyWorld::boot(registry), spec)
}

/// A checkpoint taken before a device "crash" rescues the application:
/// the crashed process is detected by the daemon's watchdog, and the
/// restart on the healthy device completes with correct output.
#[test]
fn checkpoint_rescues_crashed_device() {
    Kernel::run_root(|| {
        let (world, spec) = boot("KM");
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let handle = run.handle().clone();
        let host = run.host_proc().clone();

        // Take a checkpoint at iteration 0 (before any work).
        let (_s, _) =
            checkpoint_application(&world, &handle, &run.host_state(), "/snap/crash").unwrap();

        // Crash the offload process out-of-band (simulated card failure).
        let rt = world.coi().daemon(0).runtime(handle.pid()).unwrap();
        rt.terminate();
        simkernel::sleep(simkernel::time::ms(1));
        assert_eq!(world.coi().daemon(0).crashed_pids(), vec![handle.pid()]);

        // Host-side calls now fail cleanly.
        assert!(handle.ping().is_err());
        host.exit();

        // Restart on the healthy card and run to completion.
        let restarted = restart_application(&world, "/snap/crash", &spec.binary_name(), 1).unwrap();
        let resumed = WorkloadRun::resume_after_restart(
            &spec,
            &restarted.handle,
            &restarted.host_proc,
            &restarted.host_state,
        );
        let result = resumed.run_to_completion().unwrap();
        assert!(result.verified);
        resumed.destroy().unwrap();
    });
}

/// Restoring onto a device that cannot hold the image fails with a typed
/// error and leaks no memory on the target.
#[test]
fn restore_onto_full_device_is_clean() {
    Kernel::run_root(|| {
        let (world, spec) = boot("SS"); // largest store profile
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let handle = run.handle().clone();
        let snap = snapify_swapout(&handle, "/snap/full").unwrap();

        // Fill device 1 so the image cannot fit.
        let used_before = world.server().device(1).mem().used();
        world
            .server()
            .device(1)
            .mem()
            .alloc(world.server().device(1).mem().available() - MB)
            .unwrap();
        let err = snapify_swapin(&snap, 1).unwrap_err();
        assert!(matches!(err, SnapifyError::RestoreFailed(_)));
        // No partial allocations remain beyond our own filler.
        assert_eq!(
            world.server().device(1).mem().available(),
            MB,
            "restore must roll back partial allocations"
        );
        let _ = used_before;

        // The snapshot is still usable on the original device.
        snapify_swapin(&snap, 0).unwrap();
        let result = run.run_to_completion().unwrap();
        assert!(result.verified);
        run.destroy().unwrap();
    });
}

/// A device with room for the BLCR image but not for the local store
/// fails the restore *after* the process restarted there: the restarted
/// process is exited and its memory returned before the error surfaces.
#[test]
fn restore_failing_after_blcr_restart_is_clean() {
    Kernel::run_root(|| {
        let (world, spec) = boot("SS");
        let dev0 = world.server().device(0).mem();
        let idle = dev0.used();
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let handle = run.handle().clone();
        let footprint = dev0.used() - idle;
        let snap = snapify_swapout(&handle, "/snap/half").unwrap();
        let fs = world.server().host().fs();
        let store: u64 = fs
            .list("/snap/half/local_store/buf_")
            .iter()
            .map(|f| fs.read_all(f).unwrap().len())
            .sum();
        assert!(store > 2 * MB && footprint > store);

        // Leave device 1 the process's footprint less half its store.
        let dev1 = world.server().device(1).mem();
        let room = footprint - store / 2;
        dev1.alloc(dev1.available() - room).unwrap();
        let err = snapify_swapin(&snap, 1).unwrap_err();
        assert!(matches!(err, SnapifyError::RestoreFailed(_)), "got {err:?}");
        assert_eq!(dev1.available(), room, "the restarted process must go");

        // The snapshot is still usable on the original device.
        snapify_swapin(&snap, 0).unwrap();
        let result = run.run_to_completion().unwrap();
        assert!(result.verified);
        run.destroy().unwrap();
    });
}

/// A corrupted snapshot file is rejected at restore time.
#[test]
fn corrupt_snapshot_is_rejected() {
    Kernel::run_root(|| {
        let (world, spec) = boot("MC");
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let handle = run.handle().clone();
        let _snap = snapify_swapout(&handle, "/snap/corrupt").unwrap();

        // Truncate the device snapshot on the host fs.
        let fs = world.server().host().fs();
        let path = "/snap/corrupt/device_snapshot";
        let full = fs.read_all(path).unwrap();
        fs.create_or_truncate(path);
        fs.append(path, full.slice(0, full.len() / 2)).unwrap();

        let snap2 = SnapifyT::new(&handle, "/snap/corrupt");
        let err = snapify_restore(&snap2, 0).unwrap_err();
        assert!(matches!(err, SnapifyError::RestoreFailed(_)), "got {err:?}");
    });
}

/// A damaged snapshot directory fails the restore, not the daemon:
/// with the first file under `prefix` replaced by `damage(its content)`
/// the swap-in is a typed `RestoreFailed` that leaves the target
/// device's memory where it was, and the same daemon then restores the
/// repaired snapshot.
fn damaged_snapshot_fails_the_restore(prefix: &'static str, damage: fn(Payload) -> Payload) {
    Kernel::run_root(move || {
        let (world, spec) = boot("MC");
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let handle = run.handle().clone();
        let snap = snapify_swapout(&handle, "/snap/c").unwrap();

        let fs = world.server().host().fs();
        let file = fs.list(&format!("/snap/c/local_store/{prefix}")).remove(0);
        let intact = fs.read_all(&file).unwrap();
        fs.create_or_truncate(&file);
        fs.append(&file, damage(intact.clone())).unwrap();

        let mem = world.server().device(1).mem();
        let used_before = mem.used();
        let err = snapify_swapin(&snap, 1).unwrap_err();
        assert!(matches!(err, SnapifyError::RestoreFailed(_)), "got {err:?}");
        assert_eq!(mem.used(), used_before, "the failed restore leaked");

        fs.create_or_truncate(&file);
        fs.append(&file, intact).unwrap();
        snapify_swapin(&snap, 1).unwrap();
        let result = run.run_to_completion().unwrap();
        assert!(result.verified);
        run.destroy().unwrap();
    });
}

/// A local-store file cut short — what a `shortwrite` fault leaves
/// behind (once an `assert_eq!` in the daemon's ctl handler).
#[test]
fn truncated_local_store_file_fails_the_restore() {
    damaged_snapshot_fails_the_restore("buf_", |full| full.slice(0, full.len() / 2));
}

/// A manifest that is not real bytes (once a `to_bytes()` panic).
#[test]
fn synthetic_manifest_fails_the_restore() {
    damaged_snapshot_fails_the_restore("manifest", |_| Payload::synthetic(9, 64));
}

/// A pause aimed at a crashed offload process fails typed and holds
/// nothing afterwards: the handle can still be destroyed (at one time
/// the failed drain kept the lifecycle, RDMA and cmd locks and `destroy`
/// deadlocked), and a second tenant of the same device still pauses,
/// captures and resumes.
#[test]
fn failed_pause_of_a_crashed_process_holds_no_locks() {
    Kernel::run_root(|| {
        let (world, spec) = boot("KM");
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let neighbour = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let handle = run.handle().clone();
        let rt = world.coi().daemon(0).runtime(handle.pid()).unwrap();
        rt.terminate();

        let err = snapify_pause(&SnapifyT::new(&handle, "/snap/dead")).unwrap_err();
        assert!(matches!(err, SnapifyError::Coi(_)), "got {err:?}");
        handle.destroy().unwrap();

        let snap = SnapifyT::new(neighbour.handle(), "/snap/neighbour");
        snapify_pause(&snap).unwrap();
        snapify_capture(&snap, false).unwrap();
        snapify_wait(&snap).unwrap();
        snapify_resume(&snap).unwrap();
        let result = neighbour.run_to_completion().unwrap();
        assert!(result.verified);
        neighbour.destroy().unwrap();
    });
}

/// A pause that fails *after* its host drain succeeded — here the reply
/// is not a pause reply: a stray resume's answer was still queued on the
/// ctl channel, the same path a transport error takes — leaves no drain
/// lock behind either (it once kept the lifecycle, RDMA, cmd and
/// run-send locks, so the tenant's next offload call blocked for good
/// and a second pause never got past the lifecycle lock).
#[test]
fn failed_pause_after_a_good_drain_holds_no_locks() {
    use snapify_repro::coi_sim::msgs::CtlMsg;
    Kernel::run_root(|| {
        let (world, spec) = boot("KM");
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let handle = run.handle().clone();
        let unexpected = |r: Result<(), SnapifyError>| match r {
            Err(SnapifyError::Protocol(why)) if why.starts_with("unexpected reply") => {}
            other => panic!("wanted an unexpected reply, got {other:?}"),
        };

        // A resume nobody asked for: the daemon answers at once (no pipe
        // is open) and nobody is waiting for the answer.
        let pid = handle.pid();
        handle
            .snapify_send_ctl(CtlMsg::SnapifyResume { pid })
            .unwrap();
        simkernel::sleep(simkernel::time::ms(1));
        let snap = SnapifyT::new(&handle, "/snap/stale");
        unexpected(snapify_pause(&snap));

        // The daemon did carry the pause out. Let it finish, then undo it:
        // every reply is one behind now, so the resume reads the pause's
        // and fails too — after the daemon has acted on it.
        simkernel::sleep(simkernel::time::secs(1));
        unexpected(snapify_resume(&snap));
        simkernel::sleep(simkernel::time::secs(1));

        // The tenant still takes offload calls, and a second pause gets
        // through its drain to the same typed error.
        assert!(run.run_to_completion().unwrap().verified);
        unexpected(snapify_pause(&SnapifyT::new(&handle, "/snap/stale2")));
    });
}

/// Restoring from a directory that was never written fails cleanly.
#[test]
fn missing_snapshot_is_rejected() {
    Kernel::run_root(|| {
        let (world, spec) = boot("MC");
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let handle = run.handle().clone();
        // Must pause first so the handle's locks are in the held state a
        // restore expects; then attempt a restore from a bogus path.
        let snap = snapify_swapout(&handle, "/snap/real").unwrap();
        let bogus = SnapifyT::new(&handle, "/snap/never-written");
        let err = snapify_restore(&bogus, 0).unwrap_err();
        assert!(matches!(err, SnapifyError::RestoreFailed(_)));
        // The real snapshot still works.
        snapify_swapin(&snap, 0).unwrap();
        run.destroy().unwrap();
    });
}

/// The daemon's request watchdog turns a stuck Snapify request into a
/// typed failure instead of hanging the requester forever: a capture
/// aimed at a restored-but-not-resumed process is a protocol misuse
/// whose pipe handler only answers resume requests, so without the
/// watchdog the capture would never complete.
#[test]
fn watchdog_rescues_stuck_capture_request() {
    Kernel::run_root(|| {
        let spec = by_name("KM").unwrap().scaled(64, 20);
        let registry = FunctionRegistry::new();
        register_suite(&registry, std::slice::from_ref(&spec));
        // Short (but not hair-trigger) deadline so the test completes
        // quickly; one backoff extension before giving up.
        let coi = CoiConfig {
            watchdog_timeout: simkernel::time::secs(2),
            watchdog_retries: 1,
            ..CoiConfig::default()
        };
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            coi,
            registry,
            FaultSchedule::none(),
            None,
        );
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let handle = run.handle().clone();
        let snap = snapify_swapout(&handle, "/snap/wd").unwrap();
        snapify_restore(&snap, 0).unwrap();

        // This request would hang forever; the watchdog surfaces it.
        snapify_capture(&snap, false).unwrap();
        let err = snapify_wait(&snap).unwrap_err();
        assert!(matches!(err, SnapifyError::Protocol(_)), "got {err:?}");
        // Asked at t+735.586ms; the 2 s window is extended once to 4 s, and
        // the monitor gives up on its first 200 µs tick past that. Pinned
        // because the monitor's idle ticks run inside the dispatcher
        // (`simkernel::sleep_poll`), which must not move the tick that
        // surfaces the failure.
        assert_eq!(simkernel::now(), SimTime(4_735_630_701));

        // The process itself is unharmed: resume and run to completion.
        snapify_resume(&snap).unwrap();
        let result = run.run_to_completion().unwrap();
        assert!(result.verified);
        run.destroy().unwrap();
    });
}

/// A snapshot-stream open whose SCIF connect is killed by an injected
/// reset fails with a typed transient error and leaks none of the
/// staging memory the daemon charged while setting the stream up — the
/// host pool returns exactly to its baseline, and a retry succeeds.
#[test]
fn faulted_stream_open_releases_staging_memory() {
    use snapify_repro::simproc::SnapshotStorage;
    Kernel::run_root(|| {
        let spec = by_name("KM").unwrap().scaled(64, 20);
        let registry = FunctionRegistry::new();
        register_suite(&registry, std::slice::from_ref(&spec));
        // Due long after launch traffic quiesces, so the snapshot open's
        // SCIF connect is the first bus operation to consume it.
        let schedule = FaultSchedule::none().with(
            SimTime(simkernel::time::secs(500).as_nanos()),
            FaultTarget::Bus(0),
            FaultKind::ConnReset,
        );
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            CoiConfig::default(),
            registry,
            schedule,
            None,
        );
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        while simkernel::now().0 < simkernel::time::secs(501).as_nanos() {
            sleep(simkernel::time::secs(10));
        }

        let host_baseline = world.server().host().mem().used();
        let dev_baseline = world.server().device(0).mem().used();
        let err = world
            .io()
            .sink(NodeId::device(0), "/snap/faulted/device_snapshot")
            .err()
            .expect("open must surface the injected reset");
        assert!(matches!(err, IoError::ConnReset(_)), "got {err}");
        assert_eq!(
            world.server().host().mem().used(),
            host_baseline,
            "faulted open must release host staging memory"
        );
        assert_eq!(
            world.server().device(0).mem().used(),
            dev_baseline,
            "faulted open must release device staging memory"
        );

        // The fault is consumed: the very next snapshot works end-to-end.
        let handle = run.handle().clone();
        let snap = snapify_swapout(&handle, "/snap/after-fault").unwrap();
        snapify_swapin(&snap, 0).unwrap();
        let result = run.run_to_completion().unwrap();
        assert!(result.verified);
        run.destroy().unwrap();
    });
}

/// Memory accounting is exact across repeated swap cycles: no leaks, no
/// double frees, capacity fully restored.
#[test]
fn repeated_swap_cycles_leak_nothing() {
    Kernel::run_root(|| {
        let (world, spec) = boot("NB");
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let handle = run.handle().clone();
        let resident = world.server().device(0).mem().used();
        for i in 0..5 {
            let snap = snapify_swapout(&handle, &format!("/snap/cycle{i}")).unwrap();
            assert_eq!(
                world.server().device(0).mem().used(),
                0,
                "cycle {i}: memory must be fully released"
            );
            snapify_swapin(&snap, 0).unwrap();
            assert_eq!(
                world.server().device(0).mem().used(),
                resident,
                "cycle {i}: memory must be fully restored"
            );
        }
        let result = run.run_to_completion().unwrap();
        assert!(result.verified);
        run.destroy().unwrap();
        assert_eq!(world.server().device(0).mem().used(), 0);
    });
}
