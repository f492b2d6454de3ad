//! **The paper's evaluation (§7)** — Tables 3–4, Figs 9–11 and three
//! ablations of Snapify's design choices, one function per figure, one
//! record: `BENCH_paper.json`. A row is one line of a figure
//! (`table3/1024MB/write`, `fig10a/SS`, …); where §7 states a value, a
//! `paper_*` field sits beside ours. Every field is virtual time or
//! bytes, so every field is held token for token
//! (`snapify_bench::report`), and each configuration runs once where the
//! paper repeats it 20×. The whole record takes ≈2 s, so `--quick` runs
//! it all.

use std::sync::Arc;

use blcr_sim::{BlcrConfig, BlcrError};
use coi_sim::{CoiConfig, FunctionRegistry};
use phi_platform::{FaultSchedule, FsError, NodeId, Payload, PhiServer, PlatformParams, GB, MB};
use simkernel::obs::{self, Json};
use simkernel::{ms, JoinHandle, Kernel, SimDuration};
use simproc::{ByteSink, IoError, PidAllocator, SimProcess, SnapshotStorage};
use snapify::{
    checkpoint_application, restart_application, snapify_capture, snapify_pause, snapify_swapin,
    snapify_wait, SnapifyError, SnapifyT, SnapifyWorld,
};
use snapify_bench::report::{fixed, Report};
use snapify_io::{
    LocalStorage, Nfs, NfsConfig, NfsMode, Scp, ScpConfig, SnapifyIo, SnapifyIoConfig,
};
use workloads::nas::{nas_suite, run_mz_cr_experiment};
use workloads::{by_name, register_suite, suite, WorkloadResult, WorkloadRun, WorkloadSpec};

/// Seconds, to the millisecond every figure is read at.
fn s(d: SimDuration) -> Json {
    fixed(d.as_secs_f64(), 3)
}

/// How many times faster `fast` is than `slow`.
fn times(slow: SimDuration, fast: SimDuration) -> Json {
    fixed(slow.as_secs_f64() / fast.as_secs_f64(), 1)
}

/// MiB, to a tenth.
fn mib(bytes: u64) -> Json {
    fixed(bytes as f64 / MB as f64, 1)
}

/// **Table 3** — copying a file between the card and the host:
/// Snapify-IO vs NFS vs scp, 1 MB – 1 GB, each direction.
fn table3(report: &mut Report) {
    for size_mb in [1, 4, 16, 64, 256, 1024] {
        let size = size_mb * MB;
        let [write, read] = Kernel::run_root(move || {
            let server = PhiServer::new(PlatformParams::default());
            let sio = SnapifyIo::new_default(&server);
            let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
            let scp = Scp::new(&server, ScpConfig::default());
            let mut out = [[SimDuration::default(); 3]; 2];
            for (i, method) in [&sio as &dyn SnapshotStorage, &nfs, &scp]
                .iter()
                .enumerate()
            {
                let t0 = simkernel::now();
                let mut sink = method.sink(NodeId::device(0), "/bench/t3").unwrap();
                for chunk in Payload::synthetic(i as u64 + 1, size).chunks(8 * MB) {
                    sink.write(chunk).unwrap();
                }
                sink.close().unwrap();
                let t1 = simkernel::now();
                let mut src = method.source(NodeId::device(0), "/bench/t3").unwrap();
                let mut total = 0;
                while let Some(chunk) = src.read(8 * MB).unwrap() {
                    total += chunk.len();
                }
                assert_eq!(total, size);
                out[0][i] = t1 - t0;
                out[1][i] = simkernel::now() - t1;
            }
            out
        });
        for (dir, [sio, nfs, scp], paper) in [("write", write, (6, 30)), ("read", read, (3, 22))] {
            report
                .row(&format!("table3/{size_mb}MB/{dir}"))
                .field("snapify_io_s", s(sio))
                .field("nfs_s", s(nfs))
                .field("scp_s", s(scp))
                .field("sio_vs_nfs", times(nfs, sio))
                .field("sio_vs_scp", times(scp, sio));
            if size_mb == 1024 {
                report
                    .field("paper_sio_vs_nfs", paper.0)
                    .field("paper_sio_vs_scp", paper.1);
            }
        }
    }
}

/// Table 4's storage methods, by field name.
const STORAGE: [&str; 5] = ["local", "nfs", "nfs_buf_k", "nfs_buf_u", "snapify_io"];

fn storage(server: &PhiServer, method: usize) -> Box<dyn SnapshotStorage> {
    let nfs = |mode| Box::new(Nfs::new(server, NfsConfig::default(), mode));
    match method {
        0 => Box::new(LocalStorage::new(server)),
        1 => nfs(NfsMode::Plain),
        2 => nfs(NfsMode::BufferedKernel),
        3 => nfs(NfsMode::BufferedUser),
        _ => Box::new(SnapifyIo::new_default(server)),
    }
}

/// `Some` on success, `None` where the card ran out of memory; any other
/// failure fails the bench.
fn unless_oom<T>(result: Result<T, BlcrError>) -> Option<T> {
    match result {
        Ok(value) => Some(value),
        Err(BlcrError::OutOfMemory(_) | BlcrError::Io(IoError::Fs(FsError::OutOfMemory(_)))) => {
            None
        }
        Err(e) => panic!("table 4: {e}"),
    }
}

/// One Table 4 cell pair: BLCR checkpoint, then restart, of a native
/// card application (`malloc(size)` + a 240-thread loop) through one
/// storage method.
fn blcr_cr(method: usize, size: u64) -> [Option<SimDuration>; 2] {
    Kernel::run_root(move || {
        let server = PhiServer::new(PlatformParams::default());
        let method = storage(&server, method);
        let node = server.device(0).clone();
        let (pids, blcr) = (PidAllocator::new(), BlcrConfig::default());
        let proc = SimProcess::new(pids.alloc(), "native-microbench", &node);
        proc.memory()
            .map_region("malloc", Payload::synthetic(size, size))
            .unwrap();
        node.parallel_compute(1e9, 240); // the loop is running when we snapshot
        let digest = proc.memory().digest();

        let t0 = simkernel::now();
        let checkpoint = method
            .sink(node.id(), "/ckpt/native")
            .map_err(BlcrError::from)
            .and_then(|mut sink| blcr_sim::checkpoint(&blcr, &proc, b"loop", sink.as_mut()));
        if unless_oom(checkpoint).is_none() {
            return [None, None];
        }
        let checkpointed = simkernel::now() - t0;
        proc.exit(); // the original is gone; its memory is free
        let t1 = simkernel::now();
        let restart = method
            .source(node.id(), "/ckpt/native")
            .map_err(BlcrError::from)
            .and_then(|mut src| blcr_sim::restart(&blcr, &node, &pids, src.as_mut()));
        let restarted = unless_oom(restart).map(|r| {
            assert_eq!(r.proc.memory().digest(), digest, "restore corrupted image");
            simkernel::now() - t1
        });
        [Some(checkpointed), restarted]
    })
}

/// **Table 4** — BLCR checkpoint and restart of a native card
/// application by storage method: Local (the card's RAM fs), NFS plain,
/// buffered in kernel and in user space, Snapify-IO.
fn table4(report: &mut Report) {
    // (label, size, the paper's restart speedup of Snapify-IO over NFS)
    let sizes = [
        ("1MB", MB, Some(1.4)),
        ("256MB", 256 * MB, Some(2.6)),
        ("1GB", GB, None),
        ("4GB", 4 * GB, Some(5.9)),
    ];
    let cells: Vec<Vec<[Option<SimDuration>; 2]>> = sizes
        .iter()
        .map(|&(_, size, _)| (0..STORAGE.len()).map(|m| blcr_cr(m, size)).collect())
        .collect();
    // Snapshot + process exceed the 8 GB card: the paper's one cell
    // that cannot run, and this model's.
    for (phase, p) in [("checkpoint", 0), ("restart", 1)] {
        let oom: Vec<_> = (0..sizes.len())
            .flat_map(|i| (0..STORAGE.len()).map(move |m| (i, m)))
            .filter(|&(i, m)| cells[i][m][p].is_none())
            .map(|(i, m)| (sizes[i].0, STORAGE[m]))
            .collect();
        assert_eq!(oom, [("4GB", "local")], "{phase}");
        for (i, (label, _, paper)) in sizes.iter().enumerate() {
            let time = |m: usize| cells[i][m][p];
            report.row(&format!("table4/{phase}/{label}"));
            for (m, method) in STORAGE.iter().enumerate() {
                let cell = time(m).map_or("OOM".into(), s);
                report.field(&format!("{method}_s"), cell);
            }
            report.field("sio_vs_nfs", times(time(1).unwrap(), time(4).unwrap()));
            if let (Some(x), "restart") = (paper, phase) {
                report.field("paper_sio_vs_nfs", *x);
            }
        }
    }
}

/// One offload benchmark run to completion on a fresh world.
fn runtime(spec: WorkloadSpec, config: CoiConfig) -> SimDuration {
    Kernel::run_root(move || {
        let registry = FunctionRegistry::new();
        register_suite(&registry, std::slice::from_ref(&spec));
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            config,
            registry,
            FaultSchedule::none(),
            None,
        );
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let result = run.run_to_completion().unwrap();
        assert!(result.verified, "{} failed verification", spec.name);
        run.destroy().unwrap();
        result.runtime
    })
}

/// **Fig 9** — runtime overhead of Snapify's hooks in COI on the eight
/// OpenMP offload benchmarks, no snapshot taken. The Snapify runs are
/// recorded, and their obs summary is held beside the rows.
fn fig9(report: &mut Report) {
    obs::reset();
    let mut sum = 0.0;
    for spec in suite() {
        obs::disable();
        let stock = runtime(spec.clone(), CoiConfig::stock());
        obs::enable();
        let snap = runtime(spec.clone(), CoiConfig::default());
        let overhead = (snap.as_secs_f64() - stock.as_secs_f64()) / stock.as_secs_f64() * 100.0;
        sum += overhead;
        report
            .row(&format!("fig9/{}", spec.name))
            .field("stock_ns", stock.as_nanos())
            .field("snapify_ns", snap.as_nanos())
            .field("overhead_pct", fixed(overhead, 4));
    }
    obs::disable();
    report
        .row("fig9-mean")
        .field("overhead_pct", fixed(sum / suite().len() as f64, 4))
        .field("paper_overhead_pct", 1.5);
    report.scalar("summary", obs::summary_json());
}

/// The application's result, once its driver thread ends.
type Driver = JoinHandle<Result<WorkloadResult, SnapifyError>>;

/// `then` on a fresh world where `spec` has run 300 ms on card 0, its
/// iteration loop driven by a thread of its own.
fn mid_run<T: Send + 'static>(
    spec: WorkloadSpec,
    then: impl FnOnce(&SnapifyWorld, &WorkloadSpec, &WorkloadRun, Driver) -> T + Send + 'static,
) -> T {
    Kernel::run_root(move || {
        let registry = FunctionRegistry::new();
        register_suite(&registry, std::slice::from_ref(&spec));
        let world = SnapifyWorld::boot(registry);
        let run = Arc::new(WorkloadRun::launch(world.coi(), &spec, 0).unwrap());
        let driver = {
            let run = Arc::clone(&run);
            let host_proc = run.host_proc().clone();
            host_proc.spawn_thread("driver", move || run.run_to_completion())
        };
        simkernel::sleep(ms(300));
        then(&world, &spec, &run, driver)
    })
}

/// **Fig 10(a–c)** — checkpoint of each OpenMP benchmark mid-run, then
/// restart on the other card: (a) the checkpoint's phases, (b) its
/// files, (c) the restart's phases.
fn fig10a_c(report: &mut Report) {
    let runs: Vec<_> = suite()
        .into_iter()
        .map(|spec| {
            mid_run(spec, |world, spec, run, driver| {
                let path = format!("/snap/fig10/{}", spec.name);
                let (_, ckpt) =
                    checkpoint_application(world, run.handle(), &run.host_state(), &path).unwrap();
                let result = driver.join().unwrap();
                assert!(result.verified, "{} failed after checkpoint", spec.name);

                // Kill everything and restart from the snapshot on card 1.
                run.destroy().unwrap();
                run.host_proc().exit();
                let restarted = restart_application(world, &path, &spec.binary_name(), 1).unwrap();
                let resumed = WorkloadRun::resume_after_restart(
                    spec,
                    &restarted.handle,
                    &restarted.host_proc,
                    &restarted.host_state,
                );
                let result = resumed.run_to_completion().unwrap();
                assert!(result.verified, "{} failed after restart", spec.name);
                resumed.destroy().unwrap();
                (spec.name, ckpt, restarted.report)
            })
        })
        .collect();
    for (name, c, _) in &runs {
        report
            .row(&format!("fig10a/{name}"))
            .field("pause_s", s(c.pause))
            .field("host_snapshot_s", s(c.host_snapshot))
            .field("device_snapshot_s", s(c.device_capture))
            .field("resume_s", s(c.resume))
            .field("total_s", s(c.total));
    }
    for (name, c, _) in &runs {
        report
            .row(&format!("fig10b/{name}"))
            .field("host_snapshot_mib", mib(c.host_snapshot_bytes))
            .field("device_snapshot_mib", mib(c.device_snapshot_bytes))
            .field("local_store_mib", mib(c.local_store_bytes));
    }
    for (name, _, r) in &runs {
        let phases = r.offload_breakdown.unwrap_or_default();
        let ns = |ns| s(SimDuration::from_nanos(ns));
        report
            .row(&format!("fig10c/{name}"))
            .field("host_restart_s", s(r.host_restart))
            .field("library_copy_s", ns(phases.library_copy_ns))
            .field("store_copy_s", ns(phases.store_copy_ns))
            .field("blcr_restart_s", ns(phases.blcr_restart_ns))
            .field("offload_restore_s", s(r.offload_restore))
            .field("total_s", s(r.total));
    }
}

/// **Fig 10(d–f)** — each OpenMP benchmark swapped out mid-run and
/// swapped in on the other card: (e) swap-out, (f) swap-in, (d) the
/// migration they make up.
fn fig10d_f(report: &mut Report) {
    for spec in suite() {
        let name = spec.name;
        let (pause, capture, swap_in, moved) = mid_run(spec, |_, spec, run, driver| {
            let snapshot = SnapifyT::new(run.handle(), format!("/snap/swap/{}", spec.name));
            let t0 = simkernel::now();
            snapify_pause(&snapshot).unwrap();
            let paused = simkernel::now();
            snapify_capture(&snapshot, true).unwrap();
            let device_bytes = snapify_wait(&snapshot).unwrap();
            let out = simkernel::now();
            snapify_swapin(&snapshot, 1).unwrap();
            let swapped_in = simkernel::now();

            let result = driver.join().unwrap();
            assert!(result.verified, "{} failed after migration", spec.name);
            assert_eq!(run.handle().device(), 1);
            run.destroy().unwrap();
            let moved = device_bytes + spec.local_store_bytes();
            (paused - t0, out - paused, swapped_in - out, moved)
        });
        report
            .row(&format!("fig10def/{name}"))
            .field("pause_s", s(pause))
            .field("capture_s", s(capture))
            .field("swap_out_s", s(pause + capture))
            .field("swap_in_s", s(swap_in))
            .field("migration_s", s(pause + capture + swap_in))
            .field("snapshot_and_store_mib", mib(moved));
        let paper = match name {
            "MC" => Some(4.9),
            "SS" => Some(31.6),
            _ => None,
        };
        if let Some(x) = paper {
            report.field("paper_migration_s", x);
        }
    }
}

/// **Fig 11** — coordinated checkpoint and restart of the NAS multi-zone
/// benchmarks (class C) at 1, 2 and 4 ranks, one rank and one card per
/// cluster node.
fn fig11(report: &mut Report) {
    for mz in nas_suite() {
        for ranks in [1usize, 2, 4] {
            let mz = mz.clone();
            // Two warm-up iterations: a checkpoint's cost does not depend
            // on how long the solver has run.
            let result = Kernel::run_root(move || run_mz_cr_experiment(&mz, ranks, 2).unwrap());
            report
                .row(&format!("fig11/{}/{ranks}rank", result.name))
                .field("checkpoint_s", s(result.checkpoint_time))
                .field("restart_s", s(result.restart_time))
                .field("per_rank_mib", mib(result.per_rank_checkpoint_bytes));
        }
    }
}

/// 1 GiB written from card 0 to the host through Snapify-IO with a
/// `buffer_size` staging buffer, `step` bytes a write; `sync` makes the
/// daemon wait for the file system after each write.
fn sio_write(buffer_size: u64, step: u64, sync: bool) -> SimDuration {
    Kernel::run_root(move || {
        let server = PhiServer::new(PlatformParams::default());
        let config = SnapifyIoConfig {
            buffer_size,
            ..SnapifyIoConfig::default()
        };
        let io = SnapifyIo::new(&server, config);
        let t0 = simkernel::now();
        let mut sink = io
            .open_write(NodeId::device(0), NodeId::HOST, "/ab/f")
            .unwrap();
        for chunk in Payload::synthetic(1, GB).chunks(step) {
            sink.write(chunk).unwrap();
            if sync {
                server.host().fs().sync();
            }
        }
        sink.close().unwrap();
        simkernel::now() - t0
    })
}

/// **Ablations** (beyond the paper): Snapify-IO's staging-buffer size
/// (§6 fixes 4 MB "to balance between … memory footprint and … transfer
/// latency"), its asynchronous host-side flush (§7 credits the write
/// direction's lead to it), and Fig 9's overhead against the cost of one
/// hook crossing (MD).
fn ablations(report: &mut Report) {
    for (label, buffer_size) in [
        ("256KiB", MB / 4),
        ("1MiB", MB),
        ("4MiB", 4 * MB),
        ("16MiB", 16 * MB),
        ("64MiB", 64 * MB),
    ] {
        report
            .row(&format!("ablation/buffer/{label}"))
            .field("write_s", s(sio_write(buffer_size, 32 * MB, false)))
            .field("device_mem_mib", mib(2 * buffer_size));
    }
    let default = SnapifyIoConfig::default().buffer_size;
    for (label, sync) in [("async", false), ("sync", true)] {
        report
            .row(&format!("ablation/flush/{label}"))
            .field("write_s", s(sio_write(default, 4 * MB, sync)));
    }
    let md = by_name("MD").unwrap().scaled(8, 4);
    let stock = runtime(md.clone(), CoiConfig::stock()).as_secs_f64();
    report
        .row("ablation/hook/stock")
        .field("runtime_s", fixed(stock, 3))
        .field("overhead_pct", fixed(0.0, 2));
    for us in [2, 4, 7, 12, 20] {
        let config = CoiConfig {
            hook_cost: SimDuration::from_micros(us),
            ..CoiConfig::default()
        };
        let run = runtime(md.clone(), config).as_secs_f64();
        report
            .row(&format!("ablation/hook/{us}us"))
            .field("runtime_s", fixed(run, 3))
            .field("overhead_pct", fixed((run - stock) / stock * 100.0, 2));
    }
}

fn main() {
    let mut report = Report::default();
    table3(&mut report);
    table4(&mut report);
    fig9(&mut report);
    fig10a_c(&mut report);
    fig10d_f(&mut report);
    fig11(&mut report);
    ablations(&mut report);
    report.finish("BENCH_paper.json")
}
