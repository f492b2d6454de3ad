//! The paper's evaluation claims, encoded as assertions (at reduced
//! scale, so they run in the normal test suite). The full-scale numbers
//! are produced by `cargo bench`; these tests pin the *shapes* so a
//! regression in any cost model or protocol fails CI.

use snapify_repro::coi_sim::{CoiConfig, FunctionRegistry};
use snapify_repro::phi_platform::{FaultSchedule, NodeId, Payload, PhiServer, PlatformParams, MB};
use snapify_repro::prelude::*;
use snapify_repro::simproc::SnapshotStorage;
use snapify_repro::snapify_io::{Nfs, NfsConfig, NfsMode, Scp, ScpConfig, SnapifyIo};
use snapify_repro::workloads::{by_name, register_suite, suite};

fn write_time(method: &dyn SnapshotStorage, size: u64) -> f64 {
    let t0 = simkernel::now();
    let mut sink = method.sink(NodeId::device(0), "/shape/f").unwrap();
    for chunk in Payload::synthetic(size, size).chunks(8 << 20) {
        sink.write(chunk).unwrap();
    }
    sink.close().unwrap();
    (simkernel::now() - t0).as_secs_f64()
}

/// Table 3 shape: at large sizes Snapify-IO ≫ NFS ≫ scp; at 1 MB NFS wins.
#[test]
fn table3_ordering() {
    Kernel::run_root(|| {
        let server = PhiServer::new(PlatformParams::default());
        let sio = SnapifyIo::new_default(&server);
        let nfs = Nfs::new(&server, NfsConfig::default(), NfsMode::Plain);
        let scp = Scp::new(&server, ScpConfig::default());
        // 256 MB: clear ordering.
        let (t_sio, t_nfs, t_scp) = (
            write_time(&sio, 256 * MB),
            write_time(&nfs, 256 * MB),
            write_time(&scp, 256 * MB),
        );
        assert!(t_sio < t_nfs && t_nfs < t_scp, "{t_sio} {t_nfs} {t_scp}");
        assert!(t_nfs / t_sio > 3.0, "Snapify-IO must beat NFS by multiples");
        assert!(t_scp / t_sio > 15.0, "Snapify-IO must beat scp by >15x");
        // 1 MB: NFS wins (Snapify-IO pays its open overhead).
        assert!(write_time(&nfs, MB) < write_time(&sio, MB));
    });
}

/// Table 4 shape: Snapify-IO checkpoint speedup over NFS grows with
/// snapshot size; kernel buffering beats user buffering beats plain NFS.
#[test]
fn table4_ordering() {
    Kernel::run_root(|| {
        use snapify_repro::blcr_sim::{checkpoint, BlcrConfig};
        use snapify_repro::simproc::{PidAllocator, SimProcess};
        let server = PhiServer::new(PlatformParams::default());
        let node = server.device(0).clone();
        let pids = PidAllocator::new();
        let cfg = BlcrConfig::default();
        let methods: Vec<Box<dyn SnapshotStorage>> = vec![
            Box::new(Nfs::new(&server, NfsConfig::default(), NfsMode::Plain)),
            Box::new(Nfs::new(
                &server,
                NfsConfig::default(),
                NfsMode::BufferedKernel,
            )),
            Box::new(Nfs::new(
                &server,
                NfsConfig::default(),
                NfsMode::BufferedUser,
            )),
            Box::new(SnapifyIo::new_default(&server)),
        ];
        let time_ckpt = |m: &dyn SnapshotStorage, size: u64, tag: u64| -> f64 {
            let proc = SimProcess::new(pids.alloc(), "native", &node);
            proc.memory()
                .map_region("malloc", Payload::synthetic(tag, size))
                .unwrap();
            let t0 = simkernel::now();
            let mut sink = m.sink(node.id(), "/shape/ck").unwrap();
            checkpoint(&cfg, &proc, &[], sink.as_mut()).unwrap();
            let d = (simkernel::now() - t0).as_secs_f64();
            proc.exit();
            d
        };
        let size = 256 * MB;
        let nfs = time_ckpt(methods[0].as_ref(), size, 1);
        let kbuf = time_ckpt(methods[1].as_ref(), size, 2);
        let ubuf = time_ckpt(methods[2].as_ref(), size, 3);
        let sio = time_ckpt(methods[3].as_ref(), size, 4);
        assert!(
            sio < kbuf && kbuf < ubuf && ubuf < nfs,
            "{sio} {kbuf} {ubuf} {nfs}"
        );
        // Speedup grows with size.
        let small_ratio =
            time_ckpt(methods[0].as_ref(), MB, 5) / time_ckpt(methods[3].as_ref(), MB, 6);
        let big_ratio = nfs / sio;
        assert!(big_ratio > small_ratio, "speedup must grow with size");
    });
}

/// Fig 9 shape: Snapify's hooks cost something, but less than 5%, and MD
/// (most frequent offload regions) pays the most.
#[test]
fn fig9_overhead_bounds() {
    let run = |name: &'static str, config: CoiConfig| -> f64 {
        Kernel::run_root(move || {
            let spec = by_name(name).unwrap().scaled(32, 8);
            let registry = FunctionRegistry::new();
            register_suite(&registry, std::slice::from_ref(&spec));
            let world = SnapifyWorld::boot_with(
                PlatformParams::default(),
                config,
                registry,
                FaultSchedule::none(),
                None,
            );
            let r = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
            let result = r.run_to_completion().unwrap();
            assert!(result.verified);
            r.destroy().unwrap();
            result.runtime.as_secs_f64()
        })
    };
    let overhead = |name: &'static str| -> f64 {
        let stock = run(name, CoiConfig::stock());
        let snap = run(name, CoiConfig::default());
        (snap - stock) / stock * 100.0
    };
    let md = overhead("MD");
    let mc = overhead("MC");
    assert!(md > 0.0 && md < 8.0, "MD overhead out of range: {md:.2}%");
    assert!(mc < 1.0, "MC overhead should be tiny: {mc:.2}%");
    assert!(md > mc, "MD must pay the most (most frequent regions)");
}

/// Fig 10 shape: SS/SG pause (local store) dominates their checkpoint;
/// for buffer-light benchmarks the device snapshot dominates instead,
/// and swap-in is slower than swap-out.
#[test]
fn fig10_store_vs_snapshot_shapes() {
    Kernel::run_root(|| {
        let specs: Vec<WorkloadSpec> = suite().iter().map(|s| s.scaled(16, 100)).collect();
        let registry = FunctionRegistry::new();
        register_suite(&registry, &specs);
        let world = SnapifyWorld::boot(registry);

        let mut rows = Vec::new();
        for spec in &specs {
            let run = WorkloadRun::launch(world.coi(), spec, 0).unwrap();
            let handle = run.handle().clone();
            let t0 = simkernel::now();
            let snap = snapify_swapout(&handle, &format!("/shape/{}", spec.name)).unwrap();
            let t_out = simkernel::now();
            snapify_swapin(&snap, 1).unwrap();
            let t_in = simkernel::now();
            rows.push((
                spec.name,
                (t_out - t0).as_secs_f64(),
                (t_in - t_out).as_secs_f64(),
            ));
            run.destroy().unwrap();
        }
        for (name, out, inn) in &rows {
            assert!(
                inn > out,
                "{name}: swap-in ({inn}) must exceed swap-out ({out})"
            );
        }
        // SS (largest store+host) must be the slowest to swap out; MC the
        // fastest.
        let slowest = rows.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        let fastest = rows.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(slowest.0, "SS");
        assert_eq!(fastest.0, "MC");
    });
}

/// Fig 11 shape: per-rank checkpoint size and CR time shrink with rank
/// count (asserted in `workloads::nas` tests at tiny scale; here we pin
/// the size arithmetic).
#[test]
fn fig11_partition_arithmetic() {
    use snapify_repro::workloads::nas::nas_suite;
    for mz in nas_suite() {
        let w1 = mz.per_rank(1);
        let w4 = mz.per_rank(4);
        assert_eq!(w1.host_bytes, 4 * w4.host_bytes);
        assert_eq!(w1.device_resident_bytes, 4 * w4.device_resident_bytes);
        assert_eq!(w1.store_bytes, 4 * w4.store_bytes);
        // Halo per rank does not shrink (surface, not volume).
        assert_eq!(w1.in_bytes, w4.in_bytes);
    }
}
