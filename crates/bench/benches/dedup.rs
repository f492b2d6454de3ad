//! Content-addressed store: cold vs. warm swap-out, dedup ratio, and
//! pipeline overlap gain.
//!
//! The swap scheduler (§5 Remark) re-ships a near-identical image every
//! time-slice; the dedup store makes the second shipment almost free.
//! This harness measures, per workload tenant: the cold swap-out (every
//! chunk novel), the warm swap-out of the unchanged tenant (manifest +
//! headers only), the resulting byte-level dedup ratio, and the
//! simulated-time gain from overlapping chunk digesting with chunk
//! shipping (pipelined vs. serial capture of the same image).
//!
//! Pass `--quick` for a fast smoke run (CI).
//! Ends by holding its rows against the committed `BENCH_dedup.json`
//! (`snapify_bench::report`).

use coi_sim::{CoiConfig, DeviceBinary, FunctionRegistry};
use phi_platform::{FaultSchedule, NodeId, Payload, PhiServer, PlatformParams, GB, MB};
use simkernel::Kernel;
use simproc::SnapshotStorage;
use snapify::{SnapifyWorld, SwapScheduler};
use snapify_bench::report::{fixed, Report};
use snapify_io::SnapifyIo;
use snapstore::{Dedup, DedupConfig};

struct Row {
    name: String,
    cold: simkernel::SimDuration,
    warm: simkernel::SimDuration,
    cold_shipped: u64,
    warm_shipped: u64,
    pipelined: simkernel::SimDuration,
    serial: simkernel::SimDuration,
}

impl Row {
    /// Fraction of the cold shipment the warm pass avoided.
    fn dedup_ratio(&self) -> f64 {
        if self.cold_shipped == 0 {
            return 0.0;
        }
        1.0 - self.warm_shipped as f64 / self.cold_shipped as f64
    }

    fn overlap_gain(&self) -> f64 {
        if self.pipelined.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.serial.as_secs_f64() / self.pipelined.as_secs_f64()
    }
}

fn registry(store_bytes: u64) -> FunctionRegistry {
    let reg = FunctionRegistry::new();
    reg.register(
        DeviceBinary::new("tenant.so", MB, 32 * MB).simple_function("spin", move |ctx| {
            ctx.compute(1e9, 60);
            Vec::new()
        }),
    );
    let _ = store_bytes;
    reg
}

/// Swap one tenant out cold, back in, and out again warm; report times
/// and shipped bytes from the store's own counters.
fn swap_cycle(name: &str, buffer_bytes: u64) -> Row {
    let label = name.to_string();
    Kernel::run_root(move || {
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            CoiConfig::default(),
            registry(buffer_bytes),
            FaultSchedule::none(),
            Some(DedupConfig::default()),
        );
        let store = world.store().unwrap().clone();
        let sched = SwapScheduler::new(1, "/swap/bench").with_store(&store);
        let host = world.coi().create_host_process("t");
        let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
        let buf = h.create_buffer(buffer_bytes).unwrap();
        h.buffer_write(&buf, Payload::synthetic(42, buffer_bytes))
            .unwrap();
        let id = sched.admit(&h, 0);

        let t0 = simkernel::now();
        sched.park(id).unwrap();
        let t1 = simkernel::now();
        let cold_shipped = store.stats().bytes_shipped;

        sched.rotate().unwrap();

        let t2 = simkernel::now();
        sched.park(id).unwrap();
        let t3 = simkernel::now();
        let warm_shipped = store.stats().bytes_shipped - cold_shipped;

        // Pipeline overlap on the same image size, isolated from the
        // swap machinery: one big stream through pipelined vs. serial
        // dedup over the Snapify-IO transport.
        let (pipelined, serial) = pipeline_compare(world.server(), buffer_bytes);

        Row {
            name: label,
            cold: t1 - t0,
            warm: t3 - t2,
            cold_shipped,
            warm_shipped,
            pipelined,
            serial,
        }
    })
}

fn pipeline_compare(
    server: &PhiServer,
    size: u64,
) -> (simkernel::SimDuration, simkernel::SimDuration) {
    let time_one = |pipelined: bool, path: &str| {
        let backend = std::sync::Arc::new(SnapifyIo::new_default(server));
        let store = Dedup::new(
            server,
            backend,
            DedupConfig {
                pipelined,
                ..DedupConfig::default()
            },
        );
        let data = Payload::synthetic(7, size);
        let t0 = simkernel::now();
        let mut sink = store.sink(NodeId::device(0), path).unwrap();
        for chunk in data.chunks(8 * MB) {
            sink.write(chunk).unwrap();
        }
        sink.close().unwrap();
        simkernel::now() - t0
    };
    (
        time_one(true, "/bench/piped"),
        time_one(false, "/bench/serial"),
    )
}

fn main() {
    let quick = snapify_bench::quick();
    let sizes: &[(&str, u64)] = if quick {
        &[("tenant-512M", 512 * MB)]
    } else {
        &[
            ("tenant-512M", 512 * MB),
            ("tenant-1G", GB),
            ("tenant-2G", 2 * GB),
        ]
    };
    let rows: Vec<Row> = sizes.iter().map(|(n, s)| swap_cycle(n, *s)).collect();

    for r in &rows {
        assert!(
            r.dedup_ratio() >= 0.8,
            "{}: warm swap-out must ship >=80% fewer bytes (got {:.1}%)",
            r.name,
            r.dedup_ratio() * 100.0
        );
    }

    let mut report = Report::default();
    for r in &rows {
        report
            .row(&r.name)
            .field("cold_secs", fixed(r.cold.as_secs_f64(), 6))
            .field("warm_secs", fixed(r.warm.as_secs_f64(), 6))
            .field("cold_shipped_bytes", r.cold_shipped)
            .field("warm_shipped_bytes", r.warm_shipped)
            .field("dedup_ratio", fixed(r.dedup_ratio(), 4))
            .field("pipelined_secs", fixed(r.pipelined.as_secs_f64(), 6))
            .field("serial_secs", fixed(r.serial.as_secs_f64(), 6))
            .field("overlap_gain", fixed(r.overlap_gain(), 4));
    }
    report.finish("BENCH_dedup.json")
}
