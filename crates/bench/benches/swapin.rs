//! Restore fast path: cold vs. warm swap-in, and restore pipeline gain.
//!
//! The mirror image of `dedup.rs`: that harness shows the second
//! swap-*out* of an unchanged tenant is almost free; this one shows the
//! swap-*in* is too. Chunks that survived on the host since the last
//! swap-out are replayed from the warm cache instead of re-shipped, and
//! the cold chunks that do ship are prefetched one chunk ahead of the
//! BLCR stream replay. Per tenant size: cold swap-in (cache disabled),
//! warm swap-in of the unchanged tenant, byte reduction from the
//! store's restore counters, and the pipelined-vs-serial restore gain
//! on a cache-disabled store. Beside those virtual-time rows, two host
//! rates of the data path's own kernels — `Payload::digest` over real
//! bytes and warm-cache eviction — recorded as floored wall-clock fields.
//!
//! Pass `--quick` for a fast smoke run (CI).
//! Ends by holding its rows against the committed `BENCH_swapin.json`
//! (`snapify_bench::report`).

use std::hint::black_box;
use std::time::Instant;

use coi_sim::{DeviceBinary, FunctionRegistry};
use phi_platform::{FaultSchedule, NodeId, Payload, PhiServer, PlatformParams, GB, MB};
use simkernel::Kernel;
use simproc::SnapshotStorage;
use snapify::{SnapifyWorld, SwapScheduler};
use snapify_bench::report::{fixed, Report};
use snapify_io::SnapifyIo;
use snapstore::{CachePolicy, Dedup, DedupConfig};

struct Row {
    name: String,
    cold: simkernel::SimDuration,
    warm: simkernel::SimDuration,
    cold_fetched: u64,
    warm_fetched: u64,
    warm_avoided: u64,
    pipelined: simkernel::SimDuration,
    serial: simkernel::SimDuration,
}

impl Row {
    /// Fraction of the cold fetch the warm swap-in avoided shipping.
    fn byte_reduction(&self) -> f64 {
        if self.cold_fetched == 0 {
            return 0.0;
        }
        1.0 - self.warm_fetched as f64 / self.cold_fetched as f64
    }

    fn speedup(&self) -> f64 {
        if self.warm.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.cold.as_secs_f64() / self.warm.as_secs_f64()
    }

    fn overlap_gain(&self) -> f64 {
        if self.pipelined.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.serial.as_secs_f64() / self.pipelined.as_secs_f64()
    }
}

fn registry() -> FunctionRegistry {
    let reg = FunctionRegistry::new();
    reg.register(
        DeviceBinary::new("tenant.so", MB, 32 * MB).simple_function("spin", |ctx| {
            ctx.compute(1e9, 60);
            Vec::new()
        }),
    );
    reg
}

/// Park one tenant and time the rotation that brings it back, with the
/// warm restore cache sized `cache_bytes` (0 = cold baseline). Returns
/// (swap-in time, restore bytes fetched, restore bytes avoided).
fn swapin_once(buffer_bytes: u64, cache_bytes: u64) -> (simkernel::SimDuration, u64, u64) {
    Kernel::run_root(move || {
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            coi_sim::CoiConfig::default(),
            registry(),
            FaultSchedule::none(),
            Some(DedupConfig {
                restore_cache_bytes: cache_bytes,
                ..DedupConfig::default()
            }),
        );
        let store = world.store().unwrap().clone();
        let sched = SwapScheduler::new(1, "/swap/bench-in").with_store(&store);
        let host = world.coi().create_host_process("t");
        let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
        let buf = h.create_buffer(buffer_bytes).unwrap();
        h.buffer_write(&buf, Payload::synthetic(42, buffer_bytes))
            .unwrap();
        let id = sched.admit(&h, 0);
        sched.park(id).unwrap();

        let before = store.stats();
        let t0 = simkernel::now();
        sched.rotate().unwrap();
        let elapsed = simkernel::now() - t0;
        let after = store.stats();

        assert!(sched.is_resident(id));
        assert_eq!(
            h.buffer_read(&buf).unwrap().digest(),
            Payload::synthetic(42, buffer_bytes).digest(),
            "restore fast path corrupted the tenant"
        );
        (
            elapsed,
            after.restore_bytes_fetched - before.restore_bytes_fetched,
            after.restore_bytes_avoided - before.restore_bytes_avoided,
        )
    })
}

/// Capture `data` from device 0 to `path`, `step` bytes a write.
fn capture(store: &Dedup, path: &str, data: &Payload, step: u64) {
    let mut sink = store.sink(NodeId::device(0), path).unwrap();
    for chunk in data.chunks(step) {
        sink.write(chunk).unwrap();
    }
    sink.close().unwrap();
}

/// Restore-pipeline overlap isolated from the swap machinery: the same
/// image read back through a cache-disabled store with the prefetcher
/// on vs. off (cold fetch of chunk k+1 overlapping replay of chunk k).
fn restore_pipeline_compare(
    server: &PhiServer,
    size: u64,
) -> (simkernel::SimDuration, simkernel::SimDuration) {
    let time_one = |pipelined: bool, path: &str| {
        let backend = std::sync::Arc::new(SnapifyIo::new_default(server));
        let store = Dedup::new(
            server,
            backend,
            DedupConfig {
                restore_cache_bytes: 0,
                restore_pipelined: pipelined,
                ..DedupConfig::default()
            },
        );
        let data = Payload::synthetic(7, size);
        capture(&store, path, &data, 8 * MB);
        let t0 = simkernel::now();
        let mut src = store.source(NodeId::device(0), path).unwrap();
        let mut total = 0;
        while let Some(chunk) = src.read(8 * MB).unwrap() {
            total += chunk.len();
        }
        assert_eq!(total, data.len(), "restore stream truncated");
        simkernel::now() - t0
    };
    (
        time_one(true, "/bench/restore-piped"),
        time_one(false, "/bench/restore-serial"),
    )
}

/// Host rate of `Payload::digest` over real bytes: one 1 MiB run, the
/// fastest of six batches of sixteen passes.
fn digest_real_mib_per_s() -> f64 {
    let data: Vec<u8> = (0..(1 << 20)).map(|i| (i % 251) as u8).collect();
    let real = Payload::bytes(data);
    let batch = |_| {
        let t0 = Instant::now();
        for _ in 0..16 {
            black_box(black_box(&real).digest());
        }
        t0.elapsed().as_secs_f64()
    };
    16.0 / (0..6).map(batch).fold(f64::INFINITY, f64::min)
}

/// Host rate of warm-cache evictions, through the store: a 4,096-chunk
/// cache under `Popularity`, filled by the capture of one image, then
/// another image of 4,096 chunks read back through it. Every chunk of
/// the read arrives cold and evicts one resident, so the timed region is
/// 4,096 evictions from a full cache plus the serial restore path that
/// carries them.
fn warm_evictions_per_s() -> f64 {
    const CHUNK: u64 = 4 * MB; // the store's cut
    const RESIDENT: u64 = 4096;
    Kernel::run_root(|| {
        let server = PhiServer::new(PlatformParams::default());
        let backend = std::sync::Arc::new(SnapifyIo::new_default(&server));
        let config = DedupConfig {
            restore_cache_bytes: RESIDENT * CHUNK,
            cache_policy: CachePolicy::Popularity,
            restore_pipelined: false,
            ..DedupConfig::default()
        };
        let store = Dedup::new(&server, backend, config);
        for (tag, path) in [(1, "/bench/evicted"), (2, "/bench/resident")] {
            capture(
                &store,
                path,
                &Payload::synthetic(tag, RESIDENT * CHUNK),
                CHUNK,
            );
        }
        let t0 = Instant::now();
        let mut src = store.source(NodeId::device(0), "/bench/evicted").unwrap();
        while src.read(CHUNK).unwrap().is_some() {}
        let secs = t0.elapsed().as_secs_f64();
        let stats = store.stats();
        let restored = (stats.restore_chunks_cold, stats.restore_chunks_warm);
        assert_eq!(restored, (RESIDENT, 0), "every chunk must arrive cold");
        RESIDENT as f64 / secs
    })
}

fn swapin_row(name: &str, buffer_bytes: u64) -> Row {
    let (cold, cold_fetched, _) = swapin_once(buffer_bytes, 0);
    let (warm, warm_fetched, warm_avoided) = swapin_once(buffer_bytes, 4 << 30);
    let (pipelined, serial) = Kernel::run_root(move || {
        let server = PhiServer::new(PlatformParams::default());
        restore_pipeline_compare(&server, buffer_bytes)
    });
    Row {
        name: name.to_string(),
        cold,
        warm,
        cold_fetched,
        warm_fetched,
        warm_avoided,
        pipelined,
        serial,
    }
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
    let rows: Vec<Row> = sizes.iter().map(|(n, s)| swapin_row(n, *s)).collect();

    for r in &rows {
        assert!(
            r.byte_reduction() >= 0.8,
            "{}: warm swap-in must ship >=80% fewer bytes (got {:.1}%)",
            r.name,
            r.byte_reduction() * 100.0
        );
        assert!(
            r.speedup() >= 2.0,
            "{}: warm swap-in must be >=2x faster (got {:.2}x)",
            r.name,
            r.speedup()
        );
        assert!(
            r.overlap_gain() >= 1.0,
            "{}: pipelined restore must not lose to serial (got {:.2}x)",
            r.name,
            r.overlap_gain()
        );
    }

    let mut report = Report::default();
    for r in &rows {
        report
            .row(&r.name)
            .field("cold_secs", fixed(r.cold.as_secs_f64(), 6))
            .field("warm_secs", fixed(r.warm.as_secs_f64(), 6))
            .field("cold_fetched_bytes", r.cold_fetched)
            .field("warm_fetched_bytes", r.warm_fetched)
            .field("warm_avoided_bytes", r.warm_avoided)
            .field("byte_reduction", fixed(r.byte_reduction(), 4))
            .field("speedup", fixed(r.speedup(), 4))
            .field("pipelined_secs", fixed(r.pipelined.as_secs_f64(), 6))
            .field("serial_secs", fixed(r.serial.as_secs_f64(), 6))
            .field("overlap_gain", fixed(r.overlap_gain(), 4));
    }
    // The data path's two host kernels, measured the same in either
    // mode: a collapse of either (a per-byte digest, a cache that scans
    // itself to evict) fails the floor.
    let (digest, evictions) = (digest_real_mib_per_s(), warm_evictions_per_s());
    report
        .wall_clock("digest_real_mib_per_s", Some(0.35))
        .wall_clock("warm_evictions_per_s", Some(0.35))
        .scalar("digest_real_mib_per_s", fixed(digest, 1))
        .scalar("warm_evictions_per_s", fixed(evictions, 1));
    report.finish("BENCH_swapin.json")
}
