//! Incremental O(dirty) warm capture: delta swap-out vs. the always-full
//! baseline on a lightly-touched tenant.
//!
//! The swap scheduler re-parks tenants that barely moved between
//! time-slices; with per-region dirty state the warm capture reads,
//! chunks and digests only the touched buffers while the store's region
//! ledger replays every clean region from the prior snapshot's chunks.
//! This harness measures, per tenant shape: the always-full warm park
//! (`incremental_rebase_every = 1`), the incremental warm park
//! (`incremental_rebase_every = 0`), the resulting virtual-time speedup,
//! and the fraction of the image that entered the hash pipeline.
//!
//! Pass `--quick` for a fast smoke run (CI).
//! Ends by holding its rows against the committed
//! `BENCH_incremental.json` (`snapify_bench::report`).

use coi_sim::{CoiConfig, DeviceBinary, FunctionRegistry};
use phi_platform::{FaultSchedule, Payload, PlatformParams, MB};
use simkernel::Kernel;
use snapify::{SnapifyWorld, SwapScheduler};
use snapify_bench::report::{fixed, Report};
use snapstore::DedupConfig;

struct Row {
    name: String,
    full: simkernel::SimDuration,
    incremental: simkernel::SimDuration,
    dirty_bytes: u64,
    clean_bytes: u64,
    /// Dirty buffers out of total — ≤ 0.10 rows carry the O(dirty)
    /// shape assertions.
    dirty_fraction: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.incremental.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.full.as_secs_f64() / self.incremental.as_secs_f64()
    }

    /// Fraction of the warm image that was read/chunked/digested.
    fn hashed_fraction(&self) -> f64 {
        let image = self.dirty_bytes + self.clean_bytes;
        if image == 0 {
            return 1.0;
        }
        self.dirty_bytes as f64 / image as f64
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

/// One warm-park cycle: cold park, rotate back in, rewrite `dirty` of
/// the `bufs` buffers, park again. Returns the warm park's virtual
/// duration and its dirty/clean capture byte deltas.
fn warm_park(bufs: u64, buf_bytes: u64, dirty: u64, rebase_every: u32) -> (u64, u64, u64) {
    Kernel::run_root(move || {
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            CoiConfig::default(),
            registry(),
            FaultSchedule::none(),
            Some(DedupConfig {
                incremental_rebase_every: rebase_every,
                ..DedupConfig::default()
            }),
        );
        let store = world.store().unwrap().clone();
        let sched = SwapScheduler::new(1, "/bench/incr").with_store(&store);
        let host = world.coi().create_host_process("t");
        let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
        let mut handles = Vec::new();
        for i in 0..bufs {
            let b = h.create_buffer(buf_bytes).unwrap();
            h.buffer_write(&b, Payload::synthetic(100 + i, buf_bytes))
                .unwrap();
            handles.push(b);
        }
        let id = sched.admit(&h, 0);
        sched.park(id).unwrap();
        sched.rotate().unwrap();
        for (i, b) in handles.iter().take(dirty as usize).enumerate() {
            h.buffer_write(b, Payload::synthetic(9000 + i as u64, buf_bytes))
                .unwrap();
        }
        let s0 = store.stats();
        let t0 = simkernel::now();
        sched.park(id).unwrap();
        let warm_ns = (simkernel::now() - t0).as_nanos();

        // Whatever the capture strategy, the tenant restores
        // bit-identically, dirty buffers included.
        sched.rotate().unwrap();
        for (i, b) in handles.iter().enumerate() {
            let want = if (i as u64) < dirty {
                Payload::synthetic(9000 + i as u64, buf_bytes)
            } else {
                Payload::synthetic(100 + i as u64, buf_bytes)
            };
            assert_eq!(
                h.buffer_read(b).unwrap().digest(),
                want.digest(),
                "buffer {i} corrupted (rebase_every={rebase_every})"
            );
        }
        let s1 = store.stats();
        (
            warm_ns,
            s1.capture_dirty_bytes - s0.capture_dirty_bytes,
            s1.capture_clean_bytes - s0.capture_clean_bytes,
        )
    })
}

fn cycle(name: &str, bufs: u64, buf_bytes: u64, dirty: u64) -> Row {
    // rebase_every = 1 is the always-full baseline; 0 never rebases.
    let (full_ns, full_dirty, full_clean) = warm_park(bufs, buf_bytes, dirty, 1);
    assert_eq!(full_clean, 0, "{name}: the full baseline never reuses");
    assert!(full_dirty >= bufs * buf_bytes);
    let (inc_ns, inc_dirty, inc_clean) = warm_park(bufs, buf_bytes, dirty, 0);
    // Only the warm park's capture bytes count toward the hashed
    // fraction; the rotate after it restores, which adds none.
    Row {
        name: name.to_string(),
        full: simkernel::SimDuration::from_nanos(full_ns),
        incremental: simkernel::SimDuration::from_nanos(inc_ns),
        dirty_bytes: inc_dirty,
        clean_bytes: inc_clean,
        dirty_fraction: dirty as f64 / bufs as f64,
    }
}

fn main() {
    let quick = snapify_bench::quick();
    // (name, buffers, buffer bytes, dirty buffers between parks)
    let shapes: &[(&str, u64, u64, u64)] = if quick {
        &[("tenant-5G-20x256M-1dirty", 20, 256 * MB, 1)]
    } else {
        &[
            ("tenant-5G-20x256M-1dirty", 20, 256 * MB, 1),
            ("tenant-5G-40x128M-8dirty", 40, 128 * MB, 8),
            ("tenant-5G-20x256M-5dirty", 20, 256 * MB, 5),
        ]
    };
    let rows: Vec<Row> = shapes
        .iter()
        .map(|(n, b, s, d)| cycle(n, *b, *s, *d))
        .collect();

    for r in &rows {
        assert!(
            r.clean_bytes > 0,
            "{}: incremental capture never replayed a clean region",
            r.name
        );
        if r.dirty_fraction <= 0.10 {
            assert!(
                r.speedup() >= 5.0,
                "{}: O(dirty) warm park must be >=5x faster (got {:.2}x)",
                r.name,
                r.speedup()
            );
            assert!(
                r.hashed_fraction() <= 0.20,
                "{}: warm park must hash <=20% of the image (got {:.1}%)",
                r.name,
                r.hashed_fraction() * 100.0
            );
        }
    }

    let mut report = Report::default();
    for r in &rows {
        report
            .row(&r.name)
            .field("full_secs", fixed(r.full.as_secs_f64(), 6))
            .field("incremental_secs", fixed(r.incremental.as_secs_f64(), 6))
            .field("dirty_bytes", r.dirty_bytes)
            .field("clean_bytes", r.clean_bytes)
            .field("speedup", fixed(r.speedup(), 4))
            .field("hashed_fraction", fixed(r.hashed_fraction(), 4));
    }
    report.finish("BENCH_incremental.json")
}
