//! Per-layer metrics of the traced run, read from outside the program:
//! the existing `simkernel::obs` recorder, the benchmark's own spans,
//! and what the workload took from the public report structs.

use simkernel::obs;

use crate::spans;
use crate::stats::Dist;
use crate::workloads::{ms, Outcome};

const GB: f64 = 1e9;

fn ratio(part: f64, rest: f64) -> f64 {
    if part + rest > 0.0 {
        part / (part + rest)
    } else {
        0.0
    }
}

/// The per-layer metrics the traced child can compute on its own; the
/// parent fills in those that need the untraced run too. `cpu_s` is the
/// process CPU of the recorded repetition; host times are multiplied by
/// `scale` into reference seconds like every other host time.
pub fn collect(out: &Outcome, peak_os_threads: u64, cpu_s: f64, scale: f64) -> Vec<(String, f64)> {
    let summary = obs::Summary::capture();
    let counter = |name: &str| summary.counters.get(name).copied().unwrap_or(0) as f64;
    let duration_mean_ms = |name: &str| {
        summary
            .durations
            .get(name)
            .filter(|d| d.count > 0)
            .map_or(0.0, |d| ms(d.total_ns) / d.count as f64)
    };
    let histogram_mean = |name: &str| {
        summary
            .histograms
            .get(name)
            .filter(|h| h.count > 0)
            .map_or(0.0, |h| h.sum as f64 / h.count as f64)
    };
    let span_host_p50_ms = |name: &str| {
        let samples = spans::samples(name);
        if samples.is_empty() {
            0.0
        } else {
            ms(Dist::of(&samples).p50) * scale
        }
    };
    let aggs = spans::aggs();
    // Totals over the spans of one interposed stream: its calls plus
    // the call that opened it.
    let seam = |stream: &str, open: &str| {
        let mut total = spans::Agg::default();
        for name in [stream, open] {
            if let Some(a) = aggs.get(name) {
                total.cpu_ns += a.cpu_ns;
                total.self_cpu_ns += a.self_cpu_ns;
                total.v_ns += a.v_ns;
                total.self_v_ns += a.self_v_ns;
            }
        }
        total
    };
    let io_sink = seam("snapify-io.sink", "snapify-io.open_sink");
    let io_source = seam("snapify-io.source", "snapify-io.open_source");
    let store_sink = seam("snapstore.sink", "snapstore.open_sink");
    let store_source = seam("snapstore.source", "snapstore.open_source");
    let interposed_cpu_ns =
        io_sink.cpu_ns + io_source.cpu_ns + store_sink.self_cpu_ns + store_source.self_cpu_ns;

    let mut layer: Vec<(String, f64)> = vec![
        ("simkernel.events", out.events as f64),
        ("simkernel.peak_os_threads", peak_os_threads as f64),
        ("platform.pcie_dma_gb", counter("pcie.dma_bytes") / GB),
        ("scif.msgs_sent", counter("scif.msgs_sent")),
        ("scif.rdma_gb", counter("scif.rdma_bytes") / GB),
        ("scif.cluster_msgs", counter("cluster.msgs_sent")),
        ("scif.cluster_gb", counter("cluster.bytes_sent") / GB),
        ("blcr.checkpoints", counter("blcr.checkpoints")),
        ("blcr.restarts", counter("blcr.restarts")),
        ("blcr.snapshot_gb", counter("blcr.snapshot_bytes") / GB),
        (
            "blcr.restart_v_ms_mean",
            histogram_mean("snapify.restore.blcr_restart_ns") / 1e6,
        ),
        ("coi.pause_requests", counter("coi.daemon.pause_requests")),
        (
            "coi.library_copy_v_ms_mean",
            histogram_mean("snapify.restore.library_copy_ns") / 1e6,
        ),
        (
            "coi.store_copy_v_ms_mean",
            histogram_mean("snapify.restore.store_copy_ns") / 1e6,
        ),
        (
            "coi.reregistration_v_ms_mean",
            histogram_mean("snapify.restore.reregistration_ns") / 1e6,
        ),
        (
            "snapify-io.written_gb",
            counter("io.Snapify-IO.bytes_written") / GB,
        ),
        (
            "snapify-io.read_gb",
            counter("io.Snapify-IO.bytes_read") / GB,
        ),
        (
            "snapify-io.chunks_written",
            counter("io.Snapify-IO.chunks_written"),
        ),
        (
            "snapify-io.chunks_read",
            counter("io.Snapify-IO.chunks_read"),
        ),
        ("snapify-io.retries", counter("chaos.retried")),
        ("snapify-io.sink_cpu_ms", ms(io_sink.cpu_ns) * scale),
        ("snapify-io.source_cpu_ms", ms(io_source.cpu_ns) * scale),
        ("snapify-io.sink_v_s", io_sink.v_ns as f64 / 1e9),
        ("snapify-io.source_v_s", io_source.v_ns as f64 / 1e9),
        ("snapstore.chunks_hit", counter("store.chunks_hit")),
        ("snapstore.chunks_miss", counter("store.chunks_miss")),
        (
            "snapstore.capture_hit_ratio",
            ratio(counter("store.chunks_hit"), counter("store.chunks_miss")),
        ),
        ("snapstore.shipped_gb", counter("store.bytes_shipped") / GB),
        ("snapstore.deduped_gb", counter("store.bytes_deduped") / GB),
        (
            "snapstore.capture_dirty_frac",
            ratio(
                counter("snapify.capture.dirty_bytes"),
                counter("snapify.capture.clean_bytes"),
            ),
        ),
        (
            "snapstore.restore_warm_ratio",
            ratio(
                counter("snapify.restore.bytes_avoided"),
                counter("snapify.restore.bytes_fetched"),
            ),
        ),
        (
            "snapstore.restore_fetched_gb",
            counter("snapify.restore.bytes_fetched") / GB,
        ),
        (
            "snapstore.restore_avoided_gb",
            counter("snapify.restore.bytes_avoided") / GB,
        ),
        (
            "snapstore.gc_chunks_freed",
            counter("store.gc.chunks_freed"),
        ),
        (
            "snapstore.restore_overlap_pct_mean",
            histogram_mean("snapify.restore.overlap_pct"),
        ),
        (
            "snapstore.sink_self_cpu_ms",
            ms(store_sink.self_cpu_ns) * scale,
        ),
        (
            "snapstore.source_self_cpu_ms",
            ms(store_source.self_cpu_ns) * scale,
        ),
        ("snapstore.sink_self_v_s", store_sink.self_v_ns as f64 / 1e9),
        (
            "snapstore.source_self_v_s",
            store_source.self_v_ns as f64 / 1e9,
        ),
        ("core.pause_v_ms_mean", duration_mean_ms("snapify.pause")),
        (
            "core.capture_v_ms_mean",
            duration_mean_ms("snapify.capture"),
        ),
        ("core.wait_v_ms_mean", duration_mean_ms("snapify.wait")),
        ("core.resume_v_ms_mean", duration_mean_ms("snapify.resume")),
        (
            "core.restore_v_ms_mean",
            duration_mean_ms("snapify.restore"),
        ),
        (
            "core.swapout_v_ms_mean",
            duration_mean_ms("snapify.swapout"),
        ),
        ("core.swapin_v_ms_mean", duration_mean_ms("snapify.swapin")),
        (
            "core.host_checkpoint_v_ms_mean",
            duration_mean_ms("snapify.host_checkpoint"),
        ),
        ("core.boot_host_ms_p50", span_host_p50_ms("core.boot")),
        (
            "core.checkpoint_host_ms_p50",
            span_host_p50_ms("core.checkpoint"),
        ),
        ("core.restart_host_ms_p50", span_host_p50_ms("core.restart")),
        ("core.park_host_ms_p50", span_host_p50_ms("core.park")),
        ("core.swap_in_host_ms_p50", span_host_p50_ms("core.swap_in")),
        (
            "core.fleet.launch_v_ms_mean",
            duration_mean_ms("fleet.launch"),
        ),
        (
            "core.fleet.migrate_out_v_ms_mean",
            duration_mean_ms("fleet.migrate_out"),
        ),
        (
            "core.fleet.restore_in_v_ms_mean",
            duration_mean_ms("fleet.restore_in"),
        ),
        ("obs.events_total", obs::events_total() as f64),
        (
            "other.cpu_ms",
            (cpu_s * 1e3 - ms(interposed_cpu_ns)) * scale,
        ),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect();
    layer.extend(out.layer.iter().map(|(n, v)| (n.to_string(), *v)));
    layer
}
