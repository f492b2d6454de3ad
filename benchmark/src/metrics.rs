//! The metric names, units and bounds — the same tables
//! `BENCHMARK.json` freezes (a unit test compares the two).
//!
//! Two clocks, named in every metric: `_v_` = virtual (simulated) time;
//! everything else timed is host time.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: measured with tracing off, emitted by every
/// workload, never 0, lower is better for all.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may get worse. Host
    /// metrics: what a shared host allows. Virtual metrics and bytes
    /// repeat exactly for a seed (`check` demands identity); their
    /// bounds only have to clear the spread *across* seeds, which the
    /// builder's driver measures.
    pub bound: f64,
    /// Whether it repeats exactly for a seed.
    pub exact: bool,
}

/// The end-to-end metrics. Host times are in *reference seconds*:
/// measured seconds scaled by the run's hand-off probe (see `probe`).
///
/// The wall clock of the timed region is not among them. On this shared
/// host it spread 14–30% over ten runs (6–23% probe-scaled) however it
/// was measured, which no bound the builder's contract allows can hold;
/// it is reported per layer (`simkernel.wall_ref_s`, `wall_raw_s`) for
/// paired comparisons. What carries a bound instead is what repeats:
/// the scheduler hand-offs the run needed, peak memory, and — where the
/// contract exempts it from the spread rule — `setup_s`, which on
/// `ckpt-restart` is the same work as the timed rounds and on the
/// monolithic scenarios is the population build that dominates them.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "host_ctx_switches",
        unit: "count",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "v_makespan_s",
        unit: "s",
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: "shipped_gb",
        unit: "GB",
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "op_v_mean_ms",
        unit: "ms",
        bound: 0.15,
        exact: true,
    },
];

/// One per-layer metric (layer = crate name, before the first dot).
/// Emitted by every workload in the traced run; 0 where the layer is
/// not reached.
pub struct PerLayer {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics.
pub const PER_LAYER: [PerLayer; 89] = [
    // simkernel: Kernel::enable_trace + trace_len; getrusage; the
    // untraced run's unscaled wall and CPU and its probe level; a 5 ms
    // sampler of `Threads:`; the fleet re-run at `domains: 2`.
    lower("simkernel.events", "count"),
    lower("simkernel.wall_ref_s", "s"),
    lower("simkernel.wall_raw_s", "s"),
    lower("simkernel.cpu_s", "s"),
    lower("simkernel.handoff_probe_ns", "ns"),
    lower("simkernel.host_us_per_event", "us"),
    lower("simkernel.ctx_switches_per_event", "ratio"),
    lower("simkernel.sys_cpu_frac", "ratio"),
    lower("simkernel.peak_os_threads", "count"),
    lower("simkernel.domain.d2_wall_ratio", "ratio"),
    // platform, scif, blcr, coi: obs counters and histograms.
    lower("platform.pcie_dma_gb", "GB"),
    lower("scif.msgs_sent", "count"),
    lower("scif.rdma_gb", "GB"),
    lower("scif.cluster_msgs", "count"),
    lower("scif.cluster_gb", "GB"),
    lower("blcr.checkpoints", "count"),
    lower("blcr.restarts", "count"),
    lower("blcr.snapshot_gb", "GB"),
    lower("blcr.restart_v_ms_mean", "ms"),
    lower("coi.pause_requests", "count"),
    lower("coi.library_copy_v_ms_mean", "ms"),
    lower("coi.store_copy_v_ms_mean", "ms"),
    lower("coi.reregistration_v_ms_mean", "ms"),
    // snapify-io: obs `io.Snapify-IO.*`; the storage interposer.
    lower("snapify-io.written_gb", "GB"),
    lower("snapify-io.read_gb", "GB"),
    lower("snapify-io.chunks_written", "count"),
    lower("snapify-io.chunks_read", "count"),
    lower("snapify-io.retries", "count"),
    lower("snapify-io.sink_cpu_ms", "ms"),
    lower("snapify-io.source_cpu_ms", "ms"),
    lower("snapify-io.sink_v_s", "s"),
    lower("snapify-io.source_v_s", "s"),
    // snapstore: obs `store.*`, `snapify.restore.*`; PoolStats; the
    // storage interposer.
    higher("snapstore.chunks_hit", "count"),
    lower("snapstore.chunks_miss", "count"),
    higher("snapstore.capture_hit_ratio", "ratio"),
    lower("snapstore.shipped_gb", "GB"),
    higher("snapstore.deduped_gb", "GB"),
    lower("snapstore.capture_dirty_frac", "ratio"),
    higher("snapstore.restore_warm_ratio", "ratio"),
    lower("snapstore.restore_fetched_gb", "GB"),
    higher("snapstore.restore_avoided_gb", "GB"),
    higher("snapstore.gc_chunks_freed", "count"),
    higher("snapstore.restore_overlap_pct_mean", "%"),
    lower("snapstore.sink_self_cpu_ms", "ms"),
    lower("snapstore.source_self_cpu_ms", "ms"),
    lower("snapstore.sink_self_v_s", "s"),
    lower("snapstore.source_self_v_s", "s"),
    lower("snapstore.pool.fetched_gb", "GB"),
    higher("snapstore.pool.saved_frac", "ratio"),
    higher("snapstore.pool.chunk_hits", "count"),
    // core: obs span durations (`snapify.*`, `fleet.*`), the report
    // structs, and the benchmark's driver spans.
    lower("core.pause_v_ms_mean", "ms"),
    lower("core.capture_v_ms_mean", "ms"),
    lower("core.wait_v_ms_mean", "ms"),
    lower("core.resume_v_ms_mean", "ms"),
    lower("core.restore_v_ms_mean", "ms"),
    lower("core.swapout_v_ms_mean", "ms"),
    lower("core.swapin_v_ms_mean", "ms"),
    lower("core.host_checkpoint_v_ms_mean", "ms"),
    lower("core.swaps", "count"),
    lower("core.ckpt_v_suite_s", "s"),
    lower("core.restart_v_suite_s", "s"),
    lower("core.park_v_ms_p50", "ms"),
    lower("core.swap_in_v_ms_p50", "ms"),
    lower("core.swap_in_v_ms_tail", "ms"),
    lower("core.boot_host_ms_p50", "ms"),
    lower("core.checkpoint_host_ms_p50", "ms"),
    lower("core.restart_host_ms_p50", "ms"),
    lower("core.park_host_ms_p50", "ms"),
    lower("core.swap_in_host_ms_p50", "ms"),
    higher("core.fleet.committed", "count"),
    lower("core.fleet.failed_back", "count"),
    lower("core.fleet.launch_v_ms_mean", "ms"),
    lower("core.fleet.migrate_out_v_ms_mean", "ms"),
    lower("core.fleet.restore_in_v_ms_mean", "ms"),
    // serving: ServingReport.
    lower("serving.cold_frac", "ratio"),
    lower("serving.ttfc_v_p50_ms", "ms"),
    lower("serving.ttfc_v_p99_ms", "ms"),
    lower("serving.ttfc_cold_v_p50_ms", "ms"),
    lower("serving.ttfc_cold_v_p99_ms", "ms"),
    lower("serving.ttfc_warm_v_p50_ms", "ms"),
    lower("serving.ttfc_warm_v_p99_ms", "ms"),
    lower("serving.request_phase_v_s", "s"),
    lower("serving.swaps", "count"),
    higher("serving.max_resident", "count"),
    lower("serving.slo_breach_windows", "count"),
    lower("serving.host_ms_per_request", "ms"),
    // obs: the cost of the recorders themselves.
    lower("obs.trace_overhead_frac", "ratio"),
    lower("obs.events_total", "count"),
    // The CPU of the timed region outside every interposed storage
    // call: on swap-churn everything that is not snapstore or
    // snapify-io, elsewhere all of it.
    lower("other.cpu_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_emitted_name_and_unit_is_well_formed_and_used_once() {
        let mut names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for (i, name) in names.iter().enumerate() {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(!names[..i].contains(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        assert!(!name_ok("-x") && !name_ok("a b") && !name_ok(""));
        assert!(!unit_ok("req per s") && unit_ok("1/s") && unit_ok("%"));
    }

    #[test]
    fn bounds_and_setup_metric_meet_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` lives at the repo root, outside this package;
    /// it is compared when the package sits in the repo.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(String::from);

        assert_eq!(list("paths"), [Json::Str("benchmark".into())]);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(workloads::REF_SECONDS as f64)
        );
        let got: Vec<_> = list("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let want: Vec<_> = workloads::ALL
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(got, want);

        let got: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    "lower".to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(got, want);

        let got: Vec<_> = list("per_layer")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(got, want);
    }
}
