//! FaaS-style multi-tenant serving: open-loop Zipf traffic over a
//! swapped-out tenant population, per-policy cold vs. warm
//! time-to-first-compute.
//!
//! Two scenarios per eviction policy:
//!
//! * `zipf1k` — 1000 tenants with Zipf 1.1 popularity skew behind 8
//!   coprocessors, one row per eviction policy. The paper's §6
//!   time-sharing pitch at population scale: most requests hit the
//!   skewed head and serve warm, the tail demand-swaps in. Both
//!   committed assertions live here: warm p99 time-to-first-compute
//!   beats cold p99 by ≥ 2× for every policy, and popularity-aware
//!   eviction beats LRU on overall p99 (it keeps the skewed head
//!   resident, so fewer requests pay a demand swap-in).
//! * `overload` — a uniform (no-skew) burst far beyond device
//!   throughput with a 2-deep admission limit: the limiter must shed
//!   load instead of letting the cold queue grow without bound.
//!
//! Quick mode (`--quick`) runs only a shorter `zipf1k` schedule under
//! distinct row names (`zipf1k-quick-*`); a full run emits those rows
//! too, so both sets sit in the committed `BENCH_serving.json` and either
//! mode ends by holding its rows against it (`snapify_bench::report`).

use serving::{run_scenario, EvictionPolicy, ServingConfig, ServingReport, TrafficConfig};
use simkernel::Kernel;
use snapify_bench::report::{fixed, Report};

struct Row {
    name: String,
    report: ServingReport,
}

impl Row {
    /// Cold p99 over warm p99: how much a demand swap-in costs relative
    /// to hitting a resident tenant.
    fn warm_speedup_p99(&self) -> f64 {
        if self.report.warm.p99_ns == 0 {
            return 0.0;
        }
        self.report.cold.p99_ns as f64 / self.report.warm.p99_ns as f64
    }
}

/// The population-scale scenario: 1000 tenants, Zipf 1.1, 8 devices.
fn zipf1k(policy: EvictionPolicy, requests: usize) -> ServingConfig {
    ServingConfig {
        devices: 8,
        swap_workers: 4,
        policy,
        traffic: TrafficConfig {
            tenants: 1000,
            zipf_s: 1.1,
            rate_per_sec: 20.0,
            requests,
            ..TrafficConfig::default()
        },
        ..ServingConfig::default()
    }
}

/// The admission-policy scenario: uniform overload against a 2-deep
/// cold backlog limit.
fn overload() -> ServingConfig {
    ServingConfig {
        devices: 2,
        swap_workers: 1,
        policy: EvictionPolicy::Lru,
        admission_limit: Some(2),
        traffic: TrafficConfig {
            tenants: 16,
            zipf_s: 0.0,
            rate_per_sec: 100.0,
            requests: 200,
            ..TrafficConfig::default()
        },
        ..ServingConfig::default()
    }
}

fn run(name: &str, cfg: ServingConfig) -> Row {
    let report = Kernel::run_root(move || run_scenario(&cfg));
    assert_eq!(
        report.cold.count + report.warm.count,
        report.admitted,
        "{name}: every admitted request must reach first-compute"
    );
    assert!(
        report.max_resident <= report.devices,
        "{name}: residency exceeded device capacity"
    );
    Row {
        name: name.to_string(),
        report,
    }
}

fn main() {
    let quick = snapify_bench::quick();
    let sweeps: &[(&str, usize)] = if quick {
        &[("zipf1k-quick", 600)]
    } else {
        &[("zipf1k", 2000), ("zipf1k-quick", 600)]
    };
    let mut rows = Vec::new();
    for (prefix, requests) in sweeps {
        for policy in EvictionPolicy::ALL {
            rows.push(run(
                &format!("{prefix}-{}", policy.label()),
                zipf1k(policy, *requests),
            ));
        }
    }
    rows.push(run("overload-limit2", overload()));

    for r in rows.iter().filter(|r| r.name.starts_with("zipf1k")) {
        assert!(
            r.warm_speedup_p99() >= 2.0,
            "{}: warm p99 must be >=2x better than cold (got {:.2}x)\n{}",
            r.name,
            r.warm_speedup_p99(),
            r.report.summary()
        );
    }
    let p99_of = |name: String| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.report.overall.p99_ns)
            .expect("zipf1k row present")
    };
    for (prefix, _) in sweeps {
        let lru = p99_of(format!("{prefix}-lru"));
        let pop = p99_of(format!("{prefix}-popularity"));
        assert!(
            pop < lru,
            "{prefix}: popularity-aware eviction must beat LRU on overall p99 under \
             Zipf skew (popularity {pop}ns vs lru {lru}ns)"
        );
    }
    let shed = &rows.last().unwrap().report;
    assert!(
        shed.rejected > 0,
        "uniform overload must trip the admission limiter\n{}",
        shed.summary()
    );

    let mut out = Report::default();
    for r in &rows {
        let rep = &r.report;
        out.row(&r.name)
            .field("policy", rep.policy.as_str())
            .field("requests", rep.requests)
            .field("admitted", rep.admitted)
            .field("cold_count", rep.cold.count)
            .field("warm_count", rep.warm.count)
            .field("cold_p50_ns", rep.cold.p50_ns)
            .field("cold_p99_ns", rep.cold.p99_ns)
            .field("warm_p50_ns", rep.warm.p50_ns)
            .field("warm_p99_ns", rep.warm.p99_ns)
            .field("overall_p99_ns", rep.overall.p99_ns)
            .field("warm_speedup_p99", fixed(r.warm_speedup_p99(), 4))
            .field("swaps", rep.swaps)
            .field("max_resident", rep.max_resident)
            .field("restore_bytes_avoided", rep.restore_bytes_avoided)
            .field("slo_breaches", rep.breaches.len());
    }
    out.finish("BENCH_serving.json")
}
