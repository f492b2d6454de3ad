//! Serving-layer properties: under both Fifo and `SchedPolicy::Random`
//! scheduling, for every eviction policy,
//!
//! * every admitted request eventually reaches first-compute (nothing
//!   is lost in the miss queue or stuck behind an eviction), and
//! * resident tenants never exceed device capacity (the claim flags
//!   and the scheduler's own residency map agree).
//!
//! Small populations keep each run fast; the scheduling policy matrix
//! is what makes these properties, not the scale — the 1k-tenant shape
//! is covered by `cargo bench --bench serving`.
//!
//! The tenant classes' SLOs arrive as text (`TenantClass::slo`, the
//! chaos repro line's `SIMCHAOS_SLO=`), so the text form is checked
//! here too: rendering is lossless and parsing never panics.

use proptest::prelude::*;
use serving::{
    run_scenario, ArrivalProcess, EvictionPolicy, ServingConfig, ServingReport, TrafficConfig,
};
use simkernel::obs::SloSpec;
use simkernel::{Kernel, SchedPolicy};

fn config(policy: EvictionPolicy, process: ArrivalProcess) -> ServingConfig {
    ServingConfig {
        devices: 2,
        swap_workers: 2,
        policy,
        traffic: TrafficConfig {
            tenants: 8,
            zipf_s: 1.2,
            rate_per_sec: 15.0,
            requests: 80,
            process,
            ..TrafficConfig::default()
        },
        ..ServingConfig::default()
    }
}

fn check(sched: SchedPolicy, cfg: ServingConfig) -> ServingReport {
    let label = format!("{:?}/{}", sched, cfg.policy.label());
    let report = Kernel::run_root_with(sched, move || run_scenario(&cfg));
    assert_eq!(
        report.cold.count + report.warm.count,
        report.admitted,
        "{label}: every admitted request must reach first-compute\n{}",
        report.summary()
    );
    assert_eq!(report.overall.count, report.admitted, "{label}");
    assert!(
        report.max_resident <= report.devices,
        "{label}: {} resident on {} devices",
        report.max_resident,
        report.devices
    );
    report
}

#[test]
fn fifo_serves_every_admitted_request_within_capacity() {
    for policy in EvictionPolicy::ALL {
        for process in [
            ArrivalProcess::Poisson,
            ArrivalProcess::Bursty {
                burst_len: 6,
                burst_factor: 5.0,
            },
        ] {
            let report = check(SchedPolicy::Fifo, config(policy, process));
            assert_eq!(report.rejected, 0, "no admission limit configured");
        }
    }
}

#[test]
fn random_schedules_serve_every_admitted_request_within_capacity() {
    for policy in EvictionPolicy::ALL {
        for seed in [1u64, 7, 42] {
            let report = check(
                SchedPolicy::Random(seed),
                config(policy, ArrivalProcess::Poisson),
            );
            assert_eq!(report.rejected, 0, "no admission limit configured");
        }
    }
}

/// The properties hold with an admission limit too: rejected requests
/// are counted (never silently dropped) and everything admitted is
/// still served, under both scheduling policies.
#[test]
fn admission_limited_overload_still_serves_everything_admitted() {
    for sched in [SchedPolicy::Fifo, SchedPolicy::Random(9)] {
        let mut cfg = config(EvictionPolicy::Lru, ArrivalProcess::Poisson);
        cfg.admission_limit = Some(2);
        cfg.swap_workers = 1;
        cfg.traffic.zipf_s = 0.0;
        cfg.traffic.tenants = 16;
        cfg.traffic.rate_per_sec = 120.0;
        let report = check(sched, cfg);
        assert!(
            report.rejected > 0,
            "uniform overload must trip the limiter\n{}",
            report.summary()
        );
        assert_eq!(report.admitted + report.rejected, report.requests);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn slo_spec_text_round_trips(
        name in prop::collection::vec(prop::sample::select(b"ab.p95_-".to_vec()), 0..12),
        quantile in prop::sample::select(vec![0.50, 0.90, 0.95, 0.99, 0.999]),
        threshold_ns in any::<u64>(),
        window_ns in any::<u64>(),
    ) {
        let name: String = name.into_iter().map(char::from).collect();
        let spec = SloSpec::new(&name, quantile, threshold_ns, window_ns);
        prop_assert_eq!(SloSpec::parse(&spec.render()), Ok(spec));
    }

    /// Whatever the text, `parse` answers `Ok` or `Err`: raw bytes, and
    /// soups of the grammar's own tokens that get past its first checks.
    #[test]
    fn slo_spec_parse_never_panics(
        raw in prop::collection::vec(any::<u8>(), 0..48),
        soup in prop::collection::vec(
            prop::sample::select(vec![
                "<", " over ", ".p", "p", "50", "99", "999", "ns", "us", "ms", "s", " ", "m",
                "-1", "18446744073709551616", "18446744073709551615", "é", "\u{0}",
            ]),
            0..10,
        ),
    ) {
        let _ = SloSpec::parse(&String::from_utf8_lossy(&raw));
        let _ = SloSpec::parse(&soup.concat());
    }
}
