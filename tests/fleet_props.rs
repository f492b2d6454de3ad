//! Fleet control-plane properties: a connection reset on the shared
//! pool's NIC mid-cross-node-migration must fail the in-migration at
//! the destination, roll the tenant back to its source (still
//! resumable — the rollback path runs an offload on it before
//! declaring success), and leak nothing: no snapshot files, no pool
//! directory entries, no referenced chunks.
//!
//! The failure is replayable through the chaos explorer's one-line
//! contract: `SIMCHAOS_SEED=<n> SIMCHAOS_OP=fleet-migrate` expands to
//! the same case and the same byte-identical execution, which the
//! second test proves by rebuilding the case exactly the way
//! `ChaosCase::from_env` would.

use phi_platform::{FaultKind, FaultSchedule, FaultTarget};
use simchaos::{run_case, ChaosCase, ChaosOp};
use simkernel::time::us;
use simkernel::SimTime;
use snapify::{FleetConfig, FleetScheduler};

/// A reset on the destination's pool NIC fires during the first
/// cross-node import, fails that migration, and the source restores
/// the tenant in place with nothing leaked anywhere.
#[test]
fn connreset_mid_migration_rolls_back_and_leaks_nothing() {
    // Node 1 is the first rebalancing destination (least loaded, lowest
    // id); every node gets the schedule but only node 1 consults net1.
    let faults = FaultSchedule::none().with(
        SimTime::ZERO + us(100),
        FaultTarget::Net(1),
        FaultKind::ConnReset,
    );
    let cfg = FleetConfig {
        nodes: 4,
        tenants: 12,
        base_bytes: 8 << 20,
        unique_bytes: 1 << 20,
        max_migrations: 3,
        node_faults: vec![faults; 4],
        ..FleetConfig::default()
    };
    let report = FleetScheduler::new(FleetConfig { ..cfg }).run();

    // The reset failed at least one migration, and its error survived
    // into the outcome record.
    assert!(
        report.failed_back() >= 1,
        "the injected reset must fail a migration: {:?}",
        report.migrations
    );
    let failed = report
        .migrations
        .iter()
        .find(|m| !m.committed)
        .expect("a failed migration is recorded");
    assert_eq!(failed.to, 1, "the reset fired on the destination's NIC");
    assert!(failed.error.is_some(), "failure carries the typed error");

    // The tenant is resumable at the source: every failed migration
    // produced exactly one source rollback, and the rollback path runs
    // an offload on the restored tenant before counting it.
    let rolled_back: u64 = report.agents.iter().map(|a| a.restored_back).sum();
    assert_eq!(rolled_back, report.failed_back() as u64);

    // No tenant lost or duplicated across the whole episode.
    let before: u64 = report
        .loads_before
        .iter()
        .map(|l| l.resident + l.parked)
        .sum();
    let after: u64 = report
        .loads_after
        .iter()
        .map(|l| l.resident + l.parked)
        .sum();
    assert_eq!(before, after);
    let final_tenants: u64 = report.agents.iter().map(|a| a.final_tenants).sum();
    assert_eq!(final_tenants, report.tenants as u64);

    // Nothing leaked: no snapshot manifest still holds a directory
    // entry, no chunk is still referenced or pinned.
    assert_eq!(report.pool_live_manifests, 0, "leaked pool manifests");
    assert_eq!(report.pool_live_chunks, 0, "leaked pool chunks");
}

/// The chaos explorer's replay contract holds for fleet cases: the same
/// seed expands to the same case, executes byte-identically, and the
/// env-style reconstruction (`SIMCHAOS_SEED` + `SIMCHAOS_OP` +
/// `SIMCHAOS_FAULTS` round-tripped through text) replays the same
/// trace.
#[test]
fn fleet_migrate_replays_byte_identically_via_simchaos_seed() {
    let seed = 11;
    let case = ChaosCase::fleet_migrate_from_seed(seed);
    let first = run_case(&case);
    assert!(first.ok(), "fleet case must pass: {:?}", first.failure);
    assert!(
        first.faults_fired >= 1,
        "a generated reset must fail a migration (repro: {})",
        case.repro_line()
    );

    // Rebuild the case exactly as `ChaosCase::from_env` would from the
    // repro line: base expansion from the seed, op override by label,
    // fault schedule round-tripped through its text form.
    let mut replay = ChaosCase::from_seed(seed);
    replay.op = ChaosOp::parse("fleet-migrate").unwrap();
    replay.slo = None;
    replay.faults = FaultSchedule::parse(&case.faults.to_string()).unwrap();
    let second = run_case(&replay);
    assert!(second.ok(), "replay must pass: {:?}", second.failure);
    assert_eq!(
        (first.trace_len, first.trace_digest),
        (second.trace_len, second.trace_digest),
        "replay must be byte-identical"
    );
    assert_eq!(first.faults_fired, second.faults_fired);
}

/// Coordination cost follows the fleet's events, not the monitors' poll
/// grid: the domains meet at a barrier for fewer than one kernel event in
/// four (an idle 200 µs tick used to open a window of its own, and rounds
/// were over half the events), and what the fleet observed is what one
/// domain observes.
#[test]
fn barrier_rounds_stay_a_fraction_of_kernel_events() {
    let run = |domains: u32| {
        let cfg = FleetConfig {
            nodes: 4,
            tenants: 12,
            base_bytes: 8 << 20,
            unique_bytes: 1 << 20,
            max_migrations: 3,
            domains,
            ..FleetConfig::default()
        };
        FleetScheduler::new(cfg).run()
    };
    let one = run(1);
    assert_eq!(one.barrier_rounds, 0);
    for domains in [2, 4] {
        let report = run(domains);
        assert_eq!(report.digest(), one.digest(), "domains={domains}");
        let (events, rounds) = (report.fingerprint.0 as u64, report.barrier_rounds);
        assert!(
            rounds > 0 && rounds * 4 < events,
            "domains={domains}: {rounds} rounds for {events} events"
        );
        println!("domains={domains}: {rounds} rounds, {events} events");
    }
}
