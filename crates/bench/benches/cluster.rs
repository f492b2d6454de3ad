//! BENCH_cluster — the fleet-wide swap control plane at scale.
//!
//! Ten nodes × hundreds of tenants under one [`snapify::FleetScheduler`]:
//! skewed placement bin-packed through each node's swap scheduler, then
//! proactive load-driven migrations whose device state flows through
//! the shared cross-node snapstore pool. Two claims are measured and
//! asserted inline:
//!
//! * **Warm cross-node restore** — a migrating tenant restores from
//!   chunks the destination already holds; the pool ships ≥80% fewer
//!   bytes than a cold restore fetching everything.
//! * **Domain-count invariance** — the fleet's observable digest is
//!   byte-identical whether the simulation ran on 1 domain or several.
//!
//! `--quick` runs only a smaller fleet under distinct row names; a full
//! run emits those rows too, so both sets sit in the committed
//! `BENCH_cluster.json` and either mode ends by holding its rows against
//! it (`snapify_bench::report`).

use snapify::{FleetConfig, FleetReport, FleetScheduler};
use snapify_bench::report::{fixed, Report};

struct Row {
    name: String,
    /// Migrations the controller was asked for.
    planned: usize,
    report: FleetReport,
}

fn run(name: &str, cfg: FleetConfig) -> Row {
    let planned = cfg.max_migrations;
    let report = FleetScheduler::new(cfg).run();
    Row {
        name: name.to_string(),
        planned,
        report,
    }
}

fn fleet_cfg(nodes: usize, tenants: usize, max_migrations: usize, domains: u32) -> FleetConfig {
    FleetConfig {
        nodes,
        domains,
        tenants,
        base_bytes: if nodes >= 10 { 48 << 20 } else { 8 << 20 },
        unique_bytes: if nodes >= 10 { 4 << 20 } else { 1 << 20 },
        max_migrations,
        ..FleetConfig::default()
    }
}

fn main() {
    let quick = snapify_bench::quick();
    // (prefix, nodes, tenants, migrations, parallel domain count)
    let fleets: &[(&str, usize, usize, usize, u32)] = if quick {
        &[("fleet-quick", 4, 24, 3, 2)]
    } else {
        &[
            ("fleet10x200", 10, 200, 12, 4),
            ("fleet-quick", 4, 24, 3, 2),
        ]
    };
    let mut rows = Vec::new();
    for &(prefix, nodes, tenants, migs, par_domains) in fleets {
        for domains in [1, par_domains] {
            rows.push(run(
                &format!("{prefix}-d{domains}"),
                fleet_cfg(nodes, tenants, migs, domains),
            ));
        }
    }

    for r in &rows {
        let rep = &r.report;
        assert_eq!(
            rep.committed(),
            r.planned,
            "{}: every planned migration must commit: {:?}",
            r.name,
            rep.migrations
        );
        assert_eq!(rep.failed_back(), 0, "{}: no rollbacks expected", r.name);
        assert!(
            rep.warm_saved_fraction() > 0.8,
            "{}: warm migration must ship >=80% fewer bytes than cold \
             (saved {:.3}, pool {:?})",
            r.name,
            rep.warm_saved_fraction(),
            rep.pool
        );
        assert_eq!(rep.pool_live_manifests, 0, "{}: leaked manifests", r.name);
        assert_eq!(rep.pool_live_chunks, 0, "{}: leaked chunks", r.name);
    }
    for pair in rows.chunks(2) {
        assert_eq!(
            pair[0].report.digest(),
            pair[1].report.digest(),
            "{}: fleet digest must be byte-identical across domain counts",
            pair[0].name
        );
    }

    let mut out = Report::default();
    for r in &rows {
        let rep = &r.report;
        out.row(&r.name)
            .field("nodes", rep.nodes)
            .field("tenants", rep.tenants)
            .field("committed", rep.committed())
            .field("failed", rep.failed_back())
            .field("bytes_fetched_remote", rep.pool.bytes_fetched_remote)
            .field("bytes_avoided_remote", rep.pool.bytes_avoided_remote)
            .field("saved_fraction", fixed(rep.warm_saved_fraction(), 4))
            .field("digest", rep.digest())
            .field("virtual_ns", rep.virtual_ns);
        if rep.barrier_rounds > 0 {
            out.field("barrier_rounds", rep.barrier_rounds);
        }
    }
    out.finish("BENCH_cluster.json")
}
