//! **Fig 9** — runtime overhead of the Snapify modifications to COI on
//! the eight OpenMP offload benchmarks: each benchmark runs once on stock
//! MPSS and once with Snapify's hooks (drain locks, blocking pipeline
//! sends), with no snapshot taken.
//!
//! Paper shape targets: average overhead ≈1.5%, worst <5% (MD, whose
//! offload regions are the most frequent).
//!
//! (The paper repeats each run 20×; the simulation is deterministic, so a
//! single run per configuration is exact.)
//!
//! Ends by holding the overhead rows and the obs summary of the
//! Snapify-enabled runs against the committed `BENCH_fig9.json`
//! (`snapify_bench::report`).

use coi_sim::{CoiConfig, FunctionRegistry};
use phi_platform::{FaultSchedule, PlatformParams};
use simkernel::{obs, Kernel};
use snapify::SnapifyWorld;
use snapify_bench::report::{fixed, Report};
use snapify_bench::{header, secs, Table};
use workloads::{register_suite, suite, WorkloadRun, WorkloadSpec};

fn run_once(spec: WorkloadSpec, config: CoiConfig) -> simkernel::SimDuration {
    Kernel::run_root(move || {
        let registry = FunctionRegistry::new();
        register_suite(&registry, std::slice::from_ref(&spec));
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            config,
            registry,
            FaultSchedule::none(),
            None,
        );
        let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
        let result = run.run_to_completion().unwrap();
        assert!(result.verified, "{} failed verification", spec.name);
        run.destroy().unwrap();
        result.runtime
    })
}

fn main() {
    let params = PlatformParams::default();
    header(
        "Fig 9: runtime overhead of Snapify support (normal execution, no snapshot)",
        &params,
    );
    let mut table = Table::new(vec![
        "benchmark",
        "stock MPSS (s)",
        "with Snapify (s)",
        "overhead (%)",
    ]);
    let mut overheads = Vec::new();
    let mut report = Report::default();
    // Record the Snapify-enabled runs so the dumped artifact carries the
    // per-phase/per-transport breakdown alongside the overhead table.
    obs::reset();
    obs::enable();
    for spec in suite() {
        obs::disable();
        let stock = run_once(spec.clone(), CoiConfig::stock());
        obs::enable();
        let snap = run_once(spec.clone(), CoiConfig::default());
        let overhead = (snap.as_secs_f64() - stock.as_secs_f64()) / stock.as_secs_f64() * 100.0;
        overheads.push((spec.name, overhead));
        report
            .row(spec.name)
            .field("stock_ns", stock.as_nanos())
            .field("snapify_ns", snap.as_nanos())
            .field("overhead_pct", fixed(overhead, 4));
        table.row(vec![
            spec.name.to_string(),
            secs(stock),
            secs(snap),
            format!("{overhead:.2}"),
        ]);
    }
    obs::disable();
    table.print();
    // The recorded per-phase/metrics summary rides along as one nested
    // scalar, indented to sit under the top level; it is virtual-time
    // telemetry, so it is held like the rows.
    let summary = obs::summary_json();
    report.scalar("summary", summary.trim_end().replace('\n', "\n  "));
    let avg: f64 = overheads.iter().map(|(_, o)| o).sum::<f64>() / overheads.len() as f64;
    let (worst_name, worst) = overheads
        .iter()
        .cloned()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    println!();
    println!("average overhead: {avg:.2}%   worst: {worst:.2}% ({worst_name})");
    println!("shape checks: average ~1.5%, worst <5% (MD in the paper).");
    report.finish("BENCH_fig9.json")
}
