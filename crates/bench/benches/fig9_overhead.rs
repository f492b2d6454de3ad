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

use coi_sim::{CoiConfig, FunctionRegistry};
use phi_platform::{FaultSchedule, PlatformParams};
use simkernel::{obs, Kernel};
use snapify::SnapifyWorld;
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
    let mut rows = Vec::new();
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
        rows.push((spec.name, stock.as_nanos(), snap.as_nanos(), overhead));
        table.row(vec![
            spec.name.to_string(),
            secs(stock),
            secs(snap),
            format!("{overhead:.2}"),
        ]);
    }
    obs::disable();
    table.print();
    dump_json("BENCH_fig9.json", &rows);
    let avg: f64 = overheads.iter().map(|(_, o)| o).sum::<f64>() / overheads.len() as f64;
    let (worst_name, worst) = overheads
        .iter()
        .cloned()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    println!();
    println!("average overhead: {avg:.2}%   worst: {worst:.2}% ({worst_name})");
    println!("shape checks: average ~1.5%, worst <5% (MD in the paper).");
}

/// Dump the overhead table plus the recorded per-phase/metrics summary
/// of the Snapify-enabled runs as one JSON artifact.
fn dump_json(path: &str, rows: &[(&str, u64, u64, f64)]) {
    let mut out = String::from("{\n  \"benchmarks\": [");
    for (i, (name, stock_ns, snap_ns, overhead)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{name}\", \"stock_ns\": {stock_ns}, \
             \"snapify_ns\": {snap_ns}, \"overhead_pct\": {overhead:.4}}}"
        ));
    }
    out.push_str("\n  ],\n  \"summary\": ");
    // summary_json() is itself a JSON object; indent it to nest cleanly.
    let summary = obs::summary_json();
    out.push_str(&summary.trim_end().replace('\n', "\n  "));
    out.push_str("\n}\n");
    match std::fs::write(path, out) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
