//! Observability determinism: two identical end-to-end checkpoint runs
//! must produce byte-identical Chrome traces and metrics summaries.
//!
//! This is the observability layer's core guarantee (and what makes a
//! committed trace diffable in CI): the recorder is a pure function of
//! the simulation, which is itself deterministic.
//!
//! This test owns its integration binary on purpose — the recorder is a
//! process-wide singleton, so sharing a binary with unrelated tests that
//! run in parallel would interleave their events.

use simkernel::obs;
use snapify_repro::coi_sim::FunctionRegistry;
use snapify_repro::prelude::*;
use snapify_repro::workloads::{by_name, register_suite};
use std::sync::{Arc, Mutex, MutexGuard};

/// The recorder is process-wide; serialize the tests in this binary.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn recorder_lock() -> MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One fully-traced checkpoint → restart → finish run. Returns the three
/// export artifacts.
fn traced_checkpoint_run() -> (String, String, String) {
    obs::reset();
    obs::enable();
    Kernel::run_root(|| {
        let spec = by_name("JAC").unwrap().scaled(64, 20);
        let registry = FunctionRegistry::new();
        register_suite(&registry, std::slice::from_ref(&spec));
        let world = SnapifyWorld::boot(registry);

        let run = Arc::new(WorkloadRun::launch(world.coi(), &spec, 0).unwrap());
        let handle = run.handle().clone();
        let host = run.host_proc().clone();
        let driver = {
            let r = Arc::clone(&run);
            host.spawn_thread("driver", move || r.run_to_completion())
        };
        simkernel::sleep(simkernel::time::ms(30));

        let (_s, report) =
            checkpoint_application(&world, &handle, &run.host_state(), "/snap/traced").unwrap();
        assert!(report.device_snapshot_bytes > 0);
        assert!(driver.join().unwrap().verified);
        run.destroy().unwrap();
        host.exit();

        let restarted =
            restart_application(&world, "/snap/traced", &spec.binary_name(), 1).unwrap();
        let resumed = WorkloadRun::resume_after_restart(
            &spec,
            &restarted.handle,
            &restarted.host_proc,
            &restarted.host_state,
        );
        assert!(resumed.run_to_completion().unwrap().verified);
        resumed.destroy().unwrap();
    });
    let artifacts = (
        obs::chrome_trace().render(),
        obs::summary_json().render(),
        obs::summary_text(),
    );
    obs::disable();
    artifacts
}

#[test]
fn identical_runs_export_byte_identical_artifacts() {
    let _g = recorder_lock();
    let (trace_a, json_a, text_a) = traced_checkpoint_run();
    let (trace_b, json_b, text_b) = traced_checkpoint_run();

    // Byte-identical across runs (compare sizes first for a readable
    // failure before diffing megabytes of JSON).
    assert_eq!(trace_a.len(), trace_b.len(), "trace length diverged");
    assert_eq!(trace_a, trace_b, "Chrome trace diverged between runs");
    assert_eq!(json_a, json_b, "metrics summary JSON diverged between runs");
    assert_eq!(text_a, text_b, "metrics summary text diverged between runs");

    // The trace is the Chrome trace-event object form...
    let trace = obs::Json::parse(&trace_a).unwrap();
    assert_eq!(trace["displayTimeUnit"], "ms".into());
    let obs::Json::Array(events) = &trace["traceEvents"] else {
        panic!("no traceEvents array")
    };
    let named = |phase: &str, ph: &str| -> Vec<&obs::Json> {
        let (phase, ph) = (obs::Json::from(phase), obs::Json::from(ph));
        let hit = |e: &&obs::Json| e["name"] == phase && e["ph"] == ph;
        events.iter().filter(hit).collect()
    };
    // ...and contains the protocol-phase spans, each begin/end balanced.
    for phase in [
        "snapify.checkpoint",
        "snapify.pause",
        "snapify.capture",
        "snapify.transfer",
        "snapify.resume",
        "snapify.restore",
        "blcr.checkpoint",
        "coi.pause.drain",
    ] {
        let begins = named(phase, "B").len();
        assert!(begins > 0, "no begin event for span '{phase}'");
        let ends = named(phase, "E").len();
        assert_eq!(begins, ends, "unbalanced span '{phase}'");
    }

    // Nesting: snapify.pause is recorded under the snapify.checkpoint
    // span (a non-zero parent id).
    let args = &named("snapify.pause", "B")[0]["args"];
    assert_ne!(
        args["parent"],
        0.into(),
        "snapify.pause should nest under snapify.checkpoint: {args}"
    );

    // The summary has per-phase durations and bytes-moved per transport.
    let summary = obs::Json::parse(&json_a).unwrap();
    for phase in [
        "snapify.pause",
        "snapify.capture",
        "snapify.transfer",
        "snapify.resume",
    ] {
        assert_ne!(summary["phase_breakdown_ns"][phase]["count"], 0.into());
    }
    for counter in [
        "scif.bytes_sent",
        "pcie.dma_bytes",
        "blcr.snapshot_bytes",
        "io.Snapify-IO.bytes_written",
    ] {
        assert_ne!(summary["counters"][counter], 0.into(), "{counter}");
    }
}

/// With recording left disabled (the default), the same scenario still
/// runs and records nothing — the disabled path really is a no-op.
#[test]
fn disabled_recording_stays_empty() {
    let _g = recorder_lock();
    // events_total() counts even events later evicted from the bounded
    // flight ring, so it can't be fooled by a full buffer.
    let before = obs::events_total();
    Kernel::run_root(|| {
        let spec = by_name("MC").unwrap().scaled(128, 10);
        let registry = FunctionRegistry::new();
        register_suite(&registry, std::slice::from_ref(&spec));
        let world = SnapifyWorld::boot(registry);
        let run = Arc::new(WorkloadRun::launch(world.coi(), &spec, 0).unwrap());
        let handle = run.handle().clone();
        let host = run.host_proc().clone();
        let driver = {
            let r = Arc::clone(&run);
            host.spawn_thread("driver", move || r.run_to_completion())
        };
        simkernel::sleep(simkernel::time::ms(10));
        checkpoint_application(&world, &handle, &run.host_state(), "/snap/quiet").unwrap();
        assert!(driver.join().unwrap().verified);
        run.destroy().unwrap();
    });
    let after = obs::events_total();
    assert_eq!(before, after, "disabled recorder must not record events");
}
