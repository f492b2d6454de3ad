//! Ablations of Snapify's design choices (beyond the paper's figures):
//!
//! 1. **Snapify-IO staging-buffer size** — the paper fixes it at 4 MB "to
//!    balance between ... memory footprint and ... transfer latency" (§6);
//!    the sweep shows the knee.
//! 2. **Asynchronous host-side flush** — §7 credits the write-direction
//!    advantage to the host daemon flushing asynchronously; disabling the
//!    overlap quantifies it.
//! 3. **Snapify hook cost** — Fig 9's overhead as a function of the
//!    per-crossing cost of the drain locks.

use coi_sim::{CoiConfig, FunctionRegistry};
use phi_platform::{FaultSchedule, NodeId, Payload, PhiServer, PlatformParams, GB};
use simkernel::{Kernel, SimDuration};
use snapify::SnapifyWorld;
use snapify_bench::{bytes, header, secs, Table};
use snapify_io::{SnapifyIo, SnapifyIoConfig};
use workloads::{by_name, register_suite, WorkloadRun};

fn buffer_size_sweep() {
    println!("Ablation 1: Snapify-IO staging-buffer size (1 GiB write, phi->host)");
    let mut t = Table::new(vec!["buffer", "write (s)", "device mem held"]);
    for shift in [18u32, 20, 22, 24, 26] {
        let buffer_size = 1u64 << shift;
        let d = Kernel::run_root(move || {
            let server = PhiServer::new(PlatformParams::default());
            let io = SnapifyIo::new(
                &server,
                SnapifyIoConfig {
                    buffer_size,
                    ..SnapifyIoConfig::default()
                },
            );
            let t0 = simkernel::now();
            let mut sink = io
                .open_write(NodeId::device(0), NodeId::HOST, "/ab/f")
                .unwrap();
            use simproc::ByteSink;
            for chunk in Payload::synthetic(1, GB).chunks(32 << 20) {
                sink.write(chunk).unwrap();
            }
            sink.close().unwrap();
            simkernel::now() - t0
        });
        t.row(vec![bytes(buffer_size), secs(d), bytes(2 * buffer_size)]);
    }
    t.print();
    println!("(the paper's 4 MiB sits at the knee: bigger buffers buy little time\n and hold more pinned memory on an 8 GiB card)\n");
}

fn async_flush_ablation() {
    println!("Ablation 2: asynchronous host-side flush (1 GiB, phi->host)");
    let mut t = Table::new(vec!["host file write", "write (s)"]);
    for (label, sync_after_each) in [("asynchronous (paper)", false), ("synchronous", true)] {
        let d = Kernel::run_root(move || {
            let server = PhiServer::new(PlatformParams::default());
            let io = SnapifyIo::new_default(&server);
            let t0 = simkernel::now();
            let mut sink = io
                .open_write(NodeId::device(0), NodeId::HOST, "/ab/g")
                .unwrap();
            use simproc::ByteSink;
            for chunk in Payload::synthetic(1, GB).chunks(4 << 20) {
                sink.write(chunk).unwrap();
                if sync_after_each {
                    // Force the daemon to wait for the file system before
                    // reusing the staging buffer.
                    server.host().fs().sync();
                }
            }
            sink.close().unwrap();
            simkernel::now() - t0
        });
        t.row(vec![label.to_string(), secs(d)]);
    }
    t.print();
    println!();
}

fn hook_cost_sweep() {
    println!("Ablation 3: Fig 9 overhead vs per-hook cost (MD benchmark)");
    let mut t = Table::new(vec!["hook cost", "runtime (s)", "overhead (%)"]);
    let run_md = |hook_us: u64| -> f64 {
        Kernel::run_root(move || {
            let spec = by_name("MD").unwrap().scaled(8, 4);
            let registry = FunctionRegistry::new();
            register_suite(&registry, std::slice::from_ref(&spec));
            let config = if hook_us == u64::MAX {
                CoiConfig::stock()
            } else {
                CoiConfig {
                    hook_cost: SimDuration::from_micros(hook_us),
                    ..CoiConfig::default()
                }
            };
            let world = SnapifyWorld::boot_with(
                PlatformParams::default(),
                config,
                registry,
                FaultSchedule::none(),
                None,
            );
            let run = WorkloadRun::launch(world.coi(), &spec, 0).unwrap();
            let r = run.run_to_completion().unwrap();
            assert!(r.verified);
            run.destroy().unwrap();
            r.runtime.as_secs_f64()
        })
    };
    let base = run_md(u64::MAX); // stock MPSS
    t.row(vec![
        "(stock)".to_string(),
        format!("{base:.3}"),
        "0.00".to_string(),
    ]);
    for us in [2u64, 4, 7, 12, 20] {
        let r = run_md(us);
        t.row(vec![
            format!("{us} us"),
            format!("{r:.3}"),
            format!("{:.2}", (r - base) / base * 100.0),
        ]);
    }
    t.print();
    println!();
}

fn main() {
    let params = PlatformParams::default();
    header("Ablations: Snapify design choices", &params);
    buffer_size_sweep();
    async_flush_ablation();
    hook_cost_sweep();
}
