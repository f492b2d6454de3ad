//! Micro-benchmarks of the reproduction's real hot paths: the simulation
//! kernel's context hand-off, payload digesting/chunking, and the COI
//! wire codec. These measure *wall-clock* performance of the simulator
//! itself (everything else in `benches/` reports virtual time).
//!
//! Self-timed harness (`harness = false`): warm up, then report the best
//! mean over a handful of measured batches.

use std::hint::black_box;
use std::time::Instant;

use coi_sim::msgs::{CtlMsg, RunMsg};
use phi_platform::Payload;
use simkernel::{Kernel, SimChannel};

/// Time `f` and print a per-iteration mean: 3 warm-up runs, then the
/// best of 5 timed batches.
fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let iters = 10u32;
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per_iter = t0.elapsed().as_secs_f64() / iters as f64;
        if per_iter < best {
            best = per_iter;
        }
    }
    if best >= 1e-3 {
        println!("{name:<45} {:>10.3} ms/iter", best * 1e3);
    } else {
        println!("{name:<45} {:>10.3} µs/iter", best * 1e6);
    }
}

fn bench_kernel_handoff() {
    bench("simkernel/ping_pong_1000", || {
        Kernel::run_root(|| {
            let ch: SimChannel<u64> = SimChannel::unbounded("ping");
            let resp: SimChannel<u64> = SimChannel::unbounded("pong");
            let (ch2, resp2) = (ch.clone(), resp.clone());
            simkernel::spawn("echo", move || {
                while let Ok(v) = ch2.recv() {
                    resp2.send(v).unwrap();
                }
            });
            for i in 0..1000u64 {
                ch.send(i).unwrap();
                black_box(resp.recv().unwrap());
            }
            ch.close();
        })
    });
}

fn bench_payload() {
    let rechunked = Payload::concat(Payload::synthetic(7, 1 << 30).chunks(4 << 20));
    bench("payload/digest_synthetic_1gib_rechunked", || {
        black_box(rechunked.digest());
    });

    let big = Payload::synthetic(7, 1 << 30);
    bench("payload/chunk_1gib_at_4mib", || {
        black_box(big.chunks(4 << 20).len());
    });
}

fn bench_wire() {
    let ctl = CtlMsg::SnapifyRestoreReply {
        pid: 42,
        ports: [1, 2, 3, 4],
        addr_table: (0..16).map(|i| (i, 4096, i * 16, i * 32)).collect(),
        breakdown: coi_sim::offload::RestoreBreakdown {
            library_copy_ns: 1,
            store_copy_ns: 2,
            blcr_restart_ns: 3,
            reregistration_ns: 4,
        },
        error: String::new(),
    };
    bench("wire/ctl_roundtrip", || {
        let enc = ctl.encode();
        black_box(CtlMsg::decode(&enc).unwrap());
    });

    let run = RunMsg::Request {
        id: 7,
        function: "kernel".into(),
        args: vec![0; 64],
        buffers: vec![1, 2, 3],
    };
    bench("wire/run_request_roundtrip", || {
        let enc = run.encode();
        black_box(RunMsg::decode(&enc).unwrap());
    });
}

fn main() {
    println!("== micro: simulator wall-clock hot paths ==");
    bench_kernel_handoff();
    bench_payload();
    bench_wire();
}
