//! **multidomain** — wall-clock scaling of the multi-domain parallel
//! simkernel. An 8-node cluster workload (per-node channel churn plus a
//! cross-node ping ring) is run at 1, 2, 4 and 8 time domains; every
//! configuration simulates the *identical* virtual-time schedule, so
//! the only thing that changes is how many host cores the conservative
//! window-sync engine can keep busy.
//!
//! Reported per configuration: aggregate simulation events/sec and the
//! speedup over the single-domain (serial) run. On hosts with enough
//! cores the full run enforces the scaling floor (≥2× at 4 domains,
//! ≥4× at 8 domains); on smaller hosts the numbers are recorded but
//! not gated, and `host_cores` lands in the JSON so downstream tooling
//! can tell the difference.
//!
//! Pass `--quick` for a fast smoke run (CI).
//! Ends by holding its rows against the committed
//! `BENCH_multidomain.json` (`snapify_bench::report`): `events` must
//! reproduce; the rates and `host_cores` are this host's and are only
//! recorded.

use std::hint::black_box;
use std::time::Instant;

use phi_platform::{cluster_lookahead, DomainPlacement, PlatformParams};
use simkernel::domain::{MultiDomainConfig, MultiKernel};
use simkernel::time::us;
use simkernel::SimChannel;
use snapify_bench::report::{fixed, Report};

const NODES: usize = 8;
const PAIRS: usize = 4;

/// One measured configuration.
struct Row {
    domains: u32,
    events: u64,
    secs: f64,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs
    }
}

/// The 8-node cluster workload on `domains` time domains. Every node
/// runs `PAIRS` request/response pairs (client sleeps 1µs per round, so
/// each 50µs sync window holds ~`PAIRS * 50 * 2` local events) and a
/// ping sender/drainer pair on a cross-node ring whose links carry the
/// platform network latency. Returns the number of simulation events
/// (messages delivered).
fn cluster_churn(domains: u32, rounds: u64) -> u64 {
    let params = PlatformParams::default();
    let lookahead = cluster_lookahead(&params);
    let mk = MultiKernel::new(MultiDomainConfig::new(domains, lookahead));
    let placement = DomainPlacement::new(domains);
    let pings = rounds / 16;

    let (txs, mut rxs): (Vec<_>, Vec<_>) = (0..NODES)
        .map(|n| {
            mk.port::<u64>(
                format!("ring{n}"),
                placement.node_domain(n),
                placement.node_domain((n + 1) % NODES),
                lookahead,
            )
        })
        .unzip();
    rxs.rotate_right(1); // rxs[n] receives the (n-1) → n link

    for (n, (tx, rx)) in txs.into_iter().zip(rxs).enumerate() {
        let k = mk.domain(placement.node_domain(n));
        for p in 0..PAIRS {
            let req: SimChannel<u64> = SimChannel::unbounded(format!("n{n}req{p}"));
            let rsp: SimChannel<u64> = SimChannel::unbounded(format!("n{n}rsp{p}"));
            let (req2, rsp2) = (req.clone(), rsp.clone());
            k.spawn(format!("n{n}:srv{p}"), move || {
                while let Ok(v) = req2.recv() {
                    rsp2.send(v).unwrap();
                }
            });
            k.spawn(format!("n{n}:cli{p}"), move || {
                for i in 0..rounds {
                    simkernel::sleep(us(1));
                    req.send(i).unwrap();
                    black_box(rsp.recv().unwrap());
                }
                req.close();
            });
        }
        k.spawn(format!("n{n}:csend"), move || {
            for p in 0..pings {
                simkernel::sleep(us(16));
                tx.send(p).unwrap();
            }
            tx.close();
        });
        k.spawn(format!("n{n}:crecv"), move || {
            let mut got = 0u64;
            while rx.recv().is_ok() {
                got += 1;
            }
            assert_eq!(got, pings, "ring pings lost");
        });
    }

    mk.run();
    (NODES * PAIRS) as u64 * rounds * 2 + NODES as u64 * pings
}

fn measure(domains: u32, rounds: u64, warmups: u32, batches: u32) -> Row {
    for _ in 0..warmups {
        black_box(cluster_churn(domains, rounds));
    }
    let mut best = Row {
        domains,
        events: 0,
        secs: f64::INFINITY,
    };
    for _ in 0..batches {
        let t0 = Instant::now();
        let events = cluster_churn(domains, rounds);
        let secs = t0.elapsed().as_secs_f64();
        if best.events == 0 || events as f64 / secs > best.events_per_sec() {
            best = Row {
                domains,
                events,
                secs,
            };
        }
    }
    best
}

fn main() {
    let quick = snapify_bench::quick();
    let (warmups, batches) = if quick { (1, 2) } else { (2, 5) };
    let rounds: u64 = if quick { 256 } else { 4096 };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let rows: Vec<Row> = [1u32, 2, 4, 8]
        .iter()
        .map(|&d| measure(d, rounds, warmups, batches))
        .collect();

    let serial = rows[0].events_per_sec();

    let mut report = Report::default();
    for key in ["wall_secs", "events_per_sec", "speedup", "host_cores"] {
        report.wall_clock(key, None);
    }
    for r in &rows {
        report
            .row(&format!("domains_{}", r.domains))
            .field("domains", r.domains)
            .field("events", r.events)
            .field("wall_secs", fixed(r.secs, 6))
            .field("events_per_sec", fixed(r.events_per_sec(), 1))
            .field("speedup", fixed(r.events_per_sec() / serial, 3));
    }
    report
        .scalar("host_cores", host_cores)
        .scalar("quick", quick);
    report.finish("BENCH_multidomain.json");

    // Scaling floors from the issue: only enforceable when the host has
    // the cores to parallelize onto, and only on full (non-quick) runs
    // where the workload is big enough to amortize startup noise.
    if !quick {
        let speedup = |d: u32| {
            rows.iter()
                .find(|r| r.domains == d)
                .unwrap()
                .events_per_sec()
                / serial
        };
        if host_cores >= 4 {
            let s = speedup(4);
            assert!(s >= 2.0, "4-domain speedup {s:.2}x below the 2x floor");
        }
        if host_cores >= 8 {
            let s = speedup(8);
            assert!(s >= 4.0, "8-domain speedup {s:.2}x below the 4x floor");
        }
        if host_cores < 4 {
            println!("(host has {host_cores} cores; scaling floors not enforced)");
        }
    }
}
