//! Bus faults on paths no benchmark workload takes: a CRC replay and a
//! delay spike, each consumed by a message-path send issued from a COI
//! service (the cmd server's reply to a ping, the log client's record)
//! and by an RDMA transfer (a buffer write). The kernel trace of each
//! schedule is pinned to what the commit before the stepped services
//! produced, so the resumable send's replay and stall stages are held
//! to the blocking `fault_penalty` they replaced, event for event.

use snapify_repro::prelude::*;
use std::sync::{Arc, Mutex};

/// Virtual time (µs) spent in the ping and in the buffer write.
type Elapsed = Arc<Mutex<(u64, u64)>>;

/// One tenant, three quiet instants: a ping at 1 s, a run that logs
/// mid-function at ≈1.11 s, a buffer write at 1.2 s.
fn scenario(schedule: &str) -> ((usize, u64), (u64, u64)) {
    let schedule = FaultSchedule::parse(schedule).unwrap();
    let elapsed = Elapsed::default();
    let k = Kernel::new();
    k.enable_trace();
    let out = Arc::clone(&elapsed);
    k.spawn("root", move || {
        let registry = FunctionRegistry::new();
        registry.register(DeviceBinary::new("pin.so", MB, 8 * MB).simple_function(
            "chatty",
            |ctx| {
                ctx.compute(1e10, 60);
                ctx.log(b"mid-run".to_vec());
                ctx.compute(1e10, 60);
                Vec::new()
            },
        ));
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            CoiConfig::default(),
            registry,
            schedule,
            None,
        );
        let at = |ms: u64| sleep(SimTime(ms * 1_000_000).since(now()));
        let host = world.coi().create_host_process("app");
        let h = world.coi().create_process(&host, 0, "pin.so").unwrap();
        let buf = h.create_buffer(MB).unwrap();
        at(1000);
        let t0 = now();
        h.ping().unwrap();
        let ping = now().since(t0);
        at(1100);
        h.run_sync("chatty", Vec::new(), &[]).unwrap();
        at(1200);
        let t0 = now();
        h.buffer_write(&buf, Payload::synthetic(7, MB)).unwrap();
        let write = now().since(t0);
        *out.lock().unwrap() = (ping.as_nanos() / 1_000, write.as_nanos() / 1_000);
        at(1210);
        assert_eq!(h.logs()[0], b"mid-run");
        h.destroy().unwrap();
    });
    k.run();
    let elapsed = *elapsed.lock().unwrap();
    ((k.trace_len(), k.trace_digest()), elapsed)
}

/// A fault due 10 µs into the ping is past the request's transfer (which
/// began at +7 µs, after the hook charge) and is taken by the reply; one
/// due at 1.105 s waits for the log record; one due at 1.2 s is taken by
/// the write's DMA.
const MESSAGE_PATH: [u64; 2] = [1_000_010, 1_105_000];
const RDMA_PATH: [u64; 1] = [1_200_000];

fn schedule(at_us: &[u64], kind: &str) -> String {
    let entries: Vec<String> = at_us.iter().map(|t| format!("{t}:bus0:{kind}")).collect();
    entries.join(";")
}

#[test]
fn bus_fault_schedules_keep_their_parent_commit_traces() {
    let (clean, (ping, write)) = scenario("");
    assert_eq!(clean, CLEAN, "no faults");
    for (what, at_us, kind, pinned) in [
        (
            "replay, message path",
            &MESSAGE_PATH[..],
            "buserr",
            BUSERR_MSG,
        ),
        (
            "stall, message path",
            &MESSAGE_PATH[..],
            "busdelay=500",
            BUSDELAY_MSG,
        ),
        ("replay, RDMA path", &RDMA_PATH[..], "buserr", BUSERR_RDMA),
        (
            "stall, RDMA path",
            &RDMA_PATH[..],
            "busdelay=500",
            BUSDELAY_RDMA,
        ),
    ] {
        let (trace, (faulted_ping, faulted_write)) = scenario(&schedule(at_us, kind));
        assert_eq!(trace, pinned, "{what}");
        // Where the fault landed: the exchange it was aimed at got slower
        // (a stall by its 500 µs, a replay by one more transfer), the
        // other did not move.
        let (slow, same) = if at_us.len() == 2 {
            ((faulted_ping, ping), (faulted_write, write))
        } else {
            ((faulted_write, write), (faulted_ping, ping))
        };
        assert!(slow.0 > slow.1, "{what}: {slow:?}");
        assert_eq!(same.0, same.1, "{what}");
        if kind != "buserr" {
            assert_eq!(slow.0 - slow.1, 500, "{what}");
        }
    }
}

/// `(trace_len, trace_digest)` measured at the parent commit (`ae0d56a`).
const CLEAN: (usize, u64) = (154, 0xdd8a_6e7a_5757_2350);
const BUSERR_MSG: (usize, u64) = (156, 0xa462_3c86_fe44_7894);
const BUSDELAY_MSG: (usize, u64) = (156, 0xfbf9_5f82_d2a6_eef8);
const BUSERR_RDMA: (usize, u64) = (155, 0x1a7e_963e_83ed_1fa8);
const BUSDELAY_RDMA: (usize, u64) = (155, 0xc3cf_823f_0ba6_54b3);
