//! The swap scheduler's schedule, pinned: one fixed scenario that walks
//! every transition of `SwapScheduler` — three rotations over two cards,
//! a park / `swap_in` pair, a swap-out that fails in the transport and a
//! swap-in that fails on the card — with the kernel trace of each policy
//! held to what the commit before the one-of-each-mechanism refactor of
//! `core/src/scheduler.rs` produced (this file ran there unchanged). A
//! moved digest with equal outcomes means a transport call, a sleep or a
//! lock hand-off is issued in a different order than it was.

use snapify_repro::prelude::*;
use snapify_repro::snapify::JobId;
use std::sync::{Arc, Mutex};

/// What the scenario saw, beside the trace: `(swap_count, residents)`
/// after each step.
type Outcome = (u64, Vec<(usize, JobId)>);

/// The host pool refuses the swap-out transport's staging buffer at 40 s;
/// card 1 refuses the restored process's memory at 60 s.
const FAULTS: &str = "40000000:mem.host:oom;60000000:mem.mic1:oom";

fn scenario(policy: SchedPolicy) -> ((usize, u64), Vec<Outcome>) {
    let log: Arc<Mutex<Vec<Outcome>>> = Arc::default();
    let k = Kernel::new_with_policy(policy);
    k.enable_trace();
    let out = Arc::clone(&log);
    k.spawn("root", move || {
        let registry = FunctionRegistry::new();
        registry.register(DeviceBinary::new("pin.so", MB, 16 * MB).simple_function(
            "bump",
            |ctx| {
                ctx.compute(1e9, 60);
                Vec::new()
            },
        ));
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            CoiConfig::default(),
            registry,
            FaultSchedule::parse(FAULTS).unwrap(),
            Some(DedupConfig::default()),
        );
        let store = world.store().unwrap().clone();
        let sched = SwapScheduler::new(2, "/swap/pins").with_store(&store);
        let at = |s: u64| sleep(SimTime(s * 1_000_000_000).since(now()));
        let note = |sched: &SwapScheduler| {
            out.lock()
                .unwrap()
                .push((sched.swap_count(), sched.resident_jobs()));
        };

        // Four tenants: t0 and t1 parked, t2 on card 0, t3 on card 1.
        let mut tenants = Vec::new();
        for i in 0..4u64 {
            let host = world.coi().create_host_process(&format!("t{i}"));
            let device = usize::from(i == 3);
            let h = world.coi().create_process(&host, device, "pin.so").unwrap();
            let buf = h.create_buffer(32 * MB).unwrap();
            h.buffer_write(&buf, Payload::synthetic(i, 32 * MB))
                .unwrap();
            let id = sched.admit_tagged(&h, device, &format!("t{i}"));
            if i < 2 {
                sched.park(id).unwrap();
            }
            tenants.push((id, h, buf));
        }
        note(&sched);

        // Three rotations; whoever is resident computes in between.
        for round in 0..3 {
            at(5 + 5 * round);
            assert_eq!(sched.rotate().unwrap(), 2);
            note(&sched);
            for (id, h, _) in &tenants {
                if sched.is_resident(*id) {
                    h.run_sync("bump", Vec::new(), &[]).unwrap();
                }
            }
        }

        // A park / swap_in pair: the tenant on card 0 goes to the back of
        // the queue and one from the middle of it takes the card on demand.
        at(25);
        let (_, on0) = sched.resident_jobs()[0];
        sched.park(on0).unwrap();
        let parked: Vec<JobId> = tenants
            .iter()
            .map(|t| t.0)
            .filter(|id| !sched.is_resident(*id))
            .collect();
        sched.swap_in(*parked.last().unwrap(), 0).unwrap();
        note(&sched);

        // The swap-out that fails: the rotation's first swap-out finds the
        // host pool empty, nothing moves, and the retry goes through.
        at(41);
        let before = sched.resident_jobs();
        assert!(sched.rotate().is_err(), "host oom fails the swap-out");
        assert_eq!(sched.resident_jobs(), before);
        note(&sched);
        assert_eq!(sched.rotate().unwrap(), 2);
        note(&sched);

        // The swap-in that fails: card 1 is vacated, then refuses the
        // restored process; the tenant keeps its snapshot and comes back
        // on the second attempt.
        at(55);
        let (_, on1) = sched.resident_jobs()[1];
        sched.park(on1).unwrap();
        at(61);
        assert!(sched.swap_in(on1, 1).is_err(), "card oom fails the swap-in");
        assert!(!sched.is_resident(on1));
        note(&sched);
        sched.swap_in(on1, 1).unwrap();
        note(&sched);

        // Every tenant's buffer survived all of it.
        for (i, (id, h, buf)) in tenants.iter().enumerate() {
            if !sched.is_resident(*id) {
                let device = sched.resident_jobs()[0].0;
                sched.park(sched.resident_jobs()[0].1).unwrap();
                sched.swap_in(*id, device).unwrap();
            }
            assert_eq!(
                h.buffer_read(buf).unwrap().digest(),
                Payload::synthetic(i as u64, 32 * MB).digest(),
                "tenant {i}"
            );
        }
        note(&sched);
        for (id, h, _) in &tenants {
            let resident = sched.is_resident(*id);
            sched.retire(*id).unwrap();
            if resident {
                h.destroy().unwrap();
            }
        }
        assert_eq!(store.stats().manifests, 0, "retire leaked store state");
        assert_eq!(world.server().faults().fired_count(), 2);
    });
    k.run();
    let log = log.lock().unwrap().clone();
    ((k.trace_len(), k.trace_digest()), log)
}

#[test]
fn the_mixed_scenario_keeps_its_parent_commit_trace() {
    let (fifo, fifo_log) = scenario(SchedPolicy::Fifo);
    let (random, random_log) = scenario(SchedPolicy::Random(7));
    // The policy reorders same-instant threads, not outcomes.
    assert_eq!(fifo_log, random_log);
    let expected: Vec<_> = OUTCOMES.iter().map(|(n, r)| (*n, r.to_vec())).collect();
    assert_eq!(fifo_log, expected);
    assert_eq!(fifo, FIFO, "SchedPolicy::Fifo");
    assert_eq!(random, RANDOM_7, "SchedPolicy::Random(7)");
}

/// `(swap_count, resident_jobs)` after each step: a failed operation
/// moves neither, and only successful transports are counted.
const OUTCOMES: [(u64, &[(usize, JobId)]); 10] = [
    (2, &[(0, 3), (1, 4)]),
    (6, &[(0, 1), (1, 2)]),
    (10, &[(0, 3), (1, 4)]),
    (14, &[(0, 1), (1, 2)]),
    (16, &[(0, 4), (1, 2)]),
    (16, &[(0, 4), (1, 2)]),
    (20, &[(0, 3), (1, 1)]),
    (21, &[(0, 3)]),
    (22, &[(0, 3), (1, 1)]),
    (28, &[(0, 4), (1, 1)]),
];
/// `(trace_len, trace_digest)` measured at the parent commit (`4fa5543`).
const FIFO: (usize, u64) = (0x4515, 0x1438_65ab_061c_a227);
const RANDOM_7: (usize, u64) = (0x4519, 0xb4d7_3a9c_fe81_b7ae);
