//! Property tests of incremental (O(dirty)) warm capture on the swap
//! path: reusing clean regions from the prior snapshot is an
//! optimization, never a semantic change. For arbitrary dirty sets and
//! wakeup orders, a tenant restored from an incremental capture must be
//! byte-identical to one restored from an always-full capture — and a
//! transport fault landing mid-delta-capture must not corrupt the delta
//! chain the next successful capture extends.

use proptest::prelude::*;
use snapify_repro::coi_sim::FunctionRegistry;
use snapify_repro::prelude::*;
use snapify_repro::simkernel::time::secs;

const BUFS: usize = 6;
const BUF_BYTES: u64 = 8 * MB;

fn registry() -> FunctionRegistry {
    let reg = FunctionRegistry::new();
    reg.register(
        DeviceBinary::new("tenant.so", MB, 32 * MB).simple_function("bump", |ctx| {
            ctx.compute(1e8, 60);
            Vec::new()
        }),
    );
    reg
}

/// One cold park + rotate, an arbitrary dirty set, then a warm park +
/// rotate. Verifies every buffer against its expected payload in-sim and
/// returns the restored digests plus the store's clean-byte counter.
fn park_cycle(
    policy: SchedPolicy,
    seed: u64,
    rebase_every: u32,
    dirty: Vec<(u8, u64)>,
) -> (Vec<u64>, u64) {
    Kernel::run_root_with(policy, move || {
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            CoiConfig::default(),
            registry(),
            FaultSchedule::none(),
            Some(DedupConfig {
                incremental_rebase_every: rebase_every,
                ..DedupConfig::default()
            }),
        );
        let store = world.store().unwrap().clone();
        let sched = SwapScheduler::new(1, "/prop/incr").with_store(&store);
        let host = world.coi().create_host_process("t");
        let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
        let mut bufs = Vec::new();
        for i in 0..BUFS as u64 {
            let b = h.create_buffer(BUF_BYTES).unwrap();
            h.buffer_write(&b, Payload::synthetic(seed ^ i, BUF_BYTES))
                .unwrap();
            bufs.push(b);
        }
        let id = sched.admit(&h, 0);
        sched.park(id).unwrap();
        sched.rotate().unwrap();

        let mut expect: Vec<u64> = (0..BUFS as u64).map(|i| seed ^ i).collect();
        for (b, s) in &dirty {
            let i = *b as usize % BUFS;
            h.buffer_write(&bufs[i], Payload::synthetic(*s, BUF_BYTES))
                .unwrap();
            expect[i] = *s;
        }
        sched.park(id).unwrap();
        sched.rotate().unwrap();

        let digests: Vec<u64> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let got = h.buffer_read(b).unwrap().digest();
                assert_eq!(
                    got,
                    Payload::synthetic(expect[i], BUF_BYTES).digest(),
                    "buffer {i} corrupted (rebase_every={rebase_every})"
                );
                got
            })
            .collect();
        (digests, store.stats().capture_clean_bytes)
    })
}

/// Restore-from-incremental must equal restore-from-full: same tenant,
/// same dirty set, `rebase_every = 1` (always-full baseline) against
/// `rebase_every = 0` (never rebase).
fn incremental_matches_full(policy: SchedPolicy, seed: u64, dirty: Vec<(u8, u64)>) {
    let (full, full_clean) = park_cycle(policy, seed, 1, dirty.clone());
    let (inc, inc_clean) = park_cycle(policy, seed, 0, dirty.clone());
    assert_eq!(
        full, inc,
        "incremental restore diverges from the full-capture baseline"
    );
    assert_eq!(full_clean, 0, "the always-full baseline must never reuse");
    let distinct: std::collections::HashSet<usize> =
        dirty.iter().map(|(b, _)| *b as usize % BUFS).collect();
    if distinct.len() < BUFS {
        assert!(
            inc_clean > 0,
            "clean buffers must replay from the prior snapshot"
        );
    }
}

/// A host-memory fault landing on the warm (delta) capture must fail
/// that swap-out cleanly: the tenant stays resident and runnable, the
/// prior snapshot chain stays restorable, and a retried park + rotate
/// round-trips every byte.
fn fault_mid_delta_capture_leaves_chain_intact(policy: SchedPolicy, seed: u64) {
    Kernel::run_root_with(policy, move || {
        let schedule = FaultSchedule::none().with(
            SimTime(secs(30).as_nanos()),
            FaultTarget::Mem(NodeId::HOST),
            FaultKind::Oom,
        );
        let world = SnapifyWorld::boot_with(
            PlatformParams::default(),
            CoiConfig::default(),
            registry(),
            schedule,
            Some(DedupConfig::default()),
        );
        let store = world.store().unwrap().clone();
        let sched = SwapScheduler::new(1, "/prop/chaos").with_store(&store);
        let host = world.coi().create_host_process("t");
        let h = world.coi().create_process(&host, 0, "tenant.so").unwrap();
        let mut bufs = Vec::new();
        for i in 0..BUFS as u64 {
            let b = h.create_buffer(BUF_BYTES).unwrap();
            h.buffer_write(&b, Payload::synthetic(seed ^ i, BUF_BYTES))
                .unwrap();
            bufs.push(b);
        }
        let id = sched.admit(&h, 0);
        sched.park(id).unwrap();
        sched.rotate().unwrap();
        let manifests_before = store.stats().manifests;

        // Dirty one buffer, then step past the fault's due time: the
        // delta capture's first host-side allocation hits the Oom.
        h.buffer_write(&bufs[0], Payload::synthetic(seed ^ 777, BUF_BYTES))
            .unwrap();
        simkernel::sleep(secs(31));
        assert!(
            sched.park(id).is_err(),
            "the injected fault must surface from the delta capture"
        );

        // The failed capture committed nothing and the tenant still runs.
        assert_eq!(
            store.stats().manifests,
            manifests_before,
            "a failed delta capture must not commit a manifest"
        );
        h.run_sync("bump", Vec::new(), &[]).unwrap();

        // The fault fired once; the retried delta capture extends the
        // intact chain and the restore round-trips every byte.
        sched.park(id).unwrap();
        sched.rotate().unwrap();
        for (i, b) in bufs.iter().enumerate() {
            let want = if i == 0 { seed ^ 777 } else { seed ^ i as u64 };
            assert_eq!(
                h.buffer_read(b).unwrap().digest(),
                Payload::synthetic(want, BUF_BYTES).digest(),
                "buffer {i} corrupted after the faulted delta capture"
            );
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// FIFO scheduling: incremental restore equals full restore for
    /// arbitrary dirty sets.
    #[test]
    fn incremental_matches_full_fifo(
        seed in 0u64..1_000_000,
        dirty in prop::collection::vec((any::<u8>(), 1_000_000u64..2_000_000), 0..4),
    ) {
        incremental_matches_full(SchedPolicy::Fifo, seed, dirty);
    }

    /// Randomized wakeup order: the pipelined shipper may interleave
    /// with the span-replay path arbitrarily; bytes must not change.
    #[test]
    fn incremental_matches_full_random_sched(
        sched_seed in 1u64..u64::MAX,
        seed in 0u64..1_000_000,
        dirty in prop::collection::vec((any::<u8>(), 1_000_000u64..2_000_000), 0..4),
    ) {
        incremental_matches_full(SchedPolicy::Random(sched_seed), seed, dirty);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, .. ProptestConfig::default() })]

    /// Randomized wakeup order under a fault landing mid-delta-capture.
    #[test]
    fn fault_mid_delta_capture_random_sched(
        sched_seed in 1u64..u64::MAX,
        seed in 0u64..1_000_000,
    ) {
        fault_mid_delta_capture_leaves_chain_intact(SchedPolicy::Random(sched_seed), seed);
    }
}

/// FIFO scheduling under a fault landing mid-delta-capture.
#[test]
fn fault_mid_delta_capture_fifo() {
    fault_mid_delta_capture_leaves_chain_intact(SchedPolicy::Fifo, 42);
}
