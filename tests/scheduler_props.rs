//! Property test of `SwapScheduler`'s control plane: random sequences of
//! `admit` / `park` / `swap_in` / `vacate` / `rotate` / `retire` over one
//! to three cards, starting from four parked tenants, under a generated
//! schedule of host-side hard faults (`fs.host:diskfull`, `mem.host:oom`
//! — about one operation in ten fails), held against a reference model
//! that is nothing but a device map and a queue.
//!
//! After every operation: the scheduler's residents are the model's, so
//! every live job is in exactly one of {resident, ready} (one driver
//! thread: nothing is ever mid-call between operations) and no device
//! has two; each card runs exactly the process the model puts there; a
//! failed operation moved nothing (a failed demand swap-in sends its job
//! to the back of the queue, as documented); `swap_count` is the number
//! of transports that succeeded; a failed swap-out left a tenant that
//! still takes work. The queue's order is observable through `rotate`,
//! which must bring in exactly the jobs the model has at the front. At
//! the end everything is retired and the store holds nothing.

use proptest::prelude::*;
use snapify_repro::coi_sim::FunctionRegistry;
use snapify_repro::prelude::*;
use snapify_repro::snapify::JobId;
use std::collections::{BTreeMap, VecDeque};

/// The reference model.
#[derive(Default)]
struct Model {
    resident: BTreeMap<usize, JobId>,
    ready: VecDeque<JobId>,
    swaps: u64,
}

impl Model {
    fn device_of(&self, id: JobId) -> Option<usize> {
        self.resident
            .iter()
            .find(|(_, j)| **j == id)
            .map(|(d, _)| *d)
    }

    fn swapped_out(&mut self, id: JobId) {
        let device = self.device_of(id).expect("model: swap-out of a parked job");
        self.resident.remove(&device);
        self.ready.push_back(id);
        self.swaps += 1;
    }

    fn swapped_in(&mut self, id: JobId, device: usize) {
        self.ready.retain(|j| *j != id);
        assert!(
            self.resident.insert(device, id).is_none(),
            "model: two on {device}"
        );
        self.swaps += 1;
    }

    /// A rotation in which the first `transports` transports succeed (all
    /// of them when the call returned `Ok`); the one after fails and ends
    /// it — a failed swap-out moves nothing, a failed swap-in leaves the
    /// device free and its job at the head of the line.
    fn rotate(&mut self, devices: usize, mut transports: u64) -> usize {
        let mut switches = 0;
        for device in 0..devices {
            if self.ready.is_empty() {
                continue;
            }
            for half in 0..2 {
                let moving = match half {
                    0 => self.resident.get(&device).copied(),
                    _ => self.ready.front().copied(),
                };
                let Some(id) = moving else { continue };
                if transports == 0 {
                    return switches;
                }
                transports -= 1;
                match half {
                    0 => self.swapped_out(id),
                    _ => self.swapped_in(id, device),
                }
            }
            switches += 1;
        }
        switches
    }
}

fn registry() -> FunctionRegistry {
    let reg = FunctionRegistry::new();
    reg.register(
        DeviceBinary::new("prop.so", MB, 8 * MB).simple_function("bump", |ctx| {
            ctx.compute(1e8, 60);
            Vec::new()
        }),
    );
    reg
}

/// `(kind, a, b)`: the operation and two operands it reduces modulo
/// whatever it indexes (a live job, a device).
type Op = (u8, u8, u8);

/// Every case starts with this many tenants parked, created fault-free
/// in the first [`PROLOGUE_MS`] of virtual time.
const PARKED: usize = 4;
const PROLOGUE_MS: u64 = 3_000;

fn run_case(policy: SchedPolicy, devices: usize, ops: Vec<Op>, faults: Vec<(u64, bool)>) {
    let schedule: Vec<String> = faults
        .iter()
        .map(|(after_ms, disk)| {
            let target = if *disk {
                "fs.host:diskfull"
            } else {
                "mem.host:oom"
            };
            format!("{}:{target}", (PROLOGUE_MS + after_ms) * 1000)
        })
        .collect();
    let schedule = FaultSchedule::parse(&schedule.join(";")).unwrap();
    Kernel::run_root_with(policy, move || {
        let params = PlatformParams {
            num_devices: devices,
            ..PlatformParams::default()
        };
        let world = SnapifyWorld::boot_with(
            params,
            CoiConfig::default(),
            registry(),
            schedule,
            Some(DedupConfig::default()),
        );
        let store = world.store().unwrap().clone();
        let sched = SwapScheduler::new(devices, "/swap/props").with_store(&store);
        let host = world.coi().create_host_process("tenants");
        let mut model = Model::default();
        let mut handles: BTreeMap<JobId, CoiProcessHandle> = BTreeMap::new();
        for _ in 0..PARKED {
            let h = world.coi().create_process(&host, 0, "prop.so").unwrap();
            let id = sched.admit(&h, 0);
            sched.park(id).unwrap();
            model.resident.insert(0, id);
            model.swapped_out(id);
            handles.insert(id, h);
        }
        simkernel::sleep(SimTime(PROLOGUE_MS * 1_000_000).since(simkernel::now()));

        for (kind, a, b) in ops {
            let live: Vec<JobId> = handles.keys().copied().collect();
            let job = live.get(a as usize % live.len().max(1)).copied();
            let device = b as usize % devices;
            let before = sched.swap_count();
            match (kind % 6, job) {
                // admit: a fresh tenant on a free card (a fault may take
                // the creation itself — then there is nothing to admit).
                (0, _) if !model.resident.contains_key(&device) => {
                    let Ok(h) = world.coi().create_process(&host, device, "prop.so") else {
                        continue;
                    };
                    let seeded = h.create_buffer(4 * MB).and_then(|buf| {
                        h.buffer_write(&buf, Payload::synthetic(device as u64, 4 * MB))
                    });
                    if seeded.is_err() {
                        h.destroy().unwrap();
                        continue;
                    }
                    let id = sched.admit(&h, device);
                    model.resident.insert(device, id);
                    handles.insert(id, h);
                }
                (1, Some(id)) => match (sched.park(id), model.device_of(id)) {
                    (Ok(()), Some(_)) => model.swapped_out(id),
                    (Ok(()), None) => {}
                    (Err(_), was) => assert!(was.is_some(), "parking a parked job failed"),
                },
                (2, Some(id)) => {
                    let at = model.device_of(id);
                    let refused = at.is_some_and(|d| d != device)
                        || (at.is_none() && model.resident.contains_key(&device));
                    match sched.swap_in(id, device) {
                        Ok(()) if at == Some(device) => {}
                        Ok(()) => {
                            assert!(!refused, "swap_in({id}, {device}) went through");
                            model.swapped_in(id, device);
                        }
                        Err(SnapifyError::Protocol(_)) if refused => {}
                        Err(e) => {
                            assert!(!refused && at.is_none(), "swap_in({id}, {device}): {e}");
                            model.ready.retain(|j| *j != id);
                            model.ready.push_back(id);
                        }
                    }
                }
                (3, _) => match (sched.vacate(device), model.resident.get(&device).copied()) {
                    (Ok(who), expected) => {
                        assert_eq!(who, expected, "vacate({device}) names the resident");
                        who.into_iter().for_each(|id| model.swapped_out(id));
                    }
                    (Err(_), resident) => {
                        assert!(resident.is_some(), "vacating a free card failed")
                    }
                },
                (4, _) => {
                    let outcome = sched.rotate();
                    let transports = match outcome {
                        Ok(_) => u64::MAX,
                        Err(_) => sched.swap_count() - before,
                    };
                    let switches = model.rotate(devices, transports);
                    if let Ok(n) = outcome {
                        assert_eq!(n, switches, "rotate's switch count");
                    }
                }
                (5, Some(id)) => {
                    sched.retire(id).unwrap();
                    let h = handles.remove(&id).unwrap();
                    match model.device_of(id) {
                        Some(d) => {
                            model.resident.remove(&d);
                            h.destroy().unwrap();
                        }
                        None => model.ready.retain(|j| *j != id),
                    }
                    // Its swap snapshots went with it: nothing under the
                    // job's prefix is left to delete.
                    assert_eq!(store.delete_prefix(&format!("/swap/props/job{id}/")), 0);
                }
                _ => continue,
            }

            // The oracle.
            let residents: Vec<(usize, JobId)> =
                model.resident.iter().map(|(d, j)| (*d, *j)).collect();
            assert_eq!(sched.resident_jobs(), residents, "after {kind}/{a}/{b}");
            assert_eq!(sched.swap_count(), model.swaps, "after {kind}/{a}/{b}");
            assert_eq!(
                model.resident.len() + model.ready.len(),
                handles.len(),
                "every live job is resident or ready, never both"
            );
            for (id, h) in &handles {
                assert_eq!(sched.is_resident(*id), model.device_of(*id).is_some());
                if let Some(d) = model.device_of(*id) {
                    assert_eq!(h.device(), d, "job {id} runs where the model has it");
                    // Resident means runnable — after a failed swap-out too.
                    h.run_sync("bump", Vec::new(), &[]).unwrap();
                }
            }
            for d in 0..devices {
                assert_eq!(
                    world.coi().daemon(d).live_processes(),
                    usize::from(model.resident.contains_key(&d)),
                    "card {d} runs exactly its resident"
                );
            }
            simkernel::sleep(simkernel::time::ms(20));
        }

        // The queue is in the model's order: rotations bring the jobs in
        // exactly as the model lines them up (faults permitting).
        for _ in 0..handles.len() {
            let before = sched.swap_count();
            let transports = match sched.rotate() {
                Ok(_) => u64::MAX,
                Err(_) => sched.swap_count() - before,
            };
            model.rotate(devices, transports);
            let residents: Vec<(usize, JobId)> =
                model.resident.iter().map(|(d, j)| (*d, *j)).collect();
            assert_eq!(sched.resident_jobs(), residents, "rotation order");
        }
        for (id, h) in handles {
            let resident = sched.is_resident(id);
            sched.retire(id).unwrap();
            if resident {
                h.destroy().unwrap();
            }
        }
        let stats = store.stats();
        assert_eq!(
            (stats.manifests, stats.bytes_stored),
            (0, 0),
            "retire leaked"
        );
    });
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, any::<u8>(), any::<u8>()), 8..24)
}

fn faults() -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((0u64..2_500, any::<bool>()), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn the_scheduler_follows_the_model_fifo(
        devices in 1usize..4,
        ops in ops(),
        faults in faults(),
    ) {
        run_case(SchedPolicy::Fifo, devices, ops, faults);
    }

    #[test]
    fn the_scheduler_follows_the_model_random_sched(
        sched_seed in 1u64..u64::MAX,
        devices in 1usize..4,
        ops in ops(),
        faults in faults(),
    ) {
        run_case(SchedPolicy::Random(sched_seed), devices, ops, faults);
    }
}
