//! NAS multi-zone MPI benchmarks (LU-MZ, SP-MZ, BT-MZ), class C — the
//! Fig 11 workloads.
//!
//! Each benchmark partitions a set of solver zones over the MPI ranks;
//! every iteration performs a ring halo exchange with the neighbouring
//! ranks, offloads the zone sweep to the rank's coprocessor, and ends in
//! a barrier. Per-rank memory (host arrays, device-resident zone data,
//! COI buffers) is the class-C total divided by the rank count — which is
//! why Fig 11(c)'s per-rank checkpoint size, and with it Fig 11(a)/(b)'s
//! CR time, shrink as ranks are added.

use coi_sim::{CoiBuffer, FunctionRegistry};
use mpi_sim::{checkpoint_all, restart_all, Comm, MpiWorld, RankApp};
use phi_platform::{Payload, PlatformParams, GB, MB};
use simkernel::SimDuration;
use snapify::{CheckpointReport, RestartReport, SnapifyError};
use std::sync::Arc;

use crate::kernel::out_tag;
use crate::spec::WorkloadSpec;

/// One NAS-MZ benchmark configuration (class C totals, split over ranks).
#[derive(Clone, Debug)]
pub struct MzSpec {
    /// Benchmark name ("LU-MZ", "SP-MZ", "BT-MZ").
    pub name: &'static str,
    /// Problem class (the paper uses C).
    pub class: char,
    /// Host-side solver arrays, total across ranks.
    pub total_host_bytes: u64,
    /// Offload-private zone data, total.
    pub total_device_bytes: u64,
    /// COI buffer (local store) bytes, total.
    pub total_store_bytes: u64,
    /// Halo exchanged with each neighbour per iteration, per rank.
    pub halo_bytes: u64,
    /// Solver iterations.
    pub iterations: u64,
    /// FLOPs per iteration, total across ranks.
    pub flops_per_iter: f64,
}

impl MzSpec {
    /// The per-rank workload spec for an `n`-rank run.
    pub fn per_rank(&self, n: usize) -> WorkloadSpec {
        let n = n as u64;
        WorkloadSpec {
            name: self.name,
            description: "NAS multi-zone rank",
            host_bytes: self.total_host_bytes / n,
            device_resident_bytes: self.total_device_bytes / n,
            binary_bytes: 8 * MB,
            in_bytes: self.halo_bytes,
            out_bytes: self.halo_bytes,
            store_bytes: self.total_store_bytes / n,
            iterations: self.iterations,
            steps_per_iter: 16,
            flops_per_step: self.flops_per_iter / n as f64 / 16.0,
            read_back: true,
        }
    }

    /// The device binary name (shared by all ranks).
    pub fn binary_name(&self) -> String {
        format!("{}.so", self.name.to_lowercase().replace('-', "_"))
    }
}

/// The three class-C multi-zone benchmarks.
pub fn nas_suite() -> Vec<MzSpec> {
    vec![
        MzSpec {
            name: "LU-MZ",
            class: 'C',
            total_host_bytes: 1200 * MB,
            total_device_bytes: 900 * MB,
            total_store_bytes: 1100 * MB,
            halo_bytes: 24 * MB,
            iterations: 40,
            flops_per_iter: 3.6e12, // ≈3.6 s/iter at one rank → ~2.4 min
        },
        MzSpec {
            name: "SP-MZ",
            class: 'C',
            total_host_bytes: 1400 * MB,
            total_device_bytes: 1000 * MB,
            total_store_bytes: 1200 * MB,
            halo_bytes: 32 * MB,
            iterations: 40,
            flops_per_iter: 3.0e12,
        },
        MzSpec {
            name: "BT-MZ",
            class: 'C',
            total_host_bytes: 2400 * MB,
            total_device_bytes: 1800 * MB,
            total_store_bytes: 2 * GB + 600 * MB,
            halo_bytes: 48 * MB,
            iterations: 40,
            flops_per_iter: 4.2e12,
        },
    ]
}

/// Look up a multi-zone benchmark by name.
pub fn nas_by_name(name: &str) -> Option<MzSpec> {
    nas_suite().into_iter().find(|s| s.name == name)
}

/// One rank of a running multi-zone application.
pub struct MzRank {
    comm: Comm,
    spec: WorkloadSpec,
    handle: coi_sim::CoiProcessHandle,
    host_proc: simproc::SimProcess,
    in_buf: Arc<CoiBuffer>,
    out_buf: Arc<CoiBuffer>,
    _store_buf: Arc<CoiBuffer>,
    next_iteration: u64,
}

impl MzRank {
    fn launch(world: &MpiWorld, mz: &MzSpec, rank: usize) -> Result<MzRank, SnapifyError> {
        let spec = mz.per_rank(world.size());
        let coi = world.world(rank).coi();
        let host_proc = coi.create_host_process(&format!("{}:rank{rank}", mz.name));
        host_proc
            .memory()
            .map_region(
                "solver_arrays",
                Payload::synthetic(out_tag(mz.name, rank as u64), spec.host_bytes),
            )
            .map_err(|e| SnapifyError::Io(e.to_string()))?;
        let handle = coi.create_process(&host_proc, 0, &spec.binary_name())?;
        let in_buf = handle.create_buffer(spec.in_bytes)?;
        let store_buf = handle.create_buffer(spec.store_bytes.max(1))?;
        handle.buffer_write(
            &store_buf,
            Payload::synthetic(out_tag(mz.name, 1 << 41), spec.store_bytes.max(1)),
        )?;
        let out_buf = handle.create_buffer(spec.out_bytes)?;
        Ok(MzRank {
            comm: world.comm(rank),
            spec,
            handle,
            host_proc,
            in_buf,
            out_buf,
            _store_buf: store_buf,
            next_iteration: 0,
        })
    }

    /// One solver iteration: halo exchange, offload sweep, barrier.
    fn iteration(&mut self, i: u64) -> Result<(), SnapifyError> {
        let n = self.comm.size();
        let r = self.comm.rank();
        if n > 1 {
            // Ring halo exchange: send to the right, receive from the left
            // (even ranks send first to avoid head-of-line deadlock).
            let right = (r + 1) % n;
            let left = (r + n - 1) % n;
            let halo = Payload::synthetic(out_tag(self.spec.name, i), self.spec.in_bytes);
            let received = if r.is_multiple_of(2) {
                self.comm.send(right, halo.clone());
                self.comm.recv(left)
            } else {
                let got = self.comm.recv(left);
                self.comm.send(right, halo.clone());
                got
            };
            // Every rank sends the same deterministic halo for iteration
            // `i`; a corrupted exchange would change the digest.
            debug_assert_eq!(received.digest(), halo.digest(), "halo corrupted in flight");
        }
        // Offload the zone sweep.
        self.handle.buffer_write(
            &self.in_buf,
            Payload::synthetic(out_tag(self.spec.name, i) ^ 0x77, self.spec.in_bytes),
        )?;
        self.handle.run_sync(
            "kernel",
            i.to_le_bytes().to_vec(),
            &[&self.in_buf, &self._store_buf, &self.out_buf],
        )?;
        self.handle.buffer_read(&self.out_buf)?;
        self.comm.barrier();
        self.next_iteration = i + 1;
        Ok(())
    }

    fn run_iterations(&mut self, from: u64, count: u64) -> Result<(), SnapifyError> {
        let until = (from + count).min(self.spec.iterations);
        for i in from..until {
            self.iteration(i)?;
        }
        Ok(())
    }
}

/// Timing summary of one coordinated MPI checkpoint/restart experiment.
#[derive(Clone, Debug)]
pub struct MzCrResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Number of ranks.
    pub ranks: usize,
    /// Wall (virtual) time of the coordinated checkpoint.
    pub checkpoint_time: SimDuration,
    /// Wall (virtual) time of the coordinated restart.
    pub restart_time: SimDuration,
    /// Per-rank checkpoint size (host + device + local store of rank 0).
    pub per_rank_checkpoint_bytes: u64,
    /// Per-rank reports from the checkpoint.
    pub reports: Vec<CheckpointReport>,
    /// Per-rank restart reports.
    pub restart_reports: Vec<RestartReport>,
}

/// Run the Fig 11 experiment for one benchmark at one rank count: execute
/// `warmup_iterations`, take a coordinated checkpoint, kill everything,
/// restart, run one more iteration to prove liveness.
pub fn run_mz_cr_experiment(
    mz: &MzSpec,
    ranks: usize,
    warmup_iterations: u64,
) -> Result<MzCrResult, SnapifyError> {
    let registry = FunctionRegistry::new();
    registry.register(crate::kernel::build_binary(&mz.per_rank(ranks)));
    let world = MpiWorld::new(ranks, PlatformParams::default(), registry);

    // Launch and warm up every rank concurrently.
    let mut joins = Vec::new();
    for r in 0..ranks {
        let world2 = world.clone();
        let mz2 = mz.clone();
        joins.push(simkernel::spawn(format!("mz-rank{r}"), move || {
            let mut rank = MzRank::launch(&world2, &mz2, r)?;
            rank.run_iterations(0, warmup_iterations)?;
            Ok::<MzRank, SnapifyError>(rank)
        }));
    }
    let ranks_running: Vec<MzRank> = joins
        .into_iter()
        .map(|j| j.join())
        .collect::<Result<_, _>>()?;

    // Coordinated checkpoint at the (quiesced) iteration boundary.
    let apps: Vec<RankApp> = ranks_running
        .iter()
        .map(|r| RankApp {
            handle: r.handle.clone(),
            host_state: r.next_iteration.to_le_bytes().to_vec(),
        })
        .collect();
    let t0 = simkernel::now();
    let reports = checkpoint_all(&world, &apps, &format!("/snap/{}", mz.name))?;
    let checkpoint_time = simkernel::now() - t0;
    let per_rank_checkpoint_bytes = reports[0].host_snapshot_bytes
        + reports[0].device_snapshot_bytes
        + reports[0].local_store_bytes;

    // Fail everything.
    for r in &ranks_running {
        r.handle.destroy()?;
        r.host_proc.exit();
    }
    drop(ranks_running);

    // Coordinated restart.
    let binary = mz.per_rank(ranks).binary_name();
    let t1 = simkernel::now();
    let restarted = restart_all(&world, &binary, &format!("/snap/{}", mz.name))?;
    let restart_time = simkernel::now() - t1;
    let restart_reports: Vec<RestartReport> = restarted.iter().map(|a| a.report.clone()).collect();

    // Prove the restarted ranks are alive: run one more iteration each.
    let mut joins = Vec::new();
    for (r, app) in restarted.into_iter().enumerate() {
        let world2 = world.clone();
        let mz2 = mz.clone();
        joins.push(simkernel::spawn(format!("mz-resume{r}"), move || {
            let iter = u64::from_le_bytes(app.host_state[..8].try_into().unwrap());
            let bufs = app.handle.buffers();
            let mut rank = MzRank {
                comm: world2.comm(r),
                spec: mz2.per_rank(world2.size()),
                handle: app.handle.clone(),
                host_proc: app.host_proc.clone(),
                in_buf: bufs[0].clone(),
                _store_buf: bufs[1].clone(),
                out_buf: bufs[2].clone(),
                next_iteration: iter,
            };
            rank.run_iterations(iter, 1)?;
            rank.handle.destroy()?;
            Ok::<u64, SnapifyError>(rank.next_iteration)
        }));
    }
    for j in joins {
        let next = j.join()?;
        assert_eq!(
            next,
            warmup_iterations + 1,
            "rank resumed at wrong iteration"
        );
    }

    Ok(MzCrResult {
        name: mz.name,
        ranks,
        checkpoint_time,
        restart_time,
        per_rank_checkpoint_bytes,
        reports,
        restart_reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::Kernel;

    fn tiny(mz: &MzSpec) -> MzSpec {
        let mut m = mz.clone();
        m.total_host_bytes /= 128;
        m.total_device_bytes /= 128;
        m.total_store_bytes /= 128;
        m.halo_bytes /= 128;
        m.iterations = 4;
        m.flops_per_iter /= 1000.0;
        m
    }

    #[test]
    fn nas_suite_has_three_class_c_benchmarks() {
        let s = nas_suite();
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|m| m.class == 'C'));
        assert!(nas_by_name("BT-MZ").is_some());
        assert!(nas_by_name("XX-MZ").is_none());
    }

    #[test]
    fn per_rank_sizes_shrink_with_ranks() {
        let mz = nas_by_name("LU-MZ").unwrap();
        let one = mz.per_rank(1);
        let four = mz.per_rank(4);
        assert_eq!(one.host_bytes, 4 * four.host_bytes);
        assert_eq!(one.store_bytes, 4 * four.store_bytes);
    }

    #[test]
    fn mz_cr_experiment_roundtrips_two_ranks() {
        Kernel::run_root(|| {
            let mz = tiny(&nas_by_name("LU-MZ").unwrap());
            let result = run_mz_cr_experiment(&mz, 2, 2).unwrap();
            assert_eq!(result.ranks, 2);
            assert!(result.checkpoint_time.as_nanos() > 0);
            assert!(result.restart_time.as_nanos() > 0);
            assert!(result.per_rank_checkpoint_bytes > 0);
        });
    }

    #[test]
    fn mz_cr_single_rank_works() {
        Kernel::run_root(|| {
            let mz = tiny(&nas_by_name("SP-MZ").unwrap());
            let result = run_mz_cr_experiment(&mz, 1, 1).unwrap();
            assert_eq!(result.ranks, 1);
        });
    }

    #[test]
    fn per_rank_checkpoint_shrinks_with_more_ranks() {
        Kernel::run_root(|| {
            let mz = tiny(&nas_by_name("BT-MZ").unwrap());
            let one = run_mz_cr_experiment(&mz, 1, 1).unwrap();
            let four = run_mz_cr_experiment(&mz, 4, 1).unwrap();
            assert!(
                four.per_rank_checkpoint_bytes < one.per_rank_checkpoint_bytes,
                "Fig 11(c): per-rank size must shrink with ranks"
            );
            assert!(
                four.checkpoint_time < one.checkpoint_time,
                "Fig 11(a): checkpoint time must shrink with ranks"
            );
        });
    }
}
