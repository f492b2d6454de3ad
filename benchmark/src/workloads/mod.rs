//! The five workloads. Each drives the program through its public
//! functions only and hands back an [`Outcome`]; the child process
//! turns that into the metrics.
//!
//! Every workload has a frozen *repetition*: a fixed amount of work
//! whose virtual results repeat bit for bit. The closed-loop workloads
//! run their repetition several times and report the median host cost;
//! the monolithic scenarios, whose repetition would each pay a
//! population build, run it once and are long enough to average bursts.

use std::cell::RefCell;
use std::time::Instant;

use simkernel::{obs, Kernel};

use crate::probe::Probe;
use crate::spans;
use crate::sys::Rusage;

pub mod ckpt_restart;
pub mod fleet;
pub mod serving;
pub mod swap_churn;

/// The run length every frozen count below is calibrated for; other
/// `--seconds` values scale them linearly.
pub const REF_SECONDS: u64 = 10;

/// What one child run was asked to do.
pub struct Ctx<'a> {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Whether the recorders are on (the traced run).
    pub traced: bool,
    /// Time domains (`fleet-migrate` only; 2 in the `d2` re-run).
    pub domains: u32,
    /// The host's hand-off probe; workloads take a point between
    /// repetitions, never inside a timed region.
    pub probe: &'a RefCell<Probe>,
}

impl Ctx<'_> {
    /// `count_at_ref` scaled from [`REF_SECONDS`] to this run's
    /// `--seconds`, at least 1. Counts are fixed per run length, not cut
    /// off by a timer, so virtual results repeat exactly.
    pub fn scale(&self, count_at_ref: u64) -> u64 {
        (count_at_ref * self.seconds).div_ceil(REF_SECONDS).max(1)
    }

    /// How often to repeat something that is repeated only to steady
    /// the host clock: `count` times, but once in the traced run, which
    /// attributes cost rather than times it.
    pub fn repeats(&self, count: u64) -> u64 {
        if self.traced {
            1
        } else {
            count
        }
    }

    /// Take a hand-off probe point.
    pub fn probe_point(&self) {
        self.probe.borrow_mut().point();
    }
}

/// One workload of the benchmark.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Runs it.
    pub run: fn(&Ctx) -> Outcome,
    /// Whether the traced pass also re-runs it at `domains: 2`.
    pub rerun_at_two_domains: bool,
}

/// Every workload, in the order `all` runs them.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "ckpt-restart",
        why: "The paper's Fig 10 path on plain Snapify-IO: coi, scif, blcr and snapify-io own the virtual time and snapstore is bypassed, so a snapstore change must not move it.",
        run: ckpt_restart::run,
        rerun_at_two_domains: false,
    },
    Workload {
        name: "swap-churn",
        why: "Few threads, 1.25 GiB images, working set 2.5x the restore cache: the one workload where the snapstore and snapify-io data path outweighs simkernel thread hand-off.",
        run: swap_churn::run,
        rerun_at_two_domains: false,
    },
    Workload {
        name: "serving-zipf",
        why: "1000 small tenants under open-loop Zipf traffic below the capacity knee: latency reflects the swap path, not the queue; simkernel, core::scheduler and serving do the host work.",
        run: serving::run_zipf,
        rerun_at_two_domains: false,
    },
    Workload {
        name: "serving-overload",
        why: "Same population offered twice what it can serve: the run is service-limited, so a capacity change shows in virtual time per request where a light-load-only gain shows nothing.",
        run: serving::run_overload,
        rerun_at_two_domains: false,
    },
    Workload {
        name: "fleet-migrate",
        why: "Controller-driven cross-node migrations: the only workload reaching simkernel::domain, scif::cluster, snapstore::pool and core::fleet.",
        run: fleet::run,
        rerun_at_two_domains: true,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Host cost of one timed repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    /// Host wall seconds.
    pub wall_s: f64,
    /// Process CPU and context switches consumed meanwhile.
    pub rusage: Rusage,
}

/// Times one repetition on the host clock and `getrusage`. In the
/// traced run the region it times is also the region the recorders
/// (`simkernel::obs` and the benchmark's spans) are on for, so set-up
/// and output checks stay out of the per-layer numbers.
pub struct Stopwatch {
    traced: bool,
    start: Instant,
    rusage: Rusage,
}

impl Stopwatch {
    /// Start the timed region.
    pub fn start(traced: bool) -> Stopwatch {
        if traced {
            obs::enable();
            spans::enable();
        }
        Stopwatch {
            traced,
            rusage: Rusage::now(),
            start: Instant::now(),
        }
    }

    /// End the timed region.
    pub fn stop(self) -> Timed {
        let timed = Timed {
            wall_s: self.start.elapsed().as_secs_f64(),
            rusage: Rusage::now().since(&self.rusage),
        };
        if self.traced {
            spans::disable();
            obs::disable();
        }
        timed
    }
}

/// The virtual results of one repetition: everything here must repeat
/// bit for bit for a seed, in every repetition, run and mode.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Virtual {
    /// Virtual clock at the end of the repetition, ns.
    pub makespan_ns: u64,
    /// Bytes that crossed the snapshot transport.
    pub shipped_bytes: u64,
    /// Mean virtual latency of one op, ns (the README says what an op's
    /// latency is on each workload).
    pub op_mean_ns: u64,
    /// Ops behind that mean.
    pub n: u64,
    /// Further exact values.
    pub exact: Vec<(&'static str, u64)>,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops and output checks attempted, over all repetitions.
    pub attempted: u64,
    /// Of those, how many failed, were refused or did not verify.
    pub failed: u64,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host cost of each timed repetition.
    pub reps: Vec<Timed>,
    /// The virtual results of a repetition (`None`: none completed).
    pub virt: Option<Virtual>,
    /// Per-layer metrics only this workload can supply (from its report
    /// structs and its own samples).
    pub layer: Vec<(&'static str, f64)>,
    /// Kernel events dispatched in one repetition (traced run; the
    /// fleet always has them).
    pub events: u64,
    /// Digest of the run's behaviour, so drift is one field: the kernel
    /// trace digest (traced run only) or `FleetReport::digest()`.
    pub digest: Option<u64>,
}

impl Outcome {
    /// Record one repetition's virtual results. A repetition that
    /// differs from the first is a failed output check: identical work
    /// must give identical virtual time, bytes and counts.
    pub fn accept(&mut self, virt: Virtual) {
        match &self.virt {
            None => self.virt = Some(virt),
            Some(first) if *first == virt => {}
            Some(first) => {
                eprintln!("repetition not identical:\n first {first:?}\n later {virt:?}");
                self.failed += 1;
            }
        }
    }
}

/// Result of one simulation the benchmark ran on a kernel of its own.
pub struct SimRun<T> {
    /// What the root thread returned.
    pub value: T,
    /// Kernel trace length (0 untraced).
    pub events: u64,
    /// Kernel trace digest (the empty digest untraced).
    pub digest: u64,
}

/// `Kernel::run_root`, except that the benchmark builds the kernel
/// itself so the traced run can turn its event trace on.
pub fn run_sim<T, F>(traced: bool, root: F) -> SimRun<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let kernel = Kernel::new();
    if traced {
        kernel.enable_trace();
    }
    let handle = kernel.spawn("root", root);
    kernel.run();
    SimRun {
        value: handle
            .take_result()
            .expect("root thread produced no result"),
        events: kernel.trace_len() as u64,
        digest: kernel.trace_digest(),
    }
}

/// Run `call` as op-level call `name`: a driver span when tracing, and
/// always its virtual duration in ns.
pub fn timed_call<T>(name: &'static str, call: impl FnOnce() -> T) -> (T, u64) {
    let _span = spans::driver(name);
    let v0 = spans::virtual_ns();
    let out = call();
    (out, spans::virtual_ns() - v0)
}

/// FNV-1a fold of `v` into `h`, for chaining per-op digests.
pub fn fold(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h, |h, b| (h ^ *b as u64).wrapping_mul(0x100_0000_01b3))
}

/// ns → ms.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_with_seconds_and_the_traced_run_does_not_repeat() {
        let probe = RefCell::new(Probe::start());
        let ctx = |seconds, traced| Ctx {
            seed: 1,
            seconds,
            traced,
            domains: 1,
            probe: &probe,
        };
        assert_eq!(ctx(REF_SECONDS, false).scale(13), 13);
        assert_eq!(ctx(2 * REF_SECONDS, false).scale(13), 26);
        assert_eq!(ctx(1, false).scale(13), 2);
        assert_eq!(ctx(1, false).scale(1), 1);
        assert_eq!(ctx(10, false).repeats(4), 4);
        assert_eq!(ctx(10, true).repeats(4), 1);
    }

    #[test]
    fn names_are_unique_and_whys_fit_one_line() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(ALL[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(by_name(w.name).is_some());
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn a_repetition_that_differs_is_a_failed_check() {
        let mut out = Outcome::default();
        let virt = |makespan_ns| Virtual {
            makespan_ns,
            ..Virtual::default()
        };
        out.accept(virt(5));
        out.accept(virt(5));
        assert_eq!(out.failed, 0);
        out.accept(virt(6));
        assert_eq!((out.failed, out.virt), (1, Some(virt(5))));
    }
}
