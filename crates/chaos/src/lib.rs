//! `simchaos` — the seeded schedule + fault explorer.
//!
//! Every component of the reproduction is deterministic: the kernel's
//! scheduler, the platform's fault plane, the transports' retry loops.
//! This crate composes them into an *explorer*: a single `u64` seed
//! expands into a complete chaos case — which workload to run, which
//! snapshot operation to perform, when to perform it, which faults to
//! inject and when — and [`run_case`] executes that case under
//! [`SchedPolicy::Random`] with the same seed.
//!
//! The payoff is the **one-line repro contract**: a failing case prints
//!
//! ```text
//! SIMCHAOS_SEED=1599094 SIMCHAOS_FAULTS='0:scp:connreset' cargo test --test chaos_explorer
//! ```
//!
//! and re-running with those environment variables (see
//! [`ChaosCase::from_env`]) replays the *byte-identical* execution:
//! same virtual timings, same scheduler decisions, same fault firings,
//! same trace digest. There is no "flaky chaos test" — only a case that
//! fails everywhere or passes everywhere.
//!
//! ## What a generated case asserts
//!
//! Workload cases ([`ChaosOp::Checkpoint`], [`ChaosOp::SwapCycle`],
//! [`ChaosOp::Migrate`], [`ChaosOp::Restart`]) drive a full snapshot
//! lifecycle through the public Snapify API at a seed-chosen virtual
//! time and require the paper's §3 consistency outcome: the disturbed
//! run and the restarted run both verify their output. Their generated
//! fault schedules draw only from the kinds the platform contract
//! survives *transparently* (PCIe CRC replays and latency spikes), so
//! a green sweep is meaningful: any failure is a real protocol bug,
//! not an injected hard error.
//!
//! Transport-soak cases ([`ChaosOp::NfsSoak`], [`ChaosOp::ScpSoak`])
//! stream a payload through a fault-ridden transport and require the
//! retry/backoff layer to absorb every transient fault (NFS timeouts,
//! scp connection resets) with a lossless round trip — never silent
//! corruption. Disabling the retry layer (the deliberately re-injected
//! bug, [`ChaosCase::disable_retries`]) makes exactly these cases fail
//! with a typed error and a replayable repro line.
//!
//! Harder fault kinds (`diskfull`, `shortwrite`, `oom`) are not drawn
//! by the generator — the stack surfaces them as typed errors rather
//! than surviving them, so they live in targeted unit tests — but a
//! hand-written `SIMCHAOS_FAULTS` override may inject any kind at any
//! target for ad-hoc exploration.

#![warn(missing_docs)]

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use coi_sim::{CoiConfig, DeviceBinary, FunctionRegistry};
use phi_platform::{
    cluster_lookahead, FaultKind, FaultSchedule, FaultTarget, NodeId, Payload, PhiServer,
    PlatformParams, MB,
};
use scif_sim::cluster_link;
use simkernel::domain::{MultiDomainConfig, MultiKernel};
use simkernel::obs;
use simkernel::obs::SloSpec;
use simkernel::time::{ms, us};
use simkernel::{SchedPolicy, SimDuration, SimTime};
use simproc::SnapshotStorage;
use snapify::{
    checkpoint_application, restart_application, snapify_migrate, snapify_swapin, snapify_swapout,
    FleetConfig, FleetReport, FleetScheduler, SnapifyWorld, SwapScheduler,
};
use snapify_io::{Nfs, NfsConfig, NfsMode, RetryPolicy, Scp, ScpConfig};
use snapstore::DedupConfig;
use workloads::{by_name, register_suite, WorkloadRun};

/// The workload names a seed may draw (the full suite).
const WORKLOADS: [&str; 8] = ["MD", "MC", "SS", "SG", "JAC", "KM", "FFT", "NB"];

/// Livelock threshold for chaos runs: far above any legitimate case
/// (the busiest generated case schedules a few million events), so a
/// hit means a real no-progress loop.
const LIVELOCK_EVENTS: u64 = 50_000_000;

/// A splitmix64 stream: the same generator the kernel's random
/// scheduler uses, so case expansion is stable across platforms and
/// needs no external crate.
#[derive(Clone, Debug)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "ChaosRng::below(0)");
        self.next_u64() % n
    }
}

/// The snapshot operation a case performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChaosOp {
    /// Mid-run checkpoint, then kill + restart on a seed-chosen device.
    Checkpoint,
    /// Mid-run swap-out (device memory must drop to zero) + swap-in.
    SwapCycle,
    /// Mid-run live migration to the other coprocessor.
    Migrate,
    /// Checkpoint, crash the card out-of-band, restart on the survivor.
    Restart,
    /// Stream a payload through an NFS mount under injected timeouts.
    NfsSoak,
    /// Stream a payload through scp under injected connection resets.
    ScpSoak,
    /// Two tenants time-share one card through [`snapify::SwapScheduler`]
    /// (park / rotate / retire through the dedup store), exercising the
    /// scheduler's error paths and the warm restore fast path. Not drawn
    /// by [`ChaosCase::from_seed`] (that would re-roll every historical
    /// seed); built with [`ChaosCase::swap_rotate_from_seed`].
    SwapRotate,
    /// An open-loop multi-tenant serving run (`serving::run_scenario`)
    /// under injected bus faults: seed-chosen eviction policy, arrival
    /// process, and Zipf skew, with the invariant that every admitted
    /// request reaches first-compute and residency never exceeds device
    /// capacity. Like [`ChaosOp::SwapRotate`], never drawn by
    /// [`ChaosCase::from_seed`]; built with
    /// [`ChaosCase::serve_from_seed`].
    Serve,
    /// A whole fleet run ([`snapify::FleetScheduler`]) — skewed
    /// placement, swap bin-packing, and cross-node migrations through
    /// the shared snapstore pool — under injected pool-NIC connection
    /// resets. A reset mid-migration must fail the in-migration at the
    /// destination and roll the tenant back to its source, leaving it
    /// resumable with nothing leaked in the pool. Like
    /// [`ChaosOp::SwapRotate`], never drawn by [`ChaosCase::from_seed`];
    /// built with [`ChaosCase::fleet_migrate_from_seed`].
    FleetMigrate,
}

impl ChaosOp {
    /// Short label for logs and repro lines.
    pub fn label(self) -> &'static str {
        match self {
            ChaosOp::Checkpoint => "checkpoint",
            ChaosOp::SwapCycle => "swap",
            ChaosOp::Migrate => "migrate",
            ChaosOp::Restart => "restart",
            ChaosOp::NfsSoak => "nfs-soak",
            ChaosOp::ScpSoak => "scp-soak",
            ChaosOp::SwapRotate => "swap-rotate",
            ChaosOp::Serve => "serve",
            ChaosOp::FleetMigrate => "fleet-migrate",
        }
    }

    /// Parse a [`ChaosOp::label`] back into the op (the `SIMCHAOS_OP`
    /// repro override).
    pub fn parse(label: &str) -> Result<ChaosOp, String> {
        [
            ChaosOp::Checkpoint,
            ChaosOp::SwapCycle,
            ChaosOp::Migrate,
            ChaosOp::Restart,
            ChaosOp::NfsSoak,
            ChaosOp::ScpSoak,
            ChaosOp::SwapRotate,
            ChaosOp::Serve,
            ChaosOp::FleetMigrate,
        ]
        .into_iter()
        .find(|op| op.label() == label)
        .ok_or_else(|| format!("unknown chaos op '{label}'"))
    }

    /// Whether this op is a transport soak (no COI world involved).
    pub fn is_soak(self) -> bool {
        matches!(self, ChaosOp::NfsSoak | ChaosOp::ScpSoak)
    }
}

impl fmt::Display for ChaosOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One fully-expanded chaos case. Every field is a pure function of
/// [`ChaosCase::from_seed`]'s seed; `faults` and `disable_retries` may
/// then be overridden (that is how a repro line re-injects a schedule
/// and how the retry-bug demo disables the absorption layer).
#[derive(Clone, Debug)]
pub struct ChaosCase {
    /// The seed this case expanded from; also the scheduler seed.
    pub seed: u64,
    /// Suite workload driven by the workload ops.
    pub workload: &'static str,
    /// The operation under test.
    pub op: ChaosOp,
    /// Virtual time at which the snapshot operation fires.
    pub snapshot_time: SimDuration,
    /// Device the restarted/swapped process lands on (0 or 1).
    pub device: usize,
    /// Payload size of a transport soak, in MiB.
    pub payload_mb: u64,
    /// The fault schedule injected at world boot.
    pub faults: FaultSchedule,
    /// The deliberately re-injectable bug: run the transports with
    /// `RetryPolicy::disabled()`, so transient faults surface instead
    /// of being absorbed.
    pub disable_retries: bool,
    /// Latency objective evaluated while the case runs. Ops that drive
    /// the [`SwapScheduler`] attach it to the scheduler's SLO monitor
    /// and [`ChaosOutcome::slo_breaches`] reports every violated
    /// window, so a sweep distinguishes "seed crashed" from "seed blew
    /// the latency budget". `None` for ops with no swap plane.
    pub slo: Option<SloSpec>,
    /// Time domains the case runs on (≥ 1). Never drawn by
    /// [`ChaosCase::from_seed`] — that would re-roll every historical
    /// seed — only set by the `SIMCHAOS_DOMAINS` override or by a sweep
    /// directly. With `domains > 1` the case body runs in domain 0 of a
    /// multi-domain kernel while peer domains exchange bounded
    /// cluster-link pings with it, so the conservative sync engine is
    /// under the same random scheduling as the case itself.
    pub domains: u32,
}

/// The swap-in latency objective rotate cases evaluate by default. The
/// simulated platform swaps the largest generated tenant (17 MiB) back
/// in well under a second — cold fetch included — so a breach in a
/// green sweep means a real latency regression, not noise.
const DEFAULT_SWAP_SLO: &str = "swapin.p99 < 2s over 10s";

/// The time-to-first-compute objective serve cases attach to every
/// tenant class by default. Deliberately tight enough that some seeds
/// breach it under faults and queueing: the sweep's point is to report
/// SLO-breach seeds separately from crash seeds, not to stay green.
const DEFAULT_SERVE_SLO: &str = "ttfc.p99 < 3s over 10s";

/// The objective a case carries by construction (overridable, like
/// `faults`): swap-plane ops get [`DEFAULT_SWAP_SLO`], serve cases get
/// [`DEFAULT_SERVE_SLO`], the rest none.
fn default_slo(op: ChaosOp) -> Option<SloSpec> {
    match op {
        ChaosOp::SwapRotate => {
            Some(SloSpec::parse(DEFAULT_SWAP_SLO).expect("DEFAULT_SWAP_SLO parses"))
        }
        ChaosOp::Serve => {
            Some(SloSpec::parse(DEFAULT_SERVE_SLO).expect("DEFAULT_SERVE_SLO parses"))
        }
        _ => None,
    }
}

impl ChaosCase {
    /// Expand `seed` into a complete case.
    pub fn from_seed(seed: u64) -> ChaosCase {
        let mut rng = ChaosRng::new(seed);
        let workload = WORKLOADS[rng.below(WORKLOADS.len() as u64) as usize];
        let op = match rng.below(6) {
            0 => ChaosOp::Checkpoint,
            1 => ChaosOp::SwapCycle,
            2 => ChaosOp::Migrate,
            3 => ChaosOp::Restart,
            4 => ChaosOp::NfsSoak,
            _ => ChaosOp::ScpSoak,
        };
        let snapshot_time = us(500 + rng.below(60_000));
        let device = rng.below(2) as usize;
        let payload_mb = 4 + rng.below(13);
        let faults = generate_faults(&mut rng, op);
        ChaosCase {
            seed,
            workload,
            op,
            snapshot_time,
            device,
            payload_mb,
            faults,
            disable_retries: false,
            slo: default_slo(op),
            domains: 1,
        }
    }

    /// Expand `seed` into a swap-rotate case: the op is pinned to
    /// [`ChaosOp::SwapRotate`] instead of drawn, and the fault schedule
    /// is regenerated from a derived stream so rotate sweeps explore
    /// timings independent of the base sweep. [`ChaosCase::from_seed`]
    /// stays byte-stable: historical repro lines keep replaying the
    /// same cases.
    pub fn swap_rotate_from_seed(seed: u64) -> ChaosCase {
        let mut case = ChaosCase::from_seed(seed);
        case.op = ChaosOp::SwapRotate;
        let mut rng = ChaosRng::new(seed ^ 0x5377_6170_526f_7461);
        case.faults = generate_faults(&mut rng, ChaosOp::SwapRotate);
        case.slo = default_slo(ChaosOp::SwapRotate);
        case
    }

    /// Expand `seed` into a serving case: op pinned to
    /// [`ChaosOp::Serve`], faults regenerated from a derived stream
    /// (same rationale as [`ChaosCase::swap_rotate_from_seed`] — base
    /// expansion stays byte-stable). The serving shape itself (policy,
    /// arrival process, skew) is drawn inside `serve_op` from another
    /// derived stream, so it replays from the seed alone.
    pub fn serve_from_seed(seed: u64) -> ChaosCase {
        let mut case = ChaosCase::from_seed(seed);
        case.op = ChaosOp::Serve;
        let mut rng = ChaosRng::new(seed ^ 0x5365_7276_6546_6161); // "ServeFaa"
        case.faults = generate_faults(&mut rng, ChaosOp::Serve);
        case.slo = default_slo(ChaosOp::Serve);
        case
    }

    /// Expand `seed` into a fleet-migrate case: op pinned to
    /// [`ChaosOp::FleetMigrate`], faults regenerated from a derived
    /// stream (same rationale as [`ChaosCase::swap_rotate_from_seed`] —
    /// the base expansion stays byte-stable). The fleet shape is fixed
    /// ([`FLEET_CHAOS_NODES`] nodes); the scheduler seed and the fault
    /// timings carry all the per-seed variation.
    pub fn fleet_migrate_from_seed(seed: u64) -> ChaosCase {
        let mut case = ChaosCase::from_seed(seed);
        case.op = ChaosOp::FleetMigrate;
        let mut rng = ChaosRng::new(seed ^ 0x466c_6565_744d_6967); // "FleetMig"
        case.faults = generate_faults(&mut rng, ChaosOp::FleetMigrate);
        case.slo = default_slo(ChaosOp::FleetMigrate);
        case
    }

    /// The one-line repro for this case: paste it in front of
    /// `cargo test --test chaos_explorer` (or export the variables) and
    /// the `replay_case_from_env` test re-executes this exact case.
    pub fn repro_line(&self) -> String {
        let mut line = format!(
            "SIMCHAOS_SEED={} SIMCHAOS_FAULTS='{}'",
            self.seed, self.faults
        );
        // Like the op: only a deviation from the default (1) replays.
        if self.domains != 1 {
            line.push_str(&format!(" SIMCHAOS_DOMAINS={}", self.domains));
        }
        // Ops not drawn by `from_seed` (pinned constructors such as
        // `swap_rotate_from_seed`) need an explicit override to replay.
        if self.op != ChaosCase::from_seed(self.seed).op {
            line.push_str(&format!(" SIMCHAOS_OP={}", self.op));
        }
        // Only a non-default objective needs replaying; the default is
        // implied by the op (`SIMCHAOS_SLO=off` disables it entirely).
        if self.slo != default_slo(self.op) {
            match &self.slo {
                Some(spec) => line.push_str(&format!(" SIMCHAOS_SLO='{}'", spec.render())),
                None => line.push_str(" SIMCHAOS_SLO=off"),
            }
        }
        if self.disable_retries {
            line.push_str(" SIMCHAOS_NO_RETRY=1");
        }
        line
    }

    /// Rebuild a case from `SIMCHAOS_SEED` / `SIMCHAOS_FAULTS` /
    /// `SIMCHAOS_NO_RETRY`. Returns `None` when `SIMCHAOS_SEED` is not
    /// set; panics (with the parse error) on a malformed value, since a
    /// silently-ignored repro line would be worse than a test failure.
    pub fn from_env() -> Option<ChaosCase> {
        let seed = std::env::var("SIMCHAOS_SEED").ok()?;
        let seed: u64 = seed
            .parse()
            .unwrap_or_else(|_| panic!("SIMCHAOS_SEED='{seed}' is not a u64"));
        let mut case = ChaosCase::from_seed(seed);
        if let Ok(text) = std::env::var("SIMCHAOS_FAULTS") {
            case.faults = FaultSchedule::parse(&text)
                .unwrap_or_else(|e| panic!("SIMCHAOS_FAULTS='{text}': {e}"));
        }
        if let Ok(label) = std::env::var("SIMCHAOS_OP") {
            case.op =
                ChaosOp::parse(&label).unwrap_or_else(|e| panic!("SIMCHAOS_OP='{label}': {e}"));
            // The op override implies that op's default objective (the
            // repro line only records *deviations* from the default).
            case.slo = default_slo(case.op);
        }
        if let Ok(text) = std::env::var("SIMCHAOS_SLO") {
            case.slo = if text == "off" {
                None
            } else {
                Some(SloSpec::parse(&text).unwrap_or_else(|e| panic!("SIMCHAOS_SLO='{text}': {e}")))
            };
        }
        if let Ok(text) = std::env::var("SIMCHAOS_DOMAINS") {
            case.domains = text
                .parse()
                .ok()
                .filter(|&d| d >= 1)
                .unwrap_or_else(|| panic!("SIMCHAOS_DOMAINS='{text}' is not a positive u32"));
        }
        if std::env::var("SIMCHAOS_NO_RETRY").is_ok_and(|v| v == "1") {
            case.disable_retries = true;
        }
        Some(case)
    }
}

impl fmt::Display for ChaosCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} op={} workload={} t_snap={}us faults=[{}]{}{}",
            self.seed,
            self.op,
            self.workload,
            self.snapshot_time.as_nanos() / 1_000,
            self.faults,
            if self.domains != 1 {
                format!(" domains={}", self.domains)
            } else {
                String::new()
            },
            if self.disable_retries {
                " NO_RETRY"
            } else {
                ""
            }
        )
    }
}

/// Draw a fault schedule appropriate for `op` (see module docs for why
/// workload ops only draw transparently-survivable bus faults).
fn generate_faults(rng: &mut ChaosRng, op: ChaosOp) -> FaultSchedule {
    let mut schedule = FaultSchedule::none();
    match op {
        ChaosOp::NfsSoak | ChaosOp::ScpSoak => {
            // 1..=3 transient transport faults inside the soak window.
            // The default RetryPolicy allows 3 retries per logical
            // operation, so every generated schedule is absorbable.
            let target = if op == ChaosOp::NfsSoak {
                FaultTarget::Nfs
            } else {
                FaultTarget::Scp
            };
            for _ in 0..(1 + rng.below(3)) {
                let at = SimTime::ZERO + us(rng.below(60_000));
                let kind = if op == ChaosOp::NfsSoak {
                    FaultKind::NfsTimeout(us(200 + rng.below(19_800)))
                } else {
                    FaultKind::ConnReset
                };
                schedule = schedule.with(at, target, kind);
            }
        }
        ChaosOp::FleetMigrate => {
            // 1..=2 pool-NIC connection resets on non-hot nodes (the
            // rebalancer's candidate destinations; node 0 holds the
            // parked overflow and only ever migrates *out*). `at` is
            // early so the node's first cross-node import consult trips
            // the fault: the reset must fail that in-migration and roll
            // the tenant back to its source.
            for _ in 0..(1 + rng.below(2)) {
                let at = SimTime::ZERO + us(rng.below(1_000));
                let node = 1 + rng.below(FLEET_CHAOS_NODES as u64 - 1) as usize;
                schedule = schedule.with(at, FaultTarget::Net(node), FaultKind::ConnReset);
            }
        }
        _ => {
            // 0..=2 link-level faults, both cards eligible.
            for _ in 0..rng.below(3) {
                let at = SimTime::ZERO + us(rng.below(200_000));
                let target = FaultTarget::Bus(rng.below(2) as usize);
                let kind = if rng.below(2) == 0 {
                    FaultKind::BusError
                } else {
                    FaultKind::BusDelay(us(100 + rng.below(4_900)))
                };
                schedule = schedule.with(at, target, kind);
            }
        }
    }
    schedule
}

/// What one chaos run produced.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// `None` = every invariant held; `Some(why)` = the case failed.
    pub failure: Option<String>,
    /// Number of scheduler events recorded by the kernel trace.
    pub trace_len: usize,
    /// Order-sensitive digest of the trace. Two runs of the same case
    /// are byte-identical iff `trace_len` and `trace_digest` match.
    pub trace_digest: u64,
    /// How many scheduled faults actually fired.
    pub faults_fired: usize,
    /// Rendered [SLO](simkernel::obs::SloBreach) violations from the
    /// swap plane, in evaluation order. Virtual-time evaluation makes
    /// the list replay byte-identically with the trace, so a sweep can
    /// report *which seeds violated the SLO*, not just which crashed.
    /// Empty for ops that carry no objective (`case.slo == None`).
    pub slo_breaches: Vec<String>,
    /// The flight recorder's last events, captured at failure time
    /// (`None` when the case passed). A diagnosis aid, not part of the
    /// replay contract: the recorder ring is process-global, so
    /// concurrent cases interleave in it.
    pub flight_tail: Option<String>,
}

impl ChaosOutcome {
    /// Whether the case passed.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Fleet size of a [`ChaosOp::FleetMigrate`] case. Fixed so the
/// generated `net{n}` fault targets always name a real node; the
/// per-seed variation lives in the scheduler seed and fault timings.
pub const FLEET_CHAOS_NODES: usize = 4;

/// Pings each peer domain exchanges with domain 0 during a
/// multi-domain case. Small: the peers exist to run the conservative
/// sync engine under the case's random scheduling, not to outlast the
/// case body.
const PEER_PINGS: u64 = 8;

/// Execute one case under `SchedPolicy::Random(case.seed)` with kernel
/// tracing on, and report the outcome. Deadlocks, livelocks, and
/// panics inside the simulation are caught and reported as failures
/// (with the kernel's thread dump in the message), so a sweep can keep
/// going and collect every failing repro line.
///
/// With `case.domains > 1` the case body runs in domain 0 of a
/// multi-domain kernel (lookahead = the platform's network latency)
/// while every other domain runs a peer exchanging bounded
/// cluster-link pings with an echo thread in domain 0; a stuck domain
/// then surfaces as a cross-domain deadlock dump listing every
/// domain's clock and safe horizon. `domains = 1` is exactly the
/// single-kernel execution — historical repro lines replay unchanged.
pub fn run_case(case: &ChaosCase) -> ChaosOutcome {
    // Chaos runs are always self-identifying: stamp the seed, fault
    // schedule, and repro line into the run metadata (exported in the
    // Chrome trace's `otherData` block) and turn the flight recorder on
    // so deadlock/livelock dumps carry the last telemetry events. The
    // recorder is process-global and deliberately never reset here —
    // a reset would stomp concurrent cases in the same test binary.
    obs::set_meta("chaos.seed", &case.seed.to_string());
    obs::set_meta("chaos.faults", &case.faults.to_string());
    obs::set_meta("chaos.repro", &case.repro_line());
    obs::enable();
    // A fleet case cannot run *inside* this function's kernel: the
    // FleetScheduler owns its own multi-node cluster (and therefore its
    // own kernel), so it executes directly and the outcome derives from
    // the fleet report. `SIMCHAOS_DOMAINS` maps onto the fleet's domain
    // count; the scheduler policy is `Random(case.seed)` as everywhere.
    if case.op == ChaosOp::FleetMigrate {
        return run_fleet_migrate_case(case);
    }
    let params = PlatformParams::default();
    let mk = MultiKernel::new(
        MultiDomainConfig::new(case.domains, cluster_lookahead(&params))
            .with_policy(SchedPolicy::Random(case.seed)),
    );
    mk.enable_trace();
    mk.set_livelock_threshold(Some(LIVELOCK_EVENTS));
    mk.set_dump_note(format!("chaos repro: {}", case.repro_line()));

    for d in 1..case.domains {
        let (ptx, prx) = cluster_link(&mk, format!("peer{d}-req"), d, 0, &params);
        let (etx, erx) = cluster_link(&mk, format!("peer{d}-rsp"), 0, d, &params);
        mk.domain(0).spawn(format!("echo{d}"), move || {
            while let Ok(p) = prx.recv() {
                etx.send(p).unwrap();
            }
            etx.close();
        });
        mk.domain(d).spawn(format!("peer{d}"), move || {
            for i in 0..PEER_PINGS {
                simkernel::sleep(us(200));
                let ping = Payload::synthetic(i, 64);
                let digest = ping.digest();
                ptx.send(ping).unwrap();
                match erx.recv_deadline(simkernel::now() + ms(5)) {
                    Ok(Some(p)) => assert_eq!(p.digest(), digest, "echo corrupted the ping"),
                    Ok(None) => {} // domain 0 busy; the echo drains below
                    Err(_) => break,
                }
            }
            ptx.close();
            while erx.recv().is_ok() {}
        });
    }

    let c = case.clone();
    let root = mk.domain(0).spawn("chaos-root", move || execute(&c));
    let run = panic::catch_unwind(AssertUnwindSafe(|| mk.run()));
    let (failure, faults_fired, slo_breaches) = match run {
        Ok(()) => match root.take_result() {
            Some((failure, fired, breaches)) => (failure, fired, breaches),
            None => (
                Some("chaos root thread produced no result".to_string()),
                0,
                Vec::new(),
            ),
        },
        Err(payload) => (Some(panic_text(payload)), 0, Vec::new()),
    };
    // Best-effort even after a failed run: the trace identifies the
    // execution for replay comparison. (`fingerprint` is the plain
    // kernel's `(trace_len, trace_digest)` when `domains = 1`.)
    let (trace_len, trace_digest) =
        panic::catch_unwind(AssertUnwindSafe(|| mk.fingerprint())).unwrap_or((0, 0));
    let flight_tail = failure.as_ref().map(|_| obs::flight_tail(32));
    ChaosOutcome {
        failure,
        trace_len,
        trace_digest,
        faults_fired,
        slo_breaches,
        flight_tail,
    }
}

/// Scan seeds upward from `base` for the first whose *generated* case
/// satisfies `pred`. Expansion only — nothing is executed — so this is
/// cheap enough to use inline in tests that need a case of a specific
/// shape (e.g. "an scp soak with at least two resets").
pub fn find_seed(base: u64, pred: impl Fn(&ChaosCase) -> bool) -> u64 {
    (base..base.saturating_add(100_000))
        .find(|s| pred(&ChaosCase::from_seed(*s)))
        .expect("no matching case within 100k seeds of base")
}

/// Execute a [`ChaosOp::FleetMigrate`] case: run the whole fleet under
/// `Random(case.seed)` with every node handed the case's fault schedule
/// (a `net{n}` entry only ever fires on node `n` — each node consults
/// its own pool NIC), then check the fleet invariants. `faults_fired`
/// reports the rolled-back migrations: every pool-NIC reset that fires
/// on the import path fails exactly one in-migration.
fn run_fleet_migrate_case(case: &ChaosCase) -> ChaosOutcome {
    let cfg = FleetConfig {
        nodes: FLEET_CHAOS_NODES,
        domains: case.domains,
        tenants: 12,
        base_bytes: 8 * MB,
        unique_bytes: MB,
        max_migrations: 3,
        policy: SchedPolicy::Random(case.seed),
        node_faults: vec![case.faults.clone(); FLEET_CHAOS_NODES],
        ..FleetConfig::default()
    };
    match panic::catch_unwind(AssertUnwindSafe(|| FleetScheduler::new(cfg).run())) {
        Ok(report) => {
            let failure = fleet_invariants(&report).err();
            let flight_tail = failure.as_ref().map(|_| obs::flight_tail(32));
            ChaosOutcome {
                failure,
                trace_len: report.fingerprint.0,
                trace_digest: report.fingerprint.1,
                faults_fired: report.failed_back(),
                slo_breaches: Vec::new(),
                flight_tail,
            }
        }
        Err(payload) => ChaosOutcome {
            failure: Some(panic_text(payload)),
            trace_len: 0,
            trace_digest: 0,
            faults_fired: 0,
            slo_breaches: Vec::new(),
            flight_tail: Some(obs::flight_tail(32)),
        },
    }
}

/// The invariants every fleet-migrate case must uphold, faults or not:
/// no tenant lost or duplicated, every failed migration rolled back at
/// its source, nothing left referenced in the shared pool, and any
/// committed migration restored warm (it found local chunks to dedup
/// against).
fn fleet_invariants(r: &FleetReport) -> Result<(), String> {
    let launched: u64 = r.agents.iter().map(|a| a.launched).sum();
    if launched != r.tenants as u64 {
        return Err(format!("{launched} of {} tenants launched", r.tenants));
    }
    let before: u64 = r.loads_before.iter().map(|l| l.resident + l.parked).sum();
    let after: u64 = r.loads_after.iter().map(|l| l.resident + l.parked).sum();
    if before != after {
        return Err(format!(
            "tenant population changed across rebalancing: {before} before, {after} after"
        ));
    }
    let rolled_back: u64 = r.agents.iter().map(|a| a.restored_back).sum();
    if rolled_back != r.failed_back() as u64 {
        return Err(format!(
            "{} failed migrations but {rolled_back} source rollbacks",
            r.failed_back()
        ));
    }
    if r.pool_live_manifests != 0 || r.pool_live_chunks != 0 {
        return Err(format!(
            "shutdown leaked pool state: {} manifests, {} chunks",
            r.pool_live_manifests, r.pool_live_chunks
        ));
    }
    for m in r.migrations.iter().filter(|m| m.committed) {
        if m.dev_bytes == 0 {
            return Err(format!(
                "committed migration of t{} captured no device state",
                m.tenant
            ));
        }
    }
    if r.committed() >= 1 && r.pool.bytes_avoided_remote == 0 {
        return Err("committed migrations never restored warm".to_string());
    }
    Ok(())
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run the case body inside the simulation. Returns
/// `(failure, faults_fired, rendered_slo_breaches)`.
fn execute(case: &ChaosCase) -> (Option<String>, usize, Vec<String>) {
    if case.op == ChaosOp::SwapRotate {
        return match swap_rotate_op(case) {
            Ok((fired, breaches)) => (None, fired, breaches),
            Err(why) => (Some(why), 0, Vec::new()),
        };
    }
    if case.op == ChaosOp::Serve {
        return match serve_op(case) {
            Ok((fired, breaches)) => (None, fired, breaches),
            Err(why) => (Some(why), 0, Vec::new()),
        };
    }
    let result = if case.op.is_soak() {
        transport_soak(case)
    } else {
        workload_op(case)
    };
    match result {
        Ok(fired) => (None, fired, Vec::new()),
        Err(why) => (Some(why), 0, Vec::new()),
    }
}

/// Soak a transport: stream a payload out and back while the fault
/// plane injects transient faults, and require a lossless round trip.
/// The write/read loops interleave short sleeps so the operation spans
/// the generated fault window instead of completing before any fault
/// is due.
fn transport_soak(case: &ChaosCase) -> Result<usize, String> {
    let server = PhiServer::new_with_faults(PlatformParams::default(), case.faults.clone());
    let storage: Box<dyn SnapshotStorage> = match case.op {
        ChaosOp::NfsSoak => {
            let mut cfg = NfsConfig::default();
            if case.disable_retries {
                cfg.retry = RetryPolicy::disabled();
            }
            Box::new(Nfs::new(&server, cfg, NfsMode::Plain))
        }
        ChaosOp::ScpSoak => {
            let mut cfg = ScpConfig::default();
            if case.disable_retries {
                cfg.retry = RetryPolicy::disabled();
            }
            Box::new(Scp::new(&server, cfg))
        }
        _ => unreachable!("transport_soak on a workload op"),
    };
    let data = Payload::synthetic(case.seed ^ 0xd00d_f00d, case.payload_mb * MB);

    let mut sink = storage
        .sink(NodeId::device(0), "/chaos/soak")
        .map_err(|e| format!("{} sink open failed: {e:?}", storage.label()))?;
    for chunk in data.chunks(MB) {
        sink.write(chunk)
            .map_err(|e| format!("{} soak write failed: {e:?}", storage.label()))?;
        simkernel::sleep(ms(3));
    }
    sink.close()
        .map_err(|e| format!("{} soak close failed: {e:?}", storage.label()))?;

    let mut src = storage
        .source(NodeId::device(0), "/chaos/soak")
        .map_err(|e| format!("{} source open failed: {e:?}", storage.label()))?;
    let mut out = Payload::empty();
    while let Some(chunk) = src
        .read(MB)
        .map_err(|e| format!("{} soak read failed: {e:?}", storage.label()))?
    {
        out.append(chunk);
        simkernel::sleep(ms(1));
    }
    if out.len() != data.len() || out.digest() != data.digest() {
        return Err(format!(
            "{} silently corrupted the stream: {} bytes back, {} expected",
            storage.label(),
            out.len(),
            data.len()
        ));
    }
    Ok(server.faults().fired_count())
}

/// Drive a full snapshot lifecycle through the public Snapify API.
fn workload_op(case: &ChaosCase) -> Result<usize, String> {
    let spec = by_name(case.workload)
        .ok_or_else(|| format!("unknown workload {}", case.workload))?
        .scaled(128, 12);
    let registry = FunctionRegistry::new();
    register_suite(&registry, std::slice::from_ref(&spec));
    let world = SnapifyWorld::boot_with(
        PlatformParams::default(),
        CoiConfig::default(),
        registry,
        case.faults.clone(),
        None,
    );
    let run = Arc::new(
        WorkloadRun::launch(world.coi(), &spec, 0).map_err(|e| format!("launch failed: {e:?}"))?,
    );
    let handle = run.handle().clone();
    let host = run.host_proc().clone();
    let path = format!("/snap/chaos/{}", case.seed);

    match case.op {
        ChaosOp::Checkpoint => {
            let driver = {
                let r = Arc::clone(&run);
                host.spawn_thread("driver", move || r.run_to_completion())
            };
            simkernel::sleep(case.snapshot_time);
            let (_snap, report) = checkpoint_application(&world, &handle, &run.host_state(), &path)
                .map_err(|e| format!("checkpoint failed: {e:?}"))?;
            if report.device_snapshot_bytes == 0 {
                return Err("checkpoint produced an empty device snapshot".to_string());
            }
            let result = driver
                .join()
                .map_err(|e| format!("post-checkpoint run failed: {e:?}"))?;
            if !result.verified {
                return Err("run corrupted by the checkpoint cycle".to_string());
            }
            run.destroy()
                .map_err(|e| format!("destroy failed: {e:?}"))?;
            host.exit();
            let restarted = restart_application(&world, &path, &spec.binary_name(), case.device)
                .map_err(|e| format!("restart failed: {e:?}"))?;
            let resumed = WorkloadRun::resume_after_restart(
                &spec,
                &restarted.handle,
                &restarted.host_proc,
                &restarted.host_state,
            );
            let result = resumed
                .run_to_completion()
                .map_err(|e| format!("restarted run failed: {e:?}"))?;
            if !result.verified {
                return Err("restart diverged from the original run".to_string());
            }
            resumed
                .destroy()
                .map_err(|e| format!("post-restart destroy failed: {e:?}"))?;
        }
        ChaosOp::SwapCycle => {
            let driver = {
                let r = Arc::clone(&run);
                host.spawn_thread("driver", move || r.run_to_completion())
            };
            simkernel::sleep(case.snapshot_time);
            let snap =
                snapify_swapout(&handle, &path).map_err(|e| format!("swap-out failed: {e:?}"))?;
            let used = world.server().device(0).mem().used();
            if used != 0 {
                return Err(format!("swap-out left {used} bytes resident on the card"));
            }
            snapify_swapin(&snap, 0).map_err(|e| format!("swap-in failed: {e:?}"))?;
            let result = driver
                .join()
                .map_err(|e| format!("post-swap run failed: {e:?}"))?;
            if !result.verified {
                return Err("run corrupted by the swap cycle".to_string());
            }
            run.destroy()
                .map_err(|e| format!("destroy failed: {e:?}"))?;
        }
        ChaosOp::Migrate => {
            let driver = {
                let r = Arc::clone(&run);
                host.spawn_thread("driver", move || r.run_to_completion())
            };
            simkernel::sleep(case.snapshot_time);
            snapify_migrate(&handle, 1).map_err(|e| format!("migrate failed: {e:?}"))?;
            if handle.device() != 1 {
                return Err(format!(
                    "migrate landed on device {}, expected 1",
                    handle.device()
                ));
            }
            let result = driver
                .join()
                .map_err(|e| format!("post-migrate run failed: {e:?}"))?;
            if !result.verified {
                return Err("run corrupted by the migration".to_string());
            }
            run.destroy()
                .map_err(|e| format!("destroy failed: {e:?}"))?;
        }
        ChaosOp::Restart => {
            // Checkpoint before any work, crash the card out-of-band,
            // restart on the survivor.
            checkpoint_application(&world, &handle, &run.host_state(), &path)
                .map_err(|e| format!("checkpoint failed: {e:?}"))?;
            let rt = world
                .coi()
                .daemon(0)
                .runtime(handle.pid())
                .ok_or("offload runtime missing")?;
            rt.terminate();
            simkernel::sleep(ms(1));
            if handle.ping().is_ok() {
                return Err("crashed offload process still answers pings".to_string());
            }
            host.exit();
            let restarted = restart_application(&world, &path, &spec.binary_name(), 1)
                .map_err(|e| format!("restart after crash failed: {e:?}"))?;
            let resumed = WorkloadRun::resume_after_restart(
                &spec,
                &restarted.handle,
                &restarted.host_proc,
                &restarted.host_state,
            );
            let result = resumed
                .run_to_completion()
                .map_err(|e| format!("rescued run failed: {e:?}"))?;
            if !result.verified {
                return Err("rescued run diverged from the original".to_string());
            }
            resumed
                .destroy()
                .map_err(|e| format!("post-rescue destroy failed: {e:?}"))?;
        }
        ChaosOp::NfsSoak
        | ChaosOp::ScpSoak
        | ChaosOp::SwapRotate
        | ChaosOp::Serve
        | ChaosOp::FleetMigrate => {
            unreachable!("handled separately")
        }
    }
    Ok(world.server().faults().fired_count())
}

/// Two tenants time-share one card through the swap scheduler, backed
/// by the dedup store: A is parked, B admitted resident, then three
/// rotations hand the card back and forth while the fault plane fires.
/// After each rotation the resident tenant's buffer must verify (the
/// warm restore fast path must not corrupt state), and retiring both
/// tenants — one of them while parked — must drain the store.
///
/// Returns `(faults_fired, rendered_slo_breaches)`: the case's SLO (by
/// default [`DEFAULT_SWAP_SLO`]) rides on the scheduler's monitor, so
/// the sweep learns which seeds blew the latency budget even when every
/// consistency invariant held.
fn swap_rotate_op(case: &ChaosCase) -> Result<(usize, Vec<String>), String> {
    let registry = FunctionRegistry::new();
    registry.register(DeviceBinary::new("tenant.so", MB, 32 * MB));
    let world = SnapifyWorld::boot_with(
        PlatformParams::default(),
        CoiConfig::default(),
        registry,
        case.faults.clone(),
        Some(DedupConfig::default()),
    );
    let store = world.store().expect("dedup world has a store").clone();
    let mut sched = SwapScheduler::new(1, format!("/swap/chaos/{}", case.seed)).with_store(&store);
    if let Some(spec) = &case.slo {
        sched = sched.with_slo(spec.clone());
    }
    let bytes = case.payload_mb * MB;

    let mut tenants = Vec::new();
    for (name, tag) in [("tenant-a", 0u64), ("tenant-b", 1)] {
        let host = world.coi().create_host_process(name);
        let h = world
            .coi()
            .create_process(&host, 0, "tenant.so")
            .map_err(|e| format!("{name} create failed: {e:?}"))?;
        let buf = h
            .create_buffer(bytes)
            .map_err(|e| format!("{name} buffer failed: {e:?}"))?;
        h.buffer_write(&buf, Payload::synthetic(case.seed ^ tag, bytes))
            .map_err(|e| format!("{name} write failed: {e:?}"))?;
        let id = sched.admit_tagged(&h, 0, name);
        if tag == 0 {
            sched
                .park(id)
                .map_err(|e| format!("{name} park failed: {e:?}"))?;
        }
        tenants.push((h, buf, id, tag));
    }
    let (a, b) = (tenants[0].2, tenants[1].2);

    // Let the generated faults come due mid-rotation rather than all
    // before or all after.
    simkernel::sleep(case.snapshot_time);

    // A parked, B resident. Rotations alternate them: after round r the
    // resident tenant is A on even rounds, B on odd.
    for round in 0..3usize {
        let switches = sched
            .rotate()
            .map_err(|e| format!("rotate {round} failed: {e:?}"))?;
        if switches != 1 {
            return Err(format!(
                "rotate {round} made {switches} switches, expected 1"
            ));
        }
        let resident = if round % 2 == 0 { a } else { b };
        if !sched.is_resident(resident) {
            return Err(format!("rotate {round} left the wrong tenant resident"));
        }
        let (h, buf, _, tag) = &tenants[round % 2];
        let data = h
            .buffer_read(buf)
            .map_err(|e| format!("rotate {round} buffer read failed: {e:?}"))?;
        if data.digest() != Payload::synthetic(case.seed ^ tag, bytes).digest() {
            return Err(format!("rotate {round} corrupted the restored tenant"));
        }
    }
    if store.stats().restore_bytes_avoided == 0 {
        return Err("unchanged tenants never hit the warm restore cache".to_string());
    }

    // B finished while parked, A while resident; both retire paths must
    // drain the store.
    sched
        .retire(b)
        .map_err(|e| format!("retire of the parked tenant failed: {e:?}"))?;
    sched
        .retire(a)
        .map_err(|e| format!("retire of the resident tenant failed: {e:?}"))?;
    let stats = store.stats();
    if stats.bytes_stored != 0 || stats.manifests != 0 {
        return Err(format!(
            "retire leaked store state: {} bytes, {} manifests",
            stats.bytes_stored, stats.manifests
        ));
    }
    let breaches = sched.slo_breaches().iter().map(|b| b.render()).collect();
    Ok((world.server().faults().fired_count(), breaches))
}

/// An open-loop serving run under the case's bus faults. The serving
/// shape — eviction policy, arrival process, Zipf exponent — is drawn
/// from a stream derived from the seed, so `SIMCHAOS_SEED` +
/// `SIMCHAOS_OP=serve` replays the exact scenario. Invariants: nothing
/// is rejected (no admission limit is set), every admitted request
/// reaches first-compute, residency never exceeds device capacity, and
/// the skewed population always produces cold starts (every tenant
/// begins parked). The case SLO is attached to *every* tenant class;
/// its rendered breaches come back for separate reporting.
fn serve_op(case: &ChaosCase) -> Result<(usize, Vec<String>), String> {
    use serving::{
        run_scenario_with_faults, ArrivalProcess, EvictionPolicy, ServingConfig, TenantClass,
        TrafficConfig,
    };
    let mut rng = ChaosRng::new(case.seed ^ 0x5365_7276_6553_6870); // "ServeShp"
    let policy = EvictionPolicy::ALL[rng.below(3) as usize];
    let process = if rng.below(2) == 0 {
        ArrivalProcess::Poisson
    } else {
        ArrivalProcess::Bursty {
            burst_len: 4 + rng.below(5) as u32,
            burst_factor: 4.0,
        }
    };
    let zipf_s = 0.8 + rng.below(9) as f64 / 10.0;
    let mut classes = TenantClass::defaults();
    for class in &mut classes {
        class.slo = case.slo.clone();
    }
    let cfg = ServingConfig {
        devices: 2,
        swap_workers: 2,
        policy,
        traffic: TrafficConfig {
            tenants: 10,
            zipf_s,
            rate_per_sec: 20.0,
            requests: 60,
            process,
            seed: case.seed,
        },
        classes,
        admission_limit: None,
        ..ServingConfig::default()
    };
    let (report, fired) = run_scenario_with_faults(&cfg, case.faults.clone());
    if report.rejected != 0 {
        return Err(format!(
            "{} requests rejected with no admission limit set",
            report.rejected
        ));
    }
    if report.cold.count + report.warm.count != report.admitted {
        return Err(format!(
            "served {} of {} admitted requests",
            report.cold.count + report.warm.count,
            report.admitted
        ));
    }
    if report.max_resident > report.devices {
        return Err(format!(
            "{} tenants resident on {} devices",
            report.max_resident, report.devices
        ));
    }
    if report.cold.count == 0 {
        return Err("an all-parked population produced no cold starts".to_string());
    }
    Ok((fired, report.breaches))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_expansion_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = ChaosCase::from_seed(seed);
            let b = ChaosCase::from_seed(seed);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.op, b.op);
            assert_eq!(a.snapshot_time, b.snapshot_time);
            assert_eq!(a.device, b.device);
            assert_eq!(a.payload_mb, b.payload_mb);
            assert_eq!(a.faults, b.faults);
        }
    }

    #[test]
    fn seeds_cover_every_op() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            seen.insert(ChaosCase::from_seed(seed).op);
        }
        assert_eq!(seen.len(), 6, "64 seeds should draw all six ops");
    }

    #[test]
    fn generated_fault_schedules_match_their_op() {
        for seed in 0..128 {
            let case = ChaosCase::from_seed(seed);
            for entry in &case.faults.entries {
                match case.op {
                    ChaosOp::NfsSoak => assert_eq!(entry.target, FaultTarget::Nfs),
                    ChaosOp::ScpSoak => assert_eq!(entry.target, FaultTarget::Scp),
                    _ => assert!(
                        matches!(entry.target, FaultTarget::Bus(_)),
                        "workload ops draw only transparent bus faults, got {:?}",
                        entry.target
                    ),
                }
            }
            if case.op.is_soak() {
                assert!(!case.faults.is_empty(), "soaks always inject");
                assert!(
                    case.faults.entries.len() <= 3,
                    "must stay within retry budget"
                );
            }
        }
    }

    #[test]
    fn repro_line_round_trips_through_parse() {
        let case = ChaosCase::from_seed(find_seed(0, |c| !c.faults.is_empty()));
        let line = case.repro_line();
        assert!(line.starts_with(&format!("SIMCHAOS_SEED={}", case.seed)));
        // The quoted schedule parses back to the same schedule.
        let quoted = line.split("SIMCHAOS_FAULTS='").nth(1).unwrap();
        let text = quoted.split('\'').next().unwrap();
        assert_eq!(FaultSchedule::parse(text).unwrap(), case.faults);
        assert!(!line.contains("NO_RETRY"));
        let mut bugged = case.clone();
        bugged.disable_retries = true;
        assert!(bugged.repro_line().ends_with("SIMCHAOS_NO_RETRY=1"));
    }

    #[test]
    fn swap_rotate_cases_are_deterministic_and_pinned() {
        for seed in [0u64, 9, 1234, u64::MAX] {
            let a = ChaosCase::swap_rotate_from_seed(seed);
            let b = ChaosCase::swap_rotate_from_seed(seed);
            assert_eq!(a.op, ChaosOp::SwapRotate);
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.payload_mb, b.payload_mb);
            assert_eq!(a.snapshot_time, b.snapshot_time);
            // Rotate cases draw only transparently-survivable bus faults,
            // like the other workload ops.
            for entry in &a.faults.entries {
                assert!(matches!(entry.target, FaultTarget::Bus(_)));
            }
            // Pinning the op must not disturb the base expansion.
            let base = ChaosCase::from_seed(seed);
            assert_eq!(a.workload, base.workload);
            assert_eq!(a.seed, base.seed);
        }
    }

    #[test]
    fn swap_rotate_repro_line_carries_the_op_override() {
        let case = ChaosCase::swap_rotate_from_seed(77);
        let line = case.repro_line();
        assert!(line.contains("SIMCHAOS_OP=swap-rotate"), "{line}");
        assert_eq!(ChaosOp::parse("swap-rotate").unwrap(), ChaosOp::SwapRotate);
        assert!(ChaosOp::parse("bogus").is_err());
        // Ops drawn by from_seed never emit the override.
        assert!(!ChaosCase::from_seed(77)
            .repro_line()
            .contains("SIMCHAOS_OP"));
    }

    #[test]
    fn serve_cases_are_deterministic_and_pinned() {
        for seed in [0u64, 9, 1234, u64::MAX] {
            let a = ChaosCase::serve_from_seed(seed);
            let b = ChaosCase::serve_from_seed(seed);
            assert_eq!(a.op, ChaosOp::Serve);
            assert_eq!(a.faults, b.faults);
            // Serve cases draw only transparently-survivable bus faults.
            for entry in &a.faults.entries {
                assert!(matches!(entry.target, FaultTarget::Bus(_)));
            }
            // Pinning the op must not disturb the base expansion.
            assert_eq!(a.seed, ChaosCase::from_seed(seed).seed);
            assert_eq!(
                a.slo.as_ref().map(|s| s.render()),
                Some(SloSpec::parse(DEFAULT_SERVE_SLO).unwrap().render())
            );
        }
        let line = ChaosCase::serve_from_seed(3).repro_line();
        assert!(line.contains("SIMCHAOS_OP=serve"), "{line}");
        assert_eq!(ChaosOp::parse("serve").unwrap(), ChaosOp::Serve);
    }

    #[test]
    fn fleet_migrate_cases_are_deterministic_and_pinned() {
        for seed in [0u64, 9, 1234, u64::MAX] {
            let a = ChaosCase::fleet_migrate_from_seed(seed);
            let b = ChaosCase::fleet_migrate_from_seed(seed);
            assert_eq!(a.op, ChaosOp::FleetMigrate);
            assert_eq!(a.faults, b.faults);
            assert!(!a.faults.is_empty(), "fleet cases always inject");
            // Fleet cases draw only pool-NIC resets on real, non-hot
            // nodes: the rebalancer's candidate destinations.
            for entry in &a.faults.entries {
                match entry.target {
                    FaultTarget::Net(n) => {
                        assert!((1..FLEET_CHAOS_NODES).contains(&n), "net{n} out of range")
                    }
                    other => panic!("fleet cases draw only net faults, got {other:?}"),
                }
                assert_eq!(entry.fault, FaultKind::ConnReset);
            }
            // Pinning the op must not disturb the base expansion.
            assert_eq!(a.seed, ChaosCase::from_seed(seed).seed);
            assert!(a.slo.is_none());
        }
        let line = ChaosCase::fleet_migrate_from_seed(3).repro_line();
        assert!(line.contains("SIMCHAOS_OP=fleet-migrate"), "{line}");
        assert_eq!(
            ChaosOp::parse("fleet-migrate").unwrap(),
            ChaosOp::FleetMigrate
        );
    }

    #[test]
    fn slo_deviations_ride_the_repro_line() {
        // Default objectives are implied by the op: no override emitted.
        let case = ChaosCase::swap_rotate_from_seed(5);
        assert_eq!(case.slo.as_ref().map(|s| s.render()), {
            Some(SloSpec::parse(DEFAULT_SWAP_SLO).unwrap().render())
        });
        assert!(!case.repro_line().contains("SIMCHAOS_SLO"));
        assert!(ChaosCase::from_seed(5).slo.is_none());

        // A tightened objective is recorded in its canonical render,
        // which round-trips through SloSpec::parse.
        let mut tight = case.clone();
        tight.slo = Some(SloSpec::parse("swapin.p99 < 10us over 1s").unwrap());
        let line = tight.repro_line();
        let quoted = line
            .split("SIMCHAOS_SLO='")
            .nth(1)
            .expect("override present");
        let text = quoted.split('\'').next().unwrap();
        assert_eq!(SloSpec::parse(text).unwrap(), tight.slo.clone().unwrap());

        // Disabling the objective is also an explicit deviation.
        let mut off = case.clone();
        off.slo = None;
        assert!(off.repro_line().contains("SIMCHAOS_SLO=off"));
    }

    #[test]
    fn domains_default_to_one_and_ride_the_repro_line() {
        // `from_seed` must stay byte-stable: domains are never drawn.
        for seed in [0u64, 42, u64::MAX] {
            assert_eq!(ChaosCase::from_seed(seed).domains, 1);
        }
        let case = ChaosCase::from_seed(7);
        assert!(!case.repro_line().contains("SIMCHAOS_DOMAINS"));
        assert!(!case.to_string().contains("domains="));
        let mut multi = case.clone();
        multi.domains = 4;
        assert!(
            multi.repro_line().contains("SIMCHAOS_DOMAINS=4"),
            "{}",
            multi.repro_line()
        );
        assert!(multi.to_string().contains("domains=4"));
    }

    #[test]
    fn find_seed_finds_each_shape() {
        let scp = find_seed(0, |c| c.op == ChaosOp::ScpSoak);
        assert_eq!(ChaosCase::from_seed(scp).op, ChaosOp::ScpSoak);
        let two_faults = find_seed(0, |c| c.faults.entries.len() >= 2);
        assert!(ChaosCase::from_seed(two_faults).faults.entries.len() >= 2);
    }

    #[test]
    fn rng_below_stays_in_bounds() {
        let mut rng = ChaosRng::new(7);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
        }
    }
}
