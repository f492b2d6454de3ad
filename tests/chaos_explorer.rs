//! The seeded chaos explorer (`simchaos`): sweep many seeds, each
//! expanding into a random snapshot operation at a random virtual time
//! under a random (but contract-respecting) fault schedule, executed
//! under `SchedPolicy::Random(seed)`.
//!
//! A failing case prints a one-line repro:
//!
//! ```text
//! SIMCHAOS_SEED=<n> SIMCHAOS_FAULTS='<schedule>' [SIMCHAOS_NO_RETRY=1]
//! ```
//!
//! Export those variables and run `cargo test --test chaos_explorer
//! replay_case_from_env -- --nocapture` to replay the *byte-identical*
//! execution. Failing repro lines are also appended to
//! `target/simchaos-repro.txt` so CI can publish them as an artifact.
//!
//! Sweep width: 4 blocks × `SIMCHAOS_CASES_PER_BLOCK` (default 50, so
//! 200 cases). CI's `chaos-smoke` job sets it to 4 for a 16-case quick
//! matrix.

use simchaos::{find_seed, run_case, ChaosCase, ChaosOp};
use std::io::Write as _;

/// Stable base so sweep membership only changes when deliberately bumped.
const BASE_SEED: u64 = 0x5eed_c000;

fn cases_per_block() -> u64 {
    std::env::var("SIMCHAOS_CASES_PER_BLOCK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

/// Record a failing repro line where CI can pick it up as an artifact.
fn record_repro(lines: &[String]) {
    let dir = std::path::Path::new("target");
    if !dir.is_dir() {
        return;
    }
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("simchaos-repro.txt"))
    {
        for line in lines {
            let _ = writeln!(f, "{line}");
        }
    }
}

fn sweep_cases(n: u64, expand: impl Fn(u64) -> ChaosCase) {
    let mut repro_lines = Vec::new();
    let mut failures = Vec::new();
    let mut violators = Vec::new();
    for seed in 0..n {
        let case = expand(seed);
        let outcome = run_case(&case);
        // SLO violations don't fail the sweep (the consistency contract
        // held) but the sweep reports exactly which seeds blew the
        // latency budget, with the breached windows.
        for breach in &outcome.slo_breaches {
            violators.push(format!("seed {}: {breach}", case.seed));
        }
        if let Some(why) = outcome.failure {
            repro_lines.push(format!("{} # {case}: {why}", case.repro_line()));
            let tail = outcome.flight_tail.unwrap_or_default();
            failures.push(format!("{} # {case}: {why}\n{tail}", case.repro_line()));
        }
    }
    if !violators.is_empty() {
        println!(
            "SLO violations in this sweep:\n  {}",
            violators.join("\n  ")
        );
    }
    if !failures.is_empty() {
        record_repro(&repro_lines);
        panic!(
            "{} of {} chaos cases failed; repro lines:\n{}",
            failures.len(),
            n,
            failures.join("\n")
        );
    }
}

fn sweep_block(block: u64) {
    let base = BASE_SEED + block * 1000;
    sweep_cases(cases_per_block(), |i| ChaosCase::from_seed(base + i));
}

#[test]
fn chaos_sweep_block_a() {
    sweep_block(0);
}

#[test]
fn chaos_sweep_block_b() {
    sweep_block(1);
}

#[test]
fn chaos_sweep_block_c() {
    sweep_block(2);
}

#[test]
fn chaos_sweep_block_d() {
    sweep_block(3);
}

/// Swap-rotate workloads: two dedup-backed tenants time-share one card
/// (park / rotate ×3 / retire) under generated bus-fault schedules and
/// random scheduler seeds. Exercises the scheduler's claim machinery
/// and the warm restore fast path under chaos; repro lines carry
/// `SIMCHAOS_OP=swap-rotate` so `replay_case_from_env` rebuilds the
/// pinned op.
#[test]
fn chaos_sweep_block_swap_rotate() {
    let base = BASE_SEED + 4000;
    sweep_cases(cases_per_block(), |i| {
        ChaosCase::swap_rotate_from_seed(base + i)
    });
}

/// FaaS-style serving under chaos: 16 seeds (fewer under a tighter
/// `SIMCHAOS_CASES_PER_BLOCK`, as in CI smoke), each an open-loop
/// multi-tenant serving run — seed-drawn eviction policy, arrival
/// process, and Zipf skew — under generated bus faults and a random
/// scheduler. The consistency contract (every admitted request reaches
/// first-compute, residency ≤ devices) must hold for every seed; seeds
/// that merely blow the default time-to-first-compute SLO are reported
/// separately by `sweep_cases`, not failed. Repro lines carry
/// `SIMCHAOS_OP=serve`.
#[test]
fn chaos_sweep_block_serve() {
    let base = BASE_SEED + 6000;
    let n = cases_per_block().min(16);
    sweep_cases(n, |i| {
        let case = ChaosCase::serve_from_seed(base + i);
        assert!(
            case.repro_line().contains("SIMCHAOS_OP=serve"),
            "pinned serve cases must replay with their op: {}",
            case.repro_line()
        );
        case
    });
}

/// The replay contract holds for the pinned serve op too: verdict,
/// trace fingerprint, fault firings, and the SLO breach list all replay
/// byte-identically.
#[test]
fn serve_cases_replay_byte_identical() {
    let case = ChaosCase::serve_from_seed(BASE_SEED + 6000);
    let first = run_case(&case);
    let second = run_case(&case);
    assert!(first.ok(), "{:?}", first.failure);
    assert_eq!(first.failure, second.failure);
    assert_eq!(first.trace_len, second.trace_len);
    assert_eq!(first.trace_digest, second.trace_digest);
    assert_eq!(first.faults_fired, second.faults_fired);
    assert_eq!(first.slo_breaches, second.slo_breaches);
    assert!(first.trace_len > 0, "tracing must actually be on");
}

/// The multi-domain sweep: 16 seeds (fewer if `SIMCHAOS_CASES_PER_BLOCK`
/// is tighter, as in CI smoke) whose cases run on a 4-domain kernel —
/// the case body in domain 0, peers in domains 1..4 exchanging
/// cluster-link pings through the conservative sync engine. Repro lines
/// gain `SIMCHAOS_DOMAINS=4`, and `replay_case_from_env` honors it.
#[test]
fn chaos_sweep_multidomain() {
    let base = BASE_SEED + 5000;
    let n = cases_per_block().min(16);
    sweep_cases(n, |i| {
        let mut case = ChaosCase::from_seed(base + i);
        case.domains = 4;
        assert!(
            case.repro_line().contains("SIMCHAOS_DOMAINS=4"),
            "multi-domain cases must replay with their domain count: {}",
            case.repro_line()
        );
        case
    });
}

/// The replay contract extends to multi-domain cases: the same 4-domain
/// case executed twice yields the identical merged trace fingerprint —
/// parallel domain execution must never leak wall-clock interleaving
/// into simulation state.
#[test]
fn multidomain_cases_replay_byte_identical() {
    let seeds = [
        find_seed(BASE_SEED + 5000, |c| {
            !c.op.is_soak() && !c.faults.is_empty()
        }),
        find_seed(BASE_SEED + 5000, |c| c.op.is_soak()),
    ];
    for seed in seeds {
        let mut case = ChaosCase::from_seed(seed);
        case.domains = 4;
        let first = run_case(&case);
        let second = run_case(&case);
        assert!(first.ok(), "{case}: {:?}", first.failure);
        assert_eq!(first.failure, second.failure, "{case}: verdict must replay");
        assert_eq!(
            (first.trace_len, first.trace_digest),
            (second.trace_len, second.trace_digest),
            "{case}: 4-domain fingerprint must replay byte-identically"
        );
        assert_eq!(first.faults_fired, second.faults_fired);
        assert!(first.trace_len > 0, "tracing must actually be on");
    }
}

/// The replay contract holds for the pinned swap-rotate op too.
#[test]
fn swap_rotate_cases_replay_byte_identical() {
    let case = ChaosCase::swap_rotate_from_seed(BASE_SEED + 4000);
    let first = run_case(&case);
    let second = run_case(&case);
    assert!(first.ok(), "{:?}", first.failure);
    assert_eq!(first.failure, second.failure);
    assert_eq!(first.trace_len, second.trace_len);
    assert_eq!(first.trace_digest, second.trace_digest);
    assert_eq!(first.faults_fired, second.faults_fired);
    // SLO evaluation runs on the virtual clock, so the breach list is
    // part of the replay contract too.
    assert_eq!(first.slo_breaches, second.slo_breaches);
    assert!(first.trace_len > 0, "tracing must actually be on");
}

/// A fault sweep reports which seeds violated the SLO, not just which
/// crashed: under an impossibly tight objective every rotation breaches
/// (with the tenant and window named), while the default objective
/// stays green for the same case.
#[test]
fn swap_rotate_sweep_reports_slo_violating_seeds() {
    let mut case = ChaosCase::swap_rotate_from_seed(BASE_SEED + 4000);
    case.slo = Some(simkernel::obs::SloSpec::parse("swapin.p99 < 1us over 1s").unwrap());
    let outcome = run_case(&case);
    assert!(outcome.ok(), "{:?}", outcome.failure);
    assert!(
        !outcome.slo_breaches.is_empty(),
        "a 1us swap-in objective must breach"
    );
    for breach in &outcome.slo_breaches {
        assert!(
            breach.contains("tenant-"),
            "breach names the tenant: {breach}"
        );
        assert!(breach.contains("swapin"), "{breach}");
    }
    // The tightened objective rides the repro line, so the violating
    // run replays as-is.
    assert!(
        case.repro_line().contains("SIMCHAOS_SLO='"),
        "{}",
        case.repro_line()
    );

    // The same seed under the default objective is breach-free.
    let healthy = run_case(&ChaosCase::swap_rotate_from_seed(BASE_SEED + 4000));
    assert!(healthy.ok(), "{:?}", healthy.failure);
    assert!(
        healthy.slo_breaches.is_empty(),
        "default objective must hold: {:?}",
        healthy.slo_breaches
    );
}

/// Every chaos run stamps its seed and fault schedule into the run
/// metadata, which the Chrome-trace exporter carries in `otherData`:
/// any trace pulled from a chaos run is self-identifying. (Values may
/// belong to a concurrently-running case — the recorder is global — so
/// this only asserts the keys are stamped.)
#[test]
fn chaos_runs_stamp_seed_and_faults_into_trace_metadata() {
    let case = ChaosCase::swap_rotate_from_seed(BASE_SEED + 4001);
    let outcome = run_case(&case);
    assert!(outcome.ok(), "{:?}", outcome.failure);
    let meta = simkernel::obs::meta();
    for key in ["chaos.seed", "chaos.faults", "chaos.repro"] {
        assert!(
            meta.iter().any(|(k, _)| k == key),
            "meta must carry {key}: {meta:?}"
        );
    }
    let trace = simkernel::obs::chrome_trace();
    let simkernel::obs::Json::Object(other) = &trace["otherData"] else {
        panic!("trace carries no metadata: {trace}")
    };
    assert!(
        other.iter().any(|(k, _)| k == "chaos.seed"),
        "trace identifies the seed"
    );
}

/// The replay contract, end to end: the same case executed twice is
/// byte-identical — same scheduler trace length, same trace digest,
/// same fault firings — for both a workload op and a transport soak.
#[test]
fn same_seed_replays_byte_identical_traces() {
    let seeds = [
        find_seed(BASE_SEED, |c| !c.op.is_soak() && !c.faults.is_empty()),
        find_seed(BASE_SEED, |c| c.op.is_soak()),
    ];
    for seed in seeds {
        let case = ChaosCase::from_seed(seed);
        let first = run_case(&case);
        let second = run_case(&case);
        assert_eq!(first.failure, second.failure, "{case}: verdict must replay");
        assert_eq!(
            first.trace_len, second.trace_len,
            "{case}: trace length must replay"
        );
        assert_eq!(
            first.trace_digest, second.trace_digest,
            "{case}: trace digest must replay"
        );
        assert_eq!(first.faults_fired, second.faults_fired);
        assert!(first.trace_len > 0, "tracing must actually be on");
    }
}

/// Different seeds must actually explore different interleavings: the
/// whole point of the explorer. A transport soak is nearly
/// single-threaded (no scheduler ties to break), so this uses a
/// workload op, where host, daemon, and offload threads race.
#[test]
fn different_seeds_produce_different_traces() {
    let seed = find_seed(BASE_SEED, |c| c.op == ChaosOp::SwapCycle);
    let mut a = ChaosCase::from_seed(seed);
    let b = a.clone();
    // Same case body, different scheduler seed.
    a.seed ^= 0x1;
    a.faults = b.faults.clone();
    let (ra, rb) = (run_case(&a), run_case(&b));
    assert!(ra.ok() && rb.ok(), "{:?} / {:?}", ra.failure, rb.failure);
    assert_ne!(
        (ra.trace_len, ra.trace_digest),
        (rb.trace_len, rb.trace_digest),
        "distinct scheduler seeds should yield distinct traces"
    );
}

/// The acceptance demo: deliberately re-inject a bug (disable the
/// transport retry layer), show the explorer catches it with a typed
/// error and a one-line repro, and show the repro replays
/// byte-identically. With the retry layer back on, the same case heals.
#[test]
fn disabled_retry_bug_is_caught_with_replayable_repro() {
    let seed = find_seed(BASE_SEED, |c| c.op == ChaosOp::ScpSoak);
    let mut case = ChaosCase::from_seed(seed);
    // Pin the schedule so the reset is due on the very first chunk.
    case.faults = phi_platform::FaultSchedule::parse("0:scp:connreset").unwrap();
    case.disable_retries = true;

    let outcome = run_case(&case);
    let why = outcome
        .failure
        .clone()
        .expect("a reset with retries disabled must surface");
    assert!(
        why.contains("ConnReset"),
        "failure must carry the typed error, got: {why}"
    );
    // Failures come with the flight recorder's last events attached.
    let tail = outcome
        .flight_tail
        .as_deref()
        .expect("failed case captures the tail");
    assert!(tail.contains("flight recorder (last"), "{tail}");
    let repro = case.repro_line();
    assert!(repro.contains("SIMCHAOS_NO_RETRY=1"));
    assert!(repro.contains("SIMCHAOS_FAULTS='0:scp:connreset'"));
    println!("caught injected bug; repro: {repro}");

    // The repro replays the byte-identical failing execution.
    let replay = run_case(&case);
    assert_eq!(replay.failure.as_deref(), Some(why.as_str()));
    assert_eq!(replay.trace_len, outcome.trace_len);
    assert_eq!(replay.trace_digest, outcome.trace_digest);

    // Fix the bug (re-enable retries): the same case passes.
    case.disable_retries = false;
    let healed = run_case(&case);
    assert!(healed.ok(), "retry layer must absorb the reset: {healed:?}");
    assert_eq!(healed.faults_fired, 1);
}

/// Replay hook for repro lines: a no-op unless `SIMCHAOS_SEED` is set.
#[test]
fn replay_case_from_env() {
    let Some(case) = ChaosCase::from_env() else {
        return;
    };
    println!("replaying {case}");
    let outcome = run_case(&case);
    println!(
        "trace_len={} trace_digest={:#018x} faults_fired={}",
        outcome.trace_len, outcome.trace_digest, outcome.faults_fired
    );
    if let Some(why) = outcome.failure {
        panic!(
            "case failed (as reproduced): {why}\nrepro: {}",
            case.repro_line()
        );
    }
}
