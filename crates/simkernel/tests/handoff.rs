//! Schedule pins for the token hand-off. Two patterns hand the token on at
//! every turn:
//!
//! * **ping-pong** — A wakes B and blocks at once, B wakes A and blocks at
//!   once;
//! * **spawn chain** — a parent joins a child that exits immediately, and
//!   the moment the exiting child hands it the token it spawns the next
//!   one, whose stack is the one the child just left.
//!
//! A hand-off is a stack switch on one carrier, so there is no OS-level
//! race left to provoke; what these pins hold is *which* thread runs next.
//! Every trace digest below was measured before OS threads were recycled,
//! and has survived every change of hand-off mechanism since.

use simkernel::{sleep, spawn, us, MultiDomainConfig, MultiKernel, SchedPolicy, Semaphore};

const ROUNDS: u64 = 10_000;

/// Both patterns side by side (in one domain their wake-ups tie at every
/// instant, which is what the `Random` policy draws on), plus a
/// cross-domain port so that two domains meet at window barriers.
fn run(domains: u32, policy: SchedPolicy) -> (usize, u64) {
    let mk = MultiKernel::new(MultiDomainConfig::new(domains, us(50)).with_policy(policy));
    mk.enable_trace();
    let d0 = mk.domain(0);
    let d1 = mk.domain(1 % domains);
    let (port_tx, port_rx) = mk.port::<u64>("laps", 0, 1 % domains, us(60));

    let (to_a, to_b) = (Semaphore::new("to-a", 0), Semaphore::new("to-b", 0));
    {
        let (to_a, to_b) = (to_a.clone(), to_b.clone());
        d0.spawn("ping", move || {
            for round in 0..ROUNDS {
                to_b.post();
                to_a.wait();
                if round % 8 == 0 {
                    sleep(us(7));
                }
                if round % 1000 == 0 {
                    port_tx.send(round).unwrap();
                }
            }
            port_tx.close();
        });
    }
    d0.spawn("pong", move || {
        for _ in 0..ROUNDS {
            to_b.wait();
            to_a.post();
        }
    });
    d1.spawn("parent", || {
        for round in 0..ROUNDS {
            let child = spawn("child", move || round);
            assert_eq!(child.join(), round);
            if round % 8 == 0 {
                sleep(us(5));
            }
        }
    });
    let laps = d1.spawn("port-rx", move || {
        let mut laps = 0;
        while port_rx.recv().is_ok() {
            laps += 1;
        }
        laps
    });

    mk.run();
    assert_eq!(laps.take_result(), Some(ROUNDS / 1000));
    mk.fingerprint()
}

/// `Fifo`, then `Random(0)`..`Random(9)`.
fn policies() -> impl Iterator<Item = SchedPolicy> {
    std::iter::once(SchedPolicy::Fifo).chain((0..10).map(SchedPolicy::Random))
}

fn assert_digests(domains: u32, expected: [(usize, u64); 11]) {
    for (policy, expected) in policies().zip(expected) {
        assert_eq!(
            run(domains, policy),
            expected,
            "domains={domains} {policy:?}"
        );
    }
}

#[test]
fn one_domain_schedules_are_the_parents() {
    assert_digests(1, ONE_DOMAIN);
}

#[test]
fn two_domain_schedules_are_the_parents() {
    assert_digests(2, TWO_DOMAINS);
}

/// `(trace length, trace digest)` per policy, measured at the parent commit.
const ONE_DOMAIN: [(usize, u64); 11] = [
    (72539, 0xf17d40ebec502501),
    (72539, 0xc976a8d3e6492bcf),
    (72541, 0x52f835a6c61db66e),
    (72539, 0xc92ae0626f751c19),
    (72541, 0x325d0897a4cc0a46),
    (72539, 0x26f598f955b92153),
    (72539, 0x2ee55f278ff1bb31),
    (72539, 0x882de016cc287e51),
    (72539, 0xc8544f3394912497),
    (72541, 0xe907fa65e5bea1f6),
    (72539, 0x4c318da3ff271f19),
];
const TWO_DOMAINS: [(usize, u64); 11] = [
    (72528, 0xcc1496b5178ce6c6),
    (72530, 0xa5fc8123123666f7),
    (72530, 0x16497e2db58c3eff),
    (72528, 0xc3232b66560998d6),
    (72530, 0x9bc591bfda9a22c7),
    (72528, 0xc3232b66560998d6),
    (72528, 0xc3232b66560998d6),
    (72528, 0xda5986c8e269a64e),
    (72530, 0x16497e2db58c3eff),
    (72528, 0xc3232b66560998d6),
    (72528, 0xda5986c8e269a64e),
];
