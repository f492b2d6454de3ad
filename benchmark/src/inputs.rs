//! Seed → inputs. Everything a workload feeds the program is generated
//! here from `--seed`; the program receives only the generated inputs.
//! Each workload draws from its own stream, so adding a draw to one
//! leaves the others' inputs unchanged.

/// splitmix64, the repo's standard small PRNG.
pub struct Rng(u64);

impl Rng {
    /// The stream of `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const STREAM_CKPT: u64 = 1;
const STREAM_CHURN: u64 = 2;
const STREAM_SERVING: u64 = 3;
const STREAM_FLEET: u64 = 4;

/// The seeded inputs of one ckpt-restart application run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CkptInput {
    /// Virtual instant of the checkpoint, ms after launch, uniform in
    /// `[100, 500]`.
    pub offset_ms: u64,
    /// Bytes added to the application's host data region: up to 63
    /// pages, so the snapshot byte counts differ from seed to seed too.
    pub extra_host_bytes: u64,
}

/// ckpt-restart: the inputs of each of the round's `apps` runs. Every
/// round of a run replays the same inputs, so rounds are repetitions of
/// identical work.
pub fn ckpt_inputs(seed: u64, apps: usize) -> Vec<CkptInput> {
    let mut rng = Rng::new(seed, STREAM_CKPT);
    (0..apps)
        .map(|_| CkptInput {
            offset_ms: 100 + rng.below(401),
            extra_host_bytes: 4096 * rng.below(64),
        })
        .collect()
}

/// One swap-churn cycle: which tenant takes the device and which of its
/// private buffers it rewrites before it is parked again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnCycle {
    /// Tenant index.
    pub tenant: usize,
    /// Distinct private-buffer indices to rewrite.
    pub dirty: Vec<usize>,
}

/// swap-churn: `cycles` cycles over `tenants` tenants chosen Zipf(`s`)
/// — rank → tenant is a seeded permutation, so the hot tenant differs
/// per seed — each rewriting `dirty` distinct buffers out of `buffers`.
pub fn churn_plan(
    seed: u64,
    cycles: usize,
    tenants: usize,
    s: f64,
    buffers: usize,
    dirty: usize,
) -> Vec<ChurnCycle> {
    assert!(dirty <= buffers);
    let mut rng = Rng::new(seed, STREAM_CHURN);
    let mut rank_to_tenant: Vec<usize> = (0..tenants).collect();
    for i in (1..tenants).rev() {
        rank_to_tenant.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut cumulative = Vec::with_capacity(tenants);
    let mut total = 0.0;
    for rank in 0..tenants {
        total += 1.0 / ((rank + 1) as f64).powf(s);
        cumulative.push(total);
    }
    (0..cycles)
        .map(|_| {
            let u = rng.unit() * total;
            let rank = cumulative.partition_point(|&c| c <= u).min(tenants - 1);
            let mut picked: Vec<usize> = Vec::with_capacity(dirty);
            while picked.len() < dirty {
                let b = rng.below(buffers as u64) as usize;
                if !picked.contains(&b) {
                    picked.push(b);
                }
            }
            ChurnCycle {
                tenant: rank_to_tenant[rank],
                dirty: picked,
            }
        })
        .collect()
}

/// serving-*: the traffic seed `serving::TrafficConfig` expands into
/// the arrival schedule and the tenant popularity ranking.
pub fn traffic_seed(seed: u64) -> u64 {
    Rng::new(seed, STREAM_SERVING).next_u64()
}

/// fleet-migrate: bytes of each tenant's private region. The scenario
/// has no random input of its own, so the seed sizes the private state:
/// `base` plus up to 31 pages, which moves every byte count and virtual
/// time by a fraction of a percent and nothing else.
pub fn fleet_unique_bytes(seed: u64, base: u64) -> u64 {
    base + 4096 * Rng::new(seed, STREAM_FLEET).below(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        assert_eq!(ckpt_inputs(1, 8), ckpt_inputs(1, 8));
        assert_ne!(ckpt_inputs(1, 8), ckpt_inputs(2, 8));
        assert!(ckpt_inputs(7, 1000).iter().all(|i| {
            (100..=500).contains(&i.offset_ms)
                && i.extra_host_bytes < 64 * 4096
                && i.extra_host_bytes % 4096 == 0
        }));

        let plan = |seed| churn_plan(seed, 200, 8, 1.0, 32, 4);
        assert_eq!(plan(1), plan(1));
        assert_ne!(plan(1), plan(2));
        let tenants = |seed| plan(seed).iter().map(|c| c.tenant).collect::<Vec<_>>();
        assert_ne!(tenants(1), tenants(2), "tenant order is seeded");
        let dirty = |seed| plan(seed).into_iter().map(|c| c.dirty).collect::<Vec<_>>();
        assert_ne!(dirty(1), dirty(2), "dirty sets are seeded");

        assert_eq!(traffic_seed(1), traffic_seed(1));
        assert_ne!(traffic_seed(1), traffic_seed(2));
        assert_eq!(
            fleet_unique_bytes(3, 4 << 20),
            fleet_unique_bytes(3, 4 << 20)
        );
        let sizes: Vec<u64> = (1..=10).map(|s| fleet_unique_bytes(s, 4 << 20)).collect();
        assert!(sizes.iter().any(|s| *s != sizes[0]), "{sizes:?}");
        assert!(sizes
            .iter()
            .all(|s| (4 << 20..(4 << 20) + 32 * 4096).contains(s) && s % 4096 == 0));
    }

    #[test]
    fn churn_plan_is_zipf_shaped_with_distinct_dirty_buffers() {
        let plan = churn_plan(5, 8000, 8, 1.0, 32, 4);
        let mut hits = [0usize; 8];
        for c in &plan {
            hits[c.tenant] += 1;
            let mut d = c.dirty.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 4, "dirty buffers are distinct");
            assert!(d.iter().all(|b| *b < 32));
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf(1.0) over 8: the hottest tenant draws 1/H8 = 36.8%, the
        // coldest 4.6%; every tenant is used.
        assert!((2700..3200).contains(&hits[0]), "{hits:?}");
        assert!((250..500).contains(&hits[7]), "{hits:?}");
    }

    #[test]
    fn streams_are_independent() {
        assert_ne!(Rng::new(1, 1).next_u64(), Rng::new(1, 2).next_u64());
        assert_ne!(Rng::new(1, 1).next_u64(), Rng::new(2, 1).next_u64());
    }
}
