//! Eviction policies: which resident tenant yields its device when a
//! cold request needs memory, and (the same value, handed to the
//! snapstore warm cache) which restore-cache chunks survive.

/// How the serving layer picks a victim among resident tenants — the
/// same enum the snapstore warm cache evicts by, so restore-cache
/// retention follows residency policy with nothing to keep in step.
pub use snapstore::CachePolicy as EvictionPolicy;

/// One eviction candidate: a resident, unpinned tenant.
#[derive(Clone, Copy, Debug)]
pub struct VictimInfo {
    /// Tenant id.
    pub tenant: usize,
    /// Engine tick of the tenant's most recent request.
    pub last_tick: u64,
    /// Requests the tenant has received so far.
    pub requests: u64,
    /// Estimated bytes a future swap-in of this tenant would move.
    pub swap_cost: u64,
}

/// Pick the victim: the candidate with the smallest policy score. Ticks
/// are unique, so the choice is total and deterministic.
pub fn choose_victim(policy: EvictionPolicy, candidates: &[VictimInfo]) -> Option<usize> {
    candidates
        .iter()
        .min_by_key(|c| policy.score(c.requests, c.swap_cost, c.last_tick))
        .map(|c| c.tenant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_rank_victims_differently() {
        let candidates = [
            // Old but hot and heavy.
            VictimInfo {
                tenant: 0,
                last_tick: 1,
                requests: 50,
                swap_cost: 100,
            },
            // Recent one-hit-wonder, heavy image.
            VictimInfo {
                tenant: 1,
                last_tick: 9,
                requests: 1,
                swap_cost: 1000,
            },
            // Middling recency, few requests, tiny image.
            VictimInfo {
                tenant: 2,
                last_tick: 5,
                requests: 3,
                swap_cost: 10,
            },
        ];
        assert_eq!(choose_victim(EvictionPolicy::Lru, &candidates), Some(0));
        assert_eq!(
            choose_victim(EvictionPolicy::Popularity, &candidates),
            Some(1)
        );
        assert_eq!(
            choose_victim(EvictionPolicy::CostAware, &candidates),
            Some(2)
        );
        assert_eq!(choose_victim(EvictionPolicy::Lru, &[]), None);
    }
}
