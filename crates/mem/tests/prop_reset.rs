//! Resetting a cache or a hierarchy is indistinguishable from building a
//! new one: after any access sequence, a reset one answers any second
//! sequence exactly as a freshly constructed one does — per access, in
//! its statistics and in which lines it holds afterwards.

use nachos_mem::{AccessResult, Cache, CacheConfig, CacheStats, HierarchyConfig, MemoryHierarchy};
use proptest::prelude::*;

/// 4 sets of 2 ways: a few dozen accesses evict, write back and refill.
const L1: CacheConfig = CacheConfig {
    size_bytes: 128,
    ways: 2,
    line_bytes: 16,
    latency: 1,
};

/// A small two-level hierarchy with two MSHRs, so that merges and MSHR
/// stalls happen too.
fn small() -> HierarchyConfig {
    HierarchyConfig {
        l1: L1,
        llc: CacheConfig {
            size_bytes: 512,
            ways: 4,
            line_bytes: 16,
            latency: 4,
        },
        mem_latency: 20,
        mshrs: 2,
    }
}

/// Addresses the sequences draw from: 64 lines of 16 bytes.
const SPAN: u64 = 0x400;

/// Every hit/miss answer, then the statistics and the resident lines.
fn replay_cache(c: &mut Cache, seq: &[(u64, bool)]) -> (Vec<bool>, CacheStats, Vec<bool>) {
    let hits = seq.iter().map(|&(a, w)| c.access(a, w)).collect();
    let resident = (0..SPAN).step_by(16).map(|a| c.probe(a)).collect();
    (hits, c.stats(), resident)
}

/// One access: address index, write, cycles since the previous access.
type Access = (u64, bool, u64);

/// Every access's completion cycle and outcome, then both levels'
/// statistics and the MSHR merge count. Address `a` becomes `a * scale`,
/// so one sequence also exercises the paper geometry's sets and tags.
fn replay(
    h: &mut MemoryHierarchy,
    seq: &[Access],
    scale: u64,
) -> (Vec<AccessResult>, CacheStats, CacheStats, u64) {
    let mut now = 0;
    let results = seq
        .iter()
        .map(|&(a, w, dt)| {
            now += dt;
            h.access(a * scale, w, now)
        })
        .collect();
    (results, h.l1_stats(), h.llc_stats(), h.mshr_merges())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_reset_cache_answers_like_a_fresh_one(
        first in proptest::collection::vec((0..SPAN, any::<bool>()), 0..96),
        second in proptest::collection::vec((0..SPAN, any::<bool>()), 0..96),
    ) {
        let want = replay_cache(&mut Cache::new(L1), &second);

        let mut never_used = Cache::new(L1);
        never_used.reset();
        prop_assert_eq!(replay_cache(&mut never_used, &second), want.clone());

        let mut used = Cache::new(L1);
        replay_cache(&mut used, &first);
        let mut clone = used.clone();
        used.reset();
        prop_assert_eq!(replay_cache(&mut used, &second), want.clone());
        // Two resets with no access between them.
        used.reset();
        used.reset();
        prop_assert_eq!(replay_cache(&mut used, &second), want.clone());

        clone.reset();
        prop_assert_eq!(replay_cache(&mut clone, &second), want);
    }

    #[test]
    fn a_reset_hierarchy_answers_like_a_fresh_one(
        first in proptest::collection::vec((0..SPAN / 16, any::<bool>(), 0u64..40), 0..96),
        second in proptest::collection::vec((0..SPAN / 16, any::<bool>(), 0u64..40), 0..96),
    ) {
        // The small geometry at 16-byte steps, and the paper's at 4 KiB
        // steps: 16 lines to each of four of its L1 sets.
        for (config, scale) in [(small(), 16), (HierarchyConfig::default(), 4096)] {
            let want = replay(&mut MemoryHierarchy::new(config), &second, scale);

            let mut never_used = MemoryHierarchy::new(config);
            never_used.reset();
            prop_assert_eq!(replay(&mut never_used, &second, scale), want.clone());

            let mut used = MemoryHierarchy::new(config);
            replay(&mut used, &first, scale);
            let mut clone = used.clone();
            used.reset();
            prop_assert_eq!(replay(&mut used, &second, scale), want.clone());
            used.reset();
            used.reset();
            prop_assert_eq!(replay(&mut used, &second, scale), want.clone());

            clone.reset();
            prop_assert_eq!(replay(&mut clone, &second, scale), want);
        }
    }
}
