//! **WF** — Water-Filling power distribution (paper §IV-C, Fig. 2).
//!
//! Because the power function is convex, the sum of core speeds — and so
//! the total work per unit time — is maximized by equal power sharing.
//! But a lightly loaded core may need *less* than the equal share; giving
//! it only what it requests and re-sharing the surplus is both more
//! energy-efficient and quality-raising. WF is the fixed point of that
//! idea, computed exactly as the paper specifies:
//!
//! 1. among unsatisfied cores, find the minimum outstanding request
//!    `h_min`;
//! 2. if `h_min · m′ ≥ H_remaining`, split the remaining budget evenly
//!    and stop; otherwise grant `h_min` to every unsatisfied core,
//!    subtract, and repeat.

/// Distribute `budget` watts across cores requesting `requests` watts.
///
/// Returns the per-core grant. Invariants (tested):
/// * `grant[i] ≤ requests[i]` + an equal share of any surplus the core
///   can't use is **not** granted — a core never receives more than it
///   requested;
/// * `Σ grant ≤ budget`, with equality when `Σ requests ≥ budget`;
/// * when `Σ requests ≤ budget`, every core gets exactly its request;
/// * any two cores whose requests exceed the final water level receive
///   the same grant (the level).
pub fn water_filling(requests: &[f64], budget: f64) -> Vec<f64> {
    let mut grant = Vec::new();
    level_into(
        requests,
        budget,
        &mut grant,
        &mut Vec::new(),
        &mut Vec::new(),
    );
    grant
}

/// The peeling loop, writing the grants into `grant` and using `rest` and
/// `unsat` as scratch; returns how many peeling rounds ran (0 when the
/// inputs are degenerate). The one water-filling body: [`water_filling`]
/// hands it fresh buffers, [`WaterFillingCache`] its own.
fn level_into(
    requests: &[f64],
    budget: f64,
    grant: &mut Vec<f64>,
    rest: &mut Vec<f64>,
    unsat: &mut Vec<usize>,
) -> u64 {
    let m = requests.len();
    grant.clear();
    grant.resize(m, 0.0);
    if m == 0 || budget <= 0.0 {
        return 0;
    }
    let mut rounds = 0u64;
    // Outstanding (not yet granted) request per unsatisfied core.
    rest.clear();
    rest.extend(requests.iter().map(|&h| h.max(0.0)));
    let mut remaining = budget;
    loop {
        unsat.clear();
        unsat.extend((0..m).filter(|&i| rest[i] > 1e-12));
        if unsat.is_empty() || remaining <= 1e-12 {
            break;
        }
        rounds += 1;
        let h_min = unsat.iter().map(|&i| rest[i]).fold(f64::INFINITY, f64::min);
        let k = unsat.len() as f64;
        if h_min * k >= remaining {
            // Not enough water to reach the next container rim: level off.
            let share = remaining / k;
            for &i in unsat.iter() {
                grant[i] += share;
                rest[i] -= share;
            }
            break;
        }
        // Fill every unsatisfied container by h_min; the minimal ones are
        // now satisfied.
        for &i in unsat.iter() {
            grant[i] += h_min;
            rest[i] -= h_min;
        }
        remaining -= h_min * k;
    }
    rounds
}

/// Incremental entry point to [`water_filling`]: caches the last solve
/// and re-levels only when the request vector or budget changed
/// (bitwise). DES invokes WF on every budget-bounded trigger; when
/// several triggers coincide at one instant — or the system is in a
/// steady state where no core's request moved — the grants are provably
/// the previous ones and the peeling loop is skipped. Levels into its
/// own buffers, so a warm cache never allocates.
#[derive(Clone, Debug, Default)]
pub struct WaterFillingCache {
    requests: Vec<f64>,
    budget: f64,
    grants: Vec<f64>,
    /// Scratch for [`level_into`].
    rest: Vec<f64>,
    unsat: Vec<usize>,
    valid: bool,
    hits: u64,
    levelings: u64,
    rounds: u64,
}

impl WaterFillingCache {
    /// An empty cache; the first [`WaterFillingCache::grants`] call
    /// always solves.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants for `requests` under `budget` — bitwise identical to
    /// `water_filling(requests, budget)`, reusing the previous solve
    /// when both inputs match it exactly.
    pub fn grants(&mut self, requests: &[f64], budget: f64) -> &[f64] {
        let hit = self.valid
            && self.budget.to_bits() == budget.to_bits()
            && self.requests.len() == requests.len()
            && self
                .requests
                .iter()
                .zip(requests)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if hit {
            self.hits += 1;
            return &self.grants;
        }
        self.level(requests, budget)
    }

    /// `water_filling(requests, budget)` solved afresh, skipping the
    /// cache lookup (the solve is still remembered for the next
    /// [`WaterFillingCache::grants`] call).
    pub fn level(&mut self, requests: &[f64], budget: f64) -> &[f64] {
        self.rounds += level_into(
            requests,
            budget,
            &mut self.grants,
            &mut self.rest,
            &mut self.unsat,
        );
        self.levelings += 1;
        self.requests.clear();
        self.requests.extend_from_slice(requests);
        self.budget = budget;
        self.valid = true;
        &self.grants
    }

    /// How often a call was served from the cached solve.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// How often the peeling loop actually ran (cache misses and
    /// [`WaterFillingCache::level`] calls).
    pub fn levelings(&self) -> u64 {
        self.levelings
    }

    /// Total peeling rounds across all levelings. Observability hook: DES
    /// exports it as `des.wf_rounds`.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn total(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    #[test]
    fn underload_grants_exact_requests() {
        let req = [5.0, 10.0, 3.0];
        let g = water_filling(&req, 100.0);
        for (a, b) in g.iter().zip(req.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_figure2_example() {
        // 4-core system: core 4 requests less than the equal share and
        // gets what it demands; cores 1–3 equally share the rest.
        let req = [30.0, 40.0, 35.0, 10.0];
        let budget = 70.0;
        let g = water_filling(&req, budget);
        assert!((g[3] - 10.0).abs() < 1e-9);
        let level = (budget - 10.0) / 3.0; // 20 W each
        for &i in &[0usize, 1, 2] {
            assert!((g[i] - level).abs() < 1e-9, "core {i}: {}", g[i]);
        }
        assert!((total(&g) - budget).abs() < 1e-9);
    }

    #[test]
    fn overload_levels_equally() {
        let req = [50.0, 50.0, 50.0, 50.0];
        let g = water_filling(&req, 80.0);
        for &x in &g {
            assert!((x - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn never_grants_more_than_request() {
        let req = [1.0, 2.0, 100.0, 0.5];
        let g = water_filling(&req, 50.0);
        for (a, b) in g.iter().zip(req.iter()) {
            assert!(*a <= *b + 1e-9, "{a} > {b}");
        }
        assert!((total(&g) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_never_exceeds_budget() {
        let cases: &[(&[f64], f64)] = &[
            (&[10.0, 20.0, 30.0], 15.0),
            (&[10.0, 20.0, 30.0], 60.0),
            (&[10.0, 20.0, 30.0], 1000.0),
            (&[0.0, 0.0, 5.0], 3.0),
        ];
        for &(req, h) in cases {
            let g = water_filling(req, h);
            assert!(total(&g) <= h + 1e-9, "req {req:?} H {h}");
            assert!(total(&g) <= req.iter().sum::<f64>() + 1e-9);
        }
    }

    #[test]
    fn multi_round_peeling() {
        // Ascending requests force several peel rounds before levelling.
        let req = [2.0, 4.0, 8.0, 100.0];
        let g = water_filling(&req, 30.0);
        // Rounds: grant 2 to all (rem 22); grant 2 more to last three
        // (rem 16, core1 done at 4); grant 4 more to last two (rem 8,
        // core2 done at 8); split 8 between... only core3 unsatisfied:
        // level check 92*1 >= 8 → core3 gets 8 more → 16.
        assert!((g[0] - 2.0).abs() < 1e-9);
        assert!((g[1] - 4.0).abs() < 1e-9);
        assert!((g[2] - 8.0).abs() < 1e-9);
        assert!((g[3] - 16.0).abs() < 1e-9);
        // The peel/level structure above is exactly four loop rounds.
        let mut cache = WaterFillingCache::new();
        assert_eq!(cache.level(&req, 30.0), g.as_slice());
        assert_eq!(cache.rounds(), 4);
    }

    #[test]
    fn cache_counts_hits_and_rounds() {
        let mut cache = WaterFillingCache::new();
        let req = [2.0, 4.0, 8.0, 100.0];
        cache.grants(&req, 30.0);
        cache.grants(&req, 30.0);
        cache.grants(&req, 30.0);
        assert_eq!(cache.levelings(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.rounds(), 4);
        cache.grants(&req, 31.0);
        assert_eq!(cache.levelings(), 2);
    }

    #[test]
    fn unsatisfied_cores_share_a_common_level() {
        let req = [3.0, 50.0, 70.0, 90.0, 1.0];
        let g = water_filling(&req, 100.0);
        // Cores 1,2,3 exceed the level; they must be equal.
        assert!((g[1] - g[2]).abs() < 1e-9);
        assert!((g[2] - g[3]).abs() < 1e-9);
        assert!((g[0] - 3.0).abs() < 1e-9);
        assert!((g[4] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(water_filling(&[], 10.0).is_empty());
        assert_eq!(water_filling(&[5.0, 5.0], 0.0), vec![0.0, 0.0]);
        assert_eq!(water_filling(&[5.0, 5.0], -3.0), vec![0.0, 0.0]);
        // Negative requests are clamped to zero.
        let g = water_filling(&[-5.0, 10.0], 20.0);
        assert_eq!(g[0], 0.0);
        assert!((g[1] - 10.0).abs() < 1e-9);
        // All-zero requests grant nothing.
        assert_eq!(water_filling(&[0.0, 0.0], 10.0), vec![0.0, 0.0]);
    }

    #[test]
    fn monotone_in_budget() {
        let req = [7.0, 13.0, 29.0, 41.0];
        let mut prev = vec![0.0; 4];
        for h in [0.0, 10.0, 20.0, 40.0, 80.0, 160.0] {
            let g = water_filling(&req, h);
            for i in 0..4 {
                assert!(g[i] + 1e-9 >= prev[i], "grant shrank with bigger budget");
            }
            prev = g;
        }
    }

    #[test]
    fn cache_hits_are_bitwise_identical_and_invalidate_on_change() {
        let mut cache = WaterFillingCache::new();
        let req = [30.0, 40.0, 35.0, 10.0];
        let direct = water_filling(&req, 70.0);
        let first = cache.grants(&req, 70.0).to_vec();
        assert_eq!(
            first.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            direct.iter().map(|g| g.to_bits()).collect::<Vec<_>>()
        );
        // Hit: same inputs, same (cached) output.
        let second = cache.grants(&req, 70.0).to_vec();
        assert_eq!(first, second);
        // Budget change invalidates…
        let wider = cache.grants(&req, 200.0).to_vec();
        assert_eq!(
            wider.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            water_filling(&req, 200.0)
                .iter()
                .map(|g| g.to_bits())
                .collect::<Vec<_>>()
        );
        // …and so does any request change, including length.
        let req2 = [30.0, 40.0, 35.0];
        let shorter = cache.grants(&req2, 200.0).to_vec();
        assert_eq!(shorter.len(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn prop_conservation_and_request_cap(
            req in proptest::collection::vec(0.0f64..120.0, 0..10),
            budget in 0.0f64..500.0,
        ) {
            let g = water_filling(&req, budget);
            prop_assert_eq!(g.len(), req.len());
            let sum: f64 = g.iter().sum();
            // Σ grant ≤ budget, and ≤ Σ requests (never invent demand).
            prop_assert!(sum <= budget + 1e-9, "sum {} budget {}", sum, budget);
            let want: f64 = req.iter().sum();
            prop_assert!(sum <= want + 1e-9, "sum {} requests {}", sum, want);
            // Per-core: never more than requested, never negative.
            for (gi, ri) in g.iter().zip(&req) {
                prop_assert!(*gi >= 0.0);
                prop_assert!(*gi <= *ri + 1e-9, "grant {} request {}", gi, ri);
            }
            // When the budget covers the demand, everyone is satisfied;
            // when it doesn't, it is spent in full.
            if want <= budget {
                for (gi, ri) in g.iter().zip(&req) {
                    prop_assert!((gi - ri).abs() < 1e-9);
                }
            } else {
                prop_assert!((sum - budget).abs() < 1e-6, "sum {} budget {}", sum, budget);
            }
        }

        #[test]
        fn prop_monotone_in_budget(
            req in proptest::collection::vec(0.0f64..120.0, 1..10),
            lo in 0.0f64..250.0,
            delta in 0.0f64..250.0,
        ) {
            let small = water_filling(&req, lo);
            let big = water_filling(&req, lo + delta);
            for (s, b) in small.iter().zip(&big) {
                prop_assert!(b + 1e-9 >= *s, "grant shrank: {} -> {}", s, b);
            }
        }

        #[test]
        fn prop_incremental_matches_full(
            reqs in proptest::collection::vec(
                proptest::collection::vec(0.0f64..120.0, 0..8),
                1..6,
            ),
            budget in 0.0f64..400.0,
            repeat in proptest::bool::ANY,
        ) {
            // Feed a sequence of request vectors (optionally re-playing
            // each one to force cache hits) and require every answer to
            // be bitwise equal to the direct solve.
            let mut cache = WaterFillingCache::new();
            for req in &reqs {
                let n = if repeat { 3 } else { 1 };
                for _ in 0..n {
                    let cached = cache.grants(req, budget).to_vec();
                    let direct = water_filling(req, budget);
                    prop_assert_eq!(cached.len(), direct.len());
                    for (ca, d) in cached.iter().zip(&direct) {
                        prop_assert_eq!(ca.to_bits(), d.to_bits());
                    }
                }
            }
        }
    }
}
