//! Exact 0/1 knapsack by depth-first branch-and-bound with the
//! fractional (Dantzig) upper bound.
//!
//! Originally a recursive test oracle, now a production solver: the
//! search runs on an explicit stack (recursion depth was O(n) on
//! adversarial equal-ratio instances — enough to overflow the shrunken
//! stacks of `strict-invariants` test builds) and reuses a caller-owned
//! [`BnbScratch`], so the dispatcher ([`crate::solvers::solve_auto`])
//! can run it per slot with zero allocations. The budgeted entry point
//! caps the node count so worst-case exponential instances degrade into
//! an FPTAS fallback instead of a latency cliff.

use crate::item::{Item, Solution};
use crate::scratch::{BnbFrame, BnbScratch};

/// Exact solver. `O(2^n)` worst case but aggressively pruned; practical
/// into the hundreds of items for non-adversarial profit/weight mixes.
///
/// ```
/// use netmaster_knapsack::{branch_and_bound, Item};
///
/// let items = [Item::new(60.0, 10), Item::new(100.0, 20), Item::new(120.0, 30)];
/// let sol = branch_and_bound(&items, 50);
/// assert_eq!(sol.profit, 220.0);
/// assert_eq!(sol.chosen, vec![1, 2]);
/// ```
///
/// Allocates a fresh workspace; the dispatcher runs the budgeted form,
/// [`branch_and_bound_budgeted`], on a reused [`BnbScratch`].
pub fn branch_and_bound(items: &[Item], capacity: u64) -> Solution {
    branch_and_bound_budgeted(items, capacity, usize::MAX, &mut BnbScratch::new())
        // lint:allow(panic-hygiene) None only signals an exhausted budget, and usize::MAX never exhausts
        .expect("unbounded search cannot exhaust its budget")
}

/// Dantzig bound from `depth` onward: take remaining items greedily by
/// ratio, the last one fractionally.
fn bound(items: &[Item], order: &[usize], mut depth: usize, mut room: u64, base: f64) -> f64 {
    let mut b = base;
    while depth < order.len() {
        let it = &items[order[depth]];
        if it.weight <= room {
            room -= it.weight;
            b += it.profit;
        } else {
            if it.weight > 0 {
                b += it.profit * room as f64 / it.weight as f64;
            }
            return b;
        }
        depth += 1;
    }
    b
}

/// [`branch_and_bound`] on a caller-owned workspace that gives up
/// after visiting `node_budget` search nodes, returning `None` instead
/// of a (possibly non-optimal) incumbent. Callers treat `None` as
/// "instance too adversarial for exact search" and fall back to the
/// FPTAS, which keeps per-decision latency flat as instances grow.
// lint:hot-path
pub fn branch_and_bound_budgeted(
    items: &[Item],
    capacity: u64,
    node_budget: usize,
    scratch: &mut BnbScratch,
) -> Option<Solution> {
    let BnbScratch {
        order,
        stack,
        current,
        best,
    } = scratch;
    // Eligible items sorted by ratio (needed for the fractional bound).
    order.clear();
    order
        .extend((0..items.len()).filter(|&i| items[i].profit > 0.0 && items[i].weight <= capacity));
    order.sort_by(|&a, &b| items[b].ratio().total_cmp(&items[a].ratio()));
    if order.is_empty() {
        return Some(Solution::default());
    }
    let n = order.len();

    // Explicit DFS, visiting nodes in exactly the order the old
    // recursion did: incumbent check on entry, Dantzig prune, then the
    // take branch before the skip branch. `current` is the shared path;
    // each frame records the path length at its parent plus its own
    // take/skip decision, so entering a frame first rewinds the path.
    stack.clear();
    current.clear();
    best.clear();
    let mut best_profit = 0.0f64;
    let mut nodes = 0usize;
    stack.push(BnbFrame {
        depth: 0,
        parent_len: 0,
        take: false,
        used: 0,
        profit: 0.0,
    });
    while let Some(f) = stack.pop() {
        nodes += 1;
        if nodes > node_budget {
            return None;
        }
        current.truncate(f.parent_len as usize);
        if f.take {
            current.push(order[f.depth as usize - 1]);
        }
        if f.profit > best_profit {
            best_profit = f.profit;
            best.clear();
            best.extend_from_slice(current);
        }
        let depth = f.depth as usize;
        if depth == n {
            continue;
        }
        if bound(items, order, depth, capacity - f.used, f.profit) <= best_profit + 1e-12 {
            continue; // cannot beat the incumbent
        }
        let it = items[order[depth]];
        let len = current.len() as u32;
        // Skip branch pushed first so the take branch pops first.
        stack.push(BnbFrame {
            depth: f.depth + 1,
            parent_len: len,
            take: false,
            used: f.used,
            profit: f.profit,
        });
        if f.used + it.weight <= capacity {
            stack.push(BnbFrame {
                depth: f.depth + 1,
                parent_len: len,
                take: true,
                used: f.used + it.weight,
                profit: f.profit + it.profit,
            });
        }
    }
    // lint:allow(hot-path-alloc) Solution::chosen is the caller-owned result value, not reusable scratch
    Some(Solution::from_indices(items, best.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::{brute_force, sin_knap};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn items(v: &[(f64, u64)]) -> Vec<Item> {
        v.iter().map(|&(p, w)| Item::new(p, w)).collect()
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let mut rng = StdRng::seed_from_u64(123);
        for trial in 0..100 {
            let n = rng.random_range(1..=14);
            let it: Vec<Item> = (0..n)
                .map(|_| Item::new(rng.random_range(0.5..40.0), rng.random_range(1..40)))
                .collect();
            let cap = rng.random_range(1..120);
            let exact = brute_force(&it, cap);
            let bnb = branch_and_bound(&it, cap);
            assert!(
                (exact.profit - bnb.profit).abs() < 1e-9,
                "trial {trial}: {} vs {}",
                exact.profit,
                bnb.profit
            );
            assert!(bnb.feasible(cap));
        }
    }

    #[test]
    fn handles_classic_instance() {
        let it = items(&[(60.0, 10), (100.0, 20), (120.0, 30)]);
        let s = branch_and_bound(&it, 50);
        assert!((s.profit - 220.0).abs() < 1e-9);
        assert_eq!(s.chosen, vec![1, 2]);
    }

    #[test]
    fn scales_to_hundreds_of_items() {
        let mut rng = StdRng::seed_from_u64(7);
        let it: Vec<Item> = (0..300)
            .map(|_| Item::new(rng.random_range(1.0..20.0), rng.random_range(50..5_000)))
            .collect();
        let cap = 100_000;
        let exact = branch_and_bound(&it, cap);
        // The FPTAS must sit within its guarantee of the true optimum.
        let fptas = sin_knap(&it, cap, 0.1);
        assert!(fptas.profit >= 0.9 * exact.profit - 1e-9);
        assert!(fptas.profit <= exact.profit + 1e-9);
        assert!(exact.feasible(cap));
        assert!(exact.profit > 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(branch_and_bound(&[], 10), Solution::default());
        let it = items(&[(-1.0, 1), (5.0, 100)]);
        assert_eq!(branch_and_bound(&it, 10).chosen.len(), 0);
        let it = items(&[(5.0, 0)]);
        let s = branch_and_bound(&it, 0);
        assert_eq!(s.chosen, vec![0], "zero-weight item fits zero capacity");
    }

    #[test]
    fn pruning_does_not_lose_optima_on_equal_ratios() {
        // All items share a ratio; the bound equals the optimum along
        // the whole left spine — a classic pruning-bug trap.
        let it = items(&[(10.0, 10), (10.0, 10), (10.0, 10), (10.0, 10)]);
        let s = branch_and_bound(&it, 25);
        assert!((s.profit - 20.0).abs() < 1e-9);
        assert_eq!(s.chosen.len(), 2);
    }

    #[test]
    fn deep_equal_ratio_instance_runs_without_recursion() {
        // 5 000 equal-ratio items: the old recursive left spine would
        // be 5 000 calls deep — far past a strict-invariants test
        // thread's stack. The explicit stack shrugs.
        let it: Vec<Item> = (0..5_000).map(|_| Item::new(1.0, 1)).collect();
        let s = branch_and_bound(&it, 2_500);
        assert!((s.profit - 2_500.0).abs() < 1e-9);
        assert!(s.feasible(2_500));
    }

    #[test]
    fn scratch_reuse_matches_fresh_solves() {
        let mut rng = StdRng::seed_from_u64(321);
        let mut scratch = BnbScratch::new();
        for trial in 0..60 {
            let n = rng.random_range(1..=13);
            let it: Vec<Item> = (0..n)
                .map(|_| Item::new(rng.random_range(0.5..30.0), rng.random_range(1..30)))
                .collect();
            let cap = rng.random_range(1..90);
            let warm = branch_and_bound_budgeted(&it, cap, usize::MAX, &mut scratch);
            let fresh = branch_and_bound(&it, cap);
            assert_eq!(
                warm,
                Some(fresh),
                "trial {trial}: dirty scratch changed the answer"
            );
        }
    }

    #[test]
    fn budget_exhaustion_returns_none_and_generous_budget_matches() {
        // Ratio gaps of 1e-9 sit above the 1e-12 prune tolerance, so the
        // search still finishes — but not in 5 nodes.
        let it: Vec<Item> = (0..40)
            .map(|i| Item::new(10.0 + i as f64 * 1e-9, 10))
            .collect();
        let mut scratch = BnbScratch::new();
        assert_eq!(
            branch_and_bound_budgeted(&it, 190, 5, &mut scratch),
            None,
            "5 nodes cannot finish a 40-item search"
        );
        // A generous budget completes and matches the unbounded search.
        let capped = branch_and_bound_budgeted(&it, 190, usize::MAX - 1, &mut scratch);
        let full = branch_and_bound(&it, 190);
        assert_eq!(capped, Some(full));
    }
}
