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

/// Dantzig bound of `base` plus the ratio-ordered suffix `weight`,
/// `profit`: take items greedily while they fit `room`, the first one
/// that does not fractionally.
pub(crate) fn dantzig(weight: &[u64], profit: &[f64], mut room: u64, base: f64) -> f64 {
    let mut b = base;
    for (&w, &p) in weight.iter().zip(profit) {
        if w <= room {
            room -= w;
            b += p;
        } else {
            // w > room ≥ 0, so the division is by a positive weight.
            return b + p * room as f64 / w as f64;
        }
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
        weight,
        profit,
        stack,
        path,
        best,
    } = scratch;
    // Eligible items sorted by ratio (needed for the fractional bound),
    // with their weights and profits laid out in that order.
    order.clear();
    order
        .extend((0..items.len()).filter(|&i| items[i].profit > 0.0 && items[i].weight <= capacity));
    order.sort_by(|&a, &b| items[b].ratio().total_cmp(&items[a].ratio()));
    if order.is_empty() {
        return Some(Solution::default());
    }
    let n = order.len();
    weight.clear();
    weight.extend(order.iter().map(|&i| items[i].weight));
    profit.clear();
    profit.extend(order.iter().map(|&i| items[i].profit));
    let (weight, profit) = (&weight[..n], &profit[..n]);
    path.clear();
    path.resize(n.div_ceil(64), 0);
    best.clear();
    best.resize(n.div_ceil(64), 0);

    // Explicit DFS, visiting nodes in exactly the order the recursion
    // did: incumbent check on entry, Dantzig prune, then the take branch
    // before the skip branch. A node's first child pops right after it,
    // so the inner loop walks it in place and only the skip sibling of
    // a take goes on the stack. Each visit counts against the budget at
    // the same point, so the node count, the prunes and the exhaustion
    // point are those of a search that pushes and pops every child.
    // * Only a take can raise the incumbent: a skip child carries its
    //   parent's profit, which the parent's own visit already compared.
    // * A take child's Dantzig bound is its parent's: the greedy fill
    //   from the parent takes the same item first, with the same
    //   floating-point sum.
    stack.clear();
    let mut best_profit = 0.0f64;
    let mut best_depth = 0usize;
    let mut nodes = 0usize;
    stack.push(BnbFrame {
        depth: 0,
        used: 0,
        profit: 0.0,
    });
    while let Some(frame) = stack.pop() {
        let (mut depth, mut used, mut gained) = (frame.depth as usize, frame.used, frame.profit);
        let mut took = false;
        let mut ub = 0.0f64;
        loop {
            nodes += 1;
            if nodes > node_budget {
                return None;
            }
            if depth > 0 {
                let (word, bit) = ((depth - 1) / 64, 1u64 << ((depth - 1) % 64));
                if took {
                    path[word] |= bit;
                    if gained > best_profit {
                        best_profit = gained;
                        best_depth = depth;
                        best.copy_from_slice(path);
                    }
                } else {
                    path[word] &= !bit;
                }
            }
            if depth == n {
                break;
            }
            if !took {
                ub = dantzig(&weight[depth..], &profit[depth..], capacity - used, gained);
            }
            if ub <= best_profit + 1e-12 {
                break; // cannot beat the incumbent
            }
            took = used + weight[depth] <= capacity;
            if took {
                stack.push(BnbFrame {
                    depth: depth as u32 + 1,
                    used,
                    profit: gained,
                });
                used += weight[depth];
                gained += profit[depth];
            }
            depth += 1;
        }
    }
    let taken = |d: &usize| best[d / 64] >> (d % 64) & 1 == 1;
    // lint:allow(hot-path-alloc) Solution::chosen is the caller-owned result value, not reusable scratch
    let mut chosen = Vec::with_capacity((0..best_depth).filter(taken).count());
    chosen.extend((0..best_depth).filter(taken).map(|d| order[d]));
    Some(Solution::from_indices(items, chosen))
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
