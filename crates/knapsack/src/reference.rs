//! Reference (pre-optimization) solver implementations.
//!
//! These are the original allocating versions of [`crate::sin_knap`]
//! and [`crate::overlapped::solve`], with the `GreedyAdd` step that
//! [`crate::overlapped::solve_with`] now runs inline and the exact
//! capacity DP, kept verbatim so that
//!
//! * equivalence property tests can assert the optimized scratch-based
//!   solvers produce identical (or provably no-worse) answers, and
//! * the perf harness (`netmaster-bench`'s `perf` binary) can measure
//!   the speedup of the hot-path rework against the true baseline.
//!
//! Nothing in the scheduler calls these; they exist for verification.

use crate::item::{Item, Solution};
use crate::overlapped::{OvProblem, OvSolution};

/// Exact `O(n · C)` capacity DP, allocating its tables per call. Only
/// sensible for small integer capacities; an oracle for the exact and
/// approximate solvers.
pub fn dp_by_capacity(items: &[Item], capacity: u64) -> Solution {
    let cap = capacity as usize;
    let n = items.len();
    let mut best = vec![0.0f64; cap + 1];
    let mut keep = vec![false; n * (cap + 1)];
    for (i, item) in items.iter().enumerate() {
        if item.profit <= 0.0 || item.weight > capacity {
            continue;
        }
        let w = item.weight as usize;
        for c in (w..=cap).rev() {
            let cand = best[c - w] + item.profit;
            if cand > best[c] {
                best[c] = cand;
                keep[i * (cap + 1) + c] = true;
            }
        }
    }
    let mut chosen = Vec::new();
    let mut c = cap;
    for i in (0..n).rev() {
        if keep[i * (cap + 1) + c] {
            chosen.push(i);
            c -= items[i].weight as usize;
        }
    }
    Solution::from_indices(items, chosen)
}

/// Reference Ibarra–Kim FPTAS, allocating `min_weight` and the
/// `Vec<bool>` choice matrix per call and always running the DP (no
/// capacity-slack fast path).
pub fn sin_knap(items: &[Item], capacity: u64, eps: f64) -> Solution {
    let eps = eps.clamp(1e-6, 0.999);
    let eligible: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].profit > 0.0 && items[i].weight <= capacity)
        .collect();
    if eligible.is_empty() {
        return Solution::default();
    }
    let n = eligible.len();
    let p_max = eligible
        .iter()
        .map(|&i| items[i].profit)
        .fold(0.0f64, f64::max);
    let k = eps * p_max / n as f64;
    let scaled: Vec<u64> = eligible
        .iter()
        .map(|&i| (items[i].profit / k).floor() as u64)
        .collect();
    let p_total: u64 = scaled.iter().sum();

    const INF: u64 = u64::MAX;
    let cells = (p_total + 1) as usize;
    let mut min_weight = vec![INF; cells];
    let mut choice = vec![false; n * cells]; // choice[j][q]
    min_weight[0] = 0;
    for (j, &idx) in eligible.iter().enumerate() {
        let (pj, wj) = (scaled[j] as usize, items[idx].weight);
        for q in (pj..cells).rev() {
            let from = min_weight[q - pj];
            if from != INF && from + wj < min_weight[q] {
                min_weight[q] = from + wj;
                choice[j * cells + q] = true;
            }
        }
    }
    let best_q = (0..cells)
        .rev()
        .find(|&q| min_weight[q] <= capacity)
        .unwrap_or(0);
    let mut chosen = Vec::new();
    let mut q = best_q;
    for j in (0..n).rev() {
        if choice[j * cells + q] {
            chosen.push(eligible[j]);
            q -= scaled[j] as usize;
        }
    }
    debug_assert_eq!(q, 0, "reconstruction must land at profit 0");
    Solution::from_indices(items, chosen)
}

/// Reference `GreedyAdd`, rebuilding its `HashSet` membership index and
/// ratio sort on every call.
pub fn greedy_add(items: &[Item], capacity: u64, existing: &mut Solution) {
    let in_set: std::collections::HashSet<usize> = existing.chosen.iter().copied().collect();
    let mut order: Vec<usize> = (0..items.len())
        .filter(|i| !in_set.contains(i))
        .filter(|&i| items[i].profit > 0.0)
        .collect();
    order.sort_by(|&a, &b| items[b].ratio().total_cmp(&items[a].ratio()));
    for &i in &order {
        if existing.weight + items[i].weight <= capacity {
            existing.weight += items[i].weight;
            existing.profit += items[i].profit;
            existing.chosen.push(i);
        }
    }
    existing.chosen.sort_unstable();
}

/// Reference Algorithm 1 built on the reference [`sin_knap`] and
/// [`greedy_add`] above, allocating every intermediate list per call.
pub fn solve(problem: &OvProblem, eps: f64) -> OvSolution {
    debug_assert_eq!(problem.validate(), Ok(()));
    let nslots = problem.capacities.len();
    let nitems = problem.items.len();

    // --- Step 1: duplication — build each slot's (item, profit) list.
    let mut slot_items: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nslots];
    for (j, it) in problem.items.iter().enumerate() {
        for c in it.candidates.iter() {
            slot_items[c.slot].push((j, c.profit));
        }
    }

    // --- Steps 2+3: per-slot ratio sort then SinKnap.
    let mut selected: Vec<Vec<usize>> = vec![Vec::new(); nslots];
    for (slot, list) in slot_items.iter_mut().enumerate() {
        if list.is_empty() {
            continue;
        }
        list.sort_by(|a, b| {
            let ra = a.1 / problem.items[a.0].weight.max(1) as f64;
            let rb = b.1 / problem.items[b.0].weight.max(1) as f64;
            rb.total_cmp(&ra)
        });
        let items: Vec<Item> = list
            .iter()
            .map(|&(j, p)| Item::new(p, problem.items[j].weight))
            .collect();
        let sol = sin_knap(&items, problem.capacities[slot], eps);
        selected[slot] = sol.chosen.iter().map(|&k| list[k].0).collect();
    }

    // --- Step 4: filtering — items chosen in two slots keep one copy.
    let mut chosen_slots: Vec<Vec<usize>> = vec![Vec::new(); nitems];
    for (slot, items) in selected.iter().enumerate() {
        for &j in items {
            chosen_slots[j].push(slot);
        }
    }
    let mut assignment: Vec<Option<usize>> = vec![None; nitems];
    let mut used = vec![0u64; nslots];
    let profit_of = |j: usize, slot: usize| -> f64 {
        problem.items[j]
            .candidates
            .iter()
            .find(|c| c.slot == slot)
            .map(|c| c.profit)
            .unwrap_or(f64::NEG_INFINITY)
    };
    for (j, slots) in chosen_slots.iter().enumerate() {
        let keep = match slots.len() {
            0 => continue,
            1 => slots[0],
            _ => {
                let (a, b) = (slots[0], slots[1]);
                let (pa, pb) = (profit_of(j, a), profit_of(j, b));
                if pa > pb {
                    a
                } else if pb > pa {
                    b
                } else {
                    let w = problem.items[j].weight;
                    let ra = problem.capacities[a].saturating_sub(w);
                    let rb = problem.capacities[b].saturating_sub(w);
                    if ra <= rb {
                        a
                    } else {
                        b
                    }
                }
            }
        };
        assignment[j] = Some(keep);
        used[keep] += problem.items[j].weight;
    }

    // --- Step 5: GreedyAdd — pack unassigned items into residual room.
    for slot in 0..nslots {
        let residual = problem.capacities[slot].saturating_sub(used[slot]);
        if residual == 0 {
            continue;
        }
        let cands: Vec<(usize, f64)> = slot_items[slot]
            .iter()
            .filter(|&&(j, p)| assignment[j].is_none() && p > 0.0)
            .copied()
            .collect();
        if cands.is_empty() {
            continue;
        }
        let items: Vec<Item> = cands
            .iter()
            .map(|&(j, p)| Item::new(p, problem.items[j].weight))
            .collect();
        let mut empty = Solution::default();
        greedy_add(&items, residual, &mut empty);
        for &k in &empty.chosen {
            let j = cands[k].0;
            if assignment[j].is_none()
                && used[slot] + problem.items[j].weight <= problem.capacities[slot]
            {
                assignment[j] = Some(slot);
                used[slot] += problem.items[j].weight;
            }
        }
    }

    // Assemble.
    let mut profit = 0.0;
    for (j, a) in assignment.iter().enumerate() {
        if let Some(slot) = *a {
            profit += profit_of(j, slot);
        }
    }
    OvSolution {
        assignment,
        profit,
        used,
        solver: Vec::new(),
    }
}
