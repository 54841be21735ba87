//! Single 0/1-knapsack solvers: brute force, capacity DP, greedy, and
//! the Ibarra–Kim profit-scaling FPTAS — the paper's `SinKnap` \[13\].
//!
//! The DP solvers come in two forms: the classic signature
//! ([`sin_knap`], [`dp_by_capacity`]) which allocates a fresh workspace
//! per call, and the `_with` variants which reuse a caller-owned
//! [`SolverScratch`] — the form the scheduler's hot path uses so a
//! policy performs zero DP-table allocations per planning day. The
//! original allocating implementations are preserved verbatim in
//! [`crate::reference`] as oracles.

use crate::item::{Item, Solution};
use crate::scratch::SolverScratch;

/// Exact solver by subset enumeration. `O(2^n)`; panics above 24 items.
/// Reference oracle for tests.
pub fn brute_force(items: &[Item], capacity: u64) -> Solution {
    assert!(items.len() <= 24, "brute force limited to 24 items");
    let n = items.len();
    let mut best_mask = 0u32;
    let mut best_profit = 0.0f64;
    for mask in 0u32..(1 << n) {
        let mut w = 0u64;
        let mut p = 0.0f64;
        let mut ok = true;
        for (i, item) in items.iter().enumerate() {
            if mask >> i & 1 == 1 {
                w += item.weight;
                if w > capacity {
                    ok = false;
                    break;
                }
                p += item.profit;
            }
        }
        if ok && p > best_profit {
            best_profit = p;
            best_mask = mask;
        }
    }
    let chosen = (0..n).filter(|i| best_mask >> i & 1 == 1).collect();
    Solution::from_indices(items, chosen)
}

/// Strict-mode solution oracle, compiled only under the
/// `strict-invariants` feature: every solution must fit its capacity,
/// and its profit must clear `floor` (the caller states the guarantee
/// being checked — exactness for the DP, the `(1 − ε)`-scaled
/// [`greedy_half`] bound for the FPTAS, both valid because
/// `OPT ≥ greedy_half`).
#[cfg(feature = "strict-invariants")]
fn assert_solution_invariants(capacity: u64, floor: f64, sol: &Solution, what: &str) {
    assert!(
        sol.weight <= capacity,
        "strict-invariants: {what} overpacked: weight {} > capacity {capacity}",
        sol.weight
    );
    let tolerance = 1e-9 * floor.abs().max(1.0);
    assert!(
        sol.profit >= floor - tolerance,
        "strict-invariants: {what} profit {} below its guaranteed floor {floor}",
        sol.profit
    );
}

/// Exact DP over capacity, `O(n · C)` time and space. Only sensible for
/// small integer capacities; the scheduler uses [`sin_knap`] instead.
///
/// Allocates a fresh workspace; hot paths should hold a
/// [`SolverScratch`] and call [`dp_by_capacity_with`].
pub fn dp_by_capacity(items: &[Item], capacity: u64) -> Solution {
    dp_by_capacity_with(items, capacity, &mut SolverScratch::new())
}

/// [`dp_by_capacity`] reusing a caller-owned workspace. Produces the
/// same solution bit-for-bit; the only difference is where the DP
/// tables live.
// lint:hot-path
pub fn dp_by_capacity_with(items: &[Item], capacity: u64, scratch: &mut SolverScratch) -> Solution {
    let cap = capacity as usize;
    let n = items.len();
    let SolverScratch {
        best, choice: keep, ..
    } = scratch;
    // best[w] = max profit with weight exactly ≤ w; keep[i][w] for reconstruction.
    best.clear();
    best.resize(cap + 1, 0.0f64);
    keep.reset(n, cap + 1);
    for (i, item) in items.iter().enumerate() {
        if item.profit <= 0.0 || item.weight > capacity {
            continue;
        }
        let w = item.weight as usize;
        for c in (w..=cap).rev() {
            let cand = best[c - w] + item.profit;
            if cand > best[c] {
                best[c] = cand;
                keep.set(i, c);
            }
        }
    }
    // Reconstruct.
    // lint:allow(hot-path-alloc) Solution::chosen is the caller-owned result value, not reusable scratch
    let mut chosen = Vec::new();
    let mut c = cap;
    for i in (0..n).rev() {
        if keep.get(i, c) {
            chosen.push(i);
            c -= items[i].weight as usize;
        }
    }
    let sol = Solution::from_indices(items, chosen);
    // The exact DP dominates any feasible solution, greedy included.
    #[cfg(feature = "strict-invariants")]
    assert_solution_invariants(
        capacity,
        greedy_half(items, capacity).profit,
        &sol,
        "dp_by_capacity",
    );
    sol
}

/// Greedy by profit-to-weight ratio with the classic "best single item"
/// fallback, a 1/2-approximation.
///
/// Allocates a fresh workspace; hot paths should hold a
/// [`SolverScratch`] and call [`greedy_half_with`].
pub fn greedy_half(items: &[Item], capacity: u64) -> Solution {
    greedy_half_with(items, capacity, &mut SolverScratch::new())
}

/// [`greedy_half`] reusing a caller-owned workspace for the ratio
/// order. Same solution; no per-call sort buffer allocation.
// lint:hot-path
pub fn greedy_half_with(items: &[Item], capacity: u64, scratch: &mut SolverScratch) -> Solution {
    let order = &mut scratch.order;
    order.clear();
    order
        .extend((0..items.len()).filter(|&i| items[i].profit > 0.0 && items[i].weight <= capacity));
    order.sort_by(|&a, &b| items[b].ratio().total_cmp(&items[a].ratio()));
    // lint:allow(hot-path-alloc) Solution::chosen is the caller-owned result value, not reusable scratch
    let mut chosen = Vec::new();
    let mut used = 0u64;
    for &i in order.iter() {
        if used + items[i].weight <= capacity {
            used += items[i].weight;
            chosen.push(i);
        }
    }
    let greedy = Solution::from_indices(items, chosen);
    // Compare against the single most profitable item.
    let best_single = (0..items.len())
        .filter(|&i| items[i].weight <= capacity && items[i].profit > 0.0)
        .max_by(|&a, &b| items[a].profit.total_cmp(&items[b].profit));
    match best_single {
        // lint:allow(hot-path-alloc) single-element result value, not reusable scratch
        Some(i) if items[i].profit > greedy.profit => Solution::from_indices(items, vec![i]),
        _ => greedy,
    }
}

/// Greedy *filling* pass: adds any still-fitting items (by ratio) to an
/// existing selection. The paper's `GreedyAdd` step.
///
/// Builds the ratio order on the fly; callers that already hold items
/// in ratio order (like the overlapped solver's per-slot lists) should
/// use [`greedy_add_presorted`] and skip the sort entirely. Membership
/// in `existing` is tested by binary search over its sorted index list
/// rather than the `HashSet` the original implementation rebuilt per
/// call (preserved in [`crate::reference::greedy_add`]).
pub fn greedy_add(items: &[Item], capacity: u64, existing: &mut Solution) {
    existing.chosen.sort_unstable();
    let mut order: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].profit > 0.0 && existing.chosen.binary_search(&i).is_err())
        .collect();
    order.sort_by(|&a, &b| items[b].ratio().total_cmp(&items[a].ratio()));
    greedy_add_presorted(items, capacity, existing, &order);
}

/// [`greedy_add`] taking a precomputed fill order: `order` lists
/// distinct candidate indices in the sequence to try (normally
/// profit-to-weight descending). Indices already in `existing.chosen`
/// (which must be sorted ascending, as [`Solution::from_indices`]
/// guarantees) and non-positive-profit items are skipped.
pub fn greedy_add_presorted(
    items: &[Item],
    capacity: u64,
    existing: &mut Solution,
    order: &[usize],
) {
    // `order` holds distinct indices, so only membership at entry can
    // repeat an item; the pre-existing prefix of `chosen` stays sorted
    // while new picks are appended, keeping the binary search valid.
    let initial = existing.chosen.len();
    for &i in order {
        if items[i].profit <= 0.0 || existing.chosen[..initial].binary_search(&i).is_ok() {
            continue;
        }
        if existing.weight + items[i].weight <= capacity {
            existing.weight += items[i].weight;
            existing.profit += items[i].profit;
            existing.chosen.push(i);
        }
    }
    existing.chosen.sort_unstable();
}

/// The Ibarra–Kim FPTAS (`SinKnap` in the paper): profit-scaling dynamic
/// programming guaranteeing profit ≥ `(1 − ε) · OPT` in
/// `O(n² ⌈n/ε⌉)` time.
///
/// `eps` is clamped to `[1e-6, 0.999]`. Items with non-positive profit
/// or weight exceeding `capacity` are never selected.
///
/// ```
/// use netmaster_knapsack::{sin_knap, Item};
///
/// let items = [Item::new(60.0, 10), Item::new(100.0, 20), Item::new(120.0, 30)];
/// let sol = sin_knap(&items, 50, 0.1);
/// assert!(sol.profit >= 0.9 * 220.0); // within (1-ε) of the optimum
/// assert!(sol.weight <= 50);
/// ```
///
/// Allocates a fresh workspace; hot paths should hold a
/// [`SolverScratch`] and call [`sin_knap_with`].
pub fn sin_knap(items: &[Item], capacity: u64, eps: f64) -> Solution {
    sin_knap_with(items, capacity, eps, &mut SolverScratch::new())
}

/// [`sin_knap`] reusing a caller-owned workspace — the scheduler's hot
/// path. Two optimizations over [`crate::reference::sin_knap`]:
///
/// * **Capacity-slack fast path**: when every eligible item fits
///   together (`Σ weights ≤ capacity`) the answer is trivially *all*
///   eligible items — the exact optimum, no DP at all. This is the
///   common case for light screen-off workloads against a whole-slot
///   byte budget. (The reference DP may return a subset with equal
///   scaled but lower real profit, since items whose profit rounds to
///   zero under scaling never set a choice flag — the fast path's
///   answer is never worse.)
/// * When capacity binds, the profit-scaling DP runs with `scratch`'s
///   reused `min_weight` table and bit-packed choice matrix (1/8 the
///   memory of the reference `Vec<bool>`), producing the same solution
///   bit-for-bit. Three prunes keep that identity while skipping work
///   the reference wastes: the table is truncated at the Dantzig bound
///   on scaled profit, each item's inner loop stops at the reachable
///   prefix sum, and states heavier than `capacity` are never stored
///   (transitions only add weight, so they cannot reach a feasible
///   reconstruction chain).
// lint:hot-path
pub fn sin_knap_with(
    items: &[Item],
    capacity: u64,
    eps: f64,
    scratch: &mut SolverScratch,
) -> Solution {
    let eps = eps.clamp(1e-6, 0.999);
    let SolverScratch {
        min_weight,
        choice,
        eligible,
        scaled,
        order,
        ..
    } = scratch;
    // Eligible items only.
    eligible.clear();
    let mut total_weight: u128 = 0;
    for (i, item) in items.iter().enumerate() {
        if item.profit > 0.0 && item.weight <= capacity {
            eligible.push(i);
            total_weight += item.weight as u128;
        }
    }
    if eligible.is_empty() {
        return Solution::default();
    }
    // Fast path: all eligible items fit at once — take them all.
    if total_weight <= capacity as u128 {
        netmaster_obs::counter!(netmaster_obs::names::KNAPSACK_FASTPATH_TOTAL);
        // lint:allow(hot-path-alloc) the result takes ownership of the index list; cloning keeps scratch reusable
        let sol = Solution::from_indices(items, eligible.clone());
        // Taking every eligible item dominates any feasible subset.
        #[cfg(feature = "strict-invariants")]
        assert_solution_invariants(
            capacity,
            greedy_half(items, capacity).profit,
            &sol,
            "sin_knap fast path",
        );
        return sol;
    }
    netmaster_obs::counter!(netmaster_obs::names::KNAPSACK_DP_TOTAL);
    let n = eligible.len();
    let p_max = eligible
        .iter()
        .map(|&i| items[i].profit)
        .fold(0.0f64, f64::max);
    // Scale factor K = ε·P/n ⇒ every item's scaled profit ≤ n/ε.
    let k = eps * p_max / n as f64;
    scaled.clear();
    scaled.extend(
        eligible
            .iter()
            .map(|&i| (items[i].profit / k).floor() as u64),
    );
    let p_total: u64 = scaled.iter().sum();

    // Dantzig upper bound on the *scaled* profit any feasible subset
    // can reach: greedy by scaled ratio, last item fractional (rounded
    // up, in integer arithmetic, so it can never under-bound). Every
    // DP cell above the bound would stay unreachable-within-capacity,
    // so the table is truncated there — typically a multiple smaller
    // than the reference's `p_total + 1` cells when capacity binds.
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| {
        let (pa, wa) = (scaled[a] as u128, items[eligible[a]].weight as u128);
        let (pb, wb) = (scaled[b] as u128, items[eligible[b]].weight as u128);
        (pb * wa).cmp(&(pa * wb)) // scaled ratio, descending
    });
    let mut room = capacity;
    let mut ub: u64 = 0;
    for &j in order.iter() {
        let w = items[eligible[j]].weight;
        if w <= room {
            room -= w;
            ub += scaled[j];
        } else {
            ub += (scaled[j] as u128 * room as u128).div_ceil(w as u128) as u64;
            break;
        }
    }

    // min_weight[q] = least weight achieving scaled profit exactly q.
    const INF: u64 = u64::MAX;
    let cells = (p_total.min(ub) + 1) as usize;
    netmaster_obs::gauge_max(
        netmaster_obs::names::KNAPSACK_DP_CELLS_HIGHWATER,
        cells as f64,
    );
    netmaster_obs::gauge_max(
        netmaster_obs::names::KNAPSACK_CHOICE_BITS_HIGHWATER,
        (n * cells) as f64,
    );
    min_weight.clear();
    min_weight.resize(cells, INF);
    choice.reset(n, cells); // choice[j][q]
    min_weight[0] = 0;
    // Two further prunes, both leaving the ≤-capacity table — and so
    // the reconstruction — bit-identical to the reference:
    // * reachable prefix: after items `0..=j` no cell above the prefix
    //   sum of their scaled profits can be non-INF, so the inner loop
    //   stops there instead of at `cells`;
    // * capacity prune: transitions only add weight, so a state heavier
    //   than `capacity` can never sit on the reconstruction chain of a
    //   within-capacity state — skip storing it at all.
    let mut reach: u64 = 0;
    for (j, &idx) in eligible.iter().enumerate() {
        let (pj, wj) = (scaled[j] as usize, items[idx].weight);
        reach = (reach + scaled[j]).min(cells as u64 - 1);
        let hi = reach as usize;
        let base = choice.row_base(j);
        for q in (pj..=hi).rev() {
            let from = min_weight[q - pj];
            if from != INF {
                let cand = from + wj;
                if cand <= capacity && cand < min_weight[q] {
                    min_weight[q] = cand;
                    choice.set_bit(base + q);
                }
            }
        }
    }
    // Best achievable scaled profit within capacity.
    let best_q = (0..cells)
        .rev()
        .find(|&q| min_weight[q] <= capacity)
        .unwrap_or(0);
    // Reconstruct.
    // lint:allow(hot-path-alloc) Solution::chosen is the caller-owned result value, not reusable scratch
    let mut chosen = Vec::new();
    let mut q = best_q;
    for j in (0..n).rev() {
        if choice.get(j, q) {
            chosen.push(eligible[j]);
            q -= scaled[j] as usize;
        }
    }
    debug_assert_eq!(q, 0, "reconstruction must land at profit 0");
    let sol = Solution::from_indices(items, chosen);
    // FPTAS bound: profit ≥ (1 − ε)·OPT and OPT ≥ greedy_half, so the
    // scaled greedy profit is a sound runtime floor.
    #[cfg(feature = "strict-invariants")]
    assert_solution_invariants(
        capacity,
        (1.0 - eps) * greedy_half(items, capacity).profit,
        &sol,
        "sin_knap DP path",
    );
    sol
}

/// Which arm of [`solve_auto`] answered an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Capacity-slack fast path: every eligible item fit together, the
    /// exact optimum with no search at all.
    Fastpath,
    /// Exact branch-and-bound: small instance solved to optimality
    /// within its node budget.
    Bnb,
    /// Profit-quantized `(1 − ε)` DP: the sparse Pareto frontier, or
    /// its dense fallback when the frontier outgrows its arena budget.
    Dp,
}

/// Arena-state budget past which [`quantized_dp`] abandons the sparse
/// frontier for the dense table — bounds worst-case memory at ~24 MB
/// of states while the dense path stays within the (truncated,
/// bit-packed) footprint [`sin_knap_with`] already pays.
const QDP_ARENA_BUDGET: usize = 1 << 20;

/// Profit-quantized FPTAS over a *sparse* Pareto frontier: the same
/// Ibarra–Kim scaling as [`sin_knap_with`], but instead of a dense
/// `min_weight[q]` table the solver keeps only states `(q, w)` that no
/// other state dominates (higher-or-equal scaled profit at
/// lower-or-equal weight — Nemhauser–Ullmann). On the slot-shaped
/// instances the planner emits, reachable profit levels are sparse and
/// the frontier stays tiny next to `p_total` cells.
///
/// Same `(1 − ε)·OPT` guarantee as [`sin_knap_with`]; the chosen *set*
/// may differ (both land on the maximum feasible scaled profit, but may
/// break real-profit ties differently), so oracles should compare
/// profit bounds, not sets. Deterministic: ties keep the older state.
// lint:hot-path
pub fn quantized_dp(
    items: &[Item],
    capacity: u64,
    eps: f64,
    scratch: &mut SolverScratch,
) -> Solution {
    use crate::scratch::QState;
    let eps = eps.clamp(1e-6, 0.999);
    const NO_PARENT: u32 = u32::MAX;
    let best_idx: Option<u32> = {
        let SolverScratch {
            eligible,
            scaled,
            arena,
            frontier,
            merged,
            ..
        } = &mut *scratch;
        eligible.clear();
        eligible.extend(
            (0..items.len()).filter(|&i| items[i].profit > 0.0 && items[i].weight <= capacity),
        );
        if eligible.is_empty() {
            return Solution::default();
        }
        let n = eligible.len();
        let p_max = eligible
            .iter()
            .map(|&i| items[i].profit)
            .fold(0.0f64, f64::max);
        let k = eps * p_max / n as f64;
        scaled.clear();
        scaled.extend(
            eligible
                .iter()
                .map(|&i| (items[i].profit / k).floor() as u64),
        );

        arena.clear();
        frontier.clear();
        arena.push(QState {
            w: 0,
            q: 0,
            item: u32::MAX,
            parent: NO_PARENT,
        });
        frontier.push(0);
        let mut overflow = false;
        for j in 0..n {
            let (pj, wj) = (scaled[j], items[eligible[j]].weight);
            if pj == 0 {
                // A zero-scaled item can never raise q and never lower
                // the min weight at a level (ties keep the old state).
                continue;
            }
            // Merge `frontier` with `frontier ⊕ item j`, scanning q
            // descending and keeping a state only when strictly lighter
            // than everything at higher-or-equal profit. Equal-q ties
            // process the lighter state first; full ties keep the old.
            merged.clear();
            let (mut i, mut t) = (frontier.len(), frontier.len());
            let mut best_w = u64::MAX;
            loop {
                let take = loop {
                    if t == 0 {
                        break None;
                    }
                    let s = arena[frontier[t - 1] as usize];
                    if s.w + wj <= capacity {
                        break Some((s.q + pj, s.w + wj, frontier[t - 1]));
                    }
                    t -= 1;
                };
                let old = if i > 0 {
                    let s = arena[frontier[i - 1] as usize];
                    Some((s.q, s.w, frontier[i - 1]))
                } else {
                    None
                };
                let pick_take = match (old, take) {
                    (None, None) => break,
                    (Some(_), None) => false,
                    (None, Some(_)) => true,
                    (Some((oq, ow, _)), Some((tq, tw, _))) => {
                        if tq != oq {
                            tq > oq
                        } else {
                            tw < ow // equal profit: lighter first; full tie: old first
                        }
                    }
                };
                if pick_take {
                    // lint:allow(panic-hygiene) pick_take is only true when the take side exists (merge guard above)
                    let (q, w, parent) = take.expect("picked side is present");
                    t -= 1;
                    if w < best_w {
                        if arena.len() >= QDP_ARENA_BUDGET {
                            overflow = true;
                            break;
                        }
                        arena.push(QState {
                            w,
                            q,
                            item: j as u32,
                            parent,
                        });
                        merged.push((arena.len() - 1) as u32);
                        best_w = w;
                    }
                } else {
                    // lint:allow(panic-hygiene) !pick_take requires the old side to exist (merge guard above)
                    let (_, w, idx) = old.expect("picked side is present");
                    i -= 1;
                    if w < best_w {
                        merged.push(idx);
                        best_w = w;
                    }
                }
            }
            if overflow {
                break;
            }
            frontier.clear();
            frontier.extend(merged.iter().rev().copied());
        }
        netmaster_obs::gauge_max(
            netmaster_obs::names::KNAPSACK_QDP_STATES_HIGHWATER,
            arena.len() as f64,
        );
        if overflow {
            None
        } else {
            netmaster_obs::counter!(netmaster_obs::names::KNAPSACK_DP_TOTAL);
            frontier.last().copied()
        }
    };
    let Some(best) = best_idx else {
        // Frontier outgrew its arena: the dense (truncated, bit-packed)
        // table is the bounded-memory fallback. It counts its own DP
        // tick and keeps the same guarantee.
        return sin_knap_with(items, capacity, eps, scratch);
    };
    // Reconstruct by walking the parent chain.
    // lint:allow(hot-path-alloc) Solution::chosen is the caller-owned result value, not reusable scratch
    let mut chosen = Vec::new();
    let mut cur = best;
    while cur != NO_PARENT {
        let s = scratch.arena[cur as usize];
        if s.item != u32::MAX {
            chosen.push(scratch.eligible[s.item as usize]);
        }
        cur = s.parent;
    }
    let sol = Solution::from_indices(items, chosen);
    #[cfg(feature = "strict-invariants")]
    assert_solution_invariants(
        capacity,
        (1.0 - eps) * greedy_half(items, capacity).profit,
        &sol,
        "quantized_dp",
    );
    sol
}

/// Exact search is attempted up to this many eligible items…
const BNB_MAX_N: usize = 40;
/// …with a node budget linear in the item count, so adversarial
/// equal-ratio instances fall through to the FPTAS at flat latency
/// instead of going exponential.
const BNB_NODES_PER_ITEM: usize = 64;

/// The cost-model dispatcher: picks the cheapest solver that fits the
/// instance, recording its choice in the obs counters and in
/// [`SolverScratch::last_solver`].
///
/// * **Slack fast path** — every eligible item fits together: take them
///   all (exact, no search).
/// * **Exact branch-and-bound** — at most `BNB_MAX_N` (40) eligible items:
///   budgeted iterative search; optimal when it completes.
/// * **Quantized FPTAS** — everything else (and exhausted budgets):
///   [`quantized_dp`], guarantee `(1 − ε)·OPT`.
///
/// The returned profit is therefore always ≥ `(1 − ε)·OPT`, and exact
/// whenever the fast path or branch-and-bound answered.
// lint:hot-path
pub fn solve_auto(
    items: &[Item],
    capacity: u64,
    eps: f64,
    scratch: &mut SolverScratch,
) -> Solution {
    scratch.last_kind = None;
    scratch.eligible.clear();
    let mut total_weight: u128 = 0;
    for (i, item) in items.iter().enumerate() {
        if item.profit > 0.0 && item.weight <= capacity {
            scratch.eligible.push(i);
            total_weight += item.weight as u128;
        }
    }
    if scratch.eligible.is_empty() {
        return Solution::default();
    }
    if total_weight <= capacity as u128 {
        netmaster_obs::counter!(netmaster_obs::names::KNAPSACK_FASTPATH_TOTAL);
        scratch.last_kind = Some(SolverKind::Fastpath);
        // lint:allow(hot-path-alloc) the result takes ownership of the index list; cloning keeps scratch reusable
        let sol = Solution::from_indices(items, scratch.eligible.clone());
        #[cfg(feature = "strict-invariants")]
        assert_solution_invariants(
            capacity,
            greedy_half(items, capacity).profit,
            &sol,
            "solve_auto fast path",
        );
        return sol;
    }
    let n = scratch.eligible.len();
    if n <= BNB_MAX_N {
        if let Some(sol) = crate::bnb::branch_and_bound_budgeted(
            items,
            capacity,
            BNB_NODES_PER_ITEM * n,
            &mut scratch.bnb,
        ) {
            netmaster_obs::counter!(netmaster_obs::names::KNAPSACK_BNB_TOTAL);
            scratch.last_kind = Some(SolverKind::Bnb);
            // Exact ⇒ dominates greedy, same floor as the exact DP.
            #[cfg(feature = "strict-invariants")]
            assert_solution_invariants(
                capacity,
                greedy_half(items, capacity).profit,
                &sol,
                "solve_auto branch-and-bound",
            );
            return sol;
        }
    }
    let sol = quantized_dp(items, capacity, eps, scratch);
    scratch.last_kind = Some(SolverKind::Dp);
    sol
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(v: &[(f64, u64)]) -> Vec<Item> {
        v.iter().map(|&(p, w)| Item::new(p, w)).collect()
    }

    /// Every oracle test in this module doubles as a strict-invariants
    /// exercise when CI compiles the feature in; this pins that the
    /// feature run was not vacuous.
    #[test]
    #[cfg(feature = "strict-invariants")]
    #[allow(clippy::assertions_on_constants)]
    fn strict_invariants_are_compiled_in() {
        assert!(crate::STRICT_INVARIANTS);
    }

    #[test]
    fn brute_force_small_instance() {
        let it = items(&[(60.0, 10), (100.0, 20), (120.0, 30)]);
        let s = brute_force(&it, 50);
        assert_eq!(s.chosen, vec![1, 2]);
        assert!((s.profit - 220.0).abs() < 1e-9);
    }

    #[test]
    fn dp_matches_brute_force() {
        let it = items(&[(3.0, 4), (7.0, 5), (2.0, 1), (9.0, 7), (5.0, 3)]);
        for cap in 0..=20 {
            let a = brute_force(&it, cap);
            let b = dp_by_capacity(&it, cap);
            assert!(
                (a.profit - b.profit).abs() < 1e-9,
                "cap {cap}: {} vs {}",
                a.profit,
                b.profit
            );
            assert!(b.feasible(cap));
        }
    }

    #[test]
    fn dp_skips_oversized_and_worthless_items() {
        let it = items(&[(10.0, 100), (-5.0, 1), (0.0, 1), (4.0, 2)]);
        let s = dp_by_capacity(&it, 10);
        assert_eq!(s.chosen, vec![3]);
    }

    #[test]
    fn greedy_half_is_at_least_half_optimal() {
        // Adversarial case for plain greedy: one big item beats ratio-greedy.
        let it = items(&[(1.0, 1), (99.0, 100)]);
        let s = greedy_half(&it, 100);
        assert!(
            (s.profit - 99.0).abs() < 1e-9,
            "fallback to best single item"
        );
        let opt = brute_force(&it, 100);
        assert!(s.profit >= 0.5 * opt.profit);
    }

    #[test]
    fn greedy_add_fills_leftover_capacity() {
        let it = items(&[(5.0, 5), (4.0, 4), (3.0, 3)]);
        let mut s = Solution::from_indices(&it, vec![0]);
        greedy_add(&it, 12, &mut s);
        assert_eq!(s.chosen, vec![0, 1, 2]);
        assert_eq!(s.weight, 12);
        // Never exceeds capacity.
        let mut s2 = Solution::from_indices(&it, vec![0]);
        greedy_add(&it, 8, &mut s2);
        assert!(s2.weight <= 8);
    }

    #[test]
    fn sin_knap_exact_on_small_eps() {
        let it = items(&[(60.0, 10), (100.0, 20), (120.0, 30)]);
        let s = sin_knap(&it, 50, 0.01);
        assert!((s.profit - 220.0).abs() < 1e-9);
        assert!(s.feasible(50));
    }

    #[test]
    fn sin_knap_respects_epsilon_guarantee() {
        let it = items(&[
            (13.0, 9),
            (8.0, 5),
            (17.0, 14),
            (4.0, 2),
            (9.0, 6),
            (11.0, 8),
            (6.0, 4),
        ]);
        for &eps in &[0.05, 0.1, 0.3, 0.5, 0.9] {
            for cap in [5u64, 10, 20, 30] {
                let opt = brute_force(&it, cap);
                let s = sin_knap(&it, cap, eps);
                assert!(s.feasible(cap));
                assert!(
                    s.profit >= (1.0 - eps) * opt.profit - 1e-9,
                    "eps={eps} cap={cap}: {} < (1-ε)·{}",
                    s.profit,
                    opt.profit
                );
            }
        }
    }

    #[test]
    fn sin_knap_empty_and_degenerate() {
        assert_eq!(sin_knap(&[], 10, 0.1), Solution::default());
        let it = items(&[(-1.0, 1), (0.0, 1)]);
        assert_eq!(sin_knap(&it, 10, 0.1).chosen.len(), 0);
        // All items oversized.
        let it = items(&[(5.0, 100)]);
        assert_eq!(sin_knap(&it, 10, 0.1).chosen.len(), 0);
    }

    #[test]
    fn sin_knap_zero_weight_items_always_fit() {
        let it = items(&[(5.0, 0), (3.0, 0), (7.0, 10)]);
        let s = sin_knap(&it, 10, 0.05);
        assert!((s.profit - 15.0).abs() < 0.8); // within FPTAS slack
        assert_eq!(s.chosen.len(), 3);
    }

    #[test]
    fn fast_path_takes_everything_under_slack_capacity() {
        // Total eligible weight 6 ≤ capacity 100: the optimum is all
        // positive-profit fitting items, no DP needed.
        let it = items(&[(5.0, 1), (0.5, 2), (-1.0, 1), (3.0, 3), (2.0, 200)]);
        let mut scratch = SolverScratch::new();
        let s = sin_knap_with(&it, 100, 0.3, &mut scratch);
        assert_eq!(s.chosen, vec![0, 1, 3]);
        assert!((s.profit - 8.5).abs() < 1e-9);
        // The fast path is exact, so it can only beat the FPTAS bound.
        let r = crate::reference::sin_knap(&it, 100, 0.3);
        assert!(s.profit >= r.profit - 1e-9);
    }

    #[test]
    fn scratch_solvers_match_reference_across_reuse() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let mut scratch = SolverScratch::new();
        for trial in 0..80 {
            let n = rng.random_range(1..=15);
            let it: Vec<Item> = (0..n)
                .map(|_| Item::new(rng.random_range(-5.0..50.0), rng.random_range(1..30u64)))
                .collect();
            let cap = rng.random_range(1..60);
            // Capacity DP: bit-identical regardless of path.
            assert_eq!(
                dp_by_capacity_with(&it, cap, &mut scratch),
                crate::reference::dp_by_capacity(&it, cap),
                "trial {trial}"
            );
            let s_new = sin_knap_with(&it, cap, 0.1, &mut scratch);
            let s_ref = crate::reference::sin_knap(&it, cap, 0.1);
            let eligible_w: u64 = it
                .iter()
                .filter(|x| x.profit > 0.0 && x.weight <= cap)
                .map(|x| x.weight)
                .sum();
            if eligible_w <= cap {
                // Fast path: exact optimum over eligible items — never
                // worse than the reference DP, and takes everything.
                let eligible_p: f64 = it
                    .iter()
                    .filter(|x| x.profit > 0.0 && x.weight <= cap)
                    .map(|x| x.profit)
                    .sum();
                assert!((s_new.profit - eligible_p).abs() < 1e-9, "trial {trial}");
                assert!(s_new.profit >= s_ref.profit - 1e-9, "trial {trial}");
            } else {
                // DP path: same tables, same traversal — bit-identical.
                assert_eq!(s_new, s_ref, "trial {trial}");
            }
        }
    }

    #[test]
    fn greedy_add_matches_reference_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..80 {
            let n = rng.random_range(1..=15usize);
            let it: Vec<Item> = (0..n)
                .map(|_| Item::new(rng.random_range(-5.0..50.0), rng.random_range(0..30u64)))
                .collect();
            let cap = rng.random_range(1..60);
            let seed: Vec<usize> = (0..n).filter(|_| rng.random_bool(0.3)).collect();
            let mut a = Solution::from_indices(&it, seed.clone());
            let mut b = Solution::from_indices(&it, seed);
            greedy_add(&it, cap, &mut a);
            crate::reference::greedy_add(&it, cap, &mut b);
            assert_eq!(a, b, "trial {trial}");
        }
    }

    #[test]
    fn solvers_agree_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..50 {
            let n = rng.random_range(1..=12);
            let it: Vec<Item> = (0..n)
                .map(|_| Item::new(rng.random_range(1.0..50.0), rng.random_range(1..30)))
                .collect();
            let cap = rng.random_range(1..80);
            let opt = brute_force(&it, cap);
            let dp = dp_by_capacity(&it, cap);
            let fptas = sin_knap(&it, cap, 0.1);
            let gr = greedy_half(&it, cap);
            assert!((dp.profit - opt.profit).abs() < 1e-9, "trial {trial}");
            assert!(fptas.profit >= 0.9 * opt.profit - 1e-9, "trial {trial}");
            assert!(gr.profit >= 0.5 * opt.profit - 1e-9, "trial {trial}");
            for s in [&dp, &fptas, &gr] {
                assert!(s.feasible(cap), "trial {trial}");
            }
        }
    }
}
