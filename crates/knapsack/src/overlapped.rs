//! The paper's Algorithm 1: multiple knapsack with *overlapped itemsets*.
//!
//! Every screen-off network activity lies between two adjacent user
//! active slots and may be scheduled into either — so adjacent knapsacks
//! share an itemset. Algorithm 1 resolves this by (1) *duplicating* each
//! item into both candidate slots, (2) *sorting* each slot's items by
//! profit-to-weight ratio, (3) solving each slot's single knapsack —
//! the paper runs the FPTAS (`SinKnap`); this implementation dispatches
//! through [`crate::solvers::solve_auto`], which answers exactly via
//! the slack fast path or branch-and-bound where that is cheaper and
//! falls back to the quantized FPTAS — (4) *filtering* items selected
//! twice, and
//! (5) greedily adding leftovers (`GreedyAdd`). Lemma IV.1 proves the
//! result is a `(1−ε)/2`-approximation; [`solve`] keeps that guarantee
//! (filtering retains the higher-profit copy, which preserves at least
//! half of each duplicated pair's contribution).

use crate::item::Item;
use crate::scratch::OvScratch;
use crate::solvers::solve_auto;
use netmaster_obs::{RejectReason, SolverArm};

/// A candidate placement of an item into a slot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Candidate {
    /// Target slot index.
    pub slot: usize,
    /// Profit `ΔE_j − ΔP_j` *if placed in this slot* (the penalty term
    /// depends on how far the activity moves, so profit is per-slot).
    pub profit: f64,
}

/// An item's candidate slots, stored inline: an activity can move only
/// into the active slot before it or the one after it, so there are at
/// most two. Reads as a `[Candidate]` slice; unused entries stay at
/// their default, so equal slices mean equal values.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Candidates {
    len: u8,
    buf: [Candidate; 2],
}

impl Candidates {
    /// The candidates present, in order: `left` first, then `right`.
    pub fn adjacent(left: Option<Candidate>, right: Option<Candidate>) -> Self {
        let mut out = Candidates::default();
        for c in [left, right].into_iter().flatten() {
            out.buf[out.len as usize] = c;
            out.len += 1;
        }
        out
    }
}

impl std::ops::Deref for Candidates {
    type Target = [Candidate];
    fn deref(&self) -> &[Candidate] {
        &self.buf[..self.len as usize]
    }
}

/// One schedulable item with its weight and candidate slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OvItem {
    /// Weight `V(n_j)` in capacity units (bytes).
    pub weight: u64,
    /// Candidate slots (typically the two adjacent user active slots;
    /// one for activities before the first / after the last slot).
    pub candidates: Candidates,
}

impl OvItem {
    /// Item with a single candidate slot.
    pub fn single(weight: u64, slot: usize, profit: f64) -> Self {
        OvItem {
            weight,
            candidates: Candidates::adjacent(Some(Candidate { slot, profit }), None),
        }
    }

    /// Item duplicated across two adjacent slots.
    pub fn pair(weight: u64, left: (usize, f64), right: (usize, f64)) -> Self {
        OvItem {
            weight,
            candidates: Candidates::adjacent(
                Some(Candidate {
                    slot: left.0,
                    profit: left.1,
                }),
                Some(Candidate {
                    slot: right.0,
                    profit: right.1,
                }),
            ),
        }
    }

    /// Best candidate profit, `-inf` when no candidates.
    pub fn best_profit(&self) -> f64 {
        self.candidates
            .iter()
            .map(|c| c.profit)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The overlapped multiple-knapsack problem instance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OvProblem {
    /// Capacity `C(t_i)` of each slot (Eq. 5).
    pub capacities: Vec<u64>,
    /// Items to place.
    pub items: Vec<OvItem>,
}

impl OvProblem {
    /// Validates slot indices.
    pub fn validate(&self) -> Result<(), String> {
        for (j, it) in self.items.iter().enumerate() {
            for c in it.candidates.iter() {
                if c.slot >= self.capacities.len() {
                    // lint:allow(hot-path-alloc) rejection path only: the format aborts the solve, so steady-state calls never reach it
                    return Err(format!(
                        "item {j} references slot {} of {}",
                        c.slot,
                        self.capacities.len()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A solution: where each item went (if anywhere).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OvSolution {
    /// `assignment[j] = Some(slot)` when item `j` is scheduled.
    pub assignment: Vec<Option<usize>>,
    /// Total profit of the assignment.
    pub profit: f64,
    /// Used capacity per slot.
    pub used: Vec<u64>,
    /// `solver[slot]` records which [`solve_auto`] arm answered that
    /// slot's single-knapsack instance (`None` when the slot saw no
    /// eligible item and no solve ran). Recorded for causal tracing;
    /// empty for solvers that predate the dispatcher
    /// ([`crate::reference`], brute force).
    pub solver: Vec<Option<SolverArm>>,
}

/// The causal explanation of one item's outcome, reconstructed
/// post-hoc from a solution (never touched by solver inner loops).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ItemWhy {
    /// The item's weight.
    pub weight: u64,
    /// The winning candidate, when scheduled.
    pub chosen: Option<Candidate>,
    /// The competing candidate the item did *not* go to.
    pub runner_up: Option<Candidate>,
    /// Which solver arm answered the winning slot.
    pub solver: Option<SolverArm>,
    /// Why the item was left out, when unscheduled.
    pub reject: Option<RejectReason>,
}

impl OvSolution {
    /// Explains item `j`'s outcome: where it went and against what
    /// competition, or why it was rejected. `problem` must be the
    /// instance this solution was produced from.
    pub fn why(&self, problem: &OvProblem, j: usize) -> ItemWhy {
        let item = &problem.items[j];
        let mut why = ItemWhy {
            weight: item.weight,
            ..ItemWhy::default()
        };
        match self.assignment.get(j).copied().flatten() {
            Some(slot) => {
                for c in item.candidates.iter() {
                    if c.slot == slot && why.chosen.is_none() {
                        why.chosen = Some(*c);
                    } else if why.runner_up.is_none_or(|r| c.profit > r.profit) {
                        why.runner_up = Some(*c);
                    }
                }
                why.solver = self.solver.get(slot).copied().flatten();
            }
            None => {
                why.reject = Some(if item.candidates.is_empty() {
                    RejectReason::NoCandidate
                } else if !item.candidates.iter().any(|c| c.profit > 0.0) {
                    RejectReason::NoPositiveProfit
                } else {
                    RejectReason::CapacityFull
                });
            }
        }
        why
    }
    /// Checks feasibility against the problem.
    pub fn feasible(&self, problem: &OvProblem) -> bool {
        if self.used.len() != problem.capacities.len() {
            return false;
        }
        for (slot, &u) in self.used.iter().enumerate() {
            if u > problem.capacities[slot] {
                return false;
            }
        }
        // Each assignment must be one of the item's candidates.
        for (j, a) in self.assignment.iter().enumerate() {
            if let Some(slot) = a {
                if !problem.items[j].candidates.iter().any(|c| c.slot == *slot) {
                    return false;
                }
            }
        }
        true
    }

    /// Number of scheduled items.
    pub fn scheduled_count(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }
}

/// Solves the overlapped multiple-knapsack problem with Algorithm 1.
///
/// Guarantees profit ≥ `(1 − eps)/2 · OPT` for instances with
/// non-negative candidate profits (Lemma IV.1).
///
/// Allocates a fresh workspace; hot paths should hold an [`OvScratch`]
/// and call [`solve_with`].
pub fn solve(problem: &OvProblem, eps: f64) -> OvSolution {
    solve_with(problem, eps, &mut OvScratch::new())
}

/// [`solve`] reusing a caller-owned workspace: per-slot candidate
/// lists, the per-slot item buffer, and the inner solver tables
/// all live in `scratch` and are reused across calls, so a policy
/// planning thousands of days performs no per-solve table allocations.
/// The `GreedyAdd` step runs directly over the already-ratio-sorted
/// slot lists instead of re-sorting through
/// [`crate::reference::greedy_add`].
// lint:hot-path
pub fn solve_with(problem: &OvProblem, eps: f64, scratch: &mut OvScratch) -> OvSolution {
    solve_steps::<false>(problem, eps, scratch)
}

/// Algorithm 1's five steps. With `ALWAYS_SOLVE` step 2 ratio-sorts
/// every slot's list and step 3 hands every list to [`solve_auto`], not
/// only the lists that bind; the tests use it as the reference that
/// shows answering the fitting slots directly changes no answer.
fn solve_steps<const ALWAYS_SOLVE: bool>(
    problem: &OvProblem,
    eps: f64,
    scratch: &mut OvScratch,
) -> OvSolution {
    debug_assert_eq!(problem.validate(), Ok(()));
    let nslots = problem.capacities.len();
    let nitems = problem.items.len();
    scratch.begin(nslots, nitems);
    let OvScratch {
        knap,
        slot_items,
        slot_weight,
        items_buf,
        chosen_slots,
        problem: _,
    } = scratch;
    let slot_items = &mut slot_items[..nslots];

    // --- Step 1: duplication — build each slot's (item, profit) list.
    // Candidates no solver can ever accept (non-positive profit, or
    // heavier than the whole slot) are dropped here once instead of
    // being re-filtered inside every per-slot solve and GreedyAdd scan.
    // They cannot appear in any solution, so the result is unchanged;
    // `why` reads rejection reasons off the problem, not these lists.
    // The filter is `solve_auto`'s eligibility rule, so each slot's
    // summed weight is the total `solve_auto` tests for its fast path.
    for (j, it) in problem.items.iter().enumerate() {
        for c in it.candidates.iter() {
            if c.profit > 0.0 && it.weight <= problem.capacities[c.slot] {
                slot_items[c.slot].push((j, c.profit, 0.0));
                slot_weight[c.slot] += it.weight as u128;
            }
        }
    }

    // --- Steps 2+3: per-slot ratio sort, then the solver dispatcher
    // (slack fast path → exact branch-and-bound → quantized FPTAS).
    // lint:allow(hot-path-alloc) OvSolution::solver is the caller-owned result value, not reusable scratch
    let mut solver: Vec<Option<SolverArm>> = vec![None; nslots];
    for (slot, list) in slot_items.iter_mut().enumerate() {
        if list.is_empty() {
            continue;
        }
        let capacity = problem.capacities[slot];
        // A slot whose whole list fits is answered here: the list is
        // exactly the eligible set `solve_auto` would build, so its fast
        // path would take every item, with its chosen indices in list
        // order. Step 4 then assigns each of them somewhere, and
        // GreedyAdd has nothing left to scan in the slot, so the list
        // needs no sort either.
        if !ALWAYS_SOLVE && slot_weight[slot] <= capacity as u128 {
            netmaster_obs::counter!(netmaster_obs::names::KNAPSACK_FASTPATH_TOTAL);
            solver[slot] = Some(SolverArm::Fastpath);
            for &(j, ..) in list.iter() {
                chosen_slots[j].push(slot);
            }
            #[cfg(feature = "strict-invariants")]
            {
                items_buf.clear();
                items_buf.extend(
                    list.iter()
                        .map(|&(j, p, _)| Item::new(p, problem.items[j].weight)),
                );
                let all = crate::item::Solution::from_indices(items_buf, (0..list.len()).collect());
                crate::solvers::assert_solution_invariants(
                    capacity,
                    crate::solvers::greedy_half(items_buf, capacity).profit,
                    &all,
                    "overlapped fast path",
                );
            }
            continue;
        }
        // Sorting step (paper's step 2); the solvers are order-free,
        // but the canonical order makes reconstruction deterministic.
        if ALWAYS_SOLVE {
            list.sort_by(|a, b| {
                let ra = a.1 / problem.items[a.0].weight.max(1) as f64;
                let rb = b.1 / problem.items[b.0].weight.max(1) as f64;
                rb.total_cmp(&ra)
            });
        } else {
            // Each entry's ratio is computed once, with the same
            // expression the `ALWAYS_SOLVE` comparator evaluates, so the
            // stable sort puts the list in the same order.
            for e in list.iter_mut() {
                e.2 = e.1 / problem.items[e.0].weight.max(1) as f64;
            }
            list.sort_by(|a, b| b.2.total_cmp(&a.2));
        }
        items_buf.clear();
        items_buf.extend(
            list.iter()
                .map(|&(j, p, _)| Item::new(p, problem.items[j].weight)),
        );
        let sol = solve_auto(items_buf, capacity, eps, knap);
        solver[slot] = knap.last_solver();
        for &k in &sol.chosen {
            chosen_slots[list[k].0].push(slot);
        }
    }

    // --- Step 4: filtering — items chosen in two slots keep one copy.
    // Keep the higher-profit copy (preserves the (1−ε)/2 bound); on a
    // profit tie use the paper's rule, the slot with smaller residual
    // C(t_i) − V(n_j), leaving the roomier slot free for GreedyAdd.
    // lint:allow(hot-path-alloc) OvSolution::assignment is the caller-owned result value, not reusable scratch
    let mut assignment: Vec<Option<usize>> = vec![None; nitems];
    // lint:allow(hot-path-alloc) OvSolution::used is the caller-owned result value, not reusable scratch
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
        let slots = slots.as_slice();
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
                    // Tie: smaller residual capacity wins (paper's rule).
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
    // The slot lists are already in profit-to-weight order from step 2
    // (or hold only items step 4 assigned) and hold only positive-profit,
    // slot-feasible candidates from step 1, so the greedy fill is a
    // single scan: no candidate-list rebuild, no re-sort, no temporary
    // `Solution`. Zero-weight items sort differently under `Item::ratio`
    // (∞) than under the slot key (p/max(w,1)), but they consume no
    // capacity, so the set of items accepted is identical to running
    // `reference::greedy_add` on the rebuilt candidate list, as the
    // original implementation did (see `crate::reference::solve`).
    for slot in 0..nslots {
        let cap = problem.capacities[slot];
        if used[slot] >= cap {
            continue;
        }
        for &(j, ..) in slot_items[slot].iter() {
            if assignment[j].is_some() {
                continue;
            }
            let w = problem.items[j].weight;
            if used[slot] + w <= cap {
                assignment[j] = Some(slot);
                used[slot] += w;
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
    let out = OvSolution {
        assignment,
        profit,
        used,
        solver,
    };
    #[cfg(feature = "strict-invariants")]
    {
        assert!(
            out.feasible(problem),
            "strict-invariants: overlapped solve produced an infeasible assignment"
        );
        // Lemma IV.1 against its certificate. The Dantzig bound can
        // exceed a slot's optimum by most of one item, so a correct
        // solve can miss it; the lemma's proof bounds the profit by half
        // the per-slot optima, so a miss is rechecked against those.
        let eps = eps.clamp(1e-6, 0.999);
        let floor = |bound: f64| (1.0 - eps) / 2.0 * bound - 1e-9 * bound.max(1.0);
        if out.profit < floor(upper_bound(problem)) {
            let exact = slot_sum_bound(problem, |list, capacity| {
                let search = crate::bnb::branch_and_bound_budgeted(
                    list,
                    capacity,
                    1 << 20,
                    &mut crate::scratch::BnbScratch::new(),
                );
                search.map_or_else(|| dantzig_of(list, capacity), |s| s.profit)
            });
            assert!(
                out.profit >= floor(exact),
                "strict-invariants: overlapped profit {} below (1-ε)/2 of the optimum's bound {exact}",
                out.profit
            );
        }
    }
    out
}

/// An upper bound on the optimum of `problem`, the certificate that
/// Lemma IV.1's `(1 − ε)/2` guarantee is checked against. It is the
/// smaller of two bounds, each over the eligible candidates only
/// (positive profit, no heavier than the slot, as in step 1):
/// * the sum over slots of the Dantzig bound on the slot's candidates,
///   since the optimum's items in one slot are a feasible single
///   knapsack there;
/// * the sum over items of each item's best candidate profit, since
///   the optimum places each item at most once.
pub fn upper_bound(problem: &OvProblem) -> f64 {
    slot_sum_bound(problem, dantzig_of)
}

/// The smaller of the sum of `slot_bound` over each slot's eligible
/// candidates and the sum of each item's best eligible profit.
fn slot_sum_bound(problem: &OvProblem, slot_bound: impl Fn(&[Item], u64) -> f64) -> f64 {
    let mut slots: Vec<Vec<Item>> = vec![Vec::new(); problem.capacities.len()];
    let mut best_profits = 0.0;
    for it in &problem.items {
        let mut best = 0.0f64;
        for c in it.candidates.iter() {
            if c.profit > 0.0 && it.weight <= problem.capacities[c.slot] {
                slots[c.slot].push(Item::new(c.profit, it.weight));
                best = best.max(c.profit);
            }
        }
        best_profits += best;
    }
    let per_slot: f64 = slots
        .iter()
        .zip(&problem.capacities)
        .map(|(list, &capacity)| slot_bound(list, capacity))
        .sum();
    per_slot.min(best_profits)
}

/// The Dantzig bound of one slot's candidates.
fn dantzig_of(list: &[Item], capacity: u64) -> f64 {
    let mut sorted = list.to_vec();
    sorted.sort_by(|a, b| b.ratio().total_cmp(&a.ratio()));
    let (weight, profit): (Vec<u64>, Vec<f64>) =
        sorted.iter().map(|it| (it.weight, it.profit)).unzip();
    crate::bnb::dantzig(&weight, &profit, capacity, 0.0)
}

/// Exact solver by exhaustive assignment enumeration, for instances of
/// at most 12 items. Oracle for the approximation-ratio tests.
pub fn brute_force(problem: &OvProblem) -> OvSolution {
    let n = problem.items.len();
    assert!(n <= 12, "brute force limited to 12 items");
    let nslots = problem.capacities.len();
    let mut best = OvSolution {
        assignment: vec![None; n],
        profit: 0.0,
        used: vec![0; nslots],
        solver: Vec::new(),
    };
    // Each item has candidates.len()+1 options (including "skip").
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    fn rec(
        j: usize,
        problem: &OvProblem,
        assignment: &mut Vec<Option<usize>>,
        used: &mut Vec<u64>,
        profit: f64,
        best: &mut OvSolution,
    ) {
        if j == problem.items.len() {
            if profit > best.profit {
                best.profit = profit;
                best.assignment = assignment.clone();
                best.used = used.clone();
            }
            return;
        }
        // Skip.
        rec(j + 1, problem, assignment, used, profit, best);
        // Each candidate.
        let cands = problem.items[j].candidates;
        for &c in cands.iter() {
            if used[c.slot] + problem.items[j].weight <= problem.capacities[c.slot] {
                used[c.slot] += problem.items[j].weight;
                assignment[j] = Some(c.slot);
                rec(j + 1, problem, assignment, used, profit + c.profit, best);
                assignment[j] = None;
                used[c.slot] -= problem.items[j].weight;
            }
        }
    }
    let mut used = vec![0u64; nslots];
    rec(0, problem, &mut assignment, &mut used, 0.0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slot_reduces_to_single_knapsack() {
        let p = OvProblem {
            capacities: vec![50],
            items: vec![
                OvItem::single(10, 0, 60.0),
                OvItem::single(20, 0, 100.0),
                OvItem::single(30, 0, 120.0),
            ],
        };
        let s = solve(&p, 0.01);
        assert!(s.feasible(&p));
        assert!((s.profit - 220.0).abs() < 1e-6);
        assert_eq!(s.scheduled_count(), 2);
    }

    #[test]
    fn duplicated_item_lands_in_exactly_one_slot() {
        let p = OvProblem {
            capacities: vec![10, 10],
            items: vec![OvItem::pair(10, (0, 5.0), (1, 5.0))],
        };
        let s = solve(&p, 0.1);
        assert!(s.feasible(&p));
        assert_eq!(s.scheduled_count(), 1);
        assert!((s.profit - 5.0).abs() < 1e-9);
        // Exactly one slot used.
        assert_eq!(s.used.iter().filter(|&&u| u > 0).count(), 1);
    }

    #[test]
    fn filtering_prefers_higher_profit_slot() {
        let p = OvProblem {
            capacities: vec![10, 10],
            items: vec![OvItem::pair(10, (0, 3.0), (1, 8.0))],
        };
        let s = solve(&p, 0.05);
        assert_eq!(s.assignment[0], Some(1));
        assert!((s.profit - 8.0).abs() < 1e-9);
    }

    #[test]
    fn tie_breaks_to_tighter_slot() {
        // Equal profits, slot 1 has less residual after placing.
        let p = OvProblem {
            capacities: vec![100, 12],
            items: vec![OvItem::pair(10, (0, 5.0), (1, 5.0))],
        };
        let s = solve(&p, 0.05);
        assert_eq!(s.assignment[0], Some(1), "tighter slot keeps the item");
    }

    #[test]
    fn greedy_add_rescues_filtered_items() {
        // Two identical items, both duplicated across two slots each of
        // which only fits one: filtering would put both in one slot and
        // drop one; GreedyAdd must place the loser in the other slot.
        let p = OvProblem {
            capacities: vec![10, 10],
            items: vec![
                OvItem::pair(10, (0, 5.0), (1, 5.0)),
                OvItem::pair(10, (0, 5.0), (1, 5.0)),
            ],
        };
        let s = solve(&p, 0.05);
        assert!(s.feasible(&p));
        assert_eq!(s.scheduled_count(), 2, "both items must be placed");
        assert!((s.profit - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_binds() {
        let p = OvProblem {
            capacities: vec![15],
            items: vec![
                OvItem::single(10, 0, 10.0),
                OvItem::single(10, 0, 9.0),
                OvItem::single(5, 0, 3.0),
            ],
        };
        let s = solve(&p, 0.01);
        assert!(s.feasible(&p));
        // Best feasible: item0 + item2 = 13 profit, weight 15.
        assert!((s.profit - 13.0).abs() < 1e-6);
    }

    #[test]
    fn empty_problem() {
        let s = solve(&OvProblem::default(), 0.1);
        assert_eq!(s.profit, 0.0);
        assert_eq!(s.scheduled_count(), 0);
    }

    #[test]
    fn negative_profit_items_are_skipped() {
        let p = OvProblem {
            capacities: vec![100],
            items: vec![OvItem::single(10, 0, -5.0), OvItem::single(10, 0, 7.0)],
        };
        let s = solve(&p, 0.1);
        assert_eq!(s.assignment[0], None);
        assert_eq!(s.assignment[1], Some(0));
    }

    #[test]
    fn approximation_bound_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2014);
        let eps = 0.1;
        for trial in 0..60 {
            let nslots = rng.random_range(1..4usize);
            let nitems = rng.random_range(1..9usize);
            let capacities: Vec<u64> = (0..nslots).map(|_| rng.random_range(5..40)).collect();
            let items: Vec<OvItem> = (0..nitems)
                .map(|_| {
                    let w = rng.random_range(1..20);
                    let a = rng.random_range(0..nslots);
                    let p1 = rng.random_range(0.5..20.0);
                    if nslots > 1 && rng.random_bool(0.7) {
                        let b = (a + 1) % nslots;
                        let p2 = rng.random_range(0.5..20.0);
                        OvItem::pair(w, (a, p1), (b, p2))
                    } else {
                        OvItem::single(w, a, p1)
                    }
                })
                .collect();
            let p = OvProblem { capacities, items };
            let approx = solve(&p, eps);
            let opt = brute_force(&p);
            assert!(approx.feasible(&p), "trial {trial}");
            assert!(
                approx.profit >= (1.0 - eps) / 2.0 * opt.profit - 1e-9,
                "trial {trial}: {} < (1-ε)/2 · {}",
                approx.profit,
                opt.profit
            );
        }
    }

    #[test]
    fn why_explains_assignments_and_rejections() {
        let p = OvProblem {
            capacities: vec![10, 10],
            items: vec![
                // Scheduled: slot 1 wins on profit, slot 0 is runner-up.
                OvItem::pair(4, (0, 3.0), (1, 8.0)),
                // Rejected: no positive profit anywhere.
                OvItem::pair(2, (0, -1.0), (1, 0.0)),
                // Rejected: no candidate at all.
                OvItem {
                    weight: 5,
                    candidates: Candidates::default(),
                },
                // Rejected: profitable but too big for any slot's room.
                OvItem::single(100, 0, 9.0),
            ],
        };
        let s = solve(&p, 0.05);
        let w0 = s.why(&p, 0);
        assert_eq!(s.assignment[0], Some(1));
        assert_eq!(
            w0.chosen,
            Some(Candidate {
                slot: 1,
                profit: 8.0
            })
        );
        assert_eq!(
            w0.runner_up,
            Some(Candidate {
                slot: 0,
                profit: 3.0
            })
        );
        assert_eq!(w0.weight, 4);
        assert_eq!(
            w0.solver,
            Some(SolverArm::Fastpath),
            "4 ≤ 10: slack fast path must answer"
        );
        assert_eq!(w0.reject, None);

        assert_eq!(s.why(&p, 1).reject, Some(RejectReason::NoPositiveProfit));
        assert_eq!(s.why(&p, 2).reject, Some(RejectReason::NoCandidate));
        assert_eq!(s.why(&p, 3).reject, Some(RejectReason::CapacityFull));
        for j in 1..4 {
            assert_eq!(s.why(&p, j).chosen, None);
        }
    }

    #[test]
    fn solver_tags_match_dispatcher_behaviour() {
        // Slot 0 overflows with two items (exact branch-and-bound),
        // slot 1 has slack (fast path), slot 2 sees no items (no solve
        // at all), slot 3 overflows with more eligible items than the
        // dispatcher will hand to exact search (quantized DP).
        let mut items = vec![
            OvItem::single(8, 0, 5.0),
            OvItem::single(8, 0, 4.0),
            OvItem::single(8, 1, 3.0),
        ];
        for i in 0..41 {
            items.push(OvItem::single(8, 3, 1.0 + i as f64 * 0.1));
        }
        let p = OvProblem {
            capacities: vec![10, 100, 50, 40],
            items,
        };
        let s = solve(&p, 0.05);
        assert_eq!(
            s.solver,
            vec![
                Some(SolverArm::Bnb),
                Some(SolverArm::Fastpath),
                None,
                Some(SolverArm::Dp),
            ]
        );
        assert_eq!(s.why(&p, 2).solver, Some(SolverArm::Fastpath));
        assert_eq!(s.why(&p, 0).solver, Some(SolverArm::Bnb));
    }

    #[test]
    fn validation_catches_bad_slot_index() {
        let p = OvProblem {
            capacities: vec![10],
            items: vec![OvItem::single(1, 3, 1.0)],
        };
        assert!(p.validate().is_err());
    }

    fn random_problem(rng: &mut rand::rngs::StdRng, max_slots: usize) -> OvProblem {
        use rand::Rng;
        let nslots = rng.random_range(1..=max_slots);
        let nitems = rng.random_range(1..9usize);
        let capacities: Vec<u64> = (0..nslots).map(|_| rng.random_range(5..40)).collect();
        let items: Vec<OvItem> = (0..nitems)
            .map(|_| {
                let w = rng.random_range(1..20);
                let a = rng.random_range(0..nslots);
                let p1 = rng.random_range(0.5..20.0);
                if nslots > 1 && rng.random_bool(0.7) {
                    let b = (a + 1) % nslots;
                    let p2 = rng.random_range(0.5..20.0);
                    OvItem::pair(w, (a, p1), (b, p2))
                } else {
                    OvItem::single(w, a, p1)
                }
            })
            .collect();
        OvProblem { capacities, items }
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        let mut scratch = OvScratch::new();
        for trial in 0..40 {
            let p = random_problem(&mut rng, 4);
            // Same instance through a dirty scratch must be bit-identical
            // to a fresh solve — nothing may leak between calls.
            let warm = solve_with(&p, 0.1, &mut scratch);
            let again = solve_with(&p, 0.1, &mut scratch);
            let fresh = solve(&p, 0.1);
            assert_eq!(warm, again, "trial {trial}");
            assert_eq!(warm, fresh, "trial {trial}");
        }
    }

    /// The arm [`solve_auto`] picks for `slot`'s eligible list: none
    /// for an empty list, the fast path when the list fits.
    fn expected_fast_path(p: &OvProblem, slot: usize) -> Option<bool> {
        let cap = p.capacities[slot];
        let weights = p.items.iter().filter(|it| {
            it.weight <= cap
                && it
                    .candidates
                    .iter()
                    .any(|c| c.slot == slot && c.profit > 0.0)
        });
        let (n, total) = weights.fold((0, 0u128), |(n, w), it| (n + 1, w + it.weight as u128));
        (n > 0).then_some(total <= cap as u128)
    }

    fn fastpath_total() -> u64 {
        netmaster_obs::snapshot().counter(netmaster_obs::names::KNAPSACK_FASTPATH_TOTAL)
    }

    #[test]
    fn skipping_the_sort_for_slots_that_fit_is_an_identity() {
        // Random instances where some slots fit their whole list and
        // others bind, through one warm scratch per arm: answering the
        // fitting slots in step 1 must return exactly what sorting every
        // slot's list and solving it returns, solver arms included.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2323);
        let (mut skip, mut always) = (OvScratch::new(), OvScratch::new());
        let mut arms = [0usize; 3];
        for trial in 0..400 {
            let nslots = rng.random_range(1..7usize);
            let capacities: Vec<u64> = (0..nslots)
                .map(|_| {
                    if rng.random_bool(0.5) {
                        rng.random_range(5..60)
                    } else {
                        rng.random_range(400..2_000)
                    }
                })
                .collect();
            let nitems = rng.random_range(1..120usize);
            let items: Vec<OvItem> = (0..nitems)
                .map(|_| {
                    // Zero weights, repeated ratios and non-positive
                    // profits exercise the key's ties and the filter.
                    let w = rng.random_range(0..40);
                    let mut profit = || match rng.random_range(0..8) {
                        0 => -1.0,
                        1 => 2.0,
                        _ => rng.random_range(0.5..20.0),
                    };
                    let (p1, p2) = (profit(), profit());
                    let a = rng.random_range(0..nslots);
                    if nslots > 1 && rng.random_bool(0.7) {
                        OvItem::pair(w, (a, p1), ((a + 1) % nslots, p2))
                    } else {
                        OvItem::single(w, a, p1)
                    }
                })
                .collect();
            let p = OvProblem { capacities, items };
            let eps = [0.05, 0.1, 0.3][trial % 3];
            let ticks = fastpath_total();
            let fast = solve_with(&p, eps, &mut skip);
            let ticks = fastpath_total() - ticks;
            let sorted = solve_steps::<true>(&p, eps, &mut always);
            assert_eq!(
                fast.profit.to_bits(),
                sorted.profit.to_bits(),
                "trial {trial}"
            );
            assert_eq!(fast, sorted, "trial {trial}");
            let mut fitting = 0u64;
            for (slot, kind) in fast.solver.iter().enumerate() {
                match expected_fast_path(&p, slot) {
                    None => assert_eq!(*kind, None, "trial {trial}, slot {slot}"),
                    Some(true) => {
                        assert_eq!(
                            *kind,
                            Some(SolverArm::Fastpath),
                            "trial {trial}, slot {slot}"
                        );
                        fitting += 1;
                    }
                    Some(false) => assert!(
                        matches!(kind, Some(SolverArm::Bnb | SolverArm::Dp)),
                        "trial {trial}, slot {slot}: {kind:?}"
                    ),
                }
                if let Some(kind) = kind {
                    arms[*kind as usize] += 1;
                }
            }
            // Other tests in this binary solve concurrently and share
            // the process-wide registry, so this is a floor; the exact
            // count is pinned by `tests/fastpath_counter.rs`.
            assert!(ticks >= fitting, "trial {trial}: {ticks} < {fitting}");
        }
        // Every arm answered some slot, so fitting and binding slots
        // were both exercised.
        assert!(arms.iter().all(|&n| n > 20), "solver arms {arms:?}");
    }

    #[test]
    fn scratch_solver_keeps_reference_quality() {
        // The optimized solver may diverge from the reference on
        // multi-slot instances (the exact fast path can pick
        // zero-scaled-profit items the reference DP drops, shifting
        // filter/GreedyAdd choices either way), but it must stay
        // feasible and keep the Lemma IV.1 bound.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = OvScratch::new();
        let eps = 0.1;
        for trial in 0..60 {
            let p = random_problem(&mut rng, 3);
            let s = solve_with(&p, eps, &mut scratch);
            let opt = brute_force(&p);
            assert!(s.feasible(&p), "trial {trial}");
            assert!(
                s.profit >= (1.0 - eps) / 2.0 * opt.profit - 1e-9,
                "trial {trial}: {} < (1-ε)/2 · {}",
                s.profit,
                opt.profit
            );
        }
    }

    #[test]
    fn single_slot_profit_matches_reference() {
        // With one slot there is no duplication: filtering and
        // GreedyAdd see the same per-item profits in both versions, so
        // total profit must match the reference exactly.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        let mut scratch = OvScratch::new();
        for trial in 0..60 {
            let p = random_problem(&mut rng, 1);
            let s = solve_with(&p, 0.1, &mut scratch);
            let r = crate::reference::solve(&p, 0.1);
            assert!(
                (s.profit - r.profit).abs() < 1e-9 || s.profit > r.profit,
                "trial {trial}: optimized {} vs reference {}",
                s.profit,
                r.profit
            );
            assert!(s.feasible(&p), "trial {trial}");
        }
    }

    #[test]
    fn upper_bound_is_at_least_the_optimum() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(412);
        for trial in 0..400 {
            let nslots = rng.random_range(1..=4usize);
            let capacities: Vec<u64> = (0..nslots).map(|_| rng.random_range(0..50)).collect();
            let nitems = rng.random_range(0..=12usize);
            let items: Vec<OvItem> = (0..nitems)
                .map(|_| {
                    // Zero weights and non-positive profits included.
                    let w = rng.random_range(0..30);
                    let mut profit = || match rng.random_range(0..6) {
                        0 => -2.0,
                        1 => 0.0,
                        _ => rng.random_range(0.1..20.0),
                    };
                    let (p1, p2) = (profit(), profit());
                    let a = rng.random_range(0..nslots);
                    if nslots > 1 && rng.random_bool(0.7) {
                        OvItem::pair(w, (a, p1), ((a + 1) % nslots, p2))
                    } else {
                        OvItem::single(w, a, p1)
                    }
                })
                .collect();
            let p = OvProblem { capacities, items };
            let opt = brute_force(&p).profit;
            let bound = upper_bound(&p);
            assert!(
                bound >= opt - 1e-9,
                "trial {trial}: bound {bound} < optimum {opt}"
            );
            assert!(solve(&p, 0.1).profit <= bound + 1e-9, "trial {trial}");
        }
    }

    #[test]
    fn certificate_can_miss_where_the_lemma_holds() {
        // Slot 1 holds one of three items; its Dantzig bound adds most
        // of a second. Both slots pick the middle item, filtering keeps
        // its slot-1 copy, and nothing else fits where it is eligible:
        // 16.48 against an optimum of 22.05 (0.75 of it, well inside
        // the lemma) but under 0.45 of the 36.7 certificate. The strict
        // check must fall back to the per-slot optima and pass.
        let p = OvProblem {
            capacities: vec![32, 40],
            items: vec![
                OvItem::single(20, 1, 15.357),
                OvItem::pair(24, (0, 6.616), (1, 16.483)),
                OvItem::single(21, 1, 15.434),
            ],
        };
        let s = solve(&p, 0.1);
        let opt = brute_force(&p).profit;
        assert!((s.profit - 16.483).abs() < 1e-9);
        assert!((opt - 22.05).abs() < 1e-9);
        assert!(s.profit < 0.45 * upper_bound(&p));
        assert!(s.profit >= 0.45 * opt);
    }

    #[test]
    fn brute_force_is_optimal_on_known_instance() {
        let p = OvProblem {
            capacities: vec![10, 10],
            items: vec![
                OvItem::pair(6, (0, 6.0), (1, 4.0)),
                OvItem::pair(6, (0, 5.0), (1, 5.0)),
                OvItem::single(4, 0, 3.0),
            ],
        };
        let s = brute_force(&p);
        // item0→0 (6), item1→1 (5), item2→0 (3) = 14, weights 10/6 ok.
        assert!((s.profit - 14.0).abs() < 1e-9);
        assert!(s.feasible(&p));
    }
}
