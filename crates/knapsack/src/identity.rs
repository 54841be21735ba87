//! Identity tests for the two binding-slot solvers: test-only copies of
//! the branch-and-bound that pushed and popped every child through
//! `items[order[d]]`, and of the quantized DP that kept its frontier as
//! arena indices, against [`branch_and_bound_budgeted`] and
//! [`quantized_dp`]. Every answer (chosen indices and profit bits), the
//! budget-exhaustion `None`, the node count at which it falls and the
//! DP's arena length must match.

use crate::bnb::{branch_and_bound, branch_and_bound_budgeted};
use crate::item::{Item, Solution};
use crate::scratch::{BnbScratch, SolverScratch};
use crate::solvers::{quantized_dp, quantized_dp_within, sin_knap_with};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the reference search saw: its answer, the nodes it visited
/// (the budget plus one when it ran out), and for each visited node
/// whether it was the only child of a node whose item did not fit.
struct BnbRun {
    answer: Option<Solution>,
    nodes: usize,
    lone: Vec<bool>,
}

/// The branch-and-bound before frames were walked in place, with its
/// own buffers and a log of lone children; the search is unchanged.
fn reference_bnb(items: &[Item], capacity: u64, node_budget: usize) -> BnbRun {
    #[derive(Clone, Copy)]
    struct Frame {
        depth: u32,
        parent_len: u32,
        take: bool,
        used: u64,
        profit: f64,
        lone: bool,
    }
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
    let mut order: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].profit > 0.0 && items[i].weight <= capacity)
        .collect();
    order.sort_by(|&a, &b| items[b].ratio().total_cmp(&items[a].ratio()));
    let mut run = BnbRun {
        answer: Some(Solution::default()),
        nodes: 0,
        lone: Vec::new(),
    };
    if order.is_empty() {
        return run;
    }
    let n = order.len();
    let (mut stack, mut current, mut best) = (Vec::new(), Vec::new(), Vec::new());
    let mut best_profit = 0.0f64;
    stack.push(Frame {
        depth: 0,
        parent_len: 0,
        take: false,
        used: 0,
        profit: 0.0,
        lone: false,
    });
    while let Some(f) = stack.pop() {
        run.nodes += 1;
        run.lone.push(f.lone);
        if run.nodes > node_budget {
            run.answer = None;
            return run;
        }
        current.truncate(f.parent_len as usize);
        if f.take {
            current.push(order[f.depth as usize - 1]);
        }
        if f.profit > best_profit {
            best_profit = f.profit;
            best.clear();
            best.extend_from_slice(&current);
        }
        let depth = f.depth as usize;
        if depth == n {
            continue;
        }
        if bound(items, &order, depth, capacity - f.used, f.profit) <= best_profit + 1e-12 {
            continue;
        }
        let it = items[order[depth]];
        let len = current.len() as u32;
        let fits = f.used + it.weight <= capacity;
        stack.push(Frame {
            depth: f.depth + 1,
            parent_len: len,
            take: false,
            used: f.used,
            profit: f.profit,
            lone: !fits,
        });
        if fits {
            stack.push(Frame {
                depth: f.depth + 1,
                parent_len: len,
                take: true,
                used: f.used + it.weight,
                profit: f.profit + it.profit,
                lone: false,
            });
        }
    }
    run.answer = Some(Solution::from_indices(items, best));
    run
}

/// The quantized DP before its frontier went inline: arena states of
/// `(w, q, item, parent)`, a frontier of arena indices in ascending `q`,
/// and a take side that skips heavy states one by one. Returns the
/// answer and the arena length; the fallback is the same dense table.
fn reference_qdp(
    items: &[Item],
    capacity: u64,
    eps: f64,
    arena_budget: usize,
    scratch: &mut SolverScratch,
) -> (Solution, usize) {
    #[derive(Clone, Copy)]
    struct QState {
        w: u64,
        q: u64,
        item: u32,
        parent: u32,
    }
    let eps = eps.clamp(1e-6, 0.999);
    const NO_PARENT: u32 = u32::MAX;
    let eligible: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].profit > 0.0 && items[i].weight <= capacity)
        .collect();
    if eligible.is_empty() {
        return (Solution::default(), 0);
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
    let mut arena = vec![QState {
        w: 0,
        q: 0,
        item: u32::MAX,
        parent: NO_PARENT,
    }];
    let mut frontier: Vec<u32> = vec![0];
    let mut merged: Vec<u32> = Vec::new();
    let mut overflow = false;
    for j in 0..n {
        let (pj, wj) = (scaled[j], items[eligible[j]].weight);
        if pj == 0 {
            continue;
        }
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
                        tw < ow
                    }
                }
            };
            if pick_take {
                let (q, w, parent) = take.expect("picked side is present");
                t -= 1;
                if w < best_w {
                    if arena.len() >= arena_budget {
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
    if overflow {
        return (sin_knap_with(items, capacity, eps, scratch), arena.len());
    }
    let mut chosen = Vec::new();
    let mut cur = *frontier.last().expect("the root is always on the frontier");
    while cur != NO_PARENT {
        let s = arena[cur as usize];
        if s.item != u32::MAX {
            chosen.push(eligible[s.item as usize]);
        }
        cur = s.parent;
    }
    (Solution::from_indices(items, chosen), arena.len())
}

/// Asserts two answers are the same bits: chosen indices, weight and
/// profit (compared as bits, so `-0.0` and NaN cannot hide a change).
fn assert_same(new: &Option<Solution>, old: &Option<Solution>, what: &str) {
    assert_eq!(new, old, "{what}");
    assert_eq!(
        new.as_ref().map(|s| s.profit.to_bits()),
        old.as_ref().map(|s| s.profit.to_bits()),
        "{what}: profit bits"
    );
}

/// The instance families the two solvers are pinned on. Capacities sit
/// between a tenth and nine tenths of the total weight, so most slots
/// bind.
fn instance(rng: &mut StdRng, family: usize, n: usize) -> (Vec<Item>, u64) {
    let items: Vec<Item> = match family {
        // Planner-shaped: runs of identical items (one pool's demands),
        // byte weights, profits of a few joules.
        0 => {
            let mut v = Vec::with_capacity(n);
            while v.len() < n {
                let copies = rng.random_range(1..=6usize).min(n - v.len());
                let item = Item::new(rng.random_range(0.5..12.0), rng.random_range(256..50_000));
                v.extend(std::iter::repeat_n(item, copies));
            }
            v
        }
        // Equal ratios at mixed weights: every bound ties the optimum
        // along whole spines.
        1 => {
            let ratio = [1.0, 0.5, 3.0][rng.random_range(0..3usize)];
            (0..n)
                .map(|_| {
                    let w = rng.random_range(1..40u64);
                    Item::new(ratio * w as f64, w)
                })
                .collect()
        }
        // Ratios apart by a hair above the prune tolerance.
        2 => (0..n)
            .map(|i| Item::new(10.0 + i as f64 * 1e-9, 10))
            .collect(),
        // Zero-weight items, worthless and negative profits mixed in.
        3 => (0..n)
            .map(|_| {
                let w = if rng.random_bool(0.3) {
                    0
                } else {
                    rng.random_range(1..60u64)
                };
                let p = match rng.random_range(0..6) {
                    0 => -1.0,
                    1 => 0.0,
                    _ => rng.random_range(0.1..25.0),
                };
                Item::new(p, w)
            })
            .collect(),
        // Plain random mixes.
        _ => (0..n)
            .map(|_| Item::new(rng.random_range(0.5..40.0), rng.random_range(1..200u64)))
            .collect(),
    };
    let total: u64 = items.iter().map(|it| it.weight).sum();
    let cap = (total as f64 * rng.random_range(0.1..0.9)) as u64;
    (items, cap)
}

#[test]
fn flat_branch_and_bound_matches_the_pushing_search() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut scratch = BnbScratch::new();
    let (mut completed, mut exhausted, mut lone_exhaustions) = (0, 0, 0);
    for trial in 0..3_000 {
        let family = trial % 5;
        let n = rng.random_range(1..=40usize);
        let (items, cap) = instance(&mut rng, family, n);
        // The dispatcher's budget first.
        let budget = 64 * n;
        let old = reference_bnb(&items, cap, budget);
        let new = branch_and_bound_budgeted(&items, cap, budget, &mut scratch);
        assert_same(
            &new,
            &old.answer,
            &format!("trial {trial}, budget {budget}"),
        );
        if old.answer.is_none() {
            exhausted += 1;
            continue;
        }
        if old.nodes == 0 {
            continue; // nothing eligible: no search ran
        }
        completed += 1;
        // One node short of the reference's count must run out on its
        // last node; its exact count and one more must both finish.
        let nodes = old.nodes;
        for b in [nodes - 1, nodes, nodes + 1] {
            let old = reference_bnb(&items, cap, b);
            let new = branch_and_bound_budgeted(&items, cap, b, &mut scratch);
            assert_eq!(old.answer.is_none(), b < nodes, "trial {trial}, budget {b}");
            assert_same(&new, &old.answer, &format!("trial {trial}, budget {b}"));
        }
        // Small searches: run out at every node, including each one
        // inside a skip chain.
        if nodes <= 200 {
            for b in 0..nodes {
                let new = branch_and_bound_budgeted(&items, cap, b, &mut scratch);
                assert_eq!(new, None, "trial {trial}, budget {b}");
                lone_exhaustions += usize::from(old.lone[b]);
            }
        }
    }
    assert!(
        completed > 1_000 && exhausted > 100,
        "{completed} / {exhausted}"
    );
    assert!(
        lone_exhaustions > 1_000,
        "{lone_exhaustions} skip-chain exhaustions"
    );
}

#[test]
fn flat_branch_and_bound_matches_beyond_one_word_of_path() {
    // More than 64 eligible items: the path spans several words, which
    // only the unbudgeted public entry point reaches.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for trial in 0..200 {
        let n = rng.random_range(65..=300usize);
        let family = [0, 3, 4][trial % 3];
        let (items, cap) = instance(&mut rng, family, n);
        let old = reference_bnb(&items, cap, usize::MAX);
        let new = branch_and_bound(&items, cap);
        assert_same(&Some(new), &old.answer, &format!("trial {trial}, n {n}"));
    }
    // Equal ratios whose capacity fills exactly: the first leaf meets
    // the bound and everything after it prunes.
    let items: Vec<Item> = (0..150)
        .map(|i| Item::new(2.0 * (1 + i % 7) as f64, 1 + i % 7))
        .collect();
    for cap in [0, 1, 64, 65, 129, 300] {
        let old = reference_bnb(&items, cap, usize::MAX);
        assert_same(
            &Some(branch_and_bound(&items, cap)),
            &old.answer,
            &format!("cap {cap}"),
        );
    }
}

#[test]
fn inline_frontier_matches_the_arena_frontier() {
    let mut rng = StdRng::seed_from_u64(0xD9);
    let (mut scratch, mut ref_scratch) = (SolverScratch::new(), SolverScratch::new());
    let mut overflowed = 0;
    for trial in 0..2_500 {
        let family = trial % 5;
        let n = rng.random_range(1..=60usize);
        let (items, cap) = instance(&mut rng, family, n);
        let eps = [0.05, 0.1, 0.3][trial % 3];
        let (old, old_len) = reference_qdp(&items, cap, eps, usize::MAX, &mut ref_scratch);
        let new = quantized_dp(&items, cap, eps, &mut scratch);
        let what = format!("trial {trial}");
        assert_same(&Some(new), &Some(old), &what);
        if old_len == 0 {
            continue; // nothing eligible: neither arena was touched
        }
        assert_eq!(scratch.arena.len(), old_len, "{what}: arena length");
        // A small arena budget overflows at the same state, and both
        // fall back to the same dense table (every fourth instance: the
        // table is the slow part).
        if old_len > 2 && trial % 4 == 0 {
            let budget = rng.random_range(1..old_len);
            let (old, old_len) = reference_qdp(&items, cap, eps, budget, &mut ref_scratch);
            let new = quantized_dp_within(&items, cap, eps, &mut scratch, budget);
            assert_same(&Some(new), &Some(old), &format!("{what}, budget {budget}"));
            assert_eq!(scratch.arena.len(), old_len, "{what}, budget {budget}");
            overflowed += 1;
        }
    }
    assert!(overflowed > 400, "{overflowed} overflows");
}
