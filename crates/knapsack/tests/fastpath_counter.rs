//! `knapsack_fastpath_total` counts one tick per slot the overlapped
//! solver answers on its fast path, whether step 1 answers the slot
//! directly or [`solve_auto`](netmaster_knapsack::solve_auto) does. The
//! metrics registry is process-wide, so this is the only test in its
//! binary: nothing else solves while it reads counter deltas.

use netmaster_knapsack::overlapped::{solve_with, OvItem, OvProblem};
use netmaster_knapsack::OvScratch;
use netmaster_obs::names::KNAPSACK_FASTPATH_TOTAL;
use netmaster_obs::SolverArm;

fn fastpath_total() -> u64 {
    netmaster_obs::snapshot().counter(KNAPSACK_FASTPATH_TOTAL)
}

#[test]
fn one_fast_path_tick_per_fitting_slot() {
    let mut scratch = OvScratch::new();
    let mut seen = 0;
    for round in 0..50u64 {
        // Slot 0 always fits; slot 1 binds on odd rounds; slot 2 gets
        // only a worthless candidate and sees no solve.
        let cap1 = if round % 2 == 1 { 25 } else { 1_000 };
        let mut items = vec![
            OvItem::pair(10 + round % 7, (0, 3.0), (1, 2.0)),
            OvItem::single(4, 0, 1.5),
            OvItem::single(2, 2, -1.0),
        ];
        items.extend((0..4).map(|k| OvItem::single(9 + k, 1, 1.0 + k as f64)));
        let p = OvProblem {
            capacities: vec![200, cap1, 50],
            items,
        };
        let before = fastpath_total();
        let s = solve_with(&p, 0.1, &mut scratch);
        let ticks = fastpath_total() - before;
        let fast = s
            .solver
            .iter()
            .filter(|k| **k == Some(SolverArm::Fastpath))
            .count() as u64;
        assert_eq!(s.solver[0], Some(SolverArm::Fastpath), "round {round}");
        assert_eq!(s.solver[1] == Some(SolverArm::Fastpath), round % 2 == 0);
        assert_eq!(s.solver[2], None, "round {round}");
        assert_eq!(ticks, fast, "round {round}");
        seen += fast;
    }
    assert_eq!(seen, 75);
}
