//! # netmaster-knapsack
//!
//! Knapsack machinery behind NetMaster's scheduling component:
//!
//! * [`solvers::sin_knap`] — the Ibarra–Kim profit-scaling FPTAS the
//!   paper calls `SinKnap` \[13\], a `(1−ε)`-approximation for 0/1
//!   knapsack;
//! * [`overlapped::solve`] — the paper's Algorithm 1 for multiple
//!   knapsacks with *overlapped itemsets* (each screen-off network
//!   activity may move into either adjacent user-active slot), a
//!   `(1−ε)/2`-approximation (Lemma IV.1);
//! * [`solvers::solve_auto`] — the per-slot dispatcher Algorithm 1
//!   runs: slack fast path, budgeted [`bnb::branch_and_bound_budgeted`],
//!   or the sparse [`solvers::quantized_dp`];
//! * exact (`brute_force`, `branch_and_bound`) and greedy
//!   (`greedy_half`) baselines used as test oracles and runtime floors.
//!
//! The hot-path solvers take a reusable [`scratch::SolverScratch`] /
//! [`scratch::OvScratch`] (zero DP-table allocations per solve, a
//! bit-packed choice matrix, and an exact fast path when capacity has
//! slack); the plain signatures allocate a fresh one per call. The
//! original implementations, and the exact capacity DP, are kept in
//! [`reference`](mod@reference) as equivalence oracles and perf
//! baselines.
//!
//! ```
//! use netmaster_knapsack::overlapped::{solve, OvItem, OvProblem};
//!
//! // Two user-active slots; one background sync that may move into
//! // either (higher profit in slot 1 because it is nearer).
//! let problem = OvProblem {
//!     capacities: vec![1_000, 1_000],
//!     items: vec![OvItem::pair(300, (0, 4.2), (1, 9.1))],
//! };
//! let solution = solve(&problem, 0.1);
//! assert_eq!(solution.assignment[0], Some(1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bnb;
pub mod item;
pub mod overlapped;
pub mod reference;
pub mod scratch;
pub mod solvers;

pub use bnb::{branch_and_bound, branch_and_bound_budgeted};
pub use item::{Item, Solution};
pub use overlapped::{solve_with, Candidate, Candidates, OvItem, OvProblem, OvSolution};
pub use scratch::{BitGrid, BnbScratch, OvScratch, PooledOvScratch, SolverScratch};
pub use solvers::{brute_force, greedy_half, quantized_dp, sin_knap, sin_knap_with, solve_auto};

/// `true` when this build compiles the `strict-invariants` runtime
/// oracles into the solvers; tests assert on it so a feature-gated CI
/// run provably exercised the checked configuration.
pub const STRICT_INVARIANTS: bool = cfg!(feature = "strict-invariants");

#[cfg(test)]
mod identity;
