//! Reusable solver workspaces.
//!
//! Every `plan_day` call used to allocate fresh `O(n · cells)` DP tables
//! inside `sin_knap` — at fleet scale (millions of solves) allocation and
//! zeroing dominated solve time. A [`SolverScratch`] owns those tables and
//! is threaded through the `*_with` solver entry points so a policy
//! allocates once and amortizes forever; [`OvScratch`] does the same for
//! the overlapped multiple-knapsack solver's per-slot buffers.

use crate::item::Item;
use crate::overlapped::OvProblem;

/// A bit-packed 2-D boolean table (row-major), replacing the old
/// `Vec<bool>` choice matrix at 1/8 the memory. Rows × cols can be
/// resized in place; the backing words are reused across solves.
#[derive(Debug, Clone, Default)]
pub struct BitGrid {
    words: Vec<u64>,
    cols: usize,
    /// Words that may hold set bits (high-water of past resets): the
    /// next [`BitGrid::reset`] scrubs only this prefix instead of the
    /// whole allocation, so a large solve followed by small ones does
    /// not keep paying the large solve's memset.
    dirty: usize,
}

impl BitGrid {
    /// Creates an empty grid; call [`BitGrid::reset`] before use.
    pub fn new() -> Self {
        BitGrid::default()
    }

    /// Resizes to `rows × cols` and clears every bit, reusing the
    /// existing allocation when large enough. Only the high-water
    /// prefix of words that a previous generation could have written is
    /// scrubbed; words beyond it are zero by construction.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.cols = cols;
        let needed = rows * cols / 64 + 1;
        let scrub = self.dirty.min(self.words.len());
        for w in &mut self.words[..scrub] {
            *w = 0;
        }
        if self.words.len() < needed {
            self.words.resize(needed, 0);
        }
        self.dirty = needed;
    }

    /// Reads bit `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.get_bit(row * self.cols + col)
    }

    /// First bit offset of `row` — hoists the row product out of hot
    /// loops that sweep columns (pair with [`BitGrid::set_bit`]).
    #[inline]
    pub fn row_base(&self, row: usize) -> usize {
        row * self.cols
    }

    /// Sets the bit at an absolute offset from [`BitGrid::row_base`].
    #[inline]
    pub fn set_bit(&mut self, bit: usize) {
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Reads the bit at an absolute offset from [`BitGrid::row_base`].
    #[inline]
    pub fn get_bit(&self, bit: usize) -> bool {
        self.words[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Heap bytes currently held by the grid.
    pub fn capacity_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// One state on the Pareto frontier of the profit-quantized solver
/// ([`crate::solvers::quantized_dp`]): a reachable (scaled profit,
/// weight) pair, kept inline so the merge reads it without a hop into
/// the arena, plus the arena node that reconstructs its item set.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QState {
    /// Total scaled profit of the subset.
    pub(crate) q: u64,
    /// Total weight of the subset.
    pub(crate) w: u64,
    /// Arena index of the node that reached this state.
    pub(crate) node: u32,
}

/// One arena node of the quantized DP: the item taken and the node it
/// was taken on, a parent chain back to the empty set.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QNode {
    /// Eligible-item index taken (`u32::MAX` at the root).
    pub(crate) item: u32,
    /// Arena index of the predecessor node (`u32::MAX` at the root).
    pub(crate) parent: u32,
}

/// One pending skip branch of the iterative branch-and-bound search
/// ([`crate::bnb::branch_and_bound_budgeted`]). Take branches and the
/// only child of a node whose item does not fit are walked in place, so
/// the stack holds only the skip siblings still to visit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BnbFrame {
    /// Depth in the ratio order (how many items decided).
    pub(crate) depth: u32,
    /// Capacity used by the path.
    pub(crate) used: u64,
    /// Profit accumulated by the path.
    pub(crate) profit: f64,
}

/// Reusable workspace for the iterative branch-and-bound solver: the
/// ratio order and the weights and profits laid out in it, the explicit
/// DFS stack, and the take flags of the current path and of the
/// incumbent, one bit per depth. Contents are unspecified between calls.
#[derive(Debug, Clone, Default)]
pub struct BnbScratch {
    /// Eligible item indices in profit-to-weight order.
    pub(crate) order: Vec<usize>,
    /// `weight[d]` = weight of item `order[d]`.
    pub(crate) weight: Vec<u64>,
    /// `profit[d]` = profit of item `order[d]`.
    pub(crate) profit: Vec<f64>,
    /// Skip branches still to visit (replaces the old recursion).
    pub(crate) stack: Vec<BnbFrame>,
    /// Bit `d` set when the current path takes item `order[d]`.
    pub(crate) path: Vec<u64>,
    /// The incumbent's take flags, valid below its depth.
    pub(crate) best: Vec<u64>,
}

impl BnbScratch {
    /// Creates an empty workspace (no allocations until first solve).
    pub fn new() -> Self {
        BnbScratch::default()
    }
}

/// Reusable workspace for the single-knapsack solvers
/// ([`crate::solvers::sin_knap_with`], [`crate::solvers::quantized_dp`],
/// [`crate::solvers::solve_auto`]).
///
/// All fields are internal buffers: their contents are unspecified
/// between calls, only their allocations persist.
#[derive(Debug, Clone, Default)]
pub struct SolverScratch {
    /// `min_weight[q]`: least weight achieving scaled profit `q`.
    pub(crate) min_weight: Vec<u64>,
    /// Bit-packed `choice[j][q]` reconstruction table.
    pub(crate) choice: BitGrid,
    /// Indices of eligible items.
    pub(crate) eligible: Vec<usize>,
    /// Scaled per-item profits.
    pub(crate) scaled: Vec<u64>,
    /// Ratio order for the Dantzig bound.
    pub(crate) order: Vec<usize>,
    /// Node arena of the sparse quantized DP.
    pub(crate) arena: Vec<QNode>,
    /// Current Pareto frontier, scaled profit (and weight) descending.
    pub(crate) frontier: Vec<QState>,
    /// Merge buffer for the next frontier.
    pub(crate) merged: Vec<QState>,
    /// Nested workspace for the branch-and-bound dispatch arm.
    pub(crate) bnb: BnbScratch,
    /// Which arm answered the last [`crate::solvers::solve_auto`] call.
    pub(crate) last_arm: Option<netmaster_obs::SolverArm>,
}

impl SolverScratch {
    /// Creates an empty workspace (no allocations until first solve).
    pub fn new() -> Self {
        SolverScratch::default()
    }

    /// Which solver arm answered the most recent
    /// [`crate::solvers::solve_auto`] call through this scratch, or
    /// `None` when the instance had no eligible item (or `solve_auto`
    /// has not run yet).
    pub fn last_solver(&self) -> Option<netmaster_obs::SolverArm> {
        self.last_arm
    }
}

/// Reusable workspace for [`crate::overlapped::solve_with`]: per-slot
/// candidate lists, the per-slot `Item` buffer, and the inner
/// single-knapsack scratch, plus the instance buffers a planner lends
/// out through [`OvScratch::take_problem`].
#[derive(Debug, Clone, Default)]
pub struct OvScratch {
    /// The last instance's buffers, kept for the next one's build.
    pub(crate) problem: OvProblem,
    /// Inner scratch for the per-slot `SinKnap` calls.
    pub(crate) knap: SolverScratch,
    /// `slot_items[slot]` = (item index, per-slot profit, ratio key),
    /// ratio-sorted when the slot binds; the key is set only then.
    pub(crate) slot_items: Vec<Vec<(usize, f64, f64)>>,
    /// `slot_weight[slot]` = summed weight of the slot's list.
    pub(crate) slot_weight: Vec<u128>,
    /// Per-slot `Item` views handed to `sin_knap_with`.
    pub(crate) items_buf: Vec<Item>,
    /// `chosen_slots[item]` = slots whose SinKnap picked the item.
    pub(crate) chosen_slots: Vec<ChosenSlots>,
}

/// The slots whose single-knapsack solve picked one item, in slot
/// order. An item lists at most two candidate slots, so it is picked at
/// most twice and the list lives inline.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChosenSlots {
    len: u8,
    slots: [usize; 2],
}

impl ChosenSlots {
    pub(crate) fn push(&mut self, slot: usize) {
        self.slots[self.len as usize] = slot;
        self.len += 1;
    }

    pub(crate) fn as_slice(&self) -> &[usize] {
        &self.slots[..self.len as usize]
    }
}

impl OvScratch {
    /// Creates an empty workspace (no allocations until first solve).
    pub fn new() -> Self {
        OvScratch::default()
    }

    /// The previous instance's buffers, cleared: a planner fills them,
    /// solves, and hands them back with [`OvScratch::put_problem`], so
    /// each day's instance reuses the last day's allocations.
    pub fn take_problem(&mut self) -> OvProblem {
        let mut problem = std::mem::take(&mut self.problem);
        problem.capacities.clear();
        problem.items.clear();
        problem
    }

    /// Keeps `problem`'s buffers for the next [`OvScratch::take_problem`].
    pub fn put_problem(&mut self, problem: OvProblem) {
        self.problem = problem;
    }

    /// Clears the per-slot and per-item lists for an instance of
    /// `nslots` slots and `nitems` items, keeping their allocations.
    /// `slot_items` may keep more lists than `nslots`, all empty, so that
    /// a day with fewer slots does not free lists the next one regrows.
    pub(crate) fn begin(&mut self, nslots: usize, nitems: usize) {
        for list in &mut self.slot_items {
            list.clear();
        }
        if self.slot_items.len() < nslots {
            // lint:allow(hot-path-alloc) amortized: the lists are kept across solves; growth happens once per high-water mark
            self.slot_items.resize_with(nslots, Vec::new);
        }
        self.slot_weight.clear();
        self.slot_weight.resize(nslots, 0);
        self.chosen_slots.clear();
        self.chosen_slots.resize(nitems, ChosenSlots::default());
        self.items_buf.clear();
    }
}

std::thread_local! {
    /// Per-thread recycling pool for [`OvScratch`] workspaces, so
    /// short-lived owners (one fleet member's policy) inherit the
    /// previous owner's warmed allocations instead of re-growing their
    /// own from zero.
    static OV_POOL: std::cell::RefCell<Vec<OvScratch>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Workspaces kept per thread; beyond this, drops free instead of pool.
const OV_POOL_CAP: usize = 8;

/// An [`OvScratch`] checked out of a per-thread pool; returns itself to
/// the pool on drop. At fleet scale each worker thread churns through
/// thousands of policies, each owning a scratch — pooling means the DP
/// tables and per-slot lists are allocated once per thread, not once
/// per member.
#[derive(Debug, Default)]
pub struct PooledOvScratch(Option<OvScratch>);

impl PooledOvScratch {
    /// Checks a workspace out of the current thread's pool (or creates
    /// an empty one when the pool is dry).
    pub fn take() -> Self {
        let inner = OV_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        PooledOvScratch(Some(inner))
    }
}

impl Clone for PooledOvScratch {
    /// Cloning checks out a fresh workspace: scratch contents are
    /// unspecified between calls, so there is nothing worth copying.
    fn clone(&self) -> Self {
        PooledOvScratch::take()
    }
}

impl std::ops::Deref for PooledOvScratch {
    type Target = OvScratch;
    fn deref(&self) -> &OvScratch {
        // lint:allow(panic-hygiene) the Option is Some from take() until Drop moves it back to the pool
        self.0.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for PooledOvScratch {
    fn deref_mut(&mut self) -> &mut OvScratch {
        // lint:allow(panic-hygiene) the Option is Some from take() until Drop moves it back to the pool
        self.0.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledOvScratch {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            OV_POOL.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < OV_POOL_CAP {
                    pool.push(inner);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitgrid_set_get_roundtrip() {
        let mut g = BitGrid::new();
        g.reset(5, 70); // spans word boundaries
        assert!(!g.get(0, 0));
        g.set_bit(g.row_base(0));
        g.set_bit(g.row_base(4) + 69);
        g.set_bit(g.row_base(2) + 63);
        g.set_bit(g.row_base(2) + 64);
        assert!(g.get(0, 0));
        assert!(g.get(4, 69));
        assert!(g.get(2, 63));
        assert!(g.get(2, 64));
        assert!(!g.get(2, 65));
        // Reset clears.
        g.reset(5, 70);
        assert!(!g.get(0, 0) && !g.get(4, 69));
    }

    #[test]
    fn bitgrid_is_eighth_of_bool_table() {
        let mut g = BitGrid::new();
        g.reset(100, 800);
        assert!(g.capacity_bytes() <= 100 * 800 / 8 + 64);
    }

    #[test]
    fn bitgrid_highwater_reset_scrubs_across_size_changes() {
        let mut g = BitGrid::new();
        // Large grid, bits set near the end of the dirty region.
        g.reset(10, 100);
        g.set_bit(g.row_base(9) + 99);
        g.set_bit(g.row_base(0));
        // Shrink: old high bits are outside the new grid but still in
        // the allocation; a later regrow must not resurrect them.
        g.reset(2, 10);
        assert!(!g.get(0, 0));
        g.set_bit(g.row_base(1) + 3);
        g.reset(10, 100);
        assert!(!g.get(9, 99), "stale bit leaked through shrink/regrow");
        assert!(!g.get(0, 19), "small-grid bit leaked into the regrown grid");
        for r in 0..10 {
            for c in 0..100 {
                assert!(!g.get(r, c), "bit ({r},{c}) not scrubbed");
            }
        }
    }

    #[test]
    fn pooled_scratch_recycles_allocations_per_thread() {
        // Drain anything earlier tests parked in this thread's pool.
        loop {
            let s = PooledOvScratch::take();
            if s.knap.min_weight.capacity() == 0 && s.slot_items.capacity() == 0 {
                break;
            }
            std::mem::forget(s); // deliberately leak warmed ones away
        }
        let mut s = PooledOvScratch::take();
        s.knap.min_weight.resize(1024, 0);
        let ptr = s.knap.min_weight.as_ptr();
        drop(s);
        let s2 = PooledOvScratch::take();
        assert_eq!(s2.knap.min_weight.as_ptr(), ptr, "allocation recycled");
        // Clone checks out a distinct workspace, never aliases.
        let c = s2.clone();
        assert_ne!(
            c.knap.min_weight.as_ptr(),
            s2.knap.min_weight.as_ptr(),
            "clone must not alias the original's buffers"
        );
    }

    #[test]
    fn begin_keeps_slot_lists_across_smaller_instances() {
        let mut s = OvScratch::new();
        s.begin(3, 4);
        s.slot_items[2].push((0, 1.0, 0.0));
        let ptr = s.slot_items[2].as_ptr();
        // A day with fewer slots clears the third list but keeps it.
        s.begin(1, 2);
        assert_eq!(s.slot_items.len(), 3);
        assert!(s.slot_items.iter().all(Vec::is_empty));
        assert_eq!((s.slot_weight.len(), s.chosen_slots.len()), (1, 2));
        s.begin(3, 4);
        assert_eq!(s.slot_items[2].as_ptr(), ptr, "allocation retained");
    }
}
