//! Hierarchical span-tree tracing: the causal layer under [`span!`]
//! and [`timer!`](crate::timer).
//!
//! Every thread keeps two views of its in-flight spans:
//!
//! * a **build stack** (plain thread-local state) that assembles
//!   completed spans into [`SpanNode`] trees — parent/child edges,
//!   per-span self vs total time, typed attributes — and hands
//!   finished roots to the global [`TraceStore`];
//! * a **live stack** of atomic frames (interned name indices) shared
//!   through a process-wide registry, which the sampling profiler
//!   ([`crate::profile`]) walks from its own thread without stopping
//!   the world. Writes are ordered frame-before-depth so a concurrent
//!   reader sees a prefix of the real stack; a torn read costs one
//!   sample, never a crash.
//!
//! [`span!`](crate::span) call sites keep compiling unchanged: the
//! macro threads the stage name into [`Span::enter`](crate::Span::enter)
//! and nesting falls out of RAII drop order. The whole layer erases
//! with the `enabled` feature and obeys the runtime kill switch
//! ([`crate::set_runtime_enabled`]); tree *capture* (the only
//! allocating part) additionally toggles via [`set_trace_capture`] so
//! the perf harness can A/B it in one binary.

use crate::Ring;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Deepest live stack the profiler can observe; spans nested deeper
/// still time correctly but stop publishing frames.
pub const MAX_LIVE_DEPTH: usize = 64;

/// Children retained per tree node before drop-counting kicks in
/// (keeps one pathological loop from ballooning a stored trace).
pub const MAX_CHILDREN: usize = 64;

/// Default completed-tree retention of the global [`TraceStore`].
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

// --- Runtime capture toggle ------------------------------------------

static CAPTURE: AtomicBool = AtomicBool::new(true);

/// Switches span-tree *capture* (the allocating half of tracing) on or
/// off at run time; live-stack frames and stage histograms keep
/// recording either way. On by default. The perf harness's
/// `tracing_overhead` A/B flips this inside one binary.
pub fn set_trace_capture(on: bool) {
    CAPTURE.store(on, Ordering::Relaxed); // lint:allow(atomic-ordering) pure on/off gate toggled between measured phases; no data is published under it
}

/// `true` when recording is live *and* tree capture is on.
pub fn trace_capture_enabled() -> bool {
    crate::runtime_enabled() && CAPTURE.load(Ordering::Relaxed) // lint:allow(atomic-ordering) kill-switch read on the span fast path; no data is published under this flag
}

// --- Span-name interning ---------------------------------------------

fn intern_table() -> &'static Mutex<Vec<&'static str>> {
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Interns a span name into the global table, returning its stable
/// index (what live-stack frames carry).
pub(crate) fn intern(name: &'static str) -> usize {
    let mut table = intern_table().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = table.iter().position(|n| *n == name) {
        return i;
    }
    table.push(name);
    table.len() - 1
}

thread_local! {
    /// Per-thread intern cache so the span fast path avoids the global
    /// table mutex after each name's first use on the thread.
    static INTERN_CACHE: RefCell<Vec<(&'static str, usize)>> = const { RefCell::new(Vec::new()) };
}

fn intern_cached(name: &'static str) -> usize {
    INTERN_CACHE
        .try_with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(&(_, idx)) = cache.iter().find(|(n, _)| *n == name) {
                return idx;
            }
            let idx = intern(name);
            cache.push((name, idx));
            idx
        })
        .unwrap_or_else(|_| intern(name))
}

// --- The shared live stack (what the profiler samples) ---------------

/// One thread's live span stack, readable from the profiler thread.
/// `frames[i]` holds interned name indices; `depth` is written *after*
/// the frame (Release) so readers loading `depth` first (Acquire) see
/// initialized frames for every index below it.
struct SharedStack {
    depth: AtomicUsize,
    frames: [AtomicUsize; MAX_LIVE_DEPTH],
}

impl SharedStack {
    fn new() -> SharedStack {
        SharedStack {
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicUsize::new(0)),
        }
    }
}

fn stack_registry() -> &'static Mutex<Vec<Weak<SharedStack>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<SharedStack>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// This thread's live stack; registering drops dead threads'
    /// entries so the registry stays bounded by live-thread count.
    static LIVE: Arc<SharedStack> = {
        let stack = Arc::new(SharedStack::new());
        let mut registry = stack_registry().lock().unwrap_or_else(|e| e.into_inner());
        registry.retain(|w| w.strong_count() > 0);
        registry.push(Arc::downgrade(&stack));
        stack
    };
}

/// Snapshots every live, non-empty span stack as interned-index
/// vectors (outermost first). Called from the profiler thread; a stack
/// mutating concurrently yields a prefix or one stale leaf, both of
/// which are valid samples of *some* recent instant.
pub(crate) fn sample_live_stacks() -> Vec<Vec<usize>> {
    let registry = stack_registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::new();
    for weak in registry.iter() {
        let Some(stack) = weak.upgrade() else {
            continue;
        };
        let depth = stack.depth.load(Ordering::Acquire).min(MAX_LIVE_DEPTH);
        if depth == 0 {
            continue;
        }
        out.push(
            (0..depth)
                .map(|i| stack.frames[i].load(Ordering::Acquire))
                .collect(),
        );
    }
    out
}

/// Resolves a sampled interned-index stack to the collapsed
/// (semicolon-joined, outermost-first) flamegraph frame string.
pub(crate) fn resolve_stack(stack: &[usize]) -> String {
    let table = intern_table().lock().unwrap_or_else(|e| e.into_inner());
    let mut s = String::new();
    for (i, idx) in stack.iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        s.push_str(table.get(*idx).copied().unwrap_or("?"));
    }
    s
}

// --- The thread-local build stack ------------------------------------

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

struct FrameBuild {
    id: u64,
    name: &'static str,
    attrs: Vec<(String, String)>,
    children: Vec<SpanNode>,
    children_total_secs: f64,
    children_dropped: u64,
}

thread_local! {
    static BUILD: RefCell<Vec<FrameBuild>> = const { RefCell::new(Vec::new()) };
}

/// The token a [`crate::Span`] holds between enter and drop.
#[derive(Debug)]
pub(crate) struct FrameToken {
    /// Live-stack depth at entry (restored on pop).
    depth: usize,
    /// Build-stack index of this span's frame, when capture pushed one.
    build_idx: Option<usize>,
}

/// Enters a span: publishes a live-stack frame for the profiler and
/// (when capture is on) opens a build frame for tree assembly.
/// Returns `None` when recording is off.
pub(crate) fn push_frame(name: &'static str) -> Option<FrameToken> {
    if !crate::runtime_enabled() {
        return None;
    }
    crate::counter!(crate::names::SPANS_STARTED_TOTAL);
    let idx = intern_cached(name);
    let depth = LIVE
        .try_with(|stack| {
            let d = stack.depth.load(Ordering::Acquire);
            if d < MAX_LIVE_DEPTH {
                stack.frames[d].store(idx, Ordering::Release);
            }
            stack.depth.store(d + 1, Ordering::Release);
            d
        })
        .ok()?;
    // lint:allow(atomic-ordering) capture gate only decides whether to allocate; tree state itself is thread-local
    let build_idx = if CAPTURE.load(Ordering::Relaxed) {
        BUILD
            .try_with(|build| {
                let mut build = build.borrow_mut();
                build.push(FrameBuild {
                    id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                    name,
                    attrs: Vec::new(),
                    children: Vec::new(),
                    children_total_secs: 0.0,
                    children_dropped: 0,
                });
                build.len() - 1
            })
            .ok()
    } else {
        None
    };
    Some(FrameToken { depth, build_idx })
}

/// Leaves a span: retracts the live-stack frame and (when a build
/// frame is open) closes it into its parent — or, for a root, into the
/// global [`TraceStore`]. `abandoned` spans (dropped mid-panic) tear
/// their frame down without recording a node.
pub(crate) fn pop_frame(token: FrameToken, total_secs: f64, abandoned: bool) {
    let _ = LIVE.try_with(|stack| stack.depth.store(token.depth, Ordering::Release));
    let Some(build_idx) = token.build_idx else {
        return;
    };
    let _ = BUILD.try_with(|build| {
        let mut build = build.borrow_mut();
        // Defensive against non-LIFO drops: anything still open above
        // this frame is discarded rather than misattributed.
        build.truncate(build_idx + 1);
        let Some(frame) = build.pop() else { return };
        if abandoned {
            return;
        }
        let node = SpanNode {
            id: frame.id,
            name: frame.name.to_owned(),
            total_secs,
            self_secs: (total_secs - frame.children_total_secs).max(0.0),
            attrs: frame.attrs,
            children: frame.children,
            children_dropped: frame.children_dropped,
        };
        match build.last_mut() {
            Some(parent) => {
                parent.children_total_secs += total_secs;
                if parent.children.len() < MAX_CHILDREN {
                    parent.children.push(node);
                } else {
                    parent.children_dropped += 1;
                }
            }
            None => TraceStore::global().record(node),
        }
    });
}

/// Attaches a typed attribute (`key=value`) to the innermost open
/// span on this thread. No-op when no span is open or capture is off;
/// prefer the [`crate::span_attr!`] macro, which also skips evaluating
/// the value when tracing is disabled.
pub fn set_attr(key: &'static str, value: &dyn std::fmt::Display) {
    if !trace_capture_enabled() {
        return;
    }
    let _ = BUILD.try_with(|build| {
        if let Some(frame) = build.borrow_mut().last_mut() {
            frame.attrs.push((key.to_owned(), value.to_string()));
        }
    });
}

// --- Completed trees --------------------------------------------------

/// One completed span in a trace tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Process-unique span id (stable across the store's lifetime).
    pub id: u64,
    /// Stage name (`span!("solve")` → `"solve"`).
    pub name: String,
    /// Wall-clock seconds between enter and drop.
    pub total_secs: f64,
    /// `total_secs` minus time attributed to child spans (clamped ≥ 0).
    pub self_secs: f64,
    /// Typed attributes (`("day", "14")`, `("arm", "dp")`, …).
    pub attrs: Vec<(String, String)>,
    /// Child spans, completion order, capped at [`MAX_CHILDREN`].
    pub children: Vec<SpanNode>,
    /// Children discarded past the cap (their time still counts
    /// against this span's self time).
    pub children_dropped: u64,
}

impl SpanNode {
    /// Nodes in this subtree (including self).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::node_count)
            .sum::<usize>()
    }

    /// Depth of this subtree (a leaf is 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(SpanNode::depth).max().unwrap_or(0)
    }

    /// The attribute value for `key` on this node, when set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Finds the first node (pre-order) carrying `key=value`.
    pub fn find_attr(&self, key: &str, value: &str) -> Option<&SpanNode> {
        if self.attr(key) == Some(value) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find_attr(key, value))
    }

    /// Finds the first node (pre-order) named `name`.
    pub fn find_name(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find_name(name))
    }

    /// Renders the tree as an indented text block, one span per line:
    /// `name total (self …) [k=v …]`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(
            out,
            "{} {} (self {})",
            self.name,
            fmt_span_secs(self.total_secs),
            fmt_span_secs(self.self_secs)
        );
        if !self.attrs.is_empty() {
            out.push_str(" [");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{k}={v}");
            }
            out.push(']');
        }
        if self.children_dropped > 0 {
            let _ = write!(out, " (+{} children dropped)", self.children_dropped);
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// Human-scale duration: µs under 1ms, ms under 1s, else seconds.
fn fmt_span_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1}us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.3}s")
    }
}

struct TraceInner {
    ring: Ring<SpanNode>,
    /// Worst (slowest) completed tree per root stage name — the
    /// slow-trace exemplar a latency histogram's worst bucket points
    /// at. Retained outside the ring, so drop-oldest never evicts the
    /// answer to "show me the slowest `run_day`".
    exemplars: Vec<(String, SpanNode)>,
    recorded: u64,
}

/// A bounded drop-oldest store of completed span trees with per-stage
/// slow-trace exemplars. One process-global instance ([`TraceStore::global`])
/// receives every finished root span.
pub struct TraceStore {
    inner: Mutex<TraceInner>,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceStore {
    /// A store retaining at most `capacity` recent trees (exemplars
    /// ride outside the cap, one per root stage name).
    pub fn with_capacity(capacity: usize) -> TraceStore {
        TraceStore {
            inner: Mutex::new(TraceInner {
                ring: Ring::new(capacity),
                exemplars: Vec::new(),
                recorded: 0,
            }),
        }
    }

    /// The process-global store every completed root span lands in.
    pub fn global() -> &'static TraceStore {
        static STORE: OnceLock<TraceStore> = OnceLock::new();
        STORE.get_or_init(TraceStore::default)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one completed tree, evicting the oldest past capacity
    /// (counted in `trace_store_dropped_total`) and promoting it to
    /// the exemplar slot for its root name when it is the slowest seen.
    pub fn record(&self, root: SpanNode) {
        let mut inner = self.lock();
        inner.recorded += 1;
        match inner
            .exemplars
            .iter_mut()
            .find(|(name, _)| *name == root.name)
        {
            Some((_, worst)) => {
                if root.total_secs > worst.total_secs {
                    *worst = root.clone();
                }
            }
            None => inner.exemplars.push((root.name.clone(), root.clone())),
        }
        if inner.ring.push(root) > 0 {
            crate::counter!(crate::names::TRACE_STORE_DROPPED_TOTAL);
        }
    }

    /// The `n` most recent trees, newest first.
    pub fn recent(&self, n: usize) -> Vec<SpanNode> {
        let inner = self.lock();
        inner.ring.iter().rev().take(n).cloned().collect()
    }

    /// The slowest completed tree whose root is named `name`.
    pub fn exemplar(&self, name: &str) -> Option<SpanNode> {
        let inner = self.lock();
        inner
            .exemplars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
    }

    /// Every slow-trace exemplar, sorted by root name.
    pub fn exemplars(&self) -> Vec<SpanNode> {
        let inner = self.lock();
        let mut out: Vec<SpanNode> = inner.exemplars.iter().map(|(_, t)| t.clone()).collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Finds the most recent tree containing a span with `key=value`,
    /// falling back to the exemplars when the ring has rolled past it.
    pub fn find_by_attr(&self, key: &str, value: &str) -> Option<SpanNode> {
        let inner = self.lock();
        inner
            .ring
            .iter()
            .rev()
            .find(|t| t.find_attr(key, value).is_some())
            .or_else(|| {
                inner
                    .exemplars
                    .iter()
                    .map(|(_, t)| t)
                    .find(|t| t.find_attr(key, value).is_some())
            })
            .cloned()
    }

    /// Trees currently retained in the ring.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// `true` when the ring holds no trees.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Trees recorded over the store's lifetime.
    pub fn recorded_total(&self) -> u64 {
        self.lock().recorded
    }

    /// Trees the ring evicted on overflow.
    pub fn dropped_total(&self) -> u64 {
        self.lock().ring.dropped()
    }

    /// Resizes the ring (evicting oldest immediately if shrinking;
    /// configuration, not pressure, so nothing is counted as dropped).
    pub fn set_capacity(&self, capacity: usize) {
        self.lock().ring.set_capacity(capacity);
    }

    /// Clears retained trees, exemplars, and lifetime counts.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.ring = Ring::new(inner.ring.capacity());
        inner.exemplars.clear();
        inner.recorded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, total: f64) -> SpanNode {
        SpanNode {
            id: 0,
            name: name.to_owned(),
            total_secs: total,
            self_secs: total,
            attrs: Vec::new(),
            children: Vec::new(),
            children_dropped: 0,
        }
    }

    #[test]
    fn interning_is_stable_and_shared() {
        let a = intern("spantree_test_stage_a");
        let b = intern("spantree_test_stage_b");
        assert_ne!(a, b);
        assert_eq!(intern("spantree_test_stage_a"), a);
        assert_eq!(
            resolve_stack(&[a, b]),
            "spantree_test_stage_a;spantree_test_stage_b"
        );
        // A torn read of a growing stack resolves to "?", never panics.
        assert_eq!(resolve_stack(&[usize::MAX]), "?");
    }

    #[test]
    fn nested_spans_build_a_tree_with_self_time() {
        let _g = crate::test_serial();
        if !crate::ENABLED {
            return;
        }
        crate::reset();
        TraceStore::global().clear();
        {
            let _root = crate::span!("tree_root");
            set_attr("day", &14u32);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _child = crate::span!("tree_child");
                set_attr("arm", &"dp");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let trees = TraceStore::global().recent(1);
        assert_eq!(trees.len(), 1);
        let root = &trees[0];
        assert_eq!(root.name, "tree_root");
        assert_eq!(root.attr("day"), Some("14"));
        assert_eq!(root.children.len(), 1);
        let child = &root.children[0];
        assert_eq!(child.name, "tree_child");
        assert_eq!(child.attr("arm"), Some("dp"));
        assert!(child.id > root.id, "children enter after their parent");
        // Time invariants.
        assert!(root.self_secs <= root.total_secs);
        assert!(child.total_secs <= root.total_secs);
        assert!((root.self_secs - (root.total_secs - child.total_secs)).abs() < 1e-9);
        // The exemplar slot now holds this (only) tree.
        let ex = TraceStore::global().exemplar("tree_root").unwrap();
        assert_eq!(ex.id, root.id);
        // Attr lookup jumps straight to the tree.
        assert!(TraceStore::global()
            .find_by_attr("day", "14")
            .is_some_and(|t| t.id == root.id));
        assert_eq!(
            crate::snapshot().counter(crate::names::SPANS_STARTED_TOTAL),
            2
        );
        TraceStore::global().clear();
        crate::reset();
    }

    #[test]
    fn capture_toggle_skips_tree_assembly_but_keeps_histograms() {
        let _g = crate::test_serial();
        if !crate::ENABLED {
            return;
        }
        crate::reset();
        TraceStore::global().clear();
        set_trace_capture(false);
        {
            let _span = crate::span!("capture_off");
        }
        set_trace_capture(true);
        assert!(
            TraceStore::global().is_empty(),
            "capture off must store no trees"
        );
        let snap = crate::snapshot();
        assert_eq!(
            snap.histogram("stage_capture_off_seconds").unwrap().count,
            1
        );
        assert_eq!(snap.counter(crate::names::SPANS_STARTED_TOTAL), 1);
        TraceStore::global().clear();
        crate::reset();
    }

    #[test]
    fn store_evicts_oldest_and_keeps_worst_exemplar() {
        let store = TraceStore::with_capacity(2);
        store.record(leaf("stage_x", 5.0));
        store.record(leaf("stage_x", 1.0));
        store.record(leaf("stage_x", 2.0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.recorded_total(), 3);
        assert_eq!(store.dropped_total(), 1);
        // The 5.0s tree rolled out of the ring but stays the exemplar.
        let recent = store.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].total_secs, 2.0);
        assert_eq!(store.exemplar("stage_x").unwrap().total_secs, 5.0);
        assert!(store.exemplar("stage_y").is_none());
        store.set_capacity(1);
        assert_eq!(store.len(), 1);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.recorded_total(), 0);
    }

    #[test]
    fn children_cap_drop_counts_instead_of_growing() {
        let mut parent = leaf("parent", 10.0);
        for i in 0..(MAX_CHILDREN as u64 + 5) {
            let child = leaf("child", 0.01);
            if parent.children.len() < MAX_CHILDREN {
                parent.children.push(child);
            } else {
                parent.children_dropped += 1;
            }
            let _ = i;
        }
        assert_eq!(parent.children.len(), MAX_CHILDREN);
        assert_eq!(parent.children_dropped, 5);
        let text = parent.render();
        assert!(text.contains("(+5 children dropped)"), "{text}");
    }

    #[test]
    fn render_and_lookup_helpers() {
        let mut root = leaf("run_day", 0.012);
        root.self_secs = 0.002;
        root.attrs.push(("day".to_owned(), "3".to_owned()));
        let mut plan = leaf("plan_day", 0.01);
        plan.children.push(leaf("solve", 0.0000042));
        root.children.push(plan);
        assert_eq!(root.node_count(), 3);
        assert_eq!(root.depth(), 3);
        assert_eq!(root.find_name("solve").unwrap().name, "solve");
        assert!(root.find_attr("day", "3").is_some());
        assert!(root.find_attr("day", "4").is_none());
        let text = root.render();
        assert!(
            text.contains("run_day 12.00ms (self 2.00ms) [day=3]"),
            "{text}"
        );
        assert!(text.contains("  plan_day"), "{text}");
        assert!(text.contains("    solve 4.2us"), "{text}");
        // Round-trips through serde.
        let json = serde_json::to_string(&root).unwrap();
        let back: SpanNode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, root);
    }
}
