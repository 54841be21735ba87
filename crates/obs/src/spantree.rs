//! Hierarchical span-tree tracing: the causal layer under [`span!`](crate::span!)
//! and [`timer!`](crate::timer).
//!
//! Every thread keeps two views of its in-flight spans:
//!
//! * a **build buffer** (plain thread-local state) that assembles
//!   completed spans into one flat tree — parent indices, per-span self
//!   vs total time, typed attributes — and hands finished roots to this
//!   thread's shard of the global [`TraceStore`], reusing the buffers
//!   of the tree it evicts. [`SpanNode`] trees are built only when a
//!   reader asks;
//! * a **live stack** of atomic frames (interned name indices) shared
//!   through a process-wide registry, which the sampling profiler
//!   ([`crate::profile`]) walks from its own thread without stopping
//!   the world. Writes are ordered frame-before-depth so a concurrent
//!   reader sees a prefix of the real stack; a torn read costs one
//!   sample, never a crash.
//!
//! [`span!`](crate::span) call sites keep compiling unchanged: the
//! macro threads the stage name into [`Span::enter`](crate::Span::enter)
//! and nesting falls out of RAII drop order. The whole layer obeys the
//! runtime kill switch ([`crate::set_runtime_enabled`]); tree *capture*
//! additionally toggles via [`set_trace_capture`] so the benchmark can
//! A/B it in one binary.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
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

/// Switches span-tree *capture* (the tree-building half of tracing) on or
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

/// A span attribute value, stored as recorded and formatted only when
/// a reader asks: [`span_attr!`](crate::span_attr) takes integers and
/// `&'static str`s, so tagging a span allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A static string (stage arms, modes).
    Str(&'static str),
    /// An owned string, from a [`SpanNode`] handed to
    /// [`TraceStore::record`].
    Text(Box<str>),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Text(s) => f.write_str(s),
        }
    }
}

macro_rules! attr_from {
    ($variant:ident: $($t:ty),*) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> Self {
                AttrValue::$variant(v as _)
            }
        }
    )*};
}
attr_from!(U64: u8, u16, u32, u64, usize);
attr_from!(I64: i8, i16, i32, i64, isize);

impl From<&'static str> for AttrValue {
    fn from(s: &'static str) -> Self {
        AttrValue::Str(s)
    }
}

/// One span of a tree under construction or in the store. Nodes sit in
/// a flat buffer in entry order (preorder), each pointing at its parent.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    name: &'static str,
    /// Index of the parent node; the root's is `u32::MAX`.
    parent: u32,
    total_secs: f64,
    /// While the span is open: the total time of its closed children.
    /// Once closed: its self time.
    self_secs: f64,
    /// Children kept (at most [`MAX_CHILDREN`]).
    children: u32,
    children_dropped: u64,
}

/// A completed tree in flat form: what capture builds and the store
/// keeps. `seq` orders trees across shards; `SpanNode`s are made from
/// it only on read.
#[derive(Debug, Default)]
struct FlatTree {
    seq: u64,
    nodes: Vec<FlatNode>,
    /// `(node index, key, value)`, in the order they were set.
    attrs: Vec<(u32, &'static str, AttrValue)>,
}

impl FlatTree {
    fn root(&self) -> &FlatNode {
        &self.nodes[0]
    }

    /// Copies `other` into `self`, reusing `self`'s buffers.
    fn copy_from(&mut self, other: &FlatTree) {
        self.seq = other.seq;
        self.nodes.clone_from(&other.nodes);
        self.attrs.clone_from(&other.attrs);
    }

    fn has_attr(&self, key: &str, value: &str) -> bool {
        self.attrs
            .iter()
            .any(|(_, k, v)| *k == key && v.to_string() == value)
    }

    /// Builds the `SpanNode` tree. Ids are `seq << 32 | preorder index`,
    /// so they are process-unique per store, stable across reads and
    /// increase in entry order.
    fn to_node(&self) -> SpanNode {
        self.subtree(0).0
    }

    /// The subtree rooted at node `i`, and the index just past it (a
    /// subtree is contiguous in preorder).
    fn subtree(&self, i: usize) -> (SpanNode, usize) {
        let n = &self.nodes[i];
        let mut node = SpanNode {
            id: self.seq << 32 | i as u64,
            name: n.name.to_owned(),
            total_secs: n.total_secs,
            self_secs: n.self_secs,
            attrs: self
                .attrs
                .iter()
                .filter(|(at, _, _)| *at as usize == i)
                .map(|(_, k, v)| ((*k).to_owned(), v.to_string()))
                .collect(),
            children: Vec::with_capacity(n.children as usize),
            children_dropped: n.children_dropped,
        };
        let mut next = i + 1;
        while self.nodes.get(next).is_some_and(|c| c.parent as usize == i) {
            let (child, end) = self.subtree(next);
            node.children.push(child);
            next = end;
        }
        (node, next)
    }

    /// Flattens a `SpanNode` tree (for [`TraceStore::record`]).
    fn from_node(root: &SpanNode) -> FlatTree {
        fn walk(node: &SpanNode, parent: u32, tree: &mut FlatTree) {
            let idx = tree.nodes.len() as u32;
            tree.nodes.push(FlatNode {
                name: static_name(&node.name),
                parent,
                total_secs: node.total_secs,
                self_secs: node.self_secs,
                children: node.children.len() as u32,
                children_dropped: node.children_dropped,
            });
            for (k, v) in &node.attrs {
                let value = AttrValue::Text(v.as_str().into());
                tree.attrs.push((idx, static_name(k), value));
            }
            for child in &node.children {
                walk(child, idx, tree);
            }
        }
        let mut tree = FlatTree::default();
        walk(root, u32::MAX, &mut tree);
        tree
    }
}

/// A `&'static str` equal to `name`: the interned copy when the name is
/// known, else a leaked one, interned so each distinct name leaks once.
fn static_name(name: &str) -> &'static str {
    let mut table = intern_table().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(n) = table.iter().find(|n| **n == name) {
        return n;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

/// One open span of the thread's tree.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    node: usize,
    /// `attrs.len()` when the span opened: everything set after belongs
    /// to it or its descendants.
    attrs_at: usize,
}

/// This thread's tree under construction, in reused buffers.
#[derive(Default)]
struct Builder {
    tree: FlatTree,
    open: Vec<OpenSpan>,
}

impl Builder {
    /// Forgets the subtree rooted at `span` (the span itself included).
    fn discard(&mut self, span: OpenSpan) {
        self.tree.nodes.truncate(span.node);
        self.tree.attrs.truncate(span.attrs_at);
    }
}

thread_local! {
    static BUILD: RefCell<Builder> = RefCell::new(Builder::default());
    /// This thread's shard of the global store, claimed on the first
    /// completed root and released when the thread exits.
    static SHARD: ShardHandle = const { ShardHandle(RefCell::new(None)) };
}

/// The token a [`crate::Span`] holds between enter and drop.
#[derive(Debug)]
pub(crate) struct FrameToken {
    /// Live-stack depth at entry (restored on pop).
    depth: usize,
    /// Open-span index of this span, when capture opened one.
    build_idx: Option<usize>,
}

/// Enters a span: publishes a live-stack frame for the profiler and
/// (when capture is on) opens a node in the thread's flat tree.
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
    // lint:allow(atomic-ordering) capture gate only decides whether to build a node; tree state itself is thread-local
    let build_idx = if CAPTURE.load(Ordering::Relaxed) {
        BUILD
            .try_with(|build| {
                let mut build = build.borrow_mut();
                let b = &mut *build;
                let parent = match b.open.last() {
                    Some(open) => open.node as u32,
                    None => {
                        b.tree.nodes.clear();
                        b.tree.attrs.clear();
                        u32::MAX
                    }
                };
                b.open.push(OpenSpan {
                    node: b.tree.nodes.len(),
                    attrs_at: b.tree.attrs.len(),
                });
                b.tree.nodes.push(FlatNode {
                    name,
                    parent,
                    total_secs: 0.0,
                    self_secs: 0.0,
                    children: 0,
                    children_dropped: 0,
                });
                b.open.len() - 1
            })
            .ok()
    } else {
        None
    };
    Some(FrameToken { depth, build_idx })
}

/// Leaves a span: retracts the live-stack frame and (when a node is
/// open) closes it into its parent — or, for a root, hands the tree to
/// this thread's shard of the global [`TraceStore`]. `abandoned` spans
/// (dropped mid-panic) tear their subtree down without recording it.
pub(crate) fn pop_frame(token: FrameToken, total_secs: f64, abandoned: bool) {
    let _ = LIVE.try_with(|stack| stack.depth.store(token.depth, Ordering::Release));
    let Some(build_idx) = token.build_idx else {
        return;
    };
    let _ = BUILD.try_with(|build| {
        let mut build = build.borrow_mut();
        let b = &mut *build;
        // Defensive against non-LIFO drops: anything still open above
        // this span is discarded rather than misattributed.
        if let Some(&above) = b.open.get(build_idx + 1) {
            b.discard(above);
            b.open.truncate(build_idx + 1);
        }
        if b.open.len() != build_idx + 1 {
            return;
        }
        let Some(span) = b.open.pop() else { return };
        if abandoned {
            b.discard(span);
            return;
        }
        let node = &mut b.tree.nodes[span.node];
        node.self_secs = (total_secs - node.self_secs).max(0.0);
        node.total_secs = total_secs;
        match b.open.last() {
            Some(open) => {
                let parent = &mut b.tree.nodes[open.node];
                parent.self_secs += total_secs;
                if (parent.children as usize) < MAX_CHILDREN {
                    parent.children += 1;
                } else {
                    parent.children_dropped += 1;
                    b.discard(span);
                }
            }
            None => {
                let _ = SHARD.try_with(|shard| {
                    let store = TraceStore::global();
                    store.push(&shard.claim(store), &mut b.tree);
                });
            }
        }
    });
}

/// Attaches a typed attribute (`key=value`) to the innermost open
/// span on this thread. No-op when no span is open or capture is off;
/// prefer the [`crate::span_attr!`] macro, which also skips evaluating
/// the value when tracing is disabled.
pub fn set_attr(key: &'static str, value: impl Into<AttrValue>) {
    if !trace_capture_enabled() {
        return;
    }
    let _ = BUILD.try_with(|build| {
        let mut build = build.borrow_mut();
        let b = &mut *build;
        if let Some(open) = b.open.last() {
            b.tree.attrs.push((open.node as u32, key, value.into()));
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

/// One thread's part of a [`TraceStore`]: its newest trees and its
/// slowest tree per root name.
#[derive(Default)]
struct Shard {
    ring: VecDeque<FlatTree>,
    exemplars: Vec<FlatTree>,
    recorded: u64,
    dropped: u64,
}

/// A shard and whether a live thread owns it.
#[derive(Default)]
struct Slot {
    owned: AtomicBool,
    shard: Mutex<Shard>,
}

impl Slot {
    fn lock(&self) -> std::sync::MutexGuard<'_, Shard> {
        self.shard.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A thread's claim on a slot of the global store; dropping it (at
/// thread exit) frees the slot, trees kept, for the next thread.
struct ShardHandle(RefCell<Option<Arc<Slot>>>);

impl ShardHandle {
    fn claim(&self, store: &TraceStore) -> Arc<Slot> {
        self.0
            .borrow_mut()
            .get_or_insert_with(|| store.claim_slot())
            .clone()
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        if let Some(slot) = self.0.get_mut() {
            slot.owned.store(false, Ordering::Release);
        }
    }
}

/// A bounded drop-oldest store of completed span trees with per-stage
/// slow-trace exemplars. One process-global instance ([`TraceStore::global`])
/// receives every finished root span.
///
/// The store is sharded by thread: each capturing thread files its
/// trees into its own shard, under a lock only readers contend for, and
/// one atomic add per tree orders trees across shards. Readers see the
/// newest `capacity` trees of all shards. A shard drops (and counts in
/// `trace_store_dropped_total`) a tree when it is full or when
/// `capacity` newer trees exist store-wide.
pub struct TraceStore {
    slots: Mutex<Vec<Arc<Slot>>>,
    capacity: AtomicUsize,
    next_seq: AtomicU64,
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
            slots: Mutex::new(Vec::new()),
            capacity: AtomicUsize::new(capacity),
            next_seq: AtomicU64::new(1),
        }
    }

    /// The process-global store every completed root span lands in.
    pub fn global() -> &'static TraceStore {
        static STORE: OnceLock<TraceStore> = OnceLock::new();
        STORE.get_or_init(TraceStore::default)
    }

    fn slots(&self) -> Vec<Arc<Slot>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// A slot no live thread owns, or a new one, now owned.
    fn claim_slot(&self) -> Arc<Slot> {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let free = slots.iter().find(|s| {
            s.owned
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        });
        if let Some(slot) = free {
            return slot.clone();
        }
        let slot = Arc::new(Slot {
            owned: AtomicBool::new(true),
            shard: Mutex::default(),
        });
        slots.push(slot.clone());
        slot
    }

    fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed) // lint:allow(atomic-ordering) a configuration value; no data is published under it
    }

    /// Files a finished tree in `slot`'s shard. `tree` comes back empty,
    /// holding the buffers of the tree it evicted when there was one.
    fn push(&self, slot: &Slot, tree: &mut FlatTree) {
        // One atomic add per tree: a ticket that orders trees across
        // shards; the tree itself is published under the shard lock.
        tree.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let cap = self.capacity();
        let mut shard = slot.lock();
        let shard = &mut *shard;
        shard.recorded += 1;
        let (name, total) = (tree.root().name, tree.root().total_secs);
        match shard.exemplars.iter_mut().find(|t| t.root().name == name) {
            Some(worst) => {
                if total > worst.root().total_secs {
                    worst.copy_from(tree);
                }
            }
            None => {
                let mut worst = FlatTree::default();
                worst.copy_from(tree);
                shard.exemplars.push(worst);
            }
        }
        if cap == 0 {
            // Like an `obs::Ring` of capacity 0: keeps nothing, counts
            // nothing.
            tree.nodes.clear();
            tree.attrs.clear();
            return;
        }
        let mut spare = FlatTree::default();
        while shard
            .ring
            .front()
            .is_some_and(|t| shard.ring.len() >= cap || t.seq + cap as u64 <= tree.seq)
        {
            spare = shard.ring.pop_front().unwrap_or_default();
            shard.dropped += 1;
            crate::counter!(crate::names::TRACE_STORE_DROPPED_TOTAL);
        }
        std::mem::swap(&mut spare, tree);
        tree.nodes.clear();
        tree.attrs.clear();
        shard.ring.push_back(spare);
    }

    /// Runs `f` over every shard, all locked at once.
    fn read<R>(&self, f: impl FnOnce(&[&Shard]) -> R) -> R {
        let slots = self.slots();
        let guards: Vec<_> = slots.iter().map(|s| s.lock()).collect();
        let shards: Vec<&Shard> = guards.iter().map(|g| &**g).collect();
        f(&shards)
    }

    /// The trees readers see, newest first: the newest `capacity`.
    fn visible<'a>(&self, shards: &[&'a Shard]) -> Vec<&'a FlatTree> {
        let mut trees: Vec<&FlatTree> = shards.iter().flat_map(|s| s.ring.iter()).collect();
        trees.sort_unstable_by_key(|t| std::cmp::Reverse(t.seq));
        trees.truncate(self.capacity());
        trees
    }

    /// The slowest tree per root name across shards (the earliest on a
    /// tie), sorted by name.
    fn worst<'a>(shards: &[&'a Shard]) -> Vec<&'a FlatTree> {
        let mut out: Vec<&FlatTree> = Vec::new();
        for t in shards.iter().flat_map(|s| s.exemplars.iter()) {
            match out.iter_mut().find(|w| w.root().name == t.root().name) {
                Some(w) => {
                    let (a, b) = (t.root().total_secs, w.root().total_secs);
                    if a > b || (a == b && t.seq < w.seq) {
                        *w = t;
                    }
                }
                None => out.push(t),
            }
        }
        out.sort_by(|a, b| a.root().name.cmp(b.root().name));
        out
    }

    /// Records one completed tree, evicting the oldest past capacity
    /// (counted in `trace_store_dropped_total`) and promoting it to
    /// the exemplar slot for its root name when it is the slowest seen.
    /// Node ids are reassigned from the store's sequence.
    pub fn record(&self, root: SpanNode) {
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            if slots.is_empty() {
                slots.push(Arc::default());
            }
            slots[0].clone()
        };
        self.push(&slot, &mut FlatTree::from_node(&root));
    }

    /// The `n` most recent trees, newest first.
    pub fn recent(&self, n: usize) -> Vec<SpanNode> {
        self.read(|shards| {
            let mut trees = self.visible(shards);
            trees.truncate(n);
            trees.iter().map(|t| t.to_node()).collect()
        })
    }

    /// The slowest completed tree whose root is named `name`.
    pub fn exemplar(&self, name: &str) -> Option<SpanNode> {
        self.read(|shards| {
            Self::worst(shards)
                .into_iter()
                .find(|t| t.root().name == name)
                .map(FlatTree::to_node)
        })
    }

    /// Every slow-trace exemplar, sorted by root name.
    pub fn exemplars(&self) -> Vec<SpanNode> {
        self.read(|shards| {
            Self::worst(shards)
                .into_iter()
                .map(FlatTree::to_node)
                .collect()
        })
    }

    /// Finds the most recent tree containing a span with `key=value`,
    /// falling back to the exemplars when the ring has rolled past it.
    pub fn find_by_attr(&self, key: &str, value: &str) -> Option<SpanNode> {
        self.read(|shards| {
            self.visible(shards)
                .into_iter()
                .chain(Self::worst(shards))
                .find(|t| t.has_attr(key, value))
                .map(FlatTree::to_node)
        })
    }

    /// Trees currently retained.
    pub fn len(&self) -> usize {
        self.read(|shards| self.visible(shards).len())
    }

    /// `true` when the store holds no trees.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Trees recorded over the store's lifetime.
    pub fn recorded_total(&self) -> u64 {
        self.read(|shards| shards.iter().map(|s| s.recorded).sum())
    }

    /// Trees evicted on overflow.
    pub fn dropped_total(&self) -> u64 {
        self.read(|shards| shards.iter().map(|s| s.dropped).sum())
    }

    /// Resizes the store (evicting oldest immediately if shrinking;
    /// configuration, not pressure, so nothing is counted as dropped).
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed); // lint:allow(atomic-ordering) a configuration value; shards apply it under their locks
        for slot in self.slots() {
            let mut shard = slot.lock();
            let excess = shard.ring.len().saturating_sub(capacity);
            shard.ring.drain(..excess);
        }
    }

    /// Clears retained trees, exemplars, and lifetime counts.
    pub fn clear(&self) {
        for slot in self.slots() {
            *slot.lock() = Shard::default();
        }
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
        crate::reset();
        TraceStore::global().clear();
        {
            let _root = crate::span!("tree_root");
            set_attr("day", 14u32);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _child = crate::span!("tree_child");
                set_attr("arm", "dp");
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
    fn captured_children_past_the_cap_are_counted_not_kept() {
        let _g = crate::test_serial();
        crate::reset();
        TraceStore::global().clear();
        {
            let _root = crate::span!("cap_root");
            for i in 0..MAX_CHILDREN + 6 {
                let _child = crate::span!("cap_child");
                set_attr("i", i);
                let _grandchild = crate::span!("cap_grandchild");
            }
            set_attr("after", "children");
        }
        let root = TraceStore::global().exemplar("cap_root").unwrap();
        assert_eq!(root.children.len(), MAX_CHILDREN);
        assert_eq!(root.children_dropped, 6);
        assert_eq!(root.attr("after"), Some("children"));
        assert_eq!(root.node_count(), 1 + 2 * MAX_CHILDREN);
        for (i, child) in root.children.iter().enumerate() {
            assert_eq!(child.attr("i"), Some(i.to_string().as_str()));
            assert_eq!(child.children.len(), 1);
        }
        TraceStore::global().clear();
        crate::reset();
    }

    #[test]
    fn abandoned_child_leaves_its_parent_recorded() {
        let _g = crate::test_serial();
        crate::reset();
        TraceStore::global().clear();
        {
            let _root = crate::span!("abandon_root");
            set_attr("delta", -3i64);
            let unwound = std::panic::catch_unwind(|| {
                let _child = crate::span!("abandon_child");
                set_attr("lost", 1u8);
                panic!("boom");
            });
            assert!(unwound.is_err());
            let _kept = crate::span!("abandon_kept");
        }
        let trees = TraceStore::global().recent(5);
        assert_eq!(trees.len(), 1);
        let root = &trees[0];
        assert_eq!(root.attrs, [("delta".to_owned(), "-3".to_owned())]);
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "abandon_kept");
        assert!(TraceStore::global().find_by_attr("lost", "1").is_none());
        TraceStore::global().clear();
        crate::reset();
    }

    #[test]
    fn threads_capture_into_their_own_shards() {
        let _g = crate::test_serial();
        crate::reset();
        let store = TraceStore::global();
        store.clear();
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                scope.spawn(move || {
                    for d in 0..3u32 {
                        let _root = crate::span!("shard_root");
                        set_attr("thread", t);
                        set_attr("day", d);
                        let _child = crate::span!("shard_child");
                    }
                });
            }
        });
        assert_eq!(store.recorded_total(), 6);
        assert_eq!(store.len(), 6);
        let trees = store.recent(10);
        let mut ids: Vec<u64> = trees.iter().map(|t| t.id).collect();
        assert!(ids.windows(2).all(|w| w[0] > w[1]), "newest first: {ids:?}");
        ids.extend(trees.iter().map(|t| t.children[0].id));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12, "ids are unique across shards");
        for t in 0..2 {
            let days: Vec<&str> = trees
                .iter()
                .filter(|tree| tree.attr("thread") == Some(t.to_string().as_str()))
                .map(|tree| tree.attr("day").unwrap())
                .collect();
            assert_eq!(days, ["2", "1", "0"], "thread {t}");
        }
        // Readers see the newest `capacity` trees of all shards.
        store.set_capacity(4);
        assert_eq!(store.len(), 4);
        assert_eq!(store.recent(10), trees[..4]);
        assert_eq!(store.dropped_total(), 0, "shrinking is not pressure");
        store.set_capacity(DEFAULT_TRACE_CAPACITY);
        store.clear();
        crate::reset();
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
