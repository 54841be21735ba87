/// A span-tree store that hand-rolls its drop counter name instead of
/// going through the registry — the plane check must flag the literal.
pub fn rogue_drop_counter() -> &'static str {
    "rogue_spans_dropped_total"
}
