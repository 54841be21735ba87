/// A scrape route that hand-rolls a metric name instead of going
/// through the registry — the lint must flag the literal.
pub fn rogue_metric_line() -> &'static str {
    "bogus_requests_total"
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_literals_are_exempt() {
        // Metric-shaped strings inside tests are fine.
        assert!(!"test_only_serve_total".is_empty());
    }
}
