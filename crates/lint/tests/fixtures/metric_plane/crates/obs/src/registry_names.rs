metrics! {
    DEMO_TOTAL = "demo_total": "The fixture's one registered metric";
}
