//! Source-level guard for the unified bench harness (PR 9): `harness/`
//! is the only place in `abyss-bench` allowed to spawn threads or read a
//! wall clock. Every figure binary used to hand-roll its own spawn +
//! `Instant` pairs, so no two figures measured the same way; a raw
//! `Instant::now` or `thread::spawn` creeping back into a figure is
//! exactly the drift this refactor removed — fail loudly.
//!
//! `benches/micro.rs` is exempt: it is a `cargo bench` harness, not a
//! figure binary, and its timing loop is the bench framework itself.

/// Forbidden timing/threading patterns outside `harness/`.
fn timing_patterns(src: &str) -> Vec<&'static str> {
    let mut hits = Vec::new();
    for pat in [
        "Instant::now",
        "time::Instant",
        "thread::spawn",
        "thread::scope",
        "thread::Builder",
    ] {
        if src.contains(pat) {
            hits.push(pat);
        }
    }
    hits
}

#[test]
fn figure_sources_never_time_or_spawn_directly() {
    let sources = [
        ("lib.rs", include_str!("../crates/bench/src/lib.rs")),
        (
            "paper_figs.rs",
            include_str!("../crates/bench/src/paper_figs.rs"),
        ),
        (
            "fig_breakdown.rs",
            include_str!("../crates/bench/src/fig_breakdown.rs"),
        ),
        (
            "fig_durability.rs",
            include_str!("../crates/bench/src/fig_durability.rs"),
        ),
        (
            "fig_latency.rs",
            include_str!("../crates/bench/src/fig_latency.rs"),
        ),
        (
            "fig_modern.rs",
            include_str!("../crates/bench/src/fig_modern.rs"),
        ),
        (
            "fig_regulate.rs",
            include_str!("../crates/bench/src/fig_regulate.rs"),
        ),
        (
            "fig_service.rs",
            include_str!("../crates/bench/src/fig_service.rs"),
        ),
        (
            "fig_ycsbe.rs",
            include_str!("../crates/bench/src/fig_ycsbe.rs"),
        ),
    ];
    for (name, src) in sources {
        let hits = timing_patterns(src);
        assert!(
            hits.is_empty(),
            "crates/bench/src/{name} times or spawns outside the harness: {hits:?}"
        );
    }
}

#[test]
fn figure_binaries_never_time_or_spawn_directly() {
    let sources = [
        (
            "layout_micro.rs",
            include_str!("../crates/bench/src/bin/layout_micro.rs"),
        ),
        ("fig03.rs", include_str!("../crates/bench/src/bin/fig03.rs")),
        ("fig04.rs", include_str!("../crates/bench/src/bin/fig04.rs")),
        ("fig05.rs", include_str!("../crates/bench/src/bin/fig05.rs")),
        ("fig06.rs", include_str!("../crates/bench/src/bin/fig06.rs")),
        ("fig07.rs", include_str!("../crates/bench/src/bin/fig07.rs")),
        ("fig08.rs", include_str!("../crates/bench/src/bin/fig08.rs")),
        ("fig09.rs", include_str!("../crates/bench/src/bin/fig09.rs")),
        ("fig10.rs", include_str!("../crates/bench/src/bin/fig10.rs")),
        ("fig11.rs", include_str!("../crates/bench/src/bin/fig11.rs")),
        ("fig12.rs", include_str!("../crates/bench/src/bin/fig12.rs")),
        ("fig13.rs", include_str!("../crates/bench/src/bin/fig13.rs")),
        ("fig14.rs", include_str!("../crates/bench/src/bin/fig14.rs")),
        ("fig15.rs", include_str!("../crates/bench/src/bin/fig15.rs")),
        ("fig16.rs", include_str!("../crates/bench/src/bin/fig16.rs")),
        ("fig17.rs", include_str!("../crates/bench/src/bin/fig17.rs")),
        (
            "table2.rs",
            include_str!("../crates/bench/src/bin/table2.rs"),
        ),
        (
            "fig_breakdown.rs",
            include_str!("../crates/bench/src/bin/fig_breakdown.rs"),
        ),
        (
            "fig_durability.rs",
            include_str!("../crates/bench/src/bin/fig_durability.rs"),
        ),
        (
            "fig_latency.rs",
            include_str!("../crates/bench/src/bin/fig_latency.rs"),
        ),
        (
            "fig_regulate.rs",
            include_str!("../crates/bench/src/bin/fig_regulate.rs"),
        ),
        (
            "fig_service.rs",
            include_str!("../crates/bench/src/bin/fig_service.rs"),
        ),
    ];
    for (name, src) in sources {
        let hits = timing_patterns(src);
        assert!(
            hits.is_empty(),
            "crates/bench/src/bin/{name} times or spawns outside the harness: {hits:?}"
        );
    }
}

#[test]
fn the_harness_itself_does_time_and_spawn() {
    // Positive control: the harness is *supposed* to own the clock and
    // the threads — if these ever go empty the guard above is probably
    // matching the wrong strings.
    let runner = include_str!("../crates/bench/src/harness/mod.rs");
    let clocks = include_str!("../crates/bench/src/harness/time.rs");
    assert!(
        timing_patterns(runner)
            .iter()
            .any(|p| p.contains("spawn") || p.contains("scope")),
        "harness/mod.rs no longer spawns the threads the guard patterns target"
    );
    assert!(
        timing_patterns(clocks)
            .iter()
            .any(|p| p.contains("Instant")),
        "harness/time.rs no longer reads the clock the guard patterns target"
    );
}
