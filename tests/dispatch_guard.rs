//! Source-level guard for the monomorphized CC pipeline: the worker's
//! access paths must contain **zero** scheme dispatch. All per-scheme
//! behavior lives behind `CcProtocol`; the only place allowed to match on
//! the scheme enum is the `dispatch_protocol!` macro (the per-run
//! monomorphization point). A `match` on the scheme creeping back into
//! `worker.rs` or a scheme module is exactly the regression this
//! refactor removed — fail loudly.

/// Forbidden dispatch patterns: an enum match or `matches!` on the
/// configured scheme.
fn dispatch_patterns(src: &str) -> Vec<&'static str> {
    let mut hits = Vec::new();
    for pat in [
        "match self.db.cfg.scheme",
        "match env.db.cfg.scheme",
        "match db.cfg.scheme",
        "match ctx.db.cfg.scheme",
        "match scheme",
        "match cfg.scheme",
        "matches!(scheme",
        "matches!(self.db.cfg.scheme",
        "matches!(env.db.cfg.scheme",
        "matches!(db.cfg.scheme",
        "matches!(ctx.db.cfg.scheme",
        "matches!(cfg.scheme",
    ] {
        if src.contains(pat) {
            hits.push(pat);
        }
    }
    hits
}

#[test]
fn worker_access_paths_are_dispatch_free() {
    let sources = [
        ("worker.rs", include_str!("../crates/core/src/worker.rs")),
        (
            "executor.rs",
            include_str!("../crates/core/src/executor.rs"),
        ),
    ];
    for (name, src) in sources {
        let hits = dispatch_patterns(src);
        assert!(
            hits.is_empty(),
            "crates/core/src/{name} regained scheme dispatch in an access path: {hits:?}"
        );
    }
}

#[test]
fn scheme_modules_are_dispatch_free() {
    // The per-scheme modules implement exactly one protocol each; any
    // residual enum dispatch inside them is dead weight on the
    // monomorphized path.
    let sources = [
        ("mod.rs", include_str!("../crates/core/src/schemes/mod.rs")),
        (
            "twopl.rs",
            include_str!("../crates/core/src/schemes/twopl.rs"),
        ),
        (
            "timestamp.rs",
            include_str!("../crates/core/src/schemes/timestamp.rs"),
        ),
        (
            "mvcc.rs",
            include_str!("../crates/core/src/schemes/mvcc.rs"),
        ),
        ("occ.rs", include_str!("../crates/core/src/schemes/occ.rs")),
        (
            "silo.rs",
            include_str!("../crates/core/src/schemes/silo.rs"),
        ),
        (
            "tictoc.rs",
            include_str!("../crates/core/src/schemes/tictoc.rs"),
        ),
        (
            "hstore.rs",
            include_str!("../crates/core/src/schemes/hstore.rs"),
        ),
    ];
    for (name, src) in sources {
        let hits = dispatch_patterns(src);
        assert!(
            hits.is_empty(),
            "crates/core/src/schemes/{name} contains runtime scheme dispatch: {hits:?}"
        );
    }
}

#[test]
fn guard_patterns_fire_on_runtime_dispatch() {
    // Positive control: a per-operation dispatch of the kind the guards
    // exist to keep out — if this ever goes empty the guards above are
    // matching the wrong strings.
    let fixture = r#"
        fn read(env: &mut SchemeEnv<'_>, table: TableId, row: RowIdx) -> Result<ReadRef, AbortReason> {
            match env.db.cfg.scheme {
                CcScheme::Silo => Silo::read(env, table, row),
                _ => NoWait::read(env, table, row),
            }
        }
        fn needs_ts(scheme: CcScheme) -> bool {
            !matches!(scheme, CcScheme::NoWait | CcScheme::Silo)
        }
    "#;
    assert_eq!(
        dispatch_patterns(fixture),
        ["match env.db.cfg.scheme", "matches!(scheme"],
        "the guard patterns no longer recognize runtime scheme dispatch"
    );
    assert!(dispatch_patterns("fn read() {}").is_empty());
}
