//! Template executor: runs engine-agnostic [`TxnTemplate`]s (from
//! `abyss-workload`) against a [`crate::worker::WorkerCtx`].
//!
//! This is the glue the benchmark driver uses; library users with custom
//! transaction logic call [`crate::worker::WorkerCtx::run_txn`] directly.

use abyss_common::txn::MAX_COUNTER_SLOTS;
use abyss_common::{AbortReason, AccessOp, Key, TxnTemplate};
use abyss_storage::{row, Schema};

use crate::schemes::CcProtocol;
use crate::worker::{TxnError, WorkerCtx};

/// The column templates read-modify-write (column 0 is the primary key).
pub const HOT_COL: usize = 1;

/// Default update: bump the hot column (first 8 bytes) — the generic
/// "modify the tuple" of YCSB and the YTD/quantity updates of TPC-C.
fn apply_update(schema: &Schema, data: &mut [u8]) {
    row::fetch_add_u64(schema, data, HOT_COL, 1);
}

/// Default insert image: the key in column 0.
fn init_insert(schema: &Schema, data: &mut [u8], key: Key) {
    row::set_u64(schema, data, 0, key);
}

/// Execute `tmpl` as one transaction attempt inside an active retry loop.
fn body<P: CcProtocol>(t: &mut WorkerCtx<P>, tmpl: &TxnTemplate) -> Result<(), TxnError> {
    let mut counters = [0u64; MAX_COUNTER_SLOTS];
    let mut sink = 0u64;
    for a in &tmpl.accesses {
        let key = a.key.resolve(&counters);
        match a.op {
            AccessOp::Read => {
                let data = t.read(a.table, key)?;
                // Touch the row so the read cannot be optimized away.
                sink ^= u64::from(data[0]) ^ u64::from(data[data.len() - 1]);
            }
            AccessOp::Update => t.update(a.table, key, apply_update)?,
            AccessOp::UpdateCounter { slot } => {
                counters[slot as usize] = t.update_counter(a.table, key, HOT_COL, 1)?;
            }
            AccessOp::Insert => t.insert(a.table, key, |s, d| init_insert(s, d, key))?,
            AccessOp::Scan { len } => {
                let high = key.saturating_add(u64::from(len).max(1) - 1);
                let n = t.scan(a.table, key, high, |_, _, data| {
                    sink ^= u64::from(data[0]);
                })?;
                sink ^= n as u64;
            }
        }
    }
    std::hint::black_box(sink);
    if tmpl.user_abort {
        return Err(TxnError::Abort(AbortReason::UserAbort));
    }
    Ok(())
}

/// Run `tmpl` to commit, retrying scheduler aborts (restart in the same
/// worker, §3.2). Returns the error only for user aborts or template bugs.
///
/// Templates whose access list is statically read-only take the read-only
/// fast path: the engine skips write-side bookkeeping — WAL-horizon epoch
/// registration, OCC's validation timestamp — that a read-only
/// transaction can never need.
pub fn run_template<P: CcProtocol>(
    ctx: &mut WorkerCtx<P>,
    tmpl: &TxnTemplate,
) -> Result<(), TxnError> {
    ctx.run_txn_with_hint(&tmpl.partitions, tmpl.is_read_only(), |t| body(t, tmpl))
}

/// [`run_template`] plus statistics bookkeeping — the benchmark driver's
/// inner loop.
pub fn run_to_commit<P: CcProtocol>(ctx: &mut WorkerCtx<P>, tmpl: &TxnTemplate) {
    match run_template(ctx, tmpl) {
        Ok(()) => {
            ctx.stats.record_commit(tmpl.tag);
            ctx.stats.tuples_committed += tmpl.len() as u64;
        }
        Err(TxnError::Abort(AbortReason::UserAbort)) => {
            ctx.stats.record_abort(AbortReason::UserAbort);
        }
        Err(e) => panic!("workload template failed non-transactionally: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::db::Database;
    use crate::schemes::{CcProtocol, NoWait, Occ, Silo, TicToc, Timestamp};
    use abyss_common::{AccessSpec, CcScheme, KeySpec};
    use abyss_storage::{Catalog, Schema};
    use std::sync::Arc;

    fn db(scheme: CcScheme) -> Arc<Database> {
        let mut cat = Catalog::new();
        cat.add_table("t", Schema::key_plus_payload(2, 8), 1000);
        let db = Database::new(EngineConfig::new(scheme, 1), cat).unwrap();
        db.load_table(0, 0..100u64, |s, r, k| {
            row::set_u64(s, r, 0, k);
            row::set_u64(s, r, 1, 1000);
        })
        .unwrap();
        db
    }

    fn counter_then_insert_template() -> TxnTemplate {
        TxnTemplate::new(vec![
            AccessSpec {
                table: 0,
                key: KeySpec::Fixed(3),
                op: AccessOp::UpdateCounter { slot: 0 },
            },
            AccessSpec {
                table: 0,
                key: KeySpec::Derived {
                    slot: 0,
                    base: 0,
                    scale: 1,
                },
                op: AccessOp::Insert,
            },
        ])
    }

    #[test]
    fn derived_insert_uses_captured_counter() {
        fn check<P: CcProtocol>() {
            let scheme = P::SCHEME;
            let db = db(scheme);
            let mut ctx = db.worker_as::<P>(0);
            let tmpl = counter_then_insert_template();
            run_template(&mut ctx, &tmpl).unwrap();
            // counter at key 3 was 1000 → insert lands at key 1000
            assert!(db.peek(0, 1000).is_ok(), "{scheme}: derived insert missing");
            assert_eq!(
                row::get_u64(db.schema(0), &db.peek(0, 3).unwrap(), 1),
                1001,
                "{scheme}: counter not bumped"
            );
        }
        for scheme in CcScheme::NON_PARTITIONED {
            crate::dispatch_protocol!(scheme, P => check::<P>());
        }
    }

    #[test]
    fn read_only_templates_skip_the_validation_timestamp() {
        // OCC draws two timestamps per transaction (begin + validation);
        // the read-only hint `run_template` passes drops exactly the
        // validation one, while `run_txn` (no hint) pays both. SILO and
        // TICTOC never touch the allocator either way.
        fn check<P: CcProtocol>(hinted: u64, unhinted: u64) {
            let scheme = P::SCHEME;
            let tmpl = TxnTemplate::new(vec![
                AccessSpec::fixed(0, 1, AccessOp::Read),
                AccessSpec::fixed(0, 2, AccessOp::Read),
            ]);
            let txns = 100;
            let db = db(scheme);
            let mut ctx = db.worker_as::<P>(0);
            for _ in 0..txns {
                run_template(&mut ctx, &tmpl).unwrap();
            }
            assert_eq!(
                ctx.stats.ts_allocated,
                hinted * txns,
                "{scheme}: run_template"
            );
            ctx.stats.ts_allocated = 0;
            for _ in 0..txns {
                ctx.run_txn(&tmpl.partitions, |t| body(t, &tmpl)).unwrap();
            }
            assert_eq!(ctx.stats.ts_allocated, unhinted * txns, "{scheme}: run_txn");
        }
        check::<Occ>(1, 2);
        check::<Silo>(0, 0);
        check::<TicToc>(0, 0);
    }

    #[test]
    fn user_abort_is_recorded_not_retried() {
        let db = db(CcScheme::NoWait);
        let mut ctx = db.worker_as::<NoWait>(0);
        let mut tmpl = TxnTemplate::new(vec![AccessSpec::fixed(0, 1, AccessOp::Update)]);
        tmpl.user_abort = true;
        run_to_commit(&mut ctx, &tmpl);
        assert_eq!(ctx.stats.commits, 0);
        assert_eq!(ctx.stats.aborts_for(AbortReason::UserAbort), 1);
        // the update was rolled back
        assert_eq!(row::get_u64(db.schema(0), &db.peek(0, 1).unwrap(), 1), 1000);
    }

    #[test]
    fn commits_and_tuples_counted() {
        let db = db(CcScheme::Timestamp);
        let mut ctx = db.worker_as::<Timestamp>(0);
        let tmpl = TxnTemplate::new(vec![
            AccessSpec::fixed(0, 1, AccessOp::Read),
            AccessSpec::fixed(0, 2, AccessOp::Update),
        ]);
        run_to_commit(&mut ctx, &tmpl);
        assert_eq!(ctx.stats.commits, 1);
        assert_eq!(ctx.stats.tuples_committed, 2);
    }
}
