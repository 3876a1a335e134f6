//! The runtime-dispatch shim: [`AnyScheme`] implements [`CcProtocol`] by
//! matching the database's configured [`CcScheme`] **per operation** and
//! forwarding to the static per-scheme impls.
//!
//! This is the pre-monomorphization engine's dispatch structure, kept as
//! the convenience API: [`crate::db::Database::worker`] hands out a
//! `WorkerCtx<AnyScheme>` so callers that cannot name the scheme in their
//! types (tests iterating [`CcScheme::ALL`], examples, ad-hoc tools) keep
//! working unchanged. The run drivers never use it.
//!
//! Every capability hook is overridden to answer from the configured
//! scheme; the associated consts are never consulted for this type (the
//! `capability_surfaces_agree` test in [`super`] pins the hooks to the
//! static impls' consts).

use abyss_common::{AbortReason, CcScheme, Key, PartId, RowIdx, TableId, TxnId};
use abyss_storage::Schema;

use super::twopl;
use super::{dispatch_protocol, CcProtocol, ReadRef, SchemeEnv};
use crate::db::Database;
use crate::meta::{LockMode, RowMeta};
use crate::txn::TxnState;
use crate::worker::{TxnError, WorkerCtx};

/// Runtime dispatch over all nine schemes (see the module docs).
pub struct AnyScheme;

impl CcProtocol for AnyScheme {
    const STATIC_SCHEME: Option<CcScheme> = None;
    // Unused for this type: every capability hook below answers from the
    // run's configured scheme instead.
    const NEEDS_TS: bool = false;
    const TS_REUSE_ON_RESTART: bool = false;
    const USES_EPOCH: bool = false;
    const ACQUIRES_PARTITIONS: bool = false;
    const TRACKS_WAITS: bool = false;
    const GUARDS_DELETED: bool = true;
    const BACKOFF_GAIN_PCT: u32 = 0;
    const BACKOFF_CEILING_US: u64 = 0;
    const RO_COMMIT_SKIPS_TS: bool = false;

    #[inline]
    fn needs_ts(scheme: CcScheme) -> bool {
        scheme.needs_start_ts()
    }

    #[inline]
    fn ts_reuse_on_restart(scheme: CcScheme) -> bool {
        scheme.reuses_ts_on_restart()
    }

    #[inline]
    fn uses_epoch(scheme: CcScheme) -> bool {
        scheme.uses_epoch()
    }

    #[inline]
    fn tracks_waits(scheme: CcScheme) -> bool {
        scheme.tracks_waits()
    }

    #[inline]
    fn guards_deleted(scheme: CcScheme) -> bool {
        scheme.guards_deleted_rows()
    }

    #[inline]
    fn backoff_gain_pct(scheme: CcScheme) -> u32 {
        scheme.backoff_gain_pct()
    }

    #[inline]
    fn backoff_ceiling_us(scheme: CcScheme) -> u64 {
        scheme.backoff_ceiling_us()
    }

    #[inline]
    fn ro_commit_skips_ts(scheme: CcScheme) -> bool {
        scheme.ro_commit_skips_ts()
    }

    fn begin(env: &mut SchemeEnv<'_>, partitions: &[PartId]) -> Result<(), AbortReason> {
        dispatch_protocol!(env.db.cfg.scheme, P => P::begin(env, partitions))
    }

    fn read(env: &mut SchemeEnv<'_>, table: TableId, row: RowIdx) -> Result<ReadRef, AbortReason> {
        dispatch_protocol!(env.db.cfg.scheme, P => P::read(env, table, row))
    }

    fn write(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        row: RowIdx,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason> {
        dispatch_protocol!(env.db.cfg.scheme, P => P::write(env, table, row, f))
    }

    fn insert(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason> {
        dispatch_protocol!(env.db.cfg.scheme, P => P::insert(env, table, key, f))
    }

    fn delete(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        row: RowIdx,
    ) -> Result<(), AbortReason> {
        dispatch_protocol!(env.db.cfg.scheme, P => P::delete(env, table, key, row))
    }

    fn read_for_scan(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        row: RowIdx,
    ) -> Result<Option<ReadRef>, AbortReason> {
        dispatch_protocol!(env.db.cfg.scheme, P => P::read_for_scan(env, table, row))
    }

    /// Scan cannot forward to `P::scan` (the context is typed
    /// `WorkerCtx<AnyScheme>`, not `WorkerCtx<P>`), so it selects the same
    /// driver the static impl would. This mapping MUST mirror each
    /// scheme's `CcProtocol::scan` choice — the worker test
    /// `shim_and_mono_scan_drivers_agree` runs an identical scan history
    /// through both flavors to keep it honest.
    fn scan(
        ctx: &mut WorkerCtx<Self>,
        table: TableId,
        low: Key,
        high: Key,
        f: &mut dyn FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError> {
        match ctx.db.cfg.scheme {
            CcScheme::NoWait | CcScheme::DlDetect | CcScheme::WaitDie => {
                twopl::scan_2pl::<Self>(ctx, table, low, high, f)
            }
            CcScheme::HStore => ctx.scan_hstore(table, low, high, f),
            CcScheme::Timestamp | CcScheme::Mvcc => ctx.scan_to(table, low, high, f),
            CcScheme::Occ | CcScheme::Silo | CcScheme::TicToc => ctx.scan_occ(table, low, high, f),
        }
    }

    fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
        dispatch_protocol!(env.db.cfg.scheme, P => P::commit(env))
    }

    fn abort(env: &mut SchemeEnv<'_>) {
        dispatch_protocol!(env.db.cfg.scheme, P => P::abort(env))
    }
}

/// The 2PL scan driver's lock primitive needs a [`twopl::Variant`]; the
/// shim provides it by dispatching on the three locking schemes (anything
/// else never reaches these hooks).
impl twopl::Variant for AnyScheme {
    fn acquire(
        env: &mut SchemeEnv<'_>,
        meta: &RowMeta,
        mode: LockMode,
        upgrade: bool,
    ) -> Result<(), AbortReason> {
        match env.db.cfg.scheme {
            CcScheme::NoWait => twopl::NoWait::acquire(env, meta, mode, upgrade),
            CcScheme::DlDetect => twopl::DlDetect::acquire(env, meta, mode, upgrade),
            CcScheme::WaitDie => twopl::WaitDie::acquire(env, meta, mode, upgrade),
            other => unreachable!("2PL lock acquire under {other}"),
        }
    }

    fn release_one(db: &Database, txn: TxnId, meta: &RowMeta, mode: LockMode) {
        match db.cfg.scheme {
            CcScheme::NoWait => twopl::NoWait::release_one(db, txn, meta, mode),
            CcScheme::DlDetect => twopl::DlDetect::release_one(db, txn, meta, mode),
            CcScheme::WaitDie => twopl::WaitDie::release_one(db, txn, meta, mode),
            other => unreachable!("2PL lock release under {other}"),
        }
    }

    fn seed_exclusive(db: &Database, st: &TxnState, meta: &RowMeta) {
        match db.cfg.scheme {
            CcScheme::NoWait => twopl::NoWait::seed_exclusive(db, st, meta),
            CcScheme::DlDetect => twopl::DlDetect::seed_exclusive(db, st, meta),
            CcScheme::WaitDie => twopl::WaitDie::seed_exclusive(db, st, meta),
            other => unreachable!("2PL lock seed under {other}"),
        }
    }
}
