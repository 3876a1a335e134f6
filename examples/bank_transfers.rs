//! Bank transfers: the classic serializability demonstration, run under
//! *every* scheme of the paper, with throughput and abort-rate output —
//! a miniature of the paper's low-vs-high-contention comparison.
//!
//! ```sh
//! cargo run --release --example bank_transfers
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use abyss::common::{CcScheme, PartId};
use abyss::core::{dispatch_protocol, CcProtocol, Database, EngineConfig};
use abyss::storage::{row, Catalog, Schema};

const ACCOUNTS: u64 = 1024;
const WORKERS: u32 = 8;
const TRANSFERS_PER_WORKER: u64 = 20_000;
const INITIAL_BALANCE: u64 = 1_000;

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn run<P: CcProtocol>(hot: bool) -> (f64, f64) {
    let scheme = P::SCHEME;
    let mut catalog = Catalog::new();
    let accounts = catalog.add_table("accounts", Schema::key_plus_payload(1, 8), ACCOUNTS);
    let db = Database::new(EngineConfig::new(scheme, WORKERS), catalog).unwrap();
    db.load_table(accounts, 0..ACCOUNTS, |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, INITIAL_BALANCE);
    })
    .unwrap();

    // Contention knob: all transfers inside 8 hot accounts, or spread out.
    let key_space = if hot { 8 } else { ACCOUNTS };
    let aborts = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let db = Arc::clone(&db);
            let aborts = &aborts;
            s.spawn(move || {
                let mut ctx = db.worker_as::<P>(w);
                let mut rng = Rng(0xBEEF + u64::from(w));
                for _ in 0..TRANSFERS_PER_WORKER {
                    let from = rng.next() % key_space;
                    let mut to = rng.next() % key_space;
                    if to == from {
                        to = (to + 1) % key_space;
                    }
                    let parts: Vec<PartId> = if scheme == CcScheme::HStore {
                        let mut p = vec![
                            (from % u64::from(WORKERS)) as PartId,
                            (to % u64::from(WORKERS)) as PartId,
                        ];
                        p.sort_unstable();
                        p.dedup();
                        p
                    } else {
                        vec![]
                    };
                    ctx.run_txn(&parts, |t| {
                        let bal = t.read_u64(accounts, from, 1)?;
                        let amount = (rng.next() % 20).min(bal);
                        t.update(accounts, from, |s, d| {
                            row::set_u64(s, d, 1, bal - amount);
                        })?;
                        t.update(accounts, to, |s, d| {
                            let b = row::get_u64(s, d, 1);
                            row::set_u64(s, d, 1, b + amount);
                        })?;
                        Ok(())
                    })
                    .unwrap();
                }
                aborts.fetch_add(ctx.stats.total_aborts(), Ordering::Relaxed);
            });
        }
    });
    let secs = started.elapsed().as_secs_f64();
    let total = db.sum_column(accounts, 1);
    assert_eq!(
        total,
        ACCOUNTS * INITIAL_BALANCE,
        "{scheme}: money not conserved!"
    );
    let committed = u64::from(WORKERS) * TRANSFERS_PER_WORKER;
    let abort_rate =
        aborts.load(Ordering::Relaxed) as f64 / (committed + aborts.load(Ordering::Relaxed)) as f64;
    (committed as f64 / secs, abort_rate)
}

fn main() {
    println!("{WORKERS} workers × {TRANSFERS_PER_WORKER} transfers, {ACCOUNTS} accounts\n");
    println!(
        "{:<11} {:>14} {:>8}   {:>14} {:>8}",
        "scheme", "low-cont txn/s", "aborts", "high-cont txn/s", "aborts"
    );
    for scheme in CcScheme::ALL {
        let (tps_low, ar_low) = dispatch_protocol!(scheme, P => run::<P>(false));
        let (tps_high, ar_high) = dispatch_protocol!(scheme, P => run::<P>(true));
        println!(
            "{:<11} {:>14.0} {:>7.1}%   {:>14.0} {:>7.1}%",
            scheme.to_string(),
            tps_low,
            ar_low * 100.0,
            tps_high,
            ar_high * 100.0
        );
    }
    println!("\nEvery scheme conserved the total balance (asserted).");
}
