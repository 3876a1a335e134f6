//! Quickstart: create a database, pick a concurrency-control scheme, run
//! transactions from multiple threads.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use abyss::common::{AbortReason, CcScheme};
use abyss::core::{Database, EngineConfig};
use abyss::storage::{row, Catalog, Schema};

fn main() {
    // A catalog with one table: u64 key + two u64 columns.
    let mut catalog = Catalog::new();
    let inventory = catalog.add_table("inventory", Schema::key_plus_payload(2, 8), 10_000);

    // Pick any of the paper's seven schemes here.
    let scheme = CcScheme::NoWait;
    let db = Database::new(EngineConfig::new(scheme, 4), catalog).expect("valid config");

    // Load 1000 items with 50 units of stock each.
    db.load_table(inventory, 0..1000, |schema, data, key| {
        row::set_u64(schema, data, 0, key);
        row::set_u64(schema, data, 1, 50); // stock
        row::set_u64(schema, data, 2, 0); // sold
    })
    .expect("load");

    // Four threads sell items concurrently; oversells must be impossible.
    sell_concurrently(&db, inventory);

    let stock = db.sum_column(inventory, 1);
    let sold = db.sum_column(inventory, 2);
    println!("scheme = {scheme}");
    println!("remaining stock = {stock}, sold = {sold}");
    assert_eq!(stock + sold, 1000 * 50, "conservation violated!");
    println!("stock + sold == initial stock ✓ (serializable)");
}

fn sell_concurrently(db: &Arc<Database>, inventory: u32) {
    std::thread::scope(|s| {
        for w in 0..4u32 {
            let db = Arc::clone(db);
            s.spawn(move || {
                let mut ctx = db.worker(w);
                let mut sold = 0u32;
                let mut key = u64::from(w) * 17 % 1000;
                while sold < 2000 {
                    key = (key * 31 + 7) % 1000;
                    // Sell one unit if stock remains.
                    let result = ctx.run_txn(&[], |txn| {
                        let stock = txn.read_u64(inventory, key, 1)?;
                        if stock == 0 {
                            return Err(abyss::core::TxnError::Abort(AbortReason::UserAbort));
                        }
                        txn.update(inventory, key, |schema, data| {
                            row::set_u64(schema, data, 1, stock - 1);
                            let s = row::get_u64(schema, data, 2);
                            row::set_u64(schema, data, 2, s + 1);
                        })?;
                        Ok(())
                    });
                    if result.is_ok() {
                        sold += 1;
                    }
                }
            });
        }
    });
}
