//! Typed accessors over raw row bytes.
//!
//! Rows are plain byte slices laid out by a [`crate::catalog::Schema`];
//! these helpers read and write fixed-width integer columns and fill
//! payload columns. They operate on borrowed slices so they work both on
//! rows inside a table arena and on private copies (TIMESTAMP/OCC reads).

use crate::catalog::Schema;

/// Read a `u64` column.
#[inline]
pub fn get_u64(schema: &Schema, row: &[u8], col: usize) -> u64 {
    get_u64_at(row, schema.offset(col))
}

/// Read the `u64` column at byte offset `off` (a [`Schema::offset`]
/// resolved ahead of time).
#[inline]
pub fn get_u64_at(row: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(row[off..off + 8].try_into().expect("u64 column width"))
}

/// Write a `u64` column.
#[inline]
pub fn set_u64(schema: &Schema, row: &mut [u8], col: usize, value: u64) {
    let off = schema.offset(col);
    row[off..off + 8].copy_from_slice(&value.to_le_bytes());
}

/// Add `delta` to a `u64` column, returning the previous value
/// (the TPC-C `D_NEXT_O_ID` pattern).
#[inline]
pub fn fetch_add_u64(schema: &Schema, row: &mut [u8], col: usize, delta: u64) -> u64 {
    let old = get_u64(schema, row, col);
    set_u64(schema, row, col, old.wrapping_add(delta));
    old
}

/// Fill a payload column with a repeating byte (workload loaders).
#[inline]
pub fn fill_column(schema: &Schema, row: &mut [u8], col: usize, byte: u8) {
    let off = schema.offset(col);
    let w = schema.width(col);
    row[off..off + w].fill(byte);
}

/// A cheap whole-row checksum used by tests to detect torn writes.
pub fn checksum(row: &[u8]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &b in row {
        acc = (acc ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::u64("id"),
            ColumnDef::new("pay", 10),
            ColumnDef::u64("ctr"),
        ])
    }

    #[test]
    fn u64_round_trip() {
        let s = schema();
        let mut row = vec![0u8; s.row_size()];
        set_u64(&s, &mut row, 0, 0xdead_beef_cafe);
        set_u64(&s, &mut row, 2, 7);
        assert_eq!(get_u64(&s, &row, 0), 0xdead_beef_cafe);
        assert_eq!(get_u64(&s, &row, 2), 7);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let s = schema();
        let mut row = vec![0u8; s.row_size()];
        set_u64(&s, &mut row, 2, 3000);
        assert_eq!(fetch_add_u64(&s, &mut row, 2, 1), 3000);
        assert_eq!(get_u64(&s, &row, 2), 3001);
    }

    #[test]
    fn fill_touches_only_the_column() {
        let s = schema();
        let mut row = vec![0u8; s.row_size()];
        set_u64(&s, &mut row, 0, u64::MAX);
        fill_column(&s, &mut row, 1, 0xAB);
        assert_eq!(get_u64(&s, &row, 0), u64::MAX);
        assert!(row[8..18].iter().all(|&b| b == 0xAB));
        assert_eq!(get_u64(&s, &row, 2), 0);
    }

    #[test]
    fn checksum_detects_single_byte_change() {
        let mut row = vec![1u8; 64];
        let c1 = checksum(&row);
        row[63] = 2;
        assert_ne!(c1, checksum(&row));
    }
}
