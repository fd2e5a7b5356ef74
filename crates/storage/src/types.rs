//! Core value types shared by the whole workspace.
//!
//! Every column holds `i64` values: the paper's experiments run on integer
//! attributes, and narrower source columns (TPC-H's `i32` dates and `i8`
//! flags) are widened when they are loaded.

/// Position of a tuple inside a column (a MonetDB `oid`).
///
/// 32 bits bound columns to 2^32 tuples, which comfortably covers the
/// laptop-scale reproduction while halving the footprint of row-id vectors
/// that cracking permutes alongside values.
pub type RowId = u32;

/// Smallest value strictly greater than `v`, saturating at the top of the
/// domain (`succ(i64::MAX) == i64::MAX`). Equality probes lower to the unit
/// half-open range `[v, succ(v))` through this one definition.
#[inline(always)]
pub fn succ(v: i64) -> i64 {
    v.saturating_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succ_steps_and_saturates() {
        assert_eq!(succ(-1), 0);
        assert_eq!(succ(41), 42);
        assert_eq!(succ(i64::MAX), i64::MAX);
    }
}
