//! Dense `i64` columns — the storage unit of the column store.

/// A named, dense array of `i64` values.
///
/// Columns are append-only at this layer; in-place reorganisation (cracking)
/// happens on *copies* managed by the adaptive-indexing crates, never on base
/// columns, exactly as in the paper (`ACRK` is a copy of base column `A`).
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    data: Vec<i64>,
}

impl Column {
    /// Creates an empty column.
    pub fn new(name: impl Into<String>) -> Self {
        Column {
            name: name.into(),
            data: Vec::new(),
        }
    }

    /// Creates a column from existing data, taking ownership.
    pub fn from_vec(name: impl Into<String>, data: Vec<i64>) -> Self {
        Column {
            name: name.into(),
            data,
        }
    }

    /// Creates an empty column with room for `cap` values.
    pub fn with_capacity(name: impl Into<String>, cap: usize) -> Self {
        Column {
            name: name.into(),
            data: Vec::with_capacity(cap),
        }
    }

    /// The column's name in the catalog.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the raw values. All bulk operators work on this slice.
    #[inline]
    pub fn values(&self) -> &[i64] {
        &self.data
    }

    /// Value at position `pos`; panics if out of bounds (positions are
    /// produced by operators over the same column, so a miss is a logic bug).
    #[inline]
    pub fn get(&self, pos: usize) -> i64 {
        self.data[pos]
    }

    /// Appends a single value.
    pub fn push(&mut self, v: i64) {
        self.data.push(v);
    }

    /// Appends many values.
    pub fn extend_from_slice(&mut self, vs: &[i64]) {
        self.data.extend_from_slice(vs);
    }

    /// Smallest and largest stored value, or `None` for an empty column.
    ///
    /// One tight pass; used to establish the pivot domain for holistic
    /// refinement when a cracker column is created.
    pub fn min_max(&self) -> Option<(i64, i64)> {
        let mut it = self.data.iter();
        let first = *it.next()?;
        let (mut lo, mut hi) = (first, first);
        for &v in it {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        Some((lo, hi))
    }

    /// Heap bytes consumed by the value payload (for storage budgeting).
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read_back() {
        let mut c = Column::new("a");
        assert!(c.is_empty());
        c.push(5);
        c.extend_from_slice(&[2, 9, -1]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.values(), &[5, 2, 9, -1]);
        assert_eq!(c.get(2), 9);
        assert_eq!(c.name(), "a");
    }

    #[test]
    fn min_max_full_and_empty() {
        let c = Column::from_vec("a", vec![3i64, -7, 11, 0]);
        assert_eq!(c.min_max(), Some((-7, 11)));
        let e = Column::new("e");
        assert_eq!(e.min_max(), None);
    }

    #[test]
    fn min_max_single_value() {
        let c = Column::from_vec("a", vec![42i64]);
        assert_eq!(c.min_max(), Some((42, 42)));
    }

    #[test]
    fn payload_bytes_tracks_length() {
        let c = Column::from_vec("a", vec![1i64, 2, 3]);
        assert_eq!(c.payload_bytes(), 24);
    }
}
