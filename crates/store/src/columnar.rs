//! Column-major row storage: one contiguous buffer per column.
//!
//! A [`ColumnarRows`] stores rows column by column: all values of
//! column `c` sit back to back in **one** buffer, so a kernel that only
//! touches the key columns of a relation — hash-join probing, grouped
//! index builds, distinct counting — walks a dense `&[V]` slice instead
//! of hopping through per-row boxes, and batch operations (hash `n`
//! keys in one pass, compare a key column value-by-value) compile to
//! tight, vectorization-friendly loops.
//!
//! This is the **only** stored form of a tuple in the engine: the
//! relational layer keeps each relation's tuples and every
//! intermediate result in a `ColumnarRows<Value>`. The column set sits
//! behind an `Arc`, so handle clones are O(1) and the whole value is
//! `Send + Sync`. [`ColumnarRows::push_row`] appends copy-on-write: a
//! handle that shares its columns copies them once, then appends in
//! place.
//!
//! Code that wants tuples rather than columns (the oracles, text I/O,
//! reductions, certificates) reads a [`RowView`]: boxed rows built from
//! the columns on first demand and cached by the owner of the columns
//! until it next appends. No kernel reads it.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Column-major row storage: `arity` columns, each one contiguous
/// buffer of `len` values. Handle clones are O(1) and share the column
/// buffers; appending through a shared handle copies them first.
pub struct ColumnarRows<V> {
    cols: Arc<[Vec<V>]>,
    rows: usize,
}

impl<V: Clone> ColumnarRows<V> {
    /// Transpose `rows` (each of length `arity`) into column buffers.
    ///
    /// Allocates O(arity) times regardless of the row count — pinned
    /// down by the allocation-count test in `tests/no_alloc_kernels.rs`.
    ///
    /// # Panics
    /// Panics if any row's length differs from `arity`.
    pub fn from_rows<R: AsRef<[V]>>(arity: usize, rows: &[R]) -> Self {
        let mut cols: Vec<Vec<V>> = (0..arity).map(|_| Vec::with_capacity(rows.len())).collect();
        for row in rows {
            let row = row.as_ref();
            assert_eq!(
                row.len(),
                arity,
                "columnar row length {} does not match arity {arity}",
                row.len()
            );
            for (c, v) in row.iter().enumerate() {
                cols[c].push(v.clone());
            }
        }
        Self::from_columns(rows.len(), cols)
    }

    /// Append one row. Copy-on-write: if other handles share the
    /// columns they are copied once first (O(arity) allocations), and
    /// the shared handles keep the old contents.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the arity.
    pub fn push_row(&mut self, row: &[V]) {
        assert_eq!(
            row.len(),
            self.arity(),
            "columnar row length {} does not match arity {}",
            row.len(),
            self.arity()
        );
        for (col, v) in Arc::make_mut(&mut self.cols).iter_mut().zip(row) {
            col.push(v.clone());
        }
        self.rows += 1;
    }

    /// A new store holding only the rows whose indexes appear in `keep`,
    /// in `keep` order — the columnar gather behind semijoin/antijoin
    /// style filters. Allocates O(arity) buffers.
    ///
    /// # Panics
    /// Panics if any index in `keep` is out of range.
    pub fn gather(&self, keep: &[usize]) -> Self {
        let cols: Vec<Vec<V>> = self
            .cols
            .iter()
            .map(|col| keep.iter().map(|&i| col[i].clone()).collect())
            .collect();
        Self::from_columns(keep.len(), cols)
    }
}

impl<V> ColumnarRows<V> {
    /// An empty store of the given arity.
    pub fn empty(arity: usize) -> Self {
        Self::from_columns(0, (0..arity).map(|_| Vec::new()).collect())
    }

    /// Wrap already-built column buffers.
    ///
    /// `rows` must be passed explicitly so zero-arity stores (legal:
    /// they count rows with no values) stay well-defined.
    ///
    /// # Panics
    /// Panics if any column's length differs from `rows`.
    pub fn from_columns(rows: usize, cols: Vec<Vec<V>>) -> Self {
        for (c, col) in cols.iter().enumerate() {
            assert_eq!(
                col.len(),
                rows,
                "column {c} holds {} values for {rows} rows",
                col.len()
            );
        }
        ColumnarRows {
            cols: cols.into(),
            rows,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the store holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The fixed row arity (number of columns).
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column `c` as one contiguous value slice of length [`len`](Self::len).
    #[inline]
    pub fn col(&self, c: usize) -> &[V] {
        &self.cols[c]
    }

    /// The value at row `i`, column `c`.
    #[inline]
    pub fn value(&self, i: usize, c: usize) -> &V {
        &self.cols[c][i]
    }

    /// Whether two handles share the same column storage.
    #[inline]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.cols, &b.cols)
    }

    /// The address of the shared storage, as an opaque identity: two
    /// *live* handles have equal ids iff they share storage (and hence
    /// hold identical columns). Only meaningful while a handle keeps the
    /// storage alive — a freed address may be reused.
    #[inline]
    pub fn ptr_id(&self) -> usize {
        Arc::as_ptr(&self.cols) as *const Vec<V> as usize
    }
}

impl<V> Clone for ColumnarRows<V> {
    #[inline]
    fn clone(&self) -> Self {
        ColumnarRows {
            cols: Arc::clone(&self.cols),
            rows: self.rows,
        }
    }
}

impl<V: PartialEq> PartialEq for ColumnarRows<V> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && (Self::ptr_eq(self, other) || *self.cols == *other.cols)
    }
}

impl<V: Eq> Eq for ColumnarRows<V> {}

impl<V: fmt::Debug> fmt::Debug for ColumnarRows<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.cols.iter()).finish()
    }
}

/// The row view of a [`ColumnarRows`]: every row as a boxed tuple, in
/// row order, built from the columns on first [`get`](Self::get) and
/// cached until [`clear`](Self::clear). The only place rows are derived
/// from columns. Its owner keeps it beside the columns it was built
/// from and clears it whenever they change.
pub struct RowView<V>(OnceLock<Box<[Box<[V]>]>>);

impl<V: Clone> RowView<V> {
    /// An empty (not yet built) view.
    pub fn new() -> Self {
        RowView(OnceLock::new())
    }

    /// The rows of `cols`, built on the first call. Every call must pass
    /// the columns the view was built from.
    pub fn get(&self, cols: &ColumnarRows<V>) -> &[Box<[V]>] {
        let view = self.0.get_or_init(|| {
            (0..cols.len())
                .map(|i| cols.cols.iter().map(|col| col[i].clone()).collect())
                .collect()
        });
        debug_assert_eq!(view.len(), cols.len(), "row view is stale");
        view
    }

    /// Drop the built view (its columns changed).
    pub fn clear(&mut self) {
        self.0.take();
    }
}

impl<V: Clone> Default for RowView<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(rows: &[&[i32]]) -> Vec<Box<[i32]>> {
        rows.iter().map(|r| r.to_vec().into_boxed_slice()).collect()
    }

    #[test]
    fn from_rows_transposes() {
        let c = ColumnarRows::from_rows(2, &boxed(&[&[1, 2], &[3, 4], &[5, 6]]));
        assert_eq!(c.len(), 3);
        assert_eq!(c.arity(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.col(0), &[1, 3, 5]);
        assert_eq!(c.col(1), &[2, 4, 6]);
        assert_eq!(*c.value(1, 0), 3);
        assert_eq!(
            RowView::new().get(&c),
            &boxed(&[&[1, 2], &[3, 4], &[5, 6]])[..]
        );
    }

    #[test]
    fn clone_shares_storage_and_gather_does_not() {
        let a = ColumnarRows::from_rows(2, &boxed(&[&[1, 2], &[3, 4], &[5, 6]]));
        let b = a.clone();
        assert!(ColumnarRows::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let g = a.gather(&[2, 0]);
        assert!(!ColumnarRows::ptr_eq(&a, &g));
        assert_eq!(g.col(0), &[5, 1]);
        assert_eq!(g.col(1), &[6, 2]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn from_columns_roundtrip_and_push_row() {
        let mut c = ColumnarRows::from_columns(3, vec![vec![1, 3, 5], vec![2, 4, 6]]);
        assert_eq!(
            c,
            ColumnarRows::from_rows(2, &boxed(&[&[1, 2], &[3, 4], &[5, 6]]))
        );
        c.push_row(&[7, 8]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.col(1), &[2, 4, 6, 8]);
        assert_eq!(RowView::new().get(&c)[3], vec![7, 8].into_boxed_slice());
    }

    #[test]
    fn push_row_copies_shared_columns_once() {
        let mut a = ColumnarRows::from_rows(2, &boxed(&[&[1, 2]]));
        let b = a.clone();
        a.push_row(&[3, 4]);
        assert!(!ColumnarRows::ptr_eq(&a, &b));
        assert_eq!(a.col(0), &[1, 3]);
        assert_eq!(b.col(0), &[1], "the shared handle keeps its rows");
        assert_eq!(RowView::new().get(&b), &boxed(&[&[1, 2]])[..]);
        let id = a.ptr_id();
        a.push_row(&[5, 6]);
        assert_eq!(a.ptr_id(), id, "an unshared handle appends in place");
    }

    #[test]
    fn row_view_is_cached_until_cleared() {
        let mut c = ColumnarRows::from_rows(2, &boxed(&[&[1, 2], &[3, 4]]));
        let mut view = RowView::new();
        let first: *const [Box<[i32]>] = view.get(&c);
        assert!(std::ptr::eq(first, view.get(&c)), "built once");
        c.push_row(&[5, 6]);
        view.clear();
        assert_eq!(view.get(&c), &boxed(&[&[1, 2], &[3, 4], &[5, 6]])[..]);
    }

    #[test]
    fn zero_arity_rows_are_well_defined() {
        let mut c = ColumnarRows::<i32>::from_columns(2, vec![]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.arity(), 0);
        assert_eq!(RowView::new().get(&c), &boxed(&[&[], &[]])[..]);
        c.push_row(&[]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match arity")]
    fn arity_mismatch_panics() {
        let _ = ColumnarRows::from_rows(2, &boxed(&[&[1, 2, 3]]));
    }

    #[test]
    #[should_panic(expected = "values for")]
    fn column_length_mismatch_panics() {
        let _ = ColumnarRows::from_columns(2, vec![vec![1], vec![2, 3]]);
    }

    #[test]
    fn columnar_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ColumnarRows<i64>>();
    }
}
