//! Relations: named, fixed-arity sets of tuples.
//!
//! Per §2.1 a database is `(D, R1, ..., Rn)` where each `Ri ⊆ D^a(Ri)` is a
//! *set* — duplicate tuples are meaningless, and every cardinality in the
//! plausibility indices (Definition 2.6) counts distinct tuples. `Relation`
//! therefore deduplicates on insertion and keeps rows in insertion order for
//! deterministic iteration.

use crate::hashjoin::{hash_vals, GroupIndex, RawTable};
use crate::value::{Tuple, Value};
use mq_store::{ColumnarRows, FxHasher, RowView};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

/// A named relation: a set of tuples of a fixed arity.
///
/// The tuples are stored once, column-major ([`ColumnarRows`]); a
/// [`RawTable`] over row ids is the set test (it hashes column values
/// and compares column-wise, never holding a tuple of its own). A clone
/// shares the column buffers, so the first insert into a clone copies
/// them once.
pub struct Relation {
    name: String,
    arity: usize,
    cols: ColumnarRows<Value>,
    /// Row ids keyed by the hash of the row's values: the dedup set.
    set: RawTable,
    /// `cols` as boxed rows, for [`Relation::rows`]; cleared on insert.
    row_view: RowView<Value>,
    /// Shared allocation-free column indexes, built lazily behind a lock
    /// so the algebra can consult them through `&Relation` — including
    /// concurrently from the parallel `findRules` enumeration. Invalidated
    /// on insert.
    group_indexes: RwLock<HashMap<Box<[usize]>, Arc<GroupIndex>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            name: self.name.clone(),
            arity: self.arity,
            cols: self.cols.clone(),
            set: self.set.clone(),
            row_view: RowView::new(),
            // Cached indexes are cheap to rebuild; clones start cold.
            group_indexes: RwLock::new(HashMap::new()),
        }
    }
}

impl Relation {
    /// Create an empty relation with the given name and arity.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            arity,
            cols: ColumnarRows::empty(arity),
            set: RawTable::with_capacity(0),
            row_view: RowView::new(),
            group_indexes: RwLock::new(HashMap::new()),
        }
    }

    /// Create a relation and bulk-insert `rows` (duplicates are dropped).
    ///
    /// # Panics
    /// Panics if any row's length differs from `arity`.
    pub fn from_rows(name: impl Into<String>, arity: usize, rows: Vec<Tuple>) -> Self {
        let mut rel = Relation::new(name, arity);
        for row in rows {
            rel.insert(row);
        }
        rel
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's arity `a(R)`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) tuples, `|R|`.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Insert a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if `row.len() != arity`.
    pub fn insert(&mut self, row: Tuple) -> bool {
        self.insert_values(&row)
    }

    /// [`Relation::insert`] from a borrowed value slice.
    pub(crate) fn insert_values(&mut self, row: &[Value]) -> bool {
        assert_eq!(
            row.len(),
            self.arity,
            "tuple arity {} does not match relation `{}` arity {}",
            row.len(),
            self.name,
            self.arity
        );
        let hash = hash_vals(row);
        if self.find(hash, |c| row[c]).is_some() {
            return false;
        }
        let id = u32::try_from(self.len()).expect("relation exceeds u32 rows");
        self.set.insert_growing(hash, id);
        self.cols.push_row(row);
        // Any previously built row view and key indexes are now stale.
        self.row_view.clear();
        self.group_indexes
            .write()
            .expect("group index lock poisoned")
            .clear();
        true
    }

    /// Replace the relation's contents wholesale (duplicates dropped, as
    /// on insert). Used by copy-on-write catalog updates; any cached
    /// group indexes are invalidated.
    ///
    /// # Panics
    /// Panics if any row's length differs from the arity.
    pub fn replace_rows(&mut self, rows: Vec<Tuple>) {
        self.cols = ColumnarRows::empty(self.arity);
        self.set = RawTable::with_capacity(rows.len());
        self.row_view.clear();
        self.group_indexes
            .write()
            .expect("group index lock poisoned")
            .clear();
        for row in rows {
            self.insert(row);
        }
    }

    /// The id of the stored row whose values hash to `hash` and whose
    /// column `c` holds `value(c)` for every column.
    fn find(&self, hash: u64, value: impl Fn(usize) -> Value) -> Option<usize> {
        self.set
            .find(hash, |id| {
                (0..self.arity).all(|c| self.cols.col(c)[id as usize] == value(c))
            })
            .map(|id| id as usize)
    }

    /// The hash of stored row `i`, agreeing with [`hash_vals`] on it.
    fn row_hash(&self, i: usize) -> u64 {
        let mut h = FxHasher::default();
        for c in 0..self.arity {
            self.cols.col(c)[i].hash(&mut h);
        }
        h.finish()
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        row.len() == self.arity && self.find(hash_vals(row), |c| row[c]).is_some()
    }

    /// Iterate over tuples in insertion order. Reads the row view, built
    /// from the columns on first call and cached until the next insert.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &Tuple> {
        self.row_view.get(&self.cols).iter()
    }

    /// Access the i-th row (from the row view, like [`Relation::rows`]).
    pub fn row(&self, i: usize) -> &Tuple {
        &self.row_view.get(&self.cols)[i]
    }

    /// Get (or build once and cache) the shared allocation-free hash
    /// index grouping rows by their values at `cols`.
    ///
    /// The index is built at most once per (relation, column-set) and
    /// shared by every join/semijoin that probes it — across the
    /// thousands of instantiations a metaquery engine evaluates, and
    /// across threads. Inserting into the relation invalidates it.
    pub fn group_index(&self, cols: &[usize]) -> Arc<GroupIndex> {
        if let Some(idx) = self
            .group_indexes
            .read()
            .expect("group index lock poisoned")
            .get(cols)
        {
            return Arc::clone(idx);
        }
        let built = Arc::new(GroupIndex::build_columnar(&self.cols, cols));
        let mut cache = self
            .group_indexes
            .write()
            .expect("group index lock poisoned");
        // Another thread may have raced us; keep the first one inserted.
        Arc::clone(
            cache
                .entry(cols.to_vec().into_boxed_slice())
                .or_insert(built),
        )
    }

    /// The relation's tuples, column-major: the storage the kernels
    /// scan.
    pub fn columnar(&self) -> &ColumnarRows<Value> {
        &self.cols
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} ({} rows)", self.name, self.arity, self.len())
    }
}

impl PartialEq for Relation {
    /// Set equality of contents (name and arity must also match).
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.arity == other.arity
            && self.len() == other.len()
            && (0..self.len()).all(|i| {
                other
                    .find(self.row_hash(i), |c| self.cols.col(c)[i])
                    .is_some()
            })
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ints;

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new("e", 2);
        assert!(r.insert(ints(&[1, 2])));
        assert!(!r.insert(ints(&[1, 2])));
        assert!(r.insert(ints(&[2, 1])));
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new("e", 2);
        r.insert(ints(&[1, 2, 3]));
    }

    #[test]
    fn contains_and_rows() {
        let r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        assert!(r.contains(&ints(&[1, 2])));
        assert!(!r.contains(&ints(&[2, 1])));
        assert_eq!(r.rows().count(), 2);
    }

    #[test]
    fn group_index_groups_rows() {
        let r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[1, 3]), ints(&[2, 3])]);
        let idx = r.group_index(&[0]);
        assert_eq!(idx.num_groups(), 2);
        let rows: Vec<usize> = idx.probe_key(&ints(&[1])).collect();
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    fn group_index_invalidated_by_insert() {
        let mut r = Relation::from_rows("e", 2, vec![ints(&[1, 2])]);
        let _ = r.group_index(&[0]);
        r.insert(ints(&[5, 6]));
        let idx = r.group_index(&[0]);
        assert!(idx.probe_key(&ints(&[5])).next().is_some());
    }

    #[test]
    fn replace_rows_swaps_contents_and_invalidates_indexes() {
        let mut r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        let _ = r.group_index(&[0]);
        r.replace_rows(vec![ints(&[9, 9]), ints(&[9, 9]), ints(&[8, 7])]);
        assert_eq!(r.len(), 2, "replacement deduplicates");
        assert!(r.contains(&ints(&[9, 9])));
        assert!(!r.contains(&ints(&[1, 2])));
        let idx = r.group_index(&[0]);
        assert!(idx.probe_key(&ints(&[9])).next().is_some());
        assert!(idx.probe_key(&ints(&[1])).next().is_none());
    }

    #[test]
    fn row_view_is_cached_and_invalidated() {
        let mut r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        assert_eq!(r.columnar().col(0), &[Value::Int(1), Value::Int(3)]);
        let a: *const Tuple = r.row(1);
        assert!(std::ptr::eq(a, r.row(1)), "row view is cached");
        r.insert(ints(&[5, 6]));
        assert_eq!(r.rows().len(), 3, "insert drops the stale row view");
        assert_eq!(r.row(2), &ints(&[5, 6]));
        assert_eq!(
            r.columnar().col(1),
            &[Value::Int(2), Value::Int(4), Value::Int(6)]
        );
    }

    #[test]
    fn clone_shares_columns_until_first_insert() {
        let a = Relation::from_rows("e", 2, vec![ints(&[1, 2])]);
        let mut b = a.clone();
        assert!(ColumnarRows::ptr_eq(a.columnar(), b.columnar()));
        assert!(b.insert(ints(&[3, 4])));
        assert!(!b.insert(ints(&[1, 2])), "the clone keeps the set");
        assert!(!ColumnarRows::ptr_eq(a.columnar(), b.columnar()));
        assert_eq!(a.len(), 1);
        assert!(!a.contains(&ints(&[3, 4])));
        assert_eq!(
            b.rows().cloned().collect::<Vec<_>>(),
            vec![ints(&[1, 2]), ints(&[3, 4])]
        );
    }

    #[test]
    fn contains_rejects_wrong_arity() {
        let r = Relation::from_rows("e", 2, vec![ints(&[1, 2])]);
        assert!(!r.contains(&ints(&[1])));
        assert!(!r.contains(&ints(&[1, 2, 3])));
    }

    #[test]
    fn set_equality() {
        let a = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        let b = Relation::from_rows("e", 2, vec![ints(&[3, 4]), ints(&[1, 2])]);
        assert_eq!(a, b);
    }
}
