//! The memoised columnar image of a stored relation.
//!
//! A [`URelation`] stores rows. Every consumer that wants columns — the
//! executor's scans, normalization — reads the relation's [`ColumnarImage`]
//! instead of converting the rows again: the image is built on the first
//! [`URelation::image`] call, shared by clones of the relation, and dropped
//! by every method that can change the rows, so it is always the image of
//! the rows it sits beside.
//!
//! An image is self-contained plain data. Its string cells are codes into a
//! *relation-local* dictionary and its descriptor column holds relation-local
//! ids (id 0 is the tautology, as in every pool). The two dictionaries are
//! the very pools the rows were converted into, minus their hash indexes —
//! nothing ever looks a value *up* in an image — and a pool is a flat arena,
//! so a run takes an image in with [`ColumnarImage::scan`] by *appending* the
//! dictionaries to its own pools (`DescriptorPool::import`,
//! `StrPool::import`): no intern call, no allocation per entry. Whatever
//! then reads the same in the run's pools (every non-string column; the
//! descriptor column of a certain relation; any coded column when the run's
//! pool was empty or hands the image's own codes back) is borrowed, not
//! copied.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::columnar::{self, ColumnData, ColumnVec, ColumnarURelation, StrPool};
use crate::intern::{DescId, DescriptorPool};
use crate::schema::Schema;
use crate::urel::URelation;

/// A relation's rows as typed columns over relation-local dictionaries. See
/// the module docs.
#[derive(Debug)]
pub struct ColumnarImage {
    /// The rows: `Str` cells are codes into `strings`, descriptors handles
    /// into `pool`.
    rel: ColumnarURelation,
    /// The distinct descriptors, each once (the build interned them).
    pool: DescriptorPool,
    /// The distinct strings of all `Str` columns.
    strings: StrPool,
}

impl ColumnarImage {
    /// Convert a relation's rows — the one row → column conversion site of
    /// the engine. The conversion interns into throw-away pools; the image
    /// keeps their arenas as they are, and the hash tables die here.
    pub(crate) fn build(u: &URelation) -> ColumnarImage {
        let mut pool = DescriptorPool::new();
        let mut strings = StrPool::new();
        let rel = ColumnarURelation::from_urelation(u, &mut pool, &mut strings);
        pool.drop_index();
        strings.drop_index();
        ColumnarImage { rel, pool, strings }
    }

    /// Re-express the image in a run's pools: append its dictionaries to
    /// them, then move the coded columns whose codes changed by that; the
    /// others are borrowed from the image.
    pub fn scan<'a>(&'a self, pool: &mut DescriptorPool, strings: &mut StrPool) -> Scan<'a> {
        let str_map = strings.import(&self.strings);
        let cols = self
            .rel
            .columns()
            .iter()
            .map(|col| match (&str_map, col.data()) {
                (Some(map), ColumnData::Str(_)) => Cow::Owned(col.with_str_codes(map)),
                _ => Cow::Borrowed(col),
            })
            .collect();
        Scan {
            schema: self.rel.schema(),
            cols,
            descs: pool.import(&self.pool, self.rel.descs()),
        }
    }
}

/// A [`ColumnarImage`] re-expressed in one run's pools: the unit a scan
/// hands to operators. Columns the run reads exactly as the image stores
/// them are borrowed from the image; only re-coded ones are owned.
#[derive(Debug)]
pub struct Scan<'a> {
    schema: &'a Schema,
    cols: Vec<Cow<'a, ColumnVec>>,
    descs: Cow<'a, [DescId]>,
}

impl Scan<'_> {
    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    /// The value columns, in schema order.
    pub fn columns(&self) -> &[Cow<'_, ColumnVec>] {
        &self.cols
    }

    /// The descriptor column, as handles into the run's pool.
    pub fn descs(&self) -> &[DescId] {
        &self.descs
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Compare two rows' value columns (not descriptors) under the
    /// lexicographic [`crate::rel::Tuple`] order.
    pub fn cmp_rows(&self, i: usize, j: usize, strings: &StrPool) -> Ordering {
        columnar::cmp_rows(&self.cols, i, j, strings)
    }

    /// Whether two rows agree on every value column.
    pub fn rows_eq(&self, i: usize, j: usize) -> bool {
        columnar::rows_eq(&self.cols, i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{ComponentId, WsDescriptor};
    use crate::rel::Tuple;
    use crate::value::{Value, ValueType};

    /// A scan as a standalone relation, copying what it borrows.
    fn to_rows(scan: Scan<'_>, pool: &DescriptorPool, strings: &StrPool) -> URelation {
        let cols = scan.cols.into_iter().map(Cow::into_owned).collect();
        ColumnarURelation::from_parts(scan.schema.clone(), cols, scan.descs.into_owned())
            .to_urelation(pool, strings)
    }

    fn str_relation(rows: &[(Option<&str>, Option<&str>, WsDescriptor)]) -> URelation {
        let schema = Schema::of(&[
            ("k", ValueType::Str),
            ("v", ValueType::Str),
            ("n", ValueType::Int),
        ])
        .unwrap();
        let mut u = URelation::new(schema);
        let cell = |s: Option<&str>| s.map_or(Value::Null, Value::str);
        for (i, (k, v, d)) in rows.iter().enumerate() {
            u.push(
                Tuple::new(vec![cell(*k), cell(*v), Value::Int(i as i64)]),
                d.clone(),
            )
            .unwrap();
        }
        u
    }

    /// Run pools that already hold other entries, so no image code or id of
    /// an uncertain relation survives the import unchanged.
    fn busy_pools() -> (DescriptorPool, StrPool) {
        let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
        pool.single(ComponentId(7), 1);
        strings.intern("someone else's");
        (pool, strings)
    }

    fn roundtrips(u: &URelation) {
        // Into empty pools (everything borrowed) and into busy ones
        // (everything coded is re-coded).
        for (mut pool, mut strings) in [(DescriptorPool::new(), StrPool::new()), busy_pools()] {
            let scan = u.image().scan(&mut pool, &mut strings);
            assert_eq!(scan.len(), u.len());
            let back = to_rows(scan, &pool, &strings);
            assert_eq!(&back, u);
            assert_eq!(format!("{back:?}"), format!("{u:?}"));
        }
    }

    #[test]
    fn an_all_null_string_column_has_no_dictionary_to_index() {
        let d = WsDescriptor::single(ComponentId(0), 1);
        let u = str_relation(&[
            (None, None, d.clone()),
            (None, None, WsDescriptor::tautology()),
            (None, None, d),
        ]);
        assert!(u.image().strings.is_empty());
        roundtrips(&u);
    }

    #[test]
    fn nulls_mixed_with_strings_keep_their_places() {
        let u = str_relation(&[
            (None, Some("x"), WsDescriptor::tautology()),
            (Some("y"), None, WsDescriptor::single(ComponentId(1), 0)),
            (
                Some("x"),
                Some("y"),
                WsDescriptor::single(ComponentId(0), 2),
            ),
            (None, None, WsDescriptor::single(ComponentId(1), 0)),
        ]);
        // One dictionary for the whole relation: "x" and "y", once each.
        assert_eq!(u.image().strings.len(), 2);
        roundtrips(&u);
    }

    #[test]
    fn an_empty_relation_scans_to_an_empty_relation() {
        let u = str_relation(&[]);
        let (mut pool, mut strings) = busy_pools();
        let before = (pool.len(), strings.len());
        let scan = u.image().scan(&mut pool, &mut strings);
        assert!(scan.is_empty());
        // Nothing to append, so nothing to move: borrowed in a busy pool too.
        assert!(matches!(scan.descs, Cow::Borrowed(_)));
        assert_eq!((pool.len(), strings.len()), before);
        assert_eq!(pool.stats().imported, 0);
        roundtrips(&u);
    }

    #[test]
    fn a_scan_copies_only_what_it_must_recode() {
        let rows = [
            (
                Some("a"),
                Some("b"),
                WsDescriptor::single(ComponentId(0), 0),
            ),
            (Some("b"), None, WsDescriptor::single(ComponentId(0), 1)),
        ];
        let u = str_relation(&rows);
        let borrowed = |scan: &Scan<'_>| -> Vec<bool> {
            scan.cols
                .iter()
                .map(|c| matches!(c, Cow::Borrowed(_)))
                .chain([matches!(scan.descs, Cow::Borrowed(_))])
                .collect()
        };
        // Busy pools: the string columns and the descriptor column are
        // re-coded, the int column is read where it lies.
        let (mut pool, mut strings) = busy_pools();
        let before = pool.stats();
        let scan = u.image().scan(&mut pool, &mut strings);
        assert_eq!(borrowed(&scan), [false, false, true, false]);
        // The dictionary is appended — one entry per distinct descriptor,
        // not per row — and nothing is interned. Handles are the pool's
        // business; what they denote is the contract.
        assert_eq!(pool.stats().intern_calls, before.intern_calls);
        assert_eq!(pool.stats().imported - before.imported, 2);
        for (&id, (_, _, d)) in scan.descs().iter().zip(&rows) {
            assert_eq!(pool.terms(id), d.terms());
        }
        // Empty pools read the image's own codes: nothing is copied, nothing
        // interned, hashed or probed.
        let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
        let scan = u.image().scan(&mut pool, &mut strings);
        assert_eq!(borrowed(&scan), [true, true, true, true]);
        assert_eq!(pool.stats().intern_calls, 0);
        assert_eq!((pool.len(), strings.len()), (3, 2));
        // A certain relation keeps its descriptor column in any pool.
        let certain = str_relation(&[(Some("a"), None, WsDescriptor::tautology())]);
        let (mut pool, mut strings) = busy_pools();
        let scan = certain.image().scan(&mut pool, &mut strings);
        assert_eq!(borrowed(&scan), [false, false, true, true]);
        assert_eq!(pool.stats().intern_calls, 1, "busy_pools' own");
    }
}
