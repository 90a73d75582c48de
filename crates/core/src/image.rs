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
//! ids (id 0 is the tautology, as in every pool); the two dictionaries are
//! flat arrays without a hash index, because nothing ever looks a value *up*
//! in an image. A run re-expresses the image in its own pools with
//! [`ColumnarImage::scan`]: one intern per **distinct** descriptor and
//! string, then one table lookup per row — and whatever already reads the
//! same in the run's pools (every non-string column; the descriptor column
//! of a certain relation; any coded column when the run's pool happened to
//! hand out the image's own codes) is borrowed, not copied.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::columnar::{self, ColumnData, ColumnVec, ColumnarURelation, StrPool};
use crate::descriptor::ComponentId;
use crate::intern::{DescId, DescriptorPool};
use crate::schema::Schema;
use crate::urel::URelation;

/// A relation's rows as typed columns over relation-local dictionaries. See
/// the module docs.
#[derive(Debug)]
pub struct ColumnarImage {
    schema: Schema,
    /// One column per attribute; `Str` cells are indexes into `str_ends`.
    cols: Vec<ColumnVec>,
    /// Per row, the local id of its descriptor (an index into `desc_ends`).
    descs: Vec<DescId>,
    /// The distinct descriptors' term lists, concatenated in local-id order.
    desc_terms: Vec<(ComponentId, u16)>,
    /// `desc_ends[i]` is where local descriptor `i` ends in `desc_terms`
    /// (it starts where `i - 1` ends). Entry 0 is the tautology: it ends at 0.
    desc_ends: Vec<u32>,
    /// The distinct strings' bytes, concatenated in local-code order.
    str_bytes: String,
    /// `str_ends[c]` is where local string `c` ends in `str_bytes`.
    str_ends: Vec<u32>,
}

/// The range of the flat array that entry `i` of its running-end table
/// `ends` covers.
#[inline]
fn span(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

impl ColumnarImage {
    /// Convert a relation's rows — the one row → column conversion site of
    /// the engine. The conversion interns into throw-away pools; only their
    /// contents are kept, flattened, and the hash tables die here.
    pub(crate) fn build(u: &URelation) -> ColumnarImage {
        let mut pool = DescriptorPool::new();
        let mut strings = StrPool::new();
        let (schema, cols, descs) =
            ColumnarURelation::from_urelation(u, &mut pool, &mut strings).into_parts();
        let mut desc_terms = Vec::new();
        let mut desc_ends = Vec::with_capacity(pool.len());
        for terms in pool.term_lists() {
            desc_terms.extend_from_slice(terms);
            desc_ends.push(u32::try_from(desc_terms.len()).expect("descriptor terms fit in u32"));
        }
        let mut str_bytes = String::new();
        let mut str_ends = Vec::with_capacity(strings.len());
        for code in 0..strings.len() as u32 {
            str_bytes.push_str(strings.get(code));
            str_ends.push(u32::try_from(str_bytes.len()).expect("string bytes fit in u32"));
        }
        ColumnarImage {
            schema,
            cols,
            descs,
            desc_terms,
            desc_ends,
            str_bytes,
            str_ends,
        }
    }

    /// Re-express the image in a run's pools. Interns each distinct
    /// descriptor and string once, then maps the coded columns row by row;
    /// columns whose codes come out unchanged are borrowed from the image.
    pub fn scan<'a>(&'a self, pool: &mut DescriptorPool, strings: &mut StrPool) -> Scan<'a> {
        // Local id → run id. The run's pool hands out the image's own ids
        // when it was empty before this scan (the first relation of a run,
        // normalization's private pool); the column is then borrowed as is.
        let mut desc_map = Vec::with_capacity(self.desc_ends.len());
        desc_map.push(DescId::TAUTOLOGY);
        for i in 1..self.desc_ends.len() {
            desc_map.push(pool.intern_terms(&self.desc_terms[span(&self.desc_ends, i)]));
        }
        let same_ids = desc_map.iter().enumerate().all(|(i, d)| d.index() == i);
        // An empty relation has nothing to map and a certain one maps only
        // the tautology: neither indexes past entry 0.
        let descs = if same_ids {
            Cow::Borrowed(self.descs.as_slice())
        } else {
            Cow::Owned(self.descs.iter().map(|d| desc_map[d.index()]).collect())
        };

        let str_map: Vec<u32> = (0..self.str_ends.len())
            .map(|c| strings.intern(&self.str_bytes[span(&self.str_ends, c)]))
            .collect();
        let same_codes = str_map.iter().enumerate().all(|(c, &m)| m as usize == c);
        let cols = self
            .cols
            .iter()
            .map(|col| match col.data() {
                ColumnData::Str(_) if !same_codes => Cow::Owned(col.with_str_codes(&str_map)),
                _ => Cow::Borrowed(col),
            })
            .collect();
        Scan {
            schema: &self.schema,
            cols,
            descs,
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
    use crate::descriptor::WsDescriptor;
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

    /// Run pools that already hold other entries, so no image code or id
    /// survives the import unchanged.
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
        assert!(u.image().str_ends.is_empty());
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
        assert_eq!(u.image().str_ends.len(), 2);
        roundtrips(&u);
    }

    #[test]
    fn an_empty_relation_scans_to_an_empty_relation() {
        let u = str_relation(&[]);
        let (mut pool, mut strings) = busy_pools();
        let scan = u.image().scan(&mut pool, &mut strings);
        assert!(scan.is_empty());
        assert!(matches!(scan.descs, Cow::Borrowed(_)));
        roundtrips(&u);
    }

    #[test]
    fn a_scan_copies_only_what_it_must_recode() {
        let u = str_relation(&[
            (
                Some("a"),
                Some("b"),
                WsDescriptor::single(ComponentId(0), 0),
            ),
            (Some("b"), None, WsDescriptor::single(ComponentId(0), 1)),
        ]);
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
        let before = pool.stats().intern_calls;
        let scan = u.image().scan(&mut pool, &mut strings);
        assert_eq!(borrowed(&scan), [false, false, true, false]);
        // One intern per distinct descriptor, not per row.
        assert_eq!(pool.stats().intern_calls - before, 2);
        // Empty pools hand out the image's own codes: nothing is copied.
        let scan = u
            .image()
            .scan(&mut DescriptorPool::new(), &mut StrPool::new());
        assert_eq!(borrowed(&scan), [true, true, true, true]);
        // A certain relation keeps its descriptor column in any pool.
        let certain = str_relation(&[(Some("a"), None, WsDescriptor::tautology())]);
        let (mut pool, mut strings) = busy_pools();
        let scan = certain.image().scan(&mut pool, &mut strings);
        assert_eq!(borrowed(&scan), [false, false, true, true]);
    }
}
