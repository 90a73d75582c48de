//! The columnar image of a stored relation.
//!
//! A [`URelation`] is its rows, its [`ColumnarImage`], or both — at least
//! one, and when both, each is exactly what the other converts to. Every
//! consumer that wants columns — the executor's scans, normalization, the
//! statistics, the validation in [`crate::WorldSet::insert`] — reads the
//! image, which exists from one of two moments on:
//!
//! * a relation that was built from rows converts them on the first
//!   [`URelation::image`] call (`ColumnarImage::build`, the engine's one
//!   rows → columns site);
//! * a relation that is a run's answer, or normalization's output, is *born*
//!   with its image ([`ColumnarImage::from_run`]): the output columns
//!   re-coded over relation-local dictionaries. Its rows are built only if
//!   someone asks for them ([`URelation::rows`], the engine's one
//!   columns → rows site).
//!
//! A seeded image is what `build` would have made of the same rows — the
//! same cells, the same string codes and descriptor ids, the same two
//! dictionaries in the same order — so no consumer can tell which way an
//! image came to be. It is shared by clones of the relation and dropped by
//! every method that can change the rows (after they were built), so it is
//! always the image of the relation it belongs to; whatever is memoised
//! *inside* it (the statistics summary) dies with it, at that one site. The
//! one change made to an image in place is normalization's component
//! renumbering (`ColumnarImage::renumber_components`), on an image nobody
//! else holds: one it has just made, or a copy of one it kept.
//!
//! An image is self-contained plain data. Its string cells are codes into a
//! *relation-local* dictionary and its descriptor column holds relation-local
//! ids (id 0 is the tautology, as in every pool). The two dictionaries are
//! pools minus their hash indexes — nothing ever looks a value *up* in an
//! image — and a pool is a flat arena, so a run takes an image in with
//! [`ColumnarImage::scan`] by *appending* the dictionaries to its own pools
//! (`DescriptorPool::import`, `StrPool::import`): no intern call, no
//! allocation per entry. Whatever then reads the same in the run's pools
//! (every non-string column; the descriptor column of a certain relation;
//! any coded column when the run's pool was empty or hands the image's own
//! codes back) is borrowed, not copied.

use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

use crate::columnar::{ColumnData, ColumnVec, ColumnarURelation, StrPool};
use crate::descriptor::WsDescriptor;
use crate::intern::{DescId, DescriptorPool};
use crate::rel::Tuple;
use crate::schema::Schema;
use crate::stats::ImageStats;
use crate::urel::URelation;

/// A relation as typed columns over relation-local dictionaries. See the
/// module docs.
#[derive(Clone, Debug)]
pub struct ColumnarImage {
    /// The rows: `Str` cells are codes into `strings`, descriptors handles
    /// into `pool`.
    rel: ColumnarURelation,
    /// The distinct descriptors, each once, in order of first occurrence.
    pool: DescriptorPool,
    /// The distinct strings of all `Str` columns, in the order a row by row
    /// walk first meets them.
    strings: StrPool,
    /// What [`crate::stats::collect`] found here, kept for the next call.
    stats: OnceLock<ImageStats>,
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
        ColumnarImage {
            rel,
            pool,
            strings,
            stats: OnceLock::new(),
        }
    }

    /// The image of a run's answer: `rel`, whose descriptor column and `Str`
    /// cells refer to the run's `pool` and `strings`, re-coded over
    /// dictionaries of its own — the inverse of [`ColumnarImage::scan`], and
    /// field for field what `ColumnarImage::build` makes of the rows `rel`
    /// converts to. One intern call per distinct handle of the answer goes
    /// to the image's fresh pool, none to the run's; strings are copied by
    /// code with their stored hashes. Every other column moves in as it is.
    pub fn from_run(
        rel: ColumnarURelation,
        pool: &DescriptorPool,
        strings: &StrPool,
    ) -> ColumnarImage {
        let (schema, mut cols, descs) = rel.into_parts();
        let (local_pool, descs) = pool.localize(&descs);
        let (local_strings, codes) = strings.localize(&cols);
        for col in &mut cols {
            if matches!(col.data(), ColumnData::Str(_)) {
                *col = col.with_str_codes(&codes);
            }
        }
        ColumnarImage {
            rel: ColumnarURelation::from_parts(schema, cols, descs),
            pool: local_pool,
            strings: local_strings,
            stats: OnceLock::new(),
        }
    }

    /// The rows this image is the image of — what [`URelation::rows`] calls
    /// when nobody has built them yet, and the engine's one columns → rows
    /// site.
    pub(crate) fn to_rows(&self) -> Vec<(Tuple, WsDescriptor)> {
        self.rel.to_urelation(&self.pool, &self.strings).into_rows()
    }

    /// The columns: `Str` cells are codes into [`ColumnarImage::strings`],
    /// the descriptor column holds handles into
    /// [`ColumnarImage::descriptors`].
    pub fn columns(&self) -> &ColumnarURelation {
        &self.rel
    }

    /// The relation's distinct descriptors, in order of first occurrence
    /// after the tautology.
    pub fn descriptors(&self) -> &DescriptorPool {
        &self.pool
    }

    /// The distinct strings of the relation's `Str` columns.
    pub fn strings(&self) -> &StrPool {
        &self.strings
    }

    /// Renumber the components the descriptor dictionary mentions
    /// ([`DescriptorPool::renumber_components`]) — normalization's garbage
    /// collection, on an image nobody else holds (`URelation::image_mut`).
    /// The statistics memo names no component, so it stays.
    pub(crate) fn renumber_components(&mut self, remap: &[u32]) {
        self.pool.renumber_components(remap);
    }

    /// The cell the statistics of this image are memoised in.
    pub(crate) fn stats_memo(&self) -> &OnceLock<ImageStats> {
        &self.stats
    }

    /// Write the rows as [`URelation`]'s `Display` does — `(v, …) | d` per
    /// line — straight from the cells.
    pub(crate) fn fmt_rows(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rel.len() {
            f.write_str("(")?;
            for (c, col) in self.rel.columns().iter().enumerate() {
                let sep = if c > 0 { ", " } else { "" };
                write!(f, "{sep}{}", col.value(i, &self.strings))?;
            }
            f.write_str(") | ")?;
            let terms = self.pool.terms(self.rel.descs()[i]);
            if terms.is_empty() {
                f.write_str("⊤")?;
            }
            for (k, (c, alt)) in terms.iter().enumerate() {
                let sep = if k > 0 { " ∧ " } else { "" };
                write!(f, "{sep}{c}={alt}")?;
            }
            f.write_str("\n")?;
        }
        Ok(())
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
    fn an_answer_s_image_is_the_one_a_conversion_of_its_rows_builds() {
        let both = WsDescriptor::from_terms(vec![(ComponentId(0), 0), (ComponentId(1), 1)]);
        let both = both.unwrap();
        let u = str_relation(&[
            (Some("b"), Some("a"), both.clone()),
            (None, Some("c"), WsDescriptor::tautology()),
            (Some("a"), None, both),
            (
                Some("c"),
                Some("b"),
                WsDescriptor::single(ComponentId(1), 1),
            ),
        ]);
        // The run's pools hold more than the answer uses, in another order,
        // and the one descriptor rows 0 and 2 share under two handles.
        let (mut pool, mut strings) = busy_pools();
        for s in ["c", "a"] {
            strings.intern(s);
        }
        let (x, y) = (
            pool.single(ComponentId(0), 0),
            pool.single(ComponentId(1), 1),
        );
        let (schema, cols, mut descs) =
            ColumnarURelation::from_urelation(&u, &mut pool, &mut strings).into_parts();
        descs[2] = pool.conjoin(x, y).unwrap();
        assert!(descs[0] != descs[2] && pool.same_descriptor(descs[0], descs[2]));
        let answer = ColumnarURelation::from_parts(schema, cols, descs);
        let before = pool.stats();
        let seeded = ColumnarImage::from_run(answer, &pool, &strings);
        assert_eq!(
            pool.stats(),
            before,
            "nothing is interned in the run's pool"
        );
        let built = ColumnarImage::build(&u);
        assert_eq!(format!("{:?}", seeded.rel), format!("{:?}", built.rel));
        assert_eq!(seeded.rel.descs()[0], seeded.rel.descs()[2]);
        assert_eq!(seeded.pool.len(), 3);
        assert_eq!(seeded.pool.all_terms(), built.pool.all_terms());
        for &id in built.rel.descs() {
            assert_eq!(seeded.pool.terms(id), built.pool.terms(id));
        }
        // Bytes, ends and stored hashes, in first-occurrence order by row:
        // b, a, c.
        assert_eq!(
            format!("{:?}", seeded.strings),
            format!("{:?}", built.strings)
        );
        assert_eq!(seeded.strings.get(0), "b");
        assert_eq!(seeded.to_rows(), u.rows());
        roundtrips(&URelation::from_image(seeded));
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
