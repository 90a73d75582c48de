//! U-relations: relations whose tuples carry world-set descriptors.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::component::WorldPick;
use crate::descriptor::WsDescriptor;
use crate::error::MayError;
use crate::image::ColumnarImage;
use crate::rel::{Relation, Tuple};
use crate::schema::Schema;

/// An uncertain relation: each row is a tuple plus the world-set descriptor
/// of the worlds in which the tuple appears.
///
/// The same tuple may occur in several rows with different descriptors; its
/// world set is then the *disjunction* of the descriptors. Instantiating a
/// u-relation in a world yields a plain set-semantics [`Relation`].
///
/// A relation holds its rows, its columnar image ([`URelation::image`]), or
/// both — **at least one is always set**, and each is built from the other
/// the first time someone asks for it: a relation made of rows converts them
/// on the first [`URelation::image`] call, a relation that is a run's answer
/// or a normalization's output ([`URelation::from_image`]) builds rows on the
/// first [`URelation::rows`] call and never if nobody reads them. Rows are
/// written only by the builders below (`push`, `push_unchecked`, `dedup`);
/// normalization replaces a relation with the image it computes. Which of the two is there is no part
/// of the relation's value: equality and `{:?}` go by the rows, `{}` prints
/// the same either way. A clone shares the image *cell* — so whichever of
/// the two is scanned first builds the image for both — and the image cannot
/// outlive the relation it was made for: the fields are private and every
/// `&mut` way to the rows goes through one private accessor that builds the
/// rows if they are not there yet, then leaves the cell to the other holders
/// and takes an empty one.
#[derive(Clone)]
pub struct URelation {
    schema: Schema,
    rows: OnceLock<Vec<(Tuple, WsDescriptor)>>,
    image: Arc<OnceLock<Arc<ColumnarImage>>>,
}

impl PartialEq for URelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows() == other.rows()
    }
}

impl Eq for URelation {}

impl fmt::Debug for URelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("URelation")
            .field("schema", &self.schema)
            .field("rows", &self.rows())
            .finish()
    }
}

impl URelation {
    /// An empty u-relation over the given schema.
    pub fn new(schema: Schema) -> Self {
        URelation::from_rows_unchecked(schema, Vec::new())
    }

    /// The relation a run's answer or a normalized relation is: born with
    /// its image ([`ColumnarImage::from_run`]), rows built if and when they
    /// are read.
    pub fn from_image(image: ColumnarImage) -> Self {
        crate::obs::metrics().images_seeded_total.inc();
        URelation {
            schema: image.columns().schema().clone(),
            rows: OnceLock::new(),
            image: Arc::new(OnceLock::from(Arc::new(image))),
        }
    }

    /// The rows, for writing: the only `&mut` path to them. It builds them
    /// first if only the image is there, and then forgets the image — and
    /// with it everything memoised inside it — so a stale image cannot
    /// exist. A cell that clones share stays theirs; the writer gets an
    /// empty one of its own.
    fn rows_mut(&mut self) -> &mut Vec<(Tuple, WsDescriptor)> {
        // While there is an image to build them from.
        self.rows();
        match Arc::get_mut(&mut self.image) {
            Some(cell) => drop(cell.take()),
            None => self.image = Arc::default(),
        }
        self.rows.get_mut().expect("built before the image went")
    }

    /// The relation as typed columns: the image it was born with, or the
    /// rows converted on the first call after they last changed; shared from
    /// then on (see [`ColumnarImage`]).
    pub fn image(&self) -> &Arc<ColumnarImage> {
        self.image
            .get_or_init(|| Arc::new(ColumnarImage::build(self)))
    }

    /// Whether the columnar image is there already (a scan that finds none
    /// builds it, and counts as cold).
    pub fn has_image(&self) -> bool {
        self.image.get().is_some()
    }

    /// Lift a certain relation: every tuple holds in all worlds.
    pub fn from_certain(r: &Relation) -> Self {
        let rows = r
            .tuples()
            .map(|t| (t.clone(), WsDescriptor::tautology()))
            .collect();
        URelation::from_rows_unchecked(r.schema().clone(), rows)
    }

    /// Append a row, checking the tuple against the schema.
    pub fn push(&mut self, tuple: Tuple, desc: WsDescriptor) -> Result<(), MayError> {
        self.schema.check(&tuple)?;
        self.rows_mut().push((tuple, desc));
        Ok(())
    }

    /// Append a row *without* re-checking the tuple against the schema.
    ///
    /// The bulk path for hot loops whose tuples are schema-correct by
    /// construction — projections of checked tuples, join combinations of
    /// checked tuples, or rows taken from a relation with the same schema.
    /// The caller is responsible for that invariant; it is re-verified in
    /// debug builds only.
    pub fn push_unchecked(&mut self, tuple: Tuple, desc: WsDescriptor) {
        debug_assert!(
            self.schema.check(&tuple).is_ok(),
            "push_unchecked received a tuple that violates the schema"
        );
        self.rows_mut().push((tuple, desc));
    }

    /// Build a u-relation from rows that are schema-correct by construction
    /// (see [`URelation::push_unchecked`]); re-verified in debug builds only.
    pub fn from_rows_unchecked(schema: Schema, rows: Vec<(Tuple, WsDescriptor)>) -> Self {
        debug_assert!(
            rows.iter().all(|(t, _)| schema.check(t).is_ok()),
            "from_rows_unchecked received a tuple that violates the schema"
        );
        URelation {
            schema,
            rows: OnceLock::from(rows),
            image: Arc::default(),
        }
    }

    /// Reserve capacity for at least `additional` more rows (e.g. before a
    /// bulk union).
    pub fn reserve(&mut self, additional: usize) {
        // Capacity is not content: the image stays.
        self.rows();
        let rows = self.rows.get_mut().expect("built on the line above");
        rows.reserve(additional);
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The annotated rows — built from the image, once, if the relation was
    /// born with an image and nobody has read its rows before.
    pub fn rows(&self) -> &[(Tuple, WsDescriptor)] {
        self.rows.get_or_init(|| {
            crate::obs::metrics().rows_materialized_total.inc();
            self.image
                .get()
                .expect("a relation holds its rows or its image")
                .to_rows()
        })
    }

    /// The rows of a relation that has them, by value.
    pub(crate) fn into_rows(self) -> Vec<(Tuple, WsDescriptor)> {
        self.rows
            .into_inner()
            .expect("only called on relations built from rows")
    }

    /// Number of annotated rows (not distinct tuples).
    pub fn len(&self) -> usize {
        match self.rows.get() {
            Some(rows) => rows.len(),
            None => self.image().columns().len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when every row holds in all worlds.
    pub fn is_certain(&self) -> bool {
        match self.rows.get() {
            Some(rows) => rows.iter().all(|(_, d)| d.is_tautology()),
            None => self.image().columns().is_certain(),
        }
    }

    /// Sort rows canonically and drop exact duplicates.
    pub fn dedup(&mut self) {
        let rows = self.rows_mut();
        rows.sort_unstable();
        rows.dedup();
    }

    /// Group the descriptors of each distinct tuple (the tuple's world set is
    /// their disjunction).
    pub fn grouped(&self) -> BTreeMap<&Tuple, Vec<&WsDescriptor>> {
        let mut m: BTreeMap<&Tuple, Vec<&WsDescriptor>> = BTreeMap::new();
        for (t, d) in self.rows() {
            m.entry(t).or_default().push(d);
        }
        m
    }

    /// The plain relation this u-relation denotes in the world picked by
    /// `pick`.
    pub fn instantiate(&self, pick: &WorldPick) -> Relation {
        let mut r = Relation::new(self.schema.clone());
        for (t, d) in self.rows() {
            if d.satisfied_by(pick) {
                // Tuples were schema-checked on the way in.
                let _ = r.insert(t.clone());
            }
        }
        r
    }
}

impl fmt::Display for URelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} | ws-descriptor", self.schema.names().join(" | "))?;
        match self.rows.get() {
            Some(rows) => rows.iter().try_for_each(|(t, d)| writeln!(f, "{t} | {d}")),
            None => self.image().fmt_rows(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{ColumnarURelation, StrPool};
    use crate::component::Component;
    use crate::descriptor::ComponentId;
    use crate::intern::DescriptorPool;
    use crate::stats::collect;
    use crate::value::{Value, ValueType};

    fn sample() -> URelation {
        let schema = Schema::of(&[("a", ValueType::Int), ("s", ValueType::Str)]).unwrap();
        let mut u = URelation::new(schema);
        for (a, s, d) in [
            (2, "y", WsDescriptor::single(ComponentId(0), 1)),
            (1, "x", WsDescriptor::tautology()),
            (2, "y", WsDescriptor::single(ComponentId(0), 1)),
        ] {
            u.push(Tuple::new(vec![Value::Int(a), Value::str(s)]), d)
                .unwrap();
        }
        u
    }

    fn row() -> (Tuple, WsDescriptor) {
        (
            Tuple::new(vec![Value::Int(9), Value::str("z")]),
            WsDescriptor::tautology(),
        )
    }

    /// `u` the way a run hands it back: converted into busy run pools, then
    /// re-expressed as an image of its own. No rows.
    fn as_an_answer(u: &URelation) -> URelation {
        let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
        pool.single(ComponentId(7), 1);
        strings.intern("someone else's");
        let columns = ColumnarURelation::from_urelation(u, &mut pool, &mut strings);
        let answer = URelation::from_image(ColumnarImage::from_run(columns, &pool, &strings));
        assert!(has_image(&answer) && !has_rows(&answer));
        answer
    }

    fn has_image(u: &URelation) -> bool {
        u.image.get().is_some()
    }

    fn has_rows(u: &URelation) -> bool {
        u.rows.get().is_some()
    }

    #[test]
    fn the_image_is_no_part_of_the_value() {
        let (cold, warm) = (sample(), sample());
        warm.image();
        assert!(has_image(&warm) && !has_image(&cold));
        assert_eq!(cold, warm);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        assert_eq!(format!("{cold:#?}"), format!("{warm:#?}"));
        // Nor is which of the two a relation was born with.
        let answer = as_an_answer(&cold);
        assert_eq!(answer, cold);
        assert_eq!(format!("{answer:#?}"), format!("{cold:#?}"));
    }

    #[test]
    fn an_answer_builds_rows_only_for_who_reads_them() {
        let rows_built = sample();
        let answer = as_an_answer(&rows_built);
        assert_eq!(answer.len(), 3);
        assert!(!answer.is_empty() && !answer.is_certain());
        assert_eq!(answer.schema(), rows_built.schema());
        assert_eq!(answer.to_string(), rows_built.to_string());
        assert!(!has_rows(&answer), "none of the above reads rows");
        assert_eq!(answer.rows(), rows_built.rows());
        assert!(has_rows(&answer) && has_image(&answer));
        // A certain and an empty one, by the image alone.
        let mut certain = URelation::new(rows_built.schema().clone());
        assert!(as_an_answer(&certain).is_empty());
        let (t, d) = row();
        certain.push(t, d).unwrap();
        assert!(as_an_answer(&certain).is_certain());
        // A write builds the rows first, appends, and drops the image.
        let mut written = as_an_answer(&rows_built);
        let (t, d) = row();
        written.push(t.clone(), d.clone()).unwrap();
        assert!(has_rows(&written) && !has_image(&written));
        assert_eq!(written.rows()[..3], *rows_built.rows());
        assert_eq!(written.rows()[3], (t, d));
        // Capacity is not content, though reserving it takes rows to hold it.
        let mut roomy = as_an_answer(&rows_built);
        roomy.reserve(8);
        assert!(has_rows(&roomy) && has_image(&roomy));
    }

    #[test]
    fn normalizing_an_answer_builds_no_rows() {
        let mut ws = crate::world::WorldSet::new();
        ws.components.add(Component::uniform(2).unwrap());
        // Referenced by nothing: collected.
        ws.components.add(Component::uniform(3).unwrap());
        ws.relations.insert("r".into(), as_an_answer(&sample()));
        ws.normalize();
        let r = &ws.relations["r"];
        assert!(has_image(r) && !has_rows(r));
        assert_eq!((r.len(), ws.components.len()), (2, 1));
        let mut answer = as_an_answer(&sample());
        crate::normalize::normalize_relation(&mut answer, &ws.components);
        assert!(has_image(&answer) && !has_rows(&answer));
        // The duplicate row went; what is left reads in canonical order.
        let want = [
            (
                Tuple::new(vec![Value::Int(1), Value::str("x")]),
                WsDescriptor::tautology(),
            ),
            (
                Tuple::new(vec![Value::Int(2), Value::str("y")]),
                WsDescriptor::single(ComponentId(0), 1),
            ),
        ];
        assert_eq!(answer.rows(), want);
        assert_eq!(r.rows(), want);
    }

    #[test]
    fn display_reads_the_same_off_rows_and_off_the_image() {
        let schema = Schema::of(&[
            ("s", ValueType::Str),
            ("f", ValueType::Float),
            ("b", ValueType::Bool),
            ("n", ValueType::Null),
        ])
        .unwrap();
        let two = WsDescriptor::from_terms(vec![(ComponentId(0), 1), (ComponentId(12), 0)]);
        let mut u = URelation::new(schema);
        for (s, f, b, d) in [
            (
                Value::str("a, b"),
                Value::float(-0.0),
                Value::Null,
                two.unwrap(),
            ),
            (
                Value::Null,
                Value::float(1.5),
                true.into(),
                WsDescriptor::tautology(),
            ),
            (
                Value::str(""),
                Value::Null,
                false.into(),
                WsDescriptor::single(ComponentId(3), 2),
            ),
        ] {
            u.push(Tuple::new(vec![s, f, b, Value::Null]), d).unwrap();
        }
        let expected = "s | f | b | n | ws-descriptor\n\
                        (a, b, -0, NULL, NULL) | c0=1 ∧ c12=0\n\
                        (NULL, 1.5, true, NULL) | ⊤\n\
                        (, NULL, false, NULL) | c3=2\n";
        assert_eq!(u.to_string(), expected);
        let answer = as_an_answer(&u);
        assert_eq!(answer.to_string(), expected);
        assert!(!has_rows(&answer));
        let empty = URelation::new(u.schema().clone());
        assert_eq!(as_an_answer(&empty).to_string(), empty.to_string());
    }

    #[test]
    fn a_clone_shares_the_image_and_a_write_drops_only_its_own() {
        // The cell is shared, not just its content: a clone taken before the
        // first scan builds the image for the original too — and one taken
        // before the first collect shares the statistics memoised inside.
        let original = sample();
        let early_clone = original.clone();
        assert!(!has_image(&original));
        let image = Arc::clone(early_clone.image());
        assert!(Arc::ptr_eq(original.image(), &image));
        assert!(image.stats_memo().get().is_none());
        let collected = collect(&early_clone);
        assert!(original.image().stats_memo().get().is_some());
        type Write = fn(&mut URelation);
        let writes: [(&str, Write); 3] = [
            ("push", |u| {
                let (t, d) = row();
                u.push(t, d).unwrap()
            }),
            ("push_unchecked", |u| {
                let (t, d) = row();
                u.push_unchecked(t, d)
            }),
            ("dedup", URelation::dedup),
        ];
        for (name, write) in writes {
            let mut clone = original.clone();
            assert!(Arc::ptr_eq(clone.image(), &image), "{name}");
            write(&mut clone);
            assert!(!has_image(&clone), "{name} must drop the clone's image");
            assert!(Arc::ptr_eq(original.image(), &image), "{name}");
            assert!(Arc::ptr_eq(early_clone.image(), &image), "{name}");
            // The memo went with the image: the statistics are those of the
            // new rows, and the other holders keep theirs.
            let fresh =
                URelation::from_rows_unchecked(clone.schema().clone(), clone.rows().to_vec());
            assert_ne!(collect(&clone), collected, "{name}");
            assert_eq!(collect(&clone), collect(&fresh), "{name}");
            assert_eq!(collect(&original), collected, "{name}");
            // What the next scan builds is the image of the new rows: the
            // same rows as a fresh conversion gives, descriptor for
            // descriptor (handles are each pool's own business).
            let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
            let fresh = ColumnarURelation::from_urelation(&clone, &mut pool, &mut strings);
            let before = pool.stats().intern_calls;
            let rebuilt = clone.image().scan(&mut pool, &mut strings);
            assert_eq!(pool.stats().intern_calls, before, "{name}: an import");
            assert_eq!(rebuilt.len(), fresh.len(), "{name}");
            assert_eq!(fresh.to_urelation(&pool, &strings), clone, "{name}");
            for i in 0..fresh.len() {
                assert_eq!(
                    pool.terms(rebuilt.descs()[i]),
                    pool.terms(fresh.descs()[i]),
                    "{name}: row {i}"
                );
                for (a, b) in rebuilt.columns().iter().zip(fresh.columns()) {
                    assert!(a.eq_cells(i, b, i), "{name}: row {i}");
                }
            }
        }
        // Capacity is not content.
        let mut clone = original.clone();
        clone.reserve(64);
        assert!(Arc::ptr_eq(clone.image(), &image));
        // A sole owner's write empties its cell in place.
        let mut alone = sample();
        alone.image();
        alone.dedup();
        assert!(!has_image(&alone));
    }
}
