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
/// The rows are the stored form. Beside them sits a memo of their columnar
/// form ([`URelation::image`]) that is no part of the relation's value:
/// equality and `{:?}` ignore it, a clone shares the memo *cell* — so
/// whichever of the two is scanned first builds the image for both — and it
/// cannot outlive the rows it was built from: the fields are private and
/// every `&mut` way to the rows goes through one private accessor that
/// leaves the cell to the other holders and takes an empty one first.
#[derive(Clone)]
pub struct URelation {
    schema: Schema,
    rows: Vec<(Tuple, WsDescriptor)>,
    image: Arc<OnceLock<Arc<ColumnarImage>>>,
}

impl PartialEq for URelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Eq for URelation {}

impl fmt::Debug for URelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("URelation")
            .field("schema", &self.schema)
            .field("rows", &self.rows)
            .finish()
    }
}

impl URelation {
    /// An empty u-relation over the given schema.
    pub fn new(schema: Schema) -> Self {
        URelation::from_rows_unchecked(schema, Vec::new())
    }

    /// The rows, for writing: the only `&mut` path to them, and it forgets
    /// the columnar image first, so a stale image cannot exist. A cell that
    /// clones share stays theirs; the writer gets an empty one of its own.
    fn rows_mut(&mut self) -> &mut Vec<(Tuple, WsDescriptor)> {
        match Arc::get_mut(&mut self.image) {
            Some(cell) => drop(cell.take()),
            None => self.image = Arc::default(),
        }
        &mut self.rows
    }

    /// The rows as typed columns, converted on the first call after the rows
    /// last changed and shared from then on (see [`ColumnarImage`]).
    pub fn image(&self) -> &Arc<ColumnarImage> {
        let mut built = false;
        let image = self.image.get_or_init(|| {
            built = true;
            Arc::new(ColumnarImage::build(self))
        });
        let registry = crate::obs::metrics();
        if built {
            registry.scan_images_built_total.inc();
        } else {
            registry.scan_images_reused_total.inc();
        }
        image
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
            rows,
            image: Arc::default(),
        }
    }

    /// Decompose into schema and rows (used by the zero-copy executor to
    /// move extension-operator results without cloning).
    pub fn into_parts(self) -> (Schema, Vec<(Tuple, WsDescriptor)>) {
        (self.schema, self.rows)
    }

    /// Reserve capacity for at least `additional` more rows (e.g. before a
    /// bulk union).
    pub fn reserve(&mut self, additional: usize) {
        // Capacity is not content: the image stays.
        self.rows.reserve(additional);
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The annotated rows.
    pub fn rows(&self) -> &[(Tuple, WsDescriptor)] {
        &self.rows
    }

    /// Number of annotated rows (not distinct tuples).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when every row holds in all worlds.
    pub fn is_certain(&self) -> bool {
        self.rows.iter().all(|(_, d)| d.is_tautology())
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
        for (t, d) in &self.rows {
            m.entry(t).or_default().push(d);
        }
        m
    }

    /// The plain relation this u-relation denotes in the world picked by
    /// `pick`.
    pub fn instantiate(&self, pick: &WorldPick) -> Relation {
        let mut r = Relation::new(self.schema.clone());
        for (t, d) in &self.rows {
            if d.satisfied_by(pick) {
                // Tuples were schema-checked on the way in.
                let _ = r.insert(t.clone());
            }
        }
        r
    }

    /// Replace the rows wholesale (used by normalization).
    pub(crate) fn set_rows(&mut self, rows: Vec<(Tuple, WsDescriptor)>) {
        *self.rows_mut() = rows;
    }

    /// Move the rows out (used by normalization).
    pub(crate) fn take_rows(&mut self) -> Vec<(Tuple, WsDescriptor)> {
        std::mem::take(self.rows_mut())
    }
}

impl fmt::Display for URelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} | ws-descriptor", self.schema.names().join(" | "))?;
        for (t, d) in &self.rows {
            writeln!(f, "{t} | {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{ColumnarURelation, StrPool};
    use crate::descriptor::ComponentId;
    use crate::intern::DescriptorPool;
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

    fn has_image(u: &URelation) -> bool {
        u.image.get().is_some()
    }

    #[test]
    fn the_image_is_no_part_of_the_value() {
        let (cold, warm) = (sample(), sample());
        warm.image();
        assert!(has_image(&warm) && !has_image(&cold));
        assert_eq!(cold, warm);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        assert_eq!(format!("{cold:#?}"), format!("{warm:#?}"));
    }

    #[test]
    fn a_clone_shares_the_image_and_a_write_drops_only_its_own() {
        // The cell is shared, not just its content: a clone taken before the
        // first scan builds the image for the original too.
        let original = sample();
        let early_clone = original.clone();
        assert!(!has_image(&original));
        let image = Arc::clone(early_clone.image());
        assert!(Arc::ptr_eq(original.image(), &image));
        type Write = fn(&mut URelation);
        let writes: [(&str, Write); 5] = [
            ("push", |u| {
                let (t, d) = row();
                u.push(t, d).unwrap()
            }),
            ("push_unchecked", |u| {
                let (t, d) = row();
                u.push_unchecked(t, d)
            }),
            ("dedup", URelation::dedup),
            ("set_rows", |u| u.set_rows(vec![row()])),
            ("take_rows", |u| drop(u.take_rows())),
        ];
        for (name, write) in writes {
            let mut clone = original.clone();
            assert!(Arc::ptr_eq(clone.image(), &image), "{name}");
            write(&mut clone);
            assert!(!has_image(&clone), "{name} must drop the clone's image");
            assert!(Arc::ptr_eq(original.image(), &image), "{name}");
            assert!(Arc::ptr_eq(early_clone.image(), &image), "{name}");
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
