//! U-relations: relations whose tuples carry world-set descriptors.
//!
//! A [`URelation`] is one shared body, stored the way MayBMS stores a
//! u-relation — as one table of the tuple's columns plus the descriptor
//! column: typed columns ([`ColumnarURelation`]) whose string cells are
//! codes into a *relation-local* string dictionary and whose descriptor
//! column holds ids into a relation-local descriptor dictionary (id 0 is the
//! tautology, as in every pool). A stored relation's dictionaries hold each
//! entry once, in order of first occurrence by row. Every consumer that
//! wants columns — the executor's scans, normalization, the statistics, the
//! validation in [`crate::WorldSet::commit`] — reads them where they lie.
//!
//! A relation comes to be in one of two ways:
//!
//! * built row by row ([`URelation::push`]): each row is appended to the
//!   columns by the one per-row step [`ColumnarURelation::from_urelation`]
//!   takes too — a cell per column, the descriptor interned;
//! * as a run's answer ([`URelation::from_run`]): columns over the run's
//!   pools, which move in as they are. They hold whatever else the run met,
//!   and one descriptor may sit under several handles, so a body records
//!   whether its dictionaries are its own. Rows, `{}`, `==`, the statistics
//!   and a scan read either kind; the two places that want a relation's own
//!   dictionaries — [`crate::WorldSet::commit`] and normalization — re-code
//!   an answer over them first, field for field what pushing the same rows
//!   makes ([`URelation::recoded`] is that re-coding as a constructor).
//!
//! Rows are derived: [`URelation::rows`] builds them on its first call (the
//! engine's one columns → rows site) and keeps them in a memo beside the
//! statistics memo ([`URelation::stats`]). Clones share the body, so
//! copying a world set (a snapshot, `EXPLAIN ANALYZE`'s scratch run) copies
//! no cell and builds nothing twice. A write copies the body for the writer
//! alone (`Arc::make_mut`) and clears its rows memo, and a content write its
//! statistics memo too; normalization's component renumbering keeps the
//! statistics, which name no component.
//!
//! Deduplication ([`URelation::dedup`]) reads the columns too: it orders the
//! rows with the engine's one row sort ([`canonical_order`]), keeps the
//! first of each exact duplicate and re-codes the kept rows; it builds no
//! row and pushes none.
//!
//! The dictionaries are pools, and a pool is a flat arena, so a run takes a
//! relation in with [`URelation::scan`] by *appending* them to its own pools
//! (`DescriptorPool::import`, `StrPool::import`): no intern call, no
//! allocation per entry. Whatever then reads the same in the run's pools
//! (every non-string column; the descriptor column of a certain relation;
//! any coded column when the run's pool was empty or hands the relation's
//! own codes back) is borrowed, not copied. Nothing looks a value *up* in a
//! stored relation, so [`crate::WorldSet::commit`] drops the intern indexes
//! pushing built.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::columnar::{canonical_order, ColumnData, ColumnVec, ColumnarURelation, StrPool};
use crate::component::WorldPick;
use crate::descriptor::WsDescriptor;
use crate::error::MayError;
use crate::intern::{DescId, DescriptorPool};
use crate::rel::{Relation, Tuple};
use crate::schema::Schema;
use crate::stats::RelationStats;

/// An uncertain relation: each row is a tuple plus the world-set descriptor
/// of the worlds in which the tuple appears.
///
/// The same tuple may occur in several rows with different descriptors; its
/// world set is then the *disjunction* of the descriptors. Instantiating a
/// u-relation in a world yields a plain set-semantics [`Relation`].
///
/// Stored as columns (see the module docs). Equality and `{:?}` go by the
/// rows, so neither depends on the dictionaries' codes.
#[derive(Clone)]
pub struct URelation {
    body: Arc<Body>,
}

/// What a [`URelation`] is, shared by its clones.
#[derive(Debug)]
struct Body {
    /// The rows: `Str` cells are codes into `strings`, descriptors ids into
    /// `pool`.
    rel: ColumnarURelation,
    /// The descriptors the rows carry.
    pool: DescriptorPool,
    /// The strings of all `Str` columns.
    strings: StrPool,
    /// Whether `pool` and `strings` are the relation's own — each entry
    /// once, in the order a row by row walk first meets them — or a run's
    /// pools ([`URelation::from_run`]).
    own: bool,
    /// What [`URelation::stats`] read off `rel`, kept for the next call.
    stats: OnceLock<Arc<RelationStats>>,
    /// What [`URelation::rows`] built, kept for the next call.
    rows: OnceLock<Vec<(Tuple, WsDescriptor)>>,
}

impl Clone for Body {
    /// A body is copied only to be written, and every write clears the rows
    /// memo: so it copies none.
    fn clone(&self) -> Body {
        Body {
            rel: self.rel.clone(),
            pool: self.pool.clone(),
            strings: self.strings.clone(),
            own: self.own,
            stats: self.stats.clone(),
            rows: OnceLock::new(),
        }
    }
}

impl PartialEq for URelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema() == other.schema() && self.rows() == other.rows()
    }
}

impl Eq for URelation {}

impl fmt::Debug for URelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("URelation")
            .field("schema", self.schema())
            .field("rows", &self.rows())
            .finish()
    }
}

impl URelation {
    /// An empty u-relation over the given schema.
    pub fn new(schema: Schema) -> Self {
        let (pool, strings) = (DescriptorPool::new(), StrPool::new());
        URelation::with_body(ColumnarURelation::new(schema), pool, strings, true)
    }

    fn with_body(
        rel: ColumnarURelation,
        pool: DescriptorPool,
        strings: StrPool,
        own: bool,
    ) -> Self {
        URelation {
            body: Arc::new(Body {
                rel,
                pool,
                strings,
                own,
                stats: OnceLock::new(),
                rows: OnceLock::new(),
            }),
        }
    }

    /// The relation a run's answer is: `rel`, whose descriptor column and
    /// `Str` cells refer to the run's `pool` and `strings`, which move in as
    /// they are — nothing is copied or re-coded. Those dictionaries are not
    /// the relation's own (see the module docs) until something that needs
    /// them to be re-codes them.
    pub fn from_run(rel: ColumnarURelation, pool: DescriptorPool, strings: StrPool) -> Self {
        URelation::with_body(rel, pool, strings, false)
    }

    /// `rel`, whose descriptor column and `Str` cells refer to `pool` and
    /// `strings`, re-coded over dictionaries of its own — the inverse of
    /// [`URelation::scan`], and field for field what pushing the rows `rel`
    /// holds makes.
    pub fn recoded(rel: ColumnarURelation, pool: &DescriptorPool, strings: &StrPool) -> Self {
        let (rel, pool, strings) = recode(rel, pool, strings);
        URelation::with_body(rel, pool, strings, true)
    }

    /// Re-code a run's answer over dictionaries of its own, in place; the
    /// memos stay, since the rows do. A relation whose dictionaries are its
    /// own already is left as it is.
    pub(crate) fn own_dictionaries(&mut self) {
        if self.body.own {
            return;
        }
        let b = Arc::make_mut(&mut self.body);
        let empty = ColumnarURelation::new(b.rel.schema().clone());
        let rel = std::mem::replace(&mut b.rel, empty);
        (b.rel, b.pool, b.strings) = recode(rel, &b.pool, &b.strings);
        b.own = true;
    }

    /// The body, for writing: the only `&mut` path to it. Copied first if a
    /// clone shares it, so the write is the writer's alone; the rows memo is
    /// cleared.
    fn body_mut(&mut self) -> &mut Body {
        let body = Arc::make_mut(&mut self.body);
        body.rows.take();
        body
    }

    /// Append `(tuple, desc)` to the columns, clearing both memos.
    fn append(&mut self, tuple: &Tuple, desc: &WsDescriptor) {
        let body = self.body_mut();
        body.stats.take();
        body.rel
            .push_row(tuple, desc, &mut body.pool, &mut body.strings);
    }

    /// Lift a certain relation: every tuple holds in all worlds.
    pub fn from_certain(r: &Relation) -> Self {
        let mut u = URelation::new(r.schema().clone());
        u.reserve(r.len());
        for t in r.tuples() {
            u.append(t, &WsDescriptor::tautology());
        }
        u
    }

    /// Append a row, checking the tuple against the schema.
    pub fn push(&mut self, tuple: Tuple, desc: WsDescriptor) -> Result<(), MayError> {
        self.schema().check(&tuple)?;
        self.append(&tuple, &desc);
        Ok(())
    }

    /// Append a row *without* re-checking the tuple against the schema.
    ///
    /// The bulk path for loops whose tuples are schema-correct by
    /// construction — rows taken from a relation with the same schema, say.
    /// The caller is responsible for that invariant; it is re-verified in
    /// debug builds only.
    pub fn push_unchecked(&mut self, tuple: Tuple, desc: WsDescriptor) {
        debug_assert!(
            self.schema().check(&tuple).is_ok(),
            "push_unchecked received a tuple that violates the schema"
        );
        self.append(&tuple, &desc);
    }

    /// Reserve capacity for at least `additional` more rows (e.g. before a
    /// bulk load).
    pub fn reserve(&mut self, additional: usize) {
        // Capacity is not content: the statistics stay.
        self.body_mut().rel.reserve(additional);
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.body.rel.schema()
    }

    /// The annotated rows, built from the columns on the first call and kept.
    pub fn rows(&self) -> &[(Tuple, WsDescriptor)] {
        let b = &*self.body;
        b.rows.get_or_init(|| {
            let descs = b.rel.descs().iter();
            let rows = descs
                .enumerate()
                .map(|(i, &d)| (b.rel.tuple_at(i, &b.strings), b.pool.to_descriptor(d)));
            rows.collect()
        })
    }

    /// The columns: `Str` cells are codes into [`URelation::strings`], the
    /// descriptor column holds ids into [`URelation::descriptors`].
    pub fn columns(&self) -> &ColumnarURelation {
        &self.body.rel
    }

    /// The descriptor dictionary. A relation pushed, loaded or stored holds
    /// each of its descriptors once, in order of first occurrence after the
    /// tautology; a run's answer holds the run's pool (see the module docs).
    pub fn descriptors(&self) -> &DescriptorPool {
        &self.body.pool
    }

    /// The string dictionary of the `Str` columns: each string once, the
    /// relation's alone in order of first occurrence unless it is a run's
    /// answer, which holds the run's.
    pub fn strings(&self) -> &StrPool {
        &self.body.strings
    }

    /// The relation's statistics ([`RelationStats`]): read off the columns
    /// on the first call and kept beside them, shared by every clone, until
    /// a content write drops them. The one copy there is — the planner and
    /// the plan cache borrow or share it.
    pub fn stats(&self) -> &Arc<RelationStats> {
        self.body
            .stats
            .get_or_init(|| Arc::new(RelationStats::of(self)))
    }

    /// Renumber the components the descriptor dictionary mentions
    /// ([`DescriptorPool::renumber_components`]) — normalization's garbage
    /// collection. The statistics name no component, so they stay.
    pub(crate) fn renumber_components(&mut self, remap: &[u32]) {
        self.body_mut().pool.renumber_components(remap);
    }

    /// Drop the dictionaries' intern indexes, which pushing built and
    /// nothing reads again — unless a clone shares the body, which is not
    /// worth a copy.
    pub(crate) fn drop_indexes(&mut self) {
        if let Some(body) = Arc::get_mut(&mut self.body) {
            body.pool.drop_index();
            body.strings.drop_index();
        }
    }

    /// Number of annotated rows (not distinct tuples).
    pub fn len(&self) -> usize {
        self.body.rel.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when every row holds in all worlds.
    pub fn is_certain(&self) -> bool {
        self.body.rel.is_certain()
    }

    /// Order the rows canonically ([`canonical_order`]) and drop exact
    /// `(tuple, descriptor)` duplicates, keeping the first of each: the
    /// kept rows are gathered column-wise and re-coded over dictionaries of
    /// their own ([`URelation::recoded`]). No row is built.
    pub fn dedup(&mut self) {
        let (rel, pool) = (self.columns(), self.descriptors());
        let descs = rel.descs();
        let (perm, runs) = canonical_order(rel.columns(), descs, pool, self.strings());
        let mut kept: Vec<u32> = Vec::with_capacity(perm.len());
        for (start, end) in runs {
            // Within a tuple's run equal descriptors lie together.
            let run = &perm[start as usize..end as usize];
            kept.push(run[0]);
            for pair in run.windows(2) {
                let (a, b) = (descs[pair[0] as usize], descs[pair[1] as usize]);
                if !pool.same_descriptor(a, b) {
                    kept.push(pair[1]);
                }
            }
        }
        let deduped =
            rel.gather_with_descs(&kept, kept.iter().map(|&i| descs[i as usize]).collect());
        *self = URelation::recoded(deduped, pool, self.strings());
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
        let mut r = Relation::new(self.schema().clone());
        for (t, d) in self.rows() {
            if d.satisfied_by(pick) {
                // Tuples were schema-checked on the way in.
                let _ = r.insert(t.clone());
            }
        }
        r
    }

    /// Re-express the relation in a run's pools: append its dictionaries to
    /// them, then move the coded columns whose codes changed by that; the
    /// others are borrowed.
    pub fn scan<'a>(&'a self, pool: &mut DescriptorPool, strings: &mut StrPool) -> Scan<'a> {
        let b = &*self.body;
        let str_map = strings.import(&b.strings);
        let cols = b
            .rel
            .columns()
            .iter()
            .map(|col| match (&str_map, col.data()) {
                (Some(map), ColumnData::Str(_)) => Cow::Owned(col.with_str_codes(map)),
                _ => Cow::Borrowed(col),
            })
            .collect();
        Scan {
            schema: b.rel.schema(),
            cols,
            descs: pool.import(&b.pool, b.rel.descs()),
        }
    }
}

/// `rel` over `pool` and `strings` re-coded over dictionaries of its own:
/// one intern call per distinct handle, into the fresh pool — never
/// `pool`; strings copied by code with their stored hashes. Every other
/// column moves as it is.
fn recode(
    rel: ColumnarURelation,
    pool: &DescriptorPool,
    strings: &StrPool,
) -> (ColumnarURelation, DescriptorPool, StrPool) {
    let (schema, mut cols, descs) = rel.into_parts();
    let (local_pool, descs) = pool.localize(&descs);
    let (local_strings, codes) = strings.localize(&cols);
    for col in &mut cols {
        if matches!(col.data(), ColumnData::Str(_)) {
            *col = col.with_str_codes(&codes);
        }
    }
    let rel = ColumnarURelation::from_parts(schema, cols, descs);
    (rel, local_pool, local_strings)
}

/// Written straight from the cells: the header, then `(v, …) | d` per row.
impl fmt::Display for URelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} | ws-descriptor", self.schema().names().join(" | "))?;
        let (rel, pool) = (&self.body.rel, &self.body.pool);
        for (i, &d) in rel.descs().iter().enumerate() {
            f.write_str("(")?;
            for (c, col) in rel.columns().iter().enumerate() {
                let sep = if c > 0 { ", " } else { "" };
                write!(f, "{sep}{}", col.value(i, &self.body.strings))?;
            }
            f.write_str(") | ")?;
            let terms = pool.terms(d);
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
}

/// A [`URelation`] re-expressed in one run's pools: the unit a scan hands to
/// operators. Columns the run reads exactly as the relation stores them are
/// borrowed; only re-coded ones are owned.
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
    use crate::component::Component;
    use crate::descriptor::ComponentId;
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

    /// Run pools that already hold other entries, so no code or id of an
    /// uncertain relation survives an import unchanged.
    fn busy_pools() -> (DescriptorPool, StrPool) {
        let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
        pool.single(ComponentId(7), 1);
        strings.intern("someone else's");
        (pool, strings)
    }

    /// `u` the way a run hands it back: converted into busy run pools, which
    /// move in with it.
    fn as_an_answer(u: &URelation) -> URelation {
        let (mut pool, mut strings) = busy_pools();
        let columns = ColumnarURelation::from_urelation(u, &mut pool, &mut strings);
        URelation::from_run(columns, pool, strings)
    }

    fn has_rows(u: &URelation) -> bool {
        u.body.rows.get().is_some()
    }

    fn stats_memoised(u: &URelation) -> bool {
        u.body.stats.get().is_some()
    }

    /// The same cells, descriptor ids and dictionaries, entry for entry.
    fn assert_same_body(got: &URelation, want: &URelation) {
        let (g, w) = (&got.body, &want.body);
        assert_eq!(format!("{:?}", g.rel), format!("{:?}", w.rel));
        assert_eq!(g.pool.len(), w.pool.len());
        assert_eq!(g.pool.all_terms(), w.pool.all_terms());
        for &id in w.rel.descs() {
            assert_eq!(g.pool.terms(id), w.pool.terms(id));
        }
        assert_eq!(g.strings.len(), w.strings.len());
        for code in 0..w.strings.len() as u32 {
            assert_eq!(g.strings.get(code), w.strings.get(code));
        }
    }

    #[test]
    fn the_image_is_no_part_of_the_value() {
        let pushed = sample();
        let answer = as_an_answer(&pushed);
        assert!(!answer.body.own && pushed.body.own);
        assert_eq!(answer, pushed);
        assert_eq!(format!("{answer:#?}"), format!("{pushed:#?}"));
        assert_eq!(answer.to_string(), pushed.to_string());
        assert_eq!(collect(&answer), collect(&pushed));
        // Re-coded, it is what pushing its rows makes; its memos stay.
        let mut stored = answer;
        stored.own_dictionaries();
        assert!(stored.body.own && has_rows(&stored) && stats_memoised(&stored));
        assert_same_body(&stored, &pushed);
        // A relation whose dictionaries are its own is left as it is.
        let body = Arc::as_ptr(&stored.body);
        stored.own_dictionaries();
        assert_eq!(Arc::as_ptr(&stored.body), body);
    }

    #[test]
    fn an_answer_builds_rows_only_for_who_reads_them() {
        let pushed = sample();
        let answer = as_an_answer(&pushed);
        assert_eq!(answer.len(), 3);
        assert!(!answer.is_empty() && !answer.is_certain());
        assert_eq!(answer.schema(), pushed.schema());
        assert_eq!(answer.to_string(), pushed.to_string());
        let mut pushed = pushed;
        pushed.reserve(1);
        assert!(
            !has_rows(&answer) && !has_rows(&pushed),
            "nothing above reads rows"
        );
        // Read once, kept: the second read is the same vector.
        let rows = answer.rows().as_ptr();
        assert_eq!(answer.rows(), pushed.rows());
        assert_eq!(answer.rows().as_ptr(), rows);
        // A certain and an empty one.
        let mut certain = URelation::new(pushed.schema().clone());
        assert!(as_an_answer(&certain).is_empty() && certain.is_certain());
        let (t, d) = row();
        certain.push(t, d).unwrap();
        assert!(as_an_answer(&certain).is_certain());
        // A push appends to the columns.
        let mut written = as_an_answer(&pushed);
        let (t, d) = row();
        written.push(t.clone(), d.clone()).unwrap();
        assert_eq!(written.rows()[..3], *pushed.rows());
        assert_eq!(written.rows()[3], (t, d));
    }

    #[test]
    fn a_clone_shares_the_image_and_a_write_drops_only_its_own() {
        let original = sample();
        let reader = original.clone();
        let collected = collect(&original);
        let rows = reader.rows().as_ptr();
        // A clone shares the body, and with it both memos.
        assert!(Arc::ptr_eq(&original.body, &reader.body));
        assert!(stats_memoised(&reader) && has_rows(&original));
        type Write = fn(&mut URelation);
        let writes: [(&str, Write); 4] = [
            ("push", |u| {
                let (t, d) = row();
                u.push(t, d).unwrap()
            }),
            ("push_unchecked", |u| {
                let (t, d) = row();
                u.push_unchecked(t, d)
            }),
            ("dedup", URelation::dedup),
            ("reserve", |u| u.reserve(64)),
        ];
        for (name, write) in writes {
            let mut clone = original.clone();
            write(&mut clone);
            assert!(!Arc::ptr_eq(&clone.body, &original.body), "{name}");
            assert!(!has_rows(&clone), "{name} clears the writer's rows");
            // Capacity is not content: the statistics stay.
            assert_eq!(stats_memoised(&clone), name == "reserve", "{name}");
            // The other holders keep their body and both memos.
            assert!(Arc::ptr_eq(&original.body, &reader.body), "{name}");
            assert!(stats_memoised(&original) && has_rows(&original), "{name}");
            assert_eq!(original.rows().as_ptr(), rows, "{name}");
            assert_eq!(original, sample(), "{name}");
            assert_eq!(collect(&original), collected, "{name}");
            // The writer is what pushing its rows from scratch makes.
            let mut fresh = URelation::new(clone.schema().clone());
            for (t, d) in clone.rows() {
                fresh.push(t.clone(), d.clone()).unwrap();
            }
            assert_same_body(&clone, &fresh);
            assert_eq!(collect(&clone), collect(&fresh), "{name}");
        }
        // A sole owner writes in place.
        let mut alone = sample();
        let body = Arc::as_ptr(&alone.body);
        alone.rows();
        let (t, d) = row();
        alone.push(t, d).unwrap();
        assert_eq!(Arc::as_ptr(&alone.body), body);
        assert!(!has_rows(&alone));
    }

    /// What `dedup` made when it sorted the rows and pushed them back: the
    /// distinct `(tuple, descriptor)` rows in their `Ord` order, pushed
    /// afresh.
    fn deduped_by_rows(u: &URelation) -> URelation {
        let mut rows = u.rows().to_vec();
        rows.sort_unstable();
        rows.dedup();
        let mut out = URelation::new(u.schema().clone());
        for (t, d) in rows {
            out.push(t, d).unwrap();
        }
        out
    }

    /// Exact duplicates, `NULL`s, `-0.0`, and tuples under several
    /// descriptors.
    fn with_duplicates() -> URelation {
        let schema = Schema::of(&[
            ("s", ValueType::Str),
            ("f", ValueType::Float),
            ("a", ValueType::Int),
        ])
        .unwrap();
        let (c0, c1) = (ComponentId(0), ComponentId(1));
        let both = WsDescriptor::from_terms(vec![(c0, 1), (c1, 0)]).unwrap();
        let mut u = URelation::new(schema);
        for (s, f, a, d) in [
            (Some("b"), 1.5, Some(3), WsDescriptor::single(c1, 0)),
            (None, -0.0, None, WsDescriptor::tautology()),
            (Some("b"), 1.5, Some(3), WsDescriptor::single(c0, 1)),
            (None, -0.0, None, WsDescriptor::tautology()),
            (Some("a"), 0.0, Some(3), both.clone()),
            (Some("b"), 1.5, Some(3), WsDescriptor::single(c1, 0)),
            (Some("a"), 0.0, Some(3), both),
            (Some("b"), 1.5, None, WsDescriptor::single(c0, 1)),
        ] {
            let cells = vec![
                s.map_or(Value::Null, Value::str),
                Value::Float(f.into()),
                a.map_or(Value::Null, Value::Int),
            ];
            u.push(Tuple::new(cells), d).unwrap();
        }
        u
    }

    #[test]
    fn dedup_reads_columns_and_builds_no_row() {
        let empty = URelation::new(sample().schema().clone());
        let answer = as_an_answer(&with_duplicates());
        for input in [sample(), with_duplicates(), answer, empty] {
            let unread = input.clone();
            let mut got = input.clone();
            got.dedup();
            assert!(
                !has_rows(&unread) && !has_rows(&got),
                "dedup builds no row, of its input or its output"
            );
            assert_same_body(&got, &deduped_by_rows(&input));
            assert_eq!(got, deduped_by_rows(&input));
        }
        // Of the three exact duplicates, one shares its tuple with a row it
        // is no duplicate of.
        let mut u = with_duplicates();
        u.dedup();
        assert_eq!(u.len(), 5);
    }

    #[test]
    fn renumbering_keeps_the_statistics() {
        let mut ws = crate::world::WorldSet::new();
        // Referenced by nothing: collected, so `c1` becomes `c0`.
        ws.components.add(Component::uniform(3).unwrap());
        ws.components.add(Component::uniform(2).unwrap());
        let schema = Schema::of(&[("a", ValueType::Int)]).unwrap();
        let mut u = URelation::new(schema);
        for (a, d) in [
            (1, WsDescriptor::single(ComponentId(1), 0)),
            (2, WsDescriptor::tautology()),
        ] {
            u.push(Tuple::new(vec![Value::Int(a)]), d).unwrap();
        }
        ws.insert("r", u.clone()).unwrap();
        let collected = collect(&u);
        u.rows();
        ws.normalize();
        let r = &ws.relations["r"];
        assert!(stats_memoised(r) && !has_rows(r));
        assert_eq!(collect(r), collected);
        assert_eq!(r.rows()[0].1, WsDescriptor::single(ComponentId(0), 0));
        // The holder of the old body keeps it.
        assert!(has_rows(&u));
        assert_eq!(u.rows()[0].1, WsDescriptor::single(ComponentId(1), 0));
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
        assert!(!has_rows(r));
        assert_eq!((r.len(), ws.components.len()), (2, 1));
        let mut answer = as_an_answer(&sample());
        crate::normalize::normalize_relation(&mut answer, &ws.components);
        assert!(!has_rows(&answer));
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
        assert!(!has_rows(&u));
        assert_eq!(as_an_answer(&u).to_string(), expected);
        let empty = URelation::new(u.schema().clone());
        assert_eq!(empty.to_string(), "s | f | b | n | ws-descriptor\n");
    }

    /// A scan as a standalone relation, copying what it borrows.
    fn scanned(scan: Scan<'_>, pool: &DescriptorPool, strings: &StrPool) -> URelation {
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

    fn roundtrips(u: &URelation) {
        // Into empty pools (everything borrowed) and into busy ones
        // (everything coded is re-coded).
        for (mut pool, mut strings) in [(DescriptorPool::new(), StrPool::new()), busy_pools()] {
            let scan = u.scan(&mut pool, &mut strings);
            assert_eq!(scan.len(), u.len());
            let back = scanned(scan, &pool, &strings);
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
        assert!(u.strings().is_empty());
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
        assert_eq!(u.strings().len(), 2);
        roundtrips(&u);
    }

    #[test]
    fn an_empty_relation_scans_to_an_empty_relation() {
        let u = str_relation(&[]);
        let (mut pool, mut strings) = busy_pools();
        let before = (pool.len(), strings.len());
        let scan = u.scan(&mut pool, &mut strings);
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
        let mut u = str_relation(&[
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
        let seeded = URelation::recoded(answer.clone(), &pool, &strings);
        assert_eq!(
            pool.stats(),
            before,
            "nothing is interned in the run's pool"
        );
        assert_same_body(&seeded, &u);
        // Moved in whole, then re-coded in place: the same body.
        let mut moved = URelation::from_run(answer, pool, strings);
        assert!(moved.descriptors().len() > seeded.descriptors().len());
        moved.own_dictionaries();
        assert_same_body(&moved, &seeded);
        assert_eq!(seeded.columns().descs()[0], seeded.columns().descs()[2]);
        assert_eq!(seeded.descriptors().len(), 3);
        // Bytes, ends and stored hashes, in first-occurrence order by row:
        // b, a, c — and no index, once `insert` dropped the pushed one's.
        u.drop_indexes();
        assert_eq!(
            format!("{:?}", seeded.strings()),
            format!("{:?}", u.strings())
        );
        assert_eq!(seeded.strings().get(0), "b");
        assert_eq!(seeded.rows(), u.rows());
        roundtrips(&seeded);
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
        let scan = u.scan(&mut pool, &mut strings);
        assert_eq!(borrowed(&scan), [false, false, true, false]);
        // The dictionary is appended — one entry per distinct descriptor,
        // not per row — and nothing is interned. Handles are the pool's
        // business; what they denote is the contract.
        assert_eq!(pool.stats().intern_calls, before.intern_calls);
        assert_eq!(pool.stats().imported - before.imported, 2);
        for (&id, (_, _, d)) in scan.descs().iter().zip(&rows) {
            assert_eq!(pool.terms(id), d.terms());
        }
        // Empty pools read the relation's own codes: nothing is copied,
        // nothing interned, hashed or probed.
        let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
        let scan = u.scan(&mut pool, &mut strings);
        assert_eq!(borrowed(&scan), [true, true, true, true]);
        assert_eq!(pool.stats().intern_calls, 0);
        assert_eq!((pool.len(), strings.len()), (3, 2));
        // A certain relation keeps its descriptor column in any pool.
        let certain = str_relation(&[(Some("a"), None, WsDescriptor::tautology())]);
        let (mut pool, mut strings) = busy_pools();
        let scan = certain.scan(&mut pool, &mut strings);
        assert_eq!(borrowed(&scan), [false, false, true, true]);
        assert_eq!(pool.stats().intern_calls, 1, "busy_pools' own");
    }
}
