//! # maybms-testkit — property-testing support
//!
//! Deterministic random generators for world sets and algebra plans, plus
//! oracle helpers that compute `possible` / `certain` / `conf` semantics by
//! brute-force world enumeration, and ([`oracle`]) the reference
//! implementations the engine itself no longer calls. The cross-layer
//! differential tests live in this crate's `tests/` directory so that no
//! layer needs a dev-dependency cycle.
//!
//! The generators use `maybms_core::rng` (a seeded SplitMix64) instead of
//! `proptest`, which is unavailable offline; each test iterates over many
//! derived seeds and reports the failing seed for exact replay.

pub mod oracle;

use std::collections::BTreeMap;

use maybms_algebra::{col, lit, naive, CmpOp, Operand, Plan, Predicate};
use maybms_core::rng::Rng;
use maybms_core::{
    ColumnarURelation, Component, ComponentId, ComponentSet, DescriptorPool, MayError, Relation,
    Schema, StrPool, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor,
};
use maybms_ql::{certain, conf, conf_approx, possible, repair_key};

/// Upper bound on enumerated worlds in tests; generated inputs stay far
/// below it.
pub const WORLD_LIMIT: u128 = 1 << 20;

/// Tuning knobs for [`gen_world_set`].
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum number of components (each gets 2–3 alternatives).
    pub max_components: usize,
    /// Number of base relations (named `r0`, `r1`, …).
    pub relations: usize,
    /// Maximum rows per relation.
    pub max_rows: usize,
    /// Maximum arity per relation.
    pub max_arity: usize,
    /// Values are drawn from `0..domain`.
    pub domain: i64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_components: 4,
            relations: 3,
            max_rows: 6,
            max_arity: 3,
            domain: 4,
        }
    }
}

/// Column-name pool shared across generated relations so natural joins have
/// columns to match on.
const COL_POOL: [&str; 4] = ["a", "b", "c", "d"];

/// ε the generators use for `conf(eps, delta)` nodes. Modest on purpose:
/// under a forced-sampling cutover (`ApproxConf::exact_limit` 0) every
/// generated group is estimated, and this budget needs only a few dozen
/// draws per group.
pub const GEN_CONF_EPS: f64 = 0.25;

/// δ the generators use for `conf(eps, delta)` nodes.
pub const GEN_CONF_DELTA: f64 = 0.1;

/// A world set of up to `cfg.max_components` weighted components (2–3
/// alternatives each) and no relations yet.
fn gen_components(rng: &mut Rng, cfg: &GenConfig) -> WorldSet {
    let mut ws = WorldSet::new();
    let n_comps = rng.below(cfg.max_components + 1);
    for _ in 0..n_comps {
        let alts = rng.range(2, 3);
        let weights: Vec<f64> = (0..alts).map(|_| rng.unit_f64()).collect();
        ws.components
            .add(Component::from_weights(&weights).expect("weights are positive"));
    }
    ws
}

/// Generate a small random world set: a few weighted components and a few
/// integer relations whose rows carry random (consistent) descriptors.
pub fn gen_world_set(rng: &mut Rng, cfg: &GenConfig) -> WorldSet {
    let mut ws = gen_components(rng, cfg);
    for ri in 0..cfg.relations {
        let arity = rng.range(1, cfg.max_arity);
        let start = rng.below(COL_POOL.len() - arity + 1);
        let schema = Schema::of(
            &COL_POOL[start..start + arity]
                .iter()
                .map(|n| (*n, ValueType::Int))
                .collect::<Vec<_>>(),
        )
        .expect("pool names are distinct");
        let mut rel = URelation::new(schema);
        for _ in 0..rng.below(cfg.max_rows + 1) {
            let tuple = Tuple::new(
                (0..arity)
                    .map(|_| Value::Int(rng.below(cfg.domain as usize) as i64))
                    .collect(),
            );
            let desc = gen_descriptor(rng, &ws);
            rel.push(tuple, desc)
                .expect("generated tuple matches schema");
        }
        ws.insert(format!("r{ri}"), rel)
            .expect("generated descriptors are valid");
    }
    ws
}

/// Generate a relation exercising *every* value type the columnar layout
/// stores — ints, floats (including `-0.0` and `NaN`, which round-trip by
/// bit pattern), strings, booleans, pure-`null` columns, and `NULL`s
/// sprinkled into typed columns — with random consistent descriptors over
/// `ws`'s components. Used by the row↔columnar round-trip suite, which the
/// int-only [`gen_world_set`] cannot cover.
pub fn gen_mixed_relation(rng: &mut Rng, ws: &WorldSet) -> URelation {
    const TYPES: [ValueType; 5] = [
        ValueType::Int,
        ValueType::Float,
        ValueType::Str,
        ValueType::Bool,
        ValueType::Null,
    ];
    let arity = rng.range(1, 4);
    let schema = Schema::new(
        (0..arity)
            .map(|i| maybms_core::Column::new(format!("c{i}"), *rng.pick(&TYPES)))
            .collect(),
    )
    .expect("generated names are distinct");
    let mut rel = URelation::new(schema.clone());
    for _ in 0..rng.below(13) {
        let tuple = Tuple::new(
            schema
                .columns()
                .iter()
                .map(|c| {
                    if rng.chance(0.15) {
                        return Value::Null;
                    }
                    match c.ty {
                        ValueType::Int => Value::Int(rng.below(7) as i64 - 3),
                        ValueType::Float => {
                            if rng.chance(0.1) {
                                Value::float(-0.0)
                            } else if rng.chance(0.05) {
                                Value::float(f64::NAN)
                            } else {
                                Value::float((rng.below(9) as f64 - 4.0) * 0.5)
                            }
                        }
                        ValueType::Str => Value::str(format!("s{}", rng.below(5))),
                        ValueType::Bool => Value::Bool(rng.chance(0.5)),
                        ValueType::Null => Value::Null,
                    }
                })
                .collect(),
        );
        let desc = gen_descriptor(rng, ws);
        rel.push(tuple, desc)
            .expect("generated tuple matches schema");
    }
    rel
}

/// Typed column pool of [`gen_typed_world_set`]: a name always has one
/// type, so natural joins between generated relations stay well-typed.
const TYPED_COL_POOL: [(&str, ValueType); 5] = [
    ("a", ValueType::Int),
    ("b", ValueType::Str),
    ("c", ValueType::Int),
    ("d", ValueType::Float),
    ("e", ValueType::Bool),
];

/// [`gen_world_set`] with string, float and boolean columns beside the int
/// ones, and `NULL`s sprinkled into all of them — the relations the MayQL
/// generator ([`gen_query`]) needs to reach the columnar layer's string
/// dictionaries and validity masks (it compares columns with columns of
/// their type and with literals, and joins, projects, repairs and
/// quantifies over whatever the schemas hold). Floats include `-0.0` and
/// `NaN`, so a float join key meets both.
pub fn gen_typed_world_set(rng: &mut Rng, cfg: &GenConfig) -> WorldSet {
    let mut ws = gen_components(rng, cfg);
    for ri in 0..cfg.relations {
        let arity = rng.range(1, cfg.max_arity.min(TYPED_COL_POOL.len()));
        let start = rng.below(TYPED_COL_POOL.len() - arity + 1);
        let schema =
            Schema::of(&TYPED_COL_POOL[start..start + arity]).expect("pool names are distinct");
        let mut rel = URelation::new(schema.clone());
        for _ in 0..rng.below(cfg.max_rows + 1) {
            let tuple = Tuple::new(
                schema
                    .columns()
                    .iter()
                    .map(|c| match c.ty {
                        _ if rng.chance(0.15) => Value::Null,
                        ValueType::Int => Value::Int(rng.below(cfg.domain as usize) as i64),
                        ValueType::Str => Value::str(format!("s{}", rng.below(3))),
                        // `-0.0` and `NaN` beside `0.0`: float join
                        // keys and dedup hash floats by their bits.
                        ValueType::Float => {
                            Value::float(*rng.pick(&[0.0, 0.5, 1.0, -0.0, f64::NAN]))
                        }
                        ValueType::Bool => Value::Bool(rng.chance(0.5)),
                        ValueType::Null => Value::Null,
                    })
                    .collect(),
            );
            let desc = gen_descriptor(rng, &ws);
            rel.push(tuple, desc)
                .expect("generated tuple matches schema");
        }
        ws.insert(format!("r{ri}"), rel)
            .expect("generated descriptors are valid");
    }
    ws
}

/// `rel` rebuilt from its rows by [`URelation::push`], sharing nothing
/// with `rel` (a plain `clone` shares its body and both memos).
pub fn pushed(rel: &URelation) -> URelation {
    let mut out = URelation::new(rel.schema().clone());
    out.reserve(rel.len());
    for (t, d) in rel.rows() {
        out.push_unchecked(t.clone(), d.clone());
    }
    out
}

/// The same world set with every relation rebuilt from its rows by
/// [`pushed`]: what a differential test compares a long-lived world set —
/// whose relations are runs' answers, normalized, renumbered, written —
/// against.
pub fn rebuilt_by_push(ws: &WorldSet) -> WorldSet {
    WorldSet {
        components: ws.components.clone(),
        relations: ws
            .relations
            .iter()
            .map(|(name, rel)| (name.clone(), pushed(rel)))
            .collect(),
    }
}

/// The certain twin of a world set: every relation's rows, in order, each
/// under `⊤`, and no components — the one-world database that holds every
/// tuple any world of `ws` holds. A positive query (no `REPAIR KEY`, `CONF`
/// or `CERTAIN`) is monotone, so its answer over the twin contains every
/// tuple it possibly answers over `ws`; running both times what the
/// descriptors cost.
pub fn certain_twin(ws: &WorldSet) -> WorldSet {
    let relations = ws.relations.iter().map(|(name, rel)| {
        let mut twin = URelation::new(rel.schema().clone());
        twin.reserve(rel.len());
        for (t, _) in rel.rows() {
            twin.push_unchecked(t.clone(), WsDescriptor::tautology());
        }
        (name.clone(), twin)
    });
    WorldSet {
        components: ComponentSet::new(),
        relations: relations.collect(),
    }
}

/// `u` the way a run hands it back: converted into run pools that already
/// hold other entries, which move in with it ([`URelation::from_run`]). Its
/// dictionaries are not its own until `WorldSet::insert` or normalization
/// re-codes them, and it has no rows until someone reads them.
pub fn as_an_answer(u: &URelation) -> URelation {
    let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
    pool.single(ComponentId(1 << 20), 1);
    strings.intern("someone else's");
    let columns = ColumnarURelation::from_urelation(u, &mut pool, &mut strings);
    URelation::from_run(columns, pool, strings)
}

/// Field for field: the same cells (strings by code), the same descriptor
/// column, and two dictionaries holding the same entries in the same order.
pub fn assert_same_image(got: &URelation, want: &URelation, at: &str) {
    assert_same_columns(
        got,
        (want.columns(), want.descriptors(), want.strings()),
        at,
    );
}

/// [`assert_same_image`] against columns over the pools `want` names.
pub fn assert_same_columns(
    got: &URelation,
    want: (&ColumnarURelation, &DescriptorPool, &StrPool),
    at: &str,
) {
    let (w, want_pool, want_strings) = want;
    let g = got.columns();
    assert_eq!(g.schema(), w.schema(), "{at}");
    assert_eq!(g.descs(), w.descs(), "{at}: descriptor ids");
    for (c, (x, y)) in g.columns().iter().zip(w.columns()).enumerate() {
        assert_eq!(
            std::mem::discriminant(x.data()),
            std::mem::discriminant(y.data()),
            "{at}: column {c}"
        );
        for i in 0..g.len() {
            assert!(x.eq_cells(i, y, i), "{at}: cell ({i}, {c})");
        }
    }
    // Every dictionary entry is some row's, so the rows reach all of them.
    assert_eq!(got.descriptors().len(), want_pool.len(), "{at}");
    for &id in g.descs() {
        let (x, y) = (got.descriptors().terms(id), want_pool.terms(id));
        assert_eq!(x, y, "{at}: descriptor {id:?}");
    }
    assert_eq!(got.strings().len(), want_strings.len(), "{at}");
    for code in 0..got.strings().len() as u32 {
        let (x, y) = (got.strings().get(code), want_strings.get(code));
        assert_eq!(x, y, "{at}: string {code}");
    }
}

/// `rel` is field for field what pushing its rows makes.
pub fn assert_image_as_built(rel: &URelation, at: &str) {
    assert_same_image(rel, &pushed(rel), at);
}

/// A random consistent descriptor over the world set's components (possibly
/// the tautology).
pub fn gen_descriptor(rng: &mut Rng, ws: &WorldSet) -> WsDescriptor {
    let n = ws.components.len();
    if n == 0 {
        return WsDescriptor::tautology();
    }
    let mut terms = Vec::new();
    for (id, comp) in ws.components.iter() {
        if rng.chance(0.4) {
            terms.push((id, rng.below(comp.alternatives() as usize) as u16));
        }
        if terms.len() == 2 {
            break;
        }
    }
    WsDescriptor::from_terms(terms).expect("distinct components cannot conflict")
}

/// Generate a random positive-relational-algebra plan that is guaranteed to
/// be well-typed against `ws` (schemas are tracked during generation).
pub fn gen_plan(rng: &mut Rng, ws: &WorldSet, depth: usize) -> Plan {
    assert!(
        !ws.relations.is_empty(),
        "gen_plan needs at least one base relation"
    );
    gen_plan_inner(rng, ws, depth)
}

fn gen_plan_inner(rng: &mut Rng, ws: &WorldSet, depth: usize) -> Plan {
    let names: Vec<String> = ws.relations.keys().cloned().collect();
    if depth == 0 {
        return Plan::scan(rng.pick(&names).clone());
    }
    match rng.below(6) {
        0 => Plan::scan(rng.pick(&names).clone()),
        1 => {
            let input = gen_plan_inner(rng, ws, depth - 1);
            let schema = plan_schema(&input, ws);
            let names = schema.names();
            let column = rng.pick(&names).to_string();
            let op = *rng.pick(&[
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ]);
            let rhs = if rng.chance(0.5) {
                lit(rng.below(4) as i64)
            } else {
                col(rng.pick(&names).to_string())
            };
            input.select(Predicate::cmp(op, col(column), rhs))
        }
        2 => {
            let input = gen_plan_inner(rng, ws, depth - 1);
            let schema = plan_schema(&input, ws);
            let names = schema.names();
            let keep: Vec<&str> = names.iter().filter(|_| rng.chance(0.6)).copied().collect();
            let keep = if keep.is_empty() {
                vec![names[0]]
            } else {
                keep
            };
            input.project(keep)
        }
        3 => {
            let left = gen_plan_inner(rng, ws, depth - 1);
            let right = gen_plan_inner(rng, ws, depth - 1);
            // Over `gen_typed_world_set` an alias `z` may name columns of two
            // types, which no join accepts: keep the left side alone then.
            let typed = plan_schema(&left, ws).natural_join(&plan_schema(&right, ws));
            if typed.is_ok() {
                left.join(right)
            } else {
                left
            }
        }
        4 => {
            // Union requires identical schemas; derive both sides from one
            // subplan so compatibility is guaranteed.
            let input = gen_plan_inner(rng, ws, depth - 1);
            let schema = plan_schema(&input, ws);
            let names = schema.names();
            let column = rng.pick(&names).to_string();
            let filtered = input.clone().select(Predicate::cmp(
                CmpOp::Ne,
                col(column),
                lit(rng.below(4) as i64),
            ));
            input.union(filtered)
        }
        _ => {
            let input = gen_plan_inner(rng, ws, depth - 1);
            let schema = plan_schema(&input, ws);
            let names = schema.names();
            // Rename to a name outside the pool; skip if a nested rename
            // already introduced it (renaming would duplicate the column).
            if names.contains(&"z") {
                return input;
            }
            let old = rng.pick(&names).to_string();
            input.rename([(old.as_str(), "z")])
        }
    }
}

/// Schema of a generated plan (generated plans are always well-typed).
fn plan_schema(plan: &Plan, ws: &WorldSet) -> Schema {
    plan.schema_with(&ws.relations)
        .expect("generated plans are well-typed")
}

/// Wrap a generated plan in a random uncertainty construct (`possible`,
/// `certain`, `conf`, `repair-key` over a `possible`-certified input) — or
/// leave it bare: the base layer of [`gen_uncertain_plan`].
fn wrap_uncertainty(rng: &mut Rng, ws: &WorldSet, plan: Plan) -> Plan {
    match rng.below(5) {
        0 => possible(plan),
        1 => certain(plan),
        // Generated schemas draw from the a–d/z name pool, so a `conf`
        // column can never pre-exist. Half the time, use the (ε, δ)-
        // approximate variant with the modest default parameters the
        // generators standardize on — sampling streams are content-keyed,
        // so the differential suites' optimized/unoptimized and
        // threads=1/threads=4 comparisons stay bit-exact.
        2 => {
            if rng.chance(0.5) {
                conf_approx(plan, GEN_CONF_EPS, GEN_CONF_DELTA)
            } else {
                conf(plan)
            }
        }
        3 => {
            let schema = plan_schema(&plan, ws);
            let names = schema.names();
            let mut key: Vec<&str> = names.iter().filter(|_| rng.chance(0.5)).copied().collect();
            if key.is_empty() {
                key.push(names[0]);
            }
            // No WEIGHT BY: generated values include 0, which is not a
            // valid repair weight.
            repair_key(possible(plan), &key, None)
        }
        _ => plan,
    }
}

/// Generate a plan that layers positive relational algebra *on top of*
/// uncertainty constructs (not only beneath them, as `wrap_uncertainty`
/// does): a random RA plan is wrapped in a random uncertainty operator and
/// then extended with up to three more selection / projection / join /
/// quantifier layers: selections and projections above
/// `possible`/`certain`/`conf` (which the optimizer must leave there) and
/// filters above joins of collapsed subplans (which it sinks) — so the
/// optimizer differential suite generates its cases here.
pub fn gen_uncertain_plan(rng: &mut Rng, ws: &WorldSet, depth: usize) -> Plan {
    let base = gen_plan(rng, ws, depth);
    let mut plan = wrap_uncertainty(rng, ws, base);
    for _ in 0..rng.below(4) {
        let schema = plan_schema(&plan, ws);
        let names: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
        match rng.below(5) {
            0 | 1 => {
                let c = rng.pick(&names).clone();
                let op = *rng.pick(&[
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ]);
                let rhs = if rng.chance(0.5) {
                    lit(rng.below(4) as i64)
                } else {
                    col(rng.pick(&names).clone())
                };
                plan = plan.select(Predicate::cmp(op, col(c), rhs));
            }
            2 => {
                let keep: Vec<String> = names.iter().filter(|_| rng.chance(0.6)).cloned().collect();
                let keep = if keep.is_empty() {
                    vec![names[0].clone()]
                } else {
                    keep
                };
                plan = plan.project(keep);
            }
            3 => {
                // A *swapping* rename between two same-typed columns — the
                // adversarial shape for projection pruning, which must keep
                // both pairs and both source columns alive below. (Same
                // type, so later natural joins stay well-typed.)
                let cols = schema.columns();
                let swap = (rng.chance(0.4) && cols.len() >= 2)
                    .then(|| {
                        let i = rng.below(cols.len());
                        cols.iter()
                            .enumerate()
                            .find(|(j, c)| *j != i && c.ty == cols[i].ty)
                            .map(|(j, _)| (cols[i].name.clone(), cols[j].name.clone()))
                    })
                    .flatten();
                match swap {
                    Some((a, b)) => {
                        plan = plan.rename([(a.clone(), b.clone()), (b, a)]);
                    }
                    None => {
                        // Join the collapsed subplan against a base
                        // relation (all base columns are ints from the
                        // shared pool, so shared names always agree on
                        // type; `conf`/`z` never collide).
                        let rels: Vec<String> = ws.relations.keys().cloned().collect();
                        plan = plan.join(Plan::scan(rng.pick(&rels).clone()));
                    }
                }
            }
            _ => {
                // Re-wrap in a further world-collapsing quantifier (never
                // `conf`, which cannot nest once its column exists).
                plan = if rng.chance(0.5) {
                    possible(plan)
                } else {
                    certain(plan)
                };
            }
        }
    }
    plan
}

/// Generate a random MayQL query *string* together with the hand-built
/// [`Plan`] it must lower to. The pair is constructed side by side — the
/// text by emitting grammar productions (with randomized keyword case), the
/// plan by mirroring the planner's documented lowering — so differential
/// tests can parse the text and compare against an independently built
/// plan, then execute both.
///
/// Generated queries are always semantically valid for `ws`: columns come
/// from tracked schemas, comparisons (alone, under `OR`, under `NOT`) stay
/// within `int` columns or set a `float` / `str` column against a column or
/// literal of its type (or `NULL`), `UNION` sides share a schema by
/// construction, `CONF` is only applied where no `conf` column pre-exists,
/// and `REPAIR KEY` inputs are certified with `SELECT POSSIBLE`.
pub fn gen_query(rng: &mut Rng, ws: &WorldSet, depth: usize) -> (String, Plan) {
    let (text, plan, _) = gen_query_inner(rng, ws, depth);
    (text, plan)
}

/// Keywords are case-insensitive; exercise that by flipping a coin per
/// keyword occurrence.
fn kw(rng: &mut Rng, word: &str) -> String {
    if rng.chance(0.5) {
        word.to_uppercase()
    } else {
        word.to_lowercase()
    }
}

fn gen_query_inner(rng: &mut Rng, ws: &WorldSet, depth: usize) -> (String, Plan, Schema) {
    if depth == 0 {
        return gen_base_select(rng, ws);
    }
    match rng.below(4) {
        1 => {
            // UNION: replay the generator from a cloned RNG state so both
            // sides get textually identical (hence union-compatible) terms
            // that lower to *separately constructed* plans — mirroring the
            // parser, which never shares subtrees. Optionally wrap the
            // right side in an extra filter so the union isn't trivial.
            let mut replay = rng.clone();
            let (t1, p1, schema) = gen_query_inner(rng, ws, depth - 1);
            let (t2, p2, _) = gen_query_inner(&mut replay, ws, depth - 1);
            let int_cols = int_columns(&schema);
            if !int_cols.is_empty() && rng.chance(0.7) {
                let c = rng.pick(&int_cols).clone();
                let k = rng.below(4) as i64;
                // A select block needs no parentheses as a right operand.
                let t2 = format!(
                    "{} * {} ({t2}) {} {c} <> {k}",
                    kw(rng, "select"),
                    kw(rng, "from"),
                    kw(rng, "where")
                );
                let t2 = if rng.chance(0.5) {
                    format!("({t2})")
                } else {
                    t2
                };
                let p2 = p2.select(Predicate::cmp(CmpOp::Ne, col(c), lit(k)));
                let text = format!("{t1} {} {t2}", kw(rng, "union"));
                (text, p1.union(p2), schema)
            } else {
                // Parenthesize the right side: `UNION` parses
                // left-associatively, so a bare `t1 UNION t2` would
                // re-associate any top-level union inside `t2`.
                let text = format!("{t1} {} ({t2})", kw(rng, "union"));
                (text, p1.union(p2), schema)
            }
        }
        2 => {
            // REPAIR KEY over a POSSIBLE-certified subquery.
            let (t, p, schema) = gen_query_inner(rng, ws, depth - 1);
            let names = schema.names();
            let mut key: Vec<&str> = names.iter().filter(|_| rng.chance(0.5)).copied().collect();
            if key.is_empty() {
                key.push(names[0]);
            }
            let text = format!(
                "{} {} {} {} ({} {} * {} ({t}))",
                kw(rng, "repair"),
                kw(rng, "key"),
                key.join(", "),
                kw(rng, "in"),
                kw(rng, "select"),
                kw(rng, "possible"),
                kw(rng, "from")
            );
            let plan = repair_key(possible(p), &key, None);
            (text, plan, schema)
        }
        _ => gen_select_block(rng, ws, depth),
    }
}

/// `SELECT * FROM r` over a random base relation.
fn gen_base_select(rng: &mut Rng, ws: &WorldSet) -> (String, Plan, Schema) {
    let names: Vec<&String> = ws.relations.keys().collect();
    let name = (*rng.pick(&names)).clone();
    let schema = ws.relations[&name].schema().clone();
    let text = format!("{} * {} {name}", kw(rng, "select"), kw(rng, "from"));
    (text, Plan::scan(name), schema)
}

/// Every comparison operator.
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// One comparison from `atom`, or a disjunction of two, or the negation of
/// either — the shapes behind the cost model's `OR` and `NOT`
/// selectivities — written so it parses back to the same predicate
/// whatever `AND` joins it to: a disjunction in parentheses, a negation
/// binding tighter than `AND`.
fn gen_compound(
    rng: &mut Rng,
    mut atom: impl FnMut(&mut Rng) -> (String, Predicate),
) -> (String, Predicate) {
    let (mut text, mut pred) = atom(rng);
    if rng.chance(0.3) {
        let (t2, p2) = atom(rng);
        text = format!("({text} {} {t2})", kw(rng, "or"));
        pred = Predicate::Or(vec![pred, p2]);
    }
    if rng.chance(0.2) {
        text = format!("{} {text}", kw(rng, "not"));
        pred = Predicate::Not(Box::new(pred));
    }
    (text, pred)
}

/// A full select block: joins, optional filter, projection with optional
/// `AS` alias, optional quantifier.
fn gen_select_block(rng: &mut Rng, ws: &WorldSet, depth: usize) -> (String, Plan, Schema) {
    // FROM: one to three items, natural-joined left to right.
    let (t0, mut plan, mut schema) = gen_from_item(rng, ws, depth);
    let mut from_texts = vec![t0];
    while from_texts.len() < 3 && rng.chance(0.4) {
        let (t, p, s) = gen_from_item(rng, ws, depth);
        // Over `gen_typed_world_set` an alias `z` may name columns of two
        // types, which no join accepts: leave such an item out.
        let Ok(jp) = schema.natural_join(&s) else {
            continue;
        };
        plan = plan.join(p);
        schema = jp.schema;
        from_texts.push(t);
    }

    // WHERE: an int-typed comparison (literal or column on the right), or
    // a disjunction or negation of such.
    let int_cols = int_columns(&schema);
    let filter = if !int_cols.is_empty() && rng.chance(0.5) {
        Some(gen_compound(rng, |rng| {
            let c = rng.pick(&int_cols).clone();
            let op = *rng.pick(&CMP_OPS);
            let (rhs_text, rhs): (String, Operand) = if rng.chance(0.5) {
                let k = rng.below(4) as i64;
                (k.to_string(), lit(k))
            } else {
                let rc = rng.pick(&int_cols).clone();
                (rc.clone(), col(rc))
            };
            (
                format!("{c} {op} {rhs_text}"),
                Predicate::cmp(op, col(c), rhs),
            )
        }))
    } else {
        None
    };
    // And over `gen_typed_world_set`: a float or string column against a
    // column of its type (itself included), a literal of its type or
    // `NULL`, the column on either side — or a disjunction or negation of
    // such.
    let typed_cols: Vec<&maybms_core::Column> = schema
        .columns()
        .iter()
        .filter(|c| matches!(c.ty, ValueType::Float | ValueType::Str))
        .collect();
    let filter = if !typed_cols.is_empty() && rng.chance(0.5) {
        let (text, pred) = gen_compound(rng, |rng| {
            let c = rng.pick(&typed_cols);
            let other = if rng.chance(0.3) {
                let same: Vec<&&maybms_core::Column> =
                    typed_cols.iter().filter(|o| o.ty == c.ty).collect();
                col(rng.pick(&same).name.as_str())
            } else {
                lit(match c.ty {
                    _ if rng.chance(0.1) => Value::Null,
                    ValueType::Float => Value::float(*rng.pick(&[-0.0, 0.0, 0.5, 1.0])),
                    _ => Value::str(format!("s{}", rng.below(3))),
                })
            };
            let op = *rng.pick(&CMP_OPS);
            let (l, r) = if rng.chance(0.5) {
                (col(c.name.as_str()), other)
            } else {
                (other, col(c.name.as_str()))
            };
            (format!("{l} {op} {r}"), Predicate::cmp(op, l, r))
        });
        Some(match filter {
            Some((t0, p0)) => (
                format!("{t0} {} {text}", kw(rng, "and")),
                Predicate::And(vec![p0, pred]),
            ),
            None => (text, pred),
        })
    } else {
        filter
    };
    if let Some((_, pred)) = &filter {
        plan = plan.select(pred.clone());
    }

    // Select list: `*`, or a non-empty subset with at most one `AS z`.
    let list_text = if rng.chance(0.4) {
        "*".to_string()
    } else {
        let names: Vec<String> = schema.names().iter().map(|n| n.to_string()).collect();
        let mut keep: Vec<String> = names.iter().filter(|_| rng.chance(0.6)).cloned().collect();
        if keep.is_empty() {
            keep.push(names[0].clone());
        }
        let alias_idx = if rng.chance(0.3) && !keep.iter().any(|c| c == "z") {
            Some(rng.below(keep.len()))
        } else {
            None
        };
        let (projected, _) = schema.project(&keep).expect("kept columns exist");
        plan = plan.project(keep.clone());
        schema = projected;
        let items: Vec<String> = keep
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if alias_idx == Some(i) {
                    format!("{c} {} z", kw(rng, "as"))
                } else {
                    c.clone()
                }
            })
            .collect();
        if let Some(i) = alias_idx {
            schema = schema
                .rename(&[(keep[i].clone(), "z".to_string())])
                .expect("alias `z` is fresh");
            plan = plan.rename([(keep[i].as_str(), "z")]);
        }
        items.join(", ")
    };

    // Quantifier (CONF variants only when no `conf` column pre-exists).
    let quant = match rng.below(10) {
        0 => Some(Quant::Possible),
        1 => Some(Quant::Certain),
        2 if schema.col_index("conf").is_err() => Some(Quant::Conf),
        3 if schema.col_index("conf").is_err() => Some(Quant::ConfApprox),
        _ => None,
    };
    let mut text = kw(rng, "select");
    if let Some(q) = quant {
        text.push(' ');
        let word = match q {
            Quant::Possible => "possible",
            Quant::Certain => "certain",
            Quant::Conf | Quant::ConfApprox => "conf",
        };
        text.push_str(&kw(rng, word));
        if matches!(q, Quant::ConfApprox) {
            text.push_str(&format!("({GEN_CONF_EPS}, {GEN_CONF_DELTA})"));
        }
        (plan, schema) = match q {
            Quant::Possible => (possible(plan), schema),
            Quant::Certain => (certain(plan), schema),
            Quant::Conf | Quant::ConfApprox => {
                let mut cols = schema.columns().to_vec();
                cols.push(maybms_core::Column::new("conf", ValueType::Float));
                let wrapped = if matches!(q, Quant::ConfApprox) {
                    conf_approx(plan, GEN_CONF_EPS, GEN_CONF_DELTA)
                } else {
                    conf(plan)
                };
                (wrapped, Schema::new(cols).expect("conf column is fresh"))
            }
        };
    }
    text.push(' ');
    text.push_str(&list_text);
    text.push(' ');
    text.push_str(&kw(rng, "from"));
    text.push(' ');
    text.push_str(&from_texts.join(", "));
    if let Some((ftext, _)) = &filter {
        text.push(' ');
        text.push_str(&kw(rng, "where"));
        text.push(' ');
        text.push_str(ftext);
    }
    (text, plan, schema)
}

#[derive(Clone, Copy)]
enum Quant {
    Possible,
    Certain,
    Conf,
    ConfApprox,
}

/// A from-item: a bare relation name, or a parenthesized subquery.
fn gen_from_item(rng: &mut Rng, ws: &WorldSet, depth: usize) -> (String, Plan, Schema) {
    if depth == 0 || rng.chance(0.5) {
        let names: Vec<&String> = ws.relations.keys().collect();
        let name = (*rng.pick(&names)).clone();
        let schema = ws.relations[&name].schema().clone();
        (name.clone(), Plan::scan(name), schema)
    } else {
        let (t, p, s) = gen_query_inner(rng, ws, depth - 1);
        (format!("({t})"), p, s)
    }
}

/// Names of the `int`-typed columns of a schema.
fn int_columns(schema: &Schema) -> Vec<String> {
    schema
        .columns()
        .iter()
        .filter(|c| c.ty == ValueType::Int)
        .map(|c| c.name.clone())
        .collect()
}

/// Oracle: evaluate `plan` naively in every world, returning each world's
/// result with its probability.
pub fn per_world_results(ws: &WorldSet, plan: &Plan) -> Result<Vec<(Relation, f64)>, MayError> {
    let mut out = Vec::new();
    for (_, db, p) in ws.enumerate(WORLD_LIMIT)? {
        out.push((naive::eval(plan, &db)?, p));
    }
    Ok(out)
}

/// Oracle for `conf`: per-tuple probability mass aggregated over all worlds.
pub fn conf_oracle(worlds: &[(Relation, f64)]) -> BTreeMap<Tuple, f64> {
    let mut m = BTreeMap::new();
    for (rel, p) in worlds {
        for t in rel.tuples() {
            *m.entry(t.clone()).or_insert(0.0) += p;
        }
    }
    m
}

/// Oracle for `possible`: union of all worlds' results.
pub fn possible_oracle(worlds: &[(Relation, f64)], schema: Schema) -> Relation {
    let mut out = Relation::new(schema);
    for (rel, _) in worlds {
        for t in rel.tuples() {
            out.insert(t.clone()).expect("same schema across worlds");
        }
    }
    out
}

/// Oracle for `certain`: intersection of all worlds' results.
pub fn certain_oracle(worlds: &[(Relation, f64)], schema: Schema) -> Relation {
    let mut out = Relation::new(schema);
    if let Some((first, _)) = worlds.first() {
        for t in first.tuples() {
            if worlds.iter().all(|(rel, _)| rel.contains(t)) {
                out.insert(t.clone()).expect("same schema across worlds");
            }
        }
    }
    out
}
