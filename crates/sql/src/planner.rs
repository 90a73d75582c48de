//! Semantic analysis and lowering: resolve a parsed [`Query`] against the
//! [`Relations`] it names (a world set's relation map, or a
//! [`crate::Catalog`] over one) and produce an executable [`Plan`].
//!
//! Analysis and lowering run in one bottom-up pass: every subquery's output
//! schema is computed while its plan is built, so name resolution, type
//! checks, and union-compatibility checks all fire with the exact source
//! span of the offending construct. The lowering is *minimal* — no `Select`
//! node without a `WHERE`, no `Project` for `*`, no `Rename` without `AS` —
//! so a query's plan can be written down by hand and compared with it.
//!
//! AST → plan mapping:
//!
//! | MayQL construct                  | plan shape                          |
//! |----------------------------------|-------------------------------------|
//! | `FROM r`                         | `Scan(r)`                           |
//! | `FROM a, b, c`                   | `Join(Join(a, b), c)`               |
//! | `WHERE p`                        | `Select{p}` above the joined froms  |
//! | `SELECT c₁, …, cₙ`               | `Project[c₁…cₙ]`                    |
//! | `SELECT … AS x …`                | `Rename` above the `Project`        |
//! | `SELECT POSSIBLE/CERTAIN/CONF …` | `possible`/`certain`/`conf` on top  |
//! | `q₁ UNION q₂`                    | `Union`                             |
//! | `REPAIR KEY k IN q WEIGHT BY w`  | `repair-key{k; w}`                  |

use maybms_algebra::{
    certain, check_unit_interval, conf, conf_approx, possible, repair_key, Operand, Plan,
    Predicate, Relations, UOp, CONF_COLUMN,
};
use maybms_core::{Schema, Value, ValueType};

use crate::ast::{Expr, FromItem, Quantifier, Query, Repair, Scalar, SelectList, SelectQuery};
use crate::span::{Span, SqlError};

/// Parse, lower, and **optimize** in one step: the executable plan for a
/// MayQL query string. This is the planner's default path — the optimizer
/// ([`maybms_algebra::optimize_with_stats`]) runs on every compiled query;
/// use [`compile_unoptimized`] to see (or pin in tests) the raw lowering.
pub fn compile(relations: &dyn Relations, src: &str) -> Result<Plan, SqlError> {
    let query = crate::parser::parse_query(src)?;
    let (plan, _) = lower(relations, &query)?;
    optimize_plan(relations, &plan, query.span())
}

/// Parse and lower without optimizing: exactly the plan the minimal
/// lowering produces, which the tests compare with hand-built plans by
/// their `Display` trees (the optimizer deliberately rewrites plan shapes).
pub fn compile_unoptimized(relations: &dyn Relations, src: &str) -> Result<Plan, SqlError> {
    let query = crate::parser::parse_query(src)?;
    lower(relations, &query).map(|(plan, _)| plan)
}

/// Run the optimizer against `relations` — every select-project-join block
/// planned once, its joins ordered on their statistics
/// ([`maybms_algebra::optimize_with_stats`]) — converting optimizer errors
/// (which should not occur on plans the lowering just type-checked) into
/// spanned diagnostics.
pub fn optimize_plan(relations: &dyn Relations, plan: &Plan, span: Span) -> Result<Plan, SqlError> {
    maybms_algebra::optimize_with_stats(plan, relations)
        .map_err(|e| SqlError::new(span, format!("optimizer: {e}")))
}

/// Semantic analysis only: the output schema of a query, or a spanned error
/// for unresolved names, ill-typed comparisons, or incompatible unions.
pub fn analyze(relations: &dyn Relations, query: &Query) -> Result<Schema, SqlError> {
    lower(relations, query).map(|(_, schema)| schema)
}

/// Lower a parsed query to a plan plus its output schema.
pub fn lower(relations: &dyn Relations, query: &Query) -> Result<(Plan, Schema), SqlError> {
    match query {
        Query::Select(s) => lower_select(relations, s),
        Query::Union { left, right } => {
            let (lp, ls) = lower(relations, left)?;
            let (rp, rs) = lower(relations, right)?;
            if ls != rs {
                return Err(SqlError::new(
                    right.span(),
                    format!(
                        "UNION sides are not union-compatible: left is {}, right is {}",
                        fmt_schema(&ls),
                        fmt_schema(&rs)
                    ),
                ));
            }
            Ok((lp.union(rp), ls))
        }
        Query::Repair(r) => lower_repair(relations, r),
    }
}

fn lower_from_item(relations: &dyn Relations, item: &FromItem) -> Result<(Plan, Schema), SqlError> {
    match item {
        FromItem::Relation(id) => match relations.schema(&id.name) {
            Some(schema) => Ok((Plan::scan(&id.name), schema.clone())),
            None => Err(SqlError::new(
                id.span,
                format!("unknown relation `{}`", id.name),
            )),
        },
        FromItem::Subquery { query, .. } => lower(relations, query),
        FromItem::Repair(r) => lower_repair(relations, r),
    }
}

fn lower_repair(relations: &dyn Relations, repair: &Repair) -> Result<(Plan, Schema), SqlError> {
    let (plan, schema) = lower_from_item(relations, &repair.input)?;
    for k in &repair.key {
        resolve_column(&schema, k.span, &k.name)?;
    }
    if let Some(w) = &repair.weight {
        let i = resolve_column(&schema, w.span, &w.name)?;
        let ty = schema.columns()[i].ty;
        if !matches!(ty, ValueType::Int | ValueType::Float) {
            return Err(SqlError::new(
                w.span,
                format!(
                    "WEIGHT BY column `{}` has type {ty}; expected a numeric column",
                    w.name
                ),
            ));
        }
    }
    let key: Vec<&str> = repair.key.iter().map(|k| k.name.as_str()).collect();
    let weight = repair.weight.as_ref().map(|w| w.name.as_str());
    Ok((repair_key(plan, &key, weight), schema))
}

fn lower_select(
    relations: &dyn Relations,
    select: &SelectQuery,
) -> Result<(Plan, Schema), SqlError> {
    // FROM: natural-join the items left to right.
    let mut items = select.from.iter();
    let first = items.next().expect("the parser requires one from-item");
    let (mut plan, mut schema) = lower_from_item(relations, first)?;
    for item in items {
        let (p, s) = lower_from_item(relations, item)?;
        let joined = schema
            .natural_join(&s)
            .map_err(|e| SqlError::new(item.span(), e.to_string()))?;
        plan = plan.join(p);
        schema = joined.schema;
    }

    // WHERE runs before projection, so it sees every from-item column.
    if let Some(filter) = &select.filter {
        let predicate = lower_expr(&schema, filter)?;
        plan = plan.select(predicate);
    }

    // SELECT list: project, then rename the aliased columns.
    if let SelectList::Items(items) = &select.items {
        let mut sources: Vec<&str> = Vec::with_capacity(items.len());
        let mut outputs: Vec<&str> = Vec::with_capacity(items.len());
        for item in items {
            let name = item.column.name.as_str();
            if sources.contains(&name) {
                return Err(SqlError::new(
                    item.span(),
                    format!("duplicate column `{name}` in select list"),
                ));
            }
            let out = item.alias.as_ref().map_or(name, |a| a.name.as_str());
            if outputs.contains(&out) {
                return Err(SqlError::new(
                    item.span(),
                    format!("duplicate output column `{out}` in select list"),
                ));
            }
            resolve_column(&schema, item.column.span, name)?;
            sources.push(name);
            outputs.push(out);
        }
        let (projected, _) = schema
            .project(&sources.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .expect("select-list columns were just resolved");
        plan = plan.project(sources.clone());
        schema = projected;
        let renames: Vec<(String, String)> = items
            .iter()
            .filter_map(|it| {
                it.alias
                    .as_ref()
                    .map(|a| (it.column.name.clone(), a.name.clone()))
            })
            .collect();
        if !renames.is_empty() {
            schema = schema
                .rename(&renames)
                .expect("alias collisions were just rejected");
            plan = plan.rename(renames);
        }
    }

    // The uncertainty quantifier wraps the finished block.
    if let Some((q, span)) = &select.quantifier {
        (plan, schema) = apply_quantifier(plan, schema, *q, *span)?;
    }
    Ok((plan, schema))
}

fn apply_quantifier(
    plan: Plan,
    schema: Schema,
    q: Quantifier,
    span: Span,
) -> Result<(Plan, Schema), SqlError> {
    match q {
        Quantifier::Possible => Ok((possible(plan), schema)),
        Quantifier::Certain => Ok((certain(plan), schema)),
        Quantifier::Conf => {
            let schema = conf_schema(schema, span)?;
            Ok((conf(plan), schema))
        }
        Quantifier::ConfApprox {
            eps,
            delta,
            eps_span,
            delta_span,
        } => {
            for (what, v, span) in [("eps", eps, eps_span), ("delta", delta, delta_span)] {
                check_unit_interval(what, v)
                    .map_err(|m| SqlError::new(span, format!("CONF {m}")))?;
            }
            let schema = conf_schema(schema, span)?;
            Ok((conf_approx(plan, eps, delta), schema))
        }
    }
}

/// The schema of a `conf` result ([`UOp::output_schema`]), rejecting an
/// input that already carries a `conf` column at the quantifier's span.
fn conf_schema(schema: Schema, span: Span) -> Result<Schema, SqlError> {
    UOp::Conf(None).output_schema(&schema).map_err(|_| {
        SqlError::new(
            span,
            format!("CONF input already has a `{CONF_COLUMN}` column"),
        )
    })
}

fn lower_expr(schema: &Schema, expr: &Expr) -> Result<Predicate, SqlError> {
    Ok(match expr {
        Expr::Compare { op, lhs, rhs, span } => {
            let (l, lt) = lower_scalar(schema, lhs)?;
            let (r, rt) = lower_scalar(schema, rhs)?;
            if let (Some(lt), Some(rt)) = (lt, rt) {
                if lt != rt {
                    return Err(SqlError::new(*span, format!("cannot compare {lt} to {rt}")));
                }
            }
            Predicate::cmp(*op, l, r)
        }
        Expr::And(es) => Predicate::And(
            es.iter()
                .map(|e| lower_expr(schema, e))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Or(es) => Predicate::Or(
            es.iter()
                .map(|e| lower_expr(schema, e))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Not(e) => Predicate::Not(Box::new(lower_expr(schema, e)?)),
        Expr::Bool { value: true, .. } => Predicate::True,
        Expr::Bool { value: false, .. } => Predicate::Not(Box::new(Predicate::True)),
    })
}

/// Lower one comparison operand, returning its type when statically known
/// (`NULL` compares with anything).
fn lower_scalar(
    schema: &Schema,
    scalar: &Scalar,
) -> Result<(Operand, Option<ValueType>), SqlError> {
    match scalar {
        Scalar::Column(id) => {
            let i = resolve_column(schema, id.span, &id.name)?;
            Ok((
                Operand::Column(id.name.clone()),
                Some(schema.columns()[i].ty),
            ))
        }
        Scalar::Literal { value, .. } => {
            let ty = match value {
                Value::Null => None,
                v => Some(v.type_of()),
            };
            Ok((Operand::Literal(value.clone()), ty))
        }
    }
}

fn resolve_column(schema: &Schema, span: Span, name: &str) -> Result<usize, SqlError> {
    schema.col_index(name).map_err(|_| {
        SqlError::new(
            span,
            format!(
                "unknown column `{name}`; in scope: {}",
                schema.names().join(", ")
            ),
        )
    })
}

/// `(a int, b str)` — schemas as they appear in error messages.
fn fmt_schema(schema: &Schema) -> String {
    let cols: Vec<String> = schema
        .columns()
        .iter()
        .map(|c| format!("{} {}", c.name, c.ty))
        .collect();
    format!("({})", cols.join(", "))
}
