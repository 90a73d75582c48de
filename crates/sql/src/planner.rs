//! Semantic analysis and lowering: resolve a parsed [`Query`] against a
//! [`Catalog`] and produce an executable [`Plan`].
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
    certain, conf, conf_approx, possible, repair_key, Operand, Plan, Predicate, CONF_COLUMN,
};
use maybms_core::{Column, Schema, Value, ValueType};

use crate::ast::{Expr, FromItem, Quantifier, Query, Repair, Scalar, SelectList, SelectQuery};
use crate::catalog::Catalog;
use crate::span::{Span, SqlError};

/// Parse, lower, and **optimize** in one step: the executable plan for a
/// MayQL query string. This is the planner's default path — the logical
/// optimizer ([`fn@maybms_algebra::optimize`]) runs on every compiled query;
/// use [`compile_unoptimized`] to see (or pin in tests) the raw lowering.
pub fn compile(catalog: &Catalog, src: &str) -> Result<Plan, SqlError> {
    let query = crate::parser::parse_query(src)?;
    let (plan, _) = lower(catalog, &query)?;
    optimize_plan(catalog, &plan, query.span())
}

/// Parse and lower without optimizing: exactly the plan the minimal
/// lowering produces, which the tests compare with hand-built plans by
/// their `Display` trees (the optimizer deliberately rewrites plan shapes).
pub fn compile_unoptimized(catalog: &Catalog, src: &str) -> Result<Plan, SqlError> {
    let query = crate::parser::parse_query(src)?;
    lower(catalog, &query).map(|(plan, _)| plan)
}

/// Run the logical optimizer against the catalog — the rule sweeps plus,
/// when the catalog has statistics, the cost-based phase
/// ([`maybms_algebra::optimize_with_stats`], which is exactly the rule-only
/// [`fn@maybms_algebra::optimize`] on a statistics-less catalog) —
/// converting optimizer errors (which should not occur on plans the
/// lowering just type-checked) into spanned diagnostics.
pub fn optimize_plan(catalog: &Catalog, plan: &Plan, span: Span) -> Result<Plan, SqlError> {
    maybms_algebra::optimize_with_stats(plan, catalog, catalog)
        .map_err(|e| SqlError::new(span, format!("optimizer: {e}")))
}

/// Semantic analysis only: the output schema of a query, or a spanned error
/// for unresolved names, ill-typed comparisons, or incompatible unions.
pub fn analyze(catalog: &Catalog, query: &Query) -> Result<Schema, SqlError> {
    lower(catalog, query).map(|(_, schema)| schema)
}

/// Lower a parsed query to a plan plus its output schema.
pub fn lower(catalog: &Catalog, query: &Query) -> Result<(Plan, Schema), SqlError> {
    match query {
        Query::Select(s) => lower_select(catalog, s),
        Query::Union { left, right } => {
            let (lp, ls) = lower(catalog, left)?;
            let (rp, rs) = lower(catalog, right)?;
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
        Query::Repair(r) => lower_repair(catalog, r),
    }
}

fn lower_from_item(catalog: &Catalog, item: &FromItem) -> Result<(Plan, Schema), SqlError> {
    match item {
        FromItem::Relation(id) => match catalog.schema(&id.name) {
            Some(schema) => Ok((Plan::scan(&id.name), schema.clone())),
            None => Err(SqlError::new(
                id.span,
                format!("unknown relation `{}`", id.name),
            )),
        },
        FromItem::Subquery { query, .. } => lower(catalog, query),
        FromItem::Repair(r) => lower_repair(catalog, r),
    }
}

fn lower_repair(catalog: &Catalog, repair: &Repair) -> Result<(Plan, Schema), SqlError> {
    let (plan, schema) = lower_from_item(catalog, &repair.input)?;
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

fn lower_select(catalog: &Catalog, select: &SelectQuery) -> Result<(Plan, Schema), SqlError> {
    // FROM: natural-join the items left to right.
    let mut items = select.from.iter();
    let first = items.next().expect("the parser requires one from-item");
    let (mut plan, mut schema) = lower_from_item(catalog, first)?;
    for item in items {
        let (p, s) = lower_from_item(catalog, item)?;
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
            check_unit_interval(eps, eps_span, "eps")?;
            check_unit_interval(delta, delta_span, "delta")?;
            let schema = conf_schema(schema, span)?;
            Ok((conf_approx(plan, eps, delta), schema))
        }
    }
}

/// The schema of a `conf` result: the input columns plus the appended
/// `conf` float column (rejecting inputs that already carry one).
fn conf_schema(schema: Schema, span: Span) -> Result<Schema, SqlError> {
    let mut cols = schema.columns().to_vec();
    cols.push(Column::new(CONF_COLUMN, ValueType::Float));
    Schema::new(cols).map_err(|_| {
        SqlError::new(
            span,
            format!("CONF input already has a `{CONF_COLUMN}` column"),
        )
    })
}

/// `CONF(eps, delta)` arguments must be probabilities strictly inside
/// `(0, 1)`: 0 would demand an exact answer from a sampler, 1 makes the
/// guarantee vacuous. A value whose plain form runs long (`1e308` has 309
/// digits) is echoed in exponent form.
fn check_unit_interval(v: f64, span: Span, what: &str) -> Result<(), SqlError> {
    if v.is_finite() && v > 0.0 && v < 1.0 {
        return Ok(());
    }
    let got = v.to_string();
    let got = if got.len() > 20 {
        format!("{v:e}")
    } else {
        got
    };
    Err(SqlError::new(
        span,
        format!("CONF {what} must be in (0, 1), got {got}"),
    ))
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
