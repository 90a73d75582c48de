//! Golden tests for the front-end's error paths: each case pins the exact
//! span *and* message (and, for the headline cases, the fully rendered
//! caret diagnostic), so error quality is part of the crate's contract
//! rather than an accident of the current implementation. The last two cases
//! pin the other rendering a [`Session`] produces: a runtime error, which has
//! no span and prints as one plain line.

use maybms_core::{Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet};
use maybms_sql::ast::{Expr, Query, Scalar};
use maybms_sql::parser::MAX_NESTING;
use maybms_sql::{compile, parse_query, Catalog, Outcome, Session, SessionError, Span, SqlError};

/// `census(name str, ssn int, w int)` plus `r(a int, b int)`, both empty.
fn catalog() -> Catalog {
    let mut ws = WorldSet::new();
    let census = Schema::of(&[
        ("name", ValueType::Str),
        ("ssn", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    let r = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]).expect("distinct columns");
    ws.insert("census", URelation::new(census))
        .expect("no descriptors");
    ws.insert("r", URelation::new(r)).expect("no descriptors");
    Catalog::from_world_set(&ws)
}

/// The span of `needle` within `src` (first occurrence), so the expected
/// spans in assertions stay readable.
fn span_of(src: &str, needle: &str) -> Span {
    let start = src.find(needle).expect("needle occurs in src");
    Span::new(start, start + needle.len())
}

fn err(src: &str) -> SqlError {
    compile(&catalog(), src).expect_err("query must be rejected")
}

#[test]
fn unknown_relation() {
    let src = "SELECT * FROM nosuch";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "nosuch"));
    assert_eq!(e.message, "unknown relation `nosuch`");
    assert_eq!(
        e.render(src),
        concat!(
            "error: unknown relation `nosuch`\n",
            " --> line 1, column 15\n",
            "  | SELECT * FROM nosuch\n",
            "  |               ^^^^^^\n"
        )
    );
}

#[test]
fn unknown_column_in_select_list() {
    let src = "SELECT salary FROM census";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "salary"));
    assert_eq!(e.message, "unknown column `salary`; in scope: name, ssn, w");
}

#[test]
fn unknown_column_in_where() {
    let src = "SELECT ssn FROM census WHERE salary = 3";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "salary"));
    assert_eq!(e.message, "unknown column `salary`; in scope: name, ssn, w");
    assert_eq!(
        e.render(src),
        concat!(
            "error: unknown column `salary`; in scope: name, ssn, w\n",
            " --> line 1, column 30\n",
            "  | SELECT ssn FROM census WHERE salary = 3\n",
            "  |                              ^^^^^^\n"
        )
    );
}

#[test]
fn union_incompatible_schemas() {
    let src = "SELECT name FROM census UNION SELECT ssn FROM census";
    let e = err(src);
    // The error points at the whole right-hand term of the UNION.
    assert_eq!(e.span, span_of(src, "SELECT ssn FROM census"));
    assert_eq!(
        e.message,
        "UNION sides are not union-compatible: left is (name str), right is (ssn int)"
    );
}

#[test]
fn union_incompatible_across_lines() {
    let src = "SELECT a FROM r\nUNION\nSELECT b FROM r";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "SELECT b FROM r"));
    assert_eq!(
        e.render(src),
        concat!(
            "error: UNION sides are not union-compatible: left is (a int), right is (b int)\n",
            " --> line 3, column 1\n",
            "  | SELECT b FROM r\n",
            "  | ^^^^^^^^^^^^^^^\n"
        )
    );
}

#[test]
fn weight_by_non_numeric_column() {
    let src = "REPAIR KEY ssn IN census WEIGHT BY name";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "name"));
    assert_eq!(
        e.message,
        "WEIGHT BY column `name` has type str; expected a numeric column"
    );
    assert_eq!(
        e.render(src),
        concat!(
            "error: WEIGHT BY column `name` has type str; expected a numeric column\n",
            " --> line 1, column 36\n",
            "  | REPAIR KEY ssn IN census WEIGHT BY name\n",
            "  |                                    ^^^^\n"
        )
    );
}

#[test]
fn weight_by_unknown_column() {
    let src = "REPAIR KEY ssn IN census WEIGHT BY missing";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "missing"));
    assert_eq!(
        e.message,
        "unknown column `missing`; in scope: name, ssn, w"
    );
}

#[test]
fn repair_key_unknown_key_column() {
    let src = "REPAIR KEY city IN census";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "city"));
    assert_eq!(e.message, "unknown column `city`; in scope: name, ssn, w");
}

#[test]
fn ill_typed_comparison() {
    let src = "SELECT ssn FROM census WHERE ssn = 'x'";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "ssn = 'x'"));
    assert_eq!(e.message, "cannot compare int to str");
}

#[test]
fn duplicate_select_output() {
    let src = "SELECT ssn, name AS ssn FROM census";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "name AS ssn"));
    assert_eq!(e.message, "duplicate output column `ssn` in select list");
}

#[test]
fn conf_over_conf_is_rejected() {
    let src = "SELECT CONF * FROM (SELECT CONF ssn FROM census)";
    let e = err(src);
    // The *outer* CONF is the offending one.
    assert_eq!(e.span, Span::new(7, 11));
    assert_eq!(e.message, "CONF input already has a `conf` column");
}

#[test]
fn conf_approx_non_numeric_eps() {
    let src = "SELECT CONF(abc, 0.1) * FROM census";
    let e = parse_query(src).expect_err("non-numeric eps");
    assert_eq!(e.span, span_of(src, "abc"));
    assert_eq!(
        e.render(src),
        concat!(
            "error: expected a numeric literal for CONF eps, found `abc`\n",
            " --> line 1, column 13\n",
            "  | SELECT CONF(abc, 0.1) * FROM census\n",
            "  |             ^^^\n"
        )
    );
}

#[test]
fn conf_approx_arity_mistakes() {
    let src = "SELECT CONF(0.1) * FROM census";
    let e = parse_query(src).expect_err("one argument");
    assert_eq!(e.span, span_of(src, ")"));
    assert_eq!(
        e.render(src),
        concat!(
            "error: CONF takes two arguments: CONF(eps, delta)\n",
            " --> line 1, column 16\n",
            "  | SELECT CONF(0.1) * FROM census\n",
            "  |                ^\n"
        )
    );
    let src = "SELECT CONF(0.1, 0.2, 0.3) * FROM census";
    let e = parse_query(src).expect_err("three arguments");
    // The error points at the comma introducing the excess argument.
    let comma = src.find(", 0.3").expect("second comma");
    assert_eq!(e.span, Span::new(comma, comma + 1));
    assert_eq!(e.message, "CONF takes two arguments: CONF(eps, delta)");
}

#[test]
fn conf_approx_delta_out_of_range() {
    let src = "SELECT CONF(0.1, 1.5) * FROM census";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "1.5"));
    assert_eq!(
        e.render(src),
        concat!(
            "error: CONF delta must be in (0, 1), got 1.5\n",
            " --> line 1, column 18\n",
            "  | SELECT CONF(0.1, 1.5) * FROM census\n",
            "  |                  ^^^\n"
        )
    );
    // Zero is rejected on either argument (a sampler cannot promise ε = 0),
    // and the error anchors at the offending literal.
    let src = "SELECT CONF(0.0, 0.5) * FROM census";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "0.0"));
    assert_eq!(e.message, "CONF eps must be in (0, 1), got 0");
}

/// A value far out of range is echoed in exponent form, not as the 309
/// digits of its plain form.
#[test]
fn conf_approx_huge_eps_is_echoed_short() {
    let src = "SELECT CONF(1e308, 0.5) * FROM census";
    let e = err(src);
    assert_eq!(e.span, span_of(src, "1e308"));
    assert_eq!(
        e.render(src),
        concat!(
            "error: CONF eps must be in (0, 1), got 1e308\n",
            " --> line 1, column 13\n",
            "  | SELECT CONF(1e308, 0.5) * FROM census\n",
            "  |             ^^^^^\n"
        )
    );
    let src = "SELECT CONF(0.1, 2.5e300) * FROM census";
    assert_eq!(
        err(src).message,
        "CONF delta must be in (0, 1), got 2.5e300"
    );
}

#[test]
fn parse_error_has_token_span() {
    let src = "SELECT FROM census";
    let e = parse_query(src).expect_err("missing select list");
    // `FROM` in select-list position is a reserved keyword.
    assert_eq!(e.span, span_of(src, "FROM"));
    assert_eq!(
        e.message,
        "expected an identifier, found reserved keyword `FROM`"
    );
}

#[test]
fn unterminated_string_spans_to_eof() {
    let src = "SELECT * FROM census WHERE name = 'Smi";
    let e = parse_query(src).expect_err("unterminated string");
    assert_eq!(e.span, Span::new(34, src.len()));
    assert_eq!(e.message, "unterminated string literal");
}

/// `-9223372036854775808` is `i64::MIN`: the lexer carries the literal's
/// magnitude unsigned and the parser negates it with a check, so the one
/// negative value without a positive twin is writable, and one past either
/// end is rejected with the same message, spanning the literal as written.
#[test]
fn integer_literals_cover_the_i64_range() {
    let src = "SELECT ssn FROM census WHERE ssn = -9223372036854775808";
    let q = parse_query(src).expect("i64::MIN is a literal");
    let Query::Select(sel) = q else {
        panic!("expected a select")
    };
    let Some(Expr::Compare { rhs, .. }) = sel.filter else {
        panic!("expected a comparison")
    };
    assert!(
        matches!(rhs, Scalar::Literal { value: Value::Int(i64::MIN), span }
            if span == span_of(src, "-9223372036854775808")),
        "{rhs:?}"
    );
    compile(&catalog(), src).expect("i64::MIN compiles");

    for literal in ["-9223372036854775809", "9223372036854775808"] {
        let src = format!("SELECT ssn FROM census WHERE ssn = {literal}");
        let e = parse_query(&src).expect_err("out of range");
        assert_eq!(e.span, span_of(&src, literal));
        assert_eq!(
            e.message,
            format!("integer literal `{literal}` out of range")
        );
    }
}

/// A float literal past `f64`'s range is rejected, spanning the literal as
/// written, instead of running as infinity (and printing in `EXPLAIN` as
/// `inf`, which is not MayQL).
#[test]
fn float_literals_past_the_f64_range_are_rejected() {
    for literal in ["1e999", "1.5e309", "2E+400"] {
        let src = format!("SELECT name FROM census WHERE ssn < {literal}");
        let e = parse_query(&src).expect_err("out of range");
        assert_eq!(e.span, span_of(&src, literal));
        assert_eq!(e.message, format!("float literal `{literal}` out of range"));
    }
    parse_query("SELECT name FROM census WHERE ssn < 1e308").expect("1e308 is a literal");
}

/// A query nests at most `MAX_NESTING` (64) levels: at 64 nested
/// subqueries it compiles, at 65 the parser stops at the 65th `(`.
#[test]
fn nesting_past_the_cap_is_a_parse_error() {
    let nest = |depth: usize| {
        format!(
            "SELECT *\nFROM\n{}census{}",
            "(SELECT * FROM\n".repeat(depth),
            ")".repeat(depth)
        )
    };
    assert_eq!(MAX_NESTING, 64);
    compile(&catalog(), &nest(64)).expect("64 levels compile");
    let src = nest(65);
    let e = err(&src);
    assert_eq!(e.message, "query nests deeper than 64 levels");
    assert_eq!(
        e.render(&src),
        concat!(
            "error: query nests deeper than 64 levels\n",
            " --> line 67, column 1\n",
            "  | (SELECT * FROM\n",
            "  | ^\n"
        )
    );
}

/// Every construct that nests the tree counts toward the cap, so none of
/// them can be repeated into a stack overflow: each query here nests
/// 100 000 levels, and `Session::execute` on the default test thread
/// returns the spanned error.
#[test]
fn hostile_nesting_is_an_error_not_a_stack_overflow() {
    let n = 100_000;
    let queries = [
        format!(
            "SELECT * FROM {}census{}",
            "(SELECT * FROM ".repeat(n),
            ")".repeat(n)
        ),
        format!("{}SELECT * FROM census{}", "(".repeat(n), ")".repeat(n)),
        format!("SELECT * FROM {}census{}", "(".repeat(n), ")".repeat(n)),
        format!(
            "SELECT * FROM census WHERE {}ssn = 185{}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("SELECT * FROM census WHERE {}ssn = 185", "NOT ".repeat(n)),
        format!("{}census", "REPAIR KEY name IN ".repeat(n)),
        vec!["SELECT * FROM census"; n].join(" UNION "),
        format!("SELECT * FROM {}", vec!["census"; n].join(", ")),
    ];
    let mut session = Session::new(WorldSet::new());
    for src in &queries {
        let e = session.execute(src).expect_err("too deep");
        let SessionError::Sql(e) = e else {
            panic!("expected a front-end error, got {e:?}")
        };
        assert_eq!(e.message, "query nests deeper than 64 levels");
    }
}

/// At the cap every shape still runs end to end — lowered, optimized,
/// executed, printed and dropped — on the default test thread: the parse
/// depth bounds every later recursion. (`REPAIR KEY` over a repair fails
/// at run time, as it does at any depth: its input is uncertain.)
#[test]
fn queries_at_the_cap_run() {
    let n = MAX_NESTING;
    let schema =
        Schema::of(&[("name", ValueType::Str), ("ssn", ValueType::Int)]).expect("distinct columns");
    let rows = [("Smith", 185), ("Smith", 785), ("Brown", 185)];
    let rel = Relation::from_rows(
        schema,
        rows.iter()
            .map(|&(n, s)| Tuple::new(vec![Value::str(n), Value::Int(s)]))
            .collect(),
    )
    .expect("rows match schema");
    let mut ws = WorldSet::new();
    ws.insert("census", URelation::from_certain(&rel))
        .expect("certain relation is valid");
    let mut session = Session::new(ws);
    let queries = [
        format!(
            "SELECT POSSIBLE * FROM {}census{}",
            "(SELECT POSSIBLE * FROM ".repeat(n),
            ")".repeat(n)
        ),
        format!(
            "SELECT * FROM census WHERE {}ssn = 185{}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("SELECT * FROM census WHERE {}ssn = 185", "NOT ".repeat(n)),
        vec!["SELECT * FROM census"; n + 1].join(" UNION "),
        format!("SELECT * FROM {}", vec!["census"; n + 1].join(", ")),
    ];
    for src in &queries {
        let executed = session
            .execute(src)
            .unwrap_or_else(|e| panic!("{}", e.render(src)));
        let Outcome::Rows(result) = executed.outcome else {
            panic!("expected rows")
        };
        assert!(result.len() <= 3);
        session
            .execute(&format!("EXPLAIN {src}"))
            .unwrap_or_else(|e| panic!("{}", e.render(src)));
    }
    let src = format!("{}census", "REPAIR KEY name IN ".repeat(n));
    let e = session
        .execute(&src)
        .expect_err("a repair's input is uncertain");
    assert!(matches!(e, SessionError::Run(_)), "{e:?}");
}

/// `REPAIR KEY` over an uncertain relation compiles and fails while running.
/// Through a query it renders as a plain `error: …` line (the same shape
/// `tests/repl_batch.rs` pins for the step ceiling, without a nested `cargo
/// run`); through `EXPLAIN ANALYZE` it is anchored to the analyzed query.
#[test]
fn runtime_error_renders_without_a_caret() {
    let schema =
        Schema::of(&[("name", ValueType::Str), ("ssn", ValueType::Int)]).expect("distinct columns");
    let rows = [("Smith", 185), ("Smith", 785), ("Brown", 185)];
    let rel = Relation::from_rows(
        schema,
        rows.iter()
            .map(|&(n, s)| Tuple::new(vec![Value::str(n), Value::Int(s)]))
            .collect(),
    )
    .expect("rows match schema");
    let mut ws = WorldSet::new();
    ws.insert("form", URelation::from_certain(&rel))
        .expect("certain relation is valid");
    let mut session = Session::new(ws);
    session
        .execute("LET c = REPAIR KEY name IN form;")
        .expect("repairing a certain relation runs");

    let src = "SELECT ssn FROM (REPAIR KEY ssn IN c);";
    let e = session.execute(src).expect_err("c is uncertain");
    assert!(matches!(e, SessionError::Run(_)), "{e:?}");
    assert_eq!(
        e.render(src),
        "error: input must be certain: repair-key expects a certain relation; \
         apply possible/certain first\n"
    );

    let src = "EXPLAIN ANALYZE REPAIR KEY ssn IN c;";
    let e = session.execute(src).expect_err("c is uncertain");
    assert_eq!(
        e.render(src),
        concat!(
            "error: execution failed: input must be certain: repair-key expects a certain \
             relation; apply possible/certain first\n",
            " --> line 1, column 17\n",
            "  | EXPLAIN ANALYZE REPAIR KEY ssn IN c;\n",
            "  |                 ^^^^^^^^^^^^^^^^^^^\n"
        )
    );
}

/// `CONF(eps, delta)` is bounded work: a sampled group knows its Hoeffding
/// draw count before the first draw, and one past `SAMPLE_DRAW_CEILING` (2²⁶)
/// is a typed runtime error. The group is a star of thirteen descriptors
/// `hub = i mod 2 ∧ leafᵢ = 1` over coins: it prices 2¹³, over the cutover,
/// weighs 13/4 ≥ 1 (Monte Carlo), and ε = 10⁻⁴ at δ = ½ asks it for
/// ⌈ln 4 / 2ε²⌉ draws.
#[test]
fn sampled_conf_past_the_draw_ceiling_is_a_runtime_error() {
    use maybms_core::{Component, WsDescriptor};
    let mut ws = WorldSet::new();
    let mut coin = || {
        ws.components
            .add(Component::uniform(2).expect("two alternatives"))
    };
    let hub = coin();
    let mut rel = URelation::new(Schema::of(&[("a", ValueType::Int)]).expect("one column"));
    for i in 0..13 {
        let d = WsDescriptor::single(hub, i % 2)
            .conjoin(&WsDescriptor::single(coin(), 1))
            .expect("distinct components");
        rel.push(Tuple::new(vec![Value::Int(0)]), d)
            .expect("tuple matches schema");
    }
    ws.insert("star", rel).expect("descriptors are valid");
    let mut session = Session::new(ws);

    session
        .execute("SELECT CONF(0.1, 0.5) a FROM star;")
        .expect("a few dozen draws are fine");
    let src = "SELECT CONF(0.0001, 0.5) a FROM star;";
    let e = session.execute(src).expect_err("69 million draws are not");
    assert!(matches!(e, SessionError::Run(_)), "{e:?}");
    assert_eq!(
        e.render(src),
        "error: sampling a 13-descriptor group to the requested (eps, delta) takes \
         69314719 draws, the limit is 67108864; ask for a larger eps\n"
    );
}

/// A statement that fails leaves the world set as it found it. `REPAIR KEY
/// … WEIGHT BY w` mints Brown's component, then fails on Green's all-zero
/// weights; through a `LET` and through a query the minted component goes
/// with the failure, so every later statement reads — and stores — byte for
/// byte what it does in a session that never ran the failing ones.
#[test]
fn a_failed_statement_leaves_no_components_behind() {
    let census = || {
        let schema = Schema::of(&[
            ("name", ValueType::Str),
            ("ssn", ValueType::Int),
            ("w", ValueType::Int),
        ])
        .expect("distinct columns");
        let rows = [
            ("Brown", 185, 1),
            ("Brown", 186, 1),
            ("Green", 201, 0),
            ("Green", 202, 0),
            ("Smith", 185, 3),
            ("Smith", 785, 1),
        ];
        let rows = rows
            .iter()
            .map(|&(n, s, w)| Tuple::new(vec![Value::str(n), Value::Int(s), Value::Int(w)]))
            .collect();
        let rel = Relation::from_rows(schema, rows).expect("rows match schema");
        let mut ws = WorldSet::new();
        ws.insert("t", URelation::from_certain(&rel))
            .expect("certain relation is valid");
        ws
    };
    let (mut failed, mut fresh) = (Session::new(census()), Session::new(census()));
    for src in [
        "LET x = REPAIR KEY name IN t WEIGHT BY w;",
        "SELECT CONF * FROM (REPAIR KEY name IN t WEIGHT BY w);",
    ] {
        let e = failed.execute(src).expect_err("Green's weights sum to 0");
        assert!(matches!(e, SessionError::Run(_)), "{src}: {e:?}");
        assert_eq!(failed.world().components.len(), 0, "{src}");
        assert!(!failed.world().relations.contains_key("x"), "{src}");
    }
    for src in [
        "LET y = REPAIR KEY name IN t;",
        "SELECT CONF * FROM y;",
        "SELECT POSSIBLE name, ssn FROM y WHERE ssn > 185;",
    ] {
        let (got, want) = (failed.execute(src), fresh.execute(src));
        let (got, want) = (got.expect(src).outcome, want.expect(src).outcome);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{src}");
        assert_eq!(
            format!("{:?}", failed.world()),
            format!("{:?}", fresh.world()),
            "{src}"
        );
    }
    // `y` is over `c0`–`c2`, the three components a fresh session mints.
    assert_eq!(failed.world().components.len(), 3);
}
