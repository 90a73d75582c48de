//! Golden tests pinning the `EXPLAIN ANALYZE` rendering for the census
//! join + `CONF` query and for a sampled `CONF(eps, delta)` — exactly what
//! the REPL prints (both go through [`maybms_sql::Session::execute`]). Wall-clock values are masked to
//! `<T>` (they are the one nondeterministic ingredient); every row
//! count, morsel count, and confidence-solver counter is pinned exactly,
//! so a change in operator traffic must update this expectation
//! consciously.

use maybms_algebra::ExecCfg;
use maybms_core::{ParCfg, WorldSet};
use maybms_sql::{Outcome, Session};

/// The REPL's preloaded world.
fn demo_world() -> WorldSet {
    use maybms_core::{Relation, Schema, Tuple, URelation, Value, ValueType};
    let schema = Schema::of(&[
        ("name", ValueType::Str),
        ("ssn", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    let readings = [
        ("Smith", 185, 3),
        ("Smith", 785, 1),
        ("Brown", 185, 1),
        ("Brown", 186, 1),
    ];
    let rel = Relation::from_rows(
        schema,
        readings
            .iter()
            .map(|&(n, s, w)| Tuple::new(vec![Value::str(n), s.into(), Value::Int(w)]))
            .collect(),
    )
    .expect("rows match schema");
    let mut ws = WorldSet::new();
    ws.insert("censusform", URelation::from_certain(&rel))
        .expect("certain relation is valid");
    let homes_schema =
        Schema::of(&[("ssn", ValueType::Int), ("city", ValueType::Str)]).expect("distinct columns");
    let homes = [(185, "Armonk"), (785, "Putnam"), (186, "Armonk")];
    let homes_rel = Relation::from_rows(
        homes_schema,
        homes
            .iter()
            .map(|&(s, c)| Tuple::new(vec![s.into(), Value::str(c)]))
            .collect(),
    )
    .expect("rows match schema");
    ws.insert("homes", URelation::from_certain(&homes_rel))
        .expect("certain relation is valid");
    ws
}

/// Replace every `time=…ms` / `total=…ms` wall-clock value with `<T>`,
/// by hand (the build is offline; no regex crate). Everything else in
/// the rendering is deterministic.
fn mask_times(s: &str) -> String {
    let mut out = String::new();
    let mut rest = s;
    loop {
        let next = ["time=", "total="]
            .iter()
            .filter_map(|k| rest.find(k).map(|i| i + k.len()))
            .min();
        let Some(value_at) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..value_at]);
        rest = &rest[value_at..];
        let end = rest.find("ms").expect("wall-clock values end with `ms`");
        out.push_str("<T>ms");
        rest = &rest[end + 2..];
    }
}

#[test]
fn explain_analyze_renders_the_census_conf_join() {
    let mut session = Session::new(demo_world());
    session.exec = ExecCfg {
        par: ParCfg::with_threads(1),
        sip: true,
    };
    session
        .execute("LET census = REPAIR KEY name IN censusform WEIGHT BY w;")
        .expect("repair runs");
    let executed = session
        .execute("EXPLAIN ANALYZE SELECT CONF city FROM census, homes WHERE name = 'Smith';")
        .expect("query executes");
    let Outcome::Analyze(analyzed) = executed.outcome else {
        panic!("expected an analyzed plan, got {:?}", executed.outcome);
    };
    // The cost phase reorders the join — the filtered census side (2
    // estimated rows) becomes the hash build (right) side — and every
    // node line carries the estimator's `est_rows=`, graded against the
    // observed counts by the closing `estimation:` line. With SIP on, the
    // executor evaluates the build side *first* (the trace tree renders
    // children in execution order, so the census subtree prints above
    // `scan[homes]`) and pushes a Bloom filter over the two Smith ssns
    // into the homes scan: one of its three rows (ssn 186) is pruned
    // before the join sees it — `rows=2` at the scan, `in=4` at the join,
    // and the closing `sip:` line counts the filter. The pruned scan is
    // also the one node where the observed count diverges from the
    // estimate (3 estimated, 2 after pruning), hence q_error max 1.50.
    // `imported=4` on the scan-convert line: census's four descriptors were
    // appended to the run's pool — and no line reads `interns=`.
    let expected = "\
analyzed plan:
  · scan-convert  (time=<T>ms items=7 imported=4)
  conf  (time=<T>ms rows=2 in=2 exact_groups=2 exact_steps=2 est_rows=2)
    project[city]  (time=<T>ms rows=2 in=2 est_rows=2)
      natural-join  (time=<T>ms rows=2 in=4 conjoins=2 est_rows=2)
        project[ssn]  (time=<T>ms rows=2 in=2 est_rows=2)
          select[name = 'Smith']  (time=<T>ms rows=2 in=4 est_rows=2)
            scan[census]  (time=<T>ms rows=4 est_rows=4)
        scan[homes]  (time=<T>ms rows=2 est_rows=3)
    · canonical-sort  (time=<T>ms items=2)
    · solve  (time=<T>ms items=2)
execution: total=<T>ms rows=2 threads=1
sip: filters=1 tested=3 pruned=1
estimation: nodes=7 q_error median=1.00 max=1.50
";
    assert_eq!(mask_times(&analyzed.to_string()), expected);
}

/// `stars(a)`: per tuple one *star* of thirteen descriptors
/// `hub = i mod h ∧ leafᵢ = 1` — thirteen descriptors open from the hub on,
/// so the group prices 2¹³, over the default cutover, and is sampled. Tuple
/// 0's hub is three-way over eight-way leaves (`U = 13/24`: Karp–Luby), tuple
/// 1's is a coin over coins (`U = 13/4`: Monte Carlo).
fn star_world() -> WorldSet {
    use maybms_core::{Component, Schema, Tuple, URelation, Value, ValueType, WsDescriptor};
    let mut ws = WorldSet::new();
    let mut rel = URelation::new(Schema::of(&[("a", ValueType::Int)]).expect("one column"));
    for (a, (hub_alts, leaf_alts)) in [(3, 8), (2, 2)].into_iter().enumerate() {
        let mut comp = |n| {
            ws.components
                .add(Component::uniform(n).expect("n ≥ 1 alternatives"))
        };
        let hub = comp(hub_alts);
        for i in 0..13 {
            let d = WsDescriptor::single(hub, (i % hub_alts) as u16)
                .conjoin(&WsDescriptor::single(comp(leaf_alts), 1))
                .expect("distinct components");
            rel.push(Tuple::new(vec![Value::Int(a as i64)]), d)
                .expect("tuple matches schema");
        }
    }
    ws.insert("stars", rel).expect("descriptors are valid");
    ws
}

/// The estimator a sampled group took is on the `conf` line: two groups
/// sampled, one of them by Karp–Luby, in 150 Monte Carlo draws
/// (⌈ln 20 / 0.02⌉) plus 44 Karp–Luby ones (that count times `U²`).
#[test]
fn explain_analyze_names_the_estimator_of_sampled_groups() {
    let mut session = Session::new(star_world());
    session.exec = ExecCfg {
        par: ParCfg::with_threads(1),
        sip: true,
    };
    let executed = session
        .execute("EXPLAIN ANALYZE SELECT CONF(0.1, 0.1) a FROM stars;")
        .expect("query executes");
    let Outcome::Analyze(analyzed) = executed.outcome else {
        panic!("expected an analyzed plan, got {:?}", executed.outcome);
    };
    let expected = "\
analyzed plan:
  · scan-convert  (time=<T>ms items=26 imported=26)
  conf(eps=0.1, delta=0.1)  (time=<T>ms rows=2 in=26 sampled_groups=2 karp_luby=1 draws=194 est_rows=2)
    project[a]  (time=<T>ms rows=26 in=26 est_rows=26)
      scan[stars]  (time=<T>ms rows=26 est_rows=26)
    · canonical-sort  (time=<T>ms items=26)
    · solve  (time=<T>ms items=2)
execution: total=<T>ms rows=2 threads=1
estimation: nodes=3 q_error median=1.00 max=1.00
";
    assert_eq!(mask_times(&analyzed.to_string()), expected);
}

#[test]
fn mask_times_touches_only_wall_clock_values() {
    assert_eq!(
        mask_times("a  (time=0.123ms rows=2)\nexecution: total=1.000ms rows=2 threads=1\n"),
        "a  (time=<T>ms rows=2)\nexecution: total=<T>ms rows=2 threads=1\n"
    );
    assert_eq!(mask_times("no clocks here"), "no clocks here");
}
