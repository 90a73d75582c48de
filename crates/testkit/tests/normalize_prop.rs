//! Property tests for WSD normalization: the rewrites must preserve the
//! induced probability distribution over database *instances* exactly (up to
//! float tolerance), while never growing the representation.

use maybms_algebra::{run, Plan};
use maybms_core::collect_stats;
use maybms_core::rng::Rng;
use maybms_core::{
    ColumnarURelation, Component, ComponentId, Schema, Tuple, URelation, Value, ValueType,
    WorldSet, WsDescriptor,
};
use maybms_ql::repair_key;
use maybms_testkit::oracle::{normalize_rows, stats_by_rows};
use maybms_testkit::{
    assert_image_as_built, assert_same_image, gen_plan, gen_uncertain_plan, gen_world_set,
    rebuilt_by_push, GenConfig, WORLD_LIMIT,
};

const CASES: u64 = 200;

/// Which body a relation holds: its columns live in it, so their address
/// names it while a holder keeps it alive.
fn body(rel: &URelation) -> *const ColumnarURelation {
    rel.columns()
}
const EPS: f64 = 1e-9;

#[test]
fn normalization_preserves_instance_distribution() {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let mut rng = Rng::new(0x4E04 ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let before = ws
            .instance_distribution(WORLD_LIMIT)
            .expect("small world set");

        let mut normalized = ws.clone();
        normalized.normalize();
        let after = normalized
            .instance_distribution(WORLD_LIMIT)
            .expect("small world set");

        assert_eq!(
            before.len(),
            after.len(),
            "case {case}: instance support changed\nbefore: {ws:?}\nafter: {normalized:?}"
        );
        for ((db_b, p_b), (db_a, p_a)) in before.iter().zip(&after) {
            assert_eq!(db_b, db_a, "case {case}: instance contents changed");
            assert!(
                (p_b - p_a).abs() < EPS,
                "case {case}: instance probability drifted: {p_b} vs {p_a}"
            );
        }

        let rows =
            |w: &maybms_core::WorldSet| -> usize { w.relations.values().map(|r| r.len()).sum() };
        assert!(
            rows(&normalized) <= rows(&ws),
            "case {case}: normalization grew the representation"
        );
        assert!(normalized.components.len() <= ws.components.len());
    }
}

#[test]
fn normalization_is_idempotent() {
    let cfg = GenConfig::default();
    for case in 0..50 {
        let mut rng = Rng::new(0x1DE0 ^ case);
        let mut ws = gen_world_set(&mut rng, &cfg);
        ws.normalize();
        let once = ws.clone();
        ws.normalize();
        assert_eq!(ws, once, "case {case}: normalize is not idempotent");
    }
}

/// A run's answer put straight into a world set — past `WorldSet::insert`,
/// which would re-code it — carries the run's pools, which hold every
/// scanned relation's descriptors and every conjunction under handles of
/// their own. Normalizing it gives what normalizing the stored copy gives,
/// field for field and with the same garbage collection, and a second
/// normalize changes nothing.
#[test]
fn a_run_s_answer_normalizes_as_its_stored_copy() {
    let cfg = GenConfig::default();
    let mut answers = 0;
    for case in 0..CASES {
        let mut rng = Rng::new(0xA45_4E04 ^ case);
        let mut ws = gen_world_set(&mut rng, &cfg);
        let plan = if case % 2 == 0 {
            gen_plan(&mut rng, &ws, 2)
        } else {
            gen_uncertain_plan(&mut rng, &ws, 2)
        };
        let Ok(answer) = run(&mut ws, &plan) else {
            continue;
        };
        answers += 1;
        let (mut raw, mut stored) = (ws.clone(), ws);
        raw.relations.insert("q".into(), answer.clone());
        stored.insert("q", answer).unwrap();
        raw.normalize();
        stored.normalize();
        let at = format!("case {case}: {plan}");
        assert_eq!(format!("{raw:?}"), format!("{stored:?}"), "{at}");
        for (name, rel) in &raw.relations {
            assert_same_image(rel, &stored.relations[name], &format!("{at}: {name}"));
        }
        let once = raw.clone();
        raw.normalize();
        assert_eq!(raw, once, "{at}: normalize is not idempotent");
    }
    assert!(answers >= CASES as usize / 2, "only {answers} plans ran");
}

/// Garbage collection renumbers components in the relations normalization
/// made and in nothing else. A world set cloned before the normalize shares
/// every relation's body with the clone; after it, the original still holds
/// the same bodies (still what pushing its rows makes) with the same
/// statistics and equals a copy of itself, while each of the clone's
/// relations is what pushing its renumbered rows makes.
#[test]
fn gc_renumbers_only_the_images_normalize_made() {
    let cfg = GenConfig::default();
    // Cases in which a kept component moved to a lower id (a lower bound:
    // equal components hide a move).
    let mut renumbered = 0;
    for case in 0..CASES {
        let mut rng = Rng::new(0x6C_4E04 ^ case);
        let original = gen_world_set(&mut rng, &cfg);
        // Every statistics memo filled.
        let warm: Vec<_> = original
            .relations
            .values()
            .map(|r| (body(r), collect_stats(r)))
            .collect();
        let copy = rebuilt_by_push(&original);
        let mut clone = original.clone();
        clone.normalize();
        let moved = clone
            .components
            .iter()
            .any(|(c, comp)| original.components.get(c) != comp);
        renumbered += usize::from(moved);
        for (name, rel) in &clone.relations {
            let at = format!("case {case}: normalized {name}");
            assert_image_as_built(rel, &at);
            let stats = collect_stats(rel);
            assert_eq!(stats, stats_by_rows(rel), "{at}");
        }
        assert_eq!(original, copy, "case {case}");
        for ((name, rel), (was, stats)) in original.relations.iter().zip(&warm) {
            let at = format!("case {case}: original {name}");
            assert_eq!(body(rel), *was, "{at}");
            assert_eq!(&collect_stats(rel), stats, "{at}");
            assert_image_as_built(rel, &at);
        }
    }
    assert!(renumbered >= 10, "only {renumbered} cases renumbered");
}

/// A relation already in normal form stays as it is — the same body, its
/// statistics and its rows, if built — unless garbage collection renumbers a
/// component it mentions; then it gets a renumbered copy and holders of the
/// old body keep it unchanged. The others are rebuilt, and everything reads
/// as the reference normalizes it.
#[test]
fn normalize_keeps_what_is_already_normal() {
    let int = |x: i64| Value::Int(x);
    let schema = Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]).unwrap();
    // Certain rows, in the order given.
    let certain = |rows: &[(i64, i64)]| {
        let mut u = URelation::new(schema.clone());
        for &(k, v) in rows {
            let t = Tuple::new(vec![int(k), int(v)]);
            u.push(t, WsDescriptor::tautology()).unwrap();
        }
        u
    };
    let mut ws = WorldSet::new();
    // A duplicate row: rebuilt without it. Certain, so `repair-key` takes it.
    let form = certain(&[
        (1, 10),
        (1, 11),
        (2, 20),
        (3, 30),
        (3, 31),
        (3, 32),
        (3, 30),
    ]);
    ws.insert("form", form).unwrap();
    // Distinct, out of canonical order: rebuilt in order.
    ws.insert("shuffled", certain(&[(2, 0), (1, 0)])).unwrap();
    // A repair's answer is normal: it mints c0 (key 1) and c1 (key 3).
    let plan = repair_key(Plan::scan("form"), &["k"], None);
    let census = run(&mut ws, &plan).unwrap();
    ws.insert("census", census).unwrap();
    // c2 is referenced by nothing, so c3 becomes c2; `moved` is normal.
    ws.components.add(Component::uniform(2).unwrap());
    let c3 = ws.components.add(Component::uniform(2).unwrap());
    let mut moved = URelation::new(schema.clone());
    for (k, alt) in [(1, 0), (2, 1)] {
        moved
            .push(
                Tuple::new(vec![int(k), int(0)]),
                WsDescriptor::single(c3, alt),
            )
            .unwrap();
    }
    ws.insert("moved", moved).unwrap();

    let census = &ws.relations["census"];
    assert_eq!(census.len(), 6);
    let census_stats = collect_stats(census);
    let census_rows = census.rows().as_ptr();
    let bodies: Vec<_> = ws.relations.values().map(body).collect();
    let before = ws.clone();
    ws.normalize();

    assert_eq!(ws.components.len(), 3);
    let at = |name: &str| (&ws.relations[name], &before.relations[name]);
    let (census, _) = at("census");
    assert_eq!(body(census), bodies[0], "census is kept");
    assert_eq!(census.rows().as_ptr(), census_rows, "with its rows");
    assert_eq!(collect_stats(census), census_stats);
    for (i, name) in [(1, "form"), (3, "shuffled")] {
        let (after, _) = at(name);
        assert_ne!(body(after), bodies[i], "{name} is rebuilt");
    }
    assert_eq!(at("form").0.len(), 6);
    let (moved, old) = at("moved");
    assert_ne!(body(moved), bodies[2], "moved is renumbered");
    assert_eq!(body(old), bodies[2], "in a copy");
    assert_eq!(old.rows()[0].1, WsDescriptor::single(c3, 0));
    assert_eq!(moved.rows()[0].1, WsDescriptor::single(ComponentId(2), 0));
    for (name, rel) in &ws.relations {
        assert_image_as_built(rel, name);
        assert_image_as_built(&before.relations[name], name);
        // The reference, with c3 read as c2.
        let want: Vec<_> =
            normalize_rows(before.relations[name].rows().to_vec(), &before.components)
                .into_iter()
                .map(|(t, d)| {
                    let terms = d.terms().iter().map(|&(c, a)| (ComponentId(c.0.min(2)), a));
                    (t, WsDescriptor::from_terms(terms.collect()).unwrap())
                })
                .collect();
        assert_eq!(rel.rows(), want, "{name}");
    }
}
