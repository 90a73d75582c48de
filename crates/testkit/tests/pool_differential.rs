//! The arena pools against their plain-value counterparts.
//!
//! [`DescriptorPool`] and [`StrPool`] are flat arenas: a conjunction is
//! merged into the arena's tail and kept or truncated, a stored relation's
//! dictionaries are appended by a scan instead of interned, and the hash
//! index is built late, over whatever is there. What that must never change:
//!
//! * **conjoin** — the pool's conjunction *denotes* what
//!   [`WsDescriptor::conjoin`] computes, over random term lists of 0–6 terms
//!   (tautologies, equal handles, either side subsuming the other, conflicts
//!   at any position), and a conjunction that mints nothing — conflicting or
//!   subsumed — leaves the pool's `len()` where it was;
//! * **import, descriptors** — after a scan into fresh pools, interning a
//!   row's term list returns the very handle the scan gave that row (what
//!   normalization's handle-compared absorption step stands on); into busy
//!   pools the handles differ but denote the same descriptors, and no scan
//!   makes an intern call;
//! * **import, strings** — empty strings, multi-byte UTF-8, one dictionary
//!   shared by two relations, an all-`NULL` string column: scanned into fresh
//!   and into busy pools, every relation comes back through `to_urelation` as
//!   the rows it was, and equal strings of different relations share a code.
//!
//! Every case is seeded; a failure prints the case number for exact replay.

use std::borrow::Cow;

use maybms_core::columnar::{ColumnData, ColumnarURelation, StrPool};
use maybms_core::rng::Rng;
use maybms_core::{
    ComponentId, DescId, DescriptorPool, Scan, Schema, Tuple, URelation, Value, ValueType,
    WsDescriptor,
};

/// A random descriptor over components `0..8` with up to six terms.
fn gen_terms(rng: &mut Rng) -> WsDescriptor {
    let want = rng.below(7);
    let mut terms = Vec::new();
    for c in 0..8u32 {
        if terms.len() < want && rng.chance(0.5) {
            terms.push((ComponentId(c), rng.below(3) as u16));
        }
    }
    WsDescriptor::from_terms(terms).expect("distinct components cannot conflict")
}

/// `d` with some terms dropped: a superset of `d`'s worlds, so `d` is the
/// conjunction of the two.
fn weaken(rng: &mut Rng, d: &WsDescriptor) -> WsDescriptor {
    let kept = d.terms().iter().copied().filter(|_| rng.chance(0.5));
    WsDescriptor::from_terms(kept.collect()).expect("a sublist stays consistent")
}

/// `d` with one assignment changed, so the two conflict (`None` for `⊤`).
fn contradict(rng: &mut Rng, d: &WsDescriptor) -> Option<WsDescriptor> {
    let mut terms = d.terms().to_vec();
    let at = rng.below(terms.len().max(1));
    let (_, alt) = terms.get_mut(at)?;
    *alt = (*alt + 1) % 3;
    // Some other terms may go; the clash stays.
    let clash = terms[at];
    terms.retain(|&t| t == clash || rng.chance(0.7));
    WsDescriptor::from_terms(terms)
}

#[test]
fn arena_conjoin_denotes_descriptor_conjoin() {
    let (mut minted, mut conflicts, mut subsumed) = (0, 0, 0);
    for case in 0..600u64 {
        let mut rng = Rng::new(0xA7E_4A00 ^ case);
        let a = gen_terms(&mut rng);
        let b = match rng.below(5) {
            0 => weaken(&mut rng, &a),
            1 => contradict(&mut rng, &a).unwrap_or_else(WsDescriptor::tautology),
            2 => a.clone(),
            _ => gen_terms(&mut rng),
        };
        let mut pool = DescriptorPool::new();
        // Something else first, so handles are not positions in this test.
        pool.intern(&gen_terms(&mut rng));
        let (ia, ib) = (pool.intern(&a), pool.intern(&b));
        for (x, y, ix, iy) in [(&a, &b, ia, ib), (&b, &a, ib, ia), (&a, &a, ia, ia)] {
            let before = pool.len();
            let got = pool.conjoin(ix, iy);
            let expected = x.conjoin(y);
            assert_eq!(
                got.map(|id| pool.to_descriptor(id)),
                expected,
                "case {case}: {x} ∧ {y}"
            );
            match (&expected, got) {
                (None, _) => {
                    conflicts += 1;
                    assert_eq!(pool.len(), before, "case {case}: a conflict minted");
                }
                (Some(d), Some(id)) if d == x || d == y => {
                    subsumed += 1;
                    assert_eq!(pool.len(), before, "case {case}: a subsumed side minted");
                    assert!(id == ix || id == iy, "case {case}: an input's own handle");
                }
                _ => {
                    minted += 1;
                    assert_eq!(pool.len(), before + 1, "case {case}");
                }
            }
        }
        // The arena's tail was left clean: what is interned next reads back.
        let next = gen_terms(&mut rng);
        let id = pool.intern(&next);
        assert_eq!(pool.to_descriptor(id), next, "case {case}");
        assert_eq!(pool.intern(&next), id, "case {case}");
    }
    // The generator reaches every outcome, often.
    assert!(
        minted > 100 && conflicts > 100 && subsumed > 600,
        "{minted} minted, {conflicts} conflicts, {subsumed} subsumed"
    );
}

fn cell(s: Option<&str>) -> Value {
    s.map_or(Value::Null, Value::str)
}

/// `rows` over `(k: str, v: str, n: int)`; `n` numbers the rows.
fn str_relation(rows: &[(Option<&str>, Option<&str>, WsDescriptor)]) -> URelation {
    let schema = Schema::of(&[
        ("k", ValueType::Str),
        ("v", ValueType::Str),
        ("n", ValueType::Int),
    ])
    .expect("distinct columns");
    let mut u = URelation::new(schema);
    for (i, (k, v, d)) in rows.iter().enumerate() {
        u.push(
            Tuple::new(vec![cell(*k), cell(*v), Value::Int(i as i64)]),
            d.clone(),
        )
        .expect("rows match the schema");
    }
    u
}

/// A scan as a relation of its own (copying what it borrows), back as rows.
fn to_rows(scan: &Scan<'_>, pool: &DescriptorPool, strings: &StrPool) -> URelation {
    let cols = scan.columns().iter().map(|c| (**c).clone()).collect();
    ColumnarURelation::from_parts(scan.schema().clone(), cols, scan.descs().to_vec())
        .to_urelation(pool, strings)
}

/// The relations a string import must get right, uncertain and certain.
fn tricky_relations(rng: &mut Rng) -> Vec<URelation> {
    let mut d = || gen_terms(rng);
    let shared = [
        (Some(""), Some("ß"), d()),
        (Some("naïve"), Some(""), d()),
        (Some("日本語"), None, d()),
        (Some("ß"), Some("日本"), WsDescriptor::tautology()),
        (None, Some("naïve"), d()),
    ];
    vec![
        str_relation(&shared),
        // The same dictionary in the same order: the codes come back as is.
        str_relation(&shared),
        // The same strings met in another order, plus one more.
        str_relation(&[
            (Some("日本"), Some("naïve"), d()),
            (Some("x"), Some(""), d()),
        ]),
        str_relation(&[(None, None, d()), (None, None, WsDescriptor::tautology())]),
        str_relation(&[(Some(""), None, WsDescriptor::tautology())]),
        str_relation(&[]),
    ]
}

#[test]
fn scans_append_dictionaries_and_round_trip_the_rows() {
    for case in 0..60u64 {
        let mut rng = Rng::new(0x5CA_0000 ^ case);
        let rels = tricky_relations(&mut rng);
        for busy in [false, true] {
            let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
            if busy {
                pool.intern(&gen_terms(&mut rng));
                pool.single(ComponentId(99), 0);
                strings.intern("someone else's");
                strings.intern("");
            }
            let calls = pool.stats().intern_calls;
            let mut order: Vec<usize> = (0..rels.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let scans: Vec<(usize, Scan<'_>)> = order
                .iter()
                .map(|&r| (r, rels[r].scan(&mut pool, &mut strings)))
                .collect();
            assert_eq!(
                pool.stats().intern_calls,
                calls,
                "case {case}: a scan interned"
            );
            // Read back only now: later imports must not disturb earlier ones.
            for (r, scan) in &scans {
                let back = to_rows(scan, &pool, &strings);
                assert_eq!(&back, &rels[*r], "case {case} busy {busy} relation {r}");
                assert_eq!(format!("{back:?}"), format!("{:?}", rels[*r]));
            }
            // One code per distinct string, whichever relation brought it.
            let mut seen: Vec<&str> = (0..strings.len() as u32).map(|c| strings.get(c)).collect();
            seen.sort_unstable();
            assert!(
                seen.windows(2).all(|w| w[0] != w[1]),
                "case {case}: {seen:?}"
            );
            for (_, scan) in &scans {
                for col in scan.columns() {
                    let ColumnData::Str(codes) = col.data() else {
                        continue;
                    };
                    for (i, &code) in codes.iter().enumerate() {
                        if !col.is_null(i) {
                            let s = strings.get(code).to_owned();
                            assert_eq!(strings.intern(&s), code, "case {case}: {s:?}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn interning_after_an_import_into_a_fresh_pool_finds_the_imported_handles() {
    for case in 0..200u64 {
        let mut rng = Rng::new(0x1A_7E00 ^ case);
        let rows: Vec<_> = (0..rng.range(1, 30))
            .map(|_| (Some("k"), None, gen_terms(&mut rng)))
            .collect();
        let u = str_relation(&rows);

        let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
        let scan = u.scan(&mut pool, &mut strings);
        assert!(matches!(scan.columns()[0], Cow::Borrowed(_)), "case {case}");
        let handles: Vec<DescId> = scan.descs().to_vec();
        let len = pool.len();
        for (&id, (_, _, d)) in handles.iter().zip(&rows) {
            assert_eq!(pool.intern_terms(d.terms()), id, "case {case}: {d}");
            assert_eq!(pool.intern(d), id, "case {case}: {d}");
        }
        assert_eq!(pool.len(), len, "case {case}: every intern was a hit");
        // Equal handles iff equal descriptors — what normalization compares.
        for (i, &a) in handles.iter().enumerate() {
            for (j, &b) in handles.iter().enumerate() {
                assert_eq!(a == b, rows[i].2 == rows[j].2, "case {case}: rows {i}, {j}");
            }
        }

        // A busy pool gives other handles for the same descriptors.
        let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
        let own = pool.intern(&rows[0].2);
        let scan = u.scan(&mut pool, &mut strings);
        for (&id, (_, _, d)) in scan.descs().iter().zip(&rows) {
            assert_eq!(pool.terms(id), d.terms(), "case {case}: {d}");
            assert_eq!(id.is_tautology(), d.is_tautology(), "case {case}");
        }
        assert!(pool.same_descriptor(scan.descs()[0], own), "case {case}");
    }
}
