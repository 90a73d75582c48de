//! Seeded workload generators. `perfbench` owns them (the shapes are those of
//! `crates/bench/src/lib.rs`, which a later change retires); the engine only
//! ever sees the [`GenData`] they produce, loaded into a `WorldSet`.
//!
//! The driver compares runs made with *different* seeds, so a workload's cost
//! must not depend on the seed. Wherever a shape's cost is exponential or
//! heavy-tailed in a random draw, that draw is stratified (every value of the
//! range the same number of times, in seeded order) or taken from a fixed
//! template that the seed only relabels; the seed still decides every value,
//! weight, label and order the engine sees.

use crate::engine::{
    Component, ComponentId, Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor,
};

/// SplitMix64 — the benchmark's own generator, so that inputs stay the same
/// whatever happens to the engine's.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// `count` values covering `lo..=hi` evenly (each value ⌊count/width⌋ or
    /// one more time), in seeded order.
    pub fn stratified(&mut self, lo: usize, hi: usize, count: usize) -> Vec<usize> {
        let width = hi - lo + 1;
        let mut out: Vec<usize> = (0..count).map(|i| lo + i % width).collect();
        self.shuffle(&mut out);
        out
    }
}

/// One generated relation: what a loader would read from a file.
#[derive(Clone, Debug)]
pub struct GenRel {
    /// Relation name.
    pub name: String,
    /// Column names and types.
    pub schema: Schema,
    /// The rows with their world-set descriptors.
    pub rows: Vec<(Tuple, WsDescriptor)>,
}

/// The generated input of one workload: components (the `i`-th is
/// `ComponentId(i)`) and relations.
#[derive(Clone, Debug, Default)]
pub struct GenData {
    /// The independent components, in id order.
    pub components: Vec<Component>,
    /// The relations.
    pub relations: Vec<GenRel>,
}

impl GenData {
    fn component(&mut self, c: Component) -> ComponentId {
        self.components.push(c);
        ComponentId(self.components.len() as u32 - 1)
    }

    fn uniform_components(&mut self, count: usize, alternatives: usize) -> Vec<ComponentId> {
        (0..count)
            .map(|_| self.component(Component::uniform(alternatives).expect("alternatives > 0")))
            .collect()
    }

    fn relation(&mut self, name: &str, cols: &[(&str, ValueType)]) -> &mut GenRel {
        self.relations.push(GenRel {
            name: name.to_owned(),
            schema: Schema::of(cols).expect("distinct column names"),
            rows: Vec::new(),
        });
        self.relations.last_mut().expect("just pushed")
    }

    /// Total number of generated rows.
    pub fn rows(&self) -> usize {
        self.relations.iter().map(|r| r.rows.len()).sum()
    }

    /// Build the world set: components in order, then every relation row by
    /// row through the schema check and `WorldSet::insert`'s descriptor
    /// validation — what loading costs an application.
    pub fn load(self) -> Result<WorldSet, String> {
        let mut ws = WorldSet::new();
        for (i, c) in self.components.into_iter().enumerate() {
            let id = ws.components.add(c);
            assert_eq!(id, ComponentId(i as u32), "component ids are positional");
        }
        for rel in self.relations {
            let mut u = URelation::new(rel.schema);
            u.reserve(rel.rows.len());
            for (t, d) in rel.rows {
                u.push(t, d).map_err(|e| e.to_string())?;
            }
            ws.insert(rel.name, u).map_err(|e| e.to_string())?;
        }
        Ok(ws)
    }
}

fn int(v: usize) -> Value {
    Value::Int(v as i64)
}

fn key_str(v: usize) -> Value {
    Value::str(format!("k{v}"))
}

fn row2(a: Value, b: Value) -> Tuple {
    Tuple::new(vec![a, b])
}

/// A descriptor on one random component of `comps` with a random binary
/// alternative.
fn one_of(rng: &mut Rng, comps: &[ComponentId]) -> WsDescriptor {
    WsDescriptor::single(comps[rng.below(comps.len())], rng.below(2) as u16)
}

/// Number of distinct `b` keys in the skewed chain.
pub const SKEW_B_KEYS: usize = 2000;

/// The `join_mix` input over `n` rows per relation:
///
/// * `a1(a,b) a2(b,c) a3(c,d)` — int keys uniform in `0..n`, uncertain
///   (`n/10` binary components);
/// * `s1(a,b) s2(b,c) s3(c,d)` — the same chain with string-typed `b`, `d`;
/// * `f1(a,b) … f5(e,f)` — a certain 5-chain, one row per key, whose tail
///   keeps one key in a hundred;
/// * `z1(a,b) z2(b,c) z3(c,d)` — `z1.b` zipf-skewed over 2000 keys, `z2 ⋈ z3`
///   selective (`n/100` rows), `z3` a tenth the size: text order joins the
///   `~n²/2000`-row `b` hop first. The matching `z2` rows carry a fixed
///   stride of `b` keys, so the output size does not hinge on whether a seed
///   happens to hit one of the few hot keys.
pub fn join_mix(rng: &mut Rng, n: usize) -> GenData {
    use ValueType::{Int, Str};
    let mut g = GenData::default();
    let a_comps = g.uniform_components((n / 10).max(1), 2);
    for (name, cols) in [("a1", ["a", "b"]), ("a2", ["b", "c"]), ("a3", ["c", "d"])] {
        let rows = (0..n)
            .map(|_| {
                let t = row2(int(rng.below(n)), int(rng.below(n)));
                (t, one_of(rng, &a_comps))
            })
            .collect();
        g.relation(name, &[(cols[0], Int), (cols[1], Int)]).rows = rows;
    }

    let s_comps = g.uniform_components((n / 10).max(1), 2);
    let specs = [
        ("s1", [("a", Int), ("b", Str)]),
        ("s2", [("b", Str), ("c", Int)]),
        ("s3", [("c", Int), ("d", Str)]),
    ];
    for (name, cols) in specs {
        let rows = (0..n)
            .map(|_| {
                let mut cell = |ty| match ty {
                    Int => int(rng.below(n)),
                    _ => key_str(rng.below(n)),
                };
                let t = row2(cell(cols[0].1), cell(cols[1].1));
                (t, one_of(rng, &s_comps))
            })
            .collect();
        g.relation(name, &cols).rows = rows;
    }

    let chain = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")];
    for (i, (k1, k2)) in chain.into_iter().enumerate() {
        let tail = i == 4;
        let count = if tail { (n / 100).max(1) } else { n };
        let mut rows: Vec<(Tuple, WsDescriptor)> = (0..count)
            .map(|r| {
                let key = if tail { r * 100 } else { r };
                (row2(int(key), int(key)), WsDescriptor::tautology())
            })
            .collect();
        rng.shuffle(&mut rows);
        g.relation(&format!("f{}", i + 1), &[(k1, Int), (k2, Int)])
            .rows = rows;
    }

    let z_comps = g.uniform_components((n / 10).max(1), 2);
    let zipf =
        |rng: &mut Rng| ((SKEW_B_KEYS as f64).powf(rng.unit()) as usize).min(SKEW_B_KEYS - 1);
    let rows = (0..n)
        .map(|_| {
            let t = row2(int(rng.below(n)), int(zipf(rng)));
            (t, one_of(rng, &z_comps))
        })
        .collect();
    g.relation("z1", &[("a", Int), ("b", Int)]).rows = rows;
    // `z2.c` is unique and even; the first `n/100` rows are the ones `z3`
    // matches, and their `b` keys walk a fixed stride of the key space.
    let matched = (n / 100).max(1);
    let z2_c: Vec<usize> = (0..n).map(|i| 10 * i + 2 * rng.below(5)).collect();
    let mut z2: Vec<(Tuple, WsDescriptor)> = (0..n)
        .map(|i| {
            let b = if i < matched {
                (4 * i + 3) % SKEW_B_KEYS
            } else {
                rng.below(SKEW_B_KEYS)
            };
            (row2(int(b), int(z2_c[i])), one_of(rng, &z_comps))
        })
        .collect();
    let mut z3: Vec<(Tuple, WsDescriptor)> = (0..(n / 10).max(1))
        .map(|r| {
            // Odd values match no `z2.c`.
            let c = if r < matched {
                z2_c[r]
            } else {
                2 * rng.below(5 * n) + 1
            };
            (row2(int(c), int(rng.below(n))), one_of(rng, &z_comps))
        })
        .collect();
    rng.shuffle(&mut z2);
    rng.shuffle(&mut z3);
    g.relation("z2", &[("b", Int), ("c", Int)]).rows = z2;
    g.relation("z3", &[("c", Int), ("d", Int)]).rows = z3;
    g
}

/// The `repair_pipeline` input: a certain `form(k, v, w)` of `n` rows whose
/// key collides about four-fold, with a positive integer weight, and a
/// certain `homes(k, city)` with one row per key and 64 cities.
pub fn repair_pipeline(rng: &mut Rng, n: usize) -> GenData {
    use ValueType::{Int, Str};
    let mut g = GenData::default();
    let keys = (n / 4).max(1);
    let rows = (0..n)
        .map(|i| {
            let t = Tuple::new(vec![int(rng.below(keys)), int(i), int(rng.range(1, 5))]);
            (t, WsDescriptor::tautology())
        })
        .collect();
    g.relation("form", &[("k", Int), ("v", Int), ("w", Int)])
        .rows = rows;
    let mut homes: Vec<(Tuple, WsDescriptor)> = (0..keys)
        .map(|k| {
            let city = Value::str(format!("city{}", rng.below(64)));
            (row2(int(k), city), WsDescriptor::tautology())
        })
        .collect();
    rng.shuffle(&mut homes);
    g.relation("homes", &[("k", Int), ("city", Str)]).rows = homes;
    g
}

/// The `small_stmts` input: `relations` chain-joinable relations
/// `r{i}(x{i}, x{i+1})` of `rows` rows. `x{i}` is unique per row and
/// `x{i+1}` uniform in `0..rows`, so every hop of a chain join matches one
/// row and an n-way join returns about `rows` rows. Even-numbered relations
/// are uncertain (over `rows/10` binary components), odd ones certain.
pub fn small_stmts(rng: &mut Rng, relations: usize, rows: usize) -> GenData {
    let mut g = GenData::default();
    let comps = g.uniform_components((rows / 10).max(1), 2);
    for i in 0..relations {
        let mut firsts: Vec<usize> = (0..rows).collect();
        rng.shuffle(&mut firsts);
        let body = firsts
            .into_iter()
            .map(|x| {
                let d = if i % 2 == 0 {
                    one_of(rng, &comps)
                } else {
                    WsDescriptor::tautology()
                };
                (row2(int(x), int(rng.below(rows))), d)
            })
            .collect();
        let (c0, c1) = (format!("x{i}"), format!("x{}", i + 1));
        g.relation(
            &format!("r{i}"),
            &[(c0.as_str(), ValueType::Int), (c1.as_str(), ValueType::Int)],
        )
        .rows = body;
    }
    g
}

/// A descriptor group over local component slots: what one tuple of a
/// `conf` relation carries, before fresh components are minted for it.
#[derive(Clone, Debug)]
pub struct Template {
    /// Alternatives per slot.
    pub alts: Vec<usize>,
    /// Descriptors as `(slot, alternative)` terms.
    pub descs: Vec<Vec<(usize, u16)>>,
}

impl Template {
    /// `slots` slots with `alts.0..=alts.1` alternatives each.
    fn with_slots(rng: &mut Rng, slots: usize, alts: (usize, usize)) -> Template {
        Template {
            alts: (0..slots).map(|_| rng.range(alts.0, alts.1)).collect(),
            descs: Vec::new(),
        }
    }

    fn term(&self, rng: &mut Rng, slot: usize) -> (usize, u16) {
        (slot, rng.below(self.alts[slot]) as u16)
    }

    /// One connected chain: `links + 1` slots, a two-term descriptor per
    /// adjacent pair — the case factorisation cannot split.
    pub fn chain(rng: &mut Rng, links: usize, alts: (usize, usize)) -> Template {
        let mut t = Template::with_slots(rng, links + 1, alts);
        for i in 0..links {
            let d = vec![t.term(rng, i), t.term(rng, i + 1)];
            t.descs.push(d);
        }
        t
    }

    /// `groups` mutually disjoint groups of `comps` slots; within a group,
    /// descriptors are windows of two or three slots, each sharing its first
    /// slot with the previous window.
    pub fn windows(rng: &mut Rng, groups: usize, comps: usize, alts: (usize, usize)) -> Template {
        let mut t = Template::with_slots(rng, groups * comps, alts);
        for g in 0..groups {
            let width = (2 + g % 2).min(comps);
            let mut start = 0;
            loop {
                let end = (start + width).min(comps);
                let d = (start..end).map(|s| t.term(rng, g * comps + s)).collect();
                t.descs.push(d);
                if end == comps {
                    break;
                }
                start = end - 1;
            }
        }
        t
    }

    /// One dense connected group: `descs` three-term descriptors over
    /// `comps ≥ 3` slots; descriptor `i` covers the adjacent pair
    /// `(i mod (comps−1), +1)` and one random other slot.
    pub fn dense(rng: &mut Rng, comps: usize, descs: usize, alts: (usize, usize)) -> Template {
        assert!(comps >= 3, "three distinct slots per descriptor");
        let mut t = Template::with_slots(rng, comps, alts);
        for d in 0..descs {
            let a = d % (comps - 1);
            let third = loop {
                let j = rng.below(comps);
                if j != a && j != a + 1 {
                    break j;
                }
            };
            let terms = vec![t.term(rng, a), t.term(rng, a + 1), t.term(rng, third)];
            t.descs.push(terms);
        }
        t
    }
}

/// How a `conf` relation's tuples get their components' weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Weights {
    /// Every alternative equally likely.
    Equal,
    /// Random non-uniform weights per component.
    Random,
}

impl GenData {
    /// Append one `conf` relation `name(id)`: tuple `i` carries the
    /// descriptors of `template(i)` over fresh components. Each slot's
    /// alternatives are relabelled by a seeded permutation, which keeps the
    /// group's structure (and, under [`Weights::Equal`], its probability)
    /// while changing every label the engine sees.
    pub fn conf_relation(
        &mut self,
        rng: &mut Rng,
        name: &str,
        tuples: usize,
        weights: Weights,
        mut template: impl FnMut(&mut Rng, usize) -> Template,
    ) {
        let mut rows = Vec::new();
        for i in 0..tuples {
            let t = template(rng, i);
            let mut relabel: Vec<Vec<u16>> = Vec::with_capacity(t.alts.len());
            let comps: Vec<ComponentId> = t
                .alts
                .iter()
                .map(|&n| {
                    let mut perm: Vec<u16> = (0..n as u16).collect();
                    rng.shuffle(&mut perm);
                    relabel.push(perm);
                    let c = match weights {
                        Weights::Equal => Component::uniform(n),
                        Weights::Random => {
                            let w: Vec<f64> = (0..n).map(|_| 0.1 + rng.unit()).collect();
                            Component::from_weights(&w)
                        }
                    };
                    self.component(c.expect("positive finite weights"))
                })
                .collect();
            for d in &t.descs {
                let terms = d
                    .iter()
                    .map(|&(slot, alt)| (comps[slot], relabel[slot][alt as usize]))
                    .collect();
                let desc = WsDescriptor::from_terms(terms).expect("distinct slots");
                rows.push((Tuple::new(vec![int(i)]), desc));
            }
        }
        self.relation(name, &[("id", ValueType::Int)]).rows = rows;
    }
}
