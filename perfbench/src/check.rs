//! Correctness inside the run, valid for any seed.
//!
//! * [`digest`] — an order-independent digest of a result: a multiset hash
//!   of its rows with floats rounded to 1e-9 and descriptors over components
//!   minted during the round replaced by their probability mass (minted ids
//!   depend on evaluation order; their mass does not). Every round's digest
//!   is compared with the one the reference path produced.
//! * [`dnf_prob`] — an exact probability of a descriptor disjunction that
//!   shares no code with the engine: Shannon expansion over the components in
//!   id order, memoised on (next component, set of descriptors not yet
//!   falsified), which determines the residual disjunction. On a chain this is the
//!   transfer-matrix recurrence (the state is the value of the one component
//!   two neighbouring descriptors share); on the dense welds it is variable
//!   elimination along the same order.
//! * [`conf_abs_errors`], [`key_mass_error`] — what the `CONF` statements
//!   are held to: exact results within 1e-9 of [`dnf_prob`], sampled ones
//!   within ε for at least 1 − δ of the tuples, per-key masses summing to 1.

use std::collections::{BTreeMap, HashMap};

use crate::engine::{
    Component, ComponentId, ComponentSet, URelation, Value, WorldSet, WsDescriptor,
};

/// Row count plus multiset hash of a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Number of rows.
    pub rows: u64,
    /// Wrapping sum of the rows' hashes.
    pub hash: u64,
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn round9(f: f64) -> u64 {
    ((f * 1e9).round() as i64) as u64
}

/// Digest one relation. Components with an id below `base_components` were
/// loaded (their ids are stable); the others were minted during the round.
pub fn digest(rel: &URelation, comps: &ComponentSet, base_components: u32) -> Digest {
    let mut hash = 0u64;
    for (t, d) in rel.rows() {
        let mut h = 0x51_7C_C1_B7_27_22_0A_95u64;
        for v in t.values() {
            h = match v {
                Value::Null => mix(h ^ 1),
                Value::Bool(b) => mix(mix(h ^ 2) ^ u64::from(*b)),
                Value::Int(i) => mix(mix(h ^ 3) ^ *i as u64),
                Value::Float(f) => mix(mix(h ^ 4) ^ round9(f.get())),
                Value::Str(s) => {
                    s.as_bytes()
                        .chunks(8)
                        .fold(mix(h ^ 5 ^ ((s.len() as u64) << 8)), |h, c| {
                            let mut w = [0u8; 8];
                            w[..c.len()].copy_from_slice(c);
                            mix(h ^ u64::from_le_bytes(w))
                        })
                }
            };
        }
        let mut minted_mass = 1.0;
        for &(c, a) in d.terms() {
            if c.0 < base_components {
                h = mix(mix(h ^ 6 ^ (u64::from(c.0) << 8)) ^ u64::from(a));
            } else {
                minted_mass *= comps.get(c).prob(a);
            }
        }
        hash = hash.wrapping_add(mix(h ^ round9(minted_mass)));
    }
    Digest {
        rows: rel.len() as u64,
        hash,
    }
}

/// Digest a whole world set: every relation by name, plus how many
/// components survive.
pub fn digest_world(ws: &WorldSet, base_components: u32) -> Digest {
    let mut out = Digest {
        rows: ws.components.len() as u64,
        hash: 0,
    };
    for (name, rel) in &ws.relations {
        let d = digest(rel, &ws.components, base_components);
        let name_hash = name.bytes().fold(7u64, |h, b| mix(h ^ u64::from(b)));
        out.rows += d.rows;
        out.hash = out.hash.wrapping_add(mix(d.hash ^ name_hash));
    }
    out
}

/// Exact `P(d₁ ∨ … ∨ dₙ)` for at most 64 descriptors over at most 64
/// components. See the module docs.
pub fn dnf_prob(comps: &ComponentSet, descs: &[&WsDescriptor]) -> f64 {
    assert!(descs.len() <= 64, "the alive set is a 64-bit mask");
    if descs.iter().any(|d| d.is_tautology()) {
        return 1.0;
    }
    let mut vars: Vec<ComponentId> = descs
        .iter()
        .flat_map(|d| d.terms().iter().map(|&(c, _)| c))
        .collect();
    vars.sort_unstable();
    vars.dedup();
    assert!(vars.len() <= 64, "variable sets are 64-bit masks");
    let slot = |c: ComponentId| vars.binary_search(&c).expect("collected above") as u32;
    let dnf = Dnf {
        vars: vars.iter().map(|&c| comps.get(c)).collect(),
        descs: descs
            .iter()
            .map(|d| d.terms().iter().map(|&(c, a)| (slot(c), a)).collect())
            .collect(),
    };
    let all = if descs.len() == 64 {
        u64::MAX
    } else {
        (1u64 << descs.len()) - 1
    };
    dnf.solve(0, all, &mut HashMap::new())
}

/// A disjunction over local variable slots, terms sorted by slot.
struct Dnf<'a> {
    vars: Vec<&'a Component>,
    descs: Vec<Vec<(u32, u16)>>,
}

impl Dnf<'_> {
    /// The term of descriptor `d` on the first variable at or after `from`.
    fn next_term(&self, d: usize, from: u32) -> Option<(u32, u16)> {
        self.descs[d].iter().copied().find(|&(v, _)| v >= from)
    }

    /// Partition `alive` into groups connected through variables at or after
    /// `from` (the only ones still unassigned).
    fn split(&self, from: u32, alive: u64) -> Vec<u64> {
        let mut groups: Vec<(u64, u64)> = Vec::new(); // (descriptors, variables)
        if alive & (alive - 1) == 0 {
            return vec![alive];
        }
        for d in (0..self.descs.len()).filter(|d| alive >> d & 1 == 1) {
            let vars = self.descs[d]
                .iter()
                .filter(|&&(v, _)| v >= from)
                .fold(0u64, |m, &(v, _)| m | 1 << v);
            let (mut ds, mut vs) = (1u64 << d, vars);
            groups.retain(|&(gd, gv)| {
                let touches = gv & vs != 0;
                if touches {
                    ds |= gd;
                    vs |= gv;
                }
                !touches
            });
            groups.push((ds, vs));
        }
        groups.into_iter().map(|(ds, _)| ds).collect()
    }

    /// `P(some alive descriptor holds)` given that variables below `from`
    /// are assigned and every alive descriptor's terms on them are satisfied
    /// (a descriptor whose last term is satisfied ends the recursion with 1,
    /// so every alive descriptor still has a term at or after `from`).
    fn solve(&self, from: u32, alive: u64, memo: &mut HashMap<(u32, u64), f64>) -> f64 {
        let members = |mut mask: u64| {
            std::iter::from_fn(move || {
                (mask != 0).then(|| {
                    let d = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    d
                })
            })
        };
        let Some(var) = members(alive)
            .filter_map(|d| self.next_term(d, from))
            .map(|(v, _)| v)
            .min()
        else {
            return 0.0;
        };
        if let Some(&p) = memo.get(&(var, alive)) {
            return p;
        }
        // Descriptors that share no unassigned variable are independent.
        let groups = self.split(from, alive);
        if groups.len() > 1 {
            let none: f64 = groups
                .iter()
                .map(|&g| 1.0 - self.solve(from, g, memo))
                .product();
            memo.insert((var, alive), 1.0 - none);
            return 1.0 - none;
        }
        let component = self.vars[var as usize];
        let on_var: Vec<(usize, u16)> = members(alive)
            .filter_map(|d| match self.next_term(d, from) {
                Some((v, a)) if v == var => Some((d, a)),
                _ => None,
            })
            .collect();
        let without = on_var.iter().fold(alive, |m, &(d, _)| m & !(1 << d));
        let mut alts: Vec<u16> = on_var.iter().map(|&(_, a)| a).collect();
        alts.sort_unstable();
        alts.dedup();
        let mut total = 0.0;
        let mut mentioned_mass = 0.0;
        for &alt in &alts {
            let p = component.prob(alt);
            mentioned_mass += p;
            let agreeing = on_var.iter().filter(|&&(_, a)| a == alt);
            let complete = agreeing
                .clone()
                .any(|&(d, _)| self.descs[d].last().is_some_and(|&(v, _)| v == var));
            total += p * if complete {
                1.0
            } else {
                let keep = agreeing.fold(without, |m, &(d, _)| m | 1 << d);
                self.solve(var + 1, keep, memo)
            };
        }
        // Every alternative no descriptor mentions leaves the same residual.
        if alts.len() < usize::from(component.alternatives()) {
            total += (1.0 - mentioned_mass) * self.solve(var + 1, without, memo);
        }
        memo.insert((var, alive), total);
        total
    }
}

/// The exact confidence of every tuple of the one-column relation
/// `rel(id)`, by [`dnf_prob`].
pub fn conf_reference(ws: &WorldSet, rel: &str) -> Result<BTreeMap<i64, f64>, String> {
    let rel = ws.relation(rel).map_err(|e| e.to_string())?;
    let mut groups: BTreeMap<i64, Vec<&WsDescriptor>> = BTreeMap::new();
    for (t, d) in rel.rows() {
        match t.get(0) {
            Value::Int(id) => groups.entry(*id).or_default().push(d),
            other => {
                return Err(format!(
                    "conf relations are keyed by an int id, not {other:?}"
                ))
            }
        }
    }
    Ok(groups
        .into_iter()
        .map(|(id, descs)| (id, dnf_prob(&ws.components, &descs)))
        .collect())
}

fn conf_cell(v: &Value) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(f.get()),
        other => Err(format!("conf column holds {other:?}")),
    }
}

/// `|engine − exact|` per tuple of a `SELECT CONF id FROM rel` result, or an
/// error when the result's ids are not exactly the reference's.
pub fn conf_abs_errors(result: &URelation, exact: &BTreeMap<i64, f64>) -> Result<Vec<f64>, String> {
    if result.len() != exact.len() {
        return Err(format!(
            "{} result tuples for {} reference tuples",
            result.len(),
            exact.len()
        ));
    }
    result
        .rows()
        .iter()
        .map(|(t, _)| {
            let Value::Int(id) = t.get(0) else {
                return Err(format!("id column holds {:?}", t.get(0)));
            };
            let p = exact.get(id).ok_or_else(|| format!("unexpected id {id}"))?;
            Ok((conf_cell(t.get(t.arity() - 1))? - p).abs())
        })
        .collect()
}

/// The largest `|Σ conf − 1|` over the keys (first column) of a
/// `SELECT CONF k, … FROM <repaired relation>` result.
pub fn key_mass_error(result: &URelation) -> Result<f64, String> {
    let mut mass: HashMap<&Value, f64> = HashMap::new();
    for (t, _) in result.rows() {
        *mass.entry(t.get(0)).or_insert(0.0) += conf_cell(t.get(t.arity() - 1))?;
    }
    Ok(mass.values().map(|m| (m - 1.0).abs()).fold(0.0, f64::max))
}
