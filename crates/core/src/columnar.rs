//! Columnar u-relation storage: one typed vector per attribute plus a dense
//! descriptor column.
//!
//! A [`URelation`]'s body is a [`ColumnarURelation`] over its dictionaries;
//! its rows (`Vec<(Tuple, WsDescriptor)>`, one heap allocation per row) are
//! a memo built only when someone reads them. The execution core
//! operates on columnar relations throughout: per attribute one contiguous
//! typed vector ([`ColumnVec`]) — `i64` for ints,
//! `f64` for floats, `bool` for booleans, dictionary codes for strings — and
//! one dense [`DescId`] vector for the world-set-descriptor column. Operators
//! sweep whole columns — `column op literal` filters
//! ([`ColView::retain_cmp`]), hash keys ([`ColView::hash_into`]: one typed
//! loop per key column, not a dispatch per cell), gathers — instead of
//! re-materializing tuples per row, which is exactly the access
//! pattern the flat U-relational representation of the paper rewards: the
//! annotation column and the value columns are scanned independently.
//!
//! Two pools — flat arenas both — give the columnar form its compact cells:
//!
//! * descriptors are handles into a [`DescriptorPool`] (see [`crate::intern`]);
//! * strings are codes into a [`StrPool`] shared by *all* columns of a run,
//!   so string equality — in joins, dedup, and group detection — is a `u32`
//!   compare, never a byte compare.
//!
//! Both pools have one owner — the thread driving the run; parallel stages
//! only ever read the pools. A stored [`URelation`] *is* a columnar relation
//! over dictionaries of its own, and a scan appends those dictionaries to the
//! run's pools ([`URelation::scan`]); the engine converts no rows.
//!
//! `Null` is represented out of band: a column carries an optional validity
//! mask, allocated lazily the first time a null is stored. The typed data
//! slot under a null holds an unobservable sentinel. Pure `null`-typed
//! columns (schema type [`ValueType::Null`]) store only their length.
//!
//! Row order is part of the representation (operators preserve and exploit
//! it), and [`ColumnarURelation::from_urelation`] /
//! [`ColumnarURelation::to_urelation`] round-trip rows exactly — the
//! conversion boundary the per-world oracle and the REPL display sit behind.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::hash::Hasher;

use crate::descriptor::WsDescriptor;
use crate::fxhash::fx_step;
use crate::intern::{fold_hash, span, DescId, DescriptorPool, Slots};
use crate::rel::Tuple;
use crate::schema::Schema;
use crate::urel::URelation;
use crate::value::{Value, ValueType, F64};

/// FxHash of a string's bytes — the probe key for the pool's hash index.
/// Computed once per distinct string and *stored* per code, so probes compare
/// hashes before touching string bytes and an import never re-hashes.
#[inline]
fn str_hash(s: &str) -> u64 {
    let mut h = crate::fxhash::FxHasher::default();
    h.write(s.as_bytes());
    fold_hash(h.finish())
}

/// A run-scoped string dictionary: every distinct string is stored once and
/// addressed by a dense `u32` code. Codes are only meaningful relative to
/// the pool that issued them; within one pool, code equality *is* string
/// equality, which is what makes string joins and dedup integer-cheap.
///
/// A flat arena like the [`DescriptorPool`]: all bytes in one `String`, a
/// table of running ends, each string's hash beside it, and a hash index
/// built when a string is first looked up — a pool that only receives one
/// relation's dictionary (the first scan of a run) never hashes.
#[derive(Clone, Debug, Default)]
pub struct StrPool {
    /// The distinct strings' bytes, concatenated in code order.
    bytes: String,
    /// `ends[c]` is where string `c` ends in `bytes`.
    ends: Vec<u32>,
    /// `hashes[c]` is [`str_hash`] of string `c`.
    hashes: Vec<u64>,
    slots: Slots,
}

impl StrPool {
    /// An empty pool.
    pub fn new() -> Self {
        StrPool::default()
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no string has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Intern a string, returning its stable code.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.intern_hashed(s, str_hash(s))
    }

    /// [`StrPool::intern`] for a string whose [`str_hash`] is already known.
    fn intern_hashed(&mut self, s: &str, h: u64) -> u32 {
        self.slots
            .reserve_one(self.hashes.len(), |c| self.hashes[c]);
        let is_s = |c: usize| self.hashes[c] == h && &self.bytes[span(&self.ends, c)] == s;
        self.slots.find(h, is_s).unwrap_or_else(|free| {
            let code = u32::try_from(self.ends.len()).expect("string arena fits in u32");
            self.bytes.push_str(s);
            self.ends
                .push(u32::try_from(self.bytes.len()).expect("string arena fits in u32"));
            self.hashes.push(h);
            self.slots.fill(free, code);
            code
        })
    }

    /// Make every string of `other` — a stored relation's dictionary —
    /// available here. Returns the table from `other`'s codes to this pool's,
    /// or `None` when they read the same here: always when this pool was
    /// empty (`other` is copied wholesale, nothing is hashed), and whenever
    /// the probes — by `other`'s stored hashes — hand its codes back.
    pub(crate) fn import(&mut self, other: &StrPool) -> Option<Vec<u32>> {
        if self.is_empty() {
            *self = other.clone();
            return None;
        }
        let map: Vec<u32> = (0..other.len())
            .map(|c| self.intern_hashed(&other.bytes[span(&other.ends, c)], other.hashes[c]))
            .collect();
        let same_codes = map.iter().enumerate().all(|(c, &m)| m as usize == c);
        (!same_codes).then_some(map)
    }

    /// Forget the hash index (the next intern call would rebuild it) — what
    /// [`crate::WorldSet::insert`] does to a stored relation's dictionaries.
    pub(crate) fn drop_index(&mut self) {
        self.slots = Slots::default();
    }

    /// The inverse of [`StrPool::import`]: a fresh dictionary of just the
    /// strings the `Str` columns among `cols` use, in the order a row by row
    /// conversion of those columns would first meet them, and the table from
    /// this pool's codes to its codes (`u32::MAX` for a string no cell
    /// uses). Distinct codes are distinct strings, so each string is copied
    /// with its stored hash and nothing is hashed or probed.
    pub(crate) fn localize(&self, cols: &[ColumnVec]) -> (StrPool, Vec<u32>) {
        let mut local = StrPool::new();
        let mut map = vec![u32::MAX; self.len()];
        let coded: Vec<(&[u32], &ColumnVec)> = cols
            .iter()
            .filter_map(|col| match &col.data {
                ColumnData::Str(codes) => Some((codes.as_slice(), col)),
                _ => None,
            })
            .collect();
        for i in 0..coded.first().map_or(0, |(codes, _)| codes.len()) {
            for (codes, col) in &coded {
                let code = codes[i] as usize;
                if !col.is_null(i) && map[code] == u32::MAX {
                    map[code] = u32::try_from(local.len()).expect("string arena fits in u32");
                    local.bytes.push_str(self.get(codes[i]));
                    local
                        .ends
                        .push(u32::try_from(local.bytes.len()).expect("string arena fits in u32"));
                    local.hashes.push(self.hashes[code]);
                }
            }
        }
        (local, map)
    }

    /// The string behind a code.
    pub fn get(&self, code: u32) -> &str {
        &self.bytes[span(&self.ends, code as usize)]
    }
}

/// Typed contiguous storage for one column's values.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// A `null`-typed column: every cell is `NULL`, only the length matters.
    Null(usize),
    /// Booleans.
    Bool(Vec<bool>),
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// 64-bit floats (compared and hashed via their bits / `total_cmp`, the
    /// same semantics as [`F64`]).
    Float(Vec<f64>),
    /// Dictionary codes into the run's [`StrPool`].
    Str(Vec<u32>),
}

/// One column: typed data plus an optional validity mask (`false` marks a
/// `NULL` cell; `None` means no cell is null). The sentinel stored in the
/// data slot under a null cell is never observed — every accessor checks
/// validity first.
#[derive(Clone, Debug)]
pub struct ColumnVec {
    data: ColumnData,
    validity: Option<Vec<bool>>,
}

impl ColumnVec {
    /// An empty column for a declared schema type.
    pub fn new(ty: ValueType) -> Self {
        let data = match ty {
            ValueType::Null => ColumnData::Null(0),
            ValueType::Bool => ColumnData::Bool(Vec::new()),
            ValueType::Int => ColumnData::Int(Vec::new()),
            ValueType::Float => ColumnData::Float(Vec::new()),
            ValueType::Str => ColumnData::Str(Vec::new()),
        };
        ColumnVec {
            data,
            validity: None,
        }
    }

    /// A float column built from raw values (no nulls) — used e.g. for the
    /// appended `conf` column.
    pub fn from_floats(values: Vec<f64>) -> Self {
        ColumnVec {
            data: ColumnData::Float(values),
            validity: None,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Null(n) => *n,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed data vector.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Whether the cell at `i` is `NULL`.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        matches!(self.data, ColumnData::Null(_)) || self.validity.as_ref().is_some_and(|v| !v[i])
    }

    /// Reserve capacity for `additional` more cells.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColumnData::Null(_) => {}
            ColumnData::Bool(v) => v.reserve(additional),
            ColumnData::Int(v) => v.reserve(additional),
            ColumnData::Float(v) => v.reserve(additional),
            ColumnData::Str(v) => v.reserve(additional),
        }
        if let Some(v) = &mut self.validity {
            v.reserve(additional);
        }
    }

    fn push_validity(&mut self, valid: bool) {
        let len_before = self.len() - 1; // data slot already pushed
        match (&mut self.validity, valid) {
            (Some(v), _) => v.push(valid),
            (None, true) => {}
            (None, false) => {
                let mut v = vec![true; len_before];
                v.push(false);
                self.validity = Some(v);
            }
        }
    }

    /// Append a value. The value must match the column's storage type or be
    /// `Null`; anything else is a caller bug (the row was schema-checked).
    pub fn push(&mut self, v: &Value, strings: &mut StrPool) {
        match (&mut self.data, v) {
            (ColumnData::Null(n), Value::Null) => {
                *n += 1;
                return; // pure-null columns carry no mask
            }
            (ColumnData::Bool(c), Value::Bool(b)) => c.push(*b),
            (ColumnData::Int(c), Value::Int(i)) => c.push(*i),
            (ColumnData::Float(c), Value::Float(f)) => c.push(f.get()),
            (ColumnData::Str(c), Value::Str(s)) => c.push(strings.intern(s)),
            (data, Value::Null) => {
                // A null in a typed column: push the sentinel, mark invalid.
                match data {
                    ColumnData::Bool(c) => c.push(false),
                    ColumnData::Int(c) => c.push(0),
                    ColumnData::Float(c) => c.push(0.0),
                    ColumnData::Str(c) => c.push(0),
                    ColumnData::Null(_) => unreachable!("handled above"),
                }
                self.push_validity(false);
                return;
            }
            (data, v) => {
                unreachable!("schema-checked value {v:?} does not match column storage {data:?}")
            }
        }
        self.push_validity(true);
    }

    /// The cell at `i` as an owned [`Value`] (allocates for strings).
    pub fn value(&self, i: usize, strings: &StrPool) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Null(_) => Value::Null,
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(F64(v[i])),
            ColumnData::Str(v) => Value::str(strings.get(v[i])),
        }
    }

    /// Numeric view of the cell (`None` for nulls and non-numeric types) —
    /// the columnar counterpart of [`Value::as_f64`].
    pub fn cell_f64(&self, i: usize) -> Option<f64> {
        if self.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[i] as f64),
            ColumnData::Float(v) => Some(v[i]),
            _ => None,
        }
    }

    /// The [`Value`] variant rank of the cell (`Null < Bool < Int < Float <
    /// Str`), which is what the derived total order on `Value` compares
    /// first.
    #[inline]
    fn rank(&self, i: usize) -> u8 {
        if self.is_null(i) {
            0
        } else {
            data_rank(&self.data)
        }
    }

    /// Whether cell `i` equals cell `j` of `other`, under [`Value`] equality
    /// (`NULL = NULL`; strings by code — both columns must encode into the
    /// same [`StrPool`], which one run's columns always do).
    #[inline]
    pub fn eq_cells(&self, i: usize, other: &ColumnVec, j: usize) -> bool {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        match (&self.data, &other.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
            (ColumnData::Float(a), ColumnData::Float(b)) => a[i].to_bits() == b[j].to_bits(),
            (ColumnData::Str(a), ColumnData::Str(b)) => a[i] == b[j],
            _ => false, // distinct non-null variants are never equal
        }
    }

    /// Compare cell `i` against cell `j` of `other` under the total [`Value`]
    /// order: variant rank first, then the typed comparison (`total_cmp` for
    /// floats, lexicographic via the pool for strings).
    pub fn cmp_cells(&self, i: usize, other: &ColumnVec, j: usize, strings: &StrPool) -> Ordering {
        let (ra, rb) = (self.rank(i), other.rank(j));
        if ra != rb {
            return ra.cmp(&rb);
        }
        if ra == 0 {
            return Ordering::Equal; // NULL = NULL
        }
        match (&self.data, &other.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i].cmp(&b[j]),
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i].cmp(&b[j]),
            (ColumnData::Float(a), ColumnData::Float(b)) => a[i].total_cmp(&b[j]),
            (ColumnData::Str(a), ColumnData::Str(b)) => {
                if a[i] == b[j] {
                    Ordering::Equal
                } else {
                    strings.get(a[i]).cmp(strings.get(b[j]))
                }
            }
            _ => unreachable!("equal ranks imply equal storage variants"),
        }
    }

    /// Compare cell `i` against a literal [`Value`], under the same total
    /// order as [`ColumnVec::cmp_cells`].
    pub fn cmp_cell_value(&self, i: usize, v: &Value, strings: &StrPool) -> Ordering {
        let (ra, rb) = (self.rank(i), value_rank(v));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (&self.data, v) {
            (_, Value::Null) => Ordering::Equal,
            (ColumnData::Bool(a), Value::Bool(b)) => a[i].cmp(b),
            (ColumnData::Int(a), Value::Int(b)) => a[i].cmp(b),
            (ColumnData::Float(a), Value::Float(b)) => a[i].total_cmp(&b.get()),
            (ColumnData::Str(a), Value::Str(b)) => strings.get(a[i]).cmp(b.as_str()),
            _ => unreachable!("equal ranks imply equal storage variants"),
        }
    }

    /// Order-preserving `u64` keys of every cell, and whether they are
    /// exact. A strictly smaller key always means a strictly smaller cell
    /// under the total [`Value`] order; when the keys are exact, equal keys
    /// also mean equal cells, so the keys alone order the column.
    ///
    /// `NULL` keys as 0, below every other cell. Exact: `Null` and `Bool`
    /// columns, non-null `Int` (sign-flipped bits) and `Float`
    /// (`total_cmp`-monotone bits), and `Str` (each string's rank among the
    /// column's distinct strings, ranked once per call). An `Int` or `Float`
    /// column with a `NULL` in it keys each value as 1 + its top 63 bits,
    /// which is coarse: cells that differ only in the lowest bit tie.
    pub fn sort_keys(&self, strings: &StrPool) -> (Vec<u64>, bool) {
        let int = |x: i64| (x as u64) ^ (1 << 63);
        // The standard total_cmp-compatible monotone map.
        let float = |f: f64| {
            let bits = f.to_bits();
            if bits >> 63 == 1 {
                !bits
            } else {
                bits | (1 << 63)
            }
        };
        match (&self.data, &self.validity) {
            (ColumnData::Null(n), _) => (vec![0; *n], true),
            (ColumnData::Bool(b), _) => {
                let key = |(i, &b): (usize, &bool)| if self.is_null(i) { 0 } else { 1 + b as u64 };
                (b.iter().enumerate().map(key).collect(), true)
            }
            (ColumnData::Int(x), None) => (x.iter().map(|&x| int(x)).collect(), true),
            (ColumnData::Float(f), None) => (f.iter().map(|&f| float(f)).collect(), true),
            (ColumnData::Int(x), Some(v)) => (coarse(x.iter().map(|&x| int(x)), v), false),
            (ColumnData::Float(f), Some(v)) => (coarse(f.iter().map(|&f| float(f)), v), false),
            (ColumnData::Str(codes), _) => {
                // Rank only the codes the column uses (the pool may hold a
                // whole run's dictionary); a cell's key is 1 + its string's
                // rank. Codes are interned, so distinct codes are distinct
                // strings.
                let mut used: Vec<u32> = (0..codes.len())
                    .filter(|&i| !self.is_null(i))
                    .map(|i| codes[i])
                    .collect();
                used.sort_unstable();
                used.dedup();
                let mut by_str: Vec<u32> = (0..used.len() as u32).collect();
                by_str.sort_unstable_by_key(|&k| strings.get(used[k as usize]));
                let mut rank = vec![0u64; used.len()];
                for (r, &k) in by_str.iter().enumerate() {
                    rank[k as usize] = 1 + r as u64;
                }
                let key = |(i, c): (usize, &u32)| {
                    if self.is_null(i) {
                        0
                    } else {
                        rank[used.binary_search(c).unwrap()]
                    }
                };
                (codes.iter().enumerate().map(key).collect(), true)
            }
        }
    }

    /// A copy of a `Str` column with every code sent through `map` (old code
    /// → new code) — how [`URelation::scan`] moves a string column from a
    /// stored relation's dictionary into a run's. The sentinel under a
    /// `NULL` cell is never looked up — a column of nothing but `NULL`s has no
    /// dictionary entry for it to index — and comes out as the 0 a row
    /// conversion stores there.
    pub(crate) fn with_str_codes(&self, map: &[u32]) -> ColumnVec {
        let ColumnData::Str(codes) = &self.data else {
            unreachable!(
                "only string columns carry dictionary codes: {:?}",
                self.data
            )
        };
        let mapped = match &self.validity {
            None => codes.iter().map(|&c| map[c as usize]).collect(),
            Some(valid) => codes
                .iter()
                .zip(valid)
                .map(|(&c, &v)| if v { map[c as usize] } else { 0 })
                .collect(),
        };
        ColumnVec {
            data: ColumnData::Str(mapped),
            validity: self.validity.clone(),
        }
    }

    /// A new column holding the cells at `idx`, in that order (the
    /// vectorized shuffle the executor's pipeline breakers are built on).
    pub fn gather(&self, idx: &[u32]) -> ColumnVec {
        let data = match &self.data {
            ColumnData::Null(_) => ColumnData::Null(idx.len()),
            ColumnData::Bool(v) => ColumnData::Bool(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str(v) => ColumnData::Str(idx.iter().map(|&i| v[i as usize]).collect()),
        };
        let validity = self
            .validity
            .as_ref()
            .map(|v| idx.iter().map(|&i| v[i as usize]).collect());
        ColumnVec { data, validity }
    }

    /// Append *all* cells of `src` to this column (the dense fast path of
    /// [`ColumnVec::extend_gather`]). Both columns must share the storage
    /// variant.
    pub fn extend_all(&mut self, src: &ColumnVec) {
        if self.validity.is_some() || src.validity.is_some() {
            let own_len = self.len();
            let mask = self.validity.get_or_insert_with(|| vec![true; own_len]);
            match &src.validity {
                Some(v) => mask.extend_from_slice(v),
                None => mask.extend(std::iter::repeat(true).take(src.len())),
            }
        }
        match (&mut self.data, &src.data) {
            (ColumnData::Null(n), ColumnData::Null(m)) => *n += m,
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.extend_from_slice(b),
            (a, b) => unreachable!("union-compatible columns must share storage: {a:?} vs {b:?}"),
        }
    }

    /// Append the cells of `src` at `idx` (in that order) to this column.
    /// Both columns must share the storage variant (union-compatible
    /// schemas guarantee it).
    pub fn extend_gather(&mut self, src: &ColumnVec, idx: &[u32]) {
        // Growing a masked column (or appending masked cells to an unmasked
        // one) needs both masks materialized first.
        if self.validity.is_some() || src.validity.is_some() {
            let own_len = self.len();
            let mask = self.validity.get_or_insert_with(|| vec![true; own_len]);
            match &src.validity {
                Some(v) => mask.extend(idx.iter().map(|&i| v[i as usize])),
                None => mask.extend(std::iter::repeat(true).take(idx.len())),
            }
        }
        match (&mut self.data, &src.data) {
            (ColumnData::Null(n), ColumnData::Null(_)) => *n += idx.len(),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => {
                a.extend(idx.iter().map(|&i| b[i as usize]))
            }
            (ColumnData::Int(a), ColumnData::Int(b)) => {
                a.extend(idx.iter().map(|&i| b[i as usize]))
            }
            (ColumnData::Float(a), ColumnData::Float(b)) => {
                a.extend(idx.iter().map(|&i| b[i as usize]))
            }
            (ColumnData::Str(a), ColumnData::Str(b)) => {
                a.extend(idx.iter().map(|&i| b[i as usize]))
            }
            (a, b) => unreachable!("union-compatible columns must share storage: {a:?} vs {b:?}"),
        }
    }
}

/// A read-only view of a column through an optional row map — the
/// composable unit of **late materialization**. `ids = None` views the
/// column as stored; `ids = Some(v)` views virtual row `i` as physical row
/// `v[i]`, which is what a deferred selection, dedup or join gather
/// denotes. Every accessor mirrors its [`ColumnVec`] counterpart so
/// operators (predicate sweeps, hash/dedup passes, join-key probes) can
/// read through the view without ever materializing the gather; the one
/// gather happens at a pipeline breaker, from the composed map, not from
/// the view.
///
/// Lifetime rule: a view borrows both the column and the id vector, so it
/// is strictly a *within-operator* read handle — batches store the `Arc`'d
/// id vectors and hand out fresh views per sweep.
#[derive(Clone, Copy, Debug)]
pub struct ColView<'a> {
    col: &'a ColumnVec,
    ids: Option<&'a [u32]>,
}

impl<'a> ColView<'a> {
    /// View a column directly (no indirection).
    pub fn dense(col: &'a ColumnVec) -> ColView<'a> {
        ColView { col, ids: None }
    }

    /// View a column through a rowid vector: virtual row `i` reads physical
    /// row `ids[i]`.
    pub fn with_ids(col: &'a ColumnVec, ids: Option<&'a [u32]>) -> ColView<'a> {
        ColView { col, ids }
    }

    /// The underlying physical row of virtual row `i`.
    #[inline]
    pub fn phys(&self, i: usize) -> usize {
        match self.ids {
            Some(v) => v[i] as usize,
            None => i,
        }
    }

    /// The underlying column.
    pub fn col(&self) -> &'a ColumnVec {
        self.col
    }

    /// Whether the cell at virtual row `i` is `NULL`.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.col.is_null(self.phys(i))
    }

    /// Numeric view of the cell at virtual row `i`.
    #[inline]
    pub fn cell_f64(&self, i: usize) -> Option<f64> {
        self.col.cell_f64(self.phys(i))
    }

    /// The cell at virtual row `i` as an owned [`Value`].
    pub fn value(&self, i: usize, strings: &StrPool) -> Value {
        self.col.value(self.phys(i), strings)
    }

    /// Whether the cell at virtual row `i` equals `other`'s cell at virtual
    /// row `j`, under [`Value`] equality.
    #[inline]
    pub fn eq_cells(&self, i: usize, other: &ColView<'_>, j: usize) -> bool {
        self.col.eq_cells(self.phys(i), other.col, other.phys(j))
    }

    /// Compare the cell at virtual row `i` against `other`'s cell at
    /// virtual row `j` under the total [`Value`] order.
    #[inline]
    pub fn cmp_cells(
        &self,
        i: usize,
        other: &ColView<'_>,
        j: usize,
        strings: &StrPool,
    ) -> Ordering {
        self.col
            .cmp_cells(self.phys(i), other.col, other.phys(j), strings)
    }

    /// Compare the cell at virtual row `i` against a literal [`Value`].
    #[inline]
    pub fn cmp_cell_value(&self, i: usize, v: &Value, strings: &StrPool) -> Ordering {
        self.col.cmp_cell_value(self.phys(i), v, strings)
    }

    /// Fold the cell of virtual row `i` into slot `i` of `hashes`, for
    /// every `i` below `hashes.len()` — one typed sweep per column: the
    /// storage variant, the validity mask and the row map are dispatched
    /// once, not per cell.
    ///
    /// A cell is one [`fx_step`] word, consistent with
    /// [`ColumnVec::eq_cells`]: the `i64`, string code or `bool` as a
    /// `u64`, a float's bits, `0` for `NULL` (strings by code, so valid
    /// within one pool). Slots that start at `0` and fold a row's key
    /// columns in order end as the hash an [`FxHasher`] fed the same words
    /// finishes with.
    ///
    /// [`FxHasher`]: crate::fxhash::FxHasher
    pub fn hash_into(&self, hashes: &mut [u64]) {
        debug_assert_eq!(self.ids.map_or(hashes.len(), <[u32]>::len), hashes.len());
        match &self.col.data {
            ColumnData::Null(_) => self.fold(hashes, |_| 0),
            ColumnData::Bool(v) => self.fold_valid(hashes, |p| v[p] as u64),
            ColumnData::Int(v) => self.fold_valid(hashes, |p| v[p] as u64),
            ColumnData::Float(v) => self.fold_valid(hashes, |p| v[p].to_bits()),
            ColumnData::Str(v) => self.fold_valid(hashes, |p| v[p] as u64),
        }
    }

    /// [`ColView::fold`] with the word `0` under every `NULL` cell.
    #[inline(always)]
    fn fold_valid(&self, hashes: &mut [u64], word: impl Fn(usize) -> u64) {
        match &self.col.validity {
            None => self.fold(hashes, word),
            Some(valid) => self.fold(hashes, |p| if valid[p] { word(p) } else { 0 }),
        }
    }

    /// Fold `word` of each virtual row's physical row into its slot.
    #[inline(always)]
    fn fold(&self, hashes: &mut [u64], word: impl Fn(usize) -> u64) {
        let step = |h: &mut u64, p: usize| *h = fx_step(*h, word(p));
        match self.ids {
            None => hashes.iter_mut().enumerate().for_each(|(p, h)| step(h, p)),
            Some(ids) => hashes
                .iter_mut()
                .zip(ids)
                .for_each(|(h, &p)| step(h, p as usize)),
        }
    }

    /// Keep the virtual rows of `rows` whose cell `c` satisfies
    /// `keep(c.cmp(v))` under the total [`Value`] order, in order — what
    /// [`ColView::cmp_cell_value`] decides per row, as one typed loop over
    /// the row list. `NULL` and a literal of another variant
    /// compare by rank, floats by `total_cmp`. A string column is left to
    /// the caller (returns `false`, `rows` untouched): ordering strings
    /// reads the pool's bytes, and looking a literal's code up would build
    /// the pool's hash index.
    pub fn retain_cmp(
        &self,
        rows: &mut Vec<u32>,
        v: &Value,
        keep: impl Fn(Ordering) -> bool,
    ) -> bool {
        let at_null = keep(0.cmp(&value_rank(v)));
        match (&self.col.data, v) {
            (ColumnData::Str(_), _) => return false,
            (ColumnData::Bool(a), Value::Bool(b)) => {
                self.retain(rows, at_null, |p| keep(a[p].cmp(b)))
            }
            (ColumnData::Int(a), Value::Int(b)) => {
                self.retain(rows, at_null, |p| keep(a[p].cmp(b)))
            }
            (ColumnData::Float(a), Value::Float(b)) => {
                let b = b.get();
                self.retain(rows, at_null, |p| keep(a[p].total_cmp(&b)))
            }
            // Every non-null cell has the column's rank and the literal
            // another: one outcome for all of them.
            (data, _) => {
                let k = keep(data_rank(data).cmp(&value_rank(v)));
                self.retain(rows, at_null, |_| k)
            }
        }
        true
    }

    /// [`ColView::retain_phys`] keeping a `NULL` cell when `at_null` says so.
    #[inline(always)]
    fn retain(&self, rows: &mut Vec<u32>, at_null: bool, keep_cell: impl Fn(usize) -> bool) {
        match &self.col.validity {
            None => self.retain_phys(rows, keep_cell),
            Some(valid) => {
                self.retain_phys(rows, |p| if valid[p] { keep_cell(p) } else { at_null })
            }
        }
    }

    /// Keep the rows whose physical row passes `keep`.
    #[inline(always)]
    fn retain_phys(&self, rows: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
        match self.ids {
            None => rows.retain(|&r| keep(r as usize)),
            Some(ids) => rows.retain(|&r| keep(ids[r as usize] as usize)),
        }
    }
}

/// The [`Value`] variant rank of a column's non-null cells.
#[inline]
fn data_rank(data: &ColumnData) -> u8 {
    match data {
        ColumnData::Null(_) => 0,
        ColumnData::Bool(_) => 1,
        ColumnData::Int(_) => 2,
        ColumnData::Float(_) => 3,
        ColumnData::Str(_) => 4,
    }
}

/// The [`Value`] variant rank of a literal (`Null < Bool < Int < Float <
/// Str`).
#[inline]
fn value_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
    }
}

/// The coarse keys of a nullable column: 0 under `NULL`, else 1 + the top 63
/// bits of the cell's exact key.
fn coarse(keys: impl Iterator<Item = u64>, valid: &[bool]) -> Vec<u64> {
    keys.zip(valid)
        .map(|(k, &v)| if v { 1 + (k >> 1) } else { 0 })
        .collect()
}

/// Compare rows `i` and `j` of a set of equally long columns under the
/// lexicographic [`Tuple`] order, the columns taken in the order given.
fn cmp_rows<C: Borrow<ColumnVec>>(cols: &[C], i: usize, j: usize, strings: &StrPool) -> Ordering {
    cols.iter()
        .map(|c| c.borrow().cmp_cells(i, c.borrow(), j, strings))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Whether rows `i` and `j` of a set of equally long columns agree on every
/// column.
fn rows_eq<C: Borrow<ColumnVec>>(cols: &[C], i: usize, j: usize) -> bool {
    cols.iter().all(|c| c.borrow().eq_cells(i, c.borrow(), j))
}

/// The canonical `(tuple, descriptor)` order of a relation's rows — the
/// order `normalize` writes and `possible`, `certain`, `conf` and
/// `repair-key` group by: tuples under the lexicographic [`Tuple`] order
/// of `cols`, taken in the order given, ties by descriptor term list
/// ([`DescriptorPool::cmp_terms`]), and exact `(tuple, descriptor)`
/// duplicates by row id. Returns the row ids in that order and the
/// `(start, end)` bounds in it of each distinct tuple's run.
///
/// `cols` are the value columns — in schema order for the canonical order
/// itself, or any arrangement of them (`repair-key` hands its key columns
/// first, so that each key's rows lie together) — and `descs` the
/// descriptor column as handles into `pool`. Each row is keyed by
/// [`ColumnVec::sort_keys`] of the leading columns, packed (less each
/// column's minimum) while their widths fit in 64 bits. Keys are
/// radix-sorted on their significant bytes — unless they already ascend —
/// and only rows with equal keys are compared: by their cells (when the key
/// does not cover the whole tuple exactly), then by descriptor.
pub fn canonical_order<C: Borrow<ColumnVec>>(
    cols: &[C],
    descs: &[DescId],
    pool: &DescriptorPool,
    strings: &StrPool,
) -> (Vec<u32>, Vec<(u32, u32)>) {
    let n = descs.len();
    // A relation without columns has one tuple, `()`: every key is 0.
    let mut entries: Vec<(u64, u32)> = match cols {
        [] => (0..n as u32).map(|i| (0, i)).collect(),
        _ => Vec::new(),
    };
    // Bits packed so far, and whether the key is the whole tuple, exactly.
    let (mut width, mut exact) = (0, true);
    for col in cols {
        let (keys, col_exact) = col.borrow().sort_keys(strings);
        let (min, max) = keys
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let w = 64 - max.saturating_sub(min).leading_zeros();
        if width + w > 64 {
            exact = false;
            break;
        }
        if width == 0 {
            // Nothing packed yet: the columns so far hold one value each.
            entries = keys.into_iter().map(|k| k - min).zip(0..).collect();
        } else {
            for (e, k) in entries.iter_mut().zip(keys) {
                e.0 = e.0 << w | (k - min);
            }
        }
        width += w;
        if !col_exact {
            exact = false;
            break;
        }
    }
    if entries.windows(2).any(|w| w[0].0 > w[1].0) {
        radix_sort(&mut entries, width);
    }
    // Order each run of equal keys.
    let cmp = |&(_, i): &(u64, u32), &(_, j): &(u64, u32)| {
        let cells = if exact {
            Ordering::Equal
        } else {
            cmp_rows(cols, i as usize, j as usize, strings)
        };
        cells
            .then_with(|| pool.cmp_terms(descs[i as usize], descs[j as usize]))
            .then(i.cmp(&j))
    };
    let mut start = 0;
    while start < n {
        let mut end = start + 1;
        while end < n && entries[end].0 == entries[start].0 {
            end += 1;
        }
        entries[start..end].sort_unstable_by(cmp);
        start = end;
    }
    let mut runs = Vec::new();
    let mut start = 0;
    for k in 1..=n {
        let (key, i) = entries[start];
        let same_tuple = k < n
            && entries[k].0 == key
            && (exact || rows_eq(cols, i as usize, entries[k].1 as usize));
        if !same_tuple {
            runs.push((start as u32, k as u32));
            start = k;
        }
    }
    (entries.into_iter().map(|(_, i)| i).collect(), runs)
}

/// Sort `(key, row)` entries by key, stably: one counting pass per byte of
/// the `width` significant bits, skipping a byte every key shares.
fn radix_sort(entries: &mut Vec<(u64, u32)>, width: u32) {
    let mut scratch = vec![(0, 0); entries.len()];
    for shift in (0..width).step_by(8) {
        let digit = |k: u64| (k >> shift) as u8 as usize;
        let mut counts = [0usize; 256];
        for &(k, _) in entries.iter() {
            counts[digit(k)] += 1;
        }
        if counts.contains(&entries.len()) {
            continue;
        }
        let mut at = 0;
        for c in &mut counts {
            (*c, at) = (at, at + *c);
        }
        for &e in entries.iter() {
            let d = digit(e.0);
            scratch[counts[d]] = e;
            counts[d] += 1;
        }
        std::mem::swap(entries, &mut scratch);
    }
}

/// A u-relation in columnar form: the schema, one [`ColumnVec`] per
/// attribute, and the dense descriptor column as [`DescId`] handles into a
/// [`DescriptorPool`]. String cells are codes into a [`StrPool`]. Both pools
/// are supplied by the owner (one pool pair per executor run, or per
/// normalization pass) — the relation itself stays plain data.
#[derive(Clone, Debug)]
pub struct ColumnarURelation {
    schema: Schema,
    cols: Vec<ColumnVec>,
    descs: Vec<DescId>,
}

impl ColumnarURelation {
    /// An empty columnar relation over a schema.
    pub fn new(schema: Schema) -> Self {
        let cols = schema
            .columns()
            .iter()
            .map(|c| ColumnVec::new(c.ty))
            .collect();
        ColumnarURelation {
            schema,
            cols,
            descs: Vec::new(),
        }
    }

    /// Assemble from parts. The columns must agree with the schema's arity
    /// and all share the descriptor column's length.
    pub fn from_parts(schema: Schema, cols: Vec<ColumnVec>, descs: Vec<DescId>) -> Self {
        debug_assert_eq!(schema.arity(), cols.len(), "arity mismatch");
        debug_assert!(
            cols.iter().all(|c| c.len() == descs.len()),
            "ragged columns"
        );
        ColumnarURelation {
            schema,
            cols,
            descs,
        }
    }

    /// Convert a u-relation's rows, interning descriptors and strings into
    /// the supplied pools. Row order is preserved exactly.
    pub fn from_urelation(u: &URelation, pool: &mut DescriptorPool, strings: &mut StrPool) -> Self {
        let mut out = ColumnarURelation::new(u.schema().clone());
        out.reserve(u.len());
        for (t, d) in u.rows() {
            out.push_row(t, d, pool, strings);
        }
        out
    }

    /// Append one row: a cell per column, then the interned descriptor — the
    /// step [`URelation::push`] takes too.
    pub(crate) fn push_row(
        &mut self,
        t: &Tuple,
        d: &WsDescriptor,
        pool: &mut DescriptorPool,
        strings: &mut StrPool,
    ) {
        for (c, v) in self.cols.iter_mut().zip(t.values()) {
            c.push(v, strings);
        }
        self.descs.push(pool.intern(d));
    }

    /// Reserve capacity for `additional` more rows.
    pub(crate) fn reserve(&mut self, additional: usize) {
        for c in &mut self.cols {
            c.reserve(additional);
        }
        self.descs.reserve(additional);
    }

    /// The same rows as a [`URelation`] over dictionaries of their own
    /// ([`URelation::recoded`] of a copy), so
    /// `to_urelation(from_urelation(u)) == u`.
    pub fn to_urelation(&self, pool: &DescriptorPool, strings: &StrPool) -> URelation {
        URelation::recoded(self.clone(), pool, strings)
    }

    /// Decompose into schema, value columns, and descriptor column (used by
    /// the executor to take ownership without cloning).
    pub fn into_parts(self) -> (Schema, Vec<ColumnVec>, Vec<DescId>) {
        (self.schema, self.cols, self.descs)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The value columns, in schema order.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.cols
    }

    /// One value column.
    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.cols[i]
    }

    /// The descriptor column.
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

    /// True when every row holds in all worlds. Handle-based: every interned
    /// tautology is [`DescId::TAUTOLOGY`] (conjunction can only shrink world
    /// sets, never produce a fresh tautology handle).
    pub fn is_certain(&self) -> bool {
        self.descs.iter().all(|d| d.is_tautology())
    }

    /// Materialize row `i` as an owned [`Tuple`].
    pub fn tuple_at(&self, i: usize, strings: &StrPool) -> Tuple {
        Tuple::new(self.cols.iter().map(|c| c.value(i, strings)).collect())
    }

    /// Compare two rows' value columns (not descriptors) under the
    /// lexicographic [`Tuple`] order.
    pub fn cmp_rows(&self, i: usize, j: usize, strings: &StrPool) -> Ordering {
        cmp_rows(&self.cols, i, j, strings)
    }

    /// A new relation holding the rows at `idx` in that order, with a
    /// replacement descriptor column (`descs.len()` must equal `idx.len()`).
    pub fn gather_with_descs(&self, idx: &[u32], descs: Vec<DescId>) -> Self {
        debug_assert_eq!(idx.len(), descs.len());
        ColumnarURelation {
            schema: self.schema.clone(),
            cols: self.cols.iter().map(|c| c.gather(idx)).collect(),
            descs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::ComponentId;
    use crate::value::ValueType;

    fn mixed_relation() -> URelation {
        let schema = Schema::of(&[
            ("i", ValueType::Int),
            ("f", ValueType::Float),
            ("s", ValueType::Str),
            ("b", ValueType::Bool),
        ])
        .unwrap();
        let mut u = URelation::new(schema);
        u.push(
            Tuple::new(vec![1.into(), Value::float(1.5), "x".into(), true.into()]),
            WsDescriptor::single(ComponentId(0), 1),
        )
        .unwrap();
        u.push(
            Tuple::new(vec![Value::Null, Value::Null, "x".into(), false.into()]),
            WsDescriptor::tautology(),
        )
        .unwrap();
        u.push(
            Tuple::new(vec![2.into(), Value::float(-0.0), Value::Null, Value::Null]),
            WsDescriptor::single(ComponentId(1), 0),
        )
        .unwrap();
        u
    }

    #[test]
    fn roundtrip_preserves_rows_exactly() {
        let u = mixed_relation();
        let mut pool = DescriptorPool::new();
        let mut strings = StrPool::new();
        let c = ColumnarURelation::from_urelation(&u, &mut pool, &mut strings);
        assert_eq!(c.len(), u.len());
        assert_eq!(c.to_urelation(&pool, &strings), u);
    }

    #[test]
    fn cell_comparisons_mirror_value_order() {
        let u = mixed_relation();
        let mut pool = DescriptorPool::new();
        let mut strings = StrPool::new();
        let c = ColumnarURelation::from_urelation(&u, &mut pool, &mut strings);
        for i in 0..u.len() {
            for j in 0..u.len() {
                let (ti, tj) = (&u.rows()[i].0, &u.rows()[j].0);
                assert_eq!(c.cmp_rows(i, j, &strings), ti.cmp(tj), "rows {i},{j}");
                assert_eq!(rows_eq(c.columns(), i, j), ti == tj);
                for (k, col) in c.columns().iter().enumerate() {
                    assert_eq!(
                        col.cmp_cell_value(i, tj.get(k), &strings),
                        ti.get(k).cmp(tj.get(k)),
                        "cell ({i},{k}) vs value ({j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_and_extend_respect_validity() {
        let u = mixed_relation();
        let mut pool = DescriptorPool::new();
        let mut strings = StrPool::new();
        let c = ColumnarURelation::from_urelation(&u, &mut pool, &mut strings);
        let g = c.gather_with_descs(&[2, 0], vec![c.descs()[2], c.descs()[0]]);
        assert_eq!(g.tuple_at(0, &strings), u.rows()[2].0);
        assert_eq!(g.tuple_at(1, &strings), u.rows()[0].0);

        let mut col = c.column(0).clone();
        col.extend_gather(c.column(0), &[1]);
        assert_eq!(col.len(), 4);
        assert!(col.is_null(3));
        assert_eq!(col.value(3, &strings), Value::Null);
    }

    #[test]
    fn str_codes_share_one_pool() {
        let mut strings = StrPool::new();
        assert_eq!(strings.intern("a"), strings.intern("a"));
        assert_ne!(strings.intern("a"), strings.intern("b"));
        let b = strings.intern("b");
        assert_eq!(strings.get(b), "b");
        assert_eq!(strings.len(), 2);
    }
}
