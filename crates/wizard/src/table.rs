//! Set-at-a-time real-example search: one interned binding table per
//! mapping `for` clause.
//!
//! `QIe` asks the designer's instance for one or two bindings of a
//! mapping's `for` clause that agree, differ and stay distinct where an
//! [`ExampleRequest`] says (Secs. III-A, IV-A). Instead of compiling every
//! request into a two-copy self-join, Muse evaluates the clause once —
//! B = `m.source_query()`, complete, in [`EvalReq::run`]'s row order — and
//! interns every `poss` column to `u32` ids from **one dictionary shared by
//! all columns**, so two ids are equal exactly when their values are, even
//! across columns (Muse-D's `distinct` pairs compare two columns). Every
//! request is then answered from the table (`BindingTable::find`):
//!
//! * two copies (a Muse-G probe): hash B's rows on the ids of the agreeing
//!   classes; the example is the least pair of row ranks `(i, j)`, ordered
//!   lexicographically, whose rows fall in one group and differ on every
//!   probed class;
//! * one copy (a Muse-D question): the least row whose `distinct` pairs
//!   differ.
//!
//! Existence is exact: a request has a real example exactly when the
//! two-copy query has an answer, and "none" is a proof, not a timeout.
//! [`BindingTables`] holds the most recent table, so every probe of a
//! clause after its first reuses it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use muse_mapping::{Mapping, PathRef};
use muse_nr::constraints::fdset::attrs;
use muse_nr::{Instance, Schema, Value};
use muse_obs::{Budget, Metrics, Outcome};
use muse_query::{EvalReq, Query, SelectivityHints};

use crate::error::WizardError;
use crate::example::{ClassSpace, ExampleRequest, Rows};

/// End of a row or group chain.
const NONE: u32 = u32::MAX;

/// A mapping's `for`-clause bindings B over one instance, interned.
#[derive(Debug, Clone)]
pub struct BindingTable {
    /// Number of rows, `|B|`.
    rows: usize,
    /// Number of columns: `|poss(m)|`.
    width: usize,
    /// Row-major ids: `ids[r * width + c]` is row `r`'s value of poss
    /// index `c`.
    ids: Vec<u32>,
    /// The dictionary, shared by every column: id → value.
    values: Vec<Value>,
    /// Per source variable, the poss indices of its atomic attributes in
    /// field order: how a row reads back as [`Rows`].
    var_cols: Vec<Vec<usize>>,
}

impl BindingTable {
    /// Evaluate `m`'s `for` clause over `inst` under `eval` and intern it.
    /// `None` when the evaluation was cut short: a partial B proves no
    /// "none", so it is never kept.
    pub fn build(
        m: &Mapping,
        space: &ClassSpace,
        source_schema: &Schema,
        inst: &Instance,
        eval: &EvalReq<'_>,
    ) -> Result<Option<BindingTable>, WizardError> {
        let Outcome::Complete(rows) = eval.run_refs(source_schema, inst, &m.source_query())? else {
            return Ok(None);
        };
        // Where each column lives in a binding: (variable, field index).
        let mut at = Vec::with_capacity(space.len());
        for r in &space.poss {
            let set = &m.source_vars[r.var].set;
            let field = source_schema
                .attr_index(set, &r.attr)
                .map_err(WizardError::Nr)?;
            at.push((r.var, field));
        }
        let mut var_cols = Vec::with_capacity(m.source_vars.len());
        for (vi, v) in m.source_vars.iter().enumerate() {
            let rcd = source_schema
                .element_record(&v.set)
                .map_err(WizardError::Nr)?;
            let fields = rcd.rcd_fields().ok_or_else(|| {
                WizardError::MalformedExample(format!("element of {} is not a record", v.set))
            })?;
            let mut cols = Vec::new();
            for f in fields.iter().filter(|f| f.ty.is_atomic()) {
                let c = space
                    .index_of(&PathRef::new(vi, f.label.clone()))
                    .ok_or_else(|| {
                        WizardError::MalformedExample(format!(
                            "{}.{} is not in poss({})",
                            v.name, f.label, m.name
                        ))
                    })?;
                cols.push(c);
            }
            var_cols.push(cols);
        }

        let width = space.len();
        let mut ids = Vec::with_capacity(rows.len() * width);
        let mut dict: HashMap<&Value, u32> = HashMap::new();
        let mut values = Vec::new();
        for row in &rows {
            for &(var, field) in &at {
                let Some(value) = row.get(var).and_then(|t| t.get(field)) else {
                    return Err(WizardError::MalformedExample(format!(
                        "a binding of {} is shorter than its schema",
                        m.name
                    )));
                };
                let next = u32::try_from(values.len()).map_err(|_| {
                    WizardError::MalformedExample(format!("{}: too many distinct values", m.name))
                })?;
                let id = *dict.entry(value).or_insert_with(|| {
                    values.push(value.clone());
                    next
                });
                ids.push(id);
            }
        }
        Ok(Some(BindingTable {
            rows: rows.len(),
            width,
            ids,
            values,
            var_cols,
        }))
    }

    /// Number of rows, `|B|`.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// True when B is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns, `|poss(m)|`.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The id of row `row`'s value of poss index `col`. Ids are equal
    /// exactly when the values are, across columns too.
    pub(crate) fn id(&self, row: usize, col: usize) -> u32 {
        self.ids[row * self.width + col]
    }

    /// The value behind an id.
    fn value(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }

    /// The least rows meeting `req`, one rank per copy: the least row for
    /// one copy, the least pair `(i, j)` for two. `None` when B has none.
    pub(crate) fn find(
        &self,
        space: &ClassSpace,
        req: &ExampleRequest,
    ) -> Result<Option<Vec<usize>>, WizardError> {
        let valid = |r: usize| {
            req.distinct
                .iter()
                .all(|&(a, b)| self.id(r, a) != self.id(r, b))
        };
        match req.copies {
            1 => Ok((0..self.len()).find(|&r| valid(r)).map(|r| vec![r])),
            2 => Ok(self.find_pair(space, req, valid).map(|(i, j)| vec![i, j])),
            n => Err(WizardError::MalformedExample(format!(
                "a real example has one or two copies, not {n}"
            ))),
        }
    }

    /// The least pair `(i, j)` of valid rows that agree on every agreeing
    /// class and differ on every probed class (a class is compared on its
    /// representative's column, as `satisfy` makes its members equal).
    fn find_pair(
        &self,
        space: &ClassSpace,
        req: &ExampleRequest,
        valid: impl Fn(usize) -> bool,
    ) -> Option<(usize, usize)> {
        let agree: Vec<usize> = (0..space.len())
            .filter(|&c| space.rep(c) == c && req.agree & attrs([c]) != 0)
            .collect();
        let mut differ: Vec<usize> = Vec::new();
        for &i in &req.differ {
            let rep = space.rep(i);
            if !differ.contains(&rep) {
                differ.push(rep);
            }
        }
        let n = self.len();
        if differ.is_empty() {
            // Nothing to tell apart: a row agrees with itself.
            return (0..n).find(|&r| valid(r)).map(|r| (r, r));
        }
        let agrees = |a: usize, b: usize| agree.iter().all(|&c| self.id(a, c) == self.id(b, c));
        let differs = |a: usize, b: usize| differ.iter().all(|&c| self.id(a, c) != self.id(b, c));

        // Group rows by their agree ids. The map goes from a hash of the
        // ids to the newest group with that hash; groups with equal hashes
        // but different ids chain through `Group::collides`, and the rows
        // of a group chain through `next_row` in rank order. Nothing here
        // allocates per row.
        struct Group {
            first: u32,
            last: u32,
            collides: u32,
        }
        let mut heads: HashMap<u64, u32, BuildHasherDefault<IdHasher>> = HashMap::default();
        let mut groups: Vec<Group> = Vec::new();
        let mut next_row = vec![NONE; n];
        for r in (0..n).filter(|&r| valid(r)) {
            let hash = agree.iter().fold(0u64, |h, &c| mix(h, self.id(r, c)));
            let head = heads.get(&hash).copied().unwrap_or(NONE);
            let mut g = head;
            while g != NONE && !agrees(groups[g as usize].first as usize, r) {
                g = groups[g as usize].collides;
            }
            let row = r as u32;
            if g == NONE {
                heads.insert(hash, groups.len() as u32);
                groups.push(Group {
                    first: row,
                    last: row,
                    collides: head,
                });
            } else {
                let group = &mut groups[g as usize];
                next_row[group.last as usize] = row;
                group.last = row;
            }
        }

        // In each group, the least row with a partner has only later
        // partners (an earlier one would itself be a lesser row with a
        // partner), so scanning forward from each row in rank order finds
        // the group's least pair first. With one probed class, a first row
        // without a partner means every row of the group shares its value.
        let single = differ.len() == 1;
        let mut best: Option<(usize, usize)> = None;
        for group in &groups {
            let mut a = group.first;
            'rows: while a != NONE {
                let mut b = next_row[a as usize];
                while b != NONE {
                    if differs(a as usize, b as usize) {
                        let pair = (a as usize, b as usize);
                        best = Some(best.map_or(pair, |p| p.min(pair)));
                        break 'rows;
                    }
                    b = next_row[b as usize];
                }
                if single {
                    break;
                }
                a = next_row[a as usize];
            }
        }
        best
    }

    /// Read rows back as example [`Rows`]: `rows[copy][var]` is the
    /// variable's atomic values in field order, from the dictionary.
    pub(crate) fn rows_of(&self, ranks: &[usize]) -> Rows {
        ranks
            .iter()
            .map(|&r| {
                self.var_cols
                    .iter()
                    .map(|cols| {
                        cols.iter()
                            .map(|&c| self.value(self.id(r, c)).clone())
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }
}

/// One step of the agree-id hash (the multiply-rotate of FxHash).
fn mix(h: u64, id: u32) -> u64 {
    (h.rotate_left(5) ^ u64::from(id)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// The group map's hasher: its keys are already [`mix`]ed, so it only folds
/// the high bits down into the bucket bits.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0, u32::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The table held for one `for` clause of one instance.
struct Held {
    /// The instance's address: a holder serves one instance at a time.
    instance: usize,
    query: Query,
    table: Arc<BindingTable>,
}

/// Holds the most recent [`BindingTable`]: the table is built at the first
/// live probe of a `for` clause and every later probe of that clause
/// reuses it. One slot is enough — the wizards design one mapping at a
/// time — and keeps one table alive instead of one per mapping.
///
/// Tables are runtime state, never persisted. A holder that outlives one
/// wizard call is consulted only under the replay gate (unlimited budget,
/// uncapped real-example search, no armed fault plan), as the
/// [`crate::step::StepMemo`] is: a warm table skips the `query.eval` fault
/// point its build passes. Share a holder only among sessions over
/// instances that outlive it.
#[derive(Default)]
pub struct BindingTables {
    slot: Mutex<Option<Held>>,
}

impl std::fmt::Debug for BindingTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slot = self.lock();
        f.debug_struct("BindingTables")
            .field("rows", &slot.as_ref().map(|h| h.table.len()))
            .finish()
    }
}

impl BindingTables {
    /// An empty holder: the first probe builds.
    pub fn new() -> Self {
        BindingTables::default()
    }

    /// True while no table is held.
    pub fn is_empty(&self) -> bool {
        self.lock().is_none()
    }

    fn lock(&self) -> MutexGuard<'_, Option<Held>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The table of `m`'s `for` clause over `inst`: the held one when it
    /// matches, else a fresh build that replaces it. `cap` bounds the
    /// build's wall-clock time; a build it (or an injected `query.eval`
    /// fault) cuts short is thrown away and returns `None`.
    ///
    /// Records `wizard.table_builds`, `wizard.table_rows` and
    /// `wizard.table_build_time`, plus the build's `query.*` metrics.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get(
        &self,
        m: &Mapping,
        space: &ClassSpace,
        source_schema: &Schema,
        inst: &Instance,
        hints: Option<&SelectivityHints>,
        metrics: &Metrics,
        cap: Option<Duration>,
    ) -> Result<Option<Arc<BindingTable>>, WizardError> {
        let instance = std::ptr::from_ref(inst) as usize;
        let query = m.source_query();
        if let Some(held) = self.lock().as_ref() {
            if held.instance == instance && held.query == query {
                return Ok(Some(Arc::clone(&held.table)));
            }
        }
        let _span = metrics.timer("wizard.table_build_time").start();
        let budget = match cap {
            Some(cap) => Budget::unlimited().with_deadline(Instant::now() + cap),
            None => Budget::unlimited(),
        };
        let eval = EvalReq {
            metrics,
            budget: &budget,
            hints,
        };
        let Some(table) = BindingTable::build(m, space, source_schema, inst, &eval)? else {
            return Ok(None);
        };
        metrics.incr("wizard.table_builds");
        metrics.add("wizard.table_rows", table.len() as u64);
        let table = Arc::new(table);
        *self.lock() = Some(Held {
            instance,
            query,
            table: Arc::clone(&table),
        });
        Ok(Some(table))
    }
}
