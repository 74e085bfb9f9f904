//! The conjunctive matcher: enumerating homomorphisms from a conjunction of
//! atoms to an instance.
//!
//! Everything in the paper reduces to this operation:
//!
//! * **chase steps** (Definition 16) need homomorphisms from `φ⁺(x̄, t)` where
//!   every atom shares the one temporal variable `t` — [`TemporalMode::Shared`];
//! * **Algorithm 1** needs homomorphisms from `φ∗ ∈ N(Φ⁺)` where every atom
//!   has its *own* temporal variable but the matched facts must have a
//!   non-empty common intersection — [`TemporalMode::FreeOverlapping`];
//! * the **empty intersection property** check (Definition 10) needs all
//!   `φ∗` homomorphisms with no temporal constraint at all —
//!   [`TemporalMode::Free`];
//! * **snapshot chase** and **naïve query evaluation** need plain relational
//!   homomorphisms (labeled nulls behave as constants — which they do here
//!   automatically, since [`Value`] equality is naïve-table equality).
//!
//! The search is a backtracking join: at each step it picks the pattern atom
//! with the most bound positions and enumerates candidate facts through the
//! most selective available hash index.

use crate::instance::Instance;
use crate::temporal_instance::TemporalInstance;
use crate::value::Value;
use std::fmt;
use tdx_logic::{Atom, RelId, Schema, Term, Var};
use tdx_temporal::Interval;

/// How the implicit temporal variables of a conjunction are interpreted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TemporalMode {
    /// Ignore intervals entirely (but still report them): each atom has its
    /// own temporal variable with no constraint. This is `φ∗ ∈ N(Φ⁺)`.
    Free,
    /// Each atom has its own temporal variable, but the matched facts must
    /// share at least one time point (`⋂ᵢ fᵢ[T] ≠ ∅`) — the candidate-set
    /// condition of Algorithm 1.
    FreeOverlapping,
    /// All atoms share one temporal variable `t` that must map to a single
    /// interval — the `φ⁺(x̄, t)` of chase steps (Definition 16).
    Shared,
}

/// A matcher error: the pattern does not fit the instance's schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchError(pub String);

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "match error: {}", self.0)
    }
}

impl std::error::Error for MatchError {}

#[derive(Clone, Copy)]
enum Slot {
    Const(Value),
    Var(usize),
}

struct PatAtom {
    rel: RelId,
    slots: Vec<Slot>,
}

struct Pattern {
    atoms: Vec<PatAtom>,
    vars: Vec<Var>,
}

impl Pattern {
    fn compile(atoms: &[Atom], schema: &Schema) -> Result<Pattern, MatchError> {
        if atoms.is_empty() {
            return Err(MatchError("empty conjunction".into()));
        }
        let mut vars: Vec<Var> = Vec::new();
        let mut pat_atoms = Vec::with_capacity(atoms.len());
        for atom in atoms {
            let rel = schema
                .rel_id(atom.relation)
                .ok_or_else(|| MatchError(format!("unknown relation {}", atom.relation)))?;
            let arity = schema.relation(rel).arity();
            if arity != atom.arity() {
                return Err(MatchError(format!(
                    "relation {} has arity {}, atom has {}",
                    atom.relation,
                    arity,
                    atom.arity()
                )));
            }
            let slots = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Slot::Const(Value::Const(*c)),
                    Term::Var(v) => {
                        let idx = match vars.iter().position(|x| x == v) {
                            Some(i) => i,
                            None => {
                                vars.push(*v);
                                vars.len() - 1
                            }
                        };
                        Slot::Var(idx)
                    }
                })
                .collect();
            pat_atoms.push(PatAtom { rel, slots });
        }
        Ok(Pattern {
            atoms: pat_atoms,
            vars,
        })
    }

    fn slot_of(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|x| *x == v)
    }
}

/// One homomorphism found by the matcher.
///
/// Borrowed view into the search state; extract what you need inside the
/// callback.
pub struct Match<'a> {
    pattern: &'a Pattern,
    bindings: &'a [Option<Value>],
    atom_rows: &'a [(RelId, u32)],
    atom_ivs: &'a [Option<Interval>],
    shared: Option<Interval>,
}

impl<'a> Match<'a> {
    /// The value a variable is mapped to (`None` if the variable does not
    /// occur in the pattern).
    pub fn value(&self, v: Var) -> Option<Value> {
        self.pattern.slot_of(v).and_then(|s| self.bindings[s])
    }

    /// All `(variable, value)` bindings, in first-occurrence order.
    pub fn bindings(&self) -> Vec<(Var, Value)> {
        self.pattern
            .vars
            .iter()
            .zip(self.bindings)
            .filter_map(|(v, b)| b.map(|val| (*v, val)))
            .collect()
    }

    /// The interval `h(t)` in [`TemporalMode::Shared`] searches.
    pub fn shared_interval(&self) -> Option<Interval> {
        self.shared
    }

    /// The interval of the fact matched by atom `i` (temporal stores only).
    pub fn atom_interval(&self, i: usize) -> Option<Interval> {
        self.atom_ivs[i]
    }

    /// The facts matched by each atom, as `(relation, row id)` pairs in atom
    /// order. The *image set* `{f₁, …, fₙ}` of the paper is the set of
    /// distinct pairs.
    pub fn atom_rows(&self) -> &[(RelId, u32)] {
        self.atom_rows
    }

    /// The common intersection of all matched facts' intervals, if the
    /// store is temporal and the intersection is non-empty.
    pub fn common_intersection(&self) -> Option<Interval> {
        let mut acc: Option<Interval> = None;
        for iv in self.atom_ivs {
            let iv = (*iv)?;
            acc = Some(match acc {
                None => iv,
                Some(a) => a.intersect(&iv)?,
            });
        }
        acc
    }
}

/// Abstraction over the two instance kinds so one search engine serves both.
pub(crate) trait Store {
    fn schema(&self) -> &Schema;
    fn count(&self, rel: RelId) -> usize;
    fn data(&self, rel: RelId, row: u32) -> &[Value];
    fn interval_of(&self, rel: RelId, row: u32) -> Option<Interval>;
    fn is_temporal(&self) -> bool;
    fn col_count(&self, rel: RelId, col: usize, v: &Value) -> usize;
    fn for_col(&self, rel: RelId, col: usize, v: &Value, f: &mut dyn FnMut(u32) -> bool) -> bool;
    /// Facts whose interval equals `iv` (shared-`t` probes).
    fn exact_count(&self, rel: RelId, iv: &Interval) -> usize;
    fn for_exact(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool;
    /// Facts whose interval overlaps `iv` (Algorithm 1 candidate probes).
    fn overlap_count(&self, rel: RelId, iv: &Interval) -> usize;
    fn for_overlap(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool;
}

impl Store for Instance {
    fn schema(&self) -> &Schema {
        Instance::schema(self)
    }
    fn count(&self, rel: RelId) -> usize {
        self.len(rel)
    }
    fn data(&self, rel: RelId, row: u32) -> &[Value] {
        &self.rows(rel)[row as usize]
    }
    fn interval_of(&self, _rel: RelId, _row: u32) -> Option<Interval> {
        None
    }
    fn is_temporal(&self) -> bool {
        false
    }
    fn col_count(&self, rel: RelId, col: usize, v: &Value) -> usize {
        Instance::col_count(self, rel, col, v)
    }
    fn for_col(&self, rel: RelId, col: usize, v: &Value, f: &mut dyn FnMut(u32) -> bool) -> bool {
        Instance::for_col(self, rel, col, v, f)
    }
    fn exact_count(&self, _rel: RelId, _iv: &Interval) -> usize {
        usize::MAX
    }
    fn for_exact(&self, _rel: RelId, _iv: &Interval, _f: &mut dyn FnMut(u32) -> bool) -> bool {
        true
    }
    fn overlap_count(&self, _rel: RelId, _iv: &Interval) -> usize {
        usize::MAX
    }
    fn for_overlap(&self, _rel: RelId, _iv: &Interval, _f: &mut dyn FnMut(u32) -> bool) -> bool {
        true
    }
}

impl Store for TemporalInstance {
    fn schema(&self) -> &Schema {
        TemporalInstance::schema(self)
    }
    fn count(&self, rel: RelId) -> usize {
        self.len(rel)
    }
    fn data(&self, rel: RelId, row: u32) -> &[Value] {
        &self.facts(rel)[row as usize].data
    }
    fn interval_of(&self, rel: RelId, row: u32) -> Option<Interval> {
        Some(self.facts(rel)[row as usize].interval)
    }
    fn is_temporal(&self) -> bool {
        true
    }
    fn col_count(&self, rel: RelId, col: usize, v: &Value) -> usize {
        self.store().col_count(rel, col, v)
    }
    fn for_col(&self, rel: RelId, col: usize, v: &Value, f: &mut dyn FnMut(u32) -> bool) -> bool {
        self.store().for_col(rel, col, v, f)
    }
    fn exact_count(&self, rel: RelId, iv: &Interval) -> usize {
        self.store().exact_count(rel, iv)
    }
    fn for_exact(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool {
        self.store().for_exact(rel, iv, f)
    }
    fn overlap_count(&self, rel: RelId, iv: &Interval) -> usize {
        self.store().overlap_count(rel, iv)
    }
    fn for_overlap(&self, rel: RelId, iv: &Interval, f: &mut dyn FnMut(u32) -> bool) -> bool {
        self.store().for_overlap(rel, iv, f)
    }
}

struct Search<'a, S: Store> {
    store: &'a S,
    pattern: &'a Pattern,
    mode: TemporalMode,
    use_indexes: bool,
    /// Per-atom admissible row-id range `[lo, hi)`. Delta-pivoted scopes
    /// use this to pin one atom to a generation's delta and the preceding
    /// atoms to the pre-delta prefix; snapshots use it to hide facts past a
    /// watermark.
    bounds: Vec<(u32, u32)>,
    bindings: Vec<Option<Value>>,
    matched: Vec<bool>,
    atom_rows: Vec<(RelId, u32)>,
    atom_ivs: Vec<Option<Interval>>,
    shared: Option<Interval>,
    running: Option<Interval>,
    depth_done: usize,
    found: bool,
    stopped: bool,
}

enum Candidates {
    FullScan,
    Col(usize, Value),
    ExactInterval(Interval),
    OverlapInterval(Interval),
}

impl<'a, S: Store> Search<'a, S> {
    /// Picks the next atom to match: most bound positions, then smallest
    /// relation. Returns the atom index.
    fn pick_atom(&self) -> usize {
        let mut best = usize::MAX;
        let mut best_key = (usize::MAX, usize::MAX);
        for (i, atom) in self.pattern.atoms.iter().enumerate() {
            if self.matched[i] {
                continue;
            }
            let bound = atom
                .slots
                .iter()
                .filter(|s| match s {
                    Slot::Const(_) => true,
                    Slot::Var(v) => self.bindings[*v].is_some(),
                })
                .count();
            // Lower key is better: fewer *unbound* positions first.
            let key = (atom.slots.len() - bound, self.effective_count(i));
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Rows of atom `ai` admitted by its id bounds.
    fn effective_count(&self, ai: usize) -> usize {
        let atom = &self.pattern.atoms[ai];
        let (lo, hi) = self.bounds[ai];
        let n = self.store.count(atom.rel) as u32;
        hi.min(n).saturating_sub(lo) as usize
    }

    /// Chooses the most selective candidate source for the atom.
    fn pick_candidates(&self, ai: usize) -> Candidates {
        let atom = &self.pattern.atoms[ai];
        if !self.use_indexes {
            return Candidates::FullScan;
        }
        let mut best = Candidates::FullScan;
        let mut best_count = self.effective_count(ai);
        for (col, slot) in atom.slots.iter().enumerate() {
            let v = match slot {
                Slot::Const(v) => Some(*v),
                Slot::Var(s) => self.bindings[*s],
            };
            if let Some(v) = v {
                let c = self.store.col_count(atom.rel, col, &v);
                if c < best_count {
                    best_count = c;
                    best = Candidates::Col(col, v);
                }
            }
        }
        if self.store.is_temporal() {
            match self.mode {
                // The shared variable `t` pins every atom to one interval:
                // probe the exact-interval index once `t` is bound.
                TemporalMode::Shared => {
                    if let Some(iv) = self.shared {
                        let c = self.store.exact_count(atom.rel, &iv);
                        if c < best_count {
                            best = Candidates::ExactInterval(iv);
                        }
                    }
                }
                // The candidate-set condition of Algorithm 1 needs a
                // non-empty running intersection: probe the
                // interval-endpoint index for overlapping facts.
                TemporalMode::FreeOverlapping => {
                    if let Some(iv) = self.running {
                        let c = self.store.overlap_count(atom.rel, &iv);
                        if c < best_count {
                            best = Candidates::OverlapInterval(iv);
                        }
                    }
                }
                TemporalMode::Free => {}
            }
        }
        best
    }

    /// Attempts to match `atom` against `row`; on success recurses. Restores
    /// all state before returning.
    fn try_row(&mut self, ai: usize, row: u32, on_match: &mut dyn FnMut(&Match<'_>) -> bool) {
        let atom = &self.pattern.atoms[ai];
        let data = self.store.data(atom.rel, row);
        let mut newly_bound: Vec<usize> = Vec::new();
        let mut ok = true;
        for (col, slot) in atom.slots.iter().enumerate() {
            match slot {
                Slot::Const(v) => {
                    if data[col] != *v {
                        ok = false;
                        break;
                    }
                }
                Slot::Var(s) => match self.bindings[*s] {
                    Some(b) => {
                        if data[col] != b {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        self.bindings[*s] = Some(data[col]);
                        newly_bound.push(*s);
                    }
                },
            }
        }
        let saved_shared = self.shared;
        let saved_running = self.running;
        let saved_iv = self.atom_ivs[ai];
        if ok {
            let row_iv = self.store.interval_of(atom.rel, row);
            self.atom_ivs[ai] = row_iv;
            match self.mode {
                TemporalMode::Free => {}
                TemporalMode::FreeOverlapping => {
                    if let Some(iv) = row_iv {
                        self.running = match self.running {
                            None => Some(iv),
                            Some(r) => match r.intersect(&iv) {
                                Some(x) => Some(x),
                                None => {
                                    ok = false;
                                    None
                                }
                            },
                        };
                    }
                }
                TemporalMode::Shared => {
                    if let Some(iv) = row_iv {
                        match self.shared {
                            None => self.shared = Some(iv),
                            Some(s) => {
                                if s != iv {
                                    ok = false;
                                }
                            }
                        }
                    }
                }
            }
        }
        if ok {
            self.matched[ai] = true;
            self.atom_rows[ai] = (atom.rel, row);
            self.depth_done += 1;
            self.recurse(on_match);
            self.depth_done -= 1;
            self.matched[ai] = false;
        }
        // Undo.
        self.atom_ivs[ai] = saved_iv;
        self.shared = saved_shared;
        self.running = saved_running;
        for s in newly_bound {
            self.bindings[s] = None;
        }
    }

    fn recurse(&mut self, on_match: &mut dyn FnMut(&Match<'_>) -> bool) {
        if self.stopped {
            return;
        }
        if self.depth_done == self.pattern.atoms.len() {
            self.found = true;
            let m = Match {
                pattern: self.pattern,
                bindings: &self.bindings,
                atom_rows: &self.atom_rows,
                atom_ivs: &self.atom_ivs,
                shared: self.shared,
            };
            if !on_match(&m) {
                self.stopped = true;
            }
            return;
        }
        let ai = self.pick_atom();
        let atom = &self.pattern.atoms[ai];
        let (lo, hi) = self.bounds[ai];
        match self.pick_candidates(ai) {
            Candidates::FullScan => {
                let n = (self.store.count(atom.rel) as u32).min(hi);
                for row in lo..n {
                    if self.stopped {
                        break;
                    }
                    self.try_row(ai, row, on_match);
                }
            }
            Candidates::Col(col, v) => {
                let rel = atom.rel;
                // Collect candidate ids first: `try_row` needs `&mut self`,
                // which cannot live inside the index-borrowing closure.
                let mut ids: Vec<u32> = Vec::new();
                self.store.for_col(rel, col, &v, &mut |id| {
                    if id >= lo && id < hi {
                        ids.push(id);
                    }
                    true
                });
                for row in ids {
                    if self.stopped {
                        break;
                    }
                    self.try_row(ai, row, on_match);
                }
            }
            Candidates::ExactInterval(iv) => {
                let rel = atom.rel;
                let mut ids: Vec<u32> = Vec::new();
                self.store.for_exact(rel, &iv, &mut |id| {
                    if id >= lo && id < hi {
                        ids.push(id);
                    }
                    true
                });
                for row in ids {
                    if self.stopped {
                        break;
                    }
                    self.try_row(ai, row, on_match);
                }
            }
            Candidates::OverlapInterval(iv) => {
                let rel = atom.rel;
                let mut ids: Vec<u32> = Vec::new();
                self.store.for_overlap(rel, &iv, &mut |id| {
                    if id >= lo && id < hi {
                        ids.push(id);
                    }
                    true
                });
                for row in ids {
                    if self.stopped {
                        break;
                    }
                    self.try_row(ai, row, on_match);
                }
            }
        }
    }
}

/// Options shared by the `find_matches` entry points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SearchOptions {
    /// Use hash indexes for candidate selection (`false` forces full scans;
    /// exposed for the index-ablation benchmark).
    pub use_indexes: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { use_indexes: true }
    }
}

/// Checks that `atoms` is a non-empty conjunction over `schema` with
/// matching arities — the errors every search reports before it
/// enumerates anything.
pub fn check_conjunction(atoms: &[Atom], schema: &Schema) -> Result<(), MatchError> {
    Pattern::compile(atoms, schema).map(|_| ())
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_search<S: Store>(
    store: &S,
    atoms: &[Atom],
    mode: TemporalMode,
    prebound: &[(Var, Value)],
    pre_interval: Option<Interval>,
    options: SearchOptions,
    bounds: Option<&[(u32, u32)]>,
    on_match: &mut dyn FnMut(&Match<'_>) -> bool,
) -> Result<bool, MatchError> {
    let pattern = Pattern::compile(atoms, store.schema())?;
    let mut bindings = vec![None; pattern.vars.len()];
    for (v, val) in prebound {
        if let Some(slot) = pattern.slot_of(*v) {
            bindings[slot] = Some(*val);
        }
    }
    let n = pattern.atoms.len();
    let bounds = match bounds {
        Some(b) => {
            debug_assert_eq!(b.len(), n, "one bound per pattern atom");
            b.to_vec()
        }
        None => vec![(0, u32::MAX); n],
    };
    let mut search = Search {
        store,
        pattern: &pattern,
        mode,
        use_indexes: options.use_indexes,
        bounds,
        bindings,
        matched: vec![false; n],
        atom_rows: vec![(RelId(0), 0); n],
        atom_ivs: vec![None; n],
        shared: pre_interval,
        running: None,
        depth_done: 0,
        found: false,
        stopped: false,
    };
    search.recurse(on_match);
    Ok(search.found)
}

impl Instance {
    /// Enumerates homomorphisms from the conjunction `atoms` to this
    /// snapshot. Labeled nulls are treated as constants (naïve semantics).
    /// `prebound` fixes some variables in advance. The callback returns
    /// `false` to stop; the result says whether any match was found.
    pub fn find_matches(
        &self,
        atoms: &[Atom],
        prebound: &[(Var, Value)],
        mut on_match: impl FnMut(&Match<'_>) -> bool,
    ) -> Result<bool, MatchError> {
        run_search(
            self,
            atoms,
            TemporalMode::Free,
            prebound,
            None,
            SearchOptions::default(),
            None,
            &mut on_match,
        )
    }

    /// [`Instance::find_matches`] with explicit [`SearchOptions`] (the
    /// snapshot/abstract chase threads its engine choice through here).
    pub fn find_matches_with(
        &self,
        atoms: &[Atom],
        prebound: &[(Var, Value)],
        options: SearchOptions,
        mut on_match: impl FnMut(&Match<'_>) -> bool,
    ) -> Result<bool, MatchError> {
        run_search(
            self,
            atoms,
            TemporalMode::Free,
            prebound,
            None,
            options,
            None,
            &mut on_match,
        )
    }

    /// Whether at least one homomorphism exists.
    pub fn exists_match(
        &self,
        atoms: &[Atom],
        prebound: &[(Var, Value)],
    ) -> Result<bool, MatchError> {
        self.find_matches(atoms, prebound, |_| false)
    }

    /// [`Instance::exists_match`] with explicit [`SearchOptions`].
    pub fn exists_match_with(
        &self,
        atoms: &[Atom],
        prebound: &[(Var, Value)],
        options: SearchOptions,
    ) -> Result<bool, MatchError> {
        self.find_matches_with(atoms, prebound, options, |_| false)
    }
}

impl TemporalInstance {
    /// Enumerates homomorphisms from the conjunction `atoms` to this
    /// concrete instance under the given [`TemporalMode`]. `pre_interval`
    /// fixes the shared interval in advance (only meaningful in
    /// [`TemporalMode::Shared`]).
    pub fn find_matches(
        &self,
        atoms: &[Atom],
        mode: TemporalMode,
        prebound: &[(Var, Value)],
        pre_interval: Option<Interval>,
        mut on_match: impl FnMut(&Match<'_>) -> bool,
    ) -> Result<bool, MatchError> {
        run_search(
            self,
            atoms,
            mode,
            prebound,
            pre_interval,
            SearchOptions::default(),
            None,
            &mut on_match,
        )
    }

    /// [`TemporalInstance::find_matches`] with explicit [`SearchOptions`]
    /// (for the index-ablation benchmark).
    pub fn find_matches_with(
        &self,
        atoms: &[Atom],
        mode: TemporalMode,
        prebound: &[(Var, Value)],
        pre_interval: Option<Interval>,
        options: SearchOptions,
        mut on_match: impl FnMut(&Match<'_>) -> bool,
    ) -> Result<bool, MatchError> {
        run_search(
            self,
            atoms,
            mode,
            prebound,
            pre_interval,
            options,
            None,
            &mut on_match,
        )
    }

    /// [`TemporalInstance::find_matches_with`] restricted to a fact-id
    /// window per atom: atom `i` only matches facts of its relation with
    /// id in `bounds[i].0 .. bounds[i].1`. Because fact ids are stable and
    /// monotone, a per-relation generation watermark turns into exactly
    /// such a window — this is the matcher-level entry point behind
    /// [`StoreSnapshot`](crate::snapshot::StoreSnapshot), letting readers
    /// evaluate against a sealed generation while later appends stay
    /// invisible.
    #[allow(clippy::too_many_arguments)]
    pub fn find_matches_bounded(
        &self,
        atoms: &[Atom],
        mode: TemporalMode,
        prebound: &[(Var, Value)],
        pre_interval: Option<Interval>,
        options: SearchOptions,
        bounds: &[(u32, u32)],
        mut on_match: impl FnMut(&Match<'_>) -> bool,
    ) -> Result<bool, MatchError> {
        if bounds.len() != atoms.len() {
            return Err(MatchError(format!(
                "find_matches_bounded: {} bounds for {} atoms",
                bounds.len(),
                atoms.len()
            )));
        }
        run_search(
            self,
            atoms,
            mode,
            prebound,
            pre_interval,
            options,
            Some(bounds),
            &mut on_match,
        )
    }

    /// Whether at least one homomorphism exists under `mode`.
    pub fn exists_match(
        &self,
        atoms: &[Atom],
        mode: TemporalMode,
        prebound: &[(Var, Value)],
        pre_interval: Option<Interval>,
    ) -> Result<bool, MatchError> {
        self.find_matches(atoms, mode, prebound, pre_interval, |_| false)
    }

    /// [`TemporalInstance::exists_match`] with explicit [`SearchOptions`].
    pub fn exists_match_with(
        &self,
        atoms: &[Atom],
        mode: TemporalMode,
        prebound: &[(Var, Value)],
        pre_interval: Option<Interval>,
        options: SearchOptions,
    ) -> Result<bool, MatchError> {
        self.find_matches_with(atoms, mode, prebound, pre_interval, options, |_| false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::sync::Arc;
    use tdx_logic::{parse_tgd, RelationSchema, Schema};
    use tdx_temporal::Interval;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                RelationSchema::new("E", &["name", "company"]),
                RelationSchema::new("S", &["name", "salary"]),
            ])
            .unwrap(),
        )
    }

    /// Figure 4 of the paper.
    fn figure4() -> TemporalInstance {
        let mut i = TemporalInstance::new(schema());
        i.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014));
        i.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        i.insert_strs("E", &["Bob", "IBM"], iv(2013, 2018));
        i.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
        i.insert_strs("S", &["Bob", "13k"], Interval::from(2015));
        i
    }

    /// Figure 5: the normalized form of Figure 4 w.r.t. lhs of σ₂⁺.
    fn figure5() -> TemporalInstance {
        let mut i = TemporalInstance::new(schema());
        i.insert_strs("E", &["Ada", "IBM"], iv(2012, 2013));
        i.insert_strs("E", &["Ada", "IBM"], iv(2013, 2014));
        i.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        i.insert_strs("E", &["Bob", "IBM"], iv(2013, 2015));
        i.insert_strs("E", &["Bob", "IBM"], iv(2015, 2018));
        i.insert_strs("S", &["Ada", "18k"], iv(2013, 2014));
        i.insert_strs("S", &["Ada", "18k"], Interval::from(2014));
        i.insert_strs("S", &["Bob", "13k"], iv(2015, 2018));
        i.insert_strs("S", &["Bob", "13k"], Interval::from(2018));
        i
    }

    fn body(src: &str) -> Vec<Atom> {
        parse_tgd(&format!("{src} -> Z()"))
            .map(|t| t.body)
            .unwrap_or_else(|_| panic!("bad test pattern {src}"))
    }

    #[test]
    fn shared_mode_fails_on_unnormalized_instance() {
        // Section 4.2: no homomorphism from E+(n,c,t) ∧ S+(n,s,t) to Figure 4
        // can map t to a single interval.
        let i = figure4();
        let atoms = body("E(n,c) & S(n,s)");
        let found = i
            .exists_match(&atoms, TemporalMode::Shared, &[], None)
            .unwrap();
        assert!(!found);
    }

    #[test]
    fn shared_mode_succeeds_on_normalized_instance() {
        // Example 8: on the normalized I'_c there is h with
        // h = {n→Ada, c→Google, s→18k, t→[2014,∞)}.
        let i = figure5();
        let atoms = body("E(n,c) & S(n,s)");
        let mut homs: Vec<(String, String, String, Interval)> = Vec::new();
        i.find_matches(&atoms, TemporalMode::Shared, &[], None, |m| {
            homs.push((
                m.value(Var::new("n")).unwrap().to_string(),
                m.value(Var::new("c")).unwrap().to_string(),
                m.value(Var::new("s")).unwrap().to_string(),
                m.shared_interval().unwrap(),
            ));
            true
        })
        .unwrap();
        homs.sort();
        assert_eq!(
            homs,
            vec![
                (
                    "Ada".into(),
                    "Google".into(),
                    "18k".into(),
                    Interval::from(2014)
                ),
                ("Ada".into(), "IBM".into(), "18k".into(), iv(2013, 2014)),
                ("Bob".into(), "IBM".into(), "13k".into(), iv(2015, 2018)),
            ]
        );
    }

    #[test]
    fn free_overlapping_finds_algorithm1_candidates() {
        // On Figure 4, the overlapping (E,S) pairs joining on the name:
        // (Ada IBM, Ada 18k), (Ada Google, Ada 18k), (Bob IBM, Bob 13k).
        let i = figure4();
        let atoms = body("E(n,c) & S(n,s)");
        let mut count = 0;
        i.find_matches(&atoms, TemporalMode::FreeOverlapping, &[], None, |m| {
            assert!(m.common_intersection().is_some());
            assert_eq!(m.atom_rows().len(), 2);
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 3);
    }

    #[test]
    fn free_mode_ignores_time() {
        let i = figure4();
        let atoms = body("E(n,c) & S(n,s)");
        let mut count = 0;
        i.find_matches(&atoms, TemporalMode::Free, &[], None, |_| {
            count += 1;
            true
        })
        .unwrap();
        // All (E,S) joins on name: Ada-IBM/Ada-18k, Ada-Google/Ada-18k,
        // Bob-IBM/Bob-13k.
        assert_eq!(count, 3);
    }

    #[test]
    fn prebound_variables_restrict_matches() {
        let i = figure4();
        let atoms = body("E(n,c)");
        let mut seen = Vec::new();
        i.find_matches(
            &atoms,
            TemporalMode::Free,
            &[(Var::new("n"), Value::str("Ada"))],
            None,
            |m| {
                seen.push(m.value(Var::new("c")).unwrap().to_string());
                true
            },
        )
        .unwrap();
        seen.sort();
        assert_eq!(seen, vec!["Google", "IBM"]);
    }

    #[test]
    fn pre_interval_restricts_shared_matches() {
        let i = figure5();
        let atoms = body("E(n,c) & S(n,s)");
        let mut count = 0;
        i.find_matches(
            &atoms,
            TemporalMode::Shared,
            &[],
            Some(iv(2013, 2014)),
            |_| {
                count += 1;
                true
            },
        )
        .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn constants_in_atoms() {
        let i = figure4();
        let atoms = body("E(n, IBM)");
        let mut names = Vec::new();
        i.find_matches(&atoms, TemporalMode::Free, &[], None, |m| {
            names.push(m.value(Var::new("n")).unwrap().to_string());
            true
        })
        .unwrap();
        names.sort();
        assert_eq!(names, vec!["Ada", "Bob"]);
    }

    #[test]
    fn repeated_variables_in_one_atom() {
        let schema = Arc::new(Schema::new(vec![RelationSchema::new("R", &["a", "b"])]).unwrap());
        let mut i = TemporalInstance::new(schema);
        i.insert_strs("R", &["x", "x"], iv(0, 1));
        i.insert_strs("R", &["x", "y"], iv(0, 1));
        let atoms = body("R(v, v)");
        let mut count = 0;
        i.find_matches(&atoms, TemporalMode::Free, &[], None, |_| {
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn early_stop() {
        let i = figure4();
        let atoms = body("E(n,c)");
        let mut count = 0;
        let found = i
            .find_matches(&atoms, TemporalMode::Free, &[], None, |_| {
                count += 1;
                false
            })
            .unwrap();
        assert!(found);
        assert_eq!(count, 1);
    }

    #[test]
    fn snapshot_instance_matching() {
        let i = figure4().project_at(2013);
        let atoms = body("E(n,c) & S(n,s)");
        let mut homs = Vec::new();
        i.find_matches(&atoms, &[], |m| {
            homs.push((
                m.value(Var::new("n")).unwrap().to_string(),
                m.value(Var::new("c")).unwrap().to_string(),
            ));
            true
        })
        .unwrap();
        homs.sort();
        assert_eq!(homs, vec![("Ada".into(), "IBM".into())]);
        assert!(i.exists_match(&atoms, &[]).unwrap());
    }

    #[test]
    fn errors_on_bad_pattern() {
        let i = figure4();
        assert!(i
            .exists_match(&body("Nope(x)"), TemporalMode::Free, &[], None)
            .is_err());
        assert!(i
            .exists_match(&body("E(x)"), TemporalMode::Free, &[], None)
            .is_err());
        let empty: Vec<Atom> = vec![];
        assert!(i
            .exists_match(&empty, TemporalMode::Free, &[], None)
            .is_err());
    }

    #[test]
    fn no_index_mode_agrees_with_indexed() {
        let i = figure5();
        let atoms = body("E(n,c) & S(n,s)");
        let mut with_idx = Vec::new();
        i.find_matches(&atoms, TemporalMode::Shared, &[], None, |m| {
            with_idx.push(format!("{:?}", m.bindings()));
            true
        })
        .unwrap();
        let mut without_idx = Vec::new();
        i.find_matches_with(
            &atoms,
            TemporalMode::Shared,
            &[],
            None,
            SearchOptions { use_indexes: false },
            |m| {
                without_idx.push(format!("{:?}", m.bindings()));
                true
            },
        )
        .unwrap();
        with_idx.sort();
        without_idx.sort();
        assert_eq!(with_idx, without_idx);
    }

    #[test]
    fn nulls_match_as_constants() {
        let schema = Arc::new(
            Schema::new(vec![RelationSchema::new(
                "Emp",
                &["name", "company", "salary"],
            )])
            .unwrap(),
        );
        let mut i = TemporalInstance::new(schema);
        use crate::value::NullId;
        i.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::Null(NullId(0))],
            iv(0, 5),
        );
        i.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::str("18k")],
            iv(0, 5),
        );
        // The egd body matches with s ↦ N0, s2 ↦ 18k (and symmetrically).
        let atoms = body("Emp(n,c,s) & Emp(n,c,s2)");
        let mut pairs = Vec::new();
        i.find_matches(&atoms, TemporalMode::Shared, &[], None, |m| {
            let s = m.value(Var::new("s")).unwrap();
            let s2 = m.value(Var::new("s2")).unwrap();
            if s != s2 {
                pairs.push((s.to_string(), s2.to_string()));
            }
            true
        })
        .unwrap();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                ("18k".to_string(), "N0".to_string()),
                ("N0".to_string(), "18k".to_string())
            ]
        );
    }
}
