//! Indexes kept beside a session's settled fact lists.
//!
//! Between batches, [`IncrementalExchange`] holds two settled blocks — the
//! normalized source and the materialized target — as per-relation fact
//! lists. A small batch touches a handful of their facts, but finding
//! *which* ones by scanning costs the whole block. A [`SettledIndex`]
//! answers those questions by lookup:
//!
//! * **exact** `(relation, row, interval)` — "is this fact already
//!   settled?" (verbatim dedup, the tgd insert check, fragment and
//!   rewrite dedup);
//! * **interval** `(relation, interval)` — the candidates of a
//!   dirty-interval shared join;
//! * **null base** — the facts an egd rewrite can change, and the
//!   shared-null components a fragment belongs to;
//! * **join key** of every sweepable 2-atom body, per atom side — the
//!   settled partners of a fresh fact in Algorithm 1's overlap sweep;
//! * **link key** of every atom pair of a dependency that shares a
//!   variable — the facts a narrowing refine's linked component reaches
//!   (`chase/component.rs`).
//!
//! Each key is stored as a 32-bit fold of its hash and each fact as a
//! `u32` *slot*; a hit is verified against the fact itself, so a
//! collision costs a compare, never a wrong answer, and no `Arc` is
//! cloned into a key. Every distinct key is one map: an FD body's two
//! sides are one key, and a link key equal to a join key shares it. Slots are
//! stable while the lists are edited in place: a deleted fact frees its
//! slot and the survivors keep their order, so only the slot → position
//! table is rewritten, never a hash map.
//!
//! The index is built lazily — the first time a kernel asks a question of
//! a non-empty block without one — and from then on maintained by every
//! edit made through [`Settled`]. A one-batch chase (whose settled blocks
//! start empty), a restored or cloned session ([`LazyIndex`] clones
//! empty), and a full re-chase (which resets the session) never pay for
//! it until they absorb a batch against settled facts. A journaled
//! [`Settled`] also records its edits, so a failed component re-chase can
//! put the lists back exactly ([`Settled::undo`]).
//!
//! [`IncrementalExchange`]: crate::chase::incremental::IncrementalExchange

use crate::chase::partitioned::{split_bodies, AtomKey, FactLists};
use std::hash::{Hash, Hasher};
use tdx_logic::{Atom, RelId, Schema};
use tdx_storage::fxhash::{FxHashMap, FxHasher};
use tdx_storage::{NullId, TemporalFact, Value};
use tdx_temporal::Interval;

/// One key map: key hash, folded to 32 bits → the slots under it. Almost
/// every key holds one slot, stored inline; a key holding more points (tag
/// bit set) into `spill`. An entry costs 8 bytes plus the table's
/// overhead.
#[derive(Default)]
struct KeyMap {
    map: FxHashMap<u32, u32>,
    spill: Vec<Vec<u32>>,
    /// Emptied `spill` lists, for reuse.
    free: Vec<u32>,
}

/// Marks a [`KeyMap`] value as a `spill` index.
const SPILLED: u32 = 1 << 31;

/// The stored form of a key hash. Hits are verified against the fact, so
/// the narrower key only adds (rare) collisions.
fn fold(key: u64) -> u32 {
    (key >> 32) as u32 ^ key as u32
}

impl KeyMap {
    fn with_capacity(n: usize) -> KeyMap {
        KeyMap {
            map: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            ..KeyMap::default()
        }
    }

    fn insert(&mut self, key: u64, slot: u32) {
        use std::collections::hash_map::Entry;
        debug_assert!(slot < SPILLED, "slot space exhausted");
        match self.map.entry(fold(key)) {
            Entry::Vacant(e) => {
                e.insert(slot);
            }
            Entry::Occupied(mut e) if *e.get() & SPILLED != 0 => {
                self.spill[(*e.get_mut() & !SPILLED) as usize].push(slot);
            }
            Entry::Occupied(mut e) => {
                let both = vec![*e.get(), slot];
                let at = match self.free.pop() {
                    Some(at) => {
                        self.spill[at as usize] = both;
                        at
                    }
                    None => {
                        self.spill.push(both);
                        (self.spill.len() - 1) as u32
                    }
                };
                *e.get_mut() = at | SPILLED;
            }
        }
    }

    fn remove(&mut self, key: u64, slot: u32) {
        let key = fold(key);
        let Some(v) = self.map.get_mut(&key) else {
            return;
        };
        if *v & SPILLED == 0 {
            if *v == slot {
                self.map.remove(&key);
            }
            return;
        }
        let at = *v & !SPILLED;
        let list = &mut self.spill[at as usize];
        list.retain(|&s| s != slot);
        if let [only] = list[..] {
            *v = only;
            list.clear();
            self.free.push(at);
        }
    }

    fn get(&self, key: u64) -> &[u32] {
        match self.map.get(&fold(key)) {
            None => &[],
            Some(v) if *v & SPILLED != 0 => &self.spill[(*v & !SPILLED) as usize],
            Some(v) => std::slice::from_ref(v),
        }
    }
}

/// The exact key of a fact.
fn exact_key(rel: RelId, data: &[Value], iv: Interval) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(rel.0);
    data.hash(&mut h);
    iv.hash(&mut h);
    h.finish()
}

fn interval_key(rel: RelId, iv: Interval) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(rel.0);
    iv.hash(&mut h);
    h.finish()
}

fn base_key(b: NullId) -> u64 {
    let mut h = FxHasher::default();
    b.hash(&mut h);
    h.finish()
}

/// The distinct null bases of a row, in column order.
pub(crate) fn null_bases(data: &[Value]) -> impl Iterator<Item = NullId> + '_ {
    data.iter().enumerate().filter_map(move |(i, v)| match v {
        Value::Null(b) if !data[..i].contains(v) => Some(*b),
        _ => None,
    })
}

/// Position sentinel of a freed slot.
const DEAD: u32 = u32::MAX;

/// The lookups over one settled block (see the module docs).
pub(crate) struct SettledIndex {
    /// The bodies whose join keys the index holds, as compiled.
    bodies: Vec<Vec<Atom>>,
    /// The distinct keys the index maps: every sweep spec's atom sides
    /// (a symmetric self-join's two sides are one key), then the block's
    /// link keys, each once.
    keys: Vec<AtomKey>,
    /// Per sweep spec, per atom side: its entry in `keys`.
    spec_keys: Vec<[usize; 2]>,
    /// Per link key: its entry in `keys`.
    link_keys: Vec<usize>,
    /// Slot → `(relation, position)`; position [`DEAD`] once deleted.
    slots: Vec<(u32, u32)>,
    /// Per relation: position → slot.
    slot_at: Vec<Vec<u32>>,
    dead: usize,
    maps: KeyMaps,
}

#[derive(Default)]
struct KeyMaps {
    exact: KeyMap,
    by_interval: KeyMap,
    by_base: KeyMap,
    /// Per entry of `SettledIndex::keys`: key hash → slots.
    keys: Vec<KeyMap>,
}

impl KeyMaps {
    /// Calls `f` with every `(map, key)` the fact at `rel` belongs in.
    fn each_key(
        &mut self,
        keys: &[AtomKey],
        rel: RelId,
        fact: &TemporalFact,
        mut f: impl FnMut(&mut KeyMap, u64),
    ) {
        f(&mut self.exact, exact_key(rel, &fact.data, fact.interval));
        f(&mut self.by_interval, interval_key(rel, fact.interval));
        for b in null_bases(&fact.data) {
            f(&mut self.by_base, base_key(b));
        }
        for (key, map) in keys.iter().zip(&mut self.keys) {
            if key.rel == rel && key.passes(&fact.data) {
                f(map, key.key_hash(&fact.data));
            }
        }
    }
}

/// The position of `key` in `keys`, appended if new.
pub(crate) fn key_slot(keys: &mut Vec<AtomKey>, key: &AtomKey) -> usize {
    keys.iter().position(|k| k == key).unwrap_or_else(|| {
        keys.push(key.clone());
        keys.len() - 1
    })
}

impl SettledIndex {
    fn build(
        schema: &Schema,
        bodies: &[&[Atom]],
        links: &[AtomKey],
        lists: &FactLists,
    ) -> SettledIndex {
        let (specs, _) = split_bodies(schema, bodies);
        let mut keys = Vec::new();
        let spec_keys = specs
            .iter()
            .map(|spec| spec.sides.each_ref().map(|side| key_slot(&mut keys, side)))
            .collect();
        let link_keys = links.iter().map(|k| key_slot(&mut keys, k)).collect();
        let n: usize = lists.iter().map(Vec::len).sum();
        let mut idx = SettledIndex {
            bodies: bodies.iter().map(|b| b.to_vec()).collect(),
            maps: KeyMaps {
                exact: KeyMap::with_capacity(n),
                by_interval: KeyMap::with_capacity(n),
                by_base: Default::default(),
                // A key only maps facts of its own relation.
                keys: keys
                    .iter()
                    .map(|k| KeyMap::with_capacity(lists[k.rel.0 as usize].len()))
                    .collect(),
            },
            keys,
            spec_keys,
            link_keys,
            slots: Vec::with_capacity(n),
            slot_at: lists.iter().map(|l| Vec::with_capacity(l.len())).collect(),
            dead: 0,
        };
        for (r, facts) in lists.iter().enumerate() {
            for fact in facts {
                idx.push(RelId(r as u32), fact);
            }
        }
        idx
    }

    /// Whether the join-key maps were compiled from exactly `conjs`.
    pub(crate) fn indexes_bodies(&self, conjs: &[&[Atom]]) -> bool {
        self.bodies.len() == conjs.len()
            && self
                .bodies
                .iter()
                .zip(conjs)
                .all(|(a, b)| a.as_slice() == *b)
    }

    /// A fresh slot for `fact` in relation `rel`, indexed under every key;
    /// the caller places it in `slot_at` and sets its position.
    fn new_slot(&mut self, rel: RelId, fact: &TemporalFact) -> u32 {
        let slot = self.slots.len() as u32;
        self.slots.push((rel.0, DEAD));
        self.maps
            .each_key(&self.keys, rel, fact, |map, key| map.insert(key, slot));
        slot
    }

    /// Indexes `fact`, just appended to relation `rel`'s list.
    fn push(&mut self, rel: RelId, fact: &TemporalFact) {
        let slot = self.new_slot(rel, fact);
        let at = &mut self.slot_at[rel.0 as usize];
        self.slots[slot as usize].1 = at.len() as u32;
        at.push(slot);
    }

    /// Indexes `facts`, just inserted into relation `rel`'s list at
    /// `positions` (ascending, in the resulting list).
    fn insert(&mut self, rel: RelId, positions: &[u32], facts: &[TemporalFact]) {
        let slots: Vec<u32> = facts.iter().map(|f| self.new_slot(rel, f)).collect();
        insert_positions(&mut self.slot_at[rel.0 as usize], positions, slots);
        self.renumber(rel, positions.first().copied());
    }

    /// Unindexes the fact at `pos` (still in the list); its slot is freed
    /// and the position table is fixed by [`compact`](Self::compact).
    fn remove(&mut self, rel: RelId, pos: u32, fact: &TemporalFact) {
        let slot = self.slot_at[rel.0 as usize][pos as usize];
        self.maps
            .each_key(&self.keys, rel, fact, |map, key| map.remove(key, slot));
        self.slots[slot as usize].1 = DEAD;
        self.dead += 1;
    }

    /// Renumbers relation `rel` after the facts at `removed` (ascending)
    /// left its list: the survivors' positions shift down, in order.
    fn compact(&mut self, rel: RelId, removed: &[u32]) {
        remove_positions(&mut self.slot_at[rel.0 as usize], removed);
        self.renumber(rel, removed.first().copied());
    }

    /// Rewrites the positions of relation `rel`'s slots from `from` on.
    fn renumber(&mut self, rel: RelId, from: Option<u32>) {
        let Some(first) = from else {
            return;
        };
        for (p, &slot) in self.slot_at[rel.0 as usize]
            .iter()
            .enumerate()
            .skip(first as usize)
        {
            self.slots[slot as usize].1 = p as u32;
        }
    }

    fn positions(&self, slots: &[u32], rel: Option<RelId>) -> Vec<(RelId, u32)> {
        let mut out: Vec<(RelId, u32)> = slots
            .iter()
            .map(|&s| self.slots[s as usize])
            .filter(|&(r, p)| p != DEAD && rel.is_none_or(|rel| rel.0 == r))
            .map(|(r, p)| (RelId(r), p))
            .collect();
        out.sort_unstable();
        out
    }

    /// Positions under key `ki` whose key hashes to `hash` (ascending;
    /// verify against the fact).
    fn under_key(&self, ki: usize, hash: u64) -> Vec<u32> {
        let rel = self.keys[ki].rel;
        self.positions(self.maps.keys[ki].get(hash), Some(rel))
            .into_iter()
            .map(|(_, p)| p)
            .collect()
    }

    /// Positions in `rel` whose fact may sit at interval `iv` (ascending;
    /// verify against the fact).
    pub(crate) fn at_interval(&self, rel: RelId, iv: Interval) -> Vec<u32> {
        let slots = self.maps.by_interval.get(interval_key(rel, iv));
        self.positions(slots, Some(rel))
            .into_iter()
            .map(|(_, p)| p)
            .collect()
    }

    /// Facts that may contain null base `b` (ascending; verify).
    pub(crate) fn with_base(&self, b: NullId) -> Vec<(RelId, u32)> {
        self.positions(self.maps.by_base.get(base_key(b)), None)
    }

    /// Positions on side `side` of sweep spec `spec` whose join key
    /// hashes to `key` (ascending).
    pub(crate) fn join_partners(&self, spec: usize, side: usize, key: u64) -> Vec<u32> {
        self.under_key(self.spec_keys[spec][side], key)
    }

    /// Positions holding a fact that passes link key `link` (an entry of
    /// the `links` the index was built with) and whose key hashes to
    /// `hash` (ascending; verify).
    pub(crate) fn linked(&self, link: usize, hash: u64) -> Vec<u32> {
        self.under_key(self.link_keys[link], hash)
    }

    /// The position of `(data, iv)` in relation `rel` of `lists`, the
    /// block this index describes, if it holds it.
    pub(crate) fn position_of(
        &self,
        lists: &FactLists,
        rel: RelId,
        data: &[Value],
        iv: Interval,
    ) -> Option<u32> {
        self.positions(self.maps.exact.get(exact_key(rel, data, iv)), Some(rel))
            .into_iter()
            .map(|(_, p)| p)
            .find(|&p| {
                let f = &lists[rel.0 as usize][p as usize];
                f.interval == iv && f.data[..] == *data
            })
    }
}

/// A session's handle on a [`SettledIndex`]: unbuilt until first needed,
/// and unbuilt again in every clone — a clone rebuilds lazily on its first
/// absorb rather than copying maps it may never use.
#[derive(Default)]
pub(crate) struct LazyIndex(Option<SettledIndex>);

impl Clone for LazyIndex {
    fn clone(&self) -> LazyIndex {
        LazyIndex(None)
    }
}

impl LazyIndex {
    /// Drops the index (the lists it described were replaced).
    pub(crate) fn clear(&mut self) {
        self.0 = None;
    }
}

/// One edit made through a journaled [`Settled`], with what undoing it
/// takes.
pub(crate) enum Edit {
    /// A fact appended to the relation's list.
    Push(RelId),
    /// The facts deleted from the relation's list, with their positions
    /// (ascending).
    Delete(RelId, Vec<u32>, Vec<TemporalFact>),
}

/// A settled block under edit: the lists, the index kept beside them, and
/// the dependency bodies and link keys the index maps. Every edit of the
/// lists goes through it, so a built index never goes stale; a journaled
/// block also records every edit, so [`undo`](Self::undo) can restore
/// the lists exactly.
pub(crate) struct Settled<'a> {
    pub(crate) lists: &'a mut FactLists,
    index: &'a mut LazyIndex,
    schema: &'a Schema,
    bodies: &'a [&'a [Atom]],
    links: &'a [AtomKey],
    journal: Option<&'a mut Vec<Edit>>,
}

impl<'a> Settled<'a> {
    pub(crate) fn new(
        lists: &'a mut FactLists,
        index: &'a mut LazyIndex,
        schema: &'a Schema,
        bodies: &'a [&'a [Atom]],
        links: &'a [AtomKey],
    ) -> Settled<'a> {
        Settled {
            lists,
            index,
            schema,
            bodies,
            links,
            journal: None,
        }
    }

    /// Records every later edit into `journal`, when given.
    pub(crate) fn journaled(mut self, journal: Option<&'a mut Vec<Edit>>) -> Settled<'a> {
        self.journal = journal;
        self
    }

    /// Builds the index if the block is non-empty and has none (or carries
    /// more freed slots than live ones).
    fn ensure(&mut self) {
        let live: usize = self.lists.iter().map(Vec::len).sum();
        let stale = self.index.0.as_ref().is_some_and(|i| i.dead > live.max(64));
        if live > 0 && (self.index.0.is_none() || stale) {
            self.index.0 = Some(SettledIndex::build(
                self.schema,
                self.bodies,
                self.links,
                self.lists,
            ));
        }
    }

    /// The lists together with the index, built now if needed. The index
    /// is `None` only for an empty, unindexed block, where every lookup
    /// answers "nothing".
    pub(crate) fn parts(&mut self) -> (&FactLists, Option<&SettledIndex>) {
        self.ensure();
        (self.lists, self.index.0.as_ref())
    }

    /// The position of `(data, iv)` in relation `rel`, if the block holds
    /// it.
    pub(crate) fn position_of(&mut self, rel: RelId, data: &[Value], iv: Interval) -> Option<u32> {
        let (lists, idx) = self.parts();
        idx?.position_of(lists, rel, data, iv)
    }

    /// Whether the block holds exactly `(data, iv)` in `rel`.
    pub(crate) fn contains(&mut self, rel: RelId, data: &[Value], iv: Interval) -> bool {
        self.position_of(rel, data, iv).is_some()
    }

    /// Appends `fact` to relation `rel`, indexing it when an index exists.
    pub(crate) fn push(&mut self, rel: RelId, fact: TemporalFact) {
        if let Some(idx) = self.index.0.as_mut() {
            idx.push(rel, &fact);
        }
        if let Some(journal) = self.journal.as_mut() {
            journal.push(Edit::Push(rel));
        }
        self.lists[rel.0 as usize].push(fact);
    }

    /// Deletes the facts at `positions` (ascending, distinct) from
    /// relation `rel`, keeping the survivors in order.
    pub(crate) fn delete(&mut self, rel: RelId, positions: &[u32]) {
        if positions.is_empty() {
            return;
        }
        let list = &mut self.lists[rel.0 as usize];
        if let Some(idx) = self.index.0.as_mut() {
            for &p in positions {
                idx.remove(rel, p, &list[p as usize]);
            }
            idx.compact(rel, positions);
        }
        if let Some(journal) = self.journal.as_mut() {
            let gone = positions
                .iter()
                .map(|&p| list[p as usize].clone())
                .collect();
            journal.push(Edit::Delete(rel, positions.to_vec(), gone));
        }
        remove_positions(list, positions);
    }

    /// Reverts `edits` (recorded by a journaled block over the same
    /// lists), newest first: the lists end exactly as they were before
    /// the first of them.
    pub(crate) fn undo(&mut self, edits: Vec<Edit>) {
        let journal = self.journal.take();
        for edit in edits.into_iter().rev() {
            match edit {
                Edit::Push(rel) => {
                    let last = self.lists[rel.0 as usize].len() as u32 - 1;
                    self.delete(rel, &[last]);
                }
                Edit::Delete(rel, positions, facts) => {
                    if let Some(idx) = self.index.0.as_mut() {
                        idx.insert(rel, &positions, &facts);
                    }
                    insert_positions(&mut self.lists[rel.0 as usize], &positions, facts);
                }
            }
        }
        self.journal = journal;
    }
}

/// Removes the entries at `positions` (ascending, distinct), keeping the
/// rest in order.
pub(crate) fn remove_positions<T>(v: &mut Vec<T>, positions: &[u32]) {
    let mut gone = positions.iter().peekable();
    let mut pos = 0u32;
    v.retain(|_| {
        let keep = gone.next_if_eq(&&pos).is_none();
        pos += 1;
        keep
    });
}

/// The inverse of [`remove_positions`]: places `items` at `positions`
/// (ascending, in the resulting vector), the rest keeping their order.
pub(crate) fn insert_positions<T>(
    v: &mut Vec<T>,
    positions: &[u32],
    items: impl IntoIterator<Item = T>,
) {
    let mut rest = std::mem::take(v).into_iter();
    let mut items = positions.iter().zip(items).peekable();
    let total = rest.len() + positions.len();
    v.reserve(total);
    for p in 0..total as u32 {
        match items.next_if(|(&q, _)| q == p) {
            Some((_, item)) => v.push(item),
            None => v.extend(rest.next()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdx_logic::{parse_egd, parse_schema};
    use tdx_storage::row;

    fn fact(vals: &[Value], s: u64, e: u64) -> TemporalFact {
        TemporalFact {
            data: row(vals.iter().copied()),
            interval: Interval::new(s, e),
        }
    }

    /// Every lookup of a maintained index equals the same lookup on an
    /// index rebuilt from the edited lists.
    #[test]
    fn maintained_index_answers_like_a_rebuilt_one() {
        let schema = parse_schema("Emp(name, company, salary).").unwrap();
        let egd = parse_egd("Emp(n,c,s) & Emp(n,c,s2) -> s = s2").unwrap();
        let bodies: Vec<&[Atom]> = vec![egd.body.as_slice()];
        let emp = RelId(0);
        let (ada, ibm, n0, n1) = (
            Value::str("Ada"),
            Value::str("IBM"),
            Value::Null(NullId(0)),
            Value::Null(NullId(1)),
        );
        let mut lists: FactLists = vec![vec![
            fact(&[ada, ibm, n0], 0, 10),
            fact(&[ada, ibm, Value::str("18k")], 4, 10),
            fact(&[ada, ibm, n1], 10, 12),
            fact(&[ibm, ada, n1], 10, 12),
        ]];
        let mut lazy = LazyIndex::default();
        let mut block = Settled::new(&mut lists, &mut lazy, &schema, &bodies, &[]);
        assert!(block.contains(emp, &[ada, ibm, n0], Interval::new(0, 10)));
        block.delete(emp, &[0, 2]);
        block.push(emp, fact(&[ada, ibm, n0], 0, 4));
        block.push(emp, fact(&[ada, ibm, n0], 4, 10));
        let probes = |idx: &SettledIndex| {
            let key = idx.keys[idx.spec_keys[0][0]].key_hash(&[ada, ibm, n0]);
            (
                idx.at_interval(emp, Interval::new(4, 10)),
                idx.with_base(NullId(0)),
                idx.with_base(NullId(1)),
                idx.join_partners(0, 1, key),
            )
        };
        let maintained = probes(block.parts().1.unwrap());
        assert_eq!(maintained.0, vec![0, 3]);
        assert_eq!(maintained.1, vec![(emp, 2), (emp, 3)]);
        assert_eq!(maintained.2, vec![(emp, 1)]);
        assert_eq!(maintained.3, vec![0, 2, 3]);
        assert!(!block.contains(emp, &[ada, ibm, n0], Interval::new(0, 10)));
        assert!(block.contains(emp, &[ada, ibm, n0], Interval::new(4, 10)));
        let rebuilt = SettledIndex::build(&schema, &bodies, &[], &lists);
        assert_eq!(probes(&rebuilt), maintained);
        assert_eq!(lists[0].len(), 4);
    }

    #[test]
    fn key_maps_spill_and_unspill() {
        let mut m = KeyMap::default();
        for slot in [3, 5, 7] {
            m.insert(1, slot);
        }
        m.insert(2, 9);
        assert_eq!(m.get(1), &[3, 5, 7]);
        m.remove(1, 5);
        m.remove(1, 3);
        assert_eq!(m.get(1), &[7]);
        assert_eq!(m.free.len(), 1, "a list down to one slot goes back inline");
        m.insert(2, 4);
        assert_eq!(m.get(2), &[9, 4]);
        assert_eq!(m.spill.len(), 1, "the freed list is reused");
        m.remove(1, 7);
        m.remove(2, 9);
        m.remove(2, 4);
        assert!(m.get(1).is_empty() && m.get(2).is_empty());
    }

    #[test]
    fn clones_start_unbuilt() {
        let schema = parse_schema("R(a).").unwrap();
        let mut lists: FactLists = vec![vec![fact(&[Value::int(1)], 0, 1)]];
        let mut lazy = LazyIndex::default();
        Settled::new(&mut lists, &mut lazy, &schema, &[], &[]).parts();
        assert!(lazy.0.is_some());
        assert!(lazy.clone().0.is_none());
    }
}
