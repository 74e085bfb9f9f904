//! Linked components of a session's settled state: the unit a narrowing
//! refine re-chases.
//!
//! The c-chase relates facts only through dependencies. A normalization
//! cut, a tgd match, a restricted check, an egd match and an egd rewrite
//! each involve facts that agree on the columns of some atom pair of one
//! dependency sharing a variable, or that hold the same null base. Call
//! such facts *linked*. No chase step joins facts with no value in
//! common, so two parts of a source with no link between them chase
//! independently, and the solution of their union is the union of their
//! solutions (Corollary 20 applied to each part).
//!
//! [`Links`] compiles the atom pairs of a mapping once: body–body,
//! body–head and head–head pairs of every tgd, body–body pairs of every
//! egd. Each pair end is an [`AtomKey`] over the normalized source (body
//! atoms) or the target (head and egd atoms), which the block's settled
//! index maps by key hash ([`SettledIndex::linked`]), directly or through
//! the map of a narrower key. [`linked_component`]
//! walks those maps, plus the null-base map of the target, outward from
//! the normalized facts of some source rows.
//!
//! A dependency whose atoms do not all connect through shared variables
//! (`R(x) → ∃y T(y)`) relates facts with nothing in common, so its mapping
//! has no value links ([`Links::connected`] is false) and every component
//! is the whole state.

use crate::chase::partitioned::{pack_ref, AtomKey, FactLists, PairSpec};
use crate::chase::settled::{null_bases, SettledIndex};
use tdx_logic::{Atom, RelId, Schema, SchemaMapping};
use tdx_storage::fxhash::FxHashSet;
use tdx_storage::{TemporalFact, Value};

/// Block index of the normalized source.
pub(crate) const SOURCE: usize = 0;
/// Block index of the target.
pub(crate) const TARGET: usize = 1;

/// The value links of a mapping (see the module docs).
pub(crate) struct Links {
    /// Per block: the link keys its settled index maps. An atom key whose
    /// columns include another's, with no filter that one lacks, is found
    /// through that one's map and gets none of its own.
    pub(crate) keys: [Vec<AtomKey>; 2],
    /// The links; two facts are linked when each passes its end's key and
    /// the keys agree.
    pairs: Vec<[End; 2]>,
    /// Whether every dependency's atoms connect through shared variables.
    pub(crate) connected: bool,
}

/// One end of a link.
struct End {
    block: usize,
    key: AtomKey,
    /// The entry of `Links::keys[block]` whose map finds this end's
    /// candidates, and the place of each of its key columns in `key`.
    map: usize,
    proj: Vec<usize>,
}

impl Links {
    /// Compiles the links of `mapping`.
    pub(crate) fn compile(mapping: &SchemaMapping) -> Links {
        let schemas = [mapping.source(), mapping.target()];
        let mut pairs: Vec<[(usize, AtomKey); 2]> = Vec::new();
        let mut connected = true;
        let tgds = mapping.st_tgds().iter().map(|tgd| {
            let body = tgd.body.iter().map(|a| (a, SOURCE));
            body.chain(tgd.head.iter().map(|a| (a, TARGET))).collect()
        });
        let egds = mapping
            .egds()
            .iter()
            .map(|egd| egd.body.iter().map(|a| (a, TARGET)).collect());
        for atoms in tgds.chain(egds) {
            let atoms: Vec<(&Atom, usize)> = atoms;
            connected &= add_dependency(&mut pairs, &atoms, schemas);
        }
        // Narrow keys first, so a wider one can be found through them.
        let mut keys: [Vec<AtomKey>; 2] = [Vec::new(), Vec::new()];
        let mut distinct: Vec<&(usize, AtomKey)> = pairs.iter().flatten().collect();
        distinct.sort_by_key(|(_, k)| k.width());
        for &(b, ref k) in distinct {
            if !keys[b].iter().any(|m| k.served_by(m).is_some()) {
                keys[b].push(k.clone());
            }
        }
        let end = |(block, key): (usize, AtomKey)| {
            let (map, proj) = keys[block]
                .iter()
                .enumerate()
                .filter_map(|(m, map)| key.served_by(map).map(|proj| (m, proj)))
                .max_by_key(|(_, proj)| proj.len())
                .expect("every key is served by itself or a narrower one");
            End {
                block,
                key,
                map,
                proj,
            }
        };
        let pairs = pairs.into_iter().map(|ends| ends.map(end)).collect();
        Links {
            keys,
            pairs,
            connected,
        }
    }

    /// The first source link key a fact of `rel` holding `data` passes.
    /// Every normalized fragment of a source row passes it alike, so its
    /// map finds them all. A row passing none matches no atom of any pair,
    /// so it is never cut: its normalized facts are its raw ones.
    fn row_key(&self, rel: RelId, data: &[Value]) -> Option<usize> {
        self.keys[SOURCE]
            .iter()
            .position(|k| k.rel == rel && k.passes(data))
    }
}

/// Adds the links of one dependency's atoms (each with its block) to
/// `pairs`; whether the atoms connect through shared variables.
fn add_dependency(
    pairs: &mut Vec<[(usize, AtomKey); 2]>,
    atoms: &[(&Atom, usize)],
    schemas: [&Schema; 2],
) -> bool {
    // Connectivity by label propagation: few atoms per dependency.
    let mut group: Vec<usize> = (0..atoms.len()).collect();
    let mut compiled = true;
    for i in 0..atoms.len() {
        for j in i + 1..atoms.len() {
            let ((a, ba), (b, bb)) = (atoms[i], atoms[j]);
            let Some(spec) = PairSpec::compile_across([(a, schemas[ba]), (b, schemas[bb])]) else {
                compiled = false;
                continue;
            };
            if !spec.joins() {
                continue;
            }
            let (gi, gj) = (group[i], group[j]);
            for g in &mut group {
                if *g == gj {
                    *g = gi;
                }
            }
            let [ka, kb] = spec.sides;
            let ends = [(ba, ka), (bb, kb)];
            let reversed = [ends[1].clone(), ends[0].clone()];
            if !pairs.contains(&ends) && !pairs.contains(&reversed) {
                pairs.push(ends);
            }
        }
    }
    compiled && group.iter().all(|&g| g == group[0])
}

/// One settled block as the search reads it: the lists and their index
/// (`None` only for an empty block).
type Block<'a> = (&'a FactLists, Option<&'a SettledIndex>);

/// The walk's state: per block, the facts reached (as packed refs) and,
/// per relation, their positions.
struct Walk {
    seen: [FxHashSet<u64>; 2],
    out: [Vec<Vec<u32>>; 2],
    queue: Vec<(usize, RelId, u32)>,
}

impl Walk {
    fn visit(&mut self, block: usize, rel: RelId, pos: u32) {
        if self.seen[block].insert(pack_ref((rel, pos))) {
            self.out[block][rel.0 as usize].push(pos);
            self.queue.push((block, rel, pos));
        }
    }
}

/// The linked component of the source rows of `seeds` (raw facts): every
/// settled fact reachable from their normalized facts over links.
/// Returns the positions per block ([`SOURCE`], [`TARGET`]) and relation,
/// ascending. The result is a set closed under links, so it does not
/// depend on the order of the index's answers. It holds whole source
/// rows: a row's normalized facts are equal in every column, so a lookup
/// that reaches one reaches them all.
pub(crate) fn linked_component(
    links: &Links,
    blocks: [Block<'_>; 2],
    seeds: &[(RelId, TemporalFact)],
) -> [Vec<Vec<u32>>; 2] {
    let mut walk = Walk {
        seen: Default::default(),
        out: blocks.map(|(lists, _)| vec![Vec::new(); lists.len()]),
        queue: Vec::new(),
    };
    if let (lists, Some(idx)) = blocks[SOURCE] {
        for (rel, fact) in seeds {
            let (rel, data) = (*rel, &fact.data);
            match links.row_key(rel, data) {
                Some(k) => {
                    for p in idx.linked(k, links.keys[SOURCE][k].key_hash(data)) {
                        if lists[rel.0 as usize][p as usize].data == *data {
                            walk.visit(SOURCE, rel, p);
                        }
                    }
                }
                None => {
                    if let Some(p) = idx.position_of(lists, rel, data, fact.interval) {
                        walk.visit(SOURCE, rel, p);
                    }
                }
            }
        }
    }
    while let Some((block, rel, pos)) = walk.queue.pop() {
        let (lists, Some(idx)) = blocks[block] else {
            continue;
        };
        let data = &lists[rel.0 as usize][pos as usize].data;
        for ends in &links.pairs {
            for e in 0..2 {
                let (from, to) = (&ends[e], &ends[1 - e]);
                if e == 1 && from.block == to.block && from.key == to.key {
                    continue; // a self-link: one direction covers it
                }
                if from.block != block || from.key.rel != rel || !from.key.passes(data) {
                    continue;
                }
                let (olists, Some(oidx)) = blocks[to.block] else {
                    continue;
                };
                let orel = to.key.rel;
                for q in oidx.linked(to.map, from.key.projected_hash(data, &to.proj)) {
                    let other = &olists[orel.0 as usize][q as usize].data;
                    if to.key.passes(other) && from.key.agrees(data, &to.key, other) {
                        walk.visit(to.block, orel, q);
                    }
                }
            }
        }
        if block == TARGET {
            for base in null_bases(data) {
                for (r, q) in idx.with_base(base) {
                    if lists[r.0 as usize][q as usize]
                        .data
                        .contains(&Value::Null(base))
                    {
                        walk.visit(TARGET, r, q);
                    }
                }
            }
        }
    }
    for lists in &mut walk.out {
        for positions in lists {
            positions.sort_unstable();
        }
    }
    walk.out
}
