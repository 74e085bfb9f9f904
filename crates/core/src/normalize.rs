//! Normalization of concrete instances (paper Section 4.2).
//!
//! To check a dependency whose atoms share the temporal variable `t` against
//! a concrete instance, time intervals must "behave as constants": the
//! instance must have the **normalization property** w.r.t. the dependency's
//! left-hand side, which Theorem 11 proves equivalent to the **empty
//! intersection property** (Definition 10). Both normalization algorithms of
//! the paper fragment facts until that property holds:
//!
//! * [`naive_normalize`] — fragment every fact at every distinct endpoint of
//!   the instance; `O(n log n)` but oblivious to the schema mapping, so it
//!   can produce many unnecessary fragments (Figure 6);
//! * [`normalize`] — Algorithm 1 `norm(I_c, Φ⁺)`: only facts that jointly
//!   satisfy some conjunction `φ∗ ∈ N(Φ⁺)` with overlapping intervals are
//!   grouped (merging overlapping groups), and each group is fragmented at
//!   its own endpoints only (Figures 5, 7→8).
//!
//! [`normalize`] runs the session's list kernel
//! (`chase::partitioned::{discover_images, image_cuts, apply_cuts}`) once
//! over the whole instance: the sweep overlap join for 2-atom bodies, the
//! backtracking matcher over a one-partition sharded store for wider ones.
//! [`normalize_with`] is the paper-literal reference: it enumerates every
//! overlap image with the matcher ([`candidate_groups_with`]) and fragments
//! the merged groups ([`normalize_with_groups`]). The Definition-16 chase
//! driver and the naïve query oracle run the reference, so they never check
//! the kernel against itself; `tests/equivalence.rs` checks the two against
//! each other.

use crate::chase::partitioned::{apply_cuts, discover_images, image_cuts, CutMap, FactLists};
use crate::chase::settled::{LazyIndex, Settled};
use crate::error::Result;
use std::collections::BTreeSet;
use std::sync::Arc;
use tdx_logic::{Atom, RelId};
use tdx_storage::fxhash::{FxHashMap, FxHashSet};
use tdx_storage::{check_conjunction, SearchOptions, TemporalFact, TemporalInstance, TemporalMode};
use tdx_temporal::{fragment_interval, Breakpoints, Interval, TimelinePartition};

/// A fact identity inside one instance: `(relation, row index)`.
pub type FactRef = (RelId, u32);

/// Fragments **every** fact at **every** distinct start/end point of the
/// instance — the paper's naïve normalization (`Φ⁺ = ∅` grouping).
pub fn naive_normalize(ic: &TemporalInstance) -> TemporalInstance {
    let bps = ic.endpoints();
    let mut out = TemporalInstance::new(ic.schema_arc());
    for r in 0..ic.schema().len() {
        let rel = RelId(r as u32);
        let fragments: Vec<TemporalFact> = ic
            .facts(rel)
            .iter()
            .flat_map(|fact| {
                fragment_interval(&fact.interval, &bps)
                    .into_iter()
                    .map(|interval| TemporalFact {
                        data: Arc::clone(&fact.data),
                        interval,
                    })
            })
            .collect();
        out.extend(rel, &fragments);
    }
    out
}

/// The groups computed by Algorithm 1 before fragmentation: maximal merged
/// sets of facts that co-occur in the image of some `φ∗ ∈ N(Φ⁺)` with
/// non-empty interval intersection. Exposed for tests and the experiment
/// harness (Example 14 inspects `S` and `S∩`).
pub fn candidate_groups(
    ic: &TemporalInstance,
    conjunctions: &[&[Atom]],
) -> Result<Vec<BTreeSet<FactRef>>> {
    candidate_groups_with(ic, conjunctions, SearchOptions::default())
}

/// [`candidate_groups`] with explicit search options. With indexes enabled
/// the `FreeOverlapping` searches probe the store's interval-endpoint index
/// (overlap candidates) instead of scanning whole relations; with indexes
/// disabled this is the paper-literal nested-loop search.
pub fn candidate_groups_with(
    ic: &TemporalInstance,
    conjunctions: &[&[Atom]],
    options: SearchOptions,
) -> Result<Vec<BTreeSet<FactRef>>> {
    // Step 1 (line 3): S = all images of some φ∗ with ⋂ f[T] ≠ ∅.
    // `TemporalMode::FreeOverlapping` enforces the intersection condition
    // during the search. Images are deduplicated as sorted vectors — cheaper
    // to hash than tree sets on this hot path.
    let mut sets: Vec<Vec<FactRef>> = Vec::new();
    let mut seen: FxHashSet<Vec<FactRef>> = FxHashSet::default();
    for atoms in conjunctions {
        ic.find_matches_with(
            atoms,
            TemporalMode::FreeOverlapping,
            &[],
            None,
            options,
            |m| {
                let mut image: Vec<FactRef> = m.atom_rows().to_vec();
                image.sort_unstable();
                image.dedup();
                if seen.insert(image.clone()) {
                    sets.push(image);
                }
                true
            },
        )?;
    }
    Ok(merge_image_sets(&sets))
}

/// Path-compressing find over an index-keyed union-find — the shared
/// primitive behind Algorithm 1's group merge, the shared-base alignment
/// of the chase engines, and the fact-connectivity passes.
pub(crate) fn uf_find(parent: &mut Vec<usize>, i: usize) -> usize {
    if parent[i] != i {
        let r = uf_find(parent, parent[i]);
        parent[i] = r;
    }
    parent[i]
}

/// Steps 2–3 of Algorithm 1 (lines 4–10): merges images sharing a fact
/// until the resulting groups are disjoint. Union-find keyed by set index,
/// driven by fact membership. Also the reconciliation step of the
/// partitioned chase, whose workers discover images per timeline partition
/// and merge them here.
pub fn merge_image_sets(sets: &[Vec<FactRef>]) -> Vec<BTreeSet<FactRef>> {
    let mut parent: Vec<usize> = (0..sets.len()).collect();
    let mut owner: FxHashMap<FactRef, usize> = FxHashMap::default();
    for (i, set) in sets.iter().enumerate() {
        for &f in set {
            match owner.get(&f) {
                Some(&j) => {
                    let (ri, rj) = (uf_find(&mut parent, i), uf_find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
                None => {
                    owner.insert(f, i);
                }
            }
        }
    }
    let mut merged: FxHashMap<usize, BTreeSet<FactRef>> = FxHashMap::default();
    for (i, set) in sets.iter().enumerate() {
        let r = uf_find(&mut parent, i);
        merged.entry(r).or_default().extend(set.iter().copied());
    }
    let mut groups: Vec<BTreeSet<FactRef>> = merged.into_values().collect();
    groups.sort_by(|a, b| a.iter().next().cmp(&b.iter().next()));
    groups
}

/// Algorithm 1 `norm(I_c, Φ⁺)`: fragments exactly the facts in the merged
/// candidate groups, each at the distinct endpoints of its own group
/// (`TP_Δ`). Facts outside every group are copied unchanged.
///
/// The output has the empty intersection property w.r.t. `conjunctions`
/// (Theorem 15) and represents the same abstract instance (fragmentation
/// preserves `⟦·⟧`; null bases are kept, so the fragments of an annotated
/// null `N^[s,e)` still denote the family `⟨N_s, …, N_{e−1}⟩`).
///
/// Runs the list kernel in one pass: every fact is in the delta block, all
/// images are discovered over the whole timeline, and the cuts are applied
/// once — Algorithm 1 fragments the input's groups, with no fixpoint. The
/// output equals [`normalize_with`]'s as a set; fact order may differ.
pub fn normalize(ic: &TemporalInstance, conjunctions: &[&[Atom]]) -> Result<TemporalInstance> {
    let schema = ic.schema_arc();
    // The kernel skips bodies that cannot cut (fewer than two atoms), so
    // check every body up front: the same errors the reference reports.
    for atoms in conjunctions {
        check_conjunction(atoms, &schema)?;
    }
    let nrels = schema.len();
    let delta: FactLists = (0..nrels)
        .map(|r| ic.facts(RelId(r as u32)).to_vec())
        .collect();
    let mut pre: FactLists = vec![Vec::new(); nrels];
    let images = discover_images(
        &schema,
        &TimelinePartition::whole(),
        &pre,
        &delta,
        None,
        conjunctions,
        1,
        SearchOptions::default(),
        None,
    )?;
    let mut cuts = CutMap::default();
    image_cuts(&images, &pre, &delta, &mut cuts);
    let mut no_index = LazyIndex::default();
    let mut empty = Settled::new(&mut pre, &mut no_index, &schema, conjunctions, &[]);
    let (delta, _) = apply_cuts(&mut empty, &cuts, delta);
    let mut out = TemporalInstance::new(schema);
    for (r, facts) in delta.iter().enumerate() {
        out.extend(RelId(r as u32), facts);
    }
    Ok(out)
}

/// The paper-literal reference for [`normalize`]: image discovery by the
/// backtracking matcher with explicit search options (see
/// [`candidate_groups_with`]), then [`normalize_with_groups`]. The
/// Definition-16 chase driver and the naïve query oracle call this.
pub fn normalize_with(
    ic: &TemporalInstance,
    conjunctions: &[&[Atom]],
    options: SearchOptions,
) -> Result<TemporalInstance> {
    let groups = candidate_groups_with(ic, conjunctions, options)?;
    normalize_with_groups(ic, &groups)
}

/// The fragmentation phase of Algorithm 1 (lines 11–18), given the merged
/// groups.
pub fn normalize_with_groups(
    ic: &TemporalInstance,
    groups: &[BTreeSet<FactRef>],
) -> Result<TemporalInstance> {
    // Per-fact breakpoints: TP_Δ of the group the fact belongs to.
    let mut fact_group: FxHashMap<FactRef, usize> = FxHashMap::default();
    let mut group_bps: Vec<Breakpoints> = Vec::with_capacity(groups.len());
    for (gi, group) in groups.iter().enumerate() {
        let ivs: Vec<Interval> = group
            .iter()
            .map(|&(rel, row)| ic.facts(rel)[row as usize].interval)
            .collect();
        group_bps.push(Breakpoints::from_intervals(ivs.iter()));
        for &f in group {
            fact_group.insert(f, gi);
        }
    }
    let mut out = TemporalInstance::new(ic.schema_arc());
    for r in 0..ic.schema().len() {
        let rel = RelId(r as u32);
        for (row, fact) in ic.facts(rel).iter().enumerate() {
            match fact_group.get(&(rel, row as u32)) {
                Some(&gi) => {
                    for iv in fragment_interval(&fact.interval, &group_bps[gi]) {
                        out.insert(rel, Arc::clone(&fact.data), iv);
                    }
                }
                None => {
                    out.insert(rel, Arc::clone(&fact.data), fact.interval);
                }
            }
        }
    }
    Ok(out)
}

/// Checks the **empty intersection property** (Definition 10): for every
/// homomorphism from some `φ∗ ∈ N(Φ⁺)` to the instance, the matched facts'
/// intervals are either pairwise identical or have an empty common
/// intersection. By Theorem 11 this is equivalent to the normalization
/// property.
pub fn has_empty_intersection_property(
    ic: &TemporalInstance,
    conjunctions: &[&[Atom]],
) -> Result<bool> {
    for atoms in conjunctions {
        let mut ok = true;
        ic.find_matches(atoms, TemporalMode::Free, &[], None, |m| {
            let mut distinct: BTreeSet<Interval> = BTreeSet::new();
            for i in 0..m.atom_rows().len() {
                if let Some(iv) = m.atom_interval(i) {
                    distinct.insert(iv);
                }
            }
            if distinct.len() <= 1 {
                return true; // all equal — condition 2 of Definition 10
            }
            // Otherwise the common intersection must be empty.
            let mut acc: Option<Interval> = None;
            let mut empty = false;
            for iv in &distinct {
                acc = match acc {
                    None => Some(*iv),
                    Some(a) => match a.intersect(iv) {
                        Some(x) => Some(x),
                        None => {
                            empty = true;
                            break;
                        }
                    },
                };
            }
            if empty {
                true
            } else {
                ok = false;
                false // stop early: property violated
            }
        })?;
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::semantics;
    use std::sync::Arc;
    use tdx_logic::{parse_tgd, RelationSchema, Schema};
    use tdx_temporal::Interval;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn body(src: &str) -> Vec<Atom> {
        parse_tgd(&format!("{src} -> Sink()")).unwrap().body
    }

    fn paper_schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                RelationSchema::new("E", &["name", "company"]),
                RelationSchema::new("S", &["name", "salary"]),
            ])
            .unwrap(),
        )
    }

    /// Figure 4.
    fn figure4() -> TemporalInstance {
        let mut i = TemporalInstance::new(paper_schema());
        i.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014));
        i.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        i.insert_strs("E", &["Bob", "IBM"], iv(2013, 2018));
        i.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
        i.insert_strs("S", &["Bob", "13k"], Interval::from(2015));
        i
    }

    #[test]
    fn figure5_normalization() {
        // norm(Figure 4, {E+(n,c,t) ∧ S+(n,s,t)}) = Figure 5 exactly.
        let ic = figure4();
        let phi = body("E(n,c) & S(n,s)");
        let out = normalize(&ic, &[&phi]).unwrap();
        let mut expected = TemporalInstance::new(paper_schema());
        expected.insert_strs("E", &["Ada", "IBM"], iv(2012, 2013));
        expected.insert_strs("E", &["Ada", "IBM"], iv(2013, 2014));
        expected.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        expected.insert_strs("E", &["Bob", "IBM"], iv(2013, 2015));
        expected.insert_strs("E", &["Bob", "IBM"], iv(2015, 2018));
        expected.insert_strs("S", &["Ada", "18k"], iv(2013, 2014));
        expected.insert_strs("S", &["Ada", "18k"], Interval::from(2014));
        expected.insert_strs("S", &["Bob", "13k"], iv(2015, 2018));
        expected.insert_strs("S", &["Bob", "13k"], Interval::from(2018));
        assert_eq!(out, expected);
        assert_eq!(out.total_len(), 9);
    }

    #[test]
    fn figure6_naive_normalization() {
        // Naïve normalization of Figure 4 = Figure 6: 14 facts.
        let out = naive_normalize(&figure4());
        let mut expected = TemporalInstance::new(paper_schema());
        expected.insert_strs("E", &["Ada", "IBM"], iv(2012, 2013));
        expected.insert_strs("E", &["Ada", "IBM"], iv(2013, 2014));
        expected.insert_strs("E", &["Ada", "Google"], iv(2014, 2015));
        expected.insert_strs("E", &["Ada", "Google"], iv(2015, 2018));
        expected.insert_strs("E", &["Ada", "Google"], Interval::from(2018));
        expected.insert_strs("E", &["Bob", "IBM"], iv(2013, 2014));
        expected.insert_strs("E", &["Bob", "IBM"], iv(2014, 2015));
        expected.insert_strs("E", &["Bob", "IBM"], iv(2015, 2018));
        expected.insert_strs("S", &["Ada", "18k"], iv(2013, 2014));
        expected.insert_strs("S", &["Ada", "18k"], iv(2014, 2015));
        expected.insert_strs("S", &["Ada", "18k"], iv(2015, 2018));
        expected.insert_strs("S", &["Ada", "18k"], Interval::from(2018));
        expected.insert_strs("S", &["Bob", "13k"], iv(2015, 2018));
        expected.insert_strs("S", &["Bob", "13k"], Interval::from(2018));
        assert_eq!(out, expected);
        assert_eq!(out.total_len(), 14);
    }

    fn example14_schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                RelationSchema::new("R", &["a"]),
                RelationSchema::new("P", &["a"]),
                RelationSchema::new("S", &["a"]),
            ])
            .unwrap(),
        )
    }

    /// Figure 7: f1..f5.
    fn figure7() -> TemporalInstance {
        let mut i = TemporalInstance::new(example14_schema());
        i.insert_strs("R", &["a"], iv(5, 11)); // f1
        i.insert_strs("P", &["a"], iv(8, 15)); // f2
        i.insert_strs("P", &["b"], iv(20, 25)); // f4
        i.insert_strs("S", &["a"], iv(7, 10)); // f3
        i.insert_strs("S", &["b"], Interval::from(18)); // f5
        i
    }

    #[test]
    fn example14_groups() {
        // φ1: R+(x,t1) ∧ P+(y,t2), φ2: P+(x,t1) ∧ S+(y,t2).
        let ic = figure7();
        let phi1 = body("R(x) & P(y)");
        let phi2 = body("P(x) & S(y)");
        let groups = candidate_groups(&ic, &[&phi1, &phi2]).unwrap();
        // After merging: {f1,f2,f3} and {f4,f5}.
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![3, 2]);
    }

    #[test]
    fn example14_output_is_figure8() {
        let ic = figure7();
        let phi1 = body("R(x) & P(y)");
        let phi2 = body("P(x) & S(y)");
        let out = normalize(&ic, &[&phi1, &phi2]).unwrap();
        let mut expected = TemporalInstance::new(example14_schema());
        // f1 → [5,7),[7,8),[8,10),[10,11)
        expected.insert_strs("R", &["a"], iv(5, 7));
        expected.insert_strs("R", &["a"], iv(7, 8));
        expected.insert_strs("R", &["a"], iv(8, 10));
        expected.insert_strs("R", &["a"], iv(10, 11));
        // f2 → [8,10),[10,11),[11,15)
        expected.insert_strs("P", &["a"], iv(8, 10));
        expected.insert_strs("P", &["a"], iv(10, 11));
        expected.insert_strs("P", &["a"], iv(11, 15));
        // f4 → [20,25)
        expected.insert_strs("P", &["b"], iv(20, 25));
        // f3 → [7,8),[8,10)   (paper's f31/f32 — Figure 8 has a typo
        // listing f31 twice)
        expected.insert_strs("S", &["a"], iv(7, 8));
        expected.insert_strs("S", &["a"], iv(8, 10));
        // f5 → [18,20),[20,25),[25,∞)
        expected.insert_strs("S", &["b"], iv(18, 20));
        expected.insert_strs("S", &["b"], iv(20, 25));
        expected.insert_strs("S", &["b"], Interval::from(25));
        assert_eq!(out, expected);
    }

    #[test]
    fn normalized_output_has_empty_intersection_property() {
        let ic = figure4();
        let phi = body("E(n,c) & S(n,s)");
        assert!(!has_empty_intersection_property(&ic, &[&phi]).unwrap());
        let out = normalize(&ic, &[&phi]).unwrap();
        assert!(has_empty_intersection_property(&out, &[&phi]).unwrap());
        // Naïve normalization also satisfies it.
        let naive = naive_normalize(&ic);
        assert!(has_empty_intersection_property(&naive, &[&phi]).unwrap());
    }

    #[test]
    fn normalization_preserves_semantics() {
        let ic = figure4();
        let phi = body("E(n,c) & S(n,s)");
        let out = normalize(&ic, &[&phi]).unwrap();
        assert!(semantics(&ic).eq_semantic(&semantics(&out)));
        let naive = naive_normalize(&ic);
        assert!(semantics(&ic).eq_semantic(&semantics(&naive)));
    }

    #[test]
    fn normalize_with_no_conjunctions_is_identity() {
        let ic = figure4();
        let out = normalize(&ic, &[]).unwrap();
        assert_eq!(out, ic);
    }

    #[test]
    fn already_normalized_is_fixpoint() {
        let ic = figure4();
        let phi = body("E(n,c) & S(n,s)");
        let once = normalize(&ic, &[&phi]).unwrap();
        let twice = normalize(&once, &[&phi]).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn single_atom_conjunction_never_fragments() {
        // A single-atom body always maps t to one fact's interval; every
        // instance is already normalized for it.
        let ic = figure4();
        let phi = body("E(n,c)");
        assert!(has_empty_intersection_property(&ic, &[&phi]).unwrap());
        let out = normalize(&ic, &[&phi]).unwrap();
        assert_eq!(out, ic);
    }
}
