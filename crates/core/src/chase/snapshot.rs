//! The classical relational chase on a single snapshot.
//!
//! This is the procedure of Fagin et al. that Section 3 of the paper lifts
//! to abstract instances: a *restricted* chase — an s-t tgd step fires only
//! when the homomorphism has no extension to the target — followed by egd
//! steps that equate labeled nulls or fail on two distinct constants.

use crate::error::{Result, TdxError};
use tdx_logic::{Atom, Egd, SchemaMapping, Term, Tgd, Var};
use tdx_storage::fxhash::FxHashMap;
use tdx_storage::{Instance, NullGen, Value};

/// Instantiates a head atom under a (complete) variable assignment.
fn instantiate(atom: &Atom, env: &[(Var, Value)]) -> Vec<Value> {
    atom.terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => Value::Const(*c),
            Term::Var(v) => {
                env.iter()
                    .find(|(w, _)| w == v)
                    .unwrap_or_else(|| panic!("unbound head variable {v}"))
                    .1
            }
        })
        .collect()
}

/// Applies every applicable s-t tgd step (restricted chase). The source is
/// never modified; returns the number of steps fired.
///
/// The tgds fire in declaration order, not in the engines' fire order
/// (existential-free first): this phase is the oracle the engines are
/// checked against, so it shares no schedule with their kernel. Any
/// order gives a hom-equivalent result (Corollary 20).
pub fn st_tgd_phase(
    source: &Instance,
    target: &mut Instance,
    tgds: &[Tgd],
    nulls: &mut NullGen,
) -> Result<usize> {
    let mut steps = 0;
    for tgd in tgds {
        // The body only mentions source relations, so the homomorphism set
        // is fixed; collect first, then check extensions against the
        // growing target.
        let mut homs: Vec<Vec<(Var, Value)>> = Vec::new();
        source.find_matches(&tgd.body, &[], |m| {
            homs.push(m.bindings());
            true
        })?;
        let existentials = tgd.existential_vars();
        for h in homs {
            if target.exists_match(&tgd.head, &h)? {
                continue; // h extends to the target — nothing to do
            }
            let mut env = h;
            for v in &existentials {
                env.push((*v, Value::Null(nulls.fresh())));
            }
            for atom in &tgd.head {
                let rel = target
                    .schema()
                    .rel_id(atom.relation)
                    .expect("validated head atom");
                target.insert(rel, instantiate(atom, &env).into());
            }
            steps += 1;
        }
    }
    Ok(steps)
}

/// Union-find over values in which constants always win representative
/// election; merging two distinct constants is a chase failure.
pub(crate) struct ValueUnionFind {
    parent: FxHashMap<Value, Value>,
}

impl ValueUnionFind {
    pub(crate) fn new() -> ValueUnionFind {
        ValueUnionFind {
            parent: FxHashMap::default(),
        }
    }

    pub(crate) fn find(&mut self, v: Value) -> Value {
        let p = match self.parent.get(&v) {
            None => return v,
            Some(p) => *p,
        };
        let root = self.find(p);
        self.parent.insert(v, root);
        root
    }

    /// Unites the classes of `a` and `b`. Returns the pair of clashing
    /// constants if both roots are (distinct) constants.
    pub(crate) fn union(&mut self, a: Value, b: Value) -> std::result::Result<(), (Value, Value)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(());
        }
        match (ra, rb) {
            (Value::Const(_), Value::Const(_)) => Err((ra, rb)),
            (Value::Const(_), Value::Null(_)) => {
                self.parent.insert(rb, ra);
                Ok(())
            }
            (Value::Null(_), Value::Const(_)) => {
                self.parent.insert(ra, rb);
                Ok(())
            }
            (Value::Null(na), Value::Null(nb)) => {
                // Deterministic: smaller base is the representative.
                if na < nb {
                    self.parent.insert(rb, ra);
                } else {
                    self.parent.insert(ra, rb);
                }
                Ok(())
            }
        }
    }
}

/// Applies egd steps until a fixpoint: in each round, all current violations
/// are collected into a union-find and resolved at once. Fails when an egd
/// equates two distinct constants. Returns the rewritten instance and the
/// number of merge rounds performed.
pub fn egd_phase(target: &Instance, egds: &[Egd]) -> Result<(Instance, usize)> {
    let mut current = target.clone();
    let mut rounds = 0;
    loop {
        let mut uf = ValueUnionFind::new();
        let mut any = false;
        let mut conflict: Option<(String, Value, Value)> = None;
        for egd in egds {
            current.find_matches(&egd.body, &[], |m| {
                let a = m.value(egd.lhs).expect("egd lhs var is in body");
                let b = m.value(egd.rhs).expect("egd rhs var is in body");
                if a != b {
                    any = true;
                    if let Err((c1, c2)) = uf.union(a, b) {
                        conflict =
                            Some((egd.name.clone().unwrap_or_else(|| egd.to_string()), c1, c2));
                        return false;
                    }
                }
                true
            })?;
            if conflict.is_some() {
                break;
            }
        }
        if let Some((name, c1, c2)) = conflict {
            return Err(TdxError::ChaseFailure {
                dependency: name,
                left: c1.to_string(),
                right: c2.to_string(),
                interval: None,
            });
        }
        if !any {
            return Ok((current, rounds));
        }
        rounds += 1;
        current = current.map_values(|v| match v {
            Value::Null(_) => uf.find(*v),
            c => *c,
        });
    }
}

/// The full snapshot chase for a data exchange setting: an empty target, all
/// s-t tgd steps, then the egd fixpoint. A successful result is a universal
/// solution for this snapshot (Fagin et al., Theorem 3.3).
pub fn snapshot_chase(
    source: &Instance,
    mapping: &SchemaMapping,
    nulls: &mut NullGen,
) -> Result<Instance> {
    let mut target = Instance::with_schema(mapping.target().clone());
    st_tgd_phase(source, &mut target, mapping.st_tgds(), nulls)?;
    let (result, _) = egd_phase(&target, mapping.egds())?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::snapshot_hom;
    use tdx_logic::{parse_egd, parse_schema, parse_tgd};
    use tdx_storage::NullId;

    fn paper_mapping() -> SchemaMapping {
        SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary).").unwrap(),
            parse_schema("Emp(name, company, salary).").unwrap(),
            vec![
                parse_tgd("E(n,c) -> Emp(n,c,s)").unwrap().named("st1"),
                parse_tgd("E(n,c) & S(n,s) -> Emp(n,c,s)")
                    .unwrap()
                    .named("st2"),
            ],
            vec![parse_egd("Emp(n,c,s) & Emp(n,c,s2) -> s = s2")
                .unwrap()
                .named("fd")],
        )
        .unwrap()
    }

    fn source_2013(mapping: &SchemaMapping) -> Instance {
        // Figure 1, snapshot 2013: E(Ada,IBM), S(Ada,18k), E(Bob,IBM).
        let mut db = Instance::with_schema(mapping.source().clone());
        db.insert_values("E", [Value::str("Ada"), Value::str("IBM")]);
        db.insert_values("E", [Value::str("Bob"), Value::str("IBM")]);
        db.insert_values("S", [Value::str("Ada"), Value::str("18k")]);
        db
    }

    #[test]
    fn chase_of_figure1_snapshot_2013() {
        // Figure 3 at 2013: {Emp(Ada, IBM, 18k), Emp(Bob, IBM, N')}.
        let mapping = paper_mapping();
        let db = source_2013(&mapping);
        let mut nulls = NullGen::new();
        let result = snapshot_chase(&db, &mapping, &mut nulls).unwrap();
        assert_eq!(result.total_len(), 2);
        let s = result.to_string();
        assert!(s.contains("Emp(Ada, IBM, 18k)"), "got {s}");
        assert!(s.contains("Emp(Bob, IBM, N"), "got {s}");
    }

    #[test]
    fn chase_result_is_universal() {
        // Any other solution receives a homomorphism from the chase result.
        let mapping = paper_mapping();
        let db = source_2013(&mapping);
        let mut nulls = NullGen::new();
        let result = snapshot_chase(&db, &mapping, &mut nulls).unwrap();
        // A fatter solution: Bob's salary resolved + an extra fact.
        let mut other = Instance::with_schema(mapping.target().clone());
        other.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::str("18k")],
        );
        other.insert_values(
            "Emp",
            [Value::str("Bob"), Value::str("IBM"), Value::str("99k")],
        );
        other.insert_values(
            "Emp",
            [Value::str("Cyd"), Value::str("Intel"), Value::str("1k")],
        );
        assert!(snapshot_hom(&result, &other).is_some());
        // And not vice versa (the extra fact has no preimage).
        assert!(snapshot_hom(&other, &result).is_none());
    }

    #[test]
    fn restricted_chase_skips_satisfied_homs() {
        // If st2 fires first, st1's hom already extends; applying st1 first
        // creates a null that the egd later merges. Either way two target
        // facts result — here we check the one-tgd-at-a-time order used by
        // `st_tgd_phase` (declaration order: st1 then st2).
        let mapping = paper_mapping();
        let db = source_2013(&mapping);
        let mut target = Instance::with_schema(mapping.target().clone());
        let mut nulls = NullGen::new();
        let steps = st_tgd_phase(&db, &mut target, mapping.st_tgds(), &mut nulls).unwrap();
        // st1 fires for Ada and Bob; st2 fires for Ada (the null-salary fact
        // does not block it — no extension maps s to 18k).
        assert_eq!(steps, 3);
        assert_eq!(target.total_len(), 3);
        let (after, rounds) = egd_phase(&target, mapping.egds()).unwrap();
        assert_eq!(after.total_len(), 2);
        assert_eq!(rounds, 1);
    }

    #[test]
    fn egd_failure_on_distinct_constants() {
        let mapping = paper_mapping();
        let mut db = Instance::with_schema(mapping.source().clone());
        db.insert_values("E", [Value::str("Ada"), Value::str("IBM")]);
        db.insert_values("S", [Value::str("Ada"), Value::str("18k")]);
        db.insert_values("S", [Value::str("Ada"), Value::str("20k")]);
        let mut nulls = NullGen::new();
        let err = snapshot_chase(&db, &mapping, &mut nulls).unwrap_err();
        match err {
            TdxError::ChaseFailure {
                dependency,
                left,
                right,
                interval,
            } => {
                assert_eq!(dependency, "fd");
                assert_ne!(left, right);
                assert!(interval.is_none());
                let mut pair = [left, right];
                pair.sort();
                assert_eq!(pair, ["18k".to_string(), "20k".to_string()]);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn egd_chains_resolve_transitively() {
        // R(a, x), R(a, y), R(a, 5) under R(u,v) ∧ R(u,w) → v = w must
        // collapse all three to the constant.
        let source = parse_schema("Src(a, b).").unwrap();
        let target = parse_schema("R(a, b).").unwrap();
        let mapping = SchemaMapping::new(
            source,
            target,
            vec![parse_tgd("Src(a, b) -> R(a, x)").unwrap()],
            vec![parse_egd("R(u,v) & R(u,w) -> v = w").unwrap()],
        )
        .unwrap();
        let mut db = Instance::with_schema(mapping.source().clone());
        db.insert_values("Src", [Value::str("a"), Value::str("p")]);
        db.insert_values("Src", [Value::str("a"), Value::str("q")]);
        let mut nulls = NullGen::new();
        // tgd fires once only (restricted chase: the second hom extends via
        // the first's null)… actually both homs share the same head
        // binding, so only one fact appears.
        let result = snapshot_chase(&db, &mapping, &mut nulls).unwrap();
        assert_eq!(result.total_len(), 1);
        assert_eq!(result.nulls().len(), 1);
    }

    #[test]
    fn union_find_prefers_constants() {
        let mut uf = ValueUnionFind::new();
        uf.union(Value::Null(NullId(3)), Value::Null(NullId(1)))
            .unwrap();
        assert_eq!(uf.find(Value::Null(NullId(3))), Value::Null(NullId(1)));
        uf.union(Value::Null(NullId(1)), Value::str("18k")).unwrap();
        assert_eq!(uf.find(Value::Null(NullId(3))), Value::str("18k"));
        let clash = uf.union(Value::Null(NullId(3)), Value::str("20k"));
        assert!(clash.is_err());
    }

    #[test]
    fn empty_source_chases_to_empty_target() {
        let mapping = paper_mapping();
        let db = Instance::with_schema(mapping.source().clone());
        let mut nulls = NullGen::new();
        let result = snapshot_chase(&db, &mapping, &mut nulls).unwrap();
        assert!(result.is_empty());
    }
}
