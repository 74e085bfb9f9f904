//! Homomorphisms between instances.
//!
//! Two levels, mirroring the paper:
//!
//! * [`snapshot_hom`] — classical homomorphisms between relational
//!   snapshots (identity on constants, nulls map anywhere);
//! * [`abstract_hom`] — homomorphisms between abstract instances per the
//!   paper's two-condition definition (Section 3): a *single global* mapping
//!   of labeled nulls whose restriction to every snapshot is a snapshot
//!   homomorphism. The null-scope rules make Example 2 come out right:
//!   a [`AValue::Rigid`] null spanning several time points can never map to
//!   a [`AValue::PerPoint`] family (`J₁ ↛ J₂`), while per-point families map
//!   onto rigid nulls pointwise (`J₂ → J₁`).
//!
//! Both run on one search core. A ground source fact is a membership test.
//! The other facts split into blocks connected by shared nulls; blocks share
//! no null, so each is searched on its own (Fagin, Kolaitis & Popa, "Data
//! exchange: getting to the core", TODS 2005) and a failing block never
//! backtracks through an independent one. Inside a block the search keeps
//! an explicit stack, so its depth costs no call frames, and it finds the
//! candidate target facts by probing a value index on a bound column.

use crate::abstract_view::{ASnapshot, AValue, AbstractInstance};
use std::hash::Hash;
use tdx_logic::RelId;
use tdx_storage::fxhash::FxHashMap;
use tdx_storage::{Instance, NullId, Value};

// ---------------------------------------------------------------------
// The search core
// ---------------------------------------------------------------------

/// One column of a non-ground source fact: the value the target fact must
/// carry there, or a null variable of the search.
#[derive(Clone, Copy)]
enum Term<V> {
    Fixed(V),
    Var(usize),
}

/// A source fact with at least one null: the target snapshot it must map
/// into, its relation and its columns.
struct Goal<V> {
    ctx: usize,
    rel: RelId,
    terms: Vec<Term<V>>,
}

/// One relation of one target snapshot, with a value index per column.
struct TargetRel<'a, V> {
    rows: Vec<&'a [V]>,
    all: Vec<u32>,
    cols: Vec<FxHashMap<V, Vec<u32>>>,
}

impl<'a, V: Copy + Eq + Hash> TargetRel<'a, V> {
    fn new(rows: Vec<&'a [V]>, arity: usize) -> Self {
        let mut cols: Vec<FxHashMap<V, Vec<u32>>> = vec![FxHashMap::default(); arity];
        for (id, row) in (0u32..).zip(&rows) {
            for (col, v) in cols.iter_mut().zip(row.iter()) {
                col.entry(*v).or_default().push(id);
            }
        }
        let all = (0u32..).take(rows.len()).collect();
        TargetRel { rows, all, cols }
    }

    /// The rows that can match `goal` under `assign`: the shortest index
    /// list over its fixed and bound columns, or every row when it has none.
    fn candidates(&self, goal: &Goal<V>, assign: &[Option<V>]) -> &[u32] {
        let mut best: &[u32] = &self.all;
        for (col, term) in goal.terms.iter().enumerate() {
            let value = match term {
                Term::Fixed(v) => Some(v),
                Term::Var(x) => assign[*x].as_ref(),
            };
            if let Some(v) = value {
                let list = self.cols[col].get(v).map_or(&[][..], Vec::as_slice);
                if list.len() <= best.len() {
                    best = list;
                }
            }
        }
        best
    }
}

/// Binds `goal`'s variables to `row`, recording new bindings in `bound`.
/// Returns `false` (with `bound`'s bindings undone) when the row does not
/// match.
fn unify<V: Copy + Eq>(
    goal: &Goal<V>,
    row: &[V],
    assign: &mut [Option<V>],
    bound: &mut Vec<usize>,
    admissible: &impl Fn(usize, &V) -> bool,
) -> bool {
    for (term, v) in goal.terms.iter().zip(row) {
        let ok = match term {
            Term::Fixed(w) => w == v,
            Term::Var(x) => match assign[*x] {
                Some(w) => w == *v,
                None => {
                    assign[*x] = Some(*v);
                    bound.push(*x);
                    admissible(*x, v)
                }
            },
        };
        if !ok {
            for x in bound.drain(..) {
                assign[x] = None;
            }
            return false;
        }
    }
    true
}

/// The connected components of the goals under "shares a variable", most
/// constrained goal first and then breadth-first, so that every later goal
/// probes on a column an earlier one bound.
fn blocks<V>(goals: &[Goal<V>], vars: usize) -> Vec<Vec<usize>> {
    let var_terms = |g: usize| {
        goals[g].terms.iter().filter_map(|t| match t {
            Term::Var(x) => Some(*x),
            Term::Fixed(_) => None,
        })
    };
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); vars];
    for g in 0..goals.len() {
        var_terms(g).for_each(|x| users[x].push(g));
    }
    let mut starts: Vec<usize> = (0..goals.len()).collect();
    starts.sort_by_key(|&g| var_terms(g).count());
    let (mut seen, mut var_seen) = (vec![false; goals.len()], vec![false; vars]);
    let mut out = Vec::new();
    for start in starts {
        if std::mem::replace(&mut seen[start], true) {
            continue;
        }
        let mut block = vec![start];
        let mut next = 0;
        while let Some(&g) = block.get(next) {
            next += 1;
            for x in var_terms(g) {
                if !std::mem::replace(&mut var_seen[x], true) {
                    for &h in &users[x] {
                        if !std::mem::replace(&mut seen[h], true) {
                            block.push(h);
                        }
                    }
                }
            }
        }
        out.push(block);
    }
    out
}

/// Finds an assignment of the `vars` variables under which every goal maps
/// onto a row of `rows(ctx, rel)`, binding a variable to a value only when
/// `admissible` allows it. Returns `None` when no assignment exists.
fn solve<'a, V, I>(
    goals: &[Goal<V>],
    vars: usize,
    rows: impl Fn(usize, RelId) -> I,
    admissible: impl Fn(usize, &V) -> bool,
) -> Option<Vec<Option<V>>>
where
    V: Copy + Eq + Hash + 'a,
    I: Iterator<Item = &'a [V]>,
{
    let mut targets: FxHashMap<(usize, RelId), TargetRel<'a, V>> = FxHashMap::default();
    for goal in goals {
        targets.entry((goal.ctx, goal.rel)).or_insert_with(|| {
            TargetRel::new(rows(goal.ctx, goal.rel).collect(), goal.terms.len())
        });
    }
    let target = |g: usize| &targets[&(goals[g].ctx, goals[g].rel)];
    let mut assign: Vec<Option<V>> = vec![None; vars];
    for block in blocks(goals, vars) {
        // One frame per placed goal: its candidates, the next one to try,
        // and the variables the current candidate bound.
        let frame = |g: usize, assign: &[Option<V>]| {
            (g, target(g).candidates(&goals[g], assign), 0, Vec::new())
        };
        let mut stack = vec![frame(block[0], &assign)];
        loop {
            let depth = stack.len();
            let (g, candidates, next, bound) = stack.last_mut()?;
            for x in bound.drain(..) {
                assign[x] = None;
            }
            let rows = &target(*g).rows;
            let matched = candidates[*next..].iter().position(|&id| {
                unify(
                    &goals[*g],
                    rows[id as usize],
                    &mut assign,
                    bound,
                    &admissible,
                )
            });
            let Some(i) = matched else {
                stack.pop();
                continue;
            };
            *next += i + 1;
            if depth == block.len() {
                break;
            }
            let placed = frame(block[depth], &assign);
            stack.push(placed);
        }
    }
    Some(assign)
}

/// The dense variable number of a null key, assigned on first sight.
fn var_id<K: Copy + Eq + Hash>(ids: &mut FxHashMap<K, usize>, keys: &mut Vec<K>, key: K) -> usize {
    *ids.entry(key).or_insert_with(|| {
        keys.push(key);
        keys.len() - 1
    })
}

// ---------------------------------------------------------------------
// Snapshot-level homomorphisms
// ---------------------------------------------------------------------

/// Searches for a homomorphism `from → to` between snapshots: a mapping of
/// labeled nulls to values that is the identity on constants and sends every
/// fact of `from` to a fact of `to`. Returns the null mapping if one exists.
pub fn snapshot_hom(from: &Instance, to: &Instance) -> Option<FxHashMap<NullId, Value>> {
    let (mut ids, mut keys) = (FxHashMap::default(), Vec::new());
    let mut goals = Vec::new();
    for (rel, row) in from.iter_all() {
        if row.iter().all(|v| !v.is_null()) {
            if !to.contains(rel, row) {
                return None;
            }
            continue;
        }
        let terms = row
            .iter()
            .map(|v| match v {
                Value::Const(_) => Term::Fixed(*v),
                Value::Null(n) => Term::Var(var_id(&mut ids, &mut keys, *n)),
            })
            .collect();
        goals.push(Goal { ctx: 0, rel, terms });
    }
    let assign = solve(
        &goals,
        keys.len(),
        |_, rel| to.rows(rel).iter().map(|r| &r[..]),
        |_, _| true,
    )?;
    Some(
        keys.into_iter()
            .zip(assign)
            .filter_map(|(n, v)| Some((n, v?)))
            .collect(),
    )
}

/// Whether the two snapshots are homomorphically equivalent.
pub fn hom_equivalent_snapshots(a: &Instance, b: &Instance) -> bool {
    snapshot_hom(a, b).is_some() && snapshot_hom(b, a).is_some()
}

// ---------------------------------------------------------------------
// Abstract-level homomorphisms
// ---------------------------------------------------------------------

/// A source null key: per-point families are scoped to a refined epoch
/// (their members `(b, ℓ)` are distinct per point, so each epoch's slice can
/// map independently); rigid nulls are global.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum SrcKey {
    PerPoint(NullId, usize),
    Rigid(NullId),
}

/// Searches for an abstract homomorphism `from → to`.
///
/// Implements Section 3's definition on the finite epoch representation: one
/// global null mapping whose restriction to every snapshot is a snapshot
/// homomorphism. A source null binds to a target value of its epoch, where
/// `PerPoint(b')` means the pointwise-aligned mapping `(b, ℓ) ↦ (b', ℓ)`.
/// Scope rules:
///
/// * `PerPoint(b)` in epoch `E` may map pointwise to a constant, to a rigid
///   target null, or aligned onto a per-point target family of the same
///   epoch;
/// * `Rigid(b)` may map to a constant or a rigid target null; it may map to
///   a per-point target family only when `b` occurs at exactly **one** time
///   point (otherwise two snapshots would need `h(b)` to be two different
///   labeled nulls, violating globality — the paper's Example 2).
pub fn abstract_hom(from: &AbstractInstance, to: &AbstractInstance) -> bool {
    let zipped = from.zip_refined(to);
    // The time points each rigid source null spans (`None`: unboundedly many).
    let mut span: FxHashMap<NullId, Option<u64>> = FxHashMap::default();
    for (iv, s_from, _) in &zipped {
        for b in s_from.null_bases().1 {
            let points = span.entry(b).or_insert(Some(0));
            *points = points.zip(iv.len()).map(|(n, m)| n + m);
        }
    }

    // Refined epochs over one target epoch are adjacent, so consecutive
    // equal snapshots share one search context.
    let mut targets: Vec<&ASnapshot> = Vec::new();
    let (mut ids, mut keys) = (FxHashMap::default(), Vec::new());
    let mut goals = Vec::new();
    for (ei, (_, s_from, s_to)) in zipped.iter().enumerate() {
        if !targets.last().is_some_and(|t| std::ptr::eq(*t, *s_to)) {
            targets.push(s_to);
        }
        let ctx = targets.len() - 1;
        for (rel, row) in s_from.iter_all() {
            if !row.iter().any(AValue::is_null) {
                if !s_to.contains(rel, row) {
                    return false;
                }
                continue;
            }
            let terms = row
                .iter()
                .map(|v| match v {
                    AValue::Const(_) => Term::Fixed(*v),
                    AValue::PerPoint(n) => {
                        Term::Var(var_id(&mut ids, &mut keys, SrcKey::PerPoint(*n, ei)))
                    }
                    AValue::Rigid(n) => Term::Var(var_id(&mut ids, &mut keys, SrcKey::Rigid(*n))),
                })
                .collect();
            goals.push(Goal { ctx, rel, terms });
        }
    }
    // Rigid nulls spanning several points never bind to a per-point family.
    let pinned: Vec<bool> = keys
        .iter()
        .map(|k| matches!(k, SrcKey::Rigid(b) if span[b] != Some(1)))
        .collect();
    solve(
        &goals,
        keys.len(),
        |ctx, rel| targets[ctx].rows(rel).iter().map(|r| &r[..]),
        |x, v| !(pinned[x] && matches!(v, AValue::PerPoint(_))),
    )
    .is_some()
}

/// Homomorphic equivalence `a ∼ b` — the relation of Corollary 20.
pub fn hom_equivalent(a: &AbstractInstance, b: &AbstractInstance) -> bool {
    abstract_hom(a, b) && abstract_hom(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_view::AbstractInstanceBuilder;
    use std::sync::Arc;
    use tdx_logic::{RelationSchema, Schema};
    use tdx_storage::row;
    use tdx_temporal::Interval;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![RelationSchema::new(
                "Emp",
                &["name", "company", "salary"],
            )])
            .unwrap(),
        )
    }

    // ----- snapshot level -----

    #[test]
    fn snapshot_hom_basic() {
        let s = schema();
        let mut a = Instance::new(Arc::clone(&s));
        a.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::Null(NullId(0))],
        );
        let mut b = Instance::new(Arc::clone(&s));
        b.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::str("18k")],
        );
        // Null can map to the constant.
        let h = snapshot_hom(&a, &b).unwrap();
        assert_eq!(h[&NullId(0)], Value::str("18k"));
        // But not the other way: constants are rigid.
        assert!(snapshot_hom(&b, &a).is_none());
    }

    #[test]
    fn snapshot_hom_needs_consistent_nulls() {
        let s = schema();
        // a: Emp(Ada, IBM, N0), Emp(Bob, IBM, N0) — same unknown salary.
        let mut a = Instance::new(Arc::clone(&s));
        a.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::Null(NullId(0))],
        );
        a.insert_values(
            "Emp",
            [Value::str("Bob"), Value::str("IBM"), Value::Null(NullId(0))],
        );
        // b: different salaries.
        let mut b = Instance::new(Arc::clone(&s));
        b.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::str("18k")],
        );
        b.insert_values(
            "Emp",
            [Value::str("Bob"), Value::str("IBM"), Value::str("13k")],
        );
        assert!(snapshot_hom(&a, &b).is_none());
        // With independent nulls it works.
        let mut a2 = Instance::new(Arc::clone(&s));
        a2.insert_values(
            "Emp",
            [Value::str("Ada"), Value::str("IBM"), Value::Null(NullId(0))],
        );
        a2.insert_values(
            "Emp",
            [Value::str("Bob"), Value::str("IBM"), Value::Null(NullId(1))],
        );
        assert!(snapshot_hom(&a2, &b).is_some());
    }

    #[test]
    fn snapshot_hom_empty_source() {
        let s = schema();
        let a = Instance::new(Arc::clone(&s));
        let mut b = Instance::new(Arc::clone(&s));
        b.insert(
            tdx_logic::RelId(0),
            row([Value::str("x"), Value::str("y"), Value::str("z")]),
        );
        assert!(snapshot_hom(&a, &b).is_some());
        assert!(snapshot_hom(&b, &a).is_none());
    }

    // ----- abstract level: the paper's Example 2 -----

    /// J₁: Emp(Ada, IBM, N) in db₀ and db₁ with the *same* null N.
    fn j1() -> AbstractInstance {
        let mut b = AbstractInstanceBuilder::new(schema());
        b.add(
            "Emp",
            vec![
                AValue::str("Ada"),
                AValue::str("IBM"),
                AValue::Rigid(NullId(100)),
            ],
            iv(0, 2),
        );
        b.build()
    }

    /// J₂: Emp(Ada, IBM, M₁) in db₀, Emp(Ada, IBM, M₂) in db₁ — fresh per
    /// point.
    fn j2() -> AbstractInstance {
        let mut b = AbstractInstanceBuilder::new(schema());
        b.add(
            "Emp",
            vec![
                AValue::str("Ada"),
                AValue::str("IBM"),
                AValue::PerPoint(NullId(200)),
            ],
            iv(0, 2),
        );
        b.build()
    }

    #[test]
    fn example2_no_hom_j1_to_j2() {
        // The rigid N would have to equal M₀ at time 0 and M₁ at time 1 —
        // impossible for a single global mapping.
        assert!(!abstract_hom(&j1(), &j2()));
    }

    #[test]
    fn example2_hom_j2_to_j1() {
        // Each Mᵢ maps to N pointwise.
        assert!(abstract_hom(&j2(), &j1()));
        assert!(!hom_equivalent(&j1(), &j2()));
    }

    #[test]
    fn rigid_to_per_point_allowed_on_single_point() {
        // If the rigid null occurs at exactly one time point, it is just one
        // labeled null and may map onto one member of a per-point family.
        let mut b = AbstractInstanceBuilder::new(schema());
        b.add(
            "Emp",
            vec![
                AValue::str("Ada"),
                AValue::str("IBM"),
                AValue::Rigid(NullId(5)),
            ],
            iv(3, 4),
        );
        let single = b.build();
        let mut b = AbstractInstanceBuilder::new(schema());
        b.add(
            "Emp",
            vec![
                AValue::str("Ada"),
                AValue::str("IBM"),
                AValue::PerPoint(NullId(9)),
            ],
            iv(3, 4),
        );
        let target = b.build();
        assert!(abstract_hom(&single, &target));
    }

    #[test]
    fn per_point_aligns_only_within_epoch() {
        // Source: family over [0,4). Target: families over [0,2) and [2,4)
        // with different bases — pointwise alignment still works because the
        // source epoch refines against the target's.
        let mut b = AbstractInstanceBuilder::new(schema());
        b.add(
            "Emp",
            vec![
                AValue::str("A"),
                AValue::str("B"),
                AValue::PerPoint(NullId(1)),
            ],
            iv(0, 4),
        );
        let src = b.build();
        let mut b = AbstractInstanceBuilder::new(schema());
        b.add(
            "Emp",
            vec![
                AValue::str("A"),
                AValue::str("B"),
                AValue::PerPoint(NullId(2)),
            ],
            iv(0, 2),
        );
        b.add(
            "Emp",
            vec![
                AValue::str("A"),
                AValue::str("B"),
                AValue::PerPoint(NullId(3)),
            ],
            iv(2, 4),
        );
        let tgt = b.build();
        assert!(abstract_hom(&src, &tgt));
        assert!(abstract_hom(&tgt, &src));
    }

    #[test]
    fn constants_block_homs() {
        let mut b = AbstractInstanceBuilder::new(schema());
        b.add(
            "Emp",
            vec![AValue::str("Ada"), AValue::str("IBM"), AValue::str("18k")],
            iv(0, 2),
        );
        let a = b.build();
        let mut b = AbstractInstanceBuilder::new(schema());
        b.add(
            "Emp",
            vec![AValue::str("Ada"), AValue::str("IBM"), AValue::str("20k")],
            iv(0, 2),
        );
        let c = b.build();
        assert!(!abstract_hom(&a, &c));
        assert!(!abstract_hom(&c, &a));
    }

    #[test]
    fn hom_fails_when_target_missing_epoch() {
        let mut b = AbstractInstanceBuilder::new(schema());
        b.add(
            "Emp",
            vec![AValue::str("A"), AValue::str("B"), AValue::str("C")],
            iv(0, 4),
        );
        let wide = b.build();
        let mut b = AbstractInstanceBuilder::new(schema());
        b.add(
            "Emp",
            vec![AValue::str("A"), AValue::str("B"), AValue::str("C")],
            iv(0, 2),
        );
        let narrow = b.build();
        assert!(!abstract_hom(&wide, &narrow));
        assert!(abstract_hom(&narrow, &wide));
    }

    #[test]
    fn empty_instance_maps_anywhere() {
        let s = schema();
        let empty = AbstractInstance::empty(Arc::clone(&s));
        assert!(abstract_hom(&empty, &j1()));
        assert!(abstract_hom(&empty, &j2()));
        assert!(!abstract_hom(&j1(), &empty));
    }
}
