//! Regenerates every figure and analytic claim of *Temporal Data Exchange*.
//!
//! ```text
//! cargo run --release -p tdx-bench --bin experiments            # all
//! cargo run --release -p tdx-bench --bin experiments -- --exp F5
//! cargo run --release -p tdx-bench --bin experiments -- --list
//! ```
//!
//! Each experiment prints the paper-style artifact (a figure table or a
//! measured series) and PASS/FAIL checks of the properties the paper
//! asserts; `--list` prints the experiment index. The process exits
//! non-zero when any check fails, and `crates/bench/tests/experiments.rs`
//! runs it as a test.

use std::sync::Arc;
use std::time::Duration;
use tdx_bench::{banner, check, fmt_duration, growth_exponent, timed, Table};
use tdx_core::normalize::{candidate_groups, has_empty_intersection_property, naive_normalize};
use tdx_core::verify::{alignment_holds, is_solution_concrete};
use tdx_core::{
    abstract_chase, abstract_hom, c_chase, certain_answers_abstract, certain_answers_concrete,
    hom_equivalent, normalize, normalize as norm_fn, semantics, AValue, AbstractInstanceBuilder,
    ChaseOptions, TdxError,
};
use tdx_logic::{parse_query, parse_tgd, UnionQuery};
use tdx_storage::{NullId, TemporalInstance};
use tdx_temporal::Interval;
use tdx_workload::{
    clustered_instance, figure4_source, nested_intervals, paper_mapping, ClusteredConfig,
    EmploymentConfig, EmploymentWorkload, RandomConfig, RandomWorkload,
};

fn iv(s: u64, e: u64) -> Interval {
    Interval::new(s, e)
}

fn print_instance(i: &TemporalInstance) {
    tdx_storage::display::write_instance(&mut std::io::stdout().lock(), i).expect("write stdout");
}

// ---------------------------------------------------------------------
// F1 — Figure 1: the abstract view of the source
// ---------------------------------------------------------------------
fn exp_f1() -> bool {
    banner("F1", "Figure 1: abstract view of the employment source");
    let mapping = paper_mapping();
    let ic = figure4_source(&mapping);
    let ia = semantics(&ic);
    print!("{}", ia.render_window(2012..=2018));
    let mut ok = true;
    ok &= check(
        "snapshot 2013 = {E(Ada, IBM), E(Bob, IBM), S(Ada, 18k)}",
        ia.snapshot_at(2013).render() == "{E(Ada, IBM), E(Bob, IBM), S(Ada, 18k)}",
    );
    ok &= check(
        "snapshot 2018 = {E(Ada, Google), S(Ada, 18k), S(Bob, 13k)}",
        ia.snapshot_at(2018).render() == "{E(Ada, Google), S(Ada, 18k), S(Bob, 13k)}",
    );
    ok &= check(
        "finite change: snapshot 2050 equals snapshot 2018",
        ia.snapshot_at(2050) == ia.snapshot_at(2018),
    );
    ok
}

// ---------------------------------------------------------------------
// F2 — Figure 2 / Example 2: homomorphisms between abstract instances
// ---------------------------------------------------------------------
fn exp_f2() -> bool {
    banner(
        "F2",
        "Figure 2 / Example 2: J2 → J1 exists, J1 → J2 does not",
    );
    let schema = Arc::new(tdx_logic::parse_schema("Emp(name, company, salary).").unwrap());
    let mut b = AbstractInstanceBuilder::new(Arc::clone(&schema));
    b.add(
        "Emp",
        vec![
            AValue::str("Ada"),
            AValue::str("IBM"),
            AValue::Rigid(NullId(0)),
        ],
        iv(0, 2),
    );
    let j1 = b.build();
    let mut b = AbstractInstanceBuilder::new(schema);
    b.add(
        "Emp",
        vec![
            AValue::str("Ada"),
            AValue::str("IBM"),
            AValue::PerPoint(NullId(1)),
        ],
        iv(0, 2),
    );
    let j2 = b.build();
    println!("J1 (same null N in db0 and db1):\n{j1}");
    println!("J2 (fresh nulls M1, M2 per snapshot):\n{j2}");
    let mut ok = true;
    ok &= check("no homomorphism J1 → J2", !abstract_hom(&j1, &j2));
    ok &= check("homomorphism J2 → J1 exists", abstract_hom(&j2, &j1));
    ok
}

// ---------------------------------------------------------------------
// F3 — Figure 3: abstract chase result
// ---------------------------------------------------------------------
fn exp_f3() -> bool {
    banner("F3", "Figure 3: abstract chase of Figure 1");
    let mapping = paper_mapping();
    let ic = figure4_source(&mapping);
    let ja = abstract_chase(&semantics(&ic), &mapping).expect("paper chase succeeds");
    print!("{}", ja.render_window(2012..=2018));
    let mut ok = true;
    let s2013 = ja.snapshot_at(2013).render();
    ok &= check(
        "2013 holds Emp(Ada, IBM, 18k) and Emp(Bob, IBM, N')",
        s2013.contains("Emp(Ada, IBM, 18k)") && s2013.contains("Emp(Bob, IBM, N"),
    );
    ok &= check(
        "2018 holds exactly {Emp(Ada, Google, 18k)}",
        ja.snapshot_at(2018).render() == "{Emp(Ada, Google, 18k)}",
    );
    let (pp12, _) = ja.snapshot_at(2012).null_bases();
    let (pp13, _) = ja.snapshot_at(2013).null_bases();
    ok &= check(
        "nulls in 2012 and 2013 snapshots are distinct",
        pp12.is_disjoint(&pp13) && pp12.len() == 1 && pp13.len() == 1,
    );
    ok
}

// ---------------------------------------------------------------------
// F4 — Figure 4: the concrete source instance
// ---------------------------------------------------------------------
fn exp_f4() -> bool {
    banner("F4", "Figure 4: concrete source instance Ic");
    let mapping = paper_mapping();
    let ic = figure4_source(&mapping);
    print_instance(&ic);
    let mut ok = true;
    ok &= check("5 facts", ic.total_len() == 5);
    ok &= check("coalesced", ic.is_coalesced());
    ok &= check("complete (no nulls)", ic.is_complete());
    ok
}

// ---------------------------------------------------------------------
// F5 — Figure 5: Algorithm 1 normalization w.r.t. lhs σ2+
// ---------------------------------------------------------------------
fn exp_f5() -> bool {
    banner("F5", "Figure 5: norm(Ic, {E+(n,c,t) ∧ S+(n,s,t)})");
    let mapping = paper_mapping();
    let ic = figure4_source(&mapping);
    let phi = parse_tgd("E(n,c) & S(n,s) -> Emp(n,c,s)").unwrap().body;
    let out = normalize(&ic, &[&phi]).expect("normalization succeeds");
    print_instance(&out);
    let mut expected = TemporalInstance::new(ic.schema_arc());
    expected.insert_strs("E", &["Ada", "IBM"], iv(2012, 2013));
    expected.insert_strs("E", &["Ada", "IBM"], iv(2013, 2014));
    expected.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
    expected.insert_strs("E", &["Bob", "IBM"], iv(2013, 2015));
    expected.insert_strs("E", &["Bob", "IBM"], iv(2015, 2018));
    expected.insert_strs("S", &["Ada", "18k"], iv(2013, 2014));
    expected.insert_strs("S", &["Ada", "18k"], Interval::from(2014));
    expected.insert_strs("S", &["Bob", "13k"], iv(2015, 2018));
    expected.insert_strs("S", &["Bob", "13k"], Interval::from(2018));
    let mut ok = true;
    ok &= check(
        "matches the paper's Figure 5 exactly (9 facts)",
        out == expected,
    );
    ok &= check(
        "output has the empty intersection property",
        has_empty_intersection_property(&out, &[&phi]).unwrap(),
    );
    ok &= check(
        "⟦·⟧ is preserved",
        semantics(&ic).eq_semantic(&semantics(&out)),
    );
    ok
}

// ---------------------------------------------------------------------
// F6 — Figure 6: naïve normalization
// ---------------------------------------------------------------------
fn exp_f6() -> bool {
    banner(
        "F6",
        "Figure 6: naïve normalization of Ic (endpoint-oblivious)",
    );
    let mapping = paper_mapping();
    let ic = figure4_source(&mapping);
    let out = naive_normalize(&ic);
    print_instance(&out);
    let mut ok = true;
    ok &= check("14 facts (vs 9 with Algorithm 1)", out.total_len() == 14);
    ok &= check(
        "⟦·⟧ is preserved",
        semantics(&ic).eq_semantic(&semantics(&out)),
    );
    let phi = parse_tgd("E(n,c) & S(n,s) -> Emp(n,c,s)").unwrap().body;
    ok &= check(
        "output has the empty intersection property",
        has_empty_intersection_property(&out, &[&phi]).unwrap(),
    );
    ok
}

// ---------------------------------------------------------------------
// F7F8 — Example 14 / Figures 7→8: Algorithm 1 end to end
// ---------------------------------------------------------------------
fn exp_f7f8() -> bool {
    banner(
        "F7F8",
        "Figures 7→8 / Example 14: Algorithm 1 grouping and output",
    );
    let schema = Arc::new(tdx_logic::parse_schema("R(a). P(a). S(a).").unwrap());
    let mut ic = TemporalInstance::new(schema);
    ic.insert_strs("R", &["a"], iv(5, 11)); // f1
    ic.insert_strs("P", &["a"], iv(8, 15)); // f2
    ic.insert_strs("P", &["b"], iv(20, 25)); // f4
    ic.insert_strs("S", &["a"], iv(7, 10)); // f3
    ic.insert_strs("S", &["b"], Interval::from(18)); // f5
    println!("input (Figure 7):");
    print_instance(&ic);
    let phi1 = parse_tgd("R(x) & P(y) -> Sink(x)").unwrap().body;
    let phi2 = parse_tgd("P(x) & S(y) -> Sink(x)").unwrap().body;
    let groups = candidate_groups(&ic, &[&phi1, &phi2]).unwrap();
    println!(
        "\nmerged groups S = {{Δ1, Δ2}} with |Δ1| = {}, |Δ2| = {}",
        groups[0].len(),
        groups[1].len()
    );
    let out = normalize(&ic, &[&phi1, &phi2]).unwrap();
    println!("\noutput (Figure 8; the paper lists f31 twice — corrected to f32):");
    print_instance(&out);
    let mut expected = TemporalInstance::new(ic.schema_arc());
    for (s, e) in [(5, 7), (7, 8), (8, 10), (10, 11)] {
        expected.insert_strs("R", &["a"], iv(s, e));
    }
    for (s, e) in [(8, 10), (10, 11), (11, 15)] {
        expected.insert_strs("P", &["a"], iv(s, e));
    }
    expected.insert_strs("P", &["b"], iv(20, 25));
    for (s, e) in [(7, 8), (8, 10)] {
        expected.insert_strs("S", &["a"], iv(s, e));
    }
    expected.insert_strs("S", &["b"], iv(18, 20));
    expected.insert_strs("S", &["b"], iv(20, 25));
    expected.insert_strs("S", &["b"], Interval::from(25));
    let mut ok = true;
    ok &= check(
        "groups merge to {f1,f2,f3} and {f4,f5}",
        groups.len() == 2 && groups[0].len() == 3 && groups[1].len() == 2,
    );
    ok &= check("output matches Figure 8 (13 facts)", out == expected);
    ok
}

// ---------------------------------------------------------------------
// F9 — Figure 9 / Example 17: the c-chase result
// ---------------------------------------------------------------------
fn exp_f9() -> bool {
    banner(
        "F9",
        "Figure 9 / Example 17: c-chase of the concrete source",
    );
    let mapping = paper_mapping();
    let ic = figure4_source(&mapping);
    let result = c_chase(&ic, &mapping).expect("paper chase succeeds");
    print_instance(&result.target);
    println!(
        "\nstats: {} tgd steps, {} egd rounds, {} nulls created",
        result.stats.tgd_steps, result.stats.egd_rounds, result.stats.nulls_created
    );
    let emp = tdx_logic::RelId(0);
    let jc = &result.target;
    let mut ok = true;
    ok &= check("5 facts as in Figure 9", jc.total_len() == 5);
    ok &= check(
        "Emp(Ada, IBM, 18k, [2013,2014)) present",
        jc.contains(
            emp,
            &tdx_storage::row([
                tdx_storage::Value::str("Ada"),
                tdx_storage::Value::str("IBM"),
                tdx_storage::Value::str("18k"),
            ]),
            iv(2013, 2014),
        ),
    );
    let null_facts: Vec<_> = jc
        .facts(emp)
        .iter()
        .filter(|f| f.data[2].is_null())
        .collect();
    ok &= check(
        "annotated nulls N^[2012,2013) (Ada) and M^[2013,2015) (Bob)",
        null_facts.len() == 2
            && null_facts.iter().any(|f| f.interval == iv(2012, 2013))
            && null_facts.iter().any(|f| f.interval == iv(2013, 2015)),
    );
    ok &= check(
        "result is a concrete solution",
        is_solution_concrete(&ic, jc, &mapping).unwrap(),
    );
    // The existential-free σ2 fires first, so σ1 fires only where no
    // salary witnesses it and the egd has nothing left to merge.
    ok &= check("5 tgd steps (3 σ2 + 2 σ1)", result.stats.tgd_steps == 5);
    ok &= check("0 egd rounds", result.stats.egd_rounds == 0);
    ok &= check("2 nulls created", result.stats.nulls_created == 2);
    ok
}

// ---------------------------------------------------------------------
// F10 — Corollary 20: the Figure 10 square commutes
// ---------------------------------------------------------------------
fn exp_f10() -> bool {
    banner(
        "F10",
        "Figure 10 / Corollary 20: ⟦c-chase(Ic)⟧ ∼ chase(⟦Ic⟧) on random workloads",
    );
    let mut ok = true;
    let mut table = Table::new(&["workload", "facts", "aligned"]);
    // The paper example.
    let mapping = paper_mapping();
    let ic = figure4_source(&mapping);
    let aligned = alignment_holds(&ic, &mapping, &ChaseOptions::default()).unwrap();
    table.row(&[
        "figure4".into(),
        ic.total_len().to_string(),
        aligned.to_string(),
    ]);
    ok &= aligned;
    // Employment populations.
    for seed in [1u64, 2, 3] {
        let w = EmploymentWorkload::generate(&EmploymentConfig {
            persons: 12,
            horizon: 24,
            seed,
            ..EmploymentConfig::default()
        });
        let aligned = alignment_holds(&w.source, &w.mapping, &ChaseOptions::default()).unwrap();
        table.row(&[
            format!("employment/seed{seed}"),
            w.source.total_len().to_string(),
            aligned.to_string(),
        ]);
        ok &= aligned;
    }
    // Random mappings; chase may fail — then both routes must fail.
    for seed in 0..8u64 {
        let w = RandomWorkload::generate(&RandomConfig {
            seed,
            facts: 16,
            horizon: 16,
            ..RandomConfig::default()
        });
        let concrete = c_chase(&w.source, &w.mapping);
        let abs = abstract_chase(&semantics(&w.source), &w.mapping);
        let (aligned, label) = match (&concrete, &abs) {
            (Ok(jc), Ok(ja)) => (hom_equivalent(&semantics(&jc.target), ja), "ok"),
            (Err(TdxError::ChaseFailure { .. }), Err(TdxError::ChaseFailure { .. })) => {
                (true, "both-fail")
            }
            _ => (false, "disagree"),
        };
        table.row(&[
            format!("random/seed{seed} ({label})"),
            w.source.total_len().to_string(),
            aligned.to_string(),
        ]);
        ok &= aligned;
    }
    table.print();
    check("all workloads aligned (or consistently failing)", ok)
}

// ---------------------------------------------------------------------
// T13 — Theorem 13: O(n²) normalization worst case
// ---------------------------------------------------------------------
fn exp_t13() -> bool {
    banner(
        "T13",
        "Theorem 13: normalized size is Θ(n²) on nested-overlap workloads",
    );
    let mut table = Table::new(&["n", "|norm(Ic)|", "size/n²", "time"]);
    let mut samples = Vec::new();
    for n in [8usize, 16, 32, 64, 128, 256] {
        let (ic, conj) = nested_intervals(n);
        let (out, dt) = timed(|| norm_fn(&ic, &[&conj]).unwrap());
        let size = out.total_len();
        samples.push((n as f64, size as f64));
        table.row(&[
            n.to_string(),
            size.to_string(),
            format!("{:.3}", size as f64 / (n * n) as f64),
            fmt_duration(dt),
        ]);
    }
    table.print();
    let k = growth_exponent(&samples);
    println!("fitted growth exponent: n^{k:.3}");
    let mut ok = true;
    ok &= check(
        "sizes are exactly n² on this family",
        samples.iter().all(|(n, y)| *y == n * n),
    );
    ok &= check(
        "fitted exponent within [1.9, 2.1]",
        (1.9..=2.1).contains(&k),
    );
    ok
}

// ---------------------------------------------------------------------
// TRADE — §4.2: naïve vs Algorithm 1 trade-off
// ---------------------------------------------------------------------
fn exp_trade() -> bool {
    banner(
        "TRADE",
        "§4.2 trade-off: naïve normalization is faster but fragments more",
    );
    let mut ok = true;
    let mut table = Table::new(&[
        "workload",
        "facts",
        "|naive|",
        "naive time",
        "|alg1|",
        "alg1 time",
    ]);
    for clusters in [8usize, 16, 32, 64] {
        let (ic, conj) = clustered_instance(&ClusteredConfig {
            clusters,
            pairs_per_cluster: 2,
            overlapping: true,
        });
        let (nv, t_nv) = timed(|| naive_normalize(&ic));
        let (sm, t_sm) = timed(|| norm_fn(&ic, &[&conj]).unwrap());
        table.row(&[
            format!("sparse/c{clusters}"),
            ic.total_len().to_string(),
            nv.total_len().to_string(),
            fmt_duration(t_nv),
            sm.total_len().to_string(),
            fmt_duration(t_sm),
        ]);
        ok &= sm.total_len() < nv.total_len();
        ok &= semantics(&sm).eq_semantic(&semantics(&nv));
    }
    // Dense family: output sizes converge (both ~n²), naïve stays cheaper.
    for n in [32usize, 64] {
        let (ic, conj) = nested_intervals(n);
        let (nv, t_nv) = timed(|| naive_normalize(&ic));
        let (sm, t_sm) = timed(|| norm_fn(&ic, &[&conj]).unwrap());
        table.row(&[
            format!("dense/n{n}"),
            ic.total_len().to_string(),
            nv.total_len().to_string(),
            fmt_duration(t_nv),
            sm.total_len().to_string(),
            fmt_duration(t_sm),
        ]);
        ok &= nv.total_len() == sm.total_len();
    }
    table.print();
    check(
        "Algorithm 1 strictly smaller on sparse inputs, equal on dense",
        ok,
    )
}

// ---------------------------------------------------------------------
// QA — Theorem 21 / Corollary 22: certain answers
// ---------------------------------------------------------------------
fn exp_qa() -> bool {
    banner(
        "QA",
        "Thm 21 / Cor 22: naïve evaluation on the c-chase result = certain answers",
    );
    let mut ok = true;
    let mut table = Table::new(&[
        "workload", "query", "tuples", "concrete", "abstract", "equal",
    ]);
    let queries = [
        "Q(n, s) :- Emp(n, c, s)",
        "Q(n, c) :- Emp(n, c, s)",
        "Q(m, c) :- Emp(Ada, c, s) & Emp(m, c, s2)",
    ];
    let mapping = paper_mapping();
    let ic = figure4_source(&mapping);
    for q_text in &queries {
        let q: UnionQuery = parse_query(q_text).unwrap().into();
        let (concrete, t_c) = timed(|| {
            certain_answers_concrete(&ic, &mapping, &q, &ChaseOptions::default()).unwrap()
        });
        let (abstract_side, t_a) = timed(|| certain_answers_abstract(&ic, &mapping, &q).unwrap());
        let equal = concrete.epochs() == abstract_side;
        table.row(&[
            "figure4".into(),
            q_text.chars().take(24).collect(),
            concrete.len().to_string(),
            fmt_duration(t_c),
            fmt_duration(t_a),
            equal.to_string(),
        ]);
        ok &= equal;
    }
    for seed in [5u64, 6] {
        let w = EmploymentWorkload::generate(&EmploymentConfig {
            persons: 15,
            horizon: 24,
            seed,
            ..EmploymentConfig::default()
        });
        let q: UnionQuery = parse_query("Q(n, s) :- Emp(n, c, s)").unwrap().into();
        let (concrete, t_c) = timed(|| {
            certain_answers_concrete(&w.source, &w.mapping, &q, &ChaseOptions::default()).unwrap()
        });
        let (abstract_side, t_a) =
            timed(|| certain_answers_abstract(&w.source, &w.mapping, &q).unwrap());
        let equal = concrete.epochs() == abstract_side;
        table.row(&[
            format!("employment/seed{seed}"),
            "Q(n, s)".into(),
            concrete.len().to_string(),
            fmt_duration(t_c),
            fmt_duration(t_a),
            equal.to_string(),
        ]);
        ok &= equal;
    }
    table.print();
    // The paper's headline answer set.
    let q: UnionQuery = parse_query("Q(n, s) :- Emp(n, c, s)").unwrap().into();
    let ans = certain_answers_concrete(&ic, &mapping, &q, &ChaseOptions::default()).unwrap();
    println!("\ncertain salaries for Figure 4:\n{ans}");
    ok &= check(
        "Ada's 2012 salary and Bob's 2013–2015 salary are not certain",
        ans.at(2012).is_empty() && ans.at(2014).len() == 1,
    );
    check("both routes agree on every workload and query", ok)
}

// ---------------------------------------------------------------------
// FAIL — Prop 4(2) / Thm 19(2): failing chase ⇔ no solution
// ---------------------------------------------------------------------
fn exp_fail() -> bool {
    banner(
        "FAIL",
        "Prop 4(2) / Thm 19(2): conflicting sources fail both chases",
    );
    let mut ok = true;
    for seed in [11u64, 12, 13] {
        let w = EmploymentWorkload::generate(&EmploymentConfig {
            persons: 6,
            horizon: 20,
            conflicts: 2,
            seed,
            ..EmploymentConfig::default()
        });
        let concrete = c_chase(&w.source, &w.mapping);
        let abstract_side = abstract_chase(&semantics(&w.source), &w.mapping);
        let both_fail = matches!(concrete, Err(TdxError::ChaseFailure { .. }))
            && matches!(abstract_side, Err(TdxError::ChaseFailure { .. }));
        if let Err(e) = &concrete {
            println!("  seed {seed}: {e}");
        }
        ok &= check(&format!("seed {seed}: both routes fail"), both_fail);
    }
    // And the overlap-free variant succeeds: timing matters, not just data.
    let mapping = paper_mapping();
    let mut benign = TemporalInstance::new(Arc::new(mapping.source().clone()));
    benign.insert_strs("E", &["Ada", "IBM"], iv(0, 10));
    benign.insert_strs("S", &["Ada", "18k"], iv(0, 5));
    benign.insert_strs("S", &["Ada", "20k"], iv(5, 10));
    ok &= check(
        "two salaries at disjoint times are fine (a raise, not a conflict)",
        c_chase(&benign, &mapping).is_ok(),
    );
    ok
}

// ---------------------------------------------------------------------
// SCALE — c-chase end-to-end scaling
// ---------------------------------------------------------------------
fn exp_scale() -> bool {
    banner(
        "SCALE",
        "c-chase scaling and phase breakdown on employment workloads",
    );
    let mut table = Table::new(&[
        "persons",
        "src facts",
        "norm facts",
        "tgd steps",
        "egd rounds",
        "out facts",
        "total time",
    ]);
    let mut ok = true;
    let mut samples = Vec::new();
    for persons in [10usize, 20, 40, 80] {
        let w = EmploymentWorkload::generate(&EmploymentConfig {
            persons,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        });
        let (result, dt) = timed(|| c_chase(&w.source, &w.mapping).unwrap());
        samples.push((w.source.total_len() as f64, dt.as_secs_f64()));
        ok &= is_solution_concrete(&w.source, &result.target, &w.mapping).unwrap();
        table.row(&[
            persons.to_string(),
            w.source.total_len().to_string(),
            result.stats.source_facts_normalized.to_string(),
            result.stats.tgd_steps.to_string(),
            result.stats.egd_rounds.to_string(),
            result.stats.target_facts_out.to_string(),
            fmt_duration(dt),
        ]);
    }
    table.print();
    let k = growth_exponent(&samples);
    println!("fitted time growth: facts^{k:.2}");
    check("every result verified as a solution", ok)
}

// ---------------------------------------------------------------------
// RENORM — reproduction finding: §4.3's single normalization is incomplete
// ---------------------------------------------------------------------
fn exp_renorm() -> bool {
    banner(
        "RENORM",
        "finding: egd chains need re-normalization (tests/renormalization.rs)",
    );
    let mapping = tdx_logic::parse_mapping(
        "source { S1(k, v)  Q0(u, k) }
         target { R(a, b)  P(a, k)  Q(u, k) }
         tgd t1: S1(k, v) -> exists w . R(w, v) & P(w, k)
         tgd t2: Q0(u, k) -> Q(u, k)
         egd e2: P(w, k) & Q(u, k) -> w = u
         egd e1: R(x, y) & R(x, y2) -> y = y2",
    )
    .unwrap();
    let mut ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
    ic.insert_strs("S1", &["k1", "c1"], iv(0, 5));
    ic.insert_strs("S1", &["k2", "c2"], iv(3, 8));
    ic.insert_strs("Q0", &["anchor", "k1"], iv(0, 5));
    ic.insert_strs("Q0", &["anchor", "k2"], iv(3, 8));
    println!(
        "e2 pins the existential w to `anchor` separately on [0,5) and [3,8);\n\
         only then do the two R facts join on their first column — with the\n\
         misaligned overlap [3,5) where e1 clashes c1 ≠ c2.\n"
    );
    let mut ok = true;
    let abstract_side = abstract_chase(&semantics(&ic), &mapping);
    ok &= check(
        "abstract chase fails on [3,5) (ground truth)",
        matches!(
            &abstract_side,
            Err(TdxError::ChaseFailure { interval: Some(i), .. }) if *i == iv(3, 5)
        ),
    );
    let default_mode = tdx_core::c_chase_with(&ic, &mapping, &ChaseOptions::default());
    ok &= check(
        "default c-chase (re-normalizing) fails identically",
        matches!(
            &default_mode,
            Err(TdxError::ChaseFailure { interval: Some(i), .. }) if *i == iv(3, 5)
        ),
    );
    let faithful = tdx_core::c_chase_with(&ic, &mapping, &ChaseOptions::paper_faithful());
    let non_solution = match &faithful {
        Ok(r) => !is_solution_concrete(&ic, &r.target, &mapping).unwrap(),
        Err(_) => false,
    };
    ok &= check(
        "paper-faithful single normalization returns a NON-solution",
        non_solution,
    );
    ok
}

// ---------------------------------------------------------------------
// CORE — §7 extension: pointwise cores of solutions
// ---------------------------------------------------------------------
fn exp_core() -> bool {
    banner(
        "CORE",
        "§7 extension: pointwise cores prune subsumed witnesses",
    );
    use tdx_core::extension::cores::concrete_core;
    use tdx_core::{DeltaBatch, IncrementalExchange};
    // Without the egd the ∃-witness survives next to the constant fact.
    // In one batch st2 fires first and witnesses st1 where the salary is
    // known, so the salary arrives a batch after the job: st1 has already
    // fired over the whole tenure when st2 places the constant fact.
    let mapping = tdx_logic::parse_mapping(
        "source { E(name, company)  S(name, salary) }
         target { Emp(name, company, salary) }
         tgd st1: E(n,c) -> exists s . Emp(n,c,s)
         tgd st2: E(n,c) & S(n,s) -> Emp(n,c,s)",
    )
    .unwrap();
    let mut session = IncrementalExchange::new(mapping.clone()).unwrap();
    for (rel, vals, interval) in [
        ("E", ["Ada", "IBM"], iv(0, 10)),
        ("S", ["Ada", "18k"], iv(4, 10)),
    ] {
        let mut batch = TemporalInstance::new(Arc::new(mapping.source().clone()));
        batch.insert_strs(rel, &vals, interval);
        session.apply(&DeltaBatch::from_instance(&batch)).unwrap();
    }
    let jc = session.target();
    let core = concrete_core(&jc);
    println!("chase result (no egd — redundant witness):");
    print_instance(&jc);
    println!("\npointwise core:");
    print_instance(&core);
    let sem_full = semantics(&jc);
    let sem_core = semantics(&core);
    let mut ok = true;
    ok &= check(
        "core removes the null fact where 18k is known",
        sem_core.snapshot_at(6).render() == "{Emp(Ada, IBM, 18k)}"
            && sem_full.snapshot_at(6).total_len() == 2,
    );
    ok &= check(
        "core keeps the null fact where the salary is genuinely unknown",
        sem_core.snapshot_at(2).total_len() == 1 && !sem_core.snapshot_at(2).is_complete(),
    );
    ok &= check(
        "core is homomorphically equivalent to the original",
        hom_equivalent(&sem_full, &sem_core),
    );
    ok
}

// ---------------------------------------------------------------------
// MODAL — §7 extension: temporal (modal) s-t tgds
// ---------------------------------------------------------------------
fn exp_modal() -> bool {
    banner(
        "MODAL",
        "§7 extension: the PhD-candidate modal dependency, chased and verified",
    );
    use tdx_core::extension::temporal_chase::{
        satisfies_temporal_tgd, temporal_chase, TemporalSetting,
    };
    let base = tdx_logic::SchemaMapping::new(
        tdx_logic::parse_schema("PhDgrad(name).").unwrap(),
        tdx_logic::parse_schema("PhDCan(name, adviser, topic).").unwrap(),
        vec![],
        vec![],
    )
    .unwrap();
    let setting = TemporalSetting::new(
        base,
        vec![tdx_logic::parse_temporal_tgd(
            "PhDgrad(n) -> sometime_past exists adv, top . PhDCan(n, adv, top)",
        )
        .unwrap()
        .named("grad")],
    )
    .unwrap();
    let src_schema = Arc::new(tdx_logic::parse_schema("PhDgrad(name).").unwrap());
    let mut b = AbstractInstanceBuilder::new(Arc::clone(&src_schema));
    b.add("PhDgrad", vec![AValue::str("Ada")], iv(5, 6));
    let src = b.build();
    let tgt = temporal_chase(&src, &setting).unwrap();
    print!("{}", tgt.render_window(3..=6));
    let mut ok = true;
    ok &= check(
        "witness candidacy invented at year 4 with fresh nulls",
        tgt.snapshot_at(4).total_len() == 1 && !tgt.snapshot_at(4).is_complete(),
    );
    ok &= check(
        "result satisfies the 2-FOL semantics",
        satisfies_temporal_tgd(&src, &tgt, &setting.temporal_tgds[0]).unwrap(),
    );
    // Graduating at the beginning of time is provably unsatisfiable.
    let mut b = AbstractInstanceBuilder::new(src_schema);
    b.add("PhDgrad", vec![AValue::str("Eve")], iv(0, 1));
    let src0 = b.build();
    ok &= check(
        "◇⁻ obligation at time 0 reported as unsatisfiable",
        matches!(
            temporal_chase(&src0, &setting),
            Err(TdxError::TemporalUnsatisfiable { .. })
        ),
    );
    ok
}

type Experiment = fn() -> bool;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all: Vec<(&str, Experiment)> = vec![
        ("F1", exp_f1 as Experiment),
        ("F2", exp_f2),
        ("F3", exp_f3),
        ("F4", exp_f4),
        ("F5", exp_f5),
        ("F6", exp_f6),
        ("F7F8", exp_f7f8),
        ("F9", exp_f9),
        ("F10", exp_f10),
        ("T13", exp_t13),
        ("TRADE", exp_trade),
        ("QA", exp_qa),
        ("FAIL", exp_fail),
        ("SCALE", exp_scale),
        ("RENORM", exp_renorm),
        ("CORE", exp_core),
        ("MODAL", exp_modal),
    ];
    if args.iter().any(|a| a == "--list") {
        for (id, _) in &all {
            println!("{id}");
        }
        return;
    }
    let filter: Option<String> = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_uppercase());
    let mut results: Vec<(&str, bool, Duration)> = Vec::new();
    for (id, f) in &all {
        if let Some(want) = &filter {
            if want != id {
                continue;
            }
        }
        let (ok, dt) = timed(f);
        results.push((id, ok, dt));
    }
    if results.is_empty() {
        eprintln!("no experiment matches the filter; try --list");
        std::process::exit(2);
    }
    banner("SUMMARY", "paper artifact checks");
    let mut table = Table::new(&["experiment", "status", "time"]);
    let mut all_ok = true;
    for (id, ok, dt) in &results {
        table.row(&[
            id.to_string(),
            if *ok { "PASS" } else { "FAIL" }.into(),
            fmt_duration(*dt),
        ]);
        all_ok &= ok;
    }
    table.print();
    if !all_ok {
        std::process::exit(1);
    }
}
