//! Fact files are untrusted input: what `load_source` / `load_target`
//! accept and reject, where their errors point, that UTF-8 text survives
//! the round trip into constants, and that no byte sequence makes them
//! panic.

use proptest::prelude::*;
use tdx::{parse_mapping, parse_query, DataExchange};

fn engine() -> DataExchange {
    DataExchange::new(parse_mapping(include_str!("../examples/data/paper.map")).unwrap())
}

fn load_err(text: &str) -> String {
    match engine().load_source(text) {
        Ok(_) => panic!("{text:?} loaded"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn accept_and_reject_set_is_pinned() {
    let ex = engine();
    let ok = ex
        .load_source("E(Ada, IBM) @ [0, 9223372036854775807)")
        .unwrap();
    assert_eq!(ok.total_len(), 1);
    for bad in [
        "E(Ada, IBM) @ [0, 9223372036854775808)",
        "E(Ada, IBM) @ [-3, 4)",
        "E(Ada, IBM) @ [5, 5)",
        "E(inf, x) @ [0, 1)",
        "E(Ada, IBM)",
        "E(Ada, 'IBM) @ [0, 1)",
    ] {
        assert!(ex.load_source(bad).is_err(), "{bad:?} was accepted");
    }
}

#[test]
fn schema_errors_name_the_facts_position() {
    let err = load_err("E(Ada, IBM) @ [0, 1)\n  Nope(x) @ [0, 5)");
    assert!(err.contains("not in the source schema"), "{err}");
    assert!(err.contains("2:3"), "{err}");
    let err = load_err("# header\nE(Ada) @ [0, 1)");
    assert!(err.contains("2:1") && err.contains("arity 2"), "{err}");
    let err = load_err("S(Ada, 18k) @ [0, 1). E(Ada, _c) @ [0, 1)");
    assert!(
        err.contains("1:23") && err.contains("must be complete"),
        "{err}"
    );
    // Syntax errors keep their own position.
    let err = load_err("E(Ada, IBM) @ [0, 1)\nE(Bob, IBM) @ [4, 2)");
    assert!(err.contains("parse error at 2:15"), "{err}");
    // Targets take named nulls, shared by name within the file.
    let t = engine()
        .load_target("Emp(Ada, IBM, _s) @ [0, 1)\nEmp(Bob, IBM, _s) @ [0, 1)")
        .unwrap();
    assert_eq!(t.nulls().len(), 1);
}

#[test]
fn quoted_utf8_survives_into_constants_and_queries() {
    let ex = engine();
    let src = ex
        .load_source("E(Ada, 'Zürich AG') @ [0, 5)\nS(Ada, \"18 000 €\") @ [0, 5)")
        .unwrap();
    let q = parse_query("Q(n, s) :- Emp(n, 'Zürich AG', s)")
        .unwrap()
        .into();
    let answers = ex.certain_answers(&src, &q).unwrap();
    assert_eq!(answers.len(), 1);
    let (tuple, _) = answers.rows().next().unwrap();
    assert_eq!(tuple[1].to_string(), "18 000 €");
}

/// Well-formed fact files to mutate: the paper's, the seeded employment
/// file, and one with quoted UTF-8 and named nulls.
const CORPUS: &[&str] = &[
    include_str!("../examples/data/figure4.facts"),
    include_str!("../examples/data/figure9.facts"),
    include_str!("data/employment40.facts"),
    "Emp('Zürich AG', \"∞\", _n1) @ [0, ∞). Emp(Bob, -12, 18k) @ [3, inf) % c\n",
];

/// Bytes that steer a mutation into the grammar's corners.
const SPICE: &[u8] = b"()[],@.'\"-_#%\n 09aZ\xe2\x88\x9e\xc3";

fn mutate(a: &[u8], b: &[u8], kind: u8, i: usize, j: usize, byte: u8) -> Vec<u8> {
    let (i, j) = (i % (a.len() + 1), j % (b.len() + 1));
    match kind % 3 {
        // Truncated.
        0 => a[..i].to_vec(),
        // Byte-flipped.
        1 => {
            let mut v = a.to_vec();
            if let Some(x) = v.get_mut(i) {
                *x = if byte.is_multiple_of(2) {
                    SPICE[(byte / 2) as usize % SPICE.len()]
                } else {
                    *x ^ byte
                };
            }
            v
        }
        // Spliced: a prefix of one file, then a suffix of another.
        _ => [&a[..i], &b[j..]].concat(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any text — truncated, byte-flipped or spliced fact files — loads or
    /// fails with an error; it never panics.
    #[test]
    fn loading_mutated_fact_files_never_panics(
        a in 0usize..4,
        b in 0usize..4,
        kind in any::<u8>(),
        i in any::<u64>(),
        j in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let bytes = mutate(
            CORPUS[a].as_bytes(),
            CORPUS[b].as_bytes(),
            kind,
            i as usize,
            j as usize,
            byte,
        );
        let text = String::from_utf8_lossy(&bytes);
        let ex = engine();
        let _ = ex.load_source(&text);
        let _ = ex.load_target(&text);
    }
}
