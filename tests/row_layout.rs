//! The row type against a `Vec<Value>` oracle.
//!
//! A [`Tuple`] of arity ≤ 3 is 32 bytes of untagged words plus a type
//! mask; everything that stores, hashes, compares, indexes or ships a row
//! relies on that packing being invisible. These properties pin it from
//! the outside, on both sides of the inline/heap boundary, with the values
//! a word-wise shortcut gets wrong: negative integers, `i64::MIN`/`MAX`,
//! and an `Int` and a `Sym` that share a word.
//!
//! Cases come from the workspace's seeded [`SmallRng`], so a failing
//! `case` number replays.

use std::collections::BTreeSet;

use parallel_datalog::common::fxhash::hash_one;
use parallel_datalog::common::SymbolId;
use parallel_datalog::prelude::*;
use parallel_datalog::runtime::codec::{decode_batch_into, encode_batch};

const CASES: u64 = 2_000;
const MAX_ARITY: u64 = 6;

/// Boundary values mixed with draws from `small`, a domain narrow enough
/// that two random rows often collide, so `==` and `cmp` see equal
/// prefixes and `Int(k)` meets `Sym(k)`.
fn arb_value(rng: &mut SmallRng, small: u64) -> Value {
    match rng.gen_below(10) {
        0 => Value::Int(i64::MIN),
        1 => Value::Int(-1),
        2 => Value::Int(0),
        3 => Value::Int(1),
        4 => Value::Int(i64::MAX),
        5 => Value::Sym(SymbolId(0)),
        6 => Value::Sym(SymbolId(u32::MAX)),
        7 => Value::Int(rng.next_u64() as i64),
        8 => Value::Int(rng.gen_below(small) as i64 - (small / 2) as i64),
        _ => Value::Sym(SymbolId(rng.gen_below(small) as u32)),
    }
}

fn arb_row(rng: &mut SmallRng, arity: usize, small: u64) -> Vec<Value> {
    (0..arity).map(|_| arb_value(rng, small)).collect()
}

#[test]
fn a_row_is_32_bytes() {
    assert_eq!(std::mem::size_of::<Tuple>(), 32);
}

#[test]
fn new_iter_get_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x32_B0);
    for case in 0..CASES {
        let arity = rng.gen_below(MAX_ARITY + 1) as usize;
        let row = arb_row(&mut rng, arity, 4);
        let t = Tuple::new(&row);
        assert_eq!(t.arity(), arity, "case {case}");
        assert_eq!(t.is_inline(), arity <= 3, "case {case}");
        assert_eq!(t.iter().collect::<Vec<_>>(), row, "case {case}");
        for (k, &v) in row.iter().enumerate() {
            assert_eq!(t.get(k), v, "case {case} column {k}");
        }
        assert_eq!(Tuple::from_vec(row.clone()), t, "case {case}");
        assert_eq!(row.iter().copied().collect::<Tuple>(), t, "case {case}");
    }
}

#[test]
fn eq_cmp_hash_and_project_agree_with_the_value_oracle() {
    let mut rng = SmallRng::seed_from_u64(0x32_B1);
    for case in 0..CASES {
        // Mostly equal arities, so comparisons get past the first column.
        let arity = rng.gen_below(MAX_ARITY + 1) as usize;
        let other = if rng.gen_bool(0.8) { arity } else { rng.gen_below(MAX_ARITY + 1) as usize };
        let a = arb_row(&mut rng, arity, 3);
        let mut b = arb_row(&mut rng, other, 3);
        if rng.gen_bool(0.3) {
            // A shared prefix, so the deciding column is a late one.
            let keep = rng.gen_below(a.len().min(b.len()) as u64 + 1) as usize;
            b[..keep].copy_from_slice(&a[..keep]);
        }
        let (ta, tb) = (Tuple::new(&a), Tuple::new(&b));
        assert_eq!(ta == tb, a == b, "case {case}: {a:?} == {b:?}");
        assert_eq!(ta.cmp(&tb), a.cmp(&b), "case {case}: {a:?} cmp {b:?}");
        assert_eq!(tb.cmp(&ta), b.cmp(&a), "case {case}: {b:?} cmp {a:?}");
        if a == b {
            assert_eq!(hash_one(&ta), hash_one(&tb), "case {case}");
        }
        if !a.is_empty() {
            let columns: Vec<usize> = (0..rng.gen_below(MAX_ARITY + 1))
                .map(|_| rng.gen_below(a.len() as u64) as usize)
                .collect();
            let expect: Vec<Value> = columns.iter().map(|&c| a[c]).collect();
            assert_eq!(ta.project(&columns), Tuple::new(&expect), "case {case}: {a:?} onto {columns:?}");
        }
    }
}

#[test]
fn int_and_sym_sharing_a_word_differ() {
    for k in [0u32, 1, 7, u32::MAX] {
        for arity in 1..=4usize {
            for at in 0..arity {
                let ints: Vec<Value> = (0..arity).map(|_| Value::Int(i64::from(k))).collect();
                let mut mixed = ints.clone();
                mixed[at] = Value::Sym(SymbolId(k));
                let (i, m) = (Tuple::new(&ints), Tuple::new(&mixed));
                assert_ne!(i, m, "Int({k}) vs Sym({k}) at column {at} of {arity}");
                assert!(i < m, "Int sorts before Sym");
                assert_ne!(hash_one(&i), hash_one(&m));
                assert_eq!(m.get(at), Value::Sym(SymbolId(k)));
            }
        }
    }
}

#[test]
fn relation_matches_a_btreeset_under_insert_delete_reinsert() {
    let mut rng = SmallRng::seed_from_u64(0x32_B2);
    for arity in 0..=MAX_ARITY as usize {
        let mut rel = Relation::new(arity);
        let mut oracle: BTreeSet<Vec<Value>> = BTreeSet::new();
        for step in 0..1_500 {
            let row = arb_row(&mut rng, arity, 3);
            let t = Tuple::new(&row);
            if rng.gen_bool(0.3) {
                assert_eq!(rel.delete(&t), oracle.remove(&row), "arity {arity} step {step}");
            } else {
                assert_eq!(rel.insert(t.clone()).unwrap(), oracle.insert(row.clone()), "arity {arity} step {step}");
            }
            assert_eq!(rel.contains(&t), oracle.contains(&row), "arity {arity} step {step}");
        }
        // The batch path drains duplicates of live rows and re-adds dead ones.
        let mut batch: Vec<Tuple> = (0..500).map(|_| Tuple::new(&arb_row(&mut rng, arity, 3))).collect();
        let fresh: BTreeSet<Vec<Value>> = batch
            .iter()
            .map(|t| t.iter().collect::<Vec<_>>())
            .filter(|row| !oracle.contains(row))
            .collect();
        assert_eq!(rel.insert_batch(&mut batch), fresh.len() as u64, "arity {arity}");
        oracle.extend(fresh);
        assert_eq!(rel.live_len(), oracle.len(), "arity {arity}");
        let expect: Vec<Tuple> = oracle.iter().map(|row| Tuple::new(row)).collect();
        assert_eq!(rel.sorted(), expect, "arity {arity}: `sorted` is the Value order");
    }
}

/// Loading a parsed unit builds every base arena the way inserting its
/// facts one at a time, in source order, does: the same rows in the same
/// order, each kept where it first occurs, and `load_facts` counts the
/// distinct ones. The oracle parses each clause alone, in order, over one
/// interner, so its symbol ids are the whole unit's. The fixture repeats
/// facts, gives a derived predicate facts, uses `q` at two arities,
/// interleaves its predicates and holds escaped strings and the extreme
/// integers.
#[test]
fn loading_builds_the_arenas_that_per_fact_inserts_build() {
    use parallel_datalog::common::FxHashMap;
    use parallel_datalog::frontend::lexer::{tokenize, TokenKind};
    use parallel_datalog::frontend::parser::parse_program_with;
    const FIXTURE: &str = r#"p(X, Y) :- e(X, Y).
e(1, 2). e(1, 2). q(a). e(-9223372036854775808, 9223372036854775807).
p(7, 8). p(7, 8). q(a, b). q("a\"b\\c", "new\nline"). e(-1, zed). q(a).
e(zed, -1). e(1, 2). q(a, b). q(zed). % a comment. With dots.
"#;
    let samples = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs")).unwrap();
    let mut sources: Vec<String> = samples.map(|f| std::fs::read_to_string(f.unwrap().path()).unwrap()).collect();
    sources.push(FIXTURE.into());
    for source in &sources {
        let unit = parse_program(source).unwrap();
        let mut db = Database::new(unit.program.interner.clone());
        let loaded = db.load_facts(unit.facts).unwrap();

        let interner = Interner::new();
        let mut want: FxHashMap<(SymbolId, usize), Relation> = FxHashMap::default();
        let mut clause_at = 0;
        for dot in tokenize(source).unwrap().into_iter().filter(|t| t.kind == TokenKind::Dot) {
            let clause = parse_program_with(&source[clause_at..=dot.offset], &interner).unwrap();
            clause_at = dot.offset + 1;
            for (pred, rows) in clause.facts {
                let rel = want.entry((pred.name, pred.arity)).or_insert_with(|| Relation::new(pred.arity));
                for row in rows {
                    rel.insert(row).unwrap();
                }
            }
        }
        assert_eq!(loaded, want.values().map(Relation::len).sum::<usize>(), "{source}");
        assert_eq!(db.relation_count(), want.len(), "{source}");
        for (id, rel) in &want {
            assert_eq!(db.relation(*id).map(Relation::rows), Some(rel.rows()), "{source}");
        }
    }
    assert_eq!(parse_program(FIXTURE).unwrap().facts.iter().map(|(_, rows)| rows.len()).sum::<usize>(), 14);
    // Errors keep their places: a non-ground fact at its `.`, a bad
    // character where it stands.
    for (tail, want) in [
        ("e(1, X).", "parse error at 5:8: a fact (bodyless clause) must be ground"),
        ("e(1, #).", "parse error at 5:6: unexpected character `#`"),
    ] {
        assert_eq!(parse_program(&format!("{FIXTURE}{tail}")).unwrap_err().to_string(), want);
    }
}

#[test]
fn index_probe_matches_a_filtered_scan() {
    let mut rng = SmallRng::seed_from_u64(0x32_B3);
    for arity in 1..=5usize {
        let mut rel = Relation::new(arity);
        for _ in 0..800 {
            rel.insert_unchecked(Tuple::new(&arb_row(&mut rng, arity, 3)));
        }
        for _ in 0..6 {
            let columns: Vec<usize> = (0..1 + rng.gen_below(2))
                .map(|_| rng.gen_below(arity as u64) as usize)
                .collect();
            let index = HashIndex::build(&rel, &columns);
            for probe in 0..200 {
                // Keys of stored rows (hits) and random keys (mostly misses).
                let key: Vec<Value> = if probe % 2 == 0 {
                    let row = &rel.rows()[rng.gen_below(rel.len() as u64) as usize];
                    columns.iter().map(|&c| row.get(c)).collect()
                } else {
                    arb_row(&mut rng, columns.len(), 3)
                };
                let scan: Vec<u32> = (0..rel.len() as u32)
                    .filter(|&r| columns.iter().zip(&key).all(|(&c, v)| rel.row(r).get(c) == *v))
                    .collect();
                assert_eq!(index.probe(&rel, &key), scan, "arity {arity} on {columns:?} key {key:?}");
                // The word-key probe the join calls returns the same postings.
                let words: Vec<(u64, bool)> = key.iter().map(|v| v.word()).collect();
                assert_eq!(index.probe_words(&rel, &words), scan, "arity {arity} on {columns:?} key {key:?}");
            }
        }
    }
}

#[test]
fn codec_is_the_identity_on_every_column_kind() {
    let sym = |k| Value::Sym(SymbolId(k));
    let batches: Vec<(usize, Vec<Tuple>)> = vec![
        // Int and IntDelta (nondecreasing) columns, extreme values.
        (2, vec![ituple![i64::MIN, 3], ituple![-1, -7], ituple![0, i64::MAX], ituple![i64::MAX, i64::MIN]]),
        // Sym columns.
        (2, vec![Tuple::new(&[sym(0), sym(u32::MAX)]), Tuple::new(&[sym(9), sym(0)])]),
        // Mixed columns, including Int(k) beside Sym(k).
        (3, vec![
            Tuple::new(&[Value::Int(7), sym(7), Value::Int(-7)]),
            Tuple::new(&[sym(7), Value::Int(7), sym(0)]),
            Tuple::new(&[Value::Int(i64::MIN), sym(u32::MAX), Value::Int(0)]),
        ]),
        // Arity 4: heap rows, one column of each kind.
        (4, vec![
            Tuple::new(&[Value::Int(5), sym(1), Value::Int(1), sym(2)]),
            Tuple::new(&[Value::Int(-5), sym(0), Value::Int(2), Value::Int(2)]),
        ]),
        (0, vec![Tuple::unit(), Tuple::unit()]),
    ];
    for (arity, rows) in &batches {
        let bytes = encode_batch(*arity, rows).unwrap();
        let mut out = vec![ituple![99]];
        assert_eq!(decode_batch_into(&bytes, &mut out).unwrap(), rows.len());
        assert_eq!(&out[1..], &rows[..], "arity {arity}");
        assert_eq!(*encode_batch(*arity, &out[1..]).unwrap(), *bytes, "arity {arity}: re-encode");
    }
    // And on random batches of every arity.
    let mut rng = SmallRng::seed_from_u64(0x32_B4);
    for case in 0..200 {
        let arity = rng.gen_below(MAX_ARITY + 1) as usize;
        let small = [1, 3, 1 << 40][rng.gen_below(3) as usize];
        let rows: Vec<Tuple> = (0..rng.gen_below(60))
            .map(|_| Tuple::new(&arb_row(&mut rng, arity, small)))
            .collect();
        let bytes = encode_batch(arity, &rows).unwrap();
        let mut out = Vec::new();
        decode_batch_into(&bytes, &mut out).unwrap();
        assert_eq!(out, rows, "case {case} arity {arity}");
    }
}
