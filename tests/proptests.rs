//! Property-based tests over the whole stack: random graphs, random
//! discriminating choices, random fragmentations — the invariants of the
//! paper must hold for *every* input, not just the corpus.
//!
//! Cases are generated by the workspace's seeded [`SmallRng`] (no external
//! property-testing crate): every case derives deterministically from a
//! fixed base seed, so a failure report's `case` number is immediately
//! replayable, and the suite runs identically on every machine.

use std::sync::Arc;

use parallel_datalog::core::schemes::BaseDistribution;
use parallel_datalog::prelude::*;
use parallel_datalog::workloads::{linear_ancestor, nonlinear_ancestor};

const CASES: u64 = 24;

/// Random edge relation of bounded size over a small node domain (small
/// domains force collisions, cycles, diamonds — the hard cases).
fn arb_edges(rng: &mut SmallRng) -> Relation {
    let mut rel = Relation::new(2);
    for _ in 0..rng.gen_below(40) {
        rel.insert_unchecked(ituple![
            rng.gen_range_i64(0..12),
            rng.gen_range_i64(0..12)
        ]);
    }
    rel
}

/// Semi-naive and naive evaluation agree on every graph (the sequential
/// engine's core invariant).
#[test]
fn seminaive_equals_naive() {
    let mut rng = SmallRng::seed_from_u64(0xA0);
    for case in 0..CASES {
        let edges = arb_edges(&mut rng);
        let fx = linear_ancestor();
        let db = fx.database(&edges);
        let a = seminaive_eval(&fx.program, &db).unwrap();
        let b = naive_eval(&fx.program, &db).unwrap();
        assert!(
            a.relation(fx.output_id()).set_eq(&b.relation(fx.output_id())),
            "case {case}: models diverge"
        );
        // Semi-naive never fires more often than naive.
        assert!(a.stats.firings <= b.stats.firings, "case {case}");
    }
}

/// Theorem 1 + Theorem 2 for the §3 scheme under random graphs, processor
/// counts and hash seeds.
#[test]
fn non_redundant_scheme_invariants() {
    let mut rng = SmallRng::seed_from_u64(0xA1);
    for case in 0..CASES {
        let edges = arb_edges(&mut rng);
        let n = 1 + rng.gen_below(4) as usize;
        let seed = rng.gen_below(1000);
        let fx = linear_ancestor();
        let sirup = LinearSirup::from_program(&fx.program).unwrap();
        let db = fx.database(&edges);
        let h: DiscriminatorRef = Arc::new(HashMod::new(n, seed));
        let cfg = NonRedundantConfig {
            v_r: vec![fx.program.var("Z")],
            v_e: vec![fx.program.var("X")],
            h: h.clone(),
            h_prime: h,
            base: BaseDistribution::MinimalFragments,
        };
        let outcome = rewrite_non_redundant(&sirup, &cfg, &db).unwrap().run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        assert!(
            outcome.relation(fx.output_id()).set_eq(&seq.relation(fx.output_id())),
            "case {case} (n={n}, seed={seed}): parallel model diverges"
        );
        assert!(
            outcome.stats.total_processing_firings() <= seq.stats.firings,
            "case {case} (n={n}, seed={seed}): redundant work"
        );
    }
}

/// The regression the retired proptest suite had checked in: an *empty*
/// edge relation with a single processor and hash seed 0 — every count is
/// zero, every fragment empty, and the scheme must still build, run and
/// terminate with an empty answer.
#[test]
fn non_redundant_scheme_empty_edges_single_processor_regression() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let edges = Relation::new(2);
    let db = fx.database(&edges);
    let h: DiscriminatorRef = Arc::new(HashMod::new(1, 0));
    let cfg = NonRedundantConfig {
        v_r: vec![fx.program.var("Z")],
        v_e: vec![fx.program.var("X")],
        h: h.clone(),
        h_prime: h,
        base: BaseDistribution::MinimalFragments,
    };
    let outcome = rewrite_non_redundant(&sirup, &cfg, &db).unwrap().run().unwrap();
    assert!(outcome.relation(fx.output_id()).is_empty());
    assert_eq!(outcome.stats.total_processing_firings(), 0);
    assert!(outcome.stats.communication_free());
}

/// Theorem 3: the Example-1 construction never communicates, for any
/// graph and processor count.
#[test]
fn zero_comm_choice_never_communicates() {
    let mut rng = SmallRng::seed_from_u64(0xA2);
    for case in 0..CASES {
        let edges = arb_edges(&mut rng);
        let n = 1 + rng.gen_below(5) as usize;
        let fx = linear_ancestor();
        let sirup = LinearSirup::from_program(&fx.program).unwrap();
        let db = fx.database(&edges);
        let outcome = example1_wolfson(&sirup, n, &db).unwrap().run().unwrap();
        assert!(outcome.stats.communication_free(), "case {case} (n={n})");
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        assert!(
            outcome.relation(fx.output_id()).set_eq(&seq.relation(fx.output_id())),
            "case {case} (n={n})"
        );
    }
}

/// Theorems 5/6 for the §7 scheme on the non-linear program.
#[test]
fn general_scheme_invariants() {
    let mut rng = SmallRng::seed_from_u64(0xA3);
    for case in 0..CASES {
        let edges = arb_edges(&mut rng);
        let n = 1 + rng.gen_below(3) as usize;
        let seed = rng.gen_below(1000);
        let fx = nonlinear_ancestor();
        let db = fx.database(&edges);
        let h: DiscriminatorRef = Arc::new(HashMod::new(n, seed));
        let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
        let scheme = rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        assert!(
            outcome.relation(fx.output_id()).set_eq(&seq.relation(fx.output_id())),
            "case {case} (n={n}, seed={seed})"
        );
        assert!(
            outcome.stats.total_processing_firings() <= seq.stats.firings,
            "case {case} (n={n}, seed={seed})"
        );
    }
}

/// Fragmentations partition: disjoint, covering, owner-consistent.
#[test]
fn fragmentation_invariants() {
    let mut rng = SmallRng::seed_from_u64(0xA4);
    for case in 0..CASES {
        let edges = arb_edges(&mut rng);
        let n = 1 + rng.gen_below(5) as usize;
        let col = rng.gen_below(2) as usize;
        let frag = hash_fragment(&edges, &[col], n).unwrap();
        assert!(frag.covers(&edges), "case {case}");
        assert_eq!(frag.sizes().iter().sum::<usize>(), edges.len(), "case {case}");
        for t in edges.iter() {
            let owner = frag.owner_of(t).unwrap();
            assert!(frag.fragment(owner).contains(t), "case {case}");
            for i in 0..n {
                if i != owner {
                    assert!(!frag.fragment(i).contains(t), "case {case}");
                }
            }
        }
    }
}

/// Comparison built-ins agree with a post-filter: `up` (edges with X < Y,
/// closed transitively through monotone hops) is exactly the closure of
/// the <-filtered edge set.
#[test]
fn comparisons_equal_prefiltered_closure() {
    let mut rng = SmallRng::seed_from_u64(0xA5);
    for case in 0..CASES {
        let edges = arb_edges(&mut rng);
        let unit = parse_program(
            "up(X,Y) :- e(X,Y), X < Y.\n\
             up(X,Y) :- e(X,Z), X < Z, up(Z,Y).",
        )
        .unwrap();
        let e_id = (unit.program.interner.get("e").unwrap(), 2);
        let mut db = Database::new(unit.program.interner.clone());
        db.put_relation(e_id, edges.clone()).unwrap();
        let with_builtin = seminaive_eval(&unit.program, &db).unwrap();

        // Oracle: filter the edges first, then run plain TC.
        let filtered = Relation::from_distinct(2, edges.iter().filter(|t| t.get(0) < t.get(1)).cloned().collect()).unwrap();
        let fx = linear_ancestor();
        let db2 = fx.database(&filtered);
        let oracle = seminaive_eval(&fx.program, &db2).unwrap();

        let up = (unit.program.interner.get("up").unwrap(), 2);
        assert!(
            with_builtin.relation(up).set_eq(&oracle.relation(fx.output_id())),
            "case {case}"
        );
    }
}

/// A random source in three sections — rules, facts, goals — with
/// comments, odd whitespace, comparisons and every spelling of a constant
/// the lexer accepts: bare and quoted symbols, escapes, non-ASCII, leading
/// zeros, `-0`, `i64::MIN` and `i64::MAX`.
fn arb_source(rng: &mut SmallRng) -> String {
    const PREDS: &[&str] = &["p", "edge", "r2_d2", "ünder", "tc"];
    const VARS: &[&str] = &["X", "Y", "Z", "_t", "Ünï", "W9"];
    const CONSTS: &[&str] = &[
        "alice", r#""alice""#, r#""John Smith""#, r#""a\"b""#, r#""tab\there""#, r#""new\nline""#,
        r#""back\\slash""#, r#""Ünï""#, r#""""#, "ß", r#""p""#, "0", "-0", "42", "-7", "007",
        "-9223372036854775808", "9223372036854775807",
    ];
    const GAPS: &[&str] = &["", " ", "\t", "\n", "\r\n", " % a comment\n", "\n// another\n"];
    const OPS: &[&str] = &["<", "<=", ">", ">=", "=", "!="];
    fn pick(rng: &mut SmallRng, xs: &[&'static str]) -> &'static str {
        xs[rng.gen_below(xs.len() as u64) as usize]
    }
    fn atom(rng: &mut SmallRng, terms: &[&'static str]) -> String {
        let args: Vec<&str> = (0..rng.gen_below(4)).map(|_| pick(rng, terms)).collect();
        let gap = pick(rng, GAPS);
        match args.len() {
            0 if rng.gen_bool(0.5) => pick(rng, PREDS).to_string(),
            _ => format!("{}({gap}{})", pick(rng, PREDS), args.join(&format!(",{gap}"))),
        }
    }
    let mut out = String::new();
    let both: Vec<&'static str> = VARS.iter().chain(CONSTS).copied().collect();
    for _ in 0..rng.gen_below(4) {
        let mut body: Vec<String> = (0..1 + rng.gen_below(3)).map(|_| atom(rng, &both)).collect();
        if rng.gen_bool(0.5) {
            body.push(format!("{} {} {}", pick(rng, &both), pick(rng, OPS), pick(rng, &both)));
        }
        let gap = pick(rng, GAPS);
        out.push_str(&format!("{}{gap}:-{gap}{}.{}\n", atom(rng, &both), body.join(","), pick(rng, GAPS)));
    }
    for _ in 0..rng.gen_below(6) {
        out.push_str(&format!("{}.{}\n", atom(rng, CONSTS), pick(rng, GAPS)));
    }
    for _ in 0..rng.gen_below(3) {
        out.push_str(&format!("?-{}{}.\n", pick(rng, GAPS), atom(rng, &both)));
    }
    out
}

/// The parser and pretty-printer round-trip whole units: `pretty::unit`
/// of a random source parses to an equal unit — every symbol under the
/// same id, the same facts in the same order, the same goals, and rules
/// that render to the same text (with the symbol table equal, that is the
/// same rules).
#[test]
fn parser_pretty_round_trip() {
    use parallel_datalog::common::SymbolId;
    use parallel_datalog::frontend::{pretty, ParsedUnit};
    let names = |u: &ParsedUnit| {
        let i = &u.program.interner;
        (0..i.len() as u32).map(|k| i.resolve(SymbolId(k))).collect::<Vec<_>>()
    };
    let mut rng = SmallRng::seed_from_u64(0xA6);
    for case in 0..CASES * 8 {
        let source = arb_source(&mut rng);
        let first = parse_program(&source).unwrap_or_else(|e| panic!("case {case}: {e}\n{source}"));
        let rendered = pretty::unit(&first);
        let second = parse_program(&rendered).unwrap_or_else(|e| panic!("case {case}: {e}\n{rendered}"));
        assert_eq!(names(&first), names(&second), "case {case}: symbol ids\n{source}\n{rendered}");
        assert_eq!(first.facts, second.facts, "case {case}");
        assert_eq!(first.queries, second.queries, "case {case}");
        assert_eq!(pretty::unit(&second), rendered, "case {case}");
    }
}

/// Non-property guard: the suite's fixtures stay valid.
#[test]
fn fixtures_are_wellformed() {
    let fx = linear_ancestor();
    assert!(LinearSirup::from_program(&fx.program).is_ok());
    assert!(ProgramAnalysis::new(&fx.program).is_ok());
    let fx = nonlinear_ancestor();
    assert!(ProgramAnalysis::new(&fx.program).is_ok());
}
