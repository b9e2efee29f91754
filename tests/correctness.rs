//! Theorem 1/4/5 (equivalence): for every input of base relations, the
//! parallel execution of every rewriting scheme computes the same least
//! model as the sequential evaluation of the source program.
//!
//! These tests sweep the scheme × program × dataset grid.

use std::sync::Arc;

use parallel_datalog::core::schemes::BaseDistribution;
use parallel_datalog::prelude::*;
use parallel_datalog::runtime::FaultPlan;
use parallel_datalog::workloads::{
    binary_tree, chain, cycle, grid, layered, linear_ancestor, nonlinear_ancestor,
    random_digraph, same_generation, same_generation_tree, star, Fixture,
};

fn datasets() -> Vec<(&'static str, Relation)> {
    vec![
        ("chain", chain(18)),
        ("cycle", cycle(9)),
        ("tree", binary_tree(4)),
        ("star", star(12)),
        ("grid", grid(4, 5)),
        ("layered", layered(4, 4, 2, 3)),
        ("random", random_digraph(25, 55, 1)),
        ("dense-random", random_digraph(12, 60, 2)),
        ("empty", Relation::new(2)),
    ]
}

/// Seed of the deterministic reference runs: any fixed value gives a
/// single-threaded schedule that repeats bit for bit.
const SIM_SEED: u64 = 1990;

/// The parallel answer is the sequential engine's.
fn agrees(fx: &Fixture, db: &Database, outcome: &ExecutionOutcome) -> bool {
    let (seq, out) = (seminaive_eval(&fx.program, db).unwrap(), fx.output_id());
    outcome.relation(out).set_eq(&seq.relation(out))
}

/// Theorem 1 on Q_i across datasets (Example 3's discriminating choice).
#[test]
fn theorem1_non_redundant_scheme_equals_sequential() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    for n in [1usize, 2, 5] {
        for (name, edges) in datasets() {
            let db = fx.database(&edges);
            let scheme = example3_hash_partition(&sirup, n, &db).unwrap();
            let outcome = scheme.run().unwrap();
            assert!(agrees(&fx, &db, &outcome), "dataset {name}, n={n}");
        }
    }
}

/// Theorem 1 via Example 1 (zero communication) across datasets.
#[test]
fn theorem1_zero_comm_scheme_equals_sequential() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    for (name, edges) in datasets() {
        let db = fx.database(&edges);
        let scheme = example1_wolfson(&sirup, 4, &db).unwrap();
        let outcome = scheme.run().unwrap();
        assert!(
            outcome.stats.communication_free(),
            "dataset {name}: Example 1 must never communicate"
        );
        assert!(agrees(&fx, &db, &outcome), "dataset {name}");
    }
}

/// Theorem 1 via Example 2 over adversarial fragmentations.
#[test]
fn theorem1_fragmented_broadcast_equals_sequential() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    for (name, edges) in datasets() {
        if edges.is_empty() {
            continue; // fragmentation of nothing is trivial
        }
        let db = fx.database(&edges);
        let frag = round_robin_fragment(&edges, 3).unwrap();
        let scheme = example2_valduriez(&sirup, frag, &db).unwrap();
        let outcome = scheme.run().unwrap();
        assert!(agrees(&fx, &db, &outcome), "dataset {name}");
    }
}

/// Theorem 4: the generalized scheme is correct at arbitrary mixes of
/// per-processor routing functions.
#[test]
fn theorem4_generalized_scheme_equals_sequential() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let n = 3;
    let base_h: DiscriminatorRef = Arc::new(HashMod::new(n, 5));
    // A deliberately heterogeneous mix: one keeps local, one hashes, one
    // mixes 50/50.
    let h_locals: Vec<DiscriminatorRef> = vec![
        Arc::new(Constant::new(n, 0)),
        base_h.clone(),
        Arc::new(Mixed::new(2, base_h.clone(), 0.5, 9)),
    ];
    for (name, edges) in datasets() {
        let db = fx.database(&edges);
        let policies = [RulePolicy::shared(vec![fx.program.var("X")], &base_h), RulePolicy::local(vec![fx.program.var("Z")], h_locals.clone())];
        let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§6 R_i").unwrap().run().unwrap();
        assert!(agrees(&fx, &db, &outcome), "dataset {name}");
    }
}

/// Theorem 5: the general scheme on the non-linear program, both base
/// distributions.
#[test]
fn theorem5_general_scheme_equals_sequential() {
    let fx = nonlinear_ancestor();
    let h: DiscriminatorRef = Arc::new(HashMod::new(3, 13));
    let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
    for dist in [BaseDistribution::Shared, BaseDistribution::MinimalFragments] {
        for (name, edges) in datasets() {
            let db = fx.database(&edges);
            let scheme = rewrite_general(&fx.program, &choices, &db, dist).unwrap();
            let outcome = scheme.run().unwrap();
            assert!(agrees(&fx, &db, &outcome), "dataset {name}, dist {dist:?}");
        }
    }
}

/// The linear and non-linear ancestor programs, and the sequential and
/// parallel engines, all agree on the same closure.
#[test]
fn four_way_agreement_on_transitive_closure() {
    let linear = linear_ancestor();
    let nonlinear = nonlinear_ancestor();
    let edges = random_digraph(20, 45, 77);

    let db_l = linear.database(&edges);
    let db_n = nonlinear.database(&edges);

    let seq_l = seminaive_eval(&linear.program, &db_l).unwrap();
    let seq_n = seminaive_eval(&nonlinear.program, &db_n).unwrap();
    let naive_l = naive_eval(&linear.program, &db_l).unwrap();

    let sirup = LinearSirup::from_program(&linear.program).unwrap();
    let par_l = example3_hash_partition(&sirup, 4, &db_l)
        .unwrap()
        .run()
        .unwrap();

    let anc_l = linear.output_id();
    let anc_n = nonlinear.output_id();
    let reference = seq_l.relation(anc_l);
    assert!(reference.set_eq(&seq_n.relation(anc_n)));
    assert!(reference.set_eq(&naive_l.relation(anc_l)));
    assert!(reference.set_eq(&par_l.relation(anc_l)));
}

/// Same-generation through the non-redundant scheme on real tree data.
#[test]
fn same_generation_parallel_is_correct() {
    let fx = same_generation();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let (up, down, flat) = same_generation_tree(5);
    let db = fx.database_multi(&[up, down, flat]);
    let h: DiscriminatorRef = Arc::new(HashMod::new(4, 3));
    let policies = [RulePolicy::shared(vec![fx.program.var("X")], &h), RulePolicy::shared(vec![fx.program.var("U")], &h)];
    let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§3 Q_i").unwrap().run().unwrap();
    assert!(agrees(&fx, &db, &outcome));
    // All 16 leaves of the depth-5 tree are one generation: 16² pairs.
    assert!(outcome.relation(fx.output_id()).len() >= 16 * 16);
}

/// A fixed-seed simulated run — single-threaded, deterministic — and the
/// threaded runtime are interchangeable: same least model, same total
/// tuple traffic, same processing firings, for every scheme family.
#[test]
fn fixed_seed_sim_matches_threaded() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let edges = random_digraph(24, 55, 31);
    let db = fx.database(&edges);
    let anc = fx.output_id();

    for scheme in [
        example1_wolfson(&sirup, 4, &db).unwrap(),
        example3_hash_partition(&sirup, 4, &db).unwrap(),
        example2_valduriez(&sirup, round_robin_fragment(&edges, 4).unwrap(), &db).unwrap(),
    ] {
        let sim = scheme.run_simulated(SIM_SEED, FaultPlan::none()).unwrap();
        let threaded = scheme.run().unwrap();
        assert!(
            sim.relation(anc).set_eq(&threaded.relation(anc)),
            "{}: results differ between transports",
            scheme.kind
        );
        assert_eq!(
            sim.stats.total_tuples_sent(),
            threaded.stats.total_tuples_sent(),
            "{}: delta shipping must send each tuple once on both transports",
            scheme.kind
        );
        assert_eq!(
            sim.stats.total_processing_firings(),
            threaded.stats.total_processing_firings(),
            "{}: non-redundant firing counts are schedule-independent",
            scheme.kind
        );
    }
}

/// The fixed-seed simulated run on the §7 general scheme (non-linear
/// program).
#[test]
fn fixed_seed_sim_on_general_scheme() {
    let fx = nonlinear_ancestor();
    let db = fx.database(&grid(4, 4));
    let h: DiscriminatorRef = Arc::new(HashMod::new(3, 13));
    let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
    let scheme =
        rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
    let sim = scheme.run_simulated(SIM_SEED, FaultPlan::none()).unwrap();
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let anc = fx.output_id();
    assert!(sim.relation(anc).set_eq(&seq.relation(anc)));
    assert!(sim.stats.total_processing_firings() <= seq.stats.firings);
    // Byte accounting: wire bytes flow only where tuples flow, and every
    // byte sent is received by someone.
    assert!((sim.stats.total_bytes_sent() > 0) == (sim.stats.total_tuples_sent() > 0));
    let received: u64 = sim.stats.workers.iter().map(|w| w.received_bytes).sum();
    assert_eq!(sim.stats.total_bytes_sent(), received);
}

/// Built-in comparison literals flow through the planner's constraint
/// pushdown (same machinery as the discriminating conditions) — in the
/// sequential engine and through a full parallel scheme.
#[test]
fn comparison_builtins_work_sequentially_and_in_parallel() {
    let unit = parse_program(
        "up(X,Y) :- e(X,Y), X < Y.\n\
         up(X,Y) :- e(X,Z), X < Z, up(Z,Y).\n\
         e(1,2). e(2,3). e(3,1). e(3,4). e(4,2).",
    )
    .unwrap();
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts.clone()).unwrap();
    let up = (unit.program.interner.get("up").unwrap(), 2);

    let seq = seminaive_eval(&unit.program, &db).unwrap();
    // Monotone paths only: 1<2<3, 3<4 — but never through 3→1 or 4→2.
    let rel = seq.relation(up);
    assert!(rel.contains(&ituple![1, 2]));
    assert!(rel.contains(&ituple![1, 4])); // 1<2<3<4
    assert!(!rel.contains(&ituple![3, 1]));
    assert!(!rel.contains(&ituple![4, 2]));

    // Parallel via the §3 scheme: comparisons are copied verbatim into
    // the rewritten processing rules.
    let sirup = LinearSirup::from_program(&unit.program).unwrap();
    let var = |n: &str| Variable(unit.program.interner.get(n).unwrap());
    let h: DiscriminatorRef = Arc::new(HashMod::new(3, 5));
    let policies = [RulePolicy::shared(vec![var("X")], &h), RulePolicy::shared(vec![var("Z")], &h)];
    let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§3 Q_i").unwrap().run().unwrap();
    assert!(outcome.relation(up).set_eq(&rel));
}

/// Inequality selects non-reflexive pairs; equality constrains joins.
#[test]
fn comparison_eq_and_ne_semantics() {
    let unit = parse_program(
        "sib(X,Y) :- par(P,X), par(P,Y), X != Y.\n\
         selfp(X) :- par(P,X), par(Q,X), P = Q.\n\
         par(1,10). par(1,11). par(2,20).",
    )
    .unwrap();
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts.clone()).unwrap();
    let r = seminaive_eval(&unit.program, &db).unwrap();
    let sib = (unit.program.interner.get("sib").unwrap(), 2);
    let selfp = (unit.program.interner.get("selfp").unwrap(), 1);
    assert_eq!(r.relation(sib).len(), 2); // (10,11), (11,10)
    assert_eq!(r.relation(selfp).len(), 3); // each child, P = Q trivially
}

/// A sirup whose recursive body t-atom carries a constant: the sending
/// pattern `t_ij(Ȳ)` then filters to matching tuples — exactly what the
/// paper's literal rule says — and non-matching tuples still pool.
#[test]
fn constants_in_the_recursive_atom_pattern() {
    let unit = parse_program(
        "t(X,Y) :- s(X,Y).\n\
         t(X,Y) :- t(0,Z), e(Z,X,Y).\n\
         s(0,1). s(0,2). s(5,9).\n\
         e(1,0,3). e(2,7,8). e(3,0,4).",
    )
    .unwrap();
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts.clone()).unwrap();
    let t_id = (unit.program.interner.get("t").unwrap(), 2);
    let seq = seminaive_eval(&unit.program, &db).unwrap();
    // Derivations: t(0,1) → e(1,0,3) → t(0,3) → e(3,0,4) → t(0,4);
    // t(0,2) → e(2,7,8) → t(7,8) — which cannot extend (first ≠ 0).
    assert!(seq.relation(t_id).contains(&ituple![0, 4]));
    assert!(seq.relation(t_id).contains(&ituple![7, 8]));
    assert!(seq.relation(t_id).contains(&ituple![5, 9]));

    let sirup = LinearSirup::from_program(&unit.program).unwrap();
    let var = |n: &str| Variable(unit.program.interner.get(n).unwrap());
    let h: DiscriminatorRef = Arc::new(HashMod::new(3, 2));
    let policies = [RulePolicy::shared(vec![var("X")], &h), RulePolicy::shared(vec![var("Z")], &h)];
    let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§3 Q_i").unwrap().run().unwrap();
    assert!(outcome.relation(t_id).set_eq(&seq.relation(t_id)));
    assert!(outcome.stats.total_processing_firings() <= seq.stats.firings);
}

/// A rule whose body binds no variable takes the empty sequence: its one
/// ground substitution fires at the processor `h(⟨⟩)` names, and `go`,
/// which `step`'s `⟨X⟩` cannot route, is broadcast.
#[test]
fn zero_arity_programs_take_the_empty_sequence() {
    let unit = parse_program("go :- ready.\nstep(X) :- go, e(X).\nready. e(1). e(2). e(3).").unwrap();
    let h: DiscriminatorRef = Arc::new(HashMod::new(2, 1));
    let x = Variable(unit.program.interner.get("X").unwrap());
    let choices = vec![RuleChoice { v: vec![], h: h.clone() }, RuleChoice { v: vec![x], h }];
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts.clone()).unwrap();
    let scheme = rewrite_general(&unit.program, &choices, &db, BaseDistribution::Shared).unwrap();
    let (outcome, seq) = (scheme.run().unwrap(), seminaive_eval(&unit.program, &db).unwrap());
    for id in scheme.answers.iter().copied() {
        assert!(!seq.relation(id).is_empty() && outcome.relation(id).set_eq(&seq.relation(id)));
    }
    assert_eq!(outcome.stats.total_processing_firings(), seq.stats.firings);
}

/// Repeated variables in the recursive atom (`t(Z,Z)`) make the send
/// pattern a filter; equivalence must still hold.
#[test]
fn repeated_variables_in_recursive_atom() {
    let unit = parse_program(
        "t(X,Y) :- s(X,Y).\n\
         t(X,Y) :- t(Z,Z), e(Z,X,Y).\n\
         s(1,1). s(2,3). s(4,4).\n\
         e(1,5,5). e(4,6,7). e(5,8,8). e(8,9,9).",
    )
    .unwrap();
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts.clone()).unwrap();
    let t_id = (unit.program.interner.get("t").unwrap(), 2);
    let seq = seminaive_eval(&unit.program, &db).unwrap();
    // t(1,1) → t(5,5) → t(8,8) → t(9,9); t(4,4) → t(6,7) (dead end).
    assert!(seq.relation(t_id).contains(&ituple![9, 9]));
    assert!(seq.relation(t_id).contains(&ituple![6, 7]));

    let sirup = LinearSirup::from_program(&unit.program).unwrap();
    let var = |n: &str| Variable(unit.program.interner.get(n).unwrap());
    let h: DiscriminatorRef = Arc::new(HashMod::new(4, 9));
    let policies = [RulePolicy::shared(vec![var("X")], &h), RulePolicy::shared(vec![var("Z")], &h)];
    let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§3 Q_i").unwrap().run().unwrap();
    assert!(outcome.relation(t_id).set_eq(&seq.relation(t_id)));
}
